"""Process-level runtime settings, applied once when the package is imported.

CPNET_THREADS caps intra-op (BLAS) parallelism by seeding the usual
environment knobs.  BLAS libraries read these once at load time, which is
why the package __init__ calls this before anything touches numpy.

The heap thresholds keep a training step's freed arrays (conv columns,
batch-norm and loss intermediates) in the process, so the next step reuses
their pages instead of mapping and faulting them in again.
"""

import ctypes
import os

_KNOBS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# mallopt parameters, and the values glibc's dynamic threshold rule stops
# at on 64-bit: DEFAULT_MMAP_THRESHOLD_MAX, and a trim threshold of twice it
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def apply_thread_cap() -> None:
    cap = os.environ.get("CPNET_THREADS")
    if not cap:
        return
    for knob in _KNOBS:
        os.environ[knob] = cap


def pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at their dynamic maximum.

    Left dynamic, glibc sets the trim threshold to twice the largest freed
    mmapped chunk (a ~2.4 MB conv column buffer here), so each step's tens
    of MB of freed temporaries go back to the kernel and fault in anew.
    Does nothing where libc has no ``mallopt`` or rejects the call.
    """
    try:
        # the interpreter's own symbols, which include the libc it runs on
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
