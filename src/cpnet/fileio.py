"""On-disk formats: CPT1 tensors, PGM/PPM images, checkpoints, datasets.

CPT1 is this project's tiny tensor container: magic ``CPT1``, one dtype
byte (0=float32, 1=float64, 2=int32, 3=uint8), one rank byte, rank
little-endian u32 dims, then the raw little-endian row-major buffer.
Writers always emit canonical bytes, so equal arrays produce equal files
and checkpoints can be compared byte for byte.

A checkpoint is a directory: ``manifest.txt`` (step counter, RNG state,
and one line per tensor with name/shape/dtype), ``config.txt`` (the full
serialized run configuration), and ``tensors/<name>.cpt`` blobs for every
parameter and BN running statistic.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

from .data import SyntheticScene
from .labelmap import LabelMap
from .tensor import ShapeError

_DTYPE_CODES = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("<i4"): 2,
    np.dtype("u1"): 3,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
_CPT_DTYPE_NAMES = {dt.name for dt in _CODE_DTYPES.values()}  # as checkpoint manifests write them
MAGIC = b"CPT1"


class FormatError(ValueError):
    """A file's bytes do not match the format it should hold."""


def cpt_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    if arr.ndim:  # ascontiguousarray would promote rank 0 to rank 1
        arr = np.ascontiguousarray(arr)
    dt = arr.dtype.newbyteorder("<")
    if dt not in _DTYPE_CODES:
        raise ShapeError(f"CPT1 cannot hold dtype {arr.dtype}")
    head = MAGIC + bytes([_DTYPE_CODES[dt], arr.ndim])
    dims = b"".join(int(d).to_bytes(4, "little") for d in arr.shape)
    return head + dims + arr.astype(dt, copy=False).tobytes()


def write_cpt(path: str, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(cpt_bytes(arr))


def read_cpt(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except ValueError as e:  # a NUL in a name read from a manifest
        raise FormatError(f"{path!r}: {e}") from None
    if blob[:4] != MAGIC or len(blob) < 6:
        raise FormatError(f"{path}: not a CPT1 file")
    code, rank = blob[4], blob[5]
    if code not in _CODE_DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    if rank > 64:
        raise FormatError(f"{path}: rank {rank} exceeds numpy's limit of 64")
    dims = [
        int.from_bytes(blob[6 + 4 * i:10 + 4 * i], "little") for i in range(rank)
    ]
    off = 6 + 4 * rank
    dt = _CODE_DTYPES[code]
    n = math.prod(dims)
    expect = off + n * dt.itemsize
    if len(blob) != expect:
        raise FormatError(f"{path}: size {len(blob)} != expected {expect}")
    arr = np.frombuffer(blob, dtype=dt, count=n, offset=off)
    return arr.reshape(dims).copy()


def write_pgm(path: str, gray: np.ndarray) -> None:
    """Binary (P5) grayscale; expects a 2-D uint8 array."""
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ShapeError(f"PGM wants 2-D uint8, got {gray.shape} {gray.dtype}")
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(gray).tobytes())


def write_ppm(path: str, rgb: np.ndarray) -> None:
    """Binary (P6) color; expects (H, W, 3) uint8."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ShapeError(f"PPM wants (H,W,3) uint8, got {rgb.shape} {rgb.dtype}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(rgb).tobytes())


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(
    path: str,
    tensors: dict[str, np.ndarray],
    step: int,
    rng_state: tuple[int, int, int, int],
    config_text: str,
) -> None:
    """Write to ``<path>.tmp``, then swap it in for any checkpoint at ``path``
    (renamed to ``<path>.old``, then deleted): a failed write leaves it as it was."""
    path = os.path.normpath(path)
    tmp, old = path + ".tmp", path + ".old"
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    lines = [f"step = {step}", "rng = " + " ".join(f"{s:016x}" for s in rng_state)]
    try:
        os.makedirs(os.path.join(tmp, "tensors"))
        for name in sorted(tensors):
            arr = tensors[name]
            shape = "x".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
            lines.append(f"tensor {name} {arr.dtype.name} {shape}")
            write_cpt(os.path.join(tmp, "tensors", name + ".cpt"), arr)
        with open(os.path.join(tmp, "manifest.txt"), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        with open(os.path.join(tmp, "config.txt"), "w", encoding="utf-8") as f:
            f.write(config_text)
        if os.path.isdir(path):
            os.replace(path, old)
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)


def _check_plain_name(name: str, where: str) -> None:
    """A manifest name must name a file inside its own directory: not empty,
    ``.`` or ``..``, and with no directory part (no separator, no root)."""
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise FormatError(f"{where}: name {name!r} is not a plain file name")


def _refuse_repeat(repeated: bool, where: str, entry: str) -> None:
    """A manifest names each step, rng state, tensor and scene once."""
    if repeated:
        raise FormatError(f"{where}: {entry!r} repeats an earlier entry")


def _read_text(path: str) -> str:
    """A UTF-8 text file's contents; bytes that do not decode are a FormatError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], int, tuple, str]:
    mpath = os.path.join(path, "manifest.txt")
    lines = [ln.strip() for ln in _read_text(mpath).split("\n") if ln.strip()]
    step = None
    rng_state = None
    tensors: dict[str, np.ndarray] = {}
    for ln in lines:
        try:
            if ln.startswith("step = "):
                _refuse_repeat(step is not None, mpath, ln)
                step = int(ln.split("=", 1)[1])
                continue
            if ln.startswith("rng = "):
                _refuse_repeat(rng_state is not None, mpath, ln)
                rng_state = tuple(int(tok, 16) for tok in ln.split("=", 1)[1].split())
                continue
            if not ln.startswith("tensor "):
                raise FormatError(f"{mpath}: unrecognized line {ln!r}")
            _, name, dtype_name, shape = ln.split(" ")
            _check_plain_name(name, mpath)
            _refuse_repeat(name in tensors, mpath, ln)
            if dtype_name not in _CPT_DTYPE_NAMES:
                raise FormatError(f"{mpath}: unknown dtype {dtype_name!r} in {ln!r}")
            want = () if shape == "scalar" else tuple(int(d) for d in shape.split("x"))
        except FormatError:
            raise
        except ValueError as e:
            raise FormatError(f"{mpath}: cannot parse line {ln!r}") from e
        arr = read_cpt(os.path.join(path, "tensors", name + ".cpt"))
        if arr.dtype != np.dtype(dtype_name):
            raise FormatError(f"{name}: manifest says {dtype_name}, file holds {arr.dtype}")
        if arr.shape != want:
            raise FormatError(f"{name}: manifest says {shape}, file holds {arr.shape}")
        tensors[name] = arr
    if step is None or rng_state is None:
        raise FormatError(f"{mpath}: missing step or rng entries")
    return tensors, step, rng_state, _read_text(os.path.join(path, "config.txt"))


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

def save_dataset(path: str, scenes) -> None:
    """Paired `{id}.img.cpt` / `{id}.lbl.cpt` files plus a manifest."""
    os.makedirs(path, exist_ok=True)
    lines = []
    for i, scene in enumerate(scenes):
        sid = f"{i:05d}"
        write_cpt(os.path.join(path, sid + ".img.cpt"), scene.image)
        write_cpt(os.path.join(path, sid + ".lbl.cpt"), scene.labels.labels)
        lines.append(f"{sid} seed={scene.seed}")
    with open(os.path.join(path, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_dataset(path: str):
    """Scenes in manifest order.  Each manifest line is ``<id>`` or
    ``<id> seed=<int>`` (seed 0 when absent), and names a scene once."""
    manifest = _read_text(os.path.join(path, "manifest.txt"))
    entries = [ln.split() for ln in manifest.split("\n") if ln.strip()]
    scenes: dict[str, SyntheticScene] = {}
    for sid, *fields in entries:
        _check_plain_name(sid, path)
        _refuse_repeat(sid in scenes, path, sid)
        try:
            (field,) = fields or ["seed=0"]
            key, value = field.split("=", 1)
            if key != "seed":
                raise ValueError(f"unknown field {key!r}")
            seed = int(value)
        except ValueError as e:
            raise FormatError(
                f"{path}: cannot parse manifest entry {' '.join([sid, *fields])!r}") from e
        img = read_cpt(os.path.join(path, sid + ".img.cpt"))
        lab = read_cpt(os.path.join(path, sid + ".lbl.cpt"))
        if (img.ndim != 3 or img.shape[0] != 3 or lab.shape != img.shape[1:] or 0 in img.shape
                or img.dtype.kind != "f" or lab.dtype.kind not in "iu"):
            raise FormatError(
                f"{path}: scene {sid} has image {img.shape} {img.dtype} and labels "
                f"{lab.shape} {lab.dtype}; want (3, H, W) float with H, W >= 1 and (H, W) integer"
            )
        scenes[sid] = SyntheticScene(img, LabelMap(lab.astype(np.int32, copy=False)), seed)
    return list(scenes.values())
