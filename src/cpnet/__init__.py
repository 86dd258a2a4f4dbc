"""Affinity-supervised scene segmentation toys on a from-scratch tensor core."""

from ._threads import apply_thread_cap as _apply_thread_cap
from ._threads import pin_heap_thresholds as _pin_heap_thresholds

_apply_thread_cap()  # must precede the numpy import chain below
_pin_heap_thresholds()

from .labelmap import IGNORE_INDEX, LabelMap  # noqa: E402
from .tensor import Graph, NumericError, Parameter, ShapeError, Tensor  # noqa: E402

__all__ = [
    "IGNORE_INDEX",
    "LabelMap",
    "Graph",
    "NumericError",
    "Parameter",
    "ShapeError",
    "Tensor",
]
