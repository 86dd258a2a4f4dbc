"""Integer per-pixel class assignments with an ignore sentinel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

IGNORE_INDEX = 255


def check_classes(labels: np.ndarray, num_classes: int) -> None:
    """Raise ValueError naming the first label other than IGNORE_INDEX
    outside [0, num_classes); ``labels`` may have any rank."""
    bad = (labels != IGNORE_INDEX) & ((labels < 0) | (labels >= num_classes))
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"label {labels[at]} at pixel {at} is outside [0, {num_classes})")


@dataclass
class LabelMap:
    """A scene's label record: ``labels``, its (H, W) int32 class grid.

    Entries equal to ``ignore_index`` (always IGNORE_INDEX) mark unlabeled
    pixels: they are excluded from every loss, metric, and affinity target.
    Only ``data`` and ``fileio`` build one; past the scene, labels are bare arrays.
    ``perfbench/workloads.py``'s ``reference_counts`` reads both fields.
    """

    labels: np.ndarray
    ignore_index: ClassVar[int] = IGNORE_INDEX
