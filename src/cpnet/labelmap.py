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
    """A dense H x W grid of integer class labels.

    Entries equal to ``ignore_index`` (always IGNORE_INDEX) mark unlabeled
    pixels: they are excluded from every loss, metric, and affinity target.
    """

    labels: np.ndarray
    ignore_index: ClassVar[int] = IGNORE_INDEX

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ValueError(f"labels must be 2-D, got shape {arr.shape}")
        self.labels = np.ascontiguousarray(arr, dtype=np.int32)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def valid(self) -> np.ndarray:
        """Boolean H x W mask of non-ignored pixels."""
        return self.labels != self.ignore_index

    def validate_classes(self, num_classes: int) -> None:
        """Raise if any non-ignored label falls outside [0, num_classes)."""
        check_classes(self.labels, num_classes)
