"""Synthetic scenes, training augmentation, and segmentation metrics.

Scenes are flat-colored shapes (rectangles, disks, full-span bars) on a
dark background, drawn back to front; the shape kind and its class are
drawn independently.  Two confusers make the task non-trivial without
making it ambiguous: a random shadow region darkens the image without
touching the labels (intra-class appearance variation), and Gaussian
pixel noise is added everywhere.

Scenes and augmentation read their settings from the run's `TrainConfig`
(scene side, classes, shape sizes, noise, shadow, flip, scales, crop),
which validates them; nothing here re-checks them.  Everything random
comes from the documented generator in `rng`, so a (seed, config) pair
produces bit-identical scenes on any platform, and `gen_synthetic_scenes`
builds a batch whose scenes do not depend on their batch mates
(`gen_synthetic_scene` is the batch of one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .labelmap import IGNORE_INDEX, LabelMap
from .rng import Rng, bulk_normal, derive
from .tensor import ShapeError, bilinear_matrix

# class index -> base color (also the PPM export palette, times 255)
PALETTE = np.array(
    [
        (0.18, 0.18, 0.21),  # 0 background: dark slate
        (0.85, 0.22, 0.16),  # 1 red
        (0.20, 0.74, 0.28),  # 2 green
        (0.22, 0.36, 0.88),  # 3 blue
        (0.90, 0.78, 0.12),  # 4 yellow
        (0.62, 0.21, 0.74),  # 5 purple
        (0.13, 0.72, 0.74),  # 6 teal
        (0.92, 0.51, 0.11),  # 7 orange
    ],
    dtype=np.float64,
)

SHADOW_FACTOR = 0.55
_TAG_GEOMETRY = 0x01
_TAG_NOISE = 0x02


@dataclass
class SyntheticScene:
    """A scene and the seed that drew it; ``labels.labels`` is its (H, W) int32 grid."""

    image: np.ndarray  # (3, H, W) float32 in [0, 1]
    labels: LabelMap
    seed: int


def class_color(cls: int) -> np.ndarray:
    return PALETTE[cls % len(PALETTE)]


def labels_to_rgb(labels: np.ndarray) -> np.ndarray:
    """(H, W, 3) uint8 rendering of an (H, W) label array; ignored pixels are black."""
    out = np.zeros(labels.shape + (3,), dtype=np.uint8)
    for cls in np.unique(labels):
        if cls == IGNORE_INDEX:
            continue
        out[labels == cls] = (class_color(int(cls)) * 255).astype(np.uint8)
    return out


def _draw_shape(rng: Rng, img, lab, cls: int, cfg: TrainConfig) -> None:
    h, w = lab.shape
    color = class_color(cls) + (np.array([rng.uniform(), rng.uniform(), rng.uniform()]) - 0.5) * 0.1
    kind = rng.randint(3)
    if kind == 0:  # rectangle
        sh = cfg.min_shape + rng.randint(cfg.max_shape - cfg.min_shape + 1)
        sw = cfg.min_shape + rng.randint(cfg.max_shape - cfg.min_shape + 1)
        sh, sw = min(sh, h), min(sw, w)
        y0 = rng.randint(h - sh + 1)
        x0 = rng.randint(w - sw + 1)
        region = np.s_[y0:y0 + sh, x0:x0 + sw]
    elif kind == 1:  # disk
        r = (cfg.min_shape + rng.randint(cfg.max_shape - cfg.min_shape + 1)) // 2
        r = max(r, 2)
        cy = r + rng.randint(max(h - 2 * r, 1))
        cx = r + rng.randint(max(w - 2 * r, 1))
        region = (np.arange(h)[:, None] - cy) ** 2 + (np.arange(w) - cx) ** 2 <= r * r
    else:  # full-span bar
        t = max(cfg.min_shape // 2, 3) + rng.randint(max(cfg.max_shape // 2, 4))
        if rng.randint(2):  # horizontal
            t = min(t, h)
            y0 = rng.randint(h - t + 1)
            region = np.s_[y0:y0 + t, :]
        else:
            t = min(t, w)
            x0 = rng.randint(w - t + 1)
            region = np.s_[:, x0:x0 + t]
    img.transpose(1, 2, 0)[region] = color  # channels last: one write for slices or a mask
    lab[region] = cls


def gen_synthetic_scenes(seeds, cfg: TrainConfig) -> list[SyntheticScene]:
    """One square ``cfg.scene_size`` scene per seed: geometry from each seed's
    own ``Rng``, then one multi-seed noise pass, clip and float32 cast over
    the whole batch."""
    h = w = cfg.scene_size
    img = np.empty((len(seeds), 3, h, w), dtype=np.float64)
    img[...] = class_color(0)[:, None, None]
    lab = np.zeros((len(seeds), h, w), dtype=np.int32)

    for im, lb, seed in zip(img, lab, seeds):
        rng = Rng(derive(seed, _TAG_GEOMETRY))
        for _ in range(cfg.shapes_per_image):
            cls = 1 + rng.randint(cfg.num_classes - 1)
            _draw_shape(rng, im, lb, cls, cfg)

        if rng.uniform() < cfg.shadow_prob:
            sh = h // 4 + rng.randint(h // 2)
            sw = w // 4 + rng.randint(w // 2)
            y0 = rng.randint(h - sh + 1)
            x0 = rng.randint(w - sw + 1)
            im[:, y0:y0 + sh, x0:x0 + sw] *= SHADOW_FACTOR

    if cfg.noise_std > 0:
        noise = bulk_normal([derive(seed, _TAG_NOISE) for seed in seeds], (3, h, w))
        img += np.multiply(noise, cfg.noise_std, out=noise)
    img = np.clip(img, 0.0, 1.0, out=img).astype(np.float32)
    return [SyntheticScene(im, LabelMap(lb), seed) for im, lb, seed in zip(img, lab, seeds)]


def gen_synthetic_scene(seed: int, cfg: TrainConfig) -> SyntheticScene:
    return gen_synthetic_scenes([seed], cfg)[0]


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def resize_image(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear, half-pixel centers; img is (C, H, W)."""
    wr = bilinear_matrix(img.shape[1], out_h)
    wc = bilinear_matrix(img.shape[2], out_w)
    return np.matmul(np.matmul(wr, img.astype(np.float64)), wc.T)


def nearest_index(in_size: int, out_size: int) -> np.ndarray:
    pos = (np.arange(out_size) + 0.5) * (in_size / out_size)  # positive, so the cast floors
    return np.minimum(pos.astype(np.int64), in_size - 1)


def resize_labels(lab: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    rows = lab.take(nearest_index(lab.shape[0], out_h), axis=0)
    return rows.take(nearest_index(lab.shape[1], out_w), axis=1)


def augment(scene: SyntheticScene, rng: Rng, cfg: TrainConfig) -> SyntheticScene:
    """Random flip (``cfg.flip_prob``), scale (one of ``cfg.aug_scales``) and
    ``cfg.crop`` crop, drawn from ``rng`` in that order.  The crop offset
    comes from the scaled size, so only the crop window is resized: its rows
    of the two bilinear matrices and of the nearest-neighbour indices.  A
    scene smaller than the crop sits top-left on zeros and ignore labels
    (mixed per axis too)."""
    img, lab = scene.image, scene.labels.labels
    if rng.uniform() < cfg.flip_prob:
        img, lab = img[:, :, ::-1], lab[:, ::-1]
    factor = cfg.aug_scales[rng.randint(len(cfg.aug_scales))]
    (h0, w0), crop = lab.shape, cfg.crop
    h, w = (h0, w0) if factor == 1.0 else (max(int(round(size * factor)), 1) for size in (h0, w0))
    y0 = rng.randint(h - crop + 1) if h > crop else 0
    x0 = rng.randint(w - crop + 1) if w > crop else 0
    rows, cols = slice(y0, y0 + min(h, crop)), slice(x0, x0 + min(w, crop))
    if factor == 1.0:
        img, lab = img[:, rows, cols], lab[rows, cols]
    else:
        wr, wc = bilinear_matrix(h0, h)[rows], bilinear_matrix(w0, w)[cols]
        img = np.matmul(np.matmul(wr, img.astype(np.float64)), wc.T)
        lab = lab.take(nearest_index(h0, h)[rows], axis=0).take(nearest_index(w0, w)[cols], axis=1)
    out_img = np.zeros((3, crop, crop), dtype=np.float32)
    out_lab = np.full((crop, crop), IGNORE_INDEX, dtype=np.int32)
    ch, cw = lab.shape
    np.clip(img, 0.0, 1.0, out=out_img[:, :ch, :cw])
    out_lab[:ch, :cw] = lab
    return SyntheticScene(out_img, LabelMap(out_lab), scene.seed)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class ConfusionMatrix:
    """Ignore-aware class confusion counts: rows ground truth, cols prediction."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred: np.ndarray, gt: np.ndarray) -> None:
        """Count one scene's (H, W) predicted and ground-truth label arrays."""
        if pred.shape != gt.shape:
            raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
        mask = gt != IGNORE_INDEX
        idx = gt[mask].astype(np.int64) * self.num_classes + pred[mask].astype(np.int64)
        binc = np.bincount(idx, minlength=self.num_classes ** 2)
        self.counts += binc.reshape(self.num_classes, self.num_classes)

    def pix_acc(self) -> float:
        total = self.counts.sum()
        if total == 0:
            raise ValueError("no evaluated pixels")
        return float(np.trace(self.counts) / total)

    def mean_iou(self) -> float:
        """Mean TP/(TP+FP+FN) over classes present in ground truth or prediction."""
        tp = np.diag(self.counts).astype(np.float64)
        gt_count = self.counts.sum(axis=1)
        pred_count = self.counts.sum(axis=0)
        present = (gt_count > 0) | (pred_count > 0)
        if not present.any():
            raise ValueError("no evaluated pixels")
        union = gt_count + pred_count - np.diag(self.counts)
        iou = tp[present] / union[present]
        return float(iou.mean())
