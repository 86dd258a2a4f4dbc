"""Scene synthesis, augmentation, and the ignore-aware metrics."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpnet.data import (
    PALETTE,
    SHADOW_FACTOR,
    ConfusionMatrix,
    augment,
    class_color,
    gen_synthetic_scene,
    gen_synthetic_scenes,
    labels_to_rgb,
    nearest_index,
    resize_image,
    resize_labels,
)
from cpnet.config import MAX_CLASSES, TrainConfig
from cpnet.labelmap import IGNORE_INDEX, check_classes
from cpnet.rng import Rng, derive
from cpnet.tensor import ShapeError
from cpnet.train import TAG_AUG, TAG_TRAIN_SCENES, val_scene

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------

def test_scenes_are_bit_deterministic():
    cfg = TrainConfig()
    a = gen_synthetic_scene(123, cfg)
    b = gen_synthetic_scene(123, cfg)
    assert a.image.tobytes() == b.image.tobytes()
    assert np.array_equal(a.labels.labels, b.labels.labels)
    c = gen_synthetic_scene(124, cfg)
    assert a.image.tobytes() != c.image.tobytes()


def test_batched_scenes_equal_single_scenes():
    cfg = TrainConfig(shadow_prob=0.5)
    seeds = [3, 2**64 - 1, 3, 40]
    batch = gen_synthetic_scenes(seeds, cfg)
    assert [sc.seed for sc in batch] == seeds
    for seed, sc in zip(seeds, batch):
        one = gen_synthetic_scene(seed, cfg)
        assert sc.image.tobytes() == one.image.tobytes()
        assert sc.labels.labels.tobytes() == one.labels.labels.tobytes()
    assert gen_synthetic_scenes([], cfg) == []


def test_scene_shapes_and_ranges():
    sc = gen_synthetic_scene(0, TrainConfig(scene_size=16, min_shape=6, max_shape=12))
    assert sc.image.shape == (3, 16, 16)
    assert sc.image.dtype == np.float32
    assert (sc.image >= 0).all() and (sc.image <= 1).all()
    assert sc.labels.labels.shape == (16, 16)


def test_empty_scene_is_pure_background():
    cfg = TrainConfig(shapes_per_image=0, noise_std=0.0, shadow_prob=0.0)
    sc = gen_synthetic_scene(7, cfg)
    assert (sc.labels.labels == 0).all()
    want = class_color(0).astype(np.float32)
    assert np.array_equal(sc.image, np.broadcast_to(want[:, None, None], sc.image.shape))


def test_shadow_darkens_pixels_but_never_labels():
    plain = gen_synthetic_scene(3, TrainConfig(noise_std=0.0, shadow_prob=0.0))
    shadowed = gen_synthetic_scene(3, TrainConfig(noise_std=0.0, shadow_prob=1.0))
    assert np.array_equal(plain.labels.labels, shadowed.labels.labels)
    assert (shadowed.image <= plain.image + 1e-7).all()
    dark = shadowed.image < plain.image - 1e-4
    assert dark.any()
    ys, xs = np.nonzero(dark[0])
    region = plain.image[:, ys.min():ys.max() + 1, xs.min():xs.max() + 1]
    got = shadowed.image[:, ys.min():ys.max() + 1, xs.min():xs.max() + 1]
    assert np.allclose(got, region * SHADOW_FACTOR, atol=1e-6)


def test_class_frequencies_over_1000_scenes():
    cfg = TrainConfig()
    counts = np.zeros(cfg.num_classes, dtype=np.int64)
    for seed in range(1000):
        lab = gen_synthetic_scene(seed, cfg).labels.labels
        counts += np.bincount(lab.reshape(-1), minlength=cfg.num_classes)
    assert (counts > 0).all(), "some class never appears"
    with open(os.path.join(FIXTURES, "class_histogram.txt"), encoding="ascii") as f:
        want = {int(c): int(n) for c, n in (ln.split() for ln in f if ln.strip())}
    assert {c: int(n) for c, n in enumerate(counts)} == want


def test_palette_has_distinct_colors():
    assert len(np.unique(PALETTE, axis=0)) == len(PALETTE)
    assert len(PALETTE) == MAX_CLASSES  # every class a config allows has its own colour
    assert class_color(1) is not None
    assert np.array_equal(class_color(len(PALETTE)), PALETTE[0])  # wraps around


def test_labels_to_rgb_uses_palette_and_blacks_out_ignores():
    rgb = labels_to_rgb(np.array([[0, 1], [IGNORE_INDEX, 2]], dtype=np.int32))
    assert rgb.dtype == np.uint8
    assert np.array_equal(rgb[0, 0], (PALETTE[0] * 255).astype(np.uint8))
    assert np.array_equal(rgb[0, 1], (PALETTE[1] * 255).astype(np.uint8))
    assert np.array_equal(rgb[1, 0], (0, 0, 0))


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def _fixed(flip: bool = False, scale: float = 1.0, crop: int = 32) -> TrainConfig:
    """An augmentation whose flip and scale are fixed; only the crop is drawn."""
    return TrainConfig(flip_prob=1.0 if flip else 0.0, aug_scales=(scale,), crop=crop)


def test_hflip_is_an_involution():
    sc = gen_synthetic_scene(11, TrainConfig())
    back = augment(augment(sc, Rng(0), _fixed(flip=True)), Rng(0), _fixed(flip=True))
    assert np.array_equal(back.image, sc.image)
    assert np.array_equal(back.labels.labels, sc.labels.labels)
    flipped = augment(sc, Rng(0), _fixed(flip=True))
    assert np.array_equal(flipped.image[:, :, 0], sc.image[:, :, -1])


def test_augment_without_randomness_is_identity():
    sc = gen_synthetic_scene(12, TrainConfig())
    cfg = TrainConfig(flip_prob=0.0, aug_scales=(1.0,), crop=32)
    out = augment(sc, Rng(0), cfg)
    assert np.array_equal(out.image, sc.image)
    assert np.array_equal(out.labels.labels, sc.labels.labels)


def test_augment_is_deterministic_in_the_rng_state():
    sc = gen_synthetic_scene(13, TrainConfig())
    cfg = TrainConfig(flip_prob=0.5, aug_scales=(0.5, 1.0, 2.0), crop=32)
    a = augment(sc, Rng(99), cfg)
    b = augment(sc, Rng(99), cfg)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.labels.labels, b.labels.labels)


def test_upscaled_interior_keeps_labels_and_colors_aligned():
    # bilinear image resampling and nearest label resampling use the same
    # half-pixel geometry, so away from region boundaries the enlarged
    # image must carry exactly the source color of the pixel the label
    # was copied from
    base = gen_synthetic_scene(5, TrainConfig(noise_std=0.0, shadow_prob=0.0))
    big = augment(base, Rng(0), _fixed(scale=2.0, crop=64))
    src = base.labels.labels

    # a pixel is interior when its whole 8-neighborhood carries the same
    # color (two same-class shapes get different jitter, so the mask must
    # be built from colors, then label agreement is asserted on top)
    same = np.ones_like(src, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            shifted = np.roll(np.roll(base.image, dy, 1), dx, 2)
            same &= (shifted == base.image).all(axis=0)
            same &= np.roll(np.roll(src, dy, 0), dx, 1) == src
    same[0, :] = same[-1, :] = False  # roll wraps; discard the border
    same[:, 0] = same[:, -1] = False

    ri = nearest_index(32, 64)
    interior = same[np.ix_(ri, ri)]
    assert interior.sum() > 1000  # the check must not be vacuous

    mapped_img = base.image[:, ri][:, :, ri]
    assert np.abs(big.image - mapped_img)[:, interior].max() <= 1e-5
    assert np.array_equal(big.labels.labels[interior], src[np.ix_(ri, ri)][interior])


def test_scale_scene_rounds_sizes():
    # a scaled scene is round(32 * factor) pixels on a side: at 0.75 the
    # 32 px crop holds 24 x 24 scene pixels and ignore-padding, at 1.5 a
    # 48 px crop is filled exactly
    sc = gen_synthetic_scene(15, TrainConfig())
    small = augment(sc, Rng(0), _fixed(scale=0.75))
    valid = small.labels.labels != IGNORE_INDEX
    assert np.array_equal(np.argwhere(valid).max(axis=0), [23, 23])
    assert valid[:24, :24].all()
    rng, probe = Rng(0), Rng(0)
    big = augment(sc, rng, _fixed(scale=1.5, crop=48))
    assert big.labels.labels.shape == (48, 48) and (big.labels.labels != IGNORE_INDEX).all()
    probe.uniform(), probe.randint(1)
    assert rng.state() == probe.state()  # no crop offset drawn: 48 px fit exactly


def test_resize_labels_picks_nearest_source_pixel():
    lab = np.arange(16, dtype=np.int32).reshape(4, 4)
    out = resize_labels(lab, 2, 2)
    idx = nearest_index(4, 2)
    assert np.array_equal(out, lab[np.ix_(idx, idx)])


def test_crop_matches_a_window_of_the_source():
    sc = gen_synthetic_scene(16, TrainConfig())
    probe = Rng(42)
    probe.uniform(), probe.randint(1)  # the flip and scale draws come first
    y0 = probe.randint(32 - 16 + 1)
    x0 = probe.randint(32 - 16 + 1)
    out = augment(sc, Rng(42), _fixed(crop=16))
    assert np.array_equal(out.image, sc.image[:, y0:y0 + 16, x0:x0 + 16])
    assert np.array_equal(out.labels.labels, sc.labels.labels[y0:y0 + 16, x0:x0 + 16])


def test_pad_fills_with_ignore_and_zeros():
    small = gen_synthetic_scene(17, TrainConfig(scene_size=8, min_shape=3, max_shape=6))
    out = augment(small, Rng(0), _fixed(crop=16))
    assert out.image.shape == (3, 16, 16)
    assert np.array_equal(out.labels.labels[:8, :8], small.labels.labels)
    assert (out.labels.labels[8:, :] == IGNORE_INDEX).all()
    assert (out.labels.labels[:, 8:] == IGNORE_INDEX).all()
    assert not out.image[:, 8:, :].any()
    assert np.array_equal(out.image[:, :8, :8], small.image)


@pytest.mark.parametrize("scene_size", [32, 64])
@pytest.mark.parametrize("factor", TrainConfig().aug_scales)
def test_crop_window_rescale_equals_resize_then_crop(factor, scene_size):
    # augment resizes only its crop window; its GEMMs round differently from
    # resizing the whole scene (at scene 64, crop 32 about half the crops
    # move in their last bits), so labels must match exactly, images to 1e-6
    cfg = TrainConfig(flip_prob=0.0, aug_scales=(factor,), scene_size=scene_size)
    side, crop = max(int(round(scene_size * factor)), 1), cfg.crop
    for seed in range(4):
        sc = gen_synthetic_scene(seed, cfg)
        probe = Rng(seed)
        probe.uniform(), probe.randint(1)  # the flip and scale draws come first
        y0, x0 = (probe.randint(side - crop + 1) if side > crop else 0 for _ in "yx")
        win = np.s_[y0:y0 + min(side, crop), x0:x0 + min(side, crop)]
        want_img = np.clip(resize_image(sc.image, side, side)[(slice(None),) + win], 0, 1)
        want_lab = resize_labels(sc.labels.labels, side, side)[win]
        out = augment(sc, Rng(seed), cfg)
        ch, cw = want_lab.shape
        assert np.array_equal(out.labels.labels[:ch, :cw], want_lab)
        assert np.allclose(out.image[:, :ch, :cw], want_img, rtol=0, atol=1e-6)


def test_augment_shrink_path_pads_with_ignore():
    sc = gen_synthetic_scene(18, TrainConfig())
    cfg = TrainConfig(flip_prob=0.0, aug_scales=(0.5,), crop=32)
    out = augment(sc, Rng(1), cfg)
    assert out.labels.labels.shape == (32, 32)
    assert (out.labels.labels[16:, :] == IGNORE_INDEX).all()
    assert np.array_equal(out.labels.labels[:16, :16],
                          resize_labels(sc.labels.labels, 16, 16))


# ---------------------------------------------------------------------------
# The stock data stream, pinned across versions
# ---------------------------------------------------------------------------

# sha256 of the first stock training batch (as train() builds it), of the
# augmentation RNG's state words after it, and of validation scene 0.  The
# label and RNG-state digests were recorded with the per-scene generator and
# the copy-based augmentation that the batched generator and crop-direct
# augmentation replaced; the image digests with float32 Box-Muller noise and
# the crop-window rescale, which move images in their last bits.
STOCK_BATCH_IMAGE_SHA = "e98b9bdc3bc01fa40538a94cc18ca266cc326d2da0abe6b6a99d9cb31e5b6dfc"
STOCK_BATCH_LABEL_SHA = "b5b8d4271d86527ee5b3c727987f510e3d9986dc9854a1bc718123e3ee0f76cf"
STOCK_AUG_STATE_SHA = "c48f06c4e8de135f375a51162ef18995f8fff27b437961a32a623dd8ef0ff29b"
VAL0_IMAGE_SHA = "8e1ebfe4cfd4e72ac6b73d949dd0fe2b0c8a2afc310b6b767f7e4dd767d733c0"
VAL0_LABEL_SHA = "d994fbcdbfc2bf3948cca455c3af37f63dddb7feec956f2318160cd9b0f2eecc"


# The same five digests for the crop-128 stream (the paper's N = 256 regime:
# crop 128, scene 128, batch 4, shapes 48-96), recorded with the separate
# scene and augmentation configs that TrainConfig replaced.
GRID16_OVERRIDES = dict(crop=128, scene_size=128, batch_size=4, min_shape=48, max_shape=96)
GRID16_SHAS = (
    "8f68615a510a01530c903b1f15c79bb2d8afec0efceba26cb0d96b7782ba334a",
    "d7892f59468e2ce7630238d935e127d34d9db8260d9aecd536a0dba90ae6404e",
    "0a8eac0dce0f5d6bddcdb9176da599d4686cf6ce9f138f0c333a2b771b9bc976",
    "56d8d2e3e01b08094f1770003f86f41acc9a510a53843545b86e9da8d9d17836",
    "959ed657cc9cb0434fb4faff07c083c10326f6eb5a13e93298ad8bdb34773013",
)


def _sha(arr, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


def _stream_shas(cfg: TrainConfig) -> tuple[str, ...]:
    """Digests of the first training batch (as train() builds it), of the
    augmentation RNG's state after it, and of validation scene 0."""
    cfg.validate()
    aug_rng = Rng(derive(cfg.seed, TAG_AUG))
    base = derive(cfg.seed, TAG_TRAIN_SCENES)
    seeds = [derive(base, i) for i in range(cfg.batch_size)]
    batch = [augment(s, aug_rng, cfg) for s in gen_synthetic_scenes(seeds, cfg)]
    val0 = val_scene(cfg, 0)
    return (
        _sha([b.image for b in batch], "<f4"),
        _sha([b.labels.labels for b in batch], "<i4"),
        _sha(aug_rng.state(), "<u8"),
        _sha(val0.image, "<f4"),
        _sha(val0.labels.labels, "<i4"),
    )


def test_stock_data_stream_is_pinned():
    assert _stream_shas(TrainConfig()) == (
        STOCK_BATCH_IMAGE_SHA, STOCK_BATCH_LABEL_SHA, STOCK_AUG_STATE_SHA,
        VAL0_IMAGE_SHA, VAL0_LABEL_SHA,
    )


def test_crop128_data_stream_is_pinned():
    assert _stream_shas(TrainConfig(**GRID16_OVERRIDES)) == GRID16_SHAS


def test_val_scene_rejects_an_index_outside_64_bits():
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
        val_scene(TrainConfig(), -1)


# ---------------------------------------------------------------------------
# Label maps
# ---------------------------------------------------------------------------

def test_label_map_basics():
    lab = np.array([[0, IGNORE_INDEX], [1, 2]], dtype=np.int32)
    check_classes(lab, 3)  # the ignored pixel is not a class
    with pytest.raises(ValueError):
        check_classes(lab, 2)


def test_label_map_reports_offending_pixel():
    lab = np.array([[0, 5]], dtype=np.int32)
    with pytest.raises(ValueError, match=r"label 5 at pixel \(0, 1\) is outside \[0, 3\)"):
        check_classes(lab, 3)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def brute_metrics(pred, gt, classes, ignore=IGNORE_INDEX):
    counts = np.zeros((classes, classes), dtype=np.int64)
    for y in range(gt.shape[0]):
        for x in range(gt.shape[1]):
            if gt[y, x] == ignore:
                continue
            counts[gt[y, x], pred[y, x]] += 1
    acc = counts.trace() / counts.sum()
    ious = []
    for c in range(classes):
        tp = counts[c, c]
        union = counts[c, :].sum() + counts[:, c].sum() - tp
        if union > 0:
            ious.append(tp / union)
    return counts, acc, sum(ious) / len(ious)


def scored(pred, gt, classes) -> ConfusionMatrix:
    cm = ConfusionMatrix(classes)
    cm.update(pred, gt)
    return cm


def test_perfect_prediction_scores_one():
    gt = gen_synthetic_scene(19, TrainConfig()).labels.labels
    cm = scored(gt, gt, 4)
    assert cm.pix_acc() == 1.0
    assert cm.mean_iou() == 1.0


def test_metrics_match_brute_force_on_a_fixture():
    gt = np.array(
        [[0, 0, 1, 1],
         [0, 2, 1, IGNORE_INDEX],
         [2, 2, 0, 1],
         [2, 0, 0, 1]], dtype=np.int32)
    pred = np.array(
        [[0, 1, 1, 1],
         [0, 2, 0, 2],
         [2, 1, 0, 1],
         [2, 0, 1, 1]], dtype=np.int32)
    want_counts, want_acc, want_miou = brute_metrics(pred, gt, 3)
    cm = scored(pred, gt, 3)
    assert np.array_equal(cm.counts, want_counts)
    assert cm.pix_acc() == pytest.approx(want_acc, rel=1e-12)
    assert cm.mean_iou() == pytest.approx(want_miou, rel=1e-12)


def test_ignored_pixels_never_enter_the_counts():
    gt = np.array([[0, IGNORE_INDEX], [IGNORE_INDEX, 1]], dtype=np.int32)
    pred = np.array([[0, 0], [1, 0]], dtype=np.int32)
    counts = scored(pred, gt, 2).counts
    assert counts.sum() == 2  # only the two valid pixels


def test_confusion_matrix_accumulates_across_updates():
    cm = ConfusionMatrix(3)
    a = np.array([[0, 1]], dtype=np.int32)
    b = np.array([[2, 2]], dtype=np.int32)
    cm.update(a, a)
    cm.update(b, b)
    assert cm.counts.sum() == 4
    assert cm.pix_acc() == 1.0


def test_metrics_reject_shape_mismatch_and_empty_input():
    cm = ConfusionMatrix(2)
    with pytest.raises(ShapeError):
        cm.update(np.zeros((2, 2), dtype=np.int32), np.zeros((2, 3), dtype=np.int32))
    empty = ConfusionMatrix(2)
    with pytest.raises(ValueError):
        empty.pix_acc()
    with pytest.raises(ValueError):
        empty.mean_iou()


def test_mean_iou_averages_only_over_present_classes():
    # class 2 appears nowhere: the mean is over classes 0 and 1 alone
    gt = np.array([[0, 0], [1, 1]], dtype=np.int32)
    pred = np.array([[0, 1], [1, 1]], dtype=np.int32)
    # class 0: tp 1, union 2 -> 0.5 ; class 1: tp 2, union 3 -> 2/3
    assert scored(pred, gt, 3).mean_iou() == pytest.approx((0.5 + 2 / 3) / 2)


def test_false_positives_drag_in_absent_classes():
    # class 2 exists only as a wrong prediction: IoU 0 joins the average
    gt = np.array([[0, 0]], dtype=np.int32)
    pred = np.array([[0, 2]], dtype=np.int32)
    assert scored(pred, gt, 3).mean_iou() == pytest.approx((0.5 + 0.0) / 2)


@given(st.permutations(list(range(4))), st.integers(0, 2**32 - 1))
def test_metrics_are_invariant_under_class_relabeling(perm, seed):
    rng = np.random.RandomState(seed % 2**31)
    gt = rng.randint(0, 4, size=(6, 6)).astype(np.int32)
    pred = rng.randint(0, 4, size=(6, 6)).astype(np.int32)
    gt[rng.rand(6, 6) < 0.15] = IGNORE_INDEX
    if (gt == IGNORE_INDEX).all():
        gt[0, 0] = 0
    lut = np.array(perm, dtype=np.int32)
    gt_p = np.where(gt == IGNORE_INDEX, IGNORE_INDEX, lut[np.clip(gt, 0, 3)])
    pred_p = lut[pred]
    a = scored(pred, gt, 4)
    b = scored(pred_p, gt_p.astype(np.int32), 4)
    assert a.pix_acc() == pytest.approx(b.pix_acc(), rel=1e-12)
    assert a.mean_iou() == pytest.approx(b.mean_iou(), rel=1e-12)
