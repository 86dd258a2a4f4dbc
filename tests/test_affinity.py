"""Affinity targets and the two loss terms, checked against scalar oracles.

The oracles below are deliberately dumb: explicit loops over pixel pairs
and rows, one term at a time.  They share no code with the vectorized
implementations they judge.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnet.affinity import (
    EPS,
    IdealAffinityMap,
    affinity_image,
    downsample_labels,
    global_affinity_loss,
    ideal_affinity_map,
    unary_affinity_loss,
)
from cpnet.labelmap import IGNORE_INDEX
from cpnet.rng import bulk_uniform
from cpnet.tensor import Graph, NumericError, Parameter, ShapeError, Tensor


def brute_force_affinity(labels: np.ndarray, ignore: int):
    flat = labels.reshape(-1)
    n = flat.size
    values = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            if flat[j] != ignore and flat[i] != ignore and flat[j] == flat[i]:
                values[j, i] = 1.0
    return values, flat != ignore


def unary_oracle(pb: np.ndarray, target, eps=EPS) -> float:
    per_image = []
    for p, values, valid in zip(pb, target.values, target.valid):
        total, count = 0.0, 0
        for j in range(valid.size):
            for i in range(valid.size):
                if not (valid[j] and valid[i]):
                    continue
                pc = min(max(float(p[j, i]), eps), 1.0 - eps)
                a = values[j, i]
                total += a * math.log(pc) + (1.0 - a) * math.log(1.0 - pc)
                count += 1
        per_image.append(-total / count)
    return sum(per_image) / len(per_image)


def global_oracle(pb: np.ndarray, target, eps=EPS) -> float:
    per_image = []
    for p, values, valid in zip(pb, target.values, target.valid):
        acc, rows = 0.0, 0
        for j in range(valid.size):
            if not valid[j]:
                continue
            rows += 1
            s_ap = s_p = s_a = s_in = s_na = 0.0
            for i in range(valid.size):
                if not valid[i]:
                    continue
                a, pji = values[j, i], float(p[j, i])
                s_ap += a * pji
                s_p += pji
                s_a += a
                s_in += (1.0 - a) * (1.0 - pji)
                s_na += 1.0 - a
            for num, den in ((s_ap, s_p), (s_ap, s_a), (s_in, s_na)):
                if den > 0:
                    acc += math.log(min(max(num / den, eps), 1.0))
        per_image.append(-acc / rows)
    return sum(per_image) / len(per_image)


def random_labels(seed, side, classes, ignore_frac=0.2):
    u = bulk_uniform(seed, (side, side))
    lab = (bulk_uniform(seed + 1, (side, side)) * classes).astype(np.int32)
    lab[u < ignore_frac] = IGNORE_INDEX
    if (lab == IGNORE_INDEX).all():
        lab[0, 0] = 0
    return lab


def batch_target(seeds, side, classes):
    """The target of a batch of random label grids, one per seed."""
    return ideal_affinity_map(np.stack([random_labels(s, side, classes) for s in seeds]),
                              classes)


def one_target(labels, classes):
    """The target of a batch of one (H, W) label grid."""
    return ideal_affinity_map(np.asarray(labels, dtype=np.int32)[None], classes)


def random_prior(seed, n, batch=1):
    return bulk_uniform(seed, (batch, n, n)) * 0.96 + 0.02


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def test_downsample_anchors_at_cell_top_left():
    lab = np.arange(16, dtype=np.int32).reshape(4, 4) % 3
    out = downsample_labels(lab, 2, 2)
    assert np.array_equal(out, lab[::2, ::2])


def test_downsample_keeps_ignored_pixels():
    lab = np.zeros((4, 4), dtype=np.int32)
    lab[0, 0] = IGNORE_INDEX
    out = downsample_labels(lab, 2, 2)
    assert out[0, 0] == IGNORE_INDEX


def test_downsample_requires_divisible_sizes():
    with pytest.raises(ShapeError):
        downsample_labels(np.zeros((4, 4), dtype=np.int32), 3, 2)
    with pytest.raises(ShapeError):
        downsample_labels(np.zeros((4, 4), dtype=np.int32), 0, 2)


def test_downsample_same_size_is_identity():
    lab = random_labels(100, 3, 2)
    out = downsample_labels(lab, 3, 3)
    assert np.array_equal(out, lab)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 4))
def test_ideal_affinity_matches_brute_force(seed, side, classes):
    gt = random_labels(seed, side, classes)
    got = ideal_affinity_map(gt, classes)
    want_values, want_valid = brute_force_affinity(gt, IGNORE_INDEX)
    assert got.values.dtype == np.bool_
    assert np.array_equal(got.values, want_values)
    assert np.array_equal(got.valid, want_valid)


def test_ideal_affinity_is_symmetric_with_unit_diagonal():
    gt = random_labels(7, 4, 3)
    a = ideal_affinity_map(gt, 3)
    assert np.array_equal(a.values, a.values.T)
    assert np.array_equal(np.diag(a.values).astype(bool), a.valid)
    assert a.values.shape == (16, 16)
    pm = a.pair_mask()
    assert pm.shape == (16, 16)
    assert np.array_equal(pm, a.valid[:, None] & a.valid[None, :])


def test_ideal_affinity_rejects_out_of_range_labels():
    gt = np.array([[0, 3]], dtype=np.int32)
    with pytest.raises(ValueError):
        ideal_affinity_map(gt, 3)


def test_batch_target_equals_the_per_image_targets():
    labels = np.stack([random_labels(s, 4, 3, ignore_frac=0.3) for s in (31, 32, 33)])
    assert (labels == IGNORE_INDEX).any()
    batch = ideal_affinity_map(labels, 3)
    assert batch.values.shape == (3, 16, 16) and batch.valid.shape == (3, 16)
    for b, lab in enumerate(labels):
        one = ideal_affinity_map(lab, 3)
        assert np.array_equal(batch.values[b], one.values)
        assert np.array_equal(batch.valid[b], one.valid)
    # ideal_affinity_map alone keeps the values to valid pairs; the loss terms trust it
    assert not (batch.values & ~batch.pair_mask()).any()


def test_batch_target_names_the_image_of_an_out_of_range_label():
    labels = np.zeros((4, 3, 3), dtype=np.int32)
    labels[2, 1, 0] = 3
    with pytest.raises(ValueError, match=r"label 3 at pixel \(2, 1, 0\)"):
        ideal_affinity_map(labels, 3)


def test_affinity_image_is_binary_8bit():
    a = ideal_affinity_map(random_labels(8, 3, 3), 3)
    img = affinity_image(a)
    assert img.dtype == np.uint8
    assert set(np.unique(img)) <= {0, 255}


# ---------------------------------------------------------------------------
# Unary term
# ---------------------------------------------------------------------------

def test_unary_loss_matches_oracle():
    target = batch_target((11, 222), 3, 3)
    pb = random_prior(5, 9, batch=2)
    got = unary_affinity_loss(Tensor(pb), target).item()
    assert got == pytest.approx(unary_oracle(pb, target), rel=1e-12)


def test_unary_loss_at_the_target_is_nearly_zero():
    m = batch_target((17,), 4, 3)
    loss = unary_affinity_loss(Tensor(m.values.astype(np.float64)), m).item()
    assert 0.0 <= loss <= 3e-6


def test_unary_loss_of_indifferent_prior_is_log_two():
    m = one_target([[0, 1], [0, 1]], 2)
    p = np.full((1, 4, 4), 0.5)
    loss = unary_affinity_loss(Tensor(p), m).item()
    assert loss == pytest.approx(math.log(2.0), abs=1e-9)


def test_unary_loss_ignores_invalid_rows_and_columns():
    m = one_target([[0, IGNORE_INDEX], [1, 0]], 2)
    pb = random_prior(9, 4)
    base = unary_affinity_loss(Tensor(pb), m).item()
    poked = pb.copy()
    poked[0, 1, :] = 0.999  # row of the ignored pixel
    poked[0, :, 1] = 0.001  # and its column
    assert unary_affinity_loss(Tensor(poked), m).item() == base


def test_unary_loss_batch_is_mean_of_per_image_losses():
    pb = random_prior(10, 9, batch=2)
    both = unary_affinity_loss(Tensor(pb), batch_target((41, 42), 3, 3)).item()
    first = unary_affinity_loss(Tensor(pb[:1]), batch_target((41,), 3, 3)).item()
    second = unary_affinity_loss(Tensor(pb[1:]), batch_target((42,), 3, 3)).item()
    assert both == pytest.approx((first + second) / 2, rel=1e-12)


def test_unary_gradient_is_gated_by_the_clamp():
    m = one_target([[0, 1], [0, 1]], 2)
    p = random_prior(11, 4)
    p[0, 0, 0] = 0.0  # saturated at the clamp boundary: no gradient may pass
    pt = Parameter("p", p)
    with Graph() as g:
        loss = unary_affinity_loss(pt, m)
    grads = g.backward(loss)
    assert grads[pt][0, 0, 0] == 0.0
    assert grads[pt][0, 1, 1] != 0.0


def test_unary_loss_rejects_fully_ignored_images():
    m = IdealAffinityMap(np.zeros((1, 4, 4), dtype=bool), np.zeros((1, 4), dtype=bool))
    with pytest.raises(NumericError):
        unary_affinity_loss(Tensor(random_prior(12, 4)), m)


# ---------------------------------------------------------------------------
# Global term
# ---------------------------------------------------------------------------

def test_global_loss_matches_oracle():
    target = batch_target((51, 52), 3, 3)
    pb = random_prior(13, 9, batch=2)  # query-major P; the loss reads Q = P^T
    got, _terms = global_affinity_loss(Tensor(pb.transpose(0, 2, 1)), target)
    assert got.item() == pytest.approx(global_oracle(pb, target), rel=1e-10)


def test_global_loss_at_the_target_is_nearly_zero():
    m = batch_target((18,), 4, 3)
    got, _ = global_affinity_loss(Tensor(m.values.astype(np.float64)), m)
    assert 0.0 <= got.item() <= 3e-6


def test_global_loss_of_indifferent_prior_is_three_log_two():
    m = one_target([[0, 1], [0, 1]], 2)
    p = np.full((1, 4, 4), 0.5)
    got, terms = global_affinity_loss(Tensor(p), m)
    assert got.item() == pytest.approx(3 * math.log(2.0), abs=1e-9)
    # each of the three ratio terms contributes exactly log(1/2) per row
    for t in (terms.precision, terms.recall, terms.specificity):
        assert t == pytest.approx(math.log(0.5), abs=1e-9)


def test_global_loss_skips_terms_with_zero_denominator():
    # single-class image: no negative pairs anywhere, so the specificity
    # term has denominator zero in every row and must drop out
    m = one_target(np.zeros((2, 2)), 2)
    pb = random_prior(14, 4)  # query-major P; the loss reads Q = P^T
    got, terms = global_affinity_loss(Tensor(pb.transpose(0, 2, 1)), m)
    assert terms.specificity == 0.0
    assert got.item() == pytest.approx(global_oracle(pb, m), rel=1e-10)


def test_global_loss_ignores_invalid_rows_and_columns():
    m = one_target([[0, IGNORE_INDEX], [1, 0]], 2)
    pb = random_prior(15, 4)
    base, _ = global_affinity_loss(Tensor(pb), m)
    poked = pb.copy()
    poked[0, 1, :] = 0.9
    poked[0, :, 1] = 0.1
    again, _ = global_affinity_loss(Tensor(poked), m)
    assert again.item() == base.item()


def test_global_loss_batch_is_mean_of_per_image_losses():
    pb = random_prior(16, 9, batch=2)
    both, _ = global_affinity_loss(Tensor(pb), batch_target((61, 62), 3, 3))
    one, _ = global_affinity_loss(Tensor(pb[:1]), batch_target((61,), 3, 3))
    two, _ = global_affinity_loss(Tensor(pb[1:]), batch_target((62,), 3, 3))
    assert both.item() == pytest.approx((one.item() + two.item()) / 2, rel=1e-12)


def test_global_gradient_matches_finite_differences():
    # crafted map with mixed classes: precision, recall, and specificity
    # gates are all open on every row, exercising the full bracket
    m = one_target([[0, 1, 0], [1, 0, 1], [0, 1, 2]], 3)
    p = random_prior(17, 9)
    pt = Parameter("p", p)
    with Graph() as g:
        loss, _ = global_affinity_loss(pt, m)
    grad = g.backward(loss)[pt]

    h = 1e-6
    fd = np.zeros_like(p)
    for j in range(9):
        for i in range(9):
            up, dn = p.copy(), p.copy()
            up[0, j, i] += h
            dn[0, j, i] -= h
            lu, _ = global_affinity_loss(Tensor(up), m)
            ld, _ = global_affinity_loss(Tensor(dn), m)
            fd[0, j, i] = (lu.item() - ld.item()) / (2 * h)
    assert np.allclose(grad, fd, atol=1e-6)


# ---------------------------------------------------------------------------
# Both terms: precision
# ---------------------------------------------------------------------------

def loss_and_grad(fn, p, target):
    pt = Parameter("p", p)
    with Graph() as g:
        loss = fn(pt, target)
        loss = loss[0] if isinstance(loss, tuple) else loss
    return loss.item(), g.backward(loss)[pt]


@pytest.mark.parametrize("near_target", [False, True], ids=["mid_range", "near_target"])
@pytest.mark.parametrize("fn", [unary_affinity_loss, global_affinity_loss],
                         ids=["unary", "global"])
def test_float32_loss_matches_float64_at_n256(fn, near_target):
    target = batch_target((81, 82), 16, 5)
    if near_target:
        d = bulk_uniform(83, (2, 256, 256)) * 0.01 + 1e-4
        p = np.where(target.values, 1.0 - d, d)
    else:
        p = random_prior(84, 256, batch=2)
    p32 = p.astype(np.float32)
    l32, g32 = loss_and_grad(fn, p32, target)
    l64, g64 = loss_and_grad(fn, p32.astype(np.float64), target)
    assert g32.dtype == np.float32
    assert l32 == pytest.approx(l64, rel=1e-5)
    assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_shape_validation():
    m = batch_target((73,), 2, 2)
    with pytest.raises(ShapeError):
        unary_affinity_loss(Tensor(np.zeros((1, 4, 5))), m)
    with pytest.raises(ShapeError):
        unary_affinity_loss(Tensor(random_prior(20, 4, batch=2)), m)
    bad_n = batch_target((74,), 3, 2)
    with pytest.raises(ShapeError):
        unary_affinity_loss(Tensor(random_prior(21, 4)), bad_n)
    with pytest.raises(TypeError):
        unary_affinity_loss(random_prior(22, 4), m)
    with pytest.raises(ShapeError):  # one image is a batch of one
        unary_affinity_loss(Tensor(random_prior(23, 4)[0]), m)
    with pytest.raises(ShapeError):  # even against one image's (N, N) target
        unary_affinity_loss(Tensor(random_prior(23, 4)[0]),
                            ideal_affinity_map(random_labels(73, 2, 2), 2))
