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
from cpnet.labelmap import IGNORE_INDEX, LabelMap
from cpnet.rng import bulk_uniform
from cpnet.tensor import Graph, NumericError, ShapeError, Tensor


def brute_force_affinity(labels: np.ndarray, ignore: int):
    flat = labels.reshape(-1)
    n = flat.size
    values = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            if flat[j] != ignore and flat[i] != ignore and flat[j] == flat[i]:
                values[j, i] = 1.0
    return values, flat != ignore


def unary_oracle(pb: np.ndarray, maps, eps=EPS) -> float:
    per_image = []
    for p, m in zip(pb, maps):
        total, count = 0.0, 0
        for j in range(m.n):
            for i in range(m.n):
                if not (m.valid[j] and m.valid[i]):
                    continue
                pc = min(max(float(p[j, i]), eps), 1.0 - eps)
                a = m.values[j, i]
                total += a * math.log(pc) + (1.0 - a) * math.log(1.0 - pc)
                count += 1
        per_image.append(-total / count)
    return sum(per_image) / len(per_image)


def global_oracle(pb: np.ndarray, maps, eps=EPS) -> float:
    per_image = []
    for p, m in zip(pb, maps):
        acc, rows = 0.0, 0
        for j in range(m.n):
            if not m.valid[j]:
                continue
            rows += 1
            s_ap = s_p = s_a = s_in = s_na = 0.0
            for i in range(m.n):
                if not m.valid[i]:
                    continue
                a, pji = m.values[j, i], float(p[j, i])
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
    return LabelMap(lab)


def random_prior(seed, n, batch=1):
    return bulk_uniform(seed, (batch, n, n)) * 0.96 + 0.02


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def test_downsample_anchors_at_cell_top_left():
    lab = np.arange(16, dtype=np.int32).reshape(4, 4) % 3
    out = downsample_labels(LabelMap(lab), 2, 2)
    assert np.array_equal(out.labels, lab[::2, ::2])


def test_downsample_keeps_ignored_pixels():
    lab = np.zeros((4, 4), dtype=np.int32)
    lab[0, 0] = IGNORE_INDEX
    out = downsample_labels(LabelMap(lab), 2, 2)
    assert out.labels[0, 0] == IGNORE_INDEX


def test_downsample_requires_divisible_sizes():
    with pytest.raises(ShapeError):
        downsample_labels(LabelMap(np.zeros((4, 4), dtype=np.int32)), 3, 2)
    with pytest.raises(ShapeError):
        downsample_labels(LabelMap(np.zeros((4, 4), dtype=np.int32)), 0, 2)


def test_downsample_same_size_is_identity():
    lab = random_labels(100, 3, 2)
    out = downsample_labels(lab, 3, 3)
    assert np.array_equal(out.labels, lab.labels)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 4))
def test_ideal_affinity_matches_brute_force(seed, side, classes):
    gt = random_labels(seed, side, classes)
    got = ideal_affinity_map(gt, classes)
    want_values, want_valid = brute_force_affinity(gt.labels, IGNORE_INDEX)
    assert got.values.dtype == np.bool_
    assert np.array_equal(got.values, want_values)
    assert np.array_equal(got.valid, want_valid)


def test_ideal_affinity_is_symmetric_with_unit_diagonal():
    gt = random_labels(7, 4, 3)
    a = ideal_affinity_map(gt, 3)
    assert np.array_equal(a.values, a.values.T)
    assert np.array_equal(np.diag(a.values).astype(bool), a.valid)
    assert a.n == 16
    pm = a.pair_mask()
    assert pm.shape == (16, 16)
    assert np.array_equal(pm, a.valid[:, None] & a.valid[None, :])


def test_ideal_affinity_rejects_out_of_range_labels():
    gt = LabelMap(np.array([[0, 3]], dtype=np.int32))
    with pytest.raises(ValueError):
        ideal_affinity_map(gt, 3)


def test_affinity_image_is_binary_8bit():
    a = ideal_affinity_map(random_labels(8, 3, 3), 3)
    img = affinity_image(a)
    assert img.dtype == np.uint8
    assert set(np.unique(img)) <= {0, 255}


# ---------------------------------------------------------------------------
# Unary term
# ---------------------------------------------------------------------------

def test_unary_loss_matches_oracle():
    maps = [ideal_affinity_map(random_labels(s, 3, 3), 3) for s in (11, 222)]
    pb = random_prior(5, 9, batch=2)
    got = unary_affinity_loss(Tensor(pb), maps).item()
    assert got == pytest.approx(unary_oracle(pb, maps), rel=1e-12)


def test_unary_loss_at_the_target_is_nearly_zero():
    m = ideal_affinity_map(random_labels(17, 4, 3), 3)
    loss = unary_affinity_loss(Tensor(m.values[None].astype(np.float64)), [m]).item()
    assert 0.0 <= loss <= 3e-6


def test_unary_loss_of_indifferent_prior_is_log_two():
    gt = LabelMap(np.array([[0, 1], [0, 1]], dtype=np.int32))
    m = ideal_affinity_map(gt, 2)
    p = np.full((1, 4, 4), 0.5)
    loss = unary_affinity_loss(Tensor(p), [m]).item()
    assert loss == pytest.approx(math.log(2.0), abs=1e-9)


def test_unary_loss_ignores_invalid_rows_and_columns():
    gt = LabelMap(np.array([[0, IGNORE_INDEX], [1, 0]], dtype=np.int32))
    m = ideal_affinity_map(gt, 2)
    pb = random_prior(9, 4)
    base = unary_affinity_loss(Tensor(pb), [m]).item()
    poked = pb.copy()
    poked[0, 1, :] = 0.999  # row of the ignored pixel
    poked[0, :, 1] = 0.001  # and its column
    assert unary_affinity_loss(Tensor(poked), [m]).item() == base


def test_unary_loss_batch_is_mean_of_per_image_losses():
    maps = [ideal_affinity_map(random_labels(s, 3, 3), 3) for s in (41, 42)]
    pb = random_prior(10, 9, batch=2)
    both = unary_affinity_loss(Tensor(pb), maps).item()
    first = unary_affinity_loss(Tensor(pb[:1]), [maps[0]]).item()
    second = unary_affinity_loss(Tensor(pb[1:]), [maps[1]]).item()
    assert both == pytest.approx((first + second) / 2, rel=1e-12)


def test_unary_gradient_is_gated_by_the_clamp():
    gt = LabelMap(np.array([[0, 1], [0, 1]], dtype=np.int32))
    m = ideal_affinity_map(gt, 2)
    p = random_prior(11, 4)
    p[0, 0, 0] = 0.0  # saturated at the clamp boundary: no gradient may pass
    pt = Tensor(p)
    with Graph() as g:
        loss = unary_affinity_loss(pt, [m])
    grads = g.backward(loss)
    assert grads[pt][0, 0, 0] == 0.0
    assert grads[pt][0, 1, 1] != 0.0


def test_unary_loss_rejects_fully_ignored_images():
    m = IdealAffinityMap(np.zeros((4, 4), dtype=bool), np.zeros(4, dtype=bool))
    with pytest.raises(NumericError):
        unary_affinity_loss(Tensor(random_prior(12, 4)), [m])


# ---------------------------------------------------------------------------
# Global term
# ---------------------------------------------------------------------------

def test_global_loss_matches_oracle():
    maps = [ideal_affinity_map(random_labels(s, 3, 3), 3) for s in (51, 52)]
    pb = random_prior(13, 9, batch=2)
    got, _terms = global_affinity_loss(Tensor(pb), maps)
    assert got.item() == pytest.approx(global_oracle(pb, maps), rel=1e-10)


def test_global_loss_at_the_target_is_nearly_zero():
    m = ideal_affinity_map(random_labels(18, 4, 3), 3)
    got, _ = global_affinity_loss(Tensor(m.values[None].astype(np.float64)), [m])
    assert 0.0 <= got.item() <= 3e-6


def test_global_loss_of_indifferent_prior_is_three_log_two():
    gt = LabelMap(np.array([[0, 1], [0, 1]], dtype=np.int32))
    m = ideal_affinity_map(gt, 2)
    p = np.full((1, 4, 4), 0.5)
    got, terms = global_affinity_loss(Tensor(p), [m])
    assert got.item() == pytest.approx(3 * math.log(2.0), abs=1e-9)
    # each of the three ratio terms contributes exactly log(1/2) per row
    for t in (terms.precision, terms.recall, terms.specificity):
        assert t == pytest.approx(math.log(0.5), abs=1e-9)


def test_global_loss_skips_terms_with_zero_denominator():
    # single-class image: no negative pairs anywhere, so the specificity
    # term has denominator zero in every row and must drop out
    gt = LabelMap(np.zeros((2, 2), dtype=np.int32))
    m = ideal_affinity_map(gt, 2)
    pb = random_prior(14, 4)
    got, terms = global_affinity_loss(Tensor(pb), [m])
    assert terms.specificity == 0.0
    assert got.item() == pytest.approx(global_oracle(pb, [m]), rel=1e-10)


def test_global_loss_ignores_invalid_rows_and_columns():
    gt = LabelMap(np.array([[0, IGNORE_INDEX], [1, 0]], dtype=np.int32))
    m = ideal_affinity_map(gt, 2)
    pb = random_prior(15, 4)
    base, _ = global_affinity_loss(Tensor(pb), [m])
    poked = pb.copy()
    poked[0, 1, :] = 0.9
    poked[0, :, 1] = 0.1
    again, _ = global_affinity_loss(Tensor(poked), [m])
    assert again.item() == base.item()


def test_global_loss_batch_is_mean_of_per_image_losses():
    maps = [ideal_affinity_map(random_labels(s, 3, 3), 3) for s in (61, 62)]
    pb = random_prior(16, 9, batch=2)
    both, _ = global_affinity_loss(Tensor(pb), maps)
    one, _ = global_affinity_loss(Tensor(pb[:1]), [maps[0]])
    two, _ = global_affinity_loss(Tensor(pb[1:]), [maps[1]])
    assert both.item() == pytest.approx((one.item() + two.item()) / 2, rel=1e-12)


def test_global_gradient_matches_finite_differences():
    # crafted map with mixed classes: precision, recall, and specificity
    # gates are all open on every row, exercising the full bracket
    gt = LabelMap(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 2]], dtype=np.int32))
    m = ideal_affinity_map(gt, 3)
    p = random_prior(17, 9)
    pt = Tensor(p)
    with Graph() as g:
        loss, _ = global_affinity_loss(pt, [m])
    grad = g.backward(loss)[pt]

    h = 1e-6
    fd = np.zeros_like(p)
    for j in range(9):
        for i in range(9):
            up, dn = p.copy(), p.copy()
            up[0, j, i] += h
            dn[0, j, i] -= h
            lu, _ = global_affinity_loss(Tensor(up), [m])
            ld, _ = global_affinity_loss(Tensor(dn), [m])
            fd[0, j, i] = (lu.item() - ld.item()) / (2 * h)
    assert np.allclose(grad, fd, atol=1e-6)


# ---------------------------------------------------------------------------
# Both terms: precision and target masking
# ---------------------------------------------------------------------------

def loss_and_grad(fn, p, maps):
    pt = Tensor(p)
    with Graph() as g:
        loss = fn(pt, maps)
        loss = loss[0] if isinstance(loss, tuple) else loss
    return loss.item(), g.backward(loss)[pt]


@pytest.mark.parametrize("near_target", [False, True], ids=["mid_range", "near_target"])
@pytest.mark.parametrize("fn", [unary_affinity_loss, global_affinity_loss],
                         ids=["unary", "global"])
def test_float32_loss_matches_float64_at_n256(fn, near_target):
    maps = [ideal_affinity_map(random_labels(s, 16, 5), 5) for s in (81, 82)]
    if near_target:
        d = bulk_uniform(83, (2, 256, 256)) * 0.01 + 1e-4
        p = np.where(np.stack([m.values for m in maps]) > 0, 1.0 - d, d)
    else:
        p = random_prior(84, 256, batch=2)
    p32 = p.astype(np.float32)
    l32, g32 = loss_and_grad(fn, p32, maps)
    l64, g64 = loss_and_grad(fn, p32.astype(np.float64), maps)
    assert g32.dtype == np.float32
    assert l32 == pytest.approx(l64, rel=1e-5)
    assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


@pytest.mark.parametrize("fn", [unary_affinity_loss, global_affinity_loss],
                         ids=["unary", "global"])
def test_target_ones_on_invalid_pairs_are_ignored(fn):
    gt = LabelMap(np.array([[0, IGNORE_INDEX, 1], [1, 0, IGNORE_INDEX], [0, 1, 2]],
                           dtype=np.int32))
    clean = ideal_affinity_map(gt, 3)
    values = clean.values.copy()
    values[0, 1] = values[1, 0] = values[1, 5] = 1.0  # pairs with an ignored pixel
    dirty = IdealAffinityMap(values, clean.valid.copy())
    p = random_prior(85, 9)
    want_loss, want_grad = loss_and_grad(fn, p, [clean])
    got_loss, got_grad = loss_and_grad(fn, p, [dirty])
    assert got_loss == want_loss
    assert np.array_equal(got_grad, want_grad)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_shape_validation():
    m = ideal_affinity_map(random_labels(73, 2, 2), 2)
    with pytest.raises(ShapeError):
        unary_affinity_loss(Tensor(np.zeros((1, 4, 5))), [m])
    with pytest.raises(ShapeError):
        unary_affinity_loss(Tensor(random_prior(20, 4, batch=2)), [m])
    bad_n = ideal_affinity_map(random_labels(74, 3, 2), 2)
    with pytest.raises(ShapeError):
        unary_affinity_loss(Tensor(random_prior(21, 4)), [bad_n])
    with pytest.raises(TypeError):
        unary_affinity_loss(random_prior(22, 4), [m])
    with pytest.raises(ShapeError):  # one image is a batch of one
        unary_affinity_loss(Tensor(random_prior(23, 4)[0]), [m])
