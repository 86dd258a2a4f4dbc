"""The separable aggregation module and the prior-attention layer."""

import numpy as np
import pytest

from cpnet.context_prior import (
    AggregationModule,
    ContextPriorLayer,
    FullySeparableConv,
    macs_fully_separable,
    macs_spatial_separable,
    macs_standard_conv,
)
from cpnet.rng import bulk_uniform
from cpnet.tensor import BN_EPS, ShapeError, Tensor


def rnd(seed, shape, lo=-1.0, hi=1.0):
    return (bulk_uniform(seed, shape) * (hi - lo) + lo).astype(np.float32)


def query_major(q):
    """The query-major P = Q^T of a key-major prior map, as an array."""
    return q.data.transpose(0, 2, 1)


def make_positive(module):
    """Force every conv weight in a module strictly positive so ReLU and
    BN (eval statistics) cannot erase any part of the receptive field."""
    for p in module.parameters():
        if p.name.endswith(".weight"):
            p.data[...] = np.abs(p.data) + 0.1


# ---------------------------------------------------------------------------
# Fully separable convolution
# ---------------------------------------------------------------------------

def test_separable_conv_needs_odd_kernel():
    with pytest.raises(ShapeError):
        FullySeparableConv("fs", 2, 2, 4, "vertical")


def test_separable_conv_rejects_unknown_orientation():
    with pytest.raises(ValueError):
        FullySeparableConv("fs", 2, 2, 3, "diagonal")


def test_separable_conv_preserves_spatial_size():
    fs = FullySeparableConv("fs", 3, 5, 7, "horizontal", seed=1)
    out = fs(Tensor(rnd(1, (2, 3, 6, 9))))
    assert out.shape == (2, 5, 6, 9)


def test_separable_conv_has_no_biases():
    fs = FullySeparableConv("fs", 3, 5, 3, "vertical")
    names = [p.name for p in fs.parameters()]
    assert all(n.endswith(".weight") for n in names)
    assert len(names) == 2  # depthwise + pointwise


@pytest.mark.parametrize("orientation,axis", [("vertical", 2), ("horizontal", 3)])
def test_separable_conv_spreads_along_one_axis_only(orientation, axis):
    fs = FullySeparableConv("fs", 1, 1, 3, orientation, seed=2)
    make_positive(fs)
    x = np.zeros((1, 1, 7, 7), dtype=np.float32)
    x[0, 0, 3, 3] = 1.0
    out = fs(Tensor(x)).data[0, 0]
    support = np.argwhere(out != 0)
    spread_axis = axis - 2
    fixed_axis = 1 - spread_axis
    assert set(support[:, spread_axis]) == {2, 3, 4}
    assert set(support[:, fixed_axis]) == {3}


# ---------------------------------------------------------------------------
# Aggregation module
# ---------------------------------------------------------------------------

def test_aggregation_output_shape_tracks_input():
    agg = AggregationModule("agg", 4, 6, 3, seed=3)
    for hw in ((4, 4), (5, 9)):
        out = agg(Tensor(rnd(4, (2, 4) + hw)), mode="train")
        assert out.shape == (2, 6) + hw


@pytest.mark.parametrize("k", [3, 5, 7])
def test_aggregation_receptive_field_is_k_by_k(k):
    agg = AggregationModule("agg", 1, 1, k, seed=5)
    make_positive(agg)
    side = k + 4
    c = side // 2
    x = np.zeros((1, 1, side, side), dtype=np.float32)
    x[0, 0, c, c] = 1.0
    out = agg(Tensor(x), mode="eval").data[0, 0]
    nz = out != 0
    r = (k - 1) // 2
    want = np.zeros_like(nz)
    want[c - r:c + r + 1, c - r:c + r + 1] = True
    assert np.array_equal(nz, want)


def test_aggregation_parameter_inventory():
    agg = AggregationModule("agg", 3, 4, 5)
    names = {p.name for p in agg.parameters()}
    assert "agg.fs1.dw.weight" in names
    assert "agg.fs2.pw.weight" in names
    assert "agg.bn1.gamma" in names and "agg.bn2.beta" in names
    assert len(agg.bn_layers()) == 2


# ---------------------------------------------------------------------------
# Prior head and context gathering
# ---------------------------------------------------------------------------

def test_prior_head_shape_and_range():
    layer = ContextPriorLayer("cp", 4, 6, 16, k=3, seed=6)
    x = Tensor(rnd(7, (2, 4, 4, 4)))
    out, p = layer(x, mode="train")
    assert p.shape == (2, 16, 16)
    assert (p.data > 0).all() and (p.data < 1).all()
    assert out.shape == (2, 4 + 2 * 6, 4, 4)


def test_prior_head_rejects_mismatched_grid():
    layer = ContextPriorLayer("cp", 4, 6, 16, k=3)
    with pytest.raises(ShapeError):
        layer(Tensor(rnd(8, (1, 4, 2, 4))), mode="train")  # 2*4 != 16
    with pytest.raises(ShapeError):
        layer(Tensor(rnd(9, (1, 3, 4, 4))), mode="train")  # wrong channel count


def test_prior_rows_index_query_pixels():
    # with the head's 1x1 conv hand-wired to route channel c of the
    # aggregated map to key c, entry P[b, q, c] must equal the sigmoid
    # of that channel read at query position q; the head returns the
    # key-major Q = P^T
    layer = ContextPriorLayer("cp", 2, 4, 4, k=3, seed=10)
    layer.prior_conv.weight.data[...] = 0.0
    for key in range(4):
        layer.prior_conv.weight.data[key, key % 4, 0, 0] = 1.0

    xa = Tensor(rnd(11, (1, 4, 2, 2)))
    p = query_major(layer.prior_head(xa, mode="eval"))
    flat = xa.data.reshape(1, 4, 4)
    scale = 1.0 / np.sqrt(1.0 + BN_EPS)  # eval BN with fresh running stats
    for q in range(4):
        for key in range(4):
            want = 1.0 / (1.0 + np.exp(-flat[0, key, q] * scale))
            assert p[0, q, key] == pytest.approx(want, abs=1e-6)


def test_intra_and_inter_context_sum_to_full_context():
    # P*X + (1-P)*X telescopes: the two context blocks must add up to the
    # (query-independent) channel totals of the aggregated features
    layer = ContextPriorLayer("cp", 3, 5, 9, k=3, seed=12)
    x = Tensor(rnd(13, (2, 3, 3, 3)))
    out, _p = layer(x, mode="eval")
    xa = layer.aggregation(x, mode="eval")
    totals = xa.data.sum(axis=(2, 3))  # (B, C1)

    y = out.data[:, 3:8]
    ybar = out.data[:, 8:13]
    combined = y + ybar
    assert np.allclose(combined, totals[:, :, None, None], atol=1e-5)


def test_context_blocks_are_bmm_with_the_prior():
    layer = ContextPriorLayer("cp", 2, 3, 4, k=3, seed=14)
    x = Tensor(rnd(15, (1, 2, 2, 2)))
    out, q = layer(x, mode="eval")
    p = query_major(q)
    xa = layer.aggregation(x, mode="eval").data
    xr = xa.reshape(1, 3, 4).transpose(0, 2, 1)  # (B, N, C1)
    y = np.matmul(p, xr)
    ybar = np.matmul(1.0 - p, xr)
    got_y = out.data[:, 2:5].reshape(1, 3, 4).transpose(0, 2, 1)
    got_ybar = out.data[:, 5:8].reshape(1, 3, 4).transpose(0, 2, 1)
    assert np.allclose(got_y, y, atol=1e-6)
    assert np.allclose(got_ybar, ybar, atol=1e-6)


def test_prior_is_computed_per_batch_element():
    layer = ContextPriorLayer("cp", 2, 3, 4, k=3, seed=16)
    a = rnd(17, (1, 2, 2, 2))
    b = rnd(18, (1, 2, 2, 2))
    _, p_pair = layer(Tensor(np.concatenate([a, b])), mode="eval")
    _, p_solo = layer(Tensor(a), mode="eval")
    assert np.array_equal(p_pair.data[0], p_solo.data[0])


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

def test_standard_conv_macs():
    assert macs_standard_conv(4, 4, 3, 2, 5) == 4 * 4 * 9 * 2 * 5
    assert macs_standard_conv(60, 60, 11, 256, 256) == 60 * 60 * 121 * 256 * 256


@pytest.mark.parametrize("k", [3, 5, 7, 11])
@pytest.mark.parametrize("c", [8, 64, 256])
def test_spatial_separable_halves_cost_per_tap(k, c):
    std = macs_standard_conv(16, 16, k, c, c)
    sep = macs_spatial_separable(16, 16, k, c)
    assert std * 2 == sep * k  # exact integer identity: ratio k/2


def test_fully_separable_macs():
    # depthwise k taps per channel plus a 1x1 projection
    assert macs_fully_separable(2, 4, 4, 5, 8, 16) == 2 * 4 * 4 * (5 * 8 + 8 * 16)
    assert macs_fully_separable(1, 1, 1, 11, 3, 3) == 11 * 3 + 9
