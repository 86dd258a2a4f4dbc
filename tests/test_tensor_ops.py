"""Forward-value tests for the array ops.

Every op with nontrivial indexing is checked against an independent
oracle written as plain loops (convolution, bilinear resampling,
cross-entropy); the rest are compared with direct numpy expressions.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpnet.labelmap import IGNORE_INDEX
from cpnet.rng import bulk_normal, bulk_uniform
from cpnet.tensor import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormState,
    Graph,
    NumericError,
    ShapeError,
    Tensor,
    add,
    add_const,
    batch_norm,
    bilinear_matrix,
    bilinear_upsample,
    clamp,
    concat,
    conv2d,
    conv2d_output_size,
    div,
    full,
    log,
    matmul,
    bmm,
    mean_all,
    mul,
    neg,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax_cross_entropy,
    sub,
    sum_all,
    sum_axis,
    transpose,
    zeros,
)


def rnd(seed, shape, lo=-2.0, hi=2.0):
    return (bulk_uniform(seed, shape) * (hi - lo) + lo)


# ---------------------------------------------------------------------------
# Construction and dtype canonicalization
# ---------------------------------------------------------------------------

def test_dtype_canonicalization():
    assert Tensor([1, 2]).dtype == "int32"
    assert Tensor([1.0, 2.0]).dtype == "float64"
    assert Tensor(np.ones(3, dtype=np.float32)).dtype == "float32"
    assert Tensor(np.ones(3, dtype=np.float16)).dtype == "float64"
    assert Tensor(np.array([True, False])).dtype == "int32"
    assert Tensor(np.array([1, 2], dtype=np.uint8)).dtype == "uint8"


def test_zero_dim_tensors_keep_their_rank():
    t = Tensor(np.float64(3.5))
    assert t.shape == ()
    assert t.item() == 3.5


def test_zeros_and_full():
    assert zeros((2, 3)).dtype == "float32"
    assert np.array_equal(full((2, 2), 7.0, dtype="float64").data, np.full((2, 2), 7.0))


def test_unsupported_dtype_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.array([1 + 2j]))


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

def test_binary_op_values():
    a = Tensor(rnd(1, (3, 4)))
    b = Tensor(rnd(2, (3, 4), lo=0.5, hi=2.0))
    assert np.allclose(add(a, b).data, a.data + b.data)
    assert np.allclose(sub(a, b).data, a.data - b.data)
    assert np.allclose(mul(a, b).data, a.data * b.data)
    assert np.allclose(div(a, b).data, a.data / b.data)


def test_binary_ops_demand_matching_shapes():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
    for op in (add, sub, mul, div):
        with pytest.raises(ShapeError):
            op(a, b)


def test_binary_ops_demand_floats():
    with pytest.raises(ShapeError):
        add(Tensor([1, 2]), Tensor([3, 4]))


def test_scalar_ops():
    a = Tensor(rnd(5, (4,)))
    assert np.allclose(scale(a, -1.5).data, a.data * -1.5)
    assert np.allclose(add_const(a, 0.25).data, a.data + 0.25)
    assert np.allclose(neg(a).data, -a.data)


def test_log_values_and_domain():
    a = Tensor(rnd(6, (5,), lo=0.1, hi=3.0))
    assert np.allclose(log(a).data, np.log(a.data))
    with pytest.raises(NumericError):
        log(Tensor([1.0, 0.0]))
    with pytest.raises(NumericError):
        log(Tensor([-0.5]))


def test_clamp_values():
    a = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert np.array_equal(clamp(a, -1.0, 1.0).data, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_relu_and_sigmoid_values():
    a = Tensor(np.array([-3.0, 0.0, 2.0]))
    assert np.array_equal(relu(a).data, [0.0, 0.0, 2.0])
    s = sigmoid(Tensor(np.array([0.0]))).data
    assert s[0] == 0.5
    assert np.allclose(
        sigmoid(Tensor(np.array([-1.0, 1.0]))).data,
        1.0 / (1.0 + np.exp([1.0, -1.0])),
    )


def test_sigmoid_is_stable_at_extremes():
    for dtype in (np.float64, np.float32):
        with np.errstate(over="raise", invalid="raise"):
            out = sigmoid(Tensor(np.array([-800.0, 800.0], dtype=dtype))).data
        assert out.dtype == dtype
        assert out[0] == 0.0 and out[1] == 1.0


# ---------------------------------------------------------------------------
# Reductions and movement
# ---------------------------------------------------------------------------

def test_reductions_match_numpy():
    a = Tensor(rnd(7, (3, 4, 2)))
    assert sum_all(a).item() == pytest.approx(a.data.sum(), rel=1e-12)
    assert mean_all(a).item() == pytest.approx(a.data.mean(), rel=1e-12)
    assert np.allclose(sum_axis(a, 1).data, a.data.sum(axis=1))
    assert sum_axis(a, 1).shape == (3, 2)


def test_reshape_and_transpose():
    a = Tensor(rnd(8, (2, 6)))
    assert np.array_equal(reshape(a, (3, 4)).data, a.data.reshape(3, 4))
    with pytest.raises(ShapeError):
        reshape(a, (5, 3))
    b = Tensor(rnd(9, (2, 3, 4)))
    assert np.array_equal(transpose(b, (2, 0, 1)).data, b.data.transpose(2, 0, 1))


def test_concat_values_and_errors():
    a, b = Tensor(rnd(10, (2, 3))), Tensor(rnd(11, (2, 5)))
    out = concat([a, b], axis=1)
    assert np.array_equal(out.data, np.concatenate([a.data, b.data], axis=1))
    with pytest.raises(ShapeError):
        concat([a, Tensor(rnd(12, (3, 3)))], axis=1)


def test_matmul_and_bmm_match_numpy():
    a, b = rnd(13, (4, 5)), rnd(14, (5, 3))
    assert np.allclose(matmul(Tensor(a), Tensor(b)).data, a @ b)
    with pytest.raises(ShapeError):
        matmul(Tensor(a), Tensor(a))
    x, y = rnd(15, (3, 2, 4)), rnd(16, (3, 4, 5))
    assert np.allclose(bmm(Tensor(x), Tensor(y)).data, np.einsum("bij,bjk->bik", x, y))
    with pytest.raises(ShapeError):
        bmm(Tensor(x), Tensor(rnd(17, (2, 4, 5))))


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def naive_conv2d(x, w, bias, stride, padding, dilation, groups):
    """Direct six-loop convolution used as the oracle."""
    b, cin, h, wd = x.shape
    cout, cing, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    oh = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    ow = (wd + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    xp = np.zeros((b, cin, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((b, cout, oh, ow), dtype=x.dtype)
    per_group = cout // groups
    for bi in range(b):
        for oc in range(cout):
            g = oc // per_group
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cing):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[bi, g * cing + ic, oy * sh + ky * dh, ox * sw + kx * dw]
                                    * w[oc, ic, ky, kx]
                                )
                    out[bi, oc, oy, ox] = acc + (0.0 if bias is None else bias[oc])
    return out


def naive_conv2d_grads(x, w, g, stride, padding, dilation, groups):
    """Loop oracle for the backward: (dx, dw) of sum(g * conv2d(x, w))."""
    b, cin, h, wd = x.shape
    cout, cing, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    dxp = np.zeros((b, cin, h + 2 * ph, wd + 2 * pw))
    xp = np.zeros_like(dxp)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    gw = np.zeros(w.shape)
    per_group = cout // groups
    for bi, oc, oy, ox in np.ndindex(g.shape):
        c0 = oc // per_group * cing
        for ic, ky, kx in np.ndindex(cing, kh, kw):
            y, xx = oy * sh + ky * dh, ox * sw + kx * dw
            dxp[bi, c0 + ic, y, xx] += g[bi, oc, oy, ox] * w[oc, ic, ky, kx]
            gw[oc, ic, ky, kx] += g[bi, oc, oy, ox] * xp[bi, c0 + ic, y, xx]
    return dxp[:, :, ph:ph + h, pw:pw + wd], gw


def test_conv2d_identity_kernel_is_identity():
    x = rnd(20, (1, 1, 3, 3))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = conv2d(Tensor(x), Tensor(w), padding=1)
    assert np.allclose(out.data, x)


def test_conv2d_box_filter_spreads_an_impulse():
    x = np.zeros((1, 1, 1, 5))
    x[0, 0, 0, 2] = 1.0
    w = np.ones((1, 1, 1, 3))
    out = conv2d(Tensor(x), Tensor(w), padding=(0, 1))
    assert np.array_equal(out.data[0, 0, 0], [0.0, 1.0, 1.0, 1.0, 0.0])


# Geometries where some kernel taps read only padding at every output
# position; conv2d drops them from the GEMM.
DEAD_TAP_CASES = [
    # the aggregation's 11-tap depthwise convs on a 4x4 map: taps 0-1 and 9-10 are dead
    dict(x=(2, 4, 4, 4), w=(4, 1, 11, 1), stride=1, padding=(5, 0), dilation=1, groups=4, bias=False),
    dict(x=(2, 4, 4, 4), w=(4, 1, 1, 11), stride=1, padding=(0, 5), dilation=1, groups=4, bias=True),
    # dead on one side only: tap row 0 and tap column 0; tap column 3 is dead
    # but inside the kept range
    dict(x=(2, 3, 6, 2), w=(4, 3, 5, 5), stride=(2, 3), padding=(3, 4), dilation=(2, 1),
         groups=1, bias=True),
    # the one kept tap reads rows and columns 1-2; the input border is never read
    dict(x=(2, 3, 4, 4), w=(2, 3, 3, 3), stride=1, padding=3, dilation=4, groups=1, bias=False),
    # depthwise 5x1: tap 0 is dropped and tap 3, inside the kept range, is dead;
    # the first and last output columns read only padding
    dict(x=(2, 2, 2, 5), w=(2, 1, 5, 1), stride=(3, 2), padding=(4, 1), dilation=1,
         groups=2, bias=True),
]

CONV_CASES = [
    dict(x=(1, 1, 5, 5), w=(1, 1, 3, 3), stride=1, padding=0, dilation=1, groups=1, bias=False),
    dict(x=(2, 3, 6, 7), w=(4, 3, 3, 3), stride=1, padding=1, dilation=1, groups=1, bias=True),
    dict(x=(1, 2, 8, 8), w=(3, 2, 3, 3), stride=2, padding=1, dilation=1, groups=1, bias=True),
    dict(x=(1, 2, 9, 9), w=(2, 2, 3, 3), stride=1, padding=2, dilation=2, groups=1, bias=False),
    dict(x=(2, 4, 6, 6), w=(4, 2, 3, 3), stride=1, padding=1, dilation=1, groups=2, bias=True),
    dict(x=(1, 3, 7, 5), w=(3, 1, 5, 1), stride=1, padding=(2, 0), dilation=1, groups=3, bias=False),
    dict(x=(1, 2, 10, 10), w=(2, 2, 3, 3), stride=(2, 1), padding=(1, 2), dilation=(2, 1), groups=1, bias=True),
    # 8 of the 9 taps read only padding
    dict(x=(2, 3, 4, 4), w=(5, 3, 3, 3), stride=1, padding=4, dilation=4, groups=1, bias=False),
    dict(x=(3, 4, 5, 7), w=(4, 1, 1, 5), stride=1, padding=(0, 2), dilation=1, groups=4, bias=False),
    dict(x=(2, 5, 5, 6), w=(3, 5, 1, 1), stride=2, padding=0, dilation=1, groups=1, bias=True),
    dict(x=(3, 4, 7, 6), w=(2, 4, 3, 3), stride=2, padding=1, dilation=1, groups=1, bias=True),
    # depthwise kernels on one column or row run as banded products: strided,
    # and dilated with outputs that read padding on the other axis
    dict(x=(2, 3, 9, 7), w=(3, 1, 5, 1), stride=2, padding=(2, 0), dilation=1, groups=3, bias=True),
    dict(x=(2, 4, 6, 9), w=(4, 1, 1, 3), stride=1, padding=(1, 2), dilation=2, groups=4, bias=False),
    # a 2-D depthwise kernel takes the grouped im2col path
    dict(x=(2, 4, 6, 6), w=(4, 1, 3, 3), stride=1, padding=1, dilation=1, groups=4, bias=True),
    # 1x1 kernels: grouped in place, and strided with an offset window
    dict(x=(2, 4, 5, 6), w=(6, 2, 1, 1), stride=1, padding=0, dilation=1, groups=2, bias=True),
    dict(x=(1, 3, 5, 5), w=(4, 3, 1, 1), stride=(1, 2), padding=(0, 1), dilation=1, groups=1,
         bias=False),
] + DEAD_TAP_CASES


def pair(v):
    return v if isinstance(v, tuple) else (v, v)


def conv_case_id(c):
    return f"w{c['w']}g{c['groups']}s{c['stride']}"


@pytest.mark.parametrize("case", CONV_CASES, ids=conv_case_id)
def test_conv2d_matches_loop_oracle(case):
    x = rnd(21, case["x"])
    w = rnd(22, case["w"], lo=-1.0, hi=1.0)
    bias = rnd(23, (case["w"][0],)) if case["bias"] else None
    want = naive_conv2d(x, w, bias, pair(case["stride"]), pair(case["padding"]),
                        pair(case["dilation"]), case["groups"])
    got = conv2d(
        Tensor(x), Tensor(w), None if bias is None else Tensor(bias),
        stride=case["stride"], padding=case["padding"],
        dilation=case["dilation"], groups=case["groups"],
    )
    assert got.shape == want.shape
    assert np.allclose(got.data, want, atol=1e-12)


@pytest.mark.parametrize("case", CONV_CASES, ids=conv_case_id)
def test_conv2d_gradients_match_loop_oracle(case):
    stride, padding, dilation = pair(case["stride"]), pair(case["padding"]), pair(case["dilation"])
    x = rnd(41, case["x"])
    w = rnd(42, case["w"], lo=-1.0, hi=1.0)
    xt, wt = Tensor(x), Tensor(w)
    bt = Tensor(rnd(43, (case["w"][0],))) if case["bias"] else None
    with Graph() as gr:
        out = conv2d(xt, wt, bt, stride=stride, padding=padding, dilation=dilation,
                     groups=case["groups"])
        g = rnd(44, out.shape)
        loss = sum_all(mul(out, Tensor(g)))
    grads = gr.backward(loss)
    want_dx, want_gw = naive_conv2d_grads(x, w, g, stride, padding, dilation, case["groups"])
    assert np.allclose(grads[xt], want_dx, atol=1e-12)
    assert np.allclose(grads[wt], want_gw, atol=1e-12)
    if bt is not None:
        assert np.allclose(grads[bt], g.sum(axis=(0, 2, 3)), atol=1e-12)


# The model's geometries for the copy-free window kinds: its 1x1 convs (one
# grouped), stage 5's 3x3 at dilation 4 on a 4x4 map (a 1x1 after dropping
# dead taps), and the aggregation's 11-tap depthwise convs.
BATCH_INVARIANT_CASES = [
    dict(w=(16, 64, 1, 1), hw=4, padding=0, dilation=1, groups=1),
    dict(w=(8, 64, 1, 1), hw=16, padding=0, dilation=1, groups=2),
    dict(w=(64, 64, 3, 3), hw=4, padding=4, dilation=4, groups=1),
    dict(w=(64, 1, 11, 1), hw=4, padding=(5, 0), dilation=1, groups=64),
    dict(w=(16, 1, 1, 11), hw=16, padding=(0, 5), dilation=1, groups=16),
]


@pytest.mark.parametrize("case", BATCH_INVARIANT_CASES, ids=lambda c: f"w{c['w']}hw{c['hw']}")
def test_conv2d_in_place_and_banded_paths_are_batch_invariant(case):
    """A sample's output equals its batch-1 output bit for bit, which
    multi-window evaluation relies on."""
    cg = case["w"][1]
    x = (bulk_uniform(51, (5, cg * case["groups"], case["hw"], case["hw"])) - 0.5).astype(np.float32)
    w = (bulk_uniform(52, case["w"]) - 0.5).astype(np.float32)
    kw = dict(padding=case["padding"], dilation=case["dilation"], groups=case["groups"])
    out = conv2d(Tensor(x), Tensor(w), **kw).data
    for i in range(x.shape[0]):
        one = conv2d(Tensor(x[i:i + 1]), Tensor(w), **kw).data
        assert np.array_equal(one[0], out[i])


def _bytes_kept_by_forward(x, w, **kw) -> int:
    """Bytes a recorded conv2d forward leaves allocated while its tape is
    alive, besides its output."""
    xt, wt = Tensor(x), Tensor(w)
    tracemalloc.start()
    try:
        with Graph() as tape:
            out = conv2d(xt, wt, **kw)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) == 1
    return kept - out.data.nbytes


def test_depthwise_conv_keeps_no_window_copy():
    # the aggregation's depthwise 1x11 conv at the 16x16 grid, train mode:
    # an im2col window buffer (C, k, B, L) would take 5.8 MB
    b, c, hw, k = 4, 128, 16, 11
    x = (bulk_uniform(61, (b, c, hw, hw)) - 0.5).astype(np.float32)
    w = (bulk_uniform(62, (c, 1, 1, k)) - 0.5).astype(np.float32)
    kept = _bytes_kept_by_forward(x, w, padding=(0, k // 2), groups=c)
    assert kept < c * k * b * hw * hw * x.itemsize // 8


def test_pointwise_conv_keeps_no_copy_of_its_input():
    x = (bulk_uniform(63, (4, 128, 16, 16)) - 0.5).astype(np.float32)
    w = (bulk_uniform(64, (64, 128, 1, 1)) - 0.5).astype(np.float32)
    assert _bytes_kept_by_forward(x, w) < x.nbytes // 8


@pytest.mark.parametrize("case", DEAD_TAP_CASES, ids=lambda c: f"w{c['w']}s{c['stride']}")
def test_conv2d_dead_taps_get_exactly_zero_weight_gradient(case):
    stride, padding, dilation = pair(case["stride"]), pair(case["padding"]), pair(case["dilation"])
    x = rnd(31, case["x"])
    w = rnd(32, case["w"], lo=-1.0, hi=1.0)
    xt, wt = Tensor(x), Tensor(w)
    with Graph() as gr:
        out = conv2d(xt, wt, stride=stride, padding=padding, dilation=dilation,
                     groups=case["groups"])
        g = rnd(33, out.shape)
        loss = sum_all(mul(out, Tensor(g)))
    grads = gr.backward(loss)
    want_dx, want_gw = naive_conv2d_grads(x, w, g, stride, padding, dilation, case["groups"])

    # a tap is dead when it reads padding at every output position
    live = []
    for n, k, s, p, d, o in zip(x.shape[2:], w.shape[2:], stride, padding, dilation, out.shape[2:]):
        live.append(np.array([any(0 <= t * s + i * d - p < n for t in range(o)) for i in range(k)]))
    dead = ~(live[0][:, None] & live[1][None, :])
    assert dead.any()
    gw = grads[wt]
    assert (gw[:, :, dead] == 0.0).all()
    assert np.allclose(gw[:, :, ~dead], want_gw[:, :, ~dead], atol=1e-12)
    assert np.allclose(grads[xt], want_dx, atol=1e-12)


def test_conv2d_rejects_bad_geometry():
    x, w = Tensor(rnd(24, (1, 4, 5, 5))), Tensor(rnd(25, (2, 2, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(x, w)  # 4 input channels vs weight expecting 2 per group
    with pytest.raises(ShapeError):
        conv2d(Tensor(rnd(26, (1, 2, 2, 2))), Tensor(rnd(27, (2, 2, 3, 3))))


def test_conv2d_output_size_formula():
    assert conv2d_output_size(5, 3, 1, 0, 1) == 3
    assert conv2d_output_size(5, 3, 1, 1, 1) == 5
    assert conv2d_output_size(8, 3, 2, 1, 1) == 4
    assert conv2d_output_size(9, 3, 1, 2, 2) == 9
    # the helper is the bare formula; conv2d itself rejects the geometry
    assert conv2d_output_size(2, 3, 1, 0, 2) < 1


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def test_batch_norm_train_matches_manual_formula():
    x = rnd(30, (2, 3, 4, 4))
    gamma = rnd(31, (3,), lo=0.5, hi=1.5)
    beta = rnd(32, (3,), lo=-0.5, hi=0.5)
    state = BatchNormState(3, dtype="float64")
    out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, mode="train")

    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))  # population variance, no Bessel correction
    want = (x - mean[:, None, None]) / np.sqrt(var[:, None, None] + BN_EPS)
    want = want * gamma[:, None, None] + beta[:, None, None]
    assert np.allclose(out.data, want, atol=1e-12)

    assert np.allclose(state.running_mean, (1 - BN_MOMENTUM) * mean, atol=1e-12)
    assert np.allclose(state.running_var, BN_MOMENTUM * 1.0 + (1 - BN_MOMENTUM) * var,
                       atol=1e-12)


def test_batch_norm_eval_uses_running_statistics():
    x = rnd(33, (2, 2, 3, 3))
    gamma, beta = np.array([1.5, 0.5]), np.array([0.1, -0.2])
    state = BatchNormState(2, dtype="float64")
    state.running_mean[:] = [0.3, -0.1]
    state.running_var[:] = [2.0, 0.5]
    before = (state.running_mean.copy(), state.running_var.copy())
    out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, mode="eval")
    want = (x - state.running_mean[:, None, None]) / np.sqrt(
        state.running_var[:, None, None] + BN_EPS
    ) * gamma[:, None, None] + beta[:, None, None]
    assert np.allclose(out.data, want, atol=1e-12)
    # eval mode must not touch the running estimates
    assert np.array_equal(state.running_mean, before[0])
    assert np.array_equal(state.running_var, before[1])


def test_batch_norm_running_stats_converge_geometrically():
    x = Tensor(np.ones((4, 1, 2, 2), dtype=np.float64))
    state = BatchNormState(1, dtype="float64")
    g, b = Tensor(np.ones(1)), Tensor(np.zeros(1))
    for step in range(1, 4):
        batch_norm(x, g, b, state, mode="train")
        # constant input: batch mean 1, batch variance 0
        assert state.running_mean[0] == pytest.approx(1 - BN_MOMENTUM**step, rel=1e-12)
        assert state.running_var[0] == pytest.approx(BN_MOMENTUM**step, rel=1e-12)


def test_batch_norm_rejects_mismatched_channels():
    state = BatchNormState(3)
    with pytest.raises(ShapeError):
        batch_norm(Tensor(rnd(35, (1, 2, 2, 2))), Tensor(np.ones(2)),
                   Tensor(np.zeros(2)), state)


def test_batch_norm_rejects_unknown_mode():
    state = BatchNormState(2, dtype="float64")
    with pytest.raises(ValueError):
        batch_norm(Tensor(rnd(36, (1, 2, 2, 2))), Tensor(np.ones(2)),
                   Tensor(np.zeros(2)), state, mode="test")


# float32 sums over m terms err by a few eps times the sum of the terms'
# magnitudes; fixed from the dtype alone, not from a measured error
F32_TOL = 32 * np.finfo(np.float32).eps


def bn_oracle(x, gamma, beta, g, mean=None, var=None):
    """Float64 batch norm forward and backward, with the magnitude each
    result is a sum of.  Batch statistics unless ``mean``/``var`` are given
    (eval mode: the statistics are constants)."""
    x, g = x.astype(np.float64), g.astype(np.float64)
    train = mean is None
    if train:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    c4 = (slice(None), None, None)
    inv_std = 1.0 / np.sqrt(np.asarray(var, np.float64) + BN_EPS)
    xhat = (x - np.asarray(mean, np.float64)[c4]) * inv_std[c4]
    out = gamma[c4] * xhat + beta[c4]
    dbeta = g.sum(axis=(0, 2, 3))
    dgamma = (g * xhat).sum(axis=(0, 2, 3))
    dx = g
    if train:
        m = x.shape[0] * x.shape[2] * x.shape[3]
        dx = g - dbeta[c4] / m - xhat * dgamma[c4] / m
    dx = dx * (gamma * inv_std)[c4]
    sizes = (np.abs(g).sum(axis=(0, 2, 3)), np.abs(g * xhat).sum(axis=(0, 2, 3)))
    return out, dx, dgamma, dbeta, sizes


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_norm_float32_matches_float64_oracle(mode):
    shape = (4, 16, 64, 64)  # the first backbone stage at crop 128, batch 4
    x = (rnd(37, shape) * 1.5 + rnd(38, (1, 16, 1, 1))).astype(np.float32)
    gamma = rnd(39, (16,), lo=0.5, hi=1.5).astype(np.float32)
    beta = rnd(40, (16,), lo=-0.5, hi=0.5).astype(np.float32)
    g = rnd(41, shape).astype(np.float32)
    state = BatchNormState(16)
    stats = {}
    if mode == "eval":
        state.running_mean[:] = x.mean(axis=(0, 2, 3), dtype=np.float64) + 0.1
        state.running_var[:] = x.var(axis=(0, 2, 3), dtype=np.float64) * 1.2
        stats = dict(mean=state.running_mean, var=state.running_var)
    xt, gt, bt = Tensor(x), Tensor(gamma), Tensor(beta)
    with Graph() as tape:
        out = batch_norm(xt, gt, bt, state, mode=mode)
        loss = sum_all(mul(out, Tensor(g)))
    grads = tape.backward(loss)
    want_out, want_dx, want_dgamma, want_dbeta, (g_size, gx_size) = bn_oracle(
        x, gamma.astype(np.float64), beta.astype(np.float64), g, **stats)

    assert out.data.dtype == np.float32 and grads[xt].dtype == np.float32
    assert np.abs(out.data - want_out).max() <= F32_TOL * np.abs(want_out).max()
    assert np.abs(grads[xt] - want_dx).max() <= F32_TOL * np.abs(want_dx).max()
    assert (np.abs(grads[bt] - want_dbeta) <= F32_TOL * g_size).all()
    assert (np.abs(grads[gt] - want_dgamma) <= F32_TOL * gx_size).all()


# ---------------------------------------------------------------------------
# Bilinear resampling
# ---------------------------------------------------------------------------

def bilinear_oracle(src, out_h, out_w):
    """Per-pixel evaluation of half-pixel-center bilinear sampling."""
    in_h, in_w = src.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            py = (i + 0.5) * in_h / out_h - 0.5
            px = (j + 0.5) * in_w / out_w - 0.5
            y0, x0 = int(np.floor(py)), int(np.floor(px))
            ty, tx = py - y0, px - x0
            acc = 0.0
            for dy, wy in ((0, 1 - ty), (1, ty)):
                for dx, wx in ((0, 1 - tx), (1, tx)):
                    yy = min(max(y0 + dy, 0), in_h - 1)
                    xx = min(max(x0 + dx, 0), in_w - 1)
                    acc += wy * wx * src[yy, xx]
            out[i, j] = acc
    return out


@pytest.mark.parametrize("in_size,out_size", [(2, 4), (4, 8), (3, 7), (5, 2), (4, 4)])
def test_bilinear_matrix_matches_pointwise_oracle(in_size, out_size):
    src = rnd(40, (in_size, in_size))
    w = bilinear_matrix(in_size, out_size)
    got = w @ src @ bilinear_matrix(in_size, out_size).T
    assert np.allclose(got, bilinear_oracle(src, out_size, out_size), atol=1e-12)


def test_bilinear_matrix_rows_are_convex_weights():
    w = bilinear_matrix(5, 13)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert (w >= 0).all()


def test_bilinear_matrix_is_shared_and_read_only():
    w = bilinear_matrix(3, 6)
    assert bilinear_matrix(3, 6) is w
    with pytest.raises(ValueError):
        w[0, 0] = 2.0


def test_bilinear_upsample_equals_matrix_form():
    x = rnd(41, (2, 3, 4, 5))
    out = bilinear_upsample(Tensor(np.asarray(x, dtype=np.float64)), 2)
    wr = bilinear_matrix(4, 8)
    wc = bilinear_matrix(5, 10)
    want = np.matmul(np.matmul(wr, x), wc.T)
    assert out.shape == (2, 3, 8, 10)
    assert np.allclose(out.data, want, atol=1e-12)


def test_bilinear_upsample_factor_one_is_identity():
    x = rnd(42, (1, 1, 3, 3))
    assert np.array_equal(bilinear_upsample(Tensor(x), 1).data, x)


def test_bilinear_upsample_rejects_bad_factor():
    with pytest.raises(ShapeError):
        bilinear_upsample(Tensor(rnd(43, (1, 1, 2, 2))), 0)
    with pytest.raises(ShapeError):
        bilinear_upsample(Tensor(rnd(44, (2, 2))), 2)


def test_upsample_of_constant_stays_constant():
    x = np.full((1, 2, 3, 3), 0.7)
    out = bilinear_upsample(Tensor(x), 4)
    assert np.allclose(out.data, 0.7, atol=1e-12)


# ---------------------------------------------------------------------------
# Cross-entropy
# ---------------------------------------------------------------------------

def ce_oracle(logits, labels, ignore):
    """Scalar log-sum-exp cross-entropy, one pixel at a time."""
    b, c, h, w = logits.shape
    total, n = 0.0, 0
    for bi in range(b):
        for y in range(h):
            for x in range(w):
                cls = labels[bi, y, x]
                if cls == ignore:
                    continue
                z = logits[bi, :, y, x]
                m = z.max()
                total += np.log(np.exp(z - m).sum()) + m - z[cls]
                n += 1
    return total / n


def test_cross_entropy_matches_scalar_oracle():
    logits = rnd(50, (2, 3, 4, 4), lo=-3.0, hi=3.0)
    labels = (bulk_uniform(51, (2, 4, 4)) * 3).astype(np.int32)
    labels[0, 0, 0] = IGNORE_INDEX
    labels[1, 3, 3] = IGNORE_INDEX
    got = softmax_cross_entropy(Tensor(logits), labels)
    assert got.item() == pytest.approx(ce_oracle(logits, labels, IGNORE_INDEX), rel=1e-12)


def test_cross_entropy_of_uniform_logits_is_log_classes():
    logits = np.zeros((1, 5, 2, 2))
    labels = np.zeros((1, 2, 2), dtype=np.int32)
    got = softmax_cross_entropy(Tensor(logits), labels)
    assert got.item() == pytest.approx(np.log(5.0), rel=1e-12)


def test_cross_entropy_is_stable_for_huge_logits():
    logits = np.zeros((1, 2, 1, 1))
    logits[0, 0] = 1e4
    labels = np.zeros((1, 1, 1), dtype=np.int32)
    got = softmax_cross_entropy(Tensor(logits), labels)
    assert np.isfinite(got.item())
    assert got.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_rejects_fully_ignored_batches():
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    labels = np.full((1, 2, 2), IGNORE_INDEX, dtype=np.int32)
    with pytest.raises(NumericError):
        softmax_cross_entropy(logits, labels)


def ce_grad_oracle(logits, labels, ignore):
    """d(mean CE)/d(logits), one pixel at a time, in float64."""
    b, c, h, w = logits.shape
    grad = np.zeros(logits.shape)
    n = int((labels != ignore).sum())
    for bi in range(b):
        for y in range(h):
            for x in range(w):
                cls = labels[bi, y, x]
                if cls == ignore:
                    continue
                z = logits[bi, :, y, x].astype(np.float64)
                e = np.exp(z - z.max())
                grad[bi, :, y, x] = e / e.sum()
                grad[bi, cls, y, x] -= 1.0
    return grad / n


def test_cross_entropy_float32_matches_loop_oracle():
    logits = rnd(53, (2, 4, 5, 6), lo=-6.0, hi=6.0).astype(np.float32)
    labels = (bulk_uniform(54, (2, 5, 6)) * 4).astype(np.int32)
    labels[bulk_uniform(55, (2, 5, 6)) < 0.2] = IGNORE_INDEX
    lt = Tensor(logits)
    with Graph() as g:
        loss = softmax_cross_entropy(lt, labels)
    grad = g.backward(loss)[lt]
    assert loss.dtype == "float32" and grad.dtype == np.float32
    want = ce_oracle(logits.astype(np.float64), labels, IGNORE_INDEX)
    assert loss.item() == pytest.approx(want, rel=1e-6)
    assert np.allclose(grad, ce_grad_oracle(logits, labels, IGNORE_INDEX),
                       rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("bad", [-1, 3])
def test_cross_entropy_rejects_labels_outside_the_classes(bad):
    labels = np.zeros((1, 2, 2), dtype=np.int32)
    labels[0, 1, 0] = bad
    with pytest.raises(ValueError, match=rf"label {bad} at pixel \(0, 1, 0\) is outside \[0, 3\)"):
        softmax_cross_entropy(Tensor(np.zeros((1, 3, 2, 2))), labels)


@given(st.integers(2, 6), st.integers(1, 3))
def test_cross_entropy_is_permutation_invariant_over_pixels(classes, bsz):
    # shuffling pixel order cannot change a mean over pixels
    logits = bulk_normal(60, (bsz, classes, 2, 3))
    labels = (bulk_uniform(61, (bsz, 2, 3)) * classes).astype(np.int32)
    a = softmax_cross_entropy(Tensor(logits), labels).item()
    perm = np.random.RandomState(0).permutation(6)
    lg = logits.reshape(bsz, classes, 6)[:, :, perm].reshape(bsz, classes, 2, 3)
    lb = labels.reshape(bsz, 6)[:, perm].reshape(bsz, 2, 3)
    b = softmax_cross_entropy(Tensor(lg), lb).item()
    assert a == pytest.approx(b, rel=1e-12)
