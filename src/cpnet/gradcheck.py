"""Finite-difference oracles for every differentiable operation.

Each named check builds small float64 inputs, runs one recorded forward to
a scalar, then compares the tape's gradients against central differences
(step 1e-4).  Relative error is measured elementwise as
|a - b| / max(|a|, |b|, 1e-8) and the max over all elements and trials is
returned; anything below 1e-4 counts as a pass.

Inputs for kinked ops (relu, clamp) are sampled away from the kink, since
a finite difference straddling it measures nothing meaningful.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import tensor as T
from .affinity import global_affinity_loss, ideal_affinity_map, unary_affinity_loss
from .config import TrainConfig
from .context_prior import AggregationModule, ContextPriorLayer
from .labelmap import IGNORE_INDEX
from .network import CPNet, cpnet_forward, total_loss
from .tensor import Graph, Parameter, Tensor

H_STEP = 1e-4
TOLERANCE = 1e-4


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((np.abs(a - b) / denom).max())


def _central_differences(flat: np.ndarray, loss: Callable[[], float], h: float) -> np.ndarray:
    """(loss(x + h e_i) - loss(x - h e_i)) / 2h for every entry i of ``flat``,
    perturbing it in place and restoring it after each entry."""
    fd = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss()
        flat[i] = orig - h
        lm = loss()
        flat[i] = orig
        fd[i] = (lp - lm) / (2 * h)
    return fd


def fd_check(build: Callable, trials: int = 20, seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    ``build(rng) -> (leaves, f)`` where f maps the leaves, as tensors, to a
    scalar Tensor.  A leaf is a float64 array, which is wrapped in a fresh
    Parameter (the tape routes gradients to Parameters only), or a Tensor
    (a module's Parameter, say), which is used as itself.  The leaves' data
    are perturbed in place (and restored) during the sweep, and f is
    evaluated on the same tensors each time.
    """
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng(seed * 1000 + t)
        leaves, f = build(rng)
        tensors = [leaf if isinstance(leaf, Tensor) else Parameter(f"leaf{i}", leaf)
                   for i, leaf in enumerate(leaves)]
        with Graph() as g:
            loss = f(*tensors)
        grads = g.backward(loss)

        def eval_loss():
            return f(*tensors).item()

        for tk in tensors:
            analytic = grads.get(tk)
            if analytic is None:
                analytic = np.zeros_like(tk.data)
            fd = _central_differences(tk.data.reshape(-1), eval_loss, H_STEP)
            worst = max(worst, rel_err(np.asarray(analytic).reshape(-1), fd))
    return worst


def _cotangent(rng, shape) -> Callable[[Tensor], Tensor]:
    """Fixed random weighting drawn once, so the loss is the same function
    at every finite-difference evaluation; makes every output element count."""
    c = Tensor(rng.uniform(0.5, 1.5, size=shape))
    return lambda out: T.sum_all(T.mul(out, c))


def _away_from(rng, shape, kinks, margin=0.05, lo=-1.5, hi=1.5):
    x = rng.uniform(lo, hi, size=shape)
    for k in kinks:
        near = np.abs(x - k) < margin
        x[near] += np.sign(x[near] - k + 1e-12) * 2 * margin
    return x


# --- per-op builders -------------------------------------------------------

def _bld_matmul(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    ws = _cotangent(rng, (3, 5))
    return [a, b], lambda ta, tb: ws(T.matmul(ta, tb))


def _bld_bmm(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 3))
    ws = _cotangent(rng, (2, 3, 3))
    return [a, b], lambda ta, tb: ws(T.bmm(ta, tb))


def _bld_elementwise(rng):
    a = rng.normal(size=(3, 5))
    b = _away_from(rng, (3, 5), kinks=[0.0], margin=0.3)  # safe divisor
    c = rng.normal(size=(3, 5))
    ws = _cotangent(rng, (3, 5))

    def f(ta, tb, tc):
        out = T.div(T.mul(T.add(ta, tb), T.sub(ta, tc)), tb)
        return ws(T.add_const(T.scale(T.neg(out), 0.7), 0.3))

    return [a, b, c], f


def _bld_log(rng):
    a = rng.uniform(0.1, 3.0, size=(4, 4))
    ws = _cotangent(rng, (4, 4))
    return [a], lambda ta: ws(T.log(ta))


def _bld_clamp(rng):
    a = _away_from(rng, (4, 4), kinks=[-0.5, 0.5], lo=-1.2, hi=1.2)
    ws = _cotangent(rng, (4, 4))
    return [a], lambda ta: ws(T.clamp(ta, -0.5, 0.5))


def _bld_sums(rng):
    a = rng.normal(size=(3, 4, 2))
    ws = _cotangent(rng, (3, 2))

    def f(ta):
        return T.add(T.sum_all(ta), ws(T.sum_axis(ta, 1)))

    return [a], f


def _bld_relu(rng):
    a = _away_from(rng, (4, 5), kinks=[0.0])
    ws = _cotangent(rng, (4, 5))
    return [a], lambda ta: ws(T.relu(ta))


def _bld_sigmoid(rng):
    a = rng.normal(size=(4, 5)) * 3
    ws = _cotangent(rng, (4, 5))
    return [a], lambda ta: ws(T.sigmoid(ta))


def _bld_movement(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 5, 4))
    ws = _cotangent(rng, (2, 8, 4))

    def f(ta, tb):
        r = T.transpose(T.reshape(ta, (2, 12, 1)), (1, 0, 2))
        r = T.reshape(r, (2, 3, 4))
        return ws(T.concat([r, tb], axis=1))

    return [a, b], f


_CONV_CASES = [
    dict(x=(2, 4, 6, 6), w=(4, 2, 3, 3), stride=1, padding=1, dilation=2, groups=2, bias=True),
    dict(x=(1, 3, 7, 5), w=(6, 3, 3, 3), stride=2, padding=1, dilation=1, groups=1, bias=True),
    dict(x=(2, 4, 5, 5), w=(4, 1, 3, 1), stride=1, padding=(1, 0), dilation=1, groups=4, bias=False),
    dict(x=(1, 2, 4, 9), w=(5, 2, 1, 5), stride=(1, 2), padding=(0, 2), dilation=1, groups=1, bias=True),
    # 8 of the 9 taps read only padding
    dict(x=(2, 3, 4, 4), w=(5, 3, 3, 3), stride=1, padding=4, dilation=4, groups=1, bias=False),
    dict(x=(3, 4, 5, 7), w=(4, 1, 1, 5), stride=1, padding=(0, 2), dilation=1, groups=4, bias=False),
    dict(x=(2, 5, 5, 6), w=(3, 5, 1, 1), stride=2, padding=0, dilation=1, groups=1, bias=True),
    dict(x=(3, 4, 7, 6), w=(2, 4, 3, 3), stride=2, padding=1, dilation=1, groups=1, bias=True),
    # dead taps: 4 of 11 (twice), on one side only, around one interior tap
    dict(x=(2, 4, 4, 4), w=(4, 1, 11, 1), stride=1, padding=(5, 0), dilation=1, groups=4, bias=False),
    dict(x=(2, 4, 4, 4), w=(4, 1, 1, 11), stride=1, padding=(0, 5), dilation=1, groups=4, bias=True),
    dict(x=(2, 3, 6, 2), w=(4, 3, 5, 5), stride=(2, 3), padding=(3, 4), dilation=(2, 1),
         groups=1, bias=True),
    dict(x=(2, 3, 4, 4), w=(2, 3, 3, 3), stride=1, padding=3, dilation=4, groups=1, bias=False),
    # depthwise one-column and one-row kernels, banded: strided, and dilated
    dict(x=(2, 3, 7, 5), w=(3, 1, 5, 1), stride=2, padding=(2, 0), dilation=1, groups=3, bias=True),
    dict(x=(2, 4, 5, 8), w=(4, 1, 1, 3), stride=1, padding=(1, 2), dilation=2, groups=4, bias=False),
    # output rows of 16 px or more scatter dx tap by tap: dilated, strided on
    # an odd side, and strided along the rows only
    dict(x=(1, 1, 6, 20), w=(2, 1, 3, 3), stride=1, padding=2, dilation=2, groups=1, bias=True),
    dict(x=(1, 1, 5, 33), w=(2, 1, 3, 3), stride=2, padding=1, dilation=1, groups=1, bias=False),
    dict(x=(1, 1, 7, 17), w=(2, 1, 3, 3), stride=(2, 1), padding=1, dilation=1, groups=1,
         bias=True),
]


def _bld_conv2d(rng, case):
    x = rng.normal(size=case["x"])
    w = rng.normal(size=case["w"]) * 0.5
    arrays = [x, w]
    if case["bias"]:
        arrays.append(rng.normal(size=(case["w"][0],)))
    ws = None

    def f(tx, tw, tb=None):
        nonlocal ws
        out = T.conv2d(
            tx, tw, tb,
            stride=case["stride"], padding=case["padding"],
            dilation=case["dilation"], groups=case["groups"],
        )
        if ws is None:
            ws = _cotangent(rng, out.shape)
        return ws(out)

    return arrays, f


def _bld_batch_norm(rng):
    x = rng.normal(size=(2, 3, 4, 4)) * 2
    gamma = rng.uniform(0.5, 1.5, size=(3,))
    beta = rng.normal(size=(3,))
    mode = "train" if rng.integers(0, 2) else "eval"
    state = T.BatchNormState(3, "float64")
    state.running_mean[...] = rng.normal(size=3)
    state.running_var[...] = rng.uniform(0.5, 2.0, size=3)
    frozen_mean, frozen_var = state.running_mean.copy(), state.running_var.copy()
    ws = _cotangent(rng, x.shape)

    def f(tx, tg, tb):
        # reset so repeated evals see identical state in eval mode
        state.running_mean[...] = frozen_mean
        state.running_var[...] = frozen_var
        return ws(T.batch_norm(tx, tg, tb, state, mode=mode))

    return [x, gamma, beta], f


def _bld_bilinear(rng):
    x = rng.normal(size=(1, 2, 3, 4))
    factor = int(rng.integers(1, 4))
    ws = _cotangent(rng, (1, 2, 3 * factor, 4 * factor))
    return [x], lambda tx: ws(T.bilinear_upsample(tx, factor))


def _bld_softmax_ce(rng):
    logits = rng.normal(size=(2, 4, 3, 3)) * 2
    labels = rng.integers(0, 4, size=(2, 3, 3)).astype(np.int32)
    labels[rng.random(size=labels.shape) < 0.2] = IGNORE_INDEX
    if (labels != IGNORE_INDEX).sum() == 0:
        labels[0, 0, 0] = 1
    return [logits], lambda tl: T.softmax_cross_entropy(tl, labels)


def _random_affinity_target(rng):
    """A 3x3 grid of 3 classes, about 15% ignored, at least one pixel valid."""
    labels = rng.integers(0, 3, size=(3, 3)).astype(np.int32)
    labels[rng.random(size=labels.shape) < 0.15] = IGNORE_INDEX
    if (labels != IGNORE_INDEX).sum() == 0:
        labels[0, 0] = 0
    return ideal_affinity_map(labels[None], 3)


def _bld_affinity_unary(rng):
    a = _random_affinity_target(rng)
    p = rng.uniform(0.05, 0.95, size=a.values.shape)
    return [p], lambda tp: unary_affinity_loss(tp, a)


def _bld_affinity_global(rng):
    a = _random_affinity_target(rng)
    p = rng.uniform(0.05, 0.95, size=a.values.shape)
    return [p], lambda tp: global_affinity_loss(tp, a)[0]


def _bld_aggregation(rng):
    module = AggregationModule("agg", 3, 4, k=3, seed=int(rng.integers(1 << 30)),
                               dtype="float64")
    x = rng.normal(size=(2, 3, 4, 4))
    ws = _cotangent(rng, (2, 4, 4, 4))
    return [x, *module.parameters()], lambda tx, *_params: ws(module(tx, "train"))


def _bld_context_prior(rng):
    """End-to-end: prior layer + affinity loss + cross-entropy on its output."""
    layer = ContextPriorLayer("cp", 3, 4, n=4, k=3,
                              seed=int(rng.integers(1 << 30)), dtype="float64")
    head = rng.normal(size=(3, 3 + 2 * 4, 1, 1)) * 0.4
    x = rng.normal(size=(2, 3, 2, 2))
    labels = rng.integers(0, 3, size=(2, 2, 2)).astype(np.int32)
    target = ideal_affinity_map(labels, 3)

    def f(tx, thead, *_params):
        feats, prior = layer(tx, "train")
        logits = T.conv2d(feats, thead)
        ce = T.softmax_cross_entropy(logits, labels)
        lu = unary_affinity_loss(prior, target)
        lg, _ = global_affinity_loss(prior, target)
        return T.add(ce, T.add(lu, lg))

    return [x, head, *layer.parameters()], f


CHECKS: dict[str, Callable[[], float]] = {
    "matmul": lambda: fd_check(_bld_matmul, seed=1),
    "bmm": lambda: fd_check(_bld_bmm, seed=2),
    "elementwise": lambda: fd_check(_bld_elementwise, seed=3),
    "log": lambda: fd_check(_bld_log, seed=4),
    "clamp": lambda: fd_check(_bld_clamp, seed=5),
    "sums": lambda: fd_check(_bld_sums, seed=6),
    "relu": lambda: fd_check(_bld_relu, seed=7),
    "sigmoid": lambda: fd_check(_bld_sigmoid, seed=8),
    "movement": lambda: fd_check(_bld_movement, seed=9),
    # every geometry, not a random draw of them: they take different paths
    "conv2d": lambda: max(
        fd_check(partial(_bld_conv2d, case=c), trials=3, seed=10) for c in _CONV_CASES
    ),
    "batch_norm": lambda: fd_check(_bld_batch_norm, seed=11),
    "bilinear_upsample": lambda: fd_check(_bld_bilinear, seed=12),
    "softmax_cross_entropy": lambda: fd_check(_bld_softmax_ce, seed=13),
    "affinity_unary": lambda: fd_check(_bld_affinity_unary, seed=14),
    "affinity_global": lambda: fd_check(_bld_affinity_global, seed=15),
    "aggregation": lambda: fd_check(_bld_aggregation, trials=5, seed=16),
    "context_prior": lambda: fd_check(_bld_context_prior, trials=5, seed=17),
}


def full_model_check(progress: Callable[[str], None] | None = None) -> float:
    """FD-check every parameter of a small full network against the tape.

    float64, 16x16 input, widths (4,4,8,8,8): the complete training loss
    (segmentation + auxiliary + affinity terms) drives the comparison.
    """
    rng = np.random.default_rng(2024)
    model = CPNet(num_classes=3, feat_hw=2, widths=(4, 4, 8, 8, 8), c1=4, k=3,
                  seed=77, dtype="float64")
    image = Tensor(rng.random(size=(2, 3, 16, 16)))
    labels = rng.integers(0, 3, size=(2, 16, 16)).astype(np.int32)
    labels[0, :2, :2] = IGNORE_INDEX
    cfg = TrainConfig()  # the stock loss weights

    def loss_value() -> float:
        logits, aux, prior, a = cpnet_forward(model, image, labels)
        return total_loss(logits, aux, prior, a, labels, cfg).total.item()

    with Graph() as g:
        logits, aux, prior, a = cpnet_forward(model, image, labels)
        terms = total_loss(logits, aux, prior, a, labels, cfg)
    grads = g.backward(terms.total)

    worst = 0.0
    for param in model.parameters():
        fd = _central_differences(param.data.reshape(-1), loss_value, H_STEP)
        err = rel_err(grads[param].reshape(-1), fd)
        worst = max(worst, err)
        if progress is not None:
            progress(f"{param.name}: rel err {err:.3g}")
    return worst
