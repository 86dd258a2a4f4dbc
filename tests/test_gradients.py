"""Backward-pass correctness.

Closed-form gradient identities that hold exactly, with no step-size
error to budget for.  The finite-difference harness in ``cpnet.gradcheck``
(every registered op builder and the whole network) runs once, in
acceptance criterion 3; the last test here checks only how ``fd_check``
takes a builder's leaves, on a one-node function.
"""

import weakref

import numpy as np
import pytest

from cpnet.affinity import ideal_affinity_map, unary_affinity_loss
from cpnet.gradcheck import TOLERANCE, fd_check
from cpnet.rng import bulk_uniform
from cpnet.tensor import (
    BatchNormState,
    Graph,
    Parameter,
    ShapeError,
    Tensor,
    add,
    batch_norm,
    clamp,
    conv2d,
    matmul,
    mul,
    record,
    relu,
    scale,
    sum_all,
)


def rnd(seed, shape, lo=-2.0, hi=2.0):
    return bulk_uniform(seed, shape) * (hi - lo) + lo


# ---------------------------------------------------------------------------
# Exact identities (no finite-difference tolerance involved)
# ---------------------------------------------------------------------------

def test_product_rule_is_exact():
    a = Parameter("a", rnd(1, (3, 4)))
    b = Parameter("b", rnd(2, (3, 4)))
    with Graph() as g:
        loss = sum_all(mul(a, b))
    grads = g.backward(loss)
    assert np.array_equal(grads[a], b.data)
    assert np.array_equal(grads[b], a.data)


def test_matmul_gradient_identity():
    # d/dA sum(A @ B) = ones @ B^T, exactly
    a = Parameter("a", rnd(3, (4, 5)))
    b = Parameter("b", rnd(4, (5, 2)))
    with Graph() as g:
        loss = sum_all(matmul(a, b))
    grads = g.backward(loss)
    ones = np.ones((4, 2))
    assert np.allclose(grads[a], ones @ b.data.T, atol=1e-15)
    assert np.allclose(grads[b], a.data.T @ ones, atol=1e-15)


def test_relu_gradient_is_a_mask():
    x = Parameter("x", np.array([-1.0, 2.0, -3.0, 4.0]))
    with Graph() as g:
        loss = sum_all(relu(x))
    grads = g.backward(loss)
    assert np.array_equal(grads[x], [0.0, 1.0, 0.0, 1.0])


def test_clamp_gradient_vanishes_outside_the_window():
    x = Parameter("x", np.array([-2.0, -0.3, 0.6, 3.0]))
    with Graph() as g:
        loss = sum_all(clamp(x, -1.0, 1.0))
    grads = g.backward(loss)
    assert np.array_equal(grads[x], [0.0, 1.0, 1.0, 0.0])


def test_fan_out_gradients_accumulate():
    x = Parameter("x", rnd(5, (3,)))
    with Graph() as g:
        loss = sum_all(add(x, x))
    grads = g.backward(loss)
    assert np.array_equal(grads[x], np.full(3, 2.0))


# ---------------------------------------------------------------------------
# Tape mechanics
# ---------------------------------------------------------------------------

def test_second_backward_on_the_same_tape_returns_equal_gradients():
    # nothing accumulates across calls: each returns the gradients afresh
    p = Parameter("w", rnd(6, (2, 2)))
    with Graph() as g:
        loss = sum_all(mul(p, p))
    first = g.backward(loss)[p].copy()
    assert np.array_equal(first, 2 * p.data)
    assert np.array_equal(g.backward(loss)[p], first)


def test_backward_keeps_only_leaf_and_parameter_gradients():
    # intermediate gradients are freed during the sweep, and of the leaves
    # only the Parameters receive one
    p = Parameter("w", rnd(12, (2, 3)))
    x = Tensor(rnd(13, (2, 3)))
    with Graph() as g:
        h = relu(mul(p, x))
        loss = sum_all(h)
    grads = g.backward(loss)
    for t in (h, loss, x):
        assert t not in grads
        with pytest.raises(KeyError):
            grads[t]
    mask = (p.data * x.data > 0).astype(float)
    assert np.array_equal(grads[p], mask * x.data)
    # the same leaf as a Parameter gets the gradient the plain one skipped
    xp = Parameter("x", x.data)
    with Graph() as g:
        loss = sum_all(relu(mul(p, xp)))
    assert np.array_equal(g.backward(loss)[xp], mask * p.data)


def test_backward_requires_a_scalar():
    x = Tensor(rnd(7, (2, 2)))
    with Graph() as g:
        y = mul(x, x)
    with pytest.raises(ShapeError):
        g.backward(y)


def test_untouched_tensors_receive_no_gradient():
    x = Parameter("x", rnd(8, (2,)))
    unused = Tensor(rnd(9, (2,)))
    with Graph() as g:
        loss = sum_all(mul(x, x))
    grads = g.backward(loss)
    assert unused not in grads
    with pytest.raises(KeyError):
        grads[unused]
    assert grads.get(unused) is None


def test_recording_stops_outside_the_context():
    x = Parameter("x", rnd(10, (2,)))
    with Graph() as g:
        inside = sum_all(mul(x, x))
    outside = sum_all(mul(x, x))  # not recorded anywhere
    assert len(g.nodes) == 2
    grads = g.backward(inside)
    assert x in grads
    assert outside.shape == ()


def test_nested_graphs_record_independently():
    x = Parameter("x", rnd(11, (3,)))
    with Graph() as outer:
        sum_all(x)
        with Graph() as inner:
            loss = sum_all(mul(x, x))
        grads = inner.backward(loss)
    assert np.allclose(grads[x], 2 * x.data, atol=1e-15)
    assert len(outer.nodes) == 1


def _conv_bn_relu_step(keep: bool):
    """Record conv2d -> batch_norm -> relu, drop the conv and BN outputs
    unless ``keep``, then backward; returns which of their arrays are still
    alive before the backward, and the parameter gradients."""
    params = [Parameter("w", rnd(20, (4, 3, 3, 3))),
              Parameter("gamma", rnd(21, (4,), 0.5, 1.5)),
              Parameter("beta", rnd(22, (4,)))]
    x = Tensor(rnd(23, (2, 3, 6, 6)))
    c = Tensor(rnd(24, (2, 4, 6, 6)))
    with Graph() as g:
        conv = conv2d(x, params[0], padding=1)
        bn = batch_norm(conv, params[1], params[2], BatchNormState(4, "float64"))
        loss = sum_all(mul(relu(bn), c))
    refs = [weakref.ref(conv.data), weakref.ref(bn.data)]
    if not keep:
        del conv, bn
    alive = [r() is not None for r in refs]
    grads = g.backward(loss)
    return alive, [grads[p] for p in params]


def test_tape_holds_no_array_that_no_backward_reads():
    # batch norm's backward reads its normalized input, not the conv output,
    # and relu's reads its own output, not the BN output
    alive, grads = _conv_bn_relu_step(keep=False)
    alive_kept, grads_kept = _conv_bn_relu_step(keep=True)
    assert alive_kept == [True, True]
    assert alive == [False, False]
    for got, want in zip(grads, grads_kept):
        assert np.array_equal(got, want)


def test_unary_term_keeps_the_boolean_target_not_a_float_pair_array():
    # its backward rebuilds r = (not a) - clip(q) from the boolean target, so
    # the only float (B, N, N) array its closure holds is the prior map itself
    labels = rnd(27, (2, 4, 4), 0.0, 3.0).astype(np.int32)
    target = ideal_affinity_map(labels, 3)
    q = Parameter("q", rnd(28, (2, 16, 16), 0.02, 0.98).astype(np.float32))
    with Graph() as g:
        unary_affinity_loss(q, target)
    (_inputs, _out, bwd), = g.nodes
    held = [cell.cell_contents for cell in bwd.__closure__]
    pairs = [x for x in held if isinstance(x, np.ndarray) and x.shape == q.shape]
    assert [x is q.data for x in pairs if x.dtype.kind == "f"] == [True]
    assert [x.dtype for x in pairs if x.dtype.kind != "f"] == [np.dtype(bool)]
    # the batch's target itself, which the global term reads too, not a copy
    assert [x is target.values for x in pairs if x.dtype.kind != "f"] == [True]


def _reachable_arrays(fn):
    """Every array reachable from a closure: its cells, the cells of the
    functions it holds, and each array's base."""
    arrays, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            todo.append(obj.base)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return arrays


def test_dense_conv_keeps_its_input_not_its_im2col_columns():
    # a 3x3 stride-1 window holds each pixel 9 times; the backward rebuilds
    # the columns from the input instead of keeping them
    x = Tensor(rnd(29, (2, 4, 8, 8)).astype(np.float32))
    w = Parameter("w", rnd(30, (6, 4, 3, 3)).astype(np.float32))
    with Graph() as g:
        conv2d(x, w, padding=1)
    (_inputs, _out, bwd), = g.nodes
    held = _reachable_arrays(bwd)
    assert max(a.size for a in held) <= max(x.size, w.size)
    assert any(a is x.data for a in held)


def test_gradients_route_through_many_dropped_intermediates():
    # each scale output is dropped as soon as add has read it, so Python may
    # give a later tensor its id(); the tape's keys are never reused
    ids, keys = set(), set()
    for _ in range(100):
        t = Tensor(np.zeros(1))
        ids.add(id(t))
        keys.add(t.key)
        del t
    assert len(keys) == 100 and len(ids) < 100

    n = 200
    x = Parameter("x", rnd(25, (5,)))
    p = Parameter("p", rnd(26, (5,)))
    with Graph() as g:
        acc = x
        for _ in range(n):
            acc = add(scale(acc, 0.5), p)  # acc_n = 0.5^n x + (2 - 2 * 0.5^n) p
        loss = sum_all(mul(acc, acc))
    grads = g.backward(loss)
    dacc = 2 * acc.data
    assert np.allclose(grads[x], 0.5 ** n * dacc, rtol=1e-12, atol=0)
    assert np.allclose(grads[p], (2 - 2 * 0.5 ** n) * dacc, rtol=1e-12, atol=0)


def test_fd_check_perturbs_a_parameter_leaf_as_itself():
    # sum(p * p) as one fused node whose backward returns g * p (half the true
    # 2p): the error is 0.5 only if the differences moved the Parameter's own
    # data, and the true backward passes the same check
    def builder(factor):
        def build(rng):
            def f(tp):
                out = Tensor(np.asarray((tp.data * tp.data).sum()))
                return record((tp,), out, lambda g: (factor * g * tp.data,))

            return [Parameter("w", rng.normal(size=(2, 3)))], f

        return build

    assert fd_check(builder(2.0), trials=2) < TOLERANCE
    assert fd_check(builder(1.0), trials=2) == pytest.approx(0.5, abs=1e-6)
