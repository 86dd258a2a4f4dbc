"""Optimizer and schedule, pinned to scalar recursions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpnet.optim import SgdMomentum, poly_lr
from cpnet.rng import Rng
from cpnet.tensor import Parameter, ShapeError, Tensor


def test_poly_schedule_endpoints_and_midpoint():
    assert poly_lr(0, 100, 0.04) == 0.04
    assert poly_lr(100, 100, 0.04) == 0.0
    assert poly_lr(50, 100, 0.04, power=0.9) == pytest.approx(
        0.04 * 0.5**0.9, rel=1e-12
    )


def test_poly_schedule_rejects_out_of_range_steps():
    with pytest.raises(ValueError):
        poly_lr(-1, 10, 0.1)
    with pytest.raises(ValueError):
        poly_lr(11, 10, 0.1)


@given(st.integers(1, 10_000))
def test_poly_schedule_is_nonincreasing(total):
    lrs = [poly_lr(s, total, 0.1) for s in range(0, total + 1, max(total // 50, 1))]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_plain_sgd_step():
    p = Parameter("w", Tensor(np.array([1.0, -2.0])))
    opt = SgdMomentum([p], momentum=0.0, weight_decay=0.0)
    opt.step({p: np.array([0.5, 0.25])}, lr=0.1)
    assert np.allclose(p.data, [1.0 - 0.05, -2.0 - 0.025], atol=1e-15)
    assert opt.step_count == 1


def test_momentum_accumulates_past_gradients():
    # constant gradient g: after two steps the parameter has moved by
    # lr*g*(1 + (1 + m)) = 2.9*lr*g at m=0.9
    p = Parameter("w", Tensor(np.array([0.0])))
    opt = SgdMomentum([p], momentum=0.9, weight_decay=0.0)
    for _ in range(2):
        opt.step({p: np.ones(1)}, lr=0.1)
    assert p.data[0] == pytest.approx(-0.29, rel=1e-12)


def test_weight_decay_pulls_toward_zero_without_gradient():
    p = Parameter("w", Tensor(np.array([2.0])))
    opt = SgdMomentum([p], momentum=0.0, weight_decay=0.01)
    theta = 2.0
    for _ in range(5):
        opt.step({}, lr=0.5)
        theta -= 0.5 * (0.01 * theta)
        assert p.data[0] == pytest.approx(theta, rel=1e-14)


def test_decay_exempt_parameters_stay_put():
    p = Parameter("bn.gamma", Tensor(np.array([1.0])), decay=False)
    opt = SgdMomentum([p], momentum=0.9, weight_decay=0.1)
    for _ in range(3):
        opt.step({}, lr=0.5)
    assert p.data[0] == 1.0


def test_fifty_random_settings_match_the_scalar_recursion():
    # independent oracle: the one-line recursion on python floats
    rng = Rng(2024)
    worst = 0.0
    for _ in range(50):
        m = rng.uniform()
        wd = rng.uniform() * 0.1
        gamma0 = 0.01 + rng.uniform()
        power = 0.5 + rng.uniform()
        steps = 5 + rng.randint(10)
        theta = rng.uniform() * 4 - 2
        grads = [rng.uniform() * 2 - 1 for _ in range(steps)]

        p = Parameter("w", Tensor(np.array([theta], dtype=np.float64)))
        opt = SgdMomentum([p], momentum=m, weight_decay=wd)
        v = 0.0
        ref = theta
        for s, g in enumerate(grads):
            lr = poly_lr(s, steps, gamma0, power)
            opt.step({p: np.array([g])}, lr=lr)
            v = m * v + (g + wd * ref)
            ref = ref - lr * v
        err = abs(p.data[0] - ref) / max(abs(ref), 1e-12)
        worst = max(worst, err)
    assert worst < 1e-12, f"worst relative deviation {worst:.3e}"


def test_velocity_shape_guard():
    p = Parameter("w", Tensor(np.zeros(2)))
    opt = SgdMomentum([p])
    p.data = np.zeros(3)  # simulate a corrupted reload
    with pytest.raises(ShapeError):
        opt.step({}, lr=0.1)


def test_unknown_parameter_has_no_velocity_slot():
    # the optimizer steps the parameters it was built with, and no other
    opt = SgdMomentum([Parameter("a", Tensor(np.zeros(1)))])
    stranger = Parameter("b", Tensor(np.zeros(1)))
    opt.step({stranger: np.ones(1)}, lr=0.1)
    assert "b" not in opt.velocity
    assert stranger.data[0] == 0.0
