"""SGD with momentum and the polynomial learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .tensor import Parameter, ShapeError


def poly_lr(step: int, total: int, gamma0: float, power: float = 0.9) -> float:
    """gamma0 * (1 - step/total) ** power; reaches exactly 0 at step == total."""
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return gamma0 * (1.0 - step / total) ** power


class SgdMomentum:
    """theta <- theta - lr * v, with v <- m*v + (grad + wd*theta).

    Weight decay is added to the gradient before the momentum update
    (classic formulation); parameters constructed with decay=False
    (BN scales and shifts) skip the decay term.  ``step(grads, lr)`` updates
    the parameters given here; one that ``grads`` (``Graph.backward``'s
    result or a dict by parameter) holds nothing for takes a zero gradient.
    """

    def __init__(self, params: list[Parameter], momentum: float = 0.9,
                 weight_decay: float = 1e-4):
        self.params = list(params)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {p.name: np.zeros_like(p.data) for p in self.params}
        self.step_count = 0

    def step(self, grads, lr: float) -> None:
        for p in self.params:
            v = self.velocity[p.name]
            if v.shape != p.shape:
                raise ShapeError(
                    f"velocity shape {v.shape} does not match parameter "
                    f"{p.name} shape {p.shape}"
                )
            g = grads.get(p, 0.0)
            if self.weight_decay and p.decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= lr * v
        self.step_count += 1
