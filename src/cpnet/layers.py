"""Parameterized layers over the raw tensor ops, and the Module base.

A ``Module`` finds its parameters and BN layers by walking its own
attributes (lists included) in assignment order, so each layer states its
children once, in ``__init__``; every layer and model block in the package
subclasses it.  Each layer exposes ``__call__``.  Weight initialization
draws from the documented deterministic generator so a (seed, name) pair
fully determines every initial value.  Conv weights are uniform in
[-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero, BN scale 1 and shift 0.
"""

from __future__ import annotations

import numpy as np

from . import rng as R
from . import tensor as T


def _name_tag(name: str) -> int:
    """Stable 64-bit tag for a parameter name (FNV-1a over UTF-8 bytes)."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def uniform_init(seed: int, name: str, shape, fan_in: int, dtype: str) -> T.Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    u = R.bulk_uniform(R.derive(seed, _name_tag(name)), shape)
    u *= 2.0
    u -= 1.0
    u *= bound
    return T.Tensor(u.astype(dtype))


class Module:
    """Base of every layer and model block; its children are its attributes."""

    def _walk(self):
        """Self, then every Module and Parameter held in an attribute or an
        attribute's list, depth first in assignment order."""
        yield self
        for value in vars(self).values():
            for v in value if isinstance(value, list) else (value,):
                if isinstance(v, Module):
                    yield from v._walk()
                elif isinstance(v, T.Parameter):
                    yield v

    def parameters(self) -> list[T.Parameter]:
        out = [v for v in self._walk() if isinstance(v, T.Parameter)]
        names = [p.name for p in out]
        assert len(names) == len(set(names)), "duplicate parameter names"
        return out

    def bn_layers(self) -> list[BatchNorm2d]:
        return [m for m in self._walk() if isinstance(m, BatchNorm2d)]


class Conv2d(Module):
    def __init__(
        self,
        name: str,
        cin: int,
        cout: int,
        kh: int,
        kw: int | None = None,
        stride=1,
        padding=0,
        dilation=1,
        groups: int = 1,
        bias: bool = True,
        seed: int = 0,
        dtype: str = "float32",
    ):
        kw = kh if kw is None else kw
        self.stride, self.padding, self.dilation, self.groups = stride, padding, dilation, groups
        fan_in = (cin // groups) * kh * kw
        self.weight = T.Parameter(
            name + ".weight",
            uniform_init(seed, name + ".weight", (cout, cin // groups, kh, kw), fan_in, dtype),
        )
        self.bias = (
            T.Parameter(name + ".bias", T.zeros((cout,), dtype), decay=False)
            if bias
            else None
        )

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            dilation=self.dilation,
            groups=self.groups,
        )


class BatchNorm2d(Module):
    def __init__(self, name: str, channels: int, dtype: str = "float32"):
        self.gamma = T.Parameter(name + ".gamma", T.full((channels,), 1.0, dtype), decay=False)
        self.beta = T.Parameter(name + ".beta", T.zeros((channels,), dtype), decay=False)
        self.state = T.BatchNormState(channels, dtype)
        self.state_name = name + ".running"

    def __call__(self, x: T.Tensor, mode: str) -> T.Tensor:
        return T.batch_norm(x, self.gamma, self.beta, self.state, mode=mode)


class ConvBnRelu(Module):
    """conv -> BN -> ReLU, the backbone's stage block."""

    def __init__(self, name, cin, cout, k, stride=1, dilation=1, seed=0, dtype="float32"):
        pad = dilation * (k - 1) // 2
        self.conv = Conv2d(
            name + ".conv", cin, cout, k,
            stride=stride, padding=pad, dilation=dilation, bias=False,
            seed=seed, dtype=dtype,
        )
        self.bn = BatchNorm2d(name + ".bn", cout, dtype)

    def __call__(self, x, mode):
        return T.relu(self.bn(self.conv(x), mode))
