"""Separable spatial aggregation and the prior-map attention layer.

The aggregation module condenses local spatial evidence with two
asymmetric fully separable convolutions (k x 1 then 1 x k, each split
into depthwise + pointwise).  A 1x1 head on the aggregated features
predicts an N x N prior map P (N = H*W) whose row j scores, for every
pixel i, whether i belongs to pixel j's class.  The head's channel c is
key pixel c, so its sigmoid, reshaped to (B, N, N), is already Q = P^T
(rows are keys, columns are queries); the layer works in that key-major
layout and never transposes.  With X_a the aggregated features as a
(B, C1, N) matrix, Q and its complement gather class-consistent and
class-inconsistent context channels-first:

    Y^T    = X_a Q  (1/N-free)          same-class summary per pixel
    Ybar^T = X_a (1 - Q)                different-class summary

and the layer output is concat(X, Y, Ybar) on the channel axis.  Ybar^T
is computed through the identity

    X_a (1 - Q) = rowsum(X_a) 1^T - X_a Q = rowsum(X_a) - Y^T

(each column of Ybar^T is the channel totals minus that column of Y^T),
so neither the N x N complement 1 - Q nor a second N x N product is
formed.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import BatchNorm2d, Conv2d, Module
from .tensor import ShapeError


class FullySeparableConv(Module):
    """Depthwise k x 1 (or 1 x k) followed by a 1x1 pointwise projection.

    orientation "vertical" slides the k-tap window along the height axis;
    "horizontal" along the width axis.  Same-padding keeps the spatial
    size; no biases (a BN always follows in this codebase).
    """

    def __init__(self, name: str, cin: int, cout: int, k: int,
                 orientation: str, seed: int = 0, dtype: str = "float32"):
        if k % 2 == 0:
            raise ShapeError(f"separable kernel size must be odd, got {k}")
        if orientation not in ("vertical", "horizontal"):
            raise ValueError(f"unknown orientation {orientation!r}")
        kh, kw = (k, 1) if orientation == "vertical" else (1, k)
        pad = ((k - 1) // 2, 0) if orientation == "vertical" else (0, (k - 1) // 2)
        self.depthwise = Conv2d(
            name + ".dw", cin, cin, kh, kw,
            padding=pad, groups=cin, bias=False, seed=seed, dtype=dtype,
        )
        self.pointwise = Conv2d(
            name + ".pw", cin, cout, 1, 1, bias=False, seed=seed, dtype=dtype,
        )

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return self.pointwise(self.depthwise(x))


class AggregationModule(Module):
    """FSConv(k x 1) -> BN -> ReLU -> FSConv(1 x k) -> BN -> ReLU."""

    def __init__(self, name: str, cin: int, cout: int, k: int,
                 seed: int = 0, dtype: str = "float32"):
        self.fs1 = FullySeparableConv(name + ".fs1", cin, cout, k, "vertical", seed, dtype)
        self.bn1 = BatchNorm2d(name + ".bn1", cout, dtype)
        self.fs2 = FullySeparableConv(name + ".fs2", cout, cout, k, "horizontal", seed, dtype)
        self.bn2 = BatchNorm2d(name + ".bn2", cout, dtype)

    def __call__(self, x: T.Tensor, mode: str) -> T.Tensor:
        h = T.relu(self.bn1(self.fs1(x), mode))
        return T.relu(self.bn2(self.fs2(h), mode))


def _complement_context(xa: T.Tensor, y: T.Tensor) -> T.Tensor:
    """X_a (1 - Q) from Y^T = X_a Q: every column is rowsum(X_a) - Y^T."""
    out = T.Tensor(xa.data.sum(axis=2, keepdims=True) - y.data)

    def bwd(g):  # g, Y^T and X_a share one shape, (B, C1, N)
        return np.broadcast_to(g.sum(axis=2, keepdims=True), g.shape), -g

    return T.record((xa, y), out, bwd)


class ContextPriorLayer(Module):
    """Aggregation, prior-map head, and intra/inter context gathering.

    ``n`` is fixed at construction: the head's 1x1 convolution has n output
    channels, so the layer only accepts inputs with H*W == n.
    """

    def __init__(self, name: str, c0: int, c1: int, n: int, k: int = 11,
                 seed: int = 0, dtype: str = "float32"):
        self.aggregation = AggregationModule(name + ".agg", c0, c1, k, seed, dtype)
        # head bias is omitted: BN's shift plays that role
        self.prior_conv = Conv2d(name + ".prior", c1, n, 1, 1, bias=False,
                                 seed=seed, dtype=dtype)
        self.prior_bn = BatchNorm2d(name + ".prior_bn", n, dtype)
        self.c0, self.c1, self.n = c0, c1, n

    def prior_head(self, x_agg: T.Tensor, mode: str) -> T.Tensor:
        b, _, h, w = x_agg.shape
        if h * w != self.n:
            raise ShapeError(
                f"prior head is configured for N={self.n} but input is "
                f"{h}x{w} (N={h * w})"
            )
        logits = self.prior_bn(self.prior_conv(x_agg), mode)
        q = T.sigmoid(logits)  # (B, N, H, W); channel = key pixel index
        # Q = P^T: row = key pixel, column = query pixel's spatial position
        return T.reshape(q, (b, self.n, self.n))

    def __call__(self, x: T.Tensor, mode: str) -> tuple[T.Tensor, T.Tensor]:
        b, c0, h, w = x.shape
        if c0 != self.c0:
            raise ShapeError(f"expected {self.c0} input channels, got {c0}")
        xa = self.aggregation(x, mode)
        q = self.prior_head(xa, mode)
        xa = T.reshape(xa, (b, self.c1, self.n))
        y = T.bmm(xa, q)  # Y^T, (B, C1, N): already channels-first
        ybar = _complement_context(xa, y)

        def to_map(t):
            return T.reshape(t, (b, self.c1, h, w))

        out = T.concat([x, to_map(y), to_map(ybar)], axis=1)
        return out, q


def macs_standard_conv(h: int, w: int, k: int, cin: int, cout: int) -> int:
    """Multiply-accumulates of one k x k convolution at unit stride."""
    return h * w * k * k * cin * cout


def macs_spatial_separable(h: int, w: int, k: int, c: int) -> int:
    """k x 1 then 1 x k, both C -> C: the spatial-only factorization."""
    return 2 * h * w * k * c * c


def macs_fully_separable(b: int, h: int, w: int, k: int, c: int, cout: int) -> int:
    """Depthwise k-tap plus pointwise projection, per the module used here."""
    return b * h * w * (k * c + c * cout)
