"""Minimal dense tensors with a recorded tape and reverse-mode gradients.

Data layout is fixed: row-major ``[batch, channel, height, width]`` for
feature maps, no implicit broadcasting, cross-correlation semantics for
convolution (no kernel flip).  Operations compute with numpy arrays and,
when a :class:`Graph` is active, append a node carrying a backward rule to
its tape.  The tape is recorded in execution order, which is already a
topological order, so ``Graph.backward`` is a single reverse sweep.

Gradient accumulation contract: ``Graph.backward`` adds into each reachable
:class:`Parameter`'s ``.grad`` exactly once per call; calling it twice
without zeroing doubles the gradients.  The sweep frees each intermediate
gradient once its node has consumed it, so the :class:`Gradients` it
returns hold leaf tensors and parameters only; asking for an op's output
raises KeyError.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .labelmap import IGNORE_INDEX, check_classes

_DTYPES = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
    "int32": np.dtype(np.int32),
    "uint8": np.dtype(np.uint8),
}
_NP_TO_NAME = {v: k for k, v in _DTYPES.items()}
_FLOAT_NAMES = ("float32", "float64")

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


class ShapeError(ValueError):
    """Operand shapes or dtypes are inconsistent with the operation."""


class NumericError(ArithmeticError):
    """A numeric contract was violated (non-finite value, degenerate input)."""


def _canon(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in _NP_TO_NAME:
        if np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        elif np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
            arr = arr.astype(np.int32)
        else:
            raise ShapeError(f"unsupported dtype {arr.dtype}")
    # ascontiguousarray would promote 0-d scalars to 1-d; keep rank as-is
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


class Tensor:
    """Dense row-major array restricted to {float32, float64, int32, uint8}."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _canon(data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return _NP_TO_NAME[self.data.dtype]

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def is_float(self) -> bool:
        return self.dtype in _FLOAT_NAMES

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def zeros(shape, dtype="float32") -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DTYPES[dtype]))


def full(shape, value, dtype="float32") -> Tensor:
    return Tensor(np.full(shape, value, dtype=_DTYPES[dtype]))


class Parameter:
    """A named trainable tensor paired with an accumulating gradient."""

    __slots__ = ("name", "value", "grad", "decay")

    def __init__(self, name: str, value, decay: bool = True):
        self.name = name
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        if not self.value.is_float():
            raise ShapeError(f"parameter {name} must be float, got {self.value.dtype}")
        self.grad = Tensor(np.zeros_like(self.value.data))
        self.decay = decay  # False exempts from weight decay (BN scale/shift)

    def zero_grad(self) -> None:
        self.grad.data[...] = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


_TLS = threading.local()


def _graph_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def active_graph() -> "Graph | None":
    stack = _graph_stack()
    return stack[-1] if stack else None


class Gradients:
    """Read-only view of the gradients computed by one backward pass."""

    def __init__(self, by_id: dict):
        self._by_id = by_id

    def __contains__(self, t: Tensor) -> bool:
        key = t.value if isinstance(t, Parameter) else t
        return id(key) in self._by_id

    def __getitem__(self, t: Tensor) -> np.ndarray:
        key = t.value if isinstance(t, Parameter) else t
        try:
            return self._by_id[id(key)]
        except KeyError:
            raise KeyError("tensor did not receive a gradient") from None

    def get(self, t, default=None):
        return self[t] if t in self else default


class Graph:
    """Tape of recorded operations; context manager enables recording."""

    def __init__(self):
        self.nodes: list[tuple] = []  # (input tensors, output tensor, backward fn)
        self._params: dict[int, Parameter] = {}

    def __enter__(self) -> "Graph":
        _graph_stack().append(self)
        return self

    def __exit__(self, *exc):
        popped = _graph_stack().pop()
        assert popped is self

    def backward(self, loss: Tensor) -> Gradients:
        """Reverse sweep from a scalar loss; accumulates into Parameter.grad.

        Each output gradient is dropped as soon as its node has consumed it,
        so the returned Gradients hold the leaves (parameters included) only.
        """
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
        for inputs, out, bwd in reversed(self.nodes):
            # a node's output gradient is complete once the sweep reaches it,
            # and nothing reads it after its node has consumed it
            gout = grads.pop(id(out), None)
            if gout is None:
                continue
            for t, gi in zip(inputs, bwd(gout)):
                if gi is None:
                    continue
                if gi.shape != t.data.shape:
                    raise ShapeError(
                        f"backward produced grad shape {gi.shape} for input "
                        f"shape {t.data.shape}"
                    )
                acc = grads.get(id(t))
                grads[id(t)] = gi if acc is None else acc + gi
        for tid, p in self._params.items():
            g = grads.get(tid)
            if g is not None:
                p.grad.data += g
        return Gradients(grads)


def _unwrap(x) -> Tensor:
    if isinstance(x, Parameter):
        g = active_graph()
        if g is not None:
            g._params[id(x.value)] = x
        return x.value
    if isinstance(x, Tensor):
        return x
    raise TypeError(f"expected Tensor or Parameter, got {type(x).__name__}")


def record(inputs, out: Tensor, bwd) -> Tensor:
    """Append one node to the active tape (no-op when nothing is recording).

    ``bwd(grad_out) -> tuple`` must return one gradient array (or None) per
    input, in order.  Exposed so other modules can define fused operations.
    """
    g = active_graph()
    if g is not None:
        g.nodes.append((tuple(inputs), out, bwd))
    return out


def _float_binary(a: Tensor, b: Tensor, opname: str):
    if not (a.is_float() and b.is_float()):
        raise ShapeError(f"{opname} requires float tensors")
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _unwrap(a), _unwrap(b)
    _float_binary(a, b, "add")
    out = Tensor(a.data + b.data)
    return record((a, b), out, lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _unwrap(a), _unwrap(b)
    _float_binary(a, b, "sub")
    out = Tensor(a.data - b.data)
    return record((a, b), out, lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _unwrap(a), _unwrap(b)
    _float_binary(a, b, "mul")
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    return record((a, b), out, lambda g: (g * bd, g * ad))


def div(a, b) -> Tensor:
    a, b = _unwrap(a), _unwrap(b)
    _float_binary(a, b, "div")
    ad, bd = a.data, b.data
    out = Tensor(ad / bd)
    od = out.data
    return record((a, b), out, lambda g: (g / bd, -g * od / bd))


def neg(a) -> Tensor:
    a = _unwrap(a)
    out = Tensor(-a.data)
    return record((a,), out, lambda g: (-g,))


def scale(a, c: float) -> Tensor:
    a = _unwrap(a)
    c = float(c)
    out = Tensor(a.data * c)
    return record((a,), out, lambda g: (g * c,))


def add_const(a, c: float) -> Tensor:
    a = _unwrap(a)
    out = Tensor(a.data + float(c))
    return record((a,), out, lambda g: (g,))


def log(a) -> Tensor:
    a = _unwrap(a)
    ad = a.data
    if (ad <= 0).any():
        raise NumericError("log requires strictly positive input")
    out = Tensor(np.log(ad))
    return record((a,), out, lambda g: (g / ad,))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _unwrap(a)
    ad = a.data
    out = Tensor(np.clip(ad, lo, hi))
    mask = (ad > lo) & (ad < hi)
    return record((a,), out, lambda g: (g * mask,))


def sum_all(a) -> Tensor:
    a = _unwrap(a)
    shape = a.shape
    out = Tensor(np.asarray(a.data.sum(), dtype=a.data.dtype))
    return record((a,), out, lambda g: (np.broadcast_to(g, shape),))


def mean_all(a) -> Tensor:
    a = _unwrap(a)
    return scale(sum_all(a), 1.0 / a.size)


def sum_axis(a, axis: int) -> Tensor:
    a = _unwrap(a)
    out = Tensor(a.data.sum(axis=axis))
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return record((a,), out, bwd)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = _unwrap(a)
    ad = a.data
    out = Tensor(np.maximum(ad, 0))
    return record((a,), out, lambda g: (g * (ad > 0),))


def sigmoid(a) -> Tensor:
    a = _unwrap(a)
    ad = a.data
    # exp(-x) overflows to inf for very negative x, and 1 / (1 + inf) = 0
    with np.errstate(over="ignore"):
        out = Tensor(1.0 / (1.0 + np.exp(-ad)))
    yd = out.data

    def bwd(g):
        dx = 1.0 - yd
        dx *= yd
        dx *= g
        return (dx,)

    return record((a,), out, bwd)


# ---------------------------------------------------------------------------
# Data movement
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _unwrap(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}: element count differs")
    old = a.shape
    out = Tensor(a.data.reshape(shape))
    return record((a,), out, lambda g: (g.reshape(old),))


def transpose(a, axes) -> Tensor:
    a = _unwrap(a)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank {a.data.ndim}")
    inv = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return record((a,), out, lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def concat(xs, axis: int) -> Tensor:
    xs = [_unwrap(x) for x in xs]
    if not xs:
        raise ShapeError("concat needs at least one input")
    ndim = xs[0].data.ndim
    for x in xs[1:]:
        if x.data.ndim != ndim:
            raise ShapeError("concat inputs must share rank")
        for ax in range(ndim):
            if ax != axis and x.shape[ax] != xs[0].shape[ax]:
                raise ShapeError(
                    f"concat mismatch on axis {ax}: {x.shape} vs {xs[0].shape}"
                )
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis))
    sizes = [x.shape[axis] for x in xs]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return record(tuple(xs), out, bwd)


# ---------------------------------------------------------------------------
# Matrix products
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _unwrap(a), _unwrap(b)
    if not (a.is_float() and b.is_float()):
        raise ShapeError("matmul requires float tensors")
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)
    return record((a, b), out, lambda g: (g @ bd.T, ad.T @ g))


def bmm(a, b) -> Tensor:
    """Batched matmul: [B,m,k] x [B,k,n] -> [B,m,n]."""
    a, b = _unwrap(a), _unwrap(b)
    if (
        a.data.ndim != 3
        or b.data.ndim != 3
        or a.shape[0] != b.shape[0]
        or a.shape[2] != b.shape[1]
    ):
        raise ShapeError(f"bmm: incompatible shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(np.matmul(ad, bd))
    return record(
        (a, b),
        out,
        lambda g: (np.matmul(g, bd.transpose(0, 2, 1)), np.matmul(ad.transpose(0, 2, 1), g)),
    )


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv2d_output_size(size: int, kernel: int, stride: int, pad: int, dilation: int) -> int:
    return (size + 2 * pad - dilation * (kernel - 1) - 1) // stride + 1


@functools.lru_cache(maxsize=256)
def _conv_scatter_indices(c, hp, wp, oh, ow, kh, kw, sh, sw, dh, dw) -> np.ndarray:
    """Flat offsets into one padded (c, hp, wp) image, in (c, kh, kw, oh, ow) order."""
    rows = np.arange(kh)[:, None] * dh + np.arange(oh)[None, :] * sh  # (kh,oh)
    cols = np.arange(kw)[:, None] * dw + np.arange(ow)[None, :] * sw  # (kw,ow)
    idx = (
        (np.arange(c) * hp * wp)[:, None, None, None, None]
        + (rows * wp)[None, :, None, :, None]
        + cols[None, None, :, None, :]
    )  # (c, kh, kw, oh, ow)
    return np.ascontiguousarray(idx.reshape(-1))


@functools.lru_cache(maxsize=256)
def _tap_span(size: int, k: int, stride: int, pad: int, dilation: int, out: int):
    """(lo, hi, start, stop): the hull [lo, hi) of the taps that reach a real pixel
    at some output position (those outside read only padding) and the indices it reads."""
    live = [i for i in range(k)
            if any(0 <= t * stride + i * dilation - pad < size for t in range(out))]
    lo, hi = (live[0], live[-1] + 1) if live else (0, k)
    return lo, hi, lo * dilation - pad, size + pad - (k - hi) * dilation


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def conv2d(x, w, bias=None, stride=1, padding=0, dilation=1, groups: int = 1) -> Tensor:
    """2-D cross-correlation on [B,Cin,H,W] with [Cout,Cin/groups,kh,kw] filters.

    Kernel taps that read only padding are dropped first (their weight
    gradient is exactly zero).  The kept taps then take one of three window
    kinds, chosen from the geometry alone:

    - in place: a 1x1 kernel at unit stride whose window is the input
      itself (the model's pointwise convs, and stage 5 on a 4x4 map).  The
      GEMMs read x directly and dx is a GEMM output; nothing is copied.
    - banded: a depthwise kernel whose kept taps lie on one column or one
      row (the aggregation's k x 1 and 1 x k convs).  Each channel's taps
      form one banded matrix, so no window is copied either.
    - im2col: everything else, a 2-D depthwise kernel included.  The
      windows are copied into columns that the tape keeps for the backward.
    """
    x, w = _unwrap(x), _unwrap(w)
    b = _unwrap(bias) if bias is not None else None
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    dh, dw = _pair(dilation)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and weight, got {x.shape}, {w.shape}")
    bsz, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    if cin % groups or cout % groups:
        raise ShapeError(
            f"channels not divisible by groups: Cin={cin}, Cout={cout}, groups={groups}"
        )
    if cin_g != cin // groups:
        raise ShapeError(
            f"weight expects {cin_g} channels/group but input supplies {cin // groups}"
        )
    oh = conv2d_output_size(h, kh, sh, ph, dh)
    ow = conv2d_output_size(wid, kw, sw, pw, dw)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv2d output would be {oh}x{ow} for input {h}x{wid}, "
            f"kernel {kh}x{kw}, stride ({sh},{sw}), pad ({ph},{pw}), "
            f"dilation ({dh},{dw})"
        )
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")

    # Drop the taps that read only padding: the kept ones read input rows
    # [y0, y1) and columns [x0, x1), which may reach into the padding.
    lh, hh, y0, y1 = _tap_span(h, kh, sh, ph, dh, oh)
    lw, hw, x0, x1 = _tap_span(wid, kw, sw, pw, dw, ow)
    kh, kw = hh - lh, hw - lw
    wd = w.data if (kh, kw) == w.shape[2:] else np.ascontiguousarray(w.data[:, :, lh:hh, lw:hw])
    if (kh, kw, sh, sw, y0, x0, oh, ow) == (1, 1, 1, 1, 0, 0, h, wid):
        out, grads = _conv_in_place(x.data, wd, groups)
    elif cin_g == cout // groups == 1 and 1 in (kh, kw):
        along_h = kw == 1
        kernel_axis = (h, oh, sh, dh, y0) if along_h else (wid, ow, sw, dw, x0)
        other_axis = (wid, ow, sw, x0) if along_h else (h, oh, sh, y0)
        out, grads = _conv_banded(x.data, wd, along_h, kernel_axis, other_axis)
    else:
        out, grads = _conv_im2col(x.data, wd, groups, (oh, ow), (sh, sw), (dh, dw),
                                  (y0, y1, x0, x1))
    if b is not None:
        out = out + b.data[None, :, None, None]
    out_t = Tensor(out)

    def bwd(g):
        dx, gw = grads(g)
        if wd is not w.data:  # a dropped tap's gradient is exactly zero
            gw, gk = np.zeros(w.shape, dtype=gw.dtype), gw
            gw[:, :, lh:hh, lw:hw] = gk
        if b is None:
            return dx, gw
        return dx, gw, g.sum(axis=(0, 2, 3))

    inputs = (x, w) if b is None else (x, w, b)
    return record(inputs, out_t, bwd)


# Each window kind returns (output, grads) with grads(g) -> (dx, dw); outputs
# are computed per (sample, group) or per (sample, channel), so a sample's
# output is bit-independent of its batch mates (BLAS may pick a different
# kernel for a wider matrix).

def _conv_in_place(xd, wd, groups):
    """A 1x1 kernel at unit stride whose window is the input itself: the
    GEMMs read x directly, dx is the column GEMM, and nothing is copied for
    the backward."""
    bsz, cin, h, wid = xd.shape
    cout = wd.shape[0]
    cg, og = cin // groups, cout // groups
    w3 = wd.reshape(groups, og, cg)
    xg = xd.reshape(bsz, groups, cg, h * wid)
    out = np.matmul(w3, xg).reshape(bsz, cout, h, wid)

    def grads(g):
        gm = g.reshape(bsz, groups, og, h * wid)
        cols = xg.transpose(1, 2, 0, 3).reshape(groups, cg, -1)
        gw = np.matmul(
            gm.transpose(1, 2, 0, 3).reshape(groups, og, -1), cols.transpose(0, 2, 1)
        ).reshape(wd.shape)
        return np.matmul(w3.transpose(0, 2, 1), gm).reshape(xd.shape), gw

    return out, grads


@functools.lru_cache(maxsize=256)
def _band_index(n_in: int, n_out: int, k: int, stride: int, dilation: int, start: int):
    """(pos, live), both (k, n_out): the flat position in an (n_out, n_in) band
    matrix of tap t's entry for output i, which reads input i*stride +
    t*dilation + start, and whether that input is real (not padding).  The
    arrays are cached and shared, so they are returned read-only."""
    i = np.arange(n_out)
    r = i * stride + np.arange(k)[:, None] * dilation + start
    live = (r >= 0) & (r < n_in)
    pos = np.where(live, i * n_in + r, 0)
    pos.flags.writeable = live.flags.writeable = False
    return pos, live


def _conv_banded(xd, wd, along_h, kernel_axis, other_axis):
    """A depthwise kernel whose kept taps lie on one column (``along_h``) or
    one row.  Each channel's taps become one banded (n_out, n_in) matrix
    along that axis, so the forward, dx and the band's gradient are one
    np.matmul each, and the taps' gradients are read off the band's
    diagonals.  ``kernel_axis`` is (n_in, n_out, stride, dilation, start) and
    ``other_axis`` (n_in, n_out, stride, start)."""
    c = xd.shape[1]
    n_in, n_out, step, dil, start = kernel_axis
    k = wd.size // c
    pos, live = _band_index(n_in, n_out, k, step, dil, start)
    band = np.zeros((c, n_out * n_in), dtype=wd.dtype)
    band[:, pos[live]] = wd.reshape(c, k)[:, live.nonzero()[0]]
    band = band.reshape(c, n_out, n_in)

    # output j of the other axis reads input start + stride*j, or padding
    axis = 3 if along_h else 2
    m_in, m_out, m_step, m_start = other_axis
    if (m_out, m_step, m_start) == (m_in, 1, 0):
        xs = xd
    else:
        ja = max(0, -(m_start // m_step))  # outputs [ja, jb) read real inputs
        jb = min(m_out, -((m_start - m_in) // m_step))
        dst = (slice(None),) * axis + (slice(ja, jb),)
        src = (slice(None),) * axis + (
            slice(m_start + m_step * ja, m_start + m_step * (jb - 1) + 1, m_step),)
        xs = np.zeros(xd.shape[:axis] + (m_out,) + xd.shape[axis + 1:], dtype=xd.dtype)
        xs[dst] = xd[src]
    out = np.matmul(band, xs) if along_h else np.matmul(xs, band.transpose(0, 2, 1))

    def grads(g):
        if along_h:
            dxs = np.matmul(band.transpose(0, 2, 1), g)
            gv, xv = g, xs
        else:
            dxs = np.matmul(g, band)
            gv, xv = g.transpose(0, 1, 3, 2), xs.transpose(0, 1, 3, 2)
        # (c, n_out, B*m) x (c, B*m, n_in): the GEMM sums over the batch
        dband = np.matmul(gv.transpose(1, 2, 0, 3).reshape(c, n_out, -1),
                          xv.transpose(1, 0, 3, 2).reshape(c, -1, n_in))
        gw = np.where(live, dband.reshape(c, -1)[:, pos], 0).sum(axis=2).reshape(wd.shape)
        if xs is xd:
            return dxs, gw
        dx = np.zeros(xd.shape, dtype=dxs.dtype)
        dx[src] = dxs[dst]
        return dx, gw

    return out, grads


def _conv_im2col(xd, wd, groups, out_hw, stride, dilation, span):
    """Any kernel: zero-pad as far as the kept taps read (input rows and
    columns ``span`` = (y0, y1, x0, x1)), copy the windows into columns kept
    for the backward, and scatter dx back with np.add.at."""
    bsz, cin, h, wid = xd.shape
    cout, cg, kh, kw = wd.shape
    og = cout // groups
    (oh, ow), (sh, sw), (dh, dw), (y0, y1, x0, x1) = out_hw, stride, dilation, span
    pt, pl = max(-y0, 0), max(-x0, 0)
    hp, wp = pt + max(y1, h), pl + max(x1, wid)
    r0, c0 = y0 + pt, x0 + pl
    if (hp, wp) != (h, wid):
        xp = np.zeros((bsz, cin, hp, wp), dtype=xd.dtype)
        xp[:, :, pt:pt + h, pl:pl + wid] = xd
    else:
        xp = xd
    k = cg * kh * kw
    # cols: (groups, cg*kh*kw, B, oh*ow) with the output pixels innermost.
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp[:, :, r0:, c0:], (bsz, cin, oh, ow, kh, kw),
        (s0, s1, sh * s2, sw * s3, dh * s2, dw * s3), writeable=False)
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(
        groups, k, bsz, oh * ow
    )
    w3 = wd.reshape(groups, og, k)
    out = np.matmul(w3, cols.transpose(2, 0, 1, 3)).reshape(bsz, cout, oh, ow)

    def grads(g):
        gm = g.reshape(bsz, groups, og, oh * ow)
        # One GEMM per group, reducing over all B*oh*ow output pixels.
        gw = np.matmul(
            gm.transpose(1, 2, 0, 3).reshape(groups, og, -1),
            cols.reshape(groups, k, -1).transpose(0, 2, 1),
        ).reshape(wd.shape)
        dcols = np.matmul(w3.transpose(0, 2, 1), gm).reshape(bsz, -1)
        dxp = np.zeros((bsz, cin, hp, wp), dtype=g.dtype)
        idx = _conv_scatter_indices(cin, hp, wp, oh, ow, kh, kw, sh, sw, dh, dw)
        flat = dxp.reshape(bsz, -1)
        for n in range(bsz):
            np.add.at(flat[n, r0 * wp + c0:], idx, dcols[n])
        return np.ascontiguousarray(dxp[:, :, pt:pt + h, pl:pl + wid]), gw

    return out, grads


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

class BatchNormState:
    """Per-channel running mean/variance used by eval-mode normalization."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int, dtype: str = "float32"):
        self.running_mean = np.zeros(channels, dtype=_DTYPES[dtype])
        self.running_var = np.ones(channels, dtype=_DTYPES[dtype])

    @property
    def channels(self) -> int:
        return self.running_mean.shape[0]


def batch_norm(
    x,
    gamma,
    beta,
    state: BatchNormState,
    mode: str = "train",
) -> Tensor:
    """Channelwise normalization over (B,H,W); population variance throughout.

    Train mode normalizes by batch statistics and folds them into the
    running estimates as ``running = m*running + (1-m)*batch`` with
    m = BN_MOMENTUM, and ``BN_EPS`` keeps the variance off zero;
    eval mode normalizes by the running estimates.
    """
    x, gamma, beta = _unwrap(x), _unwrap(gamma), _unwrap(beta)
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects [B,C,H,W], got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,) or state.channels != c:
        raise ShapeError(
            f"batch_norm channel mismatch: x has {c}, gamma {gamma.shape}, "
            f"beta {beta.shape}, state {state.channels}"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    xd = x.data
    gd = gamma.data[None, :, None, None]
    bd = beta.data[None, :, None, None]

    if mode == "train":
        m = xd.shape[0] * xd.shape[2] * xd.shape[3]
        mean = xd.mean(axis=(0, 2, 3))
        xhat = xd - mean[None, :, None, None]
        var = _channel_dot(xhat, xhat) / m
        state.running_mean[...] = BN_MOMENTUM * state.running_mean + (1 - BN_MOMENTUM) * mean
        state.running_var[...] = BN_MOMENTUM * state.running_var + (1 - BN_MOMENTUM) * var
        inv_std = (1.0 / np.sqrt(var + BN_EPS))[None, :, None, None]
        xhat *= inv_std
        out = xhat * gd
        out += bd

        def bwd(g):
            dbeta = g.sum(axis=(0, 2, 3))
            dgamma = _channel_dot(g, xhat)
            dx = xhat * (-dgamma / m)[None, :, None, None]
            dx += g
            dx -= (dbeta / m)[None, :, None, None]
            dx *= gd * inv_std
            return dx, dgamma, dbeta

        return record((x, gamma, beta), Tensor(out), bwd)

    mean = state.running_mean.copy()[None, :, None, None]  # read again by bwd_eval
    inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)[None, :, None, None]
    s = gd * inv_std
    out = xd * s
    out += bd - mean * s

    def bwd_eval(g):
        dbeta = g.sum(axis=(0, 2, 3))
        dgamma = _channel_dot(g, (xd - mean) * inv_std)
        return g * s, dgamma, dbeta

    return record((x, gamma, beta), Tensor(out), bwd_eval)


def _channel_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-channel sum of u*v over (B, H, W), as one dot per (sample,
    channel) instead of a full-size product."""
    b, c = u.shape[:2]
    return np.matmul(u.reshape(b, c, 1, -1), v.reshape(b, c, -1, 1)).sum(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# Bilinear upsampling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def bilinear_matrix(in_size: int, out_size: int, dtype=np.float64) -> np.ndarray:
    """Interpolation matrix W (out x in) under the half-pixel-center convention.

    Output sample i reads source position (i + 0.5) * in/out - 0.5; edge
    neighbours are clamped (constant extrapolation).  The matrix is cached
    and shared, so it is returned read-only.
    """
    w = np.zeros((out_size, in_size), dtype=dtype)
    ratio = in_size / out_size
    for i in range(out_size):
        pos = (i + 0.5) * ratio - 0.5
        i0 = int(np.floor(pos))
        t = pos - i0
        lo = min(max(i0, 0), in_size - 1)
        hi = min(max(i0 + 1, 0), in_size - 1)
        w[i, lo] += 1.0 - t
        w[i, hi] += t
    w.flags.writeable = False
    return w


def bilinear_upsample(x, factor: int) -> Tensor:
    x = _unwrap(x)
    if int(factor) != factor or factor < 1:
        raise ShapeError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_upsample expects [B,C,H,W], got {x.shape}")
    if factor == 1:
        out = Tensor(x.data.copy())
        return record((x,), out, lambda g: (g,))
    h, w = x.shape[2], x.shape[3]
    wr = bilinear_matrix(h, h * factor, x.data.dtype)
    wc = bilinear_matrix(w, w * factor, x.data.dtype)
    out = Tensor(np.matmul(np.matmul(wr, x.data), wc.T))

    def bwd(g):
        return (np.matmul(np.matmul(wr.T, g), wc),)

    return record((x,), out, bwd)


# ---------------------------------------------------------------------------
# Labels and the segmentation loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits)[label] over the pixels whose label is not
    IGNORE_INDEX; ``labels`` is an integer (B, H, W) array."""
    logits = _unwrap(logits)
    if logits.data.ndim != 4:
        raise ShapeError(f"logits must be [B,C,H,W], got {logits.shape}")
    lab = np.asarray(labels)
    bsz, c, h, w = logits.shape
    if lab.shape != (bsz, h, w):
        raise ShapeError(f"labels shape {lab.shape} does not match logits {logits.shape}")
    check_classes(lab, c)
    valid = lab != IGNORE_INDEX
    n = int(valid.sum())
    if n == 0:
        raise NumericError("softmax_cross_entropy: every pixel is ignored")

    ld = logits.data
    z = ld - ld.max(axis=1, keepdims=True)
    ez = np.exp(z)
    se = ez.sum(axis=1, keepdims=True)
    # one-hot of the labels; ignored pixels are zeroed by `valid` in both passes
    hit = np.arange(c, dtype=lab.dtype)[None, :, None, None] == lab[:, None]
    picked = (z * hit).sum(axis=1) - np.log(se[:, 0])
    loss = -(picked * valid).sum() / n
    out = Tensor(np.asarray(loss, dtype=ld.dtype))

    def bwd(g):
        dx = ez / se
        dx -= hit
        dx *= (valid * (g / n)).astype(ld.dtype)[:, None]
        return (dx,)

    return record((logits,), out, bwd)
