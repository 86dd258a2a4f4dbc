"""Minimal dense tensors with a recorded tape and reverse-mode gradients.

Data layout is fixed: row-major ``[batch, channel, height, width]`` for
feature maps, no implicit broadcasting, cross-correlation semantics for
convolution (no kernel flip).  Operations compute with numpy arrays and,
when a :class:`Graph` is active, append a node carrying a backward rule to
its tape.  The tape is recorded in execution order, which is already a
topological order, so ``Graph.backward`` is a single reverse sweep.
Tensors hold float32 or float64 only (labels stay integer numpy arrays),
and the entered graphs sit on one module-level stack whose top records.

What the tape holds: each node is the serial keys and shapes of its
inputs, its output's key and a backward closure, and each closure keeps
only the arrays its rule reads (``relu`` and ``sigmoid`` their output, a
conv its input and weight, batch norm its normalized input).  The tape
holds no :class:`Tensor`, so a conv output that only feeds batch norm, or
a batch-norm output that only feeds ``relu``, is freed as soon as the
caller drops it.  Closures hold the arrays themselves, not copies, so a
recorded input must not be mutated before ``backward``.  Gradients are
routed by key: every tensor draws a process-unique key at creation, so a
freed tensor's key is never reused.

Gradients flow only where they are read.  A :class:`Parameter` needs a
gradient, and so does the output of a recorded node; an op none of whose
inputs needs one records nothing, and a node's input that needs none gets
no gradient (a conv whose input is the image skips dx).  Gradients live
only in the :class:`Gradients` that ``Graph.backward`` returns; nothing
accumulates across calls, so a second ``backward`` on the same tape
returns equal gradients.  The sweep frees each intermediate gradient once
its node has consumed it, so those gradients are the Parameters' only;
asking for an op's output or a plain leaf raises KeyError.  Apart from
that, ops take a Parameter as any other tensor.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .labelmap import IGNORE_INDEX, check_classes

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


class ShapeError(ValueError):
    """Operand shapes or dtypes are inconsistent with the operation."""


class NumericError(ArithmeticError):
    """A numeric contract was violated (non-finite value, degenerate input)."""


def _canon(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype.char not in "fd":  # neither float32 nor float64
        if not np.issubdtype(arr.dtype, np.floating):
            raise ShapeError(f"unsupported dtype {arr.dtype}: a Tensor holds floats only")
        arr = arr.astype(np.float64)
    # ascontiguousarray would promote 0-d scalars to 1-d; keep rank as-is
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


_KEYS = itertools.count()


class Tensor:
    """Dense row-major float32 or float64 array; other float dtypes become
    float64, and integer, bool or complex data is a ShapeError.

    ``key`` is unique in the process: the tape routes gradients by it."""

    __slots__ = ("data", "key")

    def __init__(self, data):
        self.data = _canon(data)
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return self.data.dtype.name

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def zeros(shape, dtype="float32") -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def full(shape, value, dtype="float32") -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype))


class Parameter(Tensor):
    """A named trainable leaf tensor: every op takes it as itself, and its
    gradient is ``Graph.backward(loss)[param]``.  Parameters are the only
    leaves the tape differentiates, so a test or a gradient check that
    reads a leaf's gradient makes that leaf a Parameter.  ``value`` is an
    array or a Tensor, whose data it shares."""

    __slots__ = ("name", "decay")

    def __init__(self, name: str, value, decay: bool = True):
        super().__init__(value.data if isinstance(value, Tensor) else value)
        self.name = name
        self.decay = decay  # False exempts from weight decay (BN scale/shift)

    @property
    def value(self) -> "Parameter":
        """Self, read-only, for the old boxed form's two readers: ``conv_counts``
        in ``perfbench/spans.py`` (line 239, ``args[1].value``) and the gate's
        ``p.value.data`` (``tests/test_acceptance.py`` lines 187 and 302).
        It goes once both read the parameter itself (ROADMAP item 2)."""
        return self

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


_GRAPHS: list["Graph"] = []  # the recording stack; the innermost Graph records


def active_graph() -> "Graph | None":
    return _GRAPHS[-1] if _GRAPHS else None


class Gradients:
    """Read-only view of the gradients computed by one backward pass, indexed
    by the Parameter (the only leaves that receive one)."""

    def __init__(self, by_key: dict):
        self._by_key = by_key

    def __contains__(self, t: Tensor) -> bool:
        return t.key in self._by_key

    def __getitem__(self, t: Tensor) -> np.ndarray:
        try:
            return self._by_key[t.key]
        except KeyError:
            raise KeyError("tensor did not receive a gradient") from None

    def get(self, t, default=None):
        return self[t] if t in self else default


class Graph:
    """Tape of recorded operations; context manager enables recording."""

    def __init__(self):
        # ((input key, input shape) or None, ...), output key, backward fn;
        # None marks an input that needs no gradient
        self.nodes: list[tuple] = []
        self._recorded: set[int] = set()  # output keys of the recorded nodes

    def needs_grad(self, t: Tensor) -> bool:
        """A Parameter needs a gradient, and so does every output this tape
        recorded (one of its inputs needed one); nothing else does."""
        return isinstance(t, Parameter) or t.key in self._recorded

    def __enter__(self) -> "Graph":
        _GRAPHS.append(self)
        return self

    def __exit__(self, *exc):
        popped = _GRAPHS.pop()
        assert popped is self

    def backward(self, loss: Tensor) -> Gradients:
        """Reverse sweep from a scalar loss; returns the gradients of the
        Parameters it depends on.

        Each output gradient is dropped as soon as its node has consumed it,
        and no input that needs no gradient receives one, so the returned
        Gradients hold Parameters only.
        """
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {}
        if self.needs_grad(loss):
            grads[loss.key] = np.ones((), dtype=loss.data.dtype)
        for inputs, out, bwd in reversed(self.nodes):
            # a node's output gradient is complete once the sweep reaches it,
            # and nothing reads it after its node has consumed it
            gout = grads.pop(out, None)
            if gout is None:
                continue
            for slot, gi in zip(inputs, bwd(gout)):
                if slot is None or gi is None:
                    continue
                key, shape = slot
                if gi.shape != shape:
                    raise ShapeError(
                        f"backward produced grad shape {gi.shape} for input "
                        f"shape {shape}"
                    )
                acc = grads.get(key)
                grads[key] = gi if acc is None else acc + gi
        return Gradients(grads)


def record(inputs, out: Tensor, bwd) -> Tensor:
    """Append one node to the active tape (no-op when nothing is recording,
    or when no input needs a gradient).

    ``bwd(grad_out) -> tuple`` must return one gradient array (or None) per
    input, in order; the sweep drops those of inputs that need none.  The
    tape keeps the inputs' keys and shapes, not the inputs, so ``bwd``
    should close over only the arrays it reads.  Exposed so other modules
    can define fused operations.
    """
    g = active_graph()
    if g is not None:
        slots = tuple((t.key, t.data.shape) if g.needs_grad(t) else None for t in inputs)
        if any(slots):
            g.nodes.append((slots, out.key, bwd))
            g._recorded.add(out.key)
    return out


def _same_shape(a: Tensor, b: Tensor, opname: str):
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    return record((a, b), out, lambda g: (g, g))


def sub(a, b) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    return record((a, b), out, lambda g: (g, -g))


def mul(a, b) -> Tensor:
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    return record((a, b), out, lambda g: (g * bd, g * ad))


def div(a, b) -> Tensor:
    _same_shape(a, b, "div")
    ad, bd = a.data, b.data
    out = Tensor(ad / bd)
    od = out.data
    return record((a, b), out, lambda g: (g / bd, -g * od / bd))


def neg(a) -> Tensor:
    out = Tensor(-a.data)
    return record((a,), out, lambda g: (-g,))


def scale(a, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    return record((a,), out, lambda g: (g * c,))


def add_const(a, c: float) -> Tensor:
    out = Tensor(a.data + float(c))
    return record((a,), out, lambda g: (g,))


def log(a) -> Tensor:
    ad = a.data
    if (ad <= 0).any():
        raise NumericError("log requires strictly positive input")
    out = Tensor(np.log(ad))
    return record((a,), out, lambda g: (g / ad,))


def clamp(a, lo: float, hi: float) -> Tensor:
    ad = a.data
    out = Tensor(np.clip(ad, lo, hi))
    mask = (ad > lo) & (ad < hi)
    return record((a,), out, lambda g: (g * mask,))


def sum_all(a) -> Tensor:
    shape = a.shape
    out = Tensor(np.asarray(a.data.sum(), dtype=a.data.dtype))
    return record((a,), out, lambda g: (np.broadcast_to(g, shape),))


def mean_all(a) -> Tensor:
    return scale(sum_all(a), 1.0 / a.size)


def sum_axis(a, axis: int) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return record((a,), out, bwd)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    od = out.data  # od > 0 exactly where the input is > 0
    return record((a,), out, lambda g: (g * (od > 0),))


def sigmoid(a) -> Tensor:
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
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}: element count differs")
    old = a.shape
    out = Tensor(a.data.reshape(shape))
    return record((a,), out, lambda g: (g.reshape(old),))


def transpose(a, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank {a.data.ndim}")
    inv = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return record((a,), out, lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def concat(xs, axis: int) -> Tensor:
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
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)
    return record((a, b), out, lambda g: (g @ bd.T, ad.T @ g))


def bmm(a, b) -> Tensor:
    """Batched matmul: [B,m,k] x [B,k,n] -> [B,m,n]."""
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
      row and that reads the other axis whole at unit stride (the
      aggregation's k x 1 and 1 x k convs): one banded matrix per channel,
      so no window is copied either.
    - im2col: everything else, a 2-D depthwise kernel or a strided or padded
      other axis included.  The windows are copied into columns for the
      GEMM; the tape keeps the input, and the backward copies them again.

    Each kind computes dx only when the active tape needs a gradient for
    ``x``, so stage 1, whose input is the image, computes its weight
    gradient alone.
    """
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
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} != ({cout},)")

    # Drop the taps that read only padding: the kept ones read input rows
    # [y0, y1) and columns [x0, x1), which may reach into the padding.
    lh, hh, y0, y1 = _tap_span(h, kh, sh, ph, dh, oh)
    lw, hw, x0, x1 = _tap_span(wid, kw, sw, pw, dw, ow)
    kh, kw = hh - lh, hw - lw
    wd = w.data if (kh, kw) == w.shape[2:] else np.ascontiguousarray(w.data[:, :, lh:hh, lw:hw])
    along_h = kw == 1 and (sw, x0, ow) == (1, 0, wid)  # other axis read whole
    along_w = kh == 1 and (sh, y0, oh) == (1, 0, h)
    need_dx = (g := active_graph()) is not None and g.needs_grad(x)
    if (kh, kw, sh, sw, y0, x0, oh, ow) == (1, 1, 1, 1, 0, 0, h, wid):
        out, grads = _conv_in_place(x.data, wd, groups, need_dx)
    elif cin_g == cout // groups == 1 and (along_h or along_w):
        kernel_axis = (h, oh, sh, dh, y0) if along_h else (wid, ow, sw, dw, x0)
        out, grads = _conv_banded(x.data, wd, along_h, kernel_axis, need_dx)
    else:
        out, grads = _conv_im2col(x.data, wd, groups, (oh, ow), (sh, sw), (dh, dw),
                                  (y0, y1, x0, x1), need_dx)
    if bias is not None:
        out = out + bias.data[None, :, None, None]
    out_t = Tensor(out)

    def bwd(g):
        dx, gw = grads(g)
        if wd is not w.data:  # a dropped tap's gradient is exactly zero
            gw, gk = np.zeros(w.shape, dtype=gw.dtype), gw
            gw[:, :, lh:hh, lw:hw] = gk
        if bias is None:
            return dx, gw
        return dx, gw, g.sum(axis=(0, 2, 3))

    inputs = (x, w) if bias is None else (x, w, bias)
    return record(inputs, out_t, bwd)


# Each window kind returns (output, grads) with grads(g) -> (dx, dw), where
# dx is None unless ``need_dx`` (x is a Parameter or a recorded output);
# outputs are computed per (sample, group) or per (sample, channel), so a
# sample's output is bit-independent of its batch mates (BLAS may pick a
# different kernel for a wider matrix).

def _conv_in_place(xd, wd, groups, need_dx):
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
        if not need_dx:
            return None, gw
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


def _conv_banded(xd, wd, along_h, kernel_axis, need_dx):
    """A depthwise kernel whose kept taps lie on one column (``along_h``) or
    one row, reading the other axis whole at unit stride.  Each channel's
    taps become one banded (n_out, n_in) matrix along the kernel axis, so the
    forward, dx and the band's gradient are one np.matmul each on x itself,
    and the taps' gradients are read off the band's diagonals.
    ``kernel_axis`` is (n_in, n_out, stride, dilation, start)."""
    c = xd.shape[1]
    n_in, n_out, step, dil, start = kernel_axis
    k = wd.size // c
    pos, live = _band_index(n_in, n_out, k, step, dil, start)
    band = np.zeros((c, n_out * n_in), dtype=wd.dtype)
    band[:, pos[live]] = wd.reshape(c, k)[:, live.nonzero()[0]]
    band = band.reshape(c, n_out, n_in)
    out = np.matmul(band, xd) if along_h else np.matmul(xd, band.transpose(0, 2, 1))

    def grads(g):
        if along_h:
            dx = np.matmul(band.transpose(0, 2, 1), g) if need_dx else None
            gv, xv = g, xd
        else:
            dx = np.matmul(g, band) if need_dx else None
            gv, xv = g.transpose(0, 1, 3, 2), xd.transpose(0, 1, 3, 2)
        # (c, n_out, B*m) x (c, B*m, n_in): the GEMM sums over the batch
        dband = np.matmul(gv.transpose(1, 2, 0, 3).reshape(c, n_out, -1),
                          xv.transpose(1, 0, 3, 2).reshape(c, -1, n_in))
        gw = np.where(live, dband.reshape(c, -1)[:, pos], 0).sum(axis=2).reshape(wd.shape)
        return dx, gw

    return out, grads


# Output rows at least this long scatter dx tap by tap; shorter ones (every
# conv at crop 32) run np.add.at, which is 2-3x faster on 4-8 px rows.
TAP_SCATTER_MIN_ROW = 16


def _conv_im2col(xd, wd, groups, out_hw, stride, dilation, span, need_dx):
    """Any geometry: zero-pad a copy of x as far as the kept taps read (input
    rows and columns ``span`` = (y0, y1, x0, x1)) and copy the windows into
    columns for one GEMM per group.  The backward closure keeps ``xd``, not the
    columns (a 2.25x to 9x copy of it): it copies the same windows again for
    the weight gradient.  So ``xd`` must not be mutated between the forward
    and the backward.

    dx, when needed, scatters the column gradient back into the padded input.
    Output rows of ``TAP_SCATTER_MIN_ROW`` px or more add one slab per kept tap
    into the s_h x s_w phase planes of the stride and interleave them at the
    end; shorter rows run np.add.at over a cached flat index.  Both add each
    pixel's contributions in (kh, kw) order onto zeros, so dx is bit-identical
    either way."""
    bsz, cin, h, wid = xd.shape
    cout, cg, kh, kw = wd.shape
    og = cout // groups
    (oh, ow), (sh, sw), (dh, dw), (y0, y1, x0, x1) = out_hw, stride, dilation, span
    pt, pl = max(-y0, 0), max(-x0, 0)
    hp, wp = pt + max(y1, h), pl + max(x1, wid)
    r0, c0 = y0 + pt, x0 + pl
    k = cg * kh * kw

    def columns():
        """(groups, cg*kh*kw, B, oh*ow), the output pixels innermost."""
        xp = np.zeros((bsz, cin, hp, wp), dtype=xd.dtype)
        xp[:, :, pt:pt + h, pl:pl + wid] = xd
        s0, s1, s2, s3 = xp.strides
        win = np.lib.stride_tricks.as_strided(
            xp[:, :, r0:, c0:], (bsz, cin, oh, ow, kh, kw),
            (s0, s1, sh * s2, sw * s3, dh * s2, dw * s3), writeable=False)
        return np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(
            groups, k, bsz, oh * ow)

    w3 = wd.reshape(groups, og, k)
    out = np.matmul(w3, columns().transpose(2, 0, 1, 3)).reshape(bsz, cout, oh, ow)

    def grads(g):
        gm = g.reshape(bsz, groups, og, oh * ow)
        # One GEMM per group, reducing over all B*oh*ow output pixels.
        gw = np.matmul(
            gm.transpose(1, 2, 0, 3).reshape(groups, og, -1),
            columns().reshape(groups, k, -1).transpose(0, 2, 1),
        ).reshape(wd.shape)
        if not need_dx:
            return None, gw
        dcols = np.matmul(w3.transpose(0, 2, 1), gm)
        if ow < TAP_SCATTER_MIN_ROW:
            dxp = np.zeros((bsz, cin, hp, wp), dtype=g.dtype)
            idx = _conv_scatter_indices(cin, hp, wp, oh, ow, kh, kw, sh, sw, dh, dw)
            flat, dcols = dxp.reshape(bsz, -1), dcols.reshape(bsz, -1)
            for n in range(bsz):
                np.add.at(flat[n, r0 * wp + c0:], idx, dcols[n])
            return np.ascontiguousarray(dxp[:, :, pt:pt + h, pl:pl + wid]), gw
        # padded row y lies in phase plane y % sh, at its row y // sh (columns alike)
        dcols = dcols.reshape(bsz, cin, kh, kw, oh, ow)
        planes = np.zeros((sh, sw, bsz, cin, -(-hp // sh), -(-wp // sw)), dtype=g.dtype)
        for i, j in np.ndindex(kh, kw):
            r, c = r0 + i * dh, c0 + j * dw
            planes[r % sh, c % sw, :, :, r // sh:r // sh + oh,
                   c // sw:c // sw + ow] += dcols[:, :, i, j]
        dx = np.empty(xd.shape, dtype=g.dtype)
        for py, px in np.ndindex(sh, sw):
            y, x = (py - pt) % sh, (px - pl) % sw  # the first input row and column of the phase
            dst = dx[:, :, y::sh, x::sw]
            r, c = (y + pt) // sh, (x + pl) // sw
            dst[...] = planes[py, px, :, :, r:r + dst.shape[2], c:c + dst.shape[3]]
        return dx, gw

    return out, grads


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

class BatchNormState:
    """Per-channel running mean/variance used by eval-mode normalization."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int, dtype: str = "float32"):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

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
    if int(factor) != factor or factor < 1:
        raise ShapeError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_upsample expects [B,C,H,W], got {x.shape}")
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
        dx = ez / se  # the logits' dtype
        dx -= hit
        dx *= (valid * (g / n)).astype(dx.dtype)[:, None]
        return (dx,)

    return record((logits,), out, bwd)
