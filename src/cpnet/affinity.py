"""Ideal affinity targets and the loss that supervises a predicted prior map.

The affinity target for an H x W label grid is the N x N boolean matrix
(N = H*W, flattened row-major) whose (j, i) entry is true exactly when
pixels j and i carry the same class and neither is ignored.  It stays
boolean all the way into the loss terms, which each stack it once.  Two
loss terms supervise a predicted (B, N, N) prior map P: a per-entry binary
cross-entropy (the unary term) and row-wise precision / recall /
specificity log terms (the global term).  ``network.total_loss`` weights
them with the run's ``TrainConfig``.

Ignored pixels contribute nothing anywhere: their rows and columns are
excluded from every sum and from the normalizing counts.

Both loss terms are written as fused tape operations with hand-derived
backward rules (validated against finite differences in the test suite);
composing them from primitive ops would spend several times the memory on
N x N intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labelmap import LabelMap
from .tensor import NumericError, ShapeError, Tensor, record

EPS = 1e-7


def downsample_labels(gt: LabelMap, out_h: int, out_w: int) -> LabelMap:
    """Nearest-neighbor label reduction anchored at the top-left of each cell."""
    h, w = gt.height, gt.width
    if out_h < 1 or out_w < 1 or h % out_h or w % out_w:
        raise ShapeError(
            f"cannot downsample {h}x{w} labels to {out_h}x{out_w}: "
            "output must divide input"
        )
    sh, sw = h // out_h, w // out_w
    out = gt.labels[::sh, ::sw]
    return LabelMap(np.ascontiguousarray(out))


@dataclass
class IdealAffinityMap:
    """Same-class pair matrix plus the validity mask of its pixels."""

    values: np.ndarray  # (N, N) bool, restricted to valid pairs
    valid: np.ndarray  # (N,) bool

    @property
    def n(self) -> int:
        return self.valid.shape[0]

    def pair_mask(self) -> np.ndarray:
        return self.valid[:, None] & self.valid[None, :]


def ideal_affinity_map(gt_small: LabelMap, num_classes: int) -> IdealAffinityMap:
    gt_small.validate_classes(num_classes)
    lab = gt_small.labels.reshape(-1)
    valid = gt_small.valid.reshape(-1)
    return IdealAffinityMap((lab[:, None] == lab[None, :]) & valid[:, None], valid)


def affinity_image(a: IdealAffinityMap) -> np.ndarray:
    """8-bit rendering (0/255) for PGM export."""
    return a.values.astype(np.uint8) * 255


def _stack(p: Tensor, maps: list[IdealAffinityMap]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (B,N,N) prior, the boolean targets restricted to valid pairs,
    and the (B,N) validity."""
    if not isinstance(p, Tensor):
        raise TypeError("prior map must be a Tensor")
    pd = p.data
    if pd.ndim != 3 or pd.shape[1] != pd.shape[2]:
        raise ShapeError(f"prior map must be BxNxN, got {p.shape}")
    if len(maps) != pd.shape[0]:
        raise ShapeError(f"{pd.shape[0]} prior maps but {len(maps)} targets")
    n = pd.shape[1]
    for m in maps:
        if m.n != n:
            raise ShapeError(f"target is {m.n}x{m.n} but prior map is {n}x{n}")
    valid = np.stack([m.valid for m in maps])
    a = np.stack([m.values for m in maps])
    a &= valid[:, :, None]
    a &= valid[:, None, :]
    return pd, a, valid


def unary_affinity_loss(p: Tensor, maps: list[IdealAffinityMap]) -> Tensor:
    """Mean binary cross-entropy over valid pairs, averaged over the batch.

    Probabilities are clamped to [EPS, 1-EPS] before the logs; the clamp
    gates the gradient (zero outside the open interval), so targets fed
    back as predictions produce a loss within ~EPS of zero and no blow-up.
    With r = -p where the target is 1 and r = 1 - p where it is 0, each
    pair's loss is -log|r| and its gradient is 1/r.
    """
    pd, a, valid = _stack(p, maps)
    nv = valid.sum(axis=1)
    if (nv == 0).any():
        raise NumericError("unary affinity loss: an image has no valid pixels")
    counts = nv.astype(np.float64) ** 2
    r = np.subtract(~a, np.clip(pd, EPS, 1.0 - EPS), dtype=pd.dtype)
    col = valid[:, :, None].astype(pd.dtype)
    rows = np.matmul(np.log(np.abs(r)), col)[:, :, 0]  # (B, N): sums over valid columns
    b = pd.shape[0]
    per_image = -(rows * valid).sum(axis=1, dtype=np.float64) / counts
    out = Tensor(np.asarray(per_image.mean(), dtype=pd.dtype))

    def bwd(g):
        s = (valid * (g / (b * counts))[:, None]).astype(pd.dtype)[:, :, None]
        dp = s / r
        dp *= (pd > EPS) & (pd < 1.0 - EPS) & valid[:, None, :]
        return (dp,)

    return record((p,), out, bwd)


@dataclass
class GlobalTerms:
    """Row-aggregated log-ratio terms, normalized like the loss itself."""

    precision: float
    recall: float
    specificity: float


def global_affinity_loss(p: Tensor, maps: list[IdealAffinityMap]) -> tuple[Tensor, GlobalTerms]:
    """Row-wise precision / recall / specificity loss on the prior map.

    For each valid row j (sums over valid columns i of one image):

        T^p_j = log( sum(a*p) / sum(p) )
        T^r_j = log( sum(a*p) / sum(a) )
        T^s_j = log( sum((1-a)*(1-p)) / sum(1-a) )

    each ratio clamped to [EPS, 1].  A term whose denominator is zero is
    skipped for that row (a single-class image has no specificity term).
    The loss is -(mean over batch of per-image means over valid rows) of
    the three terms' sum.

    Only sum(p) and sum(a*p) read the prior map; sum(a) is a count, and
    sum((1-a)*(1-p)) = sum(1-a) - sum(p) + sum(a*p).  Row sums accumulate
    in float64 because that difference can cancel.
    """
    pd, a, valid = _stack(p, maps)
    nv = valid.sum(axis=1)
    if (nv == 0).any():
        raise NumericError("global affinity loss: an image has no valid rows")
    b = pd.shape[0]

    s_p = (pd * valid[:, None, :]).sum(axis=2, dtype=np.float64)  # (B, N)
    s_ap = (pd * a).sum(axis=2, dtype=np.float64)
    s_a = np.count_nonzero(a, axis=2).astype(np.float64)
    s_na = nv[:, None] - s_a
    s_in = s_na - s_p + s_ap

    def ratio(num, den):
        r = np.divide(num, den, out=np.ones_like(num), where=den > 0)
        return np.clip(r, EPS, 1.0)

    rp, rr, rs = ratio(s_ap, s_p), ratio(s_ap, s_a), ratio(s_in, s_na)
    # gate: row valid, denominator nonzero, ratio strictly inside the clamp
    gp = valid & (s_p > 0) & (rp > EPS) & (rp < 1.0)
    gr = valid & (s_a > 0) & (rr > EPS) & (rr < 1.0)
    gs = valid & (s_na > 0) & (rs > EPS) & (rs < 1.0)

    w = 1.0 / (b * nv.astype(np.float64))  # (B,)

    def row_mean(r, den_ok):
        return (np.log(r) * (valid & den_ok) * w[:, None]).sum()

    tp, tr, ts = row_mean(rp, s_p > 0), row_mean(rr, s_a > 0), row_mean(rs, s_na > 0)
    terms = GlobalTerms(float(tp), float(tr), float(ts))
    out = Tensor(np.asarray(-(tp + tr + ts), dtype=pd.dtype))

    def bwd(g):
        with np.errstate(divide="ignore"):
            inv_sap = np.where(s_ap > 0, 1.0 / s_ap, 0.0)
            inv_sp = np.where(s_p > 0, 1.0 / s_p, 0.0)
            inv_sin = np.where(s_in > 0, 1.0 / s_in, 0.0)
        # d(T^p + T^r + T^s)_j / dp_ji on valid columns i, by target value;
        # precision and recall share the d(sum a*p) part
        k1 = (gp.astype(np.float64) + gr) * inv_sap - gp * inv_sp
        k0 = -(gp * inv_sp) - gs * inv_sin
        row = -g * w[:, None]
        # k0 + a * (k1 - k0): a product, as a branch on a costs more
        dp = a * ((k1 - k0) * row).astype(pd.dtype)[:, :, None]
        dp += (k0 * row).astype(pd.dtype)[:, :, None]
        dp *= valid[:, None, :]
        return (dp,)

    return record((p,), out, bwd), terms

