"""Ideal affinity targets and the loss that supervises a predicted prior map.

The affinity target for an H x W label grid is the N x N boolean matrix
(N = H*W, flattened row-major) whose (j, i) entry is true exactly when
pixels j and i carry the same class and neither is ignored.  A batch's
(B, H, W) labels give one target, (B, N, N) values and (B, N) validity,
built once per step and read as given by both loss terms, which stay
boolean throughout.  Two loss terms supervise a predicted prior map: a
per-entry binary cross-entropy (the unary term) and per-query precision /
recall / specificity log terms (the global term).  ``network.total_loss``
weights them with the run's ``TrainConfig``.

The terms take the map in the model's key-major layout, Q = P^T of shape
(B, N_key, N_query): entry (b, i, j) scores whether key pixel i shares
query pixel j's class.  The target and the validity masks are symmetric,
so the unary term reads Q exactly as it would read P, and the global
term's per-query sums run over axis 1.

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

from .labelmap import IGNORE_INDEX, check_classes
from .tensor import NumericError, ShapeError, Tensor, record

EPS = 1e-7


def downsample_labels(labels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor reduction of (..., H, W) labels, anchored at the
    top-left of each cell."""
    h, w = labels.shape[-2:]
    if out_h < 1 or out_w < 1 or h % out_h or w % out_w:
        raise ShapeError(
            f"cannot downsample {h}x{w} labels to {out_h}x{out_w}: "
            "output must divide input"
        )
    return labels[..., :: h // out_h, :: w // out_w]


@dataclass
class IdealAffinityMap:
    """Same-class pair matrices plus the validity masks of their pixels."""

    values: np.ndarray  # (..., N, N) bool, restricted to valid pairs
    valid: np.ndarray  # (..., N) bool

    def pair_mask(self) -> np.ndarray:
        return self.valid[..., :, None] & self.valid[..., None, :]


def ideal_affinity_map(labels: np.ndarray, num_classes: int) -> IdealAffinityMap:
    """Targets for (..., H, W) labels.  Masking the rows by validity keeps the
    values to valid pairs: an ignored label never equals a valid one."""
    check_classes(labels, num_classes)
    lab = labels.reshape(*labels.shape[:-2], -1)
    valid = lab != IGNORE_INDEX
    return IdealAffinityMap((lab[..., :, None] == lab[..., None, :]) & valid[..., :, None],
                            valid)


def affinity_image(a: IdealAffinityMap) -> np.ndarray:
    """8-bit rendering (0/255) for PGM export."""
    return a.values.astype(np.uint8) * 255


def _check(q: Tensor, target: IdealAffinityMap) -> np.ndarray:
    """The (B, N, N) prior map's data, once its shape matches the target's."""
    if not isinstance(q, Tensor):
        raise TypeError("prior map must be a Tensor")
    if q.data.ndim != 3 or q.shape != target.values.shape:
        raise ShapeError(f"prior map {q.shape} does not match target {target.values.shape}")
    return q.data


def _residual(pd: np.ndarray, a: np.ndarray) -> np.ndarray:
    """r = (not a) - clip(p, EPS, 1-EPS), in the prior's dtype."""
    r = np.clip(pd, EPS, 1.0 - EPS)
    return np.subtract(~a, r, out=r)


def unary_affinity_loss(p: Tensor, target: IdealAffinityMap) -> Tensor:
    """Mean binary cross-entropy over valid pairs, averaged over the batch.

    Probabilities are clamped to [EPS, 1-EPS] before the logs; the clamp
    gates the gradient (zero outside the open interval), so targets fed
    back as predictions produce a loss within ~EPS of zero and no blow-up.
    With r = -p where the target is 1 and r = 1 - p where it is 0, each
    pair's loss is -log|r| and its gradient is 1/r.  The backward keeps the
    boolean target, not r, and rebuilds r bit for bit from it and the prior.
    """
    pd, a, valid = _check(p, target), target.values, target.valid
    nv = valid.sum(axis=1)
    if (nv == 0).any():
        raise NumericError("unary affinity loss: an image has no valid pixels")
    counts = nv.astype(np.float64) ** 2
    log_r = _residual(pd, a)
    np.log(np.abs(log_r, out=log_r), out=log_r)
    col = valid[:, :, None].astype(pd.dtype)
    rows = np.matmul(log_r, col)[:, :, 0]  # (B, N): sums over valid columns
    b = pd.shape[0]
    per_image = -(rows * valid).sum(axis=1, dtype=np.float64) / counts
    out = Tensor(np.asarray(per_image.mean(), dtype=pd.dtype))

    def bwd(g):
        s = (valid * (g / (b * counts))[:, None]).astype(pd.dtype)[:, :, None]
        dp = _residual(pd, a)
        np.divide(s, dp, out=dp)
        dp *= (pd > EPS) & (pd < 1.0 - EPS) & valid[:, None, :]
        return (dp,)

    return record((p,), out, bwd)


@dataclass
class GlobalTerms:
    """Row-aggregated log-ratio terms, normalized like the loss itself."""

    precision: float
    recall: float
    specificity: float


def global_affinity_loss(p: Tensor, target: IdealAffinityMap) -> tuple[Tensor, GlobalTerms]:
    """Per-query precision / recall / specificity loss on the prior map.

    For each valid query j (sums over valid keys i of one image, that is,
    over row j of P or column j of the key-major Q):

        T^p_j = log( sum(a*p) / sum(p) )
        T^r_j = log( sum(a*p) / sum(a) )
        T^s_j = log( sum((1-a)*(1-p)) / sum(1-a) )

    each ratio clamped to [EPS, 1].  A term whose denominator is zero is
    skipped for that query (a single-class image has no specificity term).
    The loss is -(mean over batch of per-image means over valid queries)
    of the three terms' sum.

    Only sum(p) and sum(a*p) read the prior map; sum(a) is a count, and
    sum((1-a)*(1-p)) = sum(1-a) - sum(p) + sum(a*p).  The sums accumulate
    in float64 because that difference can cancel.
    """
    pd, a, valid = _check(p, target), target.values, target.valid
    nv = valid.sum(axis=1)
    if (nv == 0).any():
        raise NumericError("global affinity loss: an image has no valid rows")
    b = pd.shape[0]

    s_p = np.einsum("bi,bij->bj", valid.astype(np.float64), pd)  # (B, N_query)
    s_ap = np.einsum("bij,bij->bj", pd, a, dtype=np.float64)
    s_a = np.count_nonzero(a, axis=1).astype(np.float64)
    s_na = nv[:, None] - s_a
    s_in = s_na - s_p + s_ap

    def ratio(num, den):
        r = np.divide(num, den, out=np.ones_like(num), where=den > 0)
        return np.clip(r, EPS, 1.0)

    rp, rr, rs = ratio(s_ap, s_p), ratio(s_ap, s_a), ratio(s_in, s_na)
    # gate: query valid, denominator nonzero, ratio strictly inside the clamp
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
        # d(T^p + T^r + T^s)_j / dq_ij on valid keys i, by target value;
        # precision and recall share the d(sum a*p) part
        k1 = (gp.astype(np.float64) + gr) * inv_sap - gp * inv_sp
        k0 = -(gp * inv_sp) - gs * inv_sin
        row = -g * w[:, None]
        # k0 + a * (k1 - k0): a product, as a branch on a costs more
        dp = a.astype(pd.dtype)
        dp *= ((k1 - k0) * row).astype(pd.dtype)[:, None, :]
        dp += (k0 * row).astype(pd.dtype)[:, None, :]
        dp *= valid[:, :, None]
        return (dp,)

    return record((p,), out, bwd), terms

