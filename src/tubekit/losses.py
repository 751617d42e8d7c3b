"""Growth/suppression loss suite with analytic gradients.

Four terms act on a probability prediction: relaxed supervision and
skeleton-connectivity push vessels to grow, while spatial-similarity and
mix-equivalence penalties suppress noise; the combined objective weights
the suppression pair by lambda.

Each term is one ``*_array`` function on plain ndarrays: it converts its
inputs to float64, checks them and returns (value, gradient with respect
to the prediction), the gradient a float64 ndarray.  Callers holding
``Volume3``/``Mask3`` containers pass their ``.data``.  Relaxed
supervision reads its weights, 1 or beta, off a 0/1 label and ROI, and
the spatial term its value off its gradient.  The connectivity term
treats the reconnected skeleton as a constant pseudo-label (no gradient
through the reconnection), and differentiates through the pooling
recurrence via the recorded selection tape.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, ParameterError
from .skeleton import (DEFAULT_ITERATIONS, SoftSkeletonTape, _check_unit_range,
                       _neighbor_counts, _window_offsets, reconnect)

DEFAULT_EPSILON = 1e-7
DEFAULT_LAMBDA = 1.0
SPATIAL_MIN_MAGNITUDE = 2.0 ** -537  # the square of this is the smallest subnormal
SIGMA_MIN, SIGMA_MAX = 1e-150, 1e150  # 2*sigma^2 and its reciprocal stay finite, nonzero
SPATIAL_BLOCK = 2 ** 14  # voxels per block of the spatial loss, in whole x-planes
SPATIAL_MAX_RADIUS = 8  # (17^3 - 1) / 2 = 2456 unordered offsets, each a pass over the volume


@dataclass(frozen=True)
class GatedKernelParams:
    """Gaussian pair kernel: location bandwidth (voxels), intensity
    bandwidth (image units), cube window radius; self-pairs excluded.
    A pair (i, j) contributes k*y_i*y_j.  Both sigmas must lie in
    [SIGMA_MIN, SIGMA_MAX] = [1e-150, 1e150]."""

    sigma_l: float = 1.5
    sigma_c: float = 0.1
    radius: int = 2

    def __post_init__(self):
        if not all(SIGMA_MIN <= s <= SIGMA_MAX for s in (self.sigma_l, self.sigma_c)):
            raise ParameterError(
                f"sigma_l and sigma_c must lie in [{SIGMA_MIN:g}, {SIGMA_MAX:g}]")
        if self.radius < 1:
            raise ParameterError("radius must be >= 1")


# ---------------------------------------------------------------------------
# relaxed supervision
# ---------------------------------------------------------------------------

def _checked_non_negative(name: str, v: float) -> float:
    if not 0.0 <= v < math.inf:  # NaN fails too
        raise ParameterError(f"{name} must be finite and non-negative, got {v}")
    return float(v) + 0.0  # -0.0 becomes 0.0


def resolve_beta(y: np.ndarray, beta: float = None) -> float:
    """An explicit beta, which must be finite and non-negative, or for
    None the auto ratio 1/ln(sum(y^c)/sum(y))."""
    if beta is not None:
        return _checked_non_negative("beta", beta)
    s_pos = float(y.sum())
    s_neg = float(y.size - s_pos)
    if s_pos < 1:
        raise NumericDomainError("beta undefined: label has no positives")
    if s_neg <= s_pos:
        raise NumericDomainError(
            "beta undefined: sum(y^c) must exceed sum(y) for the log ratio")
    return 1.0 / math.log(s_neg / s_pos)


def uncertain_prediction_array(y, yhat, roi_mask, beta):
    """Returns (yhat', w), yhat' = w * yhat and w = y + beta*y^c*R + y^c*R^c:
    on a 0/1 label y and ROI R (else a ParameterError), beta on R's negatives, else 1."""
    y, roi = np.asarray(y), np.asarray(roi_mask)
    for a, name in ((y, "label"), (roi, "ROI mask")):
        if not ((a == 0) | (a == 1)).all():  # NaN fails too
            raise ParameterError(f"{name} must hold only 0 and 1")
    w = np.where((roi == 1) & (y == 0), beta, 1.0)
    return w * yhat, w


_DENOM_MAX = math.sqrt(np.finfo(np.float64).max)  # the largest x whose x ** 2 is finite


def loss_r_sup_array(y, yhat, roi_mask, beta):
    """Relaxed Dice + positive-voxel cross entropy, with exact gradient.

    The prediction must lie in [0, 1], beta be finite and non-negative,
    and the label (with a 1) and ROI hold only 0 and 1.  Only beta can
    lift the Dice denominator sum(y) + sum(yhat') past sqrt(float max) =
    1.34e154, where its square overflows; that is a ParameterError naming
    beta.  Past the weights, each whole-volume step runs in place in the
    formula's evaluation order, so the result has the formula's bits."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ParameterError("label and prediction shapes differ")
    _check_unit_range(yhat, "prediction")
    beta = _checked_non_negative("beta", beta)
    yp, w = uncertain_prediction_array(y, yhat, roi_mask, beta)
    if y.sum() < 1:
        raise NumericDomainError("relaxed supervision needs at least one positive voxel")

    eps = DEFAULT_EPSILON
    tmp = np.multiply(y, yhat)
    s_inter = float(tmp.sum())
    with np.errstate(over="ignore"):  # the check below names the cause
        denom = float(y.sum()) + float(yp.sum()) + eps
    if not denom <= _DENOM_MAX:
        raise ParameterError(f"beta {beta:g} overflows the relaxed Dice denominator: "
                             f"sum(y) + sum(yhat') exceeds {_DENOM_MAX:.3g}")
    dice = -s_inter / denom

    n = y.size
    yp += eps  # yp + eps from here on
    ce = -float(np.multiply(y, np.log(yp, out=tmp), out=tmp).sum()) / n

    # -y / denom + (s_inter / denom ** 2) * w - (y * w) / ((yp + eps) * n)
    grad = np.negative(y)
    grad /= denom
    grad += np.multiply(s_inter / denom ** 2, w, out=tmp)
    w *= y
    yp *= n
    w /= yp
    grad -= w
    return dice + ce, grad


# ---------------------------------------------------------------------------
# skeleton connectivity
# ---------------------------------------------------------------------------

def _con_forward(yhat, iterations):
    """Tape, threshold mask, reconnected support (None when the mask is
    empty) and value of the connectivity loss on a float64 array."""
    tape = SoftSkeletonTape(yhat, iterations)
    hard = tape.skeleton >= 0.5
    if not hard.any():
        return tape, hard, None, 0.0
    rec = reconnect(hard).reconnected
    value = -float(np.log(tape.skeleton[rec] + DEFAULT_EPSILON).sum()) / int(rec.sum())
    return tape, hard, rec, value


def loss_con_array(yhat, iterations=DEFAULT_ITERATIONS):
    """Cross entropy between the soft skeleton and its reconnected
    (constant) counterpart, averaged over the reconnected skeleton."""
    yhat = np.asarray(yhat, dtype=np.float64)
    _check_unit_range(yhat, "prediction")
    tape, _, rec, value = _con_forward(yhat, iterations)
    if rec is None:
        return 0.0, np.zeros_like(yhat)
    g_skel = np.zeros_like(yhat)
    g_skel[rec] = -1.0 / ((tape.skeleton[rec] + DEFAULT_EPSILON) * int(rec.sum()))
    return value, tape.backward(g_skel)


def loss_con_signature(yhat, iterations=DEFAULT_ITERATIONS):
    """(digest, value): the digest of every discrete choice in the
    connectivity loss (pooling selections, relu signs, threshold mask,
    reconnected support) and the value ``loss_con_array`` returns.
    Equal signatures at x-h, x, x+h certify a tie-free direction."""
    tape, hard, rec, value = _con_forward(np.asarray(yhat, dtype=np.float64), iterations)
    parts = (tape.signature(), hard.tobytes(), b"" if rec is None else rec.tobytes())
    return hashlib.sha256(b"".join(parts)).digest(), value


# ---------------------------------------------------------------------------
# spatial similarity suppression
# ---------------------------------------------------------------------------

def loss_spatial_array(yhat, guide, params: GatedKernelParams):
    """Mean pairwise activation penalty over the cube window.

    Returns (value, grad, n_pairs), on the calling thread.  The window is
    cut to radius max(dims) - 1, beyond which no offset pairs voxels; a
    cut radius above ``SPATIAL_MAX_RADIUS`` = 8 (2456 unordered offsets,
    each a pass over the volume) is a ``ParameterError``, so ``tubekit
    loss --radius`` exits 2 there.  n_pairs counts the ordered in-bounds
    pairs with a nonzero term (the normalizer N) by one (2r+1)^3 box count
    of the nonzero predictions.  That holds while no y_i*y_j underflows,
    so inputs must be finite and each nonzero |y| >=
    ``SPATIAL_MIN_MAGNITUDE`` (float32-born values are >= 1.4e-45).

    The kernel is symmetric, so each unordered pair is visited once: only
    the offsets d whose flat shift s is positive run, over the flat
    indices i < size - max(s, d[0] * plane) in blocks of whole x-planes
    (about ``SPATIAL_BLOCK`` = 2^14 voxels).  A block adds k*y[i+s] to
    grad[i] and k*y[i] to grad[i+s], and the gradient is divided by N/2;
    the value is then sum(y * grad) / 2.  The kernel exponent takes -c1
    from a per-plane row that holds -inf where i + s wraps into another
    row or plane, so there k is exactly 0, as it is where the exponent
    overflows to -inf; overflow is not reported in this pass, where a sum
    can overflow only for |y| above about 1e154.  The sums run in another
    order than a pass over the whole window, which ``spatial_loss_oracle``
    in ``tests/oracles.py`` keeps: value and gradient stay within 1e-14 of
    the same sums over |y| (3.9e-15 at most, measured), while n_pairs
    keeps its bits.  Where products y[i]*grad[i] are subnormal (|y| near
    its minimum), the value can differ by multiples of 4.9e-324.
    """
    yhat = np.asarray(yhat, dtype=np.float64)
    guide = np.asarray(guide, dtype=np.float64)
    if yhat.shape != guide.shape:
        raise ParameterError("prediction and guide shapes differ")
    radius = min(params.radius, max(yhat.shape) - 1)
    if radius > SPATIAL_MAX_RADIUS:
        raise ParameterError(f"spatial window radius {radius} exceeds {SPATIAL_MAX_RADIUS}")
    nz = yhat != 0.0
    if (not (np.isfinite(yhat).all() and np.isfinite(guide).all())
            or (nz & (np.abs(yhat) < SPATIAL_MIN_MAGNITUDE)).any()):
        raise ParameterError("spatial loss inputs must be finite, and nonzero "
                             "predictions at least 2^-537 in magnitude")

    y, g = yhat.ravel(), guide.ravel()
    grad = np.zeros(y.size)
    inv_2sl2 = 1.0 / (2.0 * params.sigma_l ** 2)
    neg_inv_2sc2 = -1.0 / (2.0 * params.sigma_c ** 2)
    plane = y.size // max(yhat.shape[0], 1)
    bp = min(yhat.shape[0], max(1, SPATIAL_BLOCK // max(plane, 1)))
    k, t, row = np.empty((3, bp * plane))

    # Per-block work runs in a small function: tracemalloc finds the line
    # of each allocation by a scan over its function's code.
    def block_pass(s, i0, i1):
        kb, tb = k[:i1 - i0], t[:i1 - i0]
        # exp(-(c1 + diff**2*c2)) as diff*diff*(-c2) + (-c1): same bits
        np.subtract(g[i0:i1], g[i0 + s:i1 + s], out=kb)
        np.multiply(kb, kb, out=kb)
        np.multiply(kb, neg_inv_2sc2, out=kb)
        np.add(kb, row[:i1 - i0], out=kb)
        np.exp(kb, out=kb)
        grad[i0:i1] += np.multiply(kb, y[i0 + s:i1 + s], out=tb)
        grad[i0 + s:i1 + s] += np.multiply(kb, y[i0:i1], out=tb)

    with np.errstate(over="ignore"):  # an exponent of -inf: k = exp(-inf) = 0
        for d in _window_offsets(radius):
            s = (d[0] * yhat.shape[1] + d[1]) * yhat.shape[2] + d[2]
            if s <= 0 or any(abs(o) >= n for o, n in zip(d, yhat.shape)):
                continue  # the pair's visit from -d, or pairs no voxels
            sy, sz = (slice(max(0, -o), n - max(0, o)) for o, n in zip(d[1:], yhat.shape[1:]))
            row.fill(-np.inf)
            row.reshape((bp,) + yhat.shape[1:])[:, sy, sz] = -(sum(o * o for o in d) * inv_2sl2)
            hi = y.size - max(s, d[0] * plane)
            for i0 in range(0, hi, bp * plane):
                block_pass(s, i0, min(i0 + bp * plane, hi))
    n_pairs = int(_neighbor_counts(nz, radius)[nz].sum())
    half = max(1, n_pairs) / 2  # exact
    grad /= half
    # a block at a time: a whole-volume y * grad would raise the peak by a volume
    value = sum(float(np.multiply(y[i:i + k.size], grad[i:i + k.size], out=k[:y.size - i]).sum())
                for i in range(0, y.size, max(1, k.size))) / 2
    return value, grad.reshape(yhat.shape), n_pairs


# ---------------------------------------------------------------------------
# mix equivalence
# ---------------------------------------------------------------------------

def loss_mix_array(yhat, mixed_label):
    """Negative cosine similarity between prediction and mixed label."""
    yhat = np.asarray(yhat, dtype=np.float64)
    m = np.asarray(mixed_label, dtype=np.float64)
    if yhat.shape != m.shape:
        raise ParameterError("prediction and mixed label shapes differ")
    ny = float(np.sqrt((yhat ** 2).sum()))
    nm = float(np.sqrt((m ** 2).sum()))
    if ny == 0.0 or nm == 0.0:
        raise NumericDomainError("degenerate cosine: zero-norm prediction or label")
    dot = float((yhat * m).sum())
    value = -dot / (ny * nm)
    grad = -m / (ny * nm) + dot * yhat / (ny ** 3 * nm)
    return value, grad


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

def loss_gsb(r_sup: float, con: float, spatial: float, mix: float,
             lam: float = DEFAULT_LAMBDA) -> float:
    """The balanced objective r_sup + con + lambda*(spatial + mix) of the
    four term values."""
    return r_sup + con + _checked_non_negative("lambda", lam) * (spatial + mix)
