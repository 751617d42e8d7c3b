"""Growth/suppression loss suite with analytic gradients.

Four terms act on a probability prediction: relaxed supervision and
skeleton-connectivity push vessels to grow, while spatial-similarity and
mix-equivalence penalties suppress noise; the combined objective weights
the suppression pair by lambda.

Every loss returns (value, gradient-with-respect-to-the-prediction).
Public ``*_array`` functions do the numerics on float64 ndarrays; the
wrappers accept the volume containers and return Volume3 gradients.
The connectivity term treats the reconnected skeleton as a constant
pseudo-label (no gradient through the reconnection), and differentiates
through the pooling recurrence via the recorded selection tape.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, ParameterError
from .skeleton import SoftSkeletonParams, SoftSkeletonTape, _reconnect_array
from .volume import Mask3, RoiBox, Volume3

DEFAULT_EPSILON = 1e-7


@dataclass(frozen=True)
class RelaxedSupConfig:
    """beta = None selects the auto ratio 1/ln(sum(y^c)/sum(y))."""

    beta: float = None
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.beta is not None and not np.isfinite(self.beta):
            raise ParameterError("beta must be finite or None")
        if not self.epsilon > 0:
            raise ParameterError("epsilon must be positive")


@dataclass(frozen=True)
class GatedKernelParams:
    """Gaussian pair kernel: location bandwidth (voxels), intensity
    bandwidth (image units), cube window radius; self-pairs excluded."""

    sigma_l: float = 1.5
    sigma_c: float = 0.1
    radius: int = 2
    mode: str = "joint"  # "joint" = k*y_i*y_j as printed; "gated" = k*y_i*(1-y_j)

    def __post_init__(self):
        if not (self.sigma_l > 0 and self.sigma_c > 0):
            raise ParameterError("sigma_l and sigma_c must be positive")
        if self.radius < 1:
            raise ParameterError("radius must be >= 1")
        if self.mode not in ("joint", "gated"):
            raise ParameterError(f"mode must be joint or gated, got {self.mode!r}")


@dataclass(frozen=True, eq=False)
class MixSample:
    alpha: float
    x_mixed: Volume3
    y1: Mask3 = None
    y2: Mask3 = None


@dataclass(frozen=True, eq=False)
class LossBreakdown:
    """Values and prediction-gradients of the four terms plus the
    lambda-weighted total = r_sup + con + lambda*(spatial + mix)."""

    r_sup: float
    con: float
    spatial: float
    mix: float
    grad_r_sup: Volume3
    grad_con: Volume3
    grad_spatial: Volume3
    grad_mix: Volume3
    lam: float
    total: float


def _as64(a) -> np.ndarray:
    return np.asarray(a.data if hasattr(a, "data") else a, dtype=np.float64)


def _check_unit_range(a: np.ndarray, name: str):
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ParameterError(f"{name} values must lie in [0, 1]")


# ---------------------------------------------------------------------------
# relaxed supervision
# ---------------------------------------------------------------------------

def resolve_beta(y: np.ndarray, cfg: RelaxedSupConfig) -> float:
    if cfg.beta is not None:
        return float(cfg.beta)
    s_pos = float(y.sum())
    s_neg = float(y.size - s_pos)
    if s_pos < 1:
        raise NumericDomainError("beta undefined: label has no positives")
    if s_neg <= s_pos:
        raise NumericDomainError(
            "beta undefined: sum(y^c) must exceed sum(y) for the log ratio")
    return 1.0 / math.log(s_neg / s_pos)


def _relaxed_inputs(y: Mask3, yhat: Volume3, cfg: RelaxedSupConfig):
    """Validated float64 (label, prediction) and the resolved beta."""
    if y.dims != yhat.dims:
        raise ParameterError("label and prediction shapes differ")
    pred = _as64(yhat)
    _check_unit_range(pred, "prediction")
    lab = _as64(y)
    if lab.sum() < 1:
        raise NumericDomainError("relaxed supervision needs at least one positive voxel")
    return lab, pred, resolve_beta(lab, cfg)


def uncertain_prediction_array(y, yhat, roi_mask, beta):
    """Returns (yhat', w) where yhat' = w * yhat and
    w = y + beta*y^c*R + y^c*R^c routes the three certainty regimes."""
    y = np.asarray(y, dtype=np.float64)
    r = np.asarray(roi_mask, dtype=np.float64)
    w = y + (1.0 - y) * (beta * r + (1.0 - r))
    return w * yhat, w


def uncertain_prediction(y: Mask3, yhat: Volume3, roi: RoiBox,
                         cfg: RelaxedSupConfig = RelaxedSupConfig()) -> Volume3:
    lab, pred, beta = _relaxed_inputs(y, yhat, cfg)
    yp, _ = uncertain_prediction_array(lab, pred, roi.indicator(y.dims), beta)
    return Volume3(yhat.dims, yhat.spacing, yp.astype(np.float32))


def loss_r_sup_array(y, yhat, roi_mask, beta, eps=DEFAULT_EPSILON):
    """Relaxed Dice + positive-voxel cross entropy, with exact gradient."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    yp, w = uncertain_prediction_array(y, yhat, roi_mask, beta)

    s_inter = float((y * yhat).sum())
    denom = float(y.sum()) + float(yp.sum()) + eps
    dice = -s_inter / denom

    n = y.size
    ce = -float((y * np.log(yp + eps)).sum()) / n

    grad = (-y / denom + (s_inter / denom ** 2) * w
            - (y * w) / ((yp + eps) * n))
    return dice + ce, grad


def loss_r_sup(y: Mask3, yhat: Volume3, roi: RoiBox,
               cfg: RelaxedSupConfig = RelaxedSupConfig()):
    lab, pred, beta = _relaxed_inputs(y, yhat, cfg)
    value, grad = loss_r_sup_array(lab, pred, roi.indicator(y.dims), beta, cfg.epsilon)
    return value, Volume3(yhat.dims, yhat.spacing, grad.astype(np.float32))


# ---------------------------------------------------------------------------
# skeleton connectivity
# ---------------------------------------------------------------------------

def loss_con_array(yhat, iterations=10, threshold=0.5, eps=DEFAULT_EPSILON,
                   support="reconnected"):
    """Cross entropy between the soft skeleton and its reconnected
    (constant) counterpart, averaged over the supervised support."""
    if support not in ("reconnected", "drawn"):
        raise ParameterError(f"support must be reconnected or drawn, got {support!r}")
    yhat = np.asarray(yhat, dtype=np.float64)
    _check_unit_range(yhat, "prediction")
    tape = SoftSkeletonTape(yhat, iterations)
    ys = tape.skeleton
    hard = ys >= threshold
    if not hard.any():
        return 0.0, np.zeros_like(yhat)
    rec, _ = _reconnect_array(hard)
    cover = rec if support == "reconnected" else rec & ~hard
    n = max(1, int(cover.sum()))
    value = -float(np.log(ys[cover] + eps).sum()) / n
    g_skel = np.where(cover, -1.0 / ((ys + eps) * n), 0.0)
    return value, tape.backward(g_skel)


def loss_con_signature(yhat, iterations=10, threshold=0.5) -> bytes:
    """Digest of every discrete choice in the connectivity loss: pooling
    selections, relu signs, threshold mask, and reconnected support.
    Equal signatures at x-h, x, x+h certify a tie-free direction."""
    yhat = np.asarray(yhat, dtype=np.float64)
    tape = SoftSkeletonTape(yhat, iterations)
    hard = tape.skeleton >= threshold
    h = hashlib.sha256()
    h.update(tape.signature())
    h.update(hard.tobytes())
    if hard.any():
        rec, _ = _reconnect_array(hard)
        h.update(rec.tobytes())
    return h.digest()


def loss_con(yhat: Volume3, skel_params: SoftSkeletonParams = SoftSkeletonParams(),
             threshold=0.5, eps=DEFAULT_EPSILON, support="reconnected"):
    value, grad = loss_con_array(_as64(yhat), skel_params.iterations,
                                 threshold, eps, support)
    return value, Volume3(yhat.dims, yhat.spacing, grad.astype(np.float32))


# ---------------------------------------------------------------------------
# spatial similarity suppression
# ---------------------------------------------------------------------------

def _window_offsets(radius: int):
    for dz in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                if dx or dy or dz:
                    yield dx, dy, dz


def _shift_slices(shape, d):
    """Index pairs (sl_a, sl_b) with b = a + d, both inside the volume."""
    sa, sb = [], []
    for n, o in zip(shape, d):
        if o >= 0:
            sa.append(slice(0, n - o))
            sb.append(slice(o, n))
        else:
            sa.append(slice(-o, n))
            sb.append(slice(0, n + o))
    return tuple(sa), tuple(sb)


def loss_spatial_array(yhat, guide, params: GatedKernelParams):
    """Mean pairwise activation penalty over the cube window.

    Returns (value, grad, n_pairs) where n_pairs counts the ordered
    in-bounds pairs with a nonzero term (the normalizer N).
    """
    yhat = np.asarray(yhat, dtype=np.float64)
    guide = np.asarray(guide, dtype=np.float64)
    if yhat.shape != guide.shape:
        raise ParameterError("prediction and guide shapes differ")

    total = 0.0
    n_pairs = 0
    grad = np.zeros_like(yhat)
    inv_2sl2 = 1.0 / (2.0 * params.sigma_l ** 2)
    inv_2sc2 = 1.0 / (2.0 * params.sigma_c ** 2)

    for d in _window_offsets(params.radius):
        sa, sb = _shift_slices(yhat.shape, d)
        a, b = yhat[sa], yhat[sb]
        k = np.exp(-((d[0] ** 2 + d[1] ** 2 + d[2] ** 2) * inv_2sl2
                     + (guide[sa] - guide[sb]) ** 2 * inv_2sc2))
        if params.mode == "joint":
            term = k * a * b
            total += float(term.sum())
            n_pairs += int(np.count_nonzero(a * b))
            grad[sa] += k * b
            grad[sb] += k * a
        else:
            term = k * a * (1.0 - b)
            total += float(term.sum())
            n_pairs += int(np.count_nonzero(a * (1.0 - b)))
            grad[sa] += k * (1.0 - b)
            grad[sb] -= k * a
    n = max(1, n_pairs)
    return total / n, grad / n, n_pairs


def loss_spatial(yhat: Volume3, guide: Volume3,
                 params: GatedKernelParams = GatedKernelParams()):
    if yhat.dims != guide.dims:
        raise ParameterError("prediction and guide shapes differ")
    value, grad, _ = loss_spatial_array(_as64(yhat), _as64(guide), params)
    return value, Volume3(yhat.dims, yhat.spacing, grad.astype(np.float32))


# ---------------------------------------------------------------------------
# mix equivalence
# ---------------------------------------------------------------------------

def mix_inputs(x1: Volume3, x2: Volume3, alpha: float,
               y1: Mask3 = None, y2: Mask3 = None) -> MixSample:
    if x1.dims != x2.dims:
        raise ParameterError("mix inputs must share dims")
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0,1], got {alpha}")
    mixed = alpha * _as64(x1) + (1.0 - alpha) * _as64(x2)
    return MixSample(alpha, Volume3(x1.dims, x1.spacing, mixed.astype(np.float32)),
                     y1, y2)


def loss_mix_array(yhat, mixed_label):
    """Negative cosine similarity between prediction and mixed label."""
    yhat = np.asarray(yhat, dtype=np.float64)
    m = np.asarray(mixed_label, dtype=np.float64)
    ny = float(np.sqrt((yhat ** 2).sum()))
    nm = float(np.sqrt((m ** 2).sum()))
    if ny == 0.0 or nm == 0.0:
        raise NumericDomainError("degenerate cosine: zero-norm prediction or label")
    dot = float((yhat * m).sum())
    value = -dot / (ny * nm)
    grad = -m / (ny * nm) + dot * yhat / (ny ** 3 * nm)
    return value, grad


def loss_mix(yhat_mixed: Volume3, y1: Mask3, y2: Mask3, alpha: float):
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0,1], got {alpha}")
    if y1.dims != yhat_mixed.dims or y2.dims != yhat_mixed.dims:
        raise ParameterError("labels and prediction must share dims")
    m = alpha * _as64(y1) + (1.0 - alpha) * _as64(y2)
    value, grad = loss_mix_array(_as64(yhat_mixed), m)
    return value, Volume3(yhat_mixed.dims, yhat_mixed.spacing, grad.astype(np.float32))


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

def loss_gsb(r_sup, con, spatial, mix, lam: float = 1.0) -> LossBreakdown:
    """Assemble the balanced objective from the four (value, grad) parts."""
    if lam < 0:
        raise ParameterError("lambda must be non-negative")
    values = [p[0] for p in (r_sup, con, spatial, mix)]
    total = values[0] + values[1] + lam * (values[2] + values[3])
    return LossBreakdown(
        r_sup=values[0], con=values[1], spatial=values[2], mix=values[3],
        grad_r_sup=r_sup[1], grad_con=con[1],
        grad_spatial=spatial[1], grad_mix=mix[1],
        lam=lam, total=total,
    )
