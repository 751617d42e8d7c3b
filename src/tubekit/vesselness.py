"""Multi-scale Hessian analysis and the Jerman tubularity response.

The response of a voxel is driven by the magnitude-ordered eigenvalues
(l1, l2, l3) of the scale-normalized Hessian.  Bright tubes on a dark
background produce l2 ~ l3 << 0, so for that polarity l2 and l3 are
negated before the response is evaluated; the regularized lp replaces l3
with a volume-level floor tau * max(l3) to keep low-contrast vessels
from vanishing.  Each scale is smoothed whole, then differentiated and
eigen-solved in slabs of planes along axis 0, one slab per part of the
``TUBEKIT_THREADS`` pool (tubekit.workers), with 2^15 voxels in flight
across all workers: the peak memory is a few volume fields (signed l2
and l3 in float64, the running max in float32) plus those slabs' work.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .errors import ParameterError
from .volume import Volume3
from .workers import parallel_map, thread_count

DEFAULT_TAU = 0.5
DEFAULT_SCALES = (1.0, 1.5, 2.0, 3.0)
_SLAB_VOXELS = 1 << 15  # in flight across all workers; a slab is never under one plane


@dataclass(frozen=True)
class JermanParams:
    """Configuration of the multi-scale response."""

    tau: float = DEFAULT_TAU
    scales: tuple = DEFAULT_SCALES
    polarity: str = "bright"

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ParameterError(f"tau must be in [0,1], got {self.tau}")
        scales = tuple(float(s) for s in self.scales)
        if not scales or any(s <= 0 for s in scales):
            raise ParameterError("scales must be non-empty positives")
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise ParameterError("scales must be strictly increasing")
        if self.polarity not in ("bright", "dark"):
            raise ParameterError(f"polarity must be bright or dark, got {self.polarity!r}")
        object.__setattr__(self, "scales", scales)


def _gaussian_kernel(sigma_mm: float, spacing_mm: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma_mm / spacing_mm)
    x = np.arange(-radius, radius + 1, dtype=np.float64) * spacing_mm
    k = np.exp(-0.5 * (x / sigma_mm) ** 2)
    return k / k.sum()


def _check_kernel_radius(dims, spacing, sigma: float):
    """The kernel radius 3*sigma/spacing of every axis is at most the
    largest dimension."""
    limit = max(dims)
    for s in spacing:
        if 3.0 * sigma / s > limit:  # as floats: a tiny spacing never reaches arange
            raise ParameterError(f"kernel radius 3*sigma/spacing exceeds dimension {limit}")


def gaussian_smooth(data: np.ndarray, spacing, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with replicate boundaries, rounded to
    float32.  Kernel radius is ceil(3*sigma/spacing) per axis, at most the
    largest dimension; each 1D kernel sums to 1, so constants are
    preserved exactly."""
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    _check_kernel_radius(data.shape, spacing, sigma)
    src = np.asarray(data)  # the first pass reads it as is
    bufs = (np.empty(src.shape), np.empty(src.shape))
    for axis in range(3):
        src = _correlate_pass(src, bufs[axis % 2], _gaussian_kernel(sigma, spacing[axis]), axis)
    del bufs  # the last pass wrote bufs[0]; free the other before rounding
    return src.astype(np.float32)


def _correlate_pass(src: np.ndarray, out: np.ndarray, kernel: np.ndarray,
                    axis: int) -> np.ndarray:
    """correlate1d along ``axis`` into float64 ``out``, one pool part per
    block of an axis it does not filter: every line is computed whole."""
    other = 1 if axis == 0 else 0
    n = src.shape[other]
    k = min(thread_count(), n)

    def part(i):
        idx = (slice(None),) * other + (slice(i * n // k, (i + 1) * n // k),)
        correlate1d(src[idx], kernel, axis=axis, output=out[idx], mode="nearest")

    parallel_map(part, list(range(k)))
    return out


def _second_derivatives(g: np.ndarray, spacing):
    """Central differences in mm units inside g's 1-voxel rim: xx, xy, xz, yy, yz, zz."""
    f, (sx, sy, sz) = g[1:-1, 1:-1, 1:-1], spacing

    def sl(*shift):
        return g[tuple(slice(1 + d, n - 1 + d) for d, n in zip(shift, g.shape))]

    yield (sl(1, 0, 0) - 2.0 * f + sl(-1, 0, 0)) / (sx * sx)
    yield (sl(1, 1, 0) - sl(1, -1, 0) - sl(-1, 1, 0) + sl(-1, -1, 0)) / (4.0 * sx * sy)
    yield (sl(1, 0, 1) - sl(1, 0, -1) - sl(-1, 0, 1) + sl(-1, 0, -1)) / (4.0 * sx * sz)
    yield (sl(0, 1, 0) - 2.0 * f + sl(0, -1, 0)) / (sy * sy)
    yield (sl(0, 1, 1) - sl(0, 1, -1) - sl(0, -1, 1) + sl(0, -1, -1)) / (4.0 * sy * sz)
    yield (sl(0, 0, 1) - 2.0 * f + sl(0, 0, -1)) / (sz * sz)


def hessian_at_scale(smooth: np.ndarray, spacing, sigma: float,
                     planes: slice) -> np.ndarray:
    """sigma^2 times the Hessian of ``smooth`` on ``planes`` along axis 0,
    edge-replicated only at the volume's ends: float32 components
    (..., 6), (xx, xy, xz, yy, yz, zz), mm^-2."""
    if min(smooth.shape) < 5:
        raise ParameterError(f"dims {smooth.shape} too small for the second-derivative stencil")
    lo, hi = planes.start, planes.stop
    ends = (int(lo == 0), int(hi == smooth.shape[0]))
    g = np.pad(smooth[max(lo - 1, 0):hi + 1], (ends, (1, 1), (1, 1)), mode="edge")
    comps = np.empty((hi - lo,) + smooth.shape[1:] + (6,), dtype=np.float32)
    with np.errstate(over="ignore"):  # an overflow to inf is the error below
        for i, d in enumerate(_second_derivatives(g.astype(np.float64), spacing)):
            comps[..., i] = d * (sigma * sigma)
    if not np.all(np.isfinite(comps)):
        raise ParameterError("Hessian components must be finite")
    return comps


def _by_magnitude(a: np.ndarray, b: np.ndarray, ma: np.ndarray, mb: np.ndarray):
    """Strict compare-swap of a, b of magnitudes ma, mb: b first only if mb < ma."""
    swap = ma > mb
    return np.where(swap, b, a), np.where(swap, a, b)


def _invariants(c: np.ndarray):
    """q = tr(H)/3, p = |H - qI|/sqrt(6), the degenerate (p ~ 0) mask and
    det(B)/2 for B = (H - qI)/p, formed in place in float64 copies."""
    bxx, bxy, bxz, byy, byz, bzz = (c[..., i].astype(np.float64) for i in range(6))
    q = (bxx + byy + bzz) / 3.0
    p1 = bxy ** 2 + bxz ** 2 + byz ** 2
    scale = np.maximum(np.abs(bxx), np.maximum(np.abs(byy), np.abs(bzz)))
    tol = 1e-12 * (1.0 + np.maximum(scale, np.sqrt(p1)))
    for d in (bxx, byy, bzz):
        d -= q
    p = np.sqrt((bxx ** 2 + byy ** 2 + bzz ** 2 + 2.0 * p1) / 6.0)
    degenerate = p <= tol
    p_safe = np.where(degenerate, 1.0, p)
    for b in (bxx, byy, bzz, bxy, bxz, byz):
        b /= p_safe
    det_b = (bxx * (byy * bzz - byz ** 2)
             - bxy * (bxy * bzz - byz * bxz)
             + bxz * (bxy * byz - byy * bxz))
    return q, p, degenerate, det_b / 2.0


def eig3_symmetric_field(comps: np.ndarray):
    """Eigenvalues of a field of symmetric 3x3 matrices, magnitude-ordered.

    comps: (..., 6) ordered (xx, xy, xz, yy, yz, zz).  Uses the analytic
    trigonometric solution; near-multiple spectra fall back to the
    diagonal, which is exact in that limit.  Returns (l1, l2, l3) arrays
    with |l1| <= |l2| <= |l3|; equal magnitudes keep the order
    (largest, middle, smallest root), or (xx, yy, zz) when degenerate.
    """
    c = np.asarray(comps)
    q, p, degenerate, half_det = _invariants(c)
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    e_hi = q + 2.0 * p * np.cos(phi)
    e_lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e_mid = 3.0 * q - e_hi - e_lo

    # Degenerate (p ~ 0) matrices are q*I up to the residual tolerance.
    l1 = np.where(degenerate, c[..., 0], e_hi)
    l2 = np.where(degenerate, c[..., 3], e_mid)
    l3 = np.where(degenerate, c[..., 5], e_lo)

    # Sorting network (0,1), (1,2), (0,1) of strict swaps: a stable sort.
    m1, m2, m3 = np.abs(l1), np.abs(l2), np.abs(l3)  # min/max carry them, exact for NaN-free roots
    l1, l2 = _by_magnitude(l1, l2, m1, m2)
    m1, m2 = np.minimum(m1, m2), np.maximum(m1, m2)
    l2, l3 = _by_magnitude(l2, l3, m2, m3)
    m2 = np.minimum(m2, m3)
    l1, l2 = _by_magnitude(l1, l2, m1, m2)
    return l1, l2, l3


def _jerman_from_arrays(l2: np.ndarray, l3: np.ndarray, lambda3_max: float,
                        tau: float) -> np.ndarray:
    """Branchwise response; callers pass polarity-adjusted eigenvalues."""
    cap = tau * lambda3_max
    lp = np.where(l3 > cap, l3, np.where(l3 > 0.0, cap, 0.0))
    resp = np.asarray((l2 > 0.0) & (lp > 0.0) & (l2 >= lp / 2.0), dtype=np.float64)
    mid = (l2 > 0.0) & (l2 < lp / 2.0)  # implies lp > 0: gather, form, scatter
    a, b = l2[mid], lp[mid]
    resp[mid] = np.clip(a ** 2 * (b - a) * (3.0 / (b + a)) ** 3, 0.0, 1.0)
    return resp


def vesselness_multiscale(vol: Volume3, params: JermanParams) -> Volume3:
    """Maximum Jerman response over the configured scales, in [0, 1].  Slabs
    fill the signed l2/l3; the response, needing max(l3), follows the last.
    The largest scale's kernel is checked before any scale runs."""
    _check_kernel_radius(vol.dims, vol.spacing, params.scales[-1])  # scales increase
    sign = -1.0 if params.polarity == "bright" else 1.0
    n, plane = vol.dims[0], vol.dims[1] * vol.dims[2]
    step = max(1, _SLAB_VOXELS // thread_count() // plane)
    slabs = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    l2, l3 = np.empty(vol.dims), np.empty(vol.dims)
    best = np.zeros(vol.dims, dtype=np.float32)  # rounding is monotone: max commutes
    for sigma in params.scales:
        smooth = gaussian_smooth(vol.data, vol.spacing, sigma)

        def eigen(s):
            _, e2, e3 = eig3_symmetric_field(hessian_at_scale(smooth, vol.spacing, sigma, s))
            np.multiply(sign, e2, out=l2[s])
            np.multiply(sign, e3, out=l3[s])
            return float(l3[s].max())

        lambda3_max = max([0.0] + parallel_map(eigen, slabs))
        smooth = None  # free before the next scale is smoothed

        def respond(s):
            resp = _jerman_from_arrays(l2[s], l3[s], lambda3_max, params.tau)
            np.maximum(best[s], resp.astype(np.float32), out=best[s])

        parallel_map(respond, slabs)
    return Volume3(vol.dims, vol.spacing, best)
