"""Multi-scale Hessian analysis and the Jerman tubularity response.

The response of a voxel is driven by the magnitude-ordered eigenvalues
(l1, l2, l3) of the scale-normalized Hessian.  Bright tubes on a dark
background produce l2 ~ l3 << 0, so for that polarity l2 and l3 are
negated before the response is evaluated; the regularized lp replaces l3
with a volume-level floor tau * max(l3) to keep low-contrast vessels
from vanishing.  Each scale is smoothed one x-block at a time straight
into the float32 scale, then differentiated on flat runs of one float64
buffer per slab and eigen-solved in slabs of planes along axis 0; blocks
and slabs follow the slab plan of ``tubekit.workers`` and are parts of its
pool, so each worker has one in flight.  A voxel can respond
only if sign*tr(H) >= |H|_F / sqrt(3), up to the margin ``_cut`` proves,
and only such voxels are eigen-solved, at most a quarter slab at a time:
about a third of a noisy volume.  A slab keeps a bit mask of the voxels
where the signed l2 and l3 are both > 0 and their l2 and l3, its
candidates' max(l3) and the largest bound |H|_F >= sign*l3 of the voxels
it ruled out.  A second pass, one plane at a time, differentiates again
only the slabs whose bound exceeds the candidates' max, and solves there
the ruled-out voxels above it.  The peak memory is about one float64
volume field (the smoothed scale and the running max in float32) plus,
per worker, a slab's work of up to 5.6 float64 per slab voxel, and where
every voxel responds, the kept eigenvalues add 2 fields.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .errors import ParameterError
from .volume import Volume3
from .workers import parallel_map, slabs

DEFAULT_TAU = 0.5
DEFAULT_SCALES = (1.0, 1.5, 2.0, 3.0)
_MARGIN = 1e-9  # of _cut, relative to |H|_F


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
    with np.errstate(over="ignore"):  # a tiny sigma's outer taps are exp(-inf) = 0
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
    preserved exactly.  Per x-block, the x pass sums shifted planes in
    float64 in correlate1d's symmetric-kernel order (the centre, then each
    pair j = r..1 apart), then the y pass and the z pass, straight into
    the float32 result: every line is filtered whole, in x, y, z order."""
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    _check_kernel_radius(data.shape, spacing, sigma)
    src = np.asarray(data)
    kx, ky, kz = (_gaussian_kernel(sigma, s) for s in spacing)
    out, (nx, ny, nz), r = np.empty(src.shape, dtype=np.float32), src.shape, len(kx) // 2

    def block(s):
        lo, hi = s.start, s.stop
        # planes lo - r .. hi + r - 1; only blocks near an end gather clamped ones
        ext = (src[lo - r:hi + r] if r <= lo and hi + r <= nx
               else src[np.clip(np.arange(lo - r, hi + r), 0, nx - 1)])
        acc = np.multiply(ext[r:r + hi - lo], kx[r], dtype=np.float64)
        t = np.empty_like(acc)
        for j in range(r, 0, -1):
            np.add(ext[r - j:r - j + hi - lo], ext[r + j:r + j + hi - lo], out=t, dtype=np.float64)
            acc += np.multiply(t, kx[r - j], out=t)
        correlate1d(acc, ky, axis=1, output=t, mode="nearest")
        correlate1d(t, kz, axis=2, output=out[s], mode="nearest")

    parallel_map(block, slabs(nx, ny * nz))
    return out


def _divide(t: np.ndarray, d: float):
    """t /= d in place for d > 0, bit for bit.  t / 2^k and t * 2^-k round
    the same real number once, so a power of two whose reciprocal is
    finite is a multiply, and 1 is nothing."""
    m, e = math.frexp(d)
    if m != 0.5 or e < -1022:
        t /= d
    elif d != 1.0:
        t *= math.ldexp(1.0, 1 - e)


def hessian_at_scale(smooth: np.ndarray, spacing, sigma: float,
                     planes: slice) -> np.ndarray:
    """sigma^2 times the Hessian of ``smooth`` on ``planes`` along axis 0,
    edge-replicated only at the volume's ends: float32 components
    (..., 6), (xx, xy, xz, yy, yz, zz), mm^-2, a view of six contiguous
    planes.  Central differences in mm units, each formed in place on
    flat runs of one float64 buffer: the slab with its edge-replicated rim
    between zeroed margins of a row + 1; the rim's results are dropped."""
    if min(smooth.shape) < 5:
        raise ParameterError(f"dims {smooth.shape} too small for the second-derivative stencil")
    lo, hi = planes.start, planes.stop
    nx, ny, nz = smooth.shape
    row, plane, n = nz + 2, (ny + 2) * (nz + 2), (hi - lo) * (ny + 2) * (nz + 2)
    buf = np.empty(n + 2 * plane + 2 * (row + 1))
    buf[:row + 1] = buf[-row - 1:] = 0.0
    g = buf[row + 1:-row - 1].reshape(hi - lo + 2, ny + 2, nz + 2)
    g[1:-1, 1:-1, 1:-1] = smooth[lo:hi]
    g[0, 1:-1, 1:-1], g[-1, 1:-1, 1:-1] = smooth[max(lo - 1, 0)], smooth[min(hi, nx - 1)]
    g[:, 1:-1, [0, -1]] = g[:, 1:-1, [1, -2]]  # the edge mode of np.pad, axis by axis
    g[:, [0, -1]] = g[:, [1, -2]]

    def sl(dx, dy, dz):
        o = row + 1 + plane * (1 + dx) + row * dy + dz
        return buf[o:o + n]

    t, comps = np.empty(n), np.empty((6, hi - lo, ny, nz), dtype=np.float32)
    with np.errstate(over="ignore"):  # an overflow to inf is the error below
        for k, (i, j) in enumerate(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))):
            e, u = np.eye(3, dtype=int)[[i, j]]
            if i == j:  # (f[+e] - 2f + f[-e]) / s^2, 2f formed in t
                np.multiply(sl(0, 0, 0), 2.0, out=t)
                np.add(np.subtract(sl(*e), t, out=t), sl(*-e), out=t)
                _divide(t, spacing[i] * spacing[i])
            else:  # (f[+e+u] - f[+e-u] - f[-e+u] + f[-e-u]) / (4 s_e s_u)
                np.subtract(np.subtract(sl(*e + u), sl(*e - u), out=t), sl(*u - e), out=t)
                t += sl(*-e - u)
                _divide(t, 4.0 * spacing[i] * spacing[j])
            t *= sigma * sigma
            comps[k] = t.reshape(hi - lo, ny + 2, nz + 2)[:, 1:-1, 1:-1]
    if not np.isfinite([comps.min(), comps.max()]).all():  # NaN propagates
        raise ParameterError("Hessian components must be finite")
    return np.moveaxis(comps, 0, -1)


def _by_magnitude(a: np.ndarray, b: np.ndarray, ma: np.ndarray, mb: np.ndarray):
    """Strict compare-swap, in place, of float64 a, b of magnitudes ma, mb:
    b first only if mb < ma.  The bits move through uint64 views."""
    a, b = a.view(np.uint64), b.view(np.uint64)
    x = np.bitwise_xor(a, b)
    x *= ma > mb
    a ^= x
    b ^= x


def _invariants(h: np.ndarray):
    """q = tr(H)/3, p = |H - qI|/sqrt(6), the degenerate (p ~ 0) mask and
    det(B)/2 for B = (H - qI)/p, from float32 planes h (xx, xy, xz, yy, yz,
    zz).  The diagonal is cast to float64 once, and each off-diagonal row
    of B is formed from h when first read, in a row no longer read, so at
    most eight rows are live; bxz is formed twice, with the same bits."""
    xx, xy, xz, yy, yz, zz = h
    p1, t = np.square(xy, dtype=float), np.square(xz, dtype=float)
    p1 += t
    p1 += np.square(yz, out=t, dtype=float)
    tol = np.maximum(np.sqrt(p1, out=t), np.abs(h[[0, 3, 5]]).max(axis=0), out=t)
    np.multiply(np.add(tol, 1.0, out=tol), 1e-12, out=tol)
    bxx, byy, bzz = diag = np.array((xx, yy, zz), dtype=float)
    q = np.add(bxx, byy)
    np.divide(np.add(q, bzz, out=q), 3.0, out=q)
    diag -= q
    p, u = np.square(bxx), np.square(byy)
    p += u
    p += np.square(bzz, out=u)
    p += np.multiply(p1, 2.0, out=p1)
    np.sqrt(np.divide(p, 6.0, out=p), out=p)
    degenerate = p <= tol
    d = np.where(degenerate, 1.0, p) if degenerate.any() else p
    diag /= d
    det, byz = p1, np.divide(yz, d, out=tol, dtype=float)  # det(B) by cofactors of the first row
    np.subtract(np.multiply(byy, bzz, out=det), np.square(byz, out=u), out=det)
    det *= bxx
    bxy = np.divide(xy, d, out=bxx, dtype=float)
    np.multiply(bxy, bzz, out=u)
    v = np.multiply(np.divide(xz, d, out=bzz, dtype=float), byz, out=bzz)
    det -= np.multiply(np.subtract(u, v, out=u), bxy, out=u)
    np.multiply(bxy, byz, out=u)
    bxz = np.divide(xz, d, out=byz, dtype=float)
    np.subtract(u, np.multiply(byy, bxz, out=bxy), out=u)
    det += np.multiply(u, bxz, out=u)
    return q, p, degenerate, np.divide(det, 2.0, out=det)


def eig3_symmetric_field(comps: np.ndarray):
    """Eigenvalues of a field of symmetric 3x3 matrices, magnitude-ordered.

    comps: (..., 6) ordered (xx, xy, xz, yy, yz, zz).  Uses the analytic
    trigonometric solution; near-multiple spectra fall back to the
    diagonal, which is exact in that limit.  Returns (l1, l2, l3) arrays
    with |l1| <= |l2| <= |l3|; equal magnitudes keep the order
    (largest, middle, smallest root), or (xx, yy, zz) when degenerate.
    """
    c = np.asarray(comps)
    h = np.moveaxis(c.reshape(-1, 6), -1, 0)  # planes: a view of hessian_at_scale's
    q, p, degenerate, half_det = _invariants(h)
    lam = np.empty((3,) + q.shape)  # the roots (largest, middle, smallest)
    np.arccos(np.clip(half_det, -1.0, 1.0, out=half_det), out=lam[0])
    np.add(np.divide(lam[0], 3.0, out=lam[0]), 2.0 * np.pi / 3.0, out=lam[2])
    ends = np.cos(lam[::2], out=lam[::2])
    np.add(np.multiply(ends, np.multiply(p, 2.0, out=p), out=ends), q, out=ends)
    np.subtract(np.multiply(q, 3.0, out=lam[1]), lam[0], out=lam[1])
    lam[1] -= lam[2]
    del q, p  # free their rows before the sorting network's

    # Degenerate (p ~ 0) matrices are q*I up to the residual tolerance.
    if degenerate.any():
        np.copyto(lam, h[[0, 3, 5]], where=degenerate)

    # Sorting network (0,1), (1,2), (0,1) of strict swaps: a stable sort.
    m = np.abs(lam)  # min/max carry them, exact for NaN-free roots
    _by_magnitude(lam[0], lam[1], m[0], m[1])
    m0 = np.minimum(m[0], m[1], out=half_det)
    np.maximum(m[0], m[1], out=m[1])
    _by_magnitude(lam[1], lam[2], m[1], m[2])
    _by_magnitude(lam[0], lam[1], m0, np.minimum(m[1], m[2], out=m[1]))
    return tuple(r.reshape(c.shape[:-1]) for r in lam)


def _jerman_response(l2: np.ndarray, l3: np.ndarray, lambda3_max: float,
                     tau: float) -> np.ndarray:
    """Branchwise response; callers pass polarity-adjusted eigenvalues.
    The middle branch is formed everywhere, then selected; lp is read only
    where l3 > 0, and there it equals max(l3, tau * lambda3_max)."""
    lp = np.maximum(l3, tau * lambda3_max)
    pos, t = (l2 > 0.0) & (l3 > 0.0), lp / 2.0
    one, mid = (l2 >= t) & pos, (l2 < t) & pos
    with np.errstate(all="ignore"):  # 0 * inf and the like outside the middle branch
        r = np.multiply(np.square(l2), np.subtract(lp, l2, out=t))
        np.divide(3.0, np.add(lp, l2, out=t), out=t)
        # |t| changes no middle-branch bit, where lp + l2 > 0: pow is slow on negatives
        r *= np.power(np.abs(t, out=t), 3, out=t)
    return np.where(mid, np.clip(r, 0.0, 1.0, out=r), one)


def _cut(h: np.ndarray, sign: float):
    """(keep, bound) for the float32 Hessian planes h (xx, xy, xz, yy, yz,
    zz): keep holds every voxel that can respond, bound >= sign*l3 at each.

    With mu = sign * the magnitude-ordered roots, a responding voxel has
    mu2, mu3 > 0 and |mu1| <= mu2, so sum(mu) >= mu3 > 0 and
    sum(mu^2) <= 3 mu3^2.  The trig solve's roots are q + 2p cos(phi +
    2k pi/3) for its angle phi, however inexact: they sum to tr(H), their
    squares to |H|_F^2, each within a few ulps of |H|_F, so none exceeds
    (1 + m) |H|_F.  The q*I fallback's roots are the diagonal, each at
    most |H|_F: sum tr(H), squares within 6 tol^2 of |H|_F^2, where
    tol = 1e-12 (1 + max|.|).  So a responding voxel has sign*tr(H) > 0
    and sign*tr(H) + sqrt(2) tol >= (1 - m) |H|_F / sqrt(3), for
    m = _MARGIN far above the rounding and 2e-12 above tol's absolute
    part.  The bound is formed in float64, where the squares of float32
    components are exact and finite."""
    n = np.square(h[1], dtype=np.float64)
    t = np.empty_like(n)
    for k in (2, 4, 0, 3, 5):
        if k == 0:
            n *= 2.0  # each off-diagonal counts twice
        n += np.square(h[k], out=t, dtype=np.float64)
    np.sqrt(n, out=n)
    np.add(h[0], h[3], out=t, dtype=np.float64)
    t += h[5]
    t *= sign
    keep = t > 0.0
    t += 2e-12  # above sqrt(2) times the fallback's absolute tolerance
    t *= math.sqrt(3.0) / (1.0 - _MARGIN)
    keep &= t > n
    return keep, np.multiply(n, 1.0 + _MARGIN, out=n)


def vesselness_multiscale(vol: Volume3, params: JermanParams) -> Volume3:
    """Maximum Jerman response over the configured scales, in [0, 1]; the
    slabs, the cut and the second pass are as the module describes.  The
    largest scale's kernel is checked before any scale runs."""
    _check_kernel_radius(vol.dims, vol.spacing, params.scales[-1])  # scales increase
    sign = -1.0 if params.polarity == "bright" else 1.0
    best = np.zeros(vol.dims, dtype=np.float32)  # rounding is monotone: max commutes
    for sigma in params.scales:
        smooth = gaussian_smooth(vol.data, vol.spacing, sigma)

        def planes(s):
            h = hessian_at_scale(smooth, vol.spacing, sigma, s)
            return np.moveaxis(h, -1, 0).reshape(6, -1)

        def signed(c):  # max signed l3 of candidates c; where signed l2, l3 > 0, both
            _, l2, l3 = eig3_symmetric_field(c.T)
            np.multiply(sign, l2, out=l2)
            np.multiply(sign, l3, out=l3)
            pos = (l2 > 0.0) & (l3 > 0.0)
            return float(l3.max(initial=0.0)), pos, l2.compress(pos), l3.compress(pos)

        def eigen(s):
            h = planes(s)
            keep, bound = _cut(h, sign)
            out, bound = float(np.multiply(bound, ~keep, out=bound).max()), None
            h = np.compress(keep, h, axis=1)  # frees the slab's planes
            parts = max(1, -(-4 * h.shape[1] // keep.size))  # at most a quarter slab at once
            tops, pos, e2, e3 = zip(*map(signed, np.array_split(h, parts, axis=1)))
            pos, e2, e3 = (x[0] if len(x) == 1 else np.concatenate(x) for x in (pos, e2, e3))
            keep[np.flatnonzero(keep)] = pos
            return max(tops), out, s, np.packbits(keep), e2, e3

        def rest(s, top):  # max(l3) of the ruled-out voxels whose bound exceeds top
            h = planes(s)
            keep, bound = _cut(h, sign)
            _, _, e3 = eig3_symmetric_field(np.compress(~keep & (bound > top), h, axis=1).T)
            return float(np.multiply(sign, e3, out=e3).max(initial=0.0))

        kept = parallel_map(eigen, slabs(vol.dims[0], vol.dims[1] * vol.dims[2]))
        top = max(k[0] for k in kept)
        # One plane at a time: every kept eigenvalue is held while it runs.
        lambda3_max = max([top] + [rest(slice(x, x + 1), top) for k in kept if k[1] > top
                                   for x in range(k[2].start, k[2].stop)])
        smooth = None  # free before the responses

        def respond(k):
            # Elsewhere the response is +0.0, which leaves best's bits as they are.
            _, _, s, bits, e2, e3 = k
            resp = _jerman_response(e2, e3, lambda3_max, params.tau).astype(np.float32)
            slab, idx = best[s].reshape(-1), np.flatnonzero(np.unpackbits(bits).view(bool))
            slab[idx] = np.maximum(slab.take(idx), resp)

        parallel_map(respond, kept)
        kept = None  # free before the next scale is smoothed
    return Volume3(vol.dims, vol.spacing, best)
