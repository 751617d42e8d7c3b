"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (loops, brute force) and shares no
code with the package paths it checks.  There are two exceptions.
``bresenham_line`` is a one-line view of the package's line drawing that
the tests compare with ``bresenham_line_oracle``.
``dense_stage_tape_oracle`` is the package's former skeleton tape, which
kept each stage's skeleton and delta as whole volumes; it pools and
scatters with the package's ``_pool3`` and ``_scatter3``, which other
oracles here pin, so it checks only how the tape stores the stages.
"""

import hashlib
import math

import numpy as np
from scipy import ndimage

from tubekit.skeleton import _lines, _pool3, _scatter3


def cylinder_voxel_count(dims, spacing, radius_mm):
    """Enumerate voxels whose centre lies within radius of the z axis
    through the volume centre."""
    nx, ny, nz = dims
    sx, sy, sz = spacing
    cx = (nx - 1) / 2.0 * sx
    cy = (ny - 1) / 2.0 * sy
    count = 0
    for x in range(nx):
        for y in range(ny):
            d = math.hypot(x * sx - cx, y * sy - cy)
            if d <= radius_mm:
                count += nz
    return count


def dense_convolve3(vol, kernel):
    """Direct triple-loop 3D convolution with replicate padding."""
    kx, ky, kz = kernel.shape
    rx, ry, rz = kx // 2, ky // 2, kz // 2
    padded = np.pad(vol, ((rx, rx), (ry, ry), (rz, rz)), mode="edge")
    out = np.zeros_like(vol, dtype=np.float64)
    nx, ny, nz = vol.shape
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                patch = padded[x:x + kx, y:y + ky, z:z + kz]
                out[x, y, z] = float((patch * kernel).sum())
    return out


def gaussian_kernel_1d(sigma, spacing):
    radius = math.ceil(3.0 * sigma / spacing)
    xs = np.arange(-radius, radius + 1, dtype=np.float64) * spacing
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def jacobi_eigenvalues(mat, sweeps=50, tol=1e-14):
    """Classical Jacobi rotations for a symmetric 3x3 matrix.

    Returns eigenvalues sorted by ascending magnitude.
    """
    a = np.array(mat, dtype=np.float64)
    for _ in range(sweeps):
        off = abs(a[0, 1]) + abs(a[0, 2]) + abs(a[1, 2])
        if off < tol * (1.0 + abs(a).max()):
            break
        for p in range(2):
            for q in range(p + 1, 3):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta ** 2 + 1.0))
                c = 1.0 / math.sqrt(t ** 2 + 1.0)
                s = t * c
                rot = np.eye(3)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    eig = np.diag(a).copy()
    return eig[np.argsort(np.abs(eig), kind="stable")]


def eig3_symmetric_field_oracle(comps):
    """Analytic eigenvalues ordered by a stable argsort on magnitude.

    The package's former ``eig3_symmetric_field``, kept unchanged: the
    three roots are stacked, argsorted and gathered with take_along_axis.
    """
    c = np.asarray(comps, dtype=np.float64)
    hxx, hxy, hxz, hyy, hyz, hzz = (c[..., i] for i in range(6))

    q = (hxx + hyy + hzz) / 3.0
    p1 = hxy ** 2 + hxz ** 2 + hyz ** 2
    p2 = (hxx - q) ** 2 + (hyy - q) ** 2 + (hzz - q) ** 2 + 2.0 * p1
    p = np.sqrt(p2 / 6.0)

    scale = np.maximum(np.abs(hxx), np.maximum(np.abs(hyy), np.abs(hzz)))
    scale = np.maximum(scale, np.sqrt(p1))
    degenerate = p <= 1e-12 * (1.0 + scale)
    p_safe = np.where(degenerate, 1.0, p)

    bxx, byy, bzz = (hxx - q) / p_safe, (hyy - q) / p_safe, (hzz - q) / p_safe
    bxy, bxz, byz = hxy / p_safe, hxz / p_safe, hyz / p_safe
    det_b = (bxx * (byy * bzz - byz ** 2)
             - bxy * (bxy * bzz - byz * bxz)
             + bxz * (bxy * byz - byy * bxz))
    phi = np.arccos(np.clip(det_b / 2.0, -1.0, 1.0)) / 3.0

    e_hi = q + 2.0 * p * np.cos(phi)
    e_lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e_mid = 3.0 * q - e_hi - e_lo

    # Degenerate (p ~ 0) matrices are q*I up to the residual tolerance.
    e_hi = np.where(degenerate, hxx, e_hi)
    e_mid = np.where(degenerate, hyy, e_mid)
    e_lo = np.where(degenerate, hzz, e_lo)

    stacked = np.stack([e_hi, e_mid, e_lo], axis=0)
    order = np.argsort(np.abs(stacked), axis=0, kind="stable")
    lam = np.take_along_axis(stacked, order, axis=0)
    return lam[0], lam[1], lam[2]


def gaussian_smooth_oracle(data, spacing, sigma):
    """The package's former ``gaussian_smooth``: three whole-volume
    replicate-boundary passes on a float64 copy, rounded to float32."""
    smooth = np.asarray(data, dtype=np.float64)
    for axis in range(3):
        smooth = ndimage.correlate1d(smooth, gaussian_kernel_1d(sigma, spacing[axis]),
                                     axis=axis, mode="nearest")
    return smooth.astype(np.float32)


def _hessian_whole_volume_oracle(data, spacing, sigma):
    """Smooth (rounded to float32), differentiate with the edge-padded
    whole volume, scale by sigma^2 and round: float32 (..., 6)."""
    f = gaussian_smooth_oracle(data, spacing, sigma).astype(np.float64)
    g = np.pad(f, 1, mode="edge")
    sx, sy, sz = spacing

    def sl(dx, dy, dz):
        return g[1 + dx: g.shape[0] - 1 + dx,
                 1 + dy: g.shape[1] - 1 + dy,
                 1 + dz: g.shape[2] - 1 + dz]

    derivatives = (
        (sl(1, 0, 0) - 2.0 * f + sl(-1, 0, 0)) / (sx * sx),
        (sl(1, 1, 0) - sl(1, -1, 0) - sl(-1, 1, 0) + sl(-1, -1, 0)) / (4.0 * sx * sy),
        (sl(1, 0, 1) - sl(1, 0, -1) - sl(-1, 0, 1) + sl(-1, 0, -1)) / (4.0 * sx * sz),
        (sl(0, 1, 0) - 2.0 * f + sl(0, -1, 0)) / (sy * sy),
        (sl(0, 1, 1) - sl(0, 1, -1) - sl(0, -1, 1) + sl(0, -1, -1)) / (4.0 * sy * sz),
        (sl(0, 0, 1) - 2.0 * f + sl(0, 0, -1)) / (sz * sz),
    )
    comps = np.empty(f.shape + (6,), dtype=np.float32)
    for i, d in enumerate(derivatives):
        comps[..., i] = d * (sigma * sigma)
    return comps


def _jerman_oracle(l2, l3, lambda3_max, tau):
    """The former whole-field response: every branch formed everywhere."""
    cap = tau * lambda3_max
    lp = np.where(l3 > cap, l3, np.where(l3 > 0.0, cap, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = l2 ** 2 * (lp - l2) * (3.0 / (lp + l2)) ** 3
    resp = np.where((l2 <= 0.0) | (lp <= 0.0), 0.0,
                    np.where(l2 >= lp / 2.0, 1.0, mid))
    return np.clip(resp, 0.0, 1.0)


def vesselness_multiscale_oracle(vol, params):
    """The package's former whole-volume ``vesselness_multiscale``.

    Every scale materialises the Hessian, the eigenvalues and the response
    of the whole volume at once, and the maximum of l3 is taken over the
    finished field.  ``vol`` needs ``dims``, ``spacing`` and ``data``,
    ``params`` needs ``tau``, ``scales`` and ``polarity``; returns the
    float32 response array.
    """
    sign = -1.0 if params.polarity == "bright" else 1.0
    best = np.zeros(vol.dims, dtype=np.float64)
    for sigma in params.scales:
        comps = _hessian_whole_volume_oracle(vol.data, vol.spacing, sigma)
        _, l2, l3 = eig3_symmetric_field_oracle(comps)
        l2, l3 = sign * l2, sign * l3
        lambda3_max = max(float(l3.max()), 0.0)
        np.maximum(best, _jerman_oracle(l2, l3, lambda3_max, params.tau), out=best)
    return best.astype(np.float32)


def brute_surface_distances(surf_a, surf_b, spacing):
    """All-pairs directed distances between surface voxel sets (mm)."""
    sa = np.asarray(surf_a, dtype=np.float64) * np.asarray(spacing)
    sb = np.asarray(surf_b, dtype=np.float64) * np.asarray(spacing)
    d_ab = np.empty(len(sa))
    for i, p in enumerate(sa):
        d_ab[i] = np.sqrt(((sb - p) ** 2).sum(axis=1)).min()
    d_ba = np.empty(len(sb))
    for i, p in enumerate(sb):
        d_ba[i] = np.sqrt(((sa - p) ** 2).sum(axis=1)).min()
    hd = max(d_ab.max(), d_ba.max())
    assd = (d_ab.sum() + d_ba.sum()) / (len(sa) + len(sb))
    ahd = (d_ab.mean() + d_ba.mean()) / 2.0
    return hd, assd, ahd


def surface_voxels_bruteforce(mask):
    """Foreground voxels with a background 6-neighbor (border = background)."""
    fg = np.asarray(mask, dtype=bool)
    nx, ny, nz = fg.shape
    out = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not fg[x, y, z]:
                    continue
                for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    u, v, w = x + dx, y + dy, z + dz
                    if not (0 <= u < nx and 0 <= v < ny and 0 <= w < nz) or not fg[u, v, w]:
                        out.append((x, y, z))
                        break
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def conv3d_same_oracle(x, w):
    """Zero-padded same convolution over every tap, in (dz, dy, dx) order,
    x (C_in, D, H, W), w (C_out, C_in, k, k, k)."""
    k = w.shape[2]
    r = k // 2
    xp = np.pad(x, ((0, 0), (r, r), (r, r), (r, r)))
    _, d, h, wd = x.shape
    out = np.zeros((w.shape[0], d, h, wd))
    for dz in range(k):
        for dy in range(k):
            for dx in range(k):
                patch = xp[:, dz:dz + d, dy:dy + h, dx:dx + wd]
                out += np.einsum("oc,c...->o...", w[:, :, dz, dy, dx], patch)
    return out


def spatial_pair_sum_bruteforce(yhat, guide, sigma_l, sigma_c, radius):
    """Enumerate every ordered in-window pair; returns (sum, nonzero pairs)."""
    nx, ny, nz = yhat.shape
    total = 0.0
    n = 0
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                for dx in range(-radius, radius + 1):
                    for dy in range(-radius, radius + 1):
                        for dz in range(-radius, radius + 1):
                            if not (dx or dy or dz):
                                continue
                            u, v, w = x + dx, y + dy, z + dz
                            if not (0 <= u < nx and 0 <= v < ny and 0 <= w < nz):
                                continue
                            k = math.exp(-((dx * dx + dy * dy + dz * dz)
                                           / (2.0 * sigma_l ** 2)
                                           + (guide[x, y, z] - guide[u, v, w]) ** 2
                                           / (2.0 * sigma_c ** 2)))
                            term = k * yhat[x, y, z] * yhat[u, v, w]
                            total += term
                            if yhat[x, y, z] * yhat[u, v, w] != 0.0:
                                n += 1
    return total, n


def _oracle_window_offsets(radius):
    for dz in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                if dx or dy or dz:
                    yield dx, dy, dz


def _oracle_shift_slices(shape, d):
    sa, sb = [], []
    for n, o in zip(shape, d):
        if o >= 0:
            sa.append(slice(0, max(n - o, 0)))
            sb.append(slice(o, n))
        else:
            sa.append(slice(-o, n))
            sb.append(slice(0, max(n + o, 0)))
    return tuple(sa), tuple(sb)


def spatial_loss_oracle(yhat, guide, sigma_l, sigma_c, radius):
    """The package's former ``loss_spatial_array`` loop, kept unchanged:
    fresh temporaries per offset, the kernel as exp(-(c1 + diff**2*c2))
    and n_pairs from one count_nonzero(a*b) per offset.  Returns
    (value, grad, n_pairs).  Its slices are clamped to length 0 where an
    offset reaches past an axis; the former code gave an axis of 2 a
    one-cell slice at offset 3 and failed."""
    yhat = np.asarray(yhat, dtype=np.float64)
    guide = np.asarray(guide, dtype=np.float64)
    total = 0.0
    n_pairs = 0
    grad = np.zeros_like(yhat)
    inv_2sl2 = 1.0 / (2.0 * sigma_l ** 2)
    inv_2sc2 = 1.0 / (2.0 * sigma_c ** 2)

    for d in _oracle_window_offsets(radius):
        sa, sb = _oracle_shift_slices(yhat.shape, d)
        a, b = yhat[sa], yhat[sb]
        k = np.exp(-((d[0] ** 2 + d[1] ** 2 + d[2] ** 2) * inv_2sl2
                     + (guide[sa] - guide[sb]) ** 2 * inv_2sc2))
        term = k * a * b
        total += float(term.sum())
        n_pairs += int(np.count_nonzero(a * b))
        grad[sa] += k * b
        grad[sb] += k * a
    n = max(1, n_pairs)
    return total / n, grad / n, n_pairs


def uncertain_prediction_oracle(y, yhat, roi_mask, beta):
    """The package's former ``uncertain_prediction_array``: the weights
    w = y + beta*y^c*R + y^c*R^c by whole-volume float64 arithmetic, in
    place in the order of y + (1 - y) * (beta * r + (1 - r)).  Returns
    (w * yhat, w)."""
    y = np.asarray(y, dtype=np.float64)
    r = np.asarray(roi_mask, dtype=np.float64)
    w = np.multiply(beta, r)
    w += np.subtract(1.0, r)
    w *= np.subtract(1.0, y)
    w += y
    return w * yhat, w


def neighbor_counts_bruteforce(mask):
    """Foreground 26-neighbors of every voxel (self excluded), by loops."""
    fg = np.asarray(mask, dtype=bool)
    nx, ny, nz = fg.shape
    out = np.zeros(fg.shape, dtype=np.int64)
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dz in (-1, 0, 1):
                            u, v, w = x + dx, y + dy, z + dz
                            if ((dx or dy or dz) and 0 <= u < nx and 0 <= v < ny
                                    and 0 <= w < nz and fg[u, v, w]):
                                out[x, y, z] += 1
    return out


# ---------------------------------------------------------------------------
# soft skeleton recurrence: stacked argmin/argmax pooling, all k iterations
# ---------------------------------------------------------------------------

def _oracle_pool_pass(arr, axis, mode):
    """One 3-wide zero-padded min/max pass; offsets in {-1, 0, +1} name the
    first winning source cell (the left pad wins ties at -1)."""
    pad = [(0, 0)] * 3
    pad[axis] = (1, 1)
    g = np.pad(arr, pad, constant_values=0.0)
    n = arr.shape[axis]
    sl = [slice(None)] * 3
    views = []
    for o in (0, 1, 2):
        sl[axis] = slice(o, o + n)
        views.append(g[tuple(sl)])
    stack = np.stack(views, axis=0)
    sel = np.argmin(stack, axis=0) if mode == "min" else np.argmax(stack, axis=0)
    out = np.take_along_axis(stack, sel[None], axis=0)[0]
    return out, (sel - 1).astype(np.int8)


def _oracle_pool3(arr, mode, record=None):
    out = arr
    offs = []
    for axis in (0, 1, 2):
        out, off = _oracle_pool_pass(out, axis, mode)
        offs.append(off)
    if record is not None:
        record.append(offs)
    return out


def pool3_scipy_oracle(arr, mode, record=None):
    """The package's former ``_pool3``: scipy's 3-tap min/max filters with
    a zero constant, and offsets from comparisons with the neighbours."""
    pool = ndimage.minimum_filter1d if mode == "min" else ndimage.maximum_filter1d
    offs = []
    for axis in (0, 1, 2):
        out = pool(arr, 3, axis=axis, mode="constant", cval=0.0)
        if record is not None:
            off = np.where(arr == out, np.int8(0), np.int8(1))
            a, p, o = (np.moveaxis(v, axis, 0) for v in (arr, out, off))
            o[0][p[0] == 0.0] = -1  # the zero pad left of the first cell
            o[1:][a[:-1] == p[1:]] = -1
            offs.append(off)
        arr = out
    if record is not None:
        record.append(offs)
    return arr


def scatter3_padded_oracle(grad, offs):
    """The package's former ``_scatter3``: per axis a zeroed accumulator
    two cells longer, adding the selections for offsets -1, 0, +1."""
    for axis in (2, 1, 0):
        shp = list(grad.shape)
        shp[axis] += 2
        acc = np.zeros(shp, dtype=grad.dtype)
        sl = [slice(None)] * 3
        for o in (-1, 0, 1):
            sl[axis] = slice(1 + o, 1 + o + grad.shape[axis])
            acc[tuple(sl)] += np.where(offs[axis] == o, grad, 0.0)
        sl[axis] = slice(1, -1)
        grad = acc[tuple(sl)]
    return grad


def _oracle_scatter_pass(grad, off, axis):
    shp = list(grad.shape)
    shp[axis] += 2
    acc = np.zeros(shp, dtype=grad.dtype)
    sl = [slice(None)] * 3
    for o in (-1, 0, 1):
        contrib = np.where(off == o, grad, 0.0)
        sl[axis] = slice(1 + o, 1 + o + grad.shape[axis])
        acc[tuple(sl)] += contrib
    sl[axis] = slice(1, -1)  # gradient routed into the pad is dropped
    return acc[tuple(sl)]


def _oracle_scatter3(grad, offs):
    out = grad
    for axis in (2, 1, 0):
        out = _oracle_scatter_pass(out, offs[axis], axis)
    return out


class soft_skeleton_tape_oracle:
    """Skeleton recurrence with a selection tape, running all ``iterations``
    erosions even after the image is empty; each iteration erodes, then
    opens the eroded image with two fresh poolings."""

    def __init__(self, img, iterations):
        img = np.asarray(img, dtype=np.float64)
        self.iterations = iterations
        self.skels = []
        self.deltas = []
        self.masks_delta = []
        self.masks_t = []
        self.pool_open = []    # (erode offs, dilate offs) per stage 0..k
        self.pool_erode = []   # erode offs per stage 1..k

        rec = []
        er = _oracle_pool3(img, "min", rec)
        opened = _oracle_pool3(er, "max", rec)
        self.pool_open.append((rec[0], rec[1]))
        s_in = img - opened
        self.masks_s0 = s_in > 0
        skel = np.where(self.masks_s0, s_in, 0.0)
        self.skels.append(skel)

        for _ in range(iterations):
            rec = []
            img = _oracle_pool3(img, "min", rec)
            self.pool_erode.append(rec[0])
            er = _oracle_pool3(img, "min", rec)
            opened = _oracle_pool3(er, "max", rec)
            self.pool_open.append((rec[1], rec[2]))

            d_in = img - opened
            mask_d = d_in > 0
            delta = np.where(mask_d, d_in, 0.0)
            t_in = delta - skel * delta
            mask_t = t_in > 0
            t = np.where(mask_t, t_in, 0.0)
            skel = skel + t

            self.deltas.append(delta)
            self.masks_delta.append(mask_d)
            self.masks_t.append(mask_t)
            self.skels.append(skel)

    @property
    def skeleton(self):
        return self.skels[-1]

    def backward(self, grad_out):
        g_skel = np.asarray(grad_out, dtype=np.float64).copy()
        g_img = np.zeros_like(g_skel)
        for i in range(self.iterations, 0, -1):
            g_tin = np.where(self.masks_t[i - 1], g_skel, 0.0)
            g_delta = g_tin * (1.0 - self.skels[i - 1])
            g_skel = g_skel - g_tin * self.deltas[i - 1]
            g_din = np.where(self.masks_delta[i - 1], g_delta, 0.0)
            g_img += g_din
            er_offs, di_offs = self.pool_open[i]
            g_er = _oracle_scatter3(-g_din, di_offs)
            g_img += _oracle_scatter3(g_er, er_offs)
            g_img = _oracle_scatter3(g_img, self.pool_erode[i - 1])
        g_s0 = np.where(self.masks_s0, g_skel, 0.0)
        g_img += g_s0
        er_offs, di_offs = self.pool_open[0]
        g_er = _oracle_scatter3(-g_s0, di_offs)
        g_img += _oracle_scatter3(g_er, er_offs)
        return g_img

    def signature(self):
        """Digest of every discrete selection made in the forward pass."""
        h = hashlib.sha256()
        h.update(self.masks_s0.tobytes())
        for m in self.masks_delta:
            h.update(m.tobytes())
        for m in self.masks_t:
            h.update(m.tobytes())
        for er, di in self.pool_open:
            for o in er + di:
                h.update(o.tobytes())
        for offs in self.pool_erode:
            for o in offs:
                h.update(o.tobytes())
        return h.digest()


class dense_stage_tape_oracle:
    """The package's former ``SoftSkeletonTape``: the same recurrence,
    stopping rule and pooling codes, with each stage's (skeleton in,
    delta) kept as whole float64 volumes, stage 0's skeleton the scalar 0.
    Its ``backward`` reads the two on the gradient's support, and its
    ``signature`` hashes each stage's masks from the whole volumes."""

    def __init__(self, img, iterations):
        img = np.asarray(img, dtype=np.float64)
        self.stages, self.pools = [], []
        skel = np.float64(0)
        eroded = _pool3(img, "min", self.pools)
        for i in range(iterations + 1):
            delta = _pool3(eroded, "max", self.pools)
            delta = np.maximum(img - delta, 0.0)
            t = np.maximum(delta - skel * delta, 0.0)
            self.stages.append((skel, delta))
            skel = skel + t
            if i >= iterations or not eroded.any():
                break
            img = eroded
            eroded = _pool3(img, "min", self.pools)
        self.skeleton = skel
        self.iterations = len(self.stages) - 1

    def backward(self, grad_out):
        grad_out = np.asarray(grad_out, dtype=np.float64)
        shape = self.skeleton.shape
        idx = np.flatnonzero(grad_out)
        g_skel = grad_out.ravel()[idx]
        img_idx, g_img = np.empty(0, dtype=np.intp), np.empty(0)
        for i in range(self.iterations, -1, -1):
            skel, delta = self.stages[i]
            d = delta.ravel()[idx]
            s = skel.ravel()[idx] if i else skel
            on = d - s * d > 0
            g_t, g_din = g_skel[on], (g_skel * (1.0 - s))[on]
            g_skel[on] = g_t - g_t * d[on]
            er_idx, g_er = _scatter3(idx[on], -g_din, self.pools[2 * i + 1], shape)
            op_idx, g_op = _scatter3(er_idx, g_er, self.pools[2 * i], shape)
            img_idx, inv = np.unique(np.concatenate([img_idx, idx[on], op_idx]),
                                     return_inverse=True)
            g_img = np.bincount(inv, np.concatenate([g_img, g_din, g_op]), len(img_idx))
            if i:
                img_idx, g_img = _scatter3(img_idx, g_img, self.pools[2 * i - 2], shape)
        out = np.zeros(grad_out.size)
        out[img_idx] = g_img
        return out.reshape(shape)

    def signature(self):
        h = hashlib.sha256()
        h.update(self.iterations.to_bytes(4, "little"))
        for skel, delta in self.stages:
            h.update((delta > 0).tobytes())
            h.update((delta - skel * delta > 0).tobytes())
        for code in self.pools:
            for axis in range(3):
                h.update((code // 3 ** axis % 3).astype(np.int8) - 1)
        return h.digest()


# ---------------------------------------------------------------------------
# skeleton reconnection: one dense distance matrix per component
# ---------------------------------------------------------------------------

def _oracle_linear(coords, dims):
    nx, ny, _ = dims
    return coords[:, 0] + nx * (coords[:, 1] + ny * coords[:, 2])


def _oracle_sorted(coords, dims):
    return coords[np.argsort(_oracle_linear(coords, dims), kind="stable")]


def _oracle_components(fg):
    """26-connected labels, ids ordered by each component's first voxel
    in x-fastest linear order; returns (labels, sizes by id - 1)."""
    from scipy import ndimage

    raw, n = ndimage.label(fg, structure=np.ones((3, 3, 3), dtype=bool))
    remap = np.zeros(n + 1, dtype=np.int64)
    for v in raw.ravel(order="F"):
        if v and not remap[v]:
            remap[v] = remap.max() + 1
    labels = remap[raw]
    return labels, np.bincount(labels.ravel(), minlength=n + 1)[1:]


def components_oracle(fg):
    """Labels 26-connected ids 1..n by each component's first voxel in
    x-fastest order, renumbering ndimage.label's C-order ids through a sort of the
    whole volume; returns (labels, count)."""
    from scipy import ndimage

    raw, n = ndimage.label(fg, structure=np.ones((3, 3, 3), dtype=bool))
    if n == 0:
        return raw.astype(np.int32), 0
    flat = raw.ravel(order="F")
    ids, first = np.unique(flat, return_index=True)
    keep = ids != 0
    order = np.argsort(first[keep], kind="stable")
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[ids[keep][order]] = np.arange(1, n + 1, dtype=np.int32)
    return remap[raw], n


def _oracle_neighbor_counts(fg):
    """Foreground 26-neighbors of every voxel, as a sum of shifted copies."""
    pad = np.pad(fg.astype(np.int64), 1)
    nx, ny, nz = fg.shape
    total = sum(pad[dx:dx + nx, dy:dy + ny, dz:dz + nz]
                for dx in range(3) for dy in range(3) for dz in range(3))
    return total - fg


def bresenham_line_oracle(a, b):
    """Integer 3D line from a to b inclusive, one voxel per driving step."""
    p = np.array(a, dtype=np.int64)
    d = np.abs(np.array(b, dtype=np.int64) - p)
    step = np.sign(np.array(b, dtype=np.int64) - p)
    axis = int(np.argmax(d))
    err = [2 * d[i] - d[axis] for i in range(3)]
    pts = [p.copy()]
    for _ in range(int(d[axis])):
        p[axis] += step[axis]
        for i in range(3):
            if i != axis:
                if err[i] > 0:
                    p[i] += step[i]
                    err[i] -= 2 * d[axis]
                err[i] += 2 * d[i]
        pts.append(p.copy())
    return np.array(pts, dtype=np.int64)


def bresenham_line(a, b):
    """``skeleton._lines`` for the one line from a to b."""
    return _lines(np.array([a], dtype=np.int64), np.array([b], dtype=np.int64))


def _oracle_nearest_pair(src, dst, dims):
    """Closest (source, target) pair; ties by smallest linear indices."""
    diff = src[:, None, :].astype(np.float64) - dst[None, :, :].astype(np.float64)
    dist = np.sqrt((diff ** 2).sum(axis=2))
    lin_src = _oracle_linear(src, dims)
    lin_dst = _oracle_linear(dst, dims)
    # per-source nearest target, ties -> smallest target linear index
    order_dst = np.argsort(lin_dst, kind="stable")
    dist_sorted = dist[:, order_dst]
    j_sorted = np.argmin(dist_sorted, axis=1)
    best_d = dist_sorted[np.arange(len(src)), j_sorted]
    best_j = order_dst[j_sorted]
    # pair with minimal distance, ties -> smallest source linear index
    order_src = np.argsort(lin_src, kind="stable")
    i_best = order_src[int(np.argmin(best_d[order_src]))]
    return src[i_best], dst[best_j[i_best]]


def _oracle_reconnect_pass(fg, labels, sizes, segments):
    dims = fg.shape
    largest = int(np.argmax(sizes)) + 1
    counts = _oracle_neighbor_counts(fg)
    ep_all = _oracle_sorted(np.argwhere(fg & (counts <= 1)), dims)
    ep_labels = labels[ep_all[:, 0], ep_all[:, 1], ep_all[:, 2]]
    lines = np.zeros(dims, dtype=bool)
    for cid in range(1, len(sizes) + 1):
        if cid == largest:
            continue
        src = ep_all[ep_labels == cid]
        if src.size == 0:  # endpoint-free component (e.g. a ring)
            src = _oracle_sorted(np.argwhere(labels == cid), dims)
        dst = ep_all[ep_labels != cid]
        if dst.size == 0:  # no endpoints anywhere else: aim at any voxel
            dst = _oracle_sorted(np.argwhere(fg & (labels != cid)), dims)
        a, b = _oracle_nearest_pair(src, dst, dims)
        pts = bresenham_line_oracle(a, b)
        lines[pts[:, 0], pts[:, 1], pts[:, 2]] = True
        segments.append((tuple(int(v) for v in a), tuple(int(v) for v in b)))
    return lines


def reconnect_oracle(fg0):
    """Reconnection loop, one component at a time: each pass recomputes
    the endpoints, builds a dense |src| x |dst| distance matrix per
    non-largest component and draws its closest pair; passes repeat
    until one component remains.  Returns (mask, segments)."""
    fg = np.array(fg0, dtype=bool)
    segments = []
    while True:
        labels, sizes = _oracle_components(fg)
        if len(sizes) <= 1:
            return fg, segments
        fg |= _oracle_reconnect_pass(fg, labels, sizes, segments)


# ---------------------------------------------------------------------------
# tree metrics: one breadth-first walk per branch
# ---------------------------------------------------------------------------

def _walk_lengths(coords, inside, spacing):
    """(total, detected) mm length of a branch's 26-connected chain.

    Walks a BFS spanning tree from the smallest-linear-index voxel with
    neighbors visited in linear order; for simple paths this is the path
    itself.  A step counts as detected when both endpoints are inside."""
    order = np.lexsort((coords[:, 0], coords[:, 1], coords[:, 2]))
    coords = coords[order]
    inside = inside[order]
    index = {tuple(c): i for i, c in enumerate(map(tuple, coords))}
    sp = np.asarray(spacing, dtype=np.float64)
    seen = {0}
    queue = [0]
    total = detected = 0.0
    while queue:
        i = queue.pop(0)
        ci = coords[i]
        x, y, z = ci
        near = ((x + dx, y + dy, z + dz) for dx, dy, dz in _oracle_window_offsets(1))
        for j in sorted(index[t] for t in near if t in index):
            if j in seen:
                continue
            seen.add(j)
            queue.append(j)
            step = float(np.sqrt((((coords[j] - ci) * sp) ** 2).sum()))
            total += step
            if inside[i] and inside[j]:
                detected += step
    return total, detected


def tree_metrics_oracle(p, centerline, spacing):
    """(bd, tld) of ``metrics.tree_metrics``, one branch at a time: the
    branches are the components of the centerline without its junctions
    (>= 3 neighbours), or of the whole centerline when that leaves none;
    each branch's length is ``_walk_lengths``, added in branch order."""
    labels, sizes = _oracle_components(
        centerline & (_oracle_neighbor_counts(centerline) < 3))
    if len(sizes) == 0:
        labels, sizes = _oracle_components(centerline)
    if len(sizes) == 0:
        raise ValueError("reference centerline has no branches")
    detected_branches = 0
    total_len = detected_len = 0.0
    for c in range(1, len(sizes) + 1):
        coords = np.argwhere(labels == c)
        inside = p[tuple(coords.T)]
        detected_branches += bool(inside.any())
        t, d = _walk_lengths(coords, inside, spacing)
        total_len += t
        detected_len += d
    bd = 100.0 * detected_branches / len(sizes)
    if total_len > 0:
        return bd, 100.0 * detected_len / total_len
    return bd, 100.0 * int(p[labels > 0].sum()) / int(sizes.sum())


# ---------------------------------------------------------------------------
# phantoms: the whole volume at once
# ---------------------------------------------------------------------------

def _oracle_dist_to_segment(px, py, pz, a, b):
    ab = np.subtract(b, a, dtype=np.float64)
    denom = float(ab @ ab)
    apx, apy, apz = px - a[0], py - a[1], pz - a[2]
    if denom == 0.0:
        return np.sqrt(apx ** 2 + apy ** 2 + apz ** 2)
    t = np.clip((apx * ab[0] + apy * ab[1] + apz * ab[2]) / denom, 0.0, 1.0)
    dx = apx - t * ab[0]
    dy = apy - t * ab[1]
    dz = apz - t * ab[2]
    return np.sqrt(dx ** 2 + dy ** 2 + dz ** 2)


def _oracle_centerline_distance(spec, dims, spacing):
    from scipy.spatial import cKDTree

    nx, ny, nz = dims
    sx, sy, sz = spacing
    cx = (nx - 1) / 2.0 * sx
    cy = (ny - 1) / 2.0 * sy
    ax = [np.arange(d, dtype=np.float64) * s for d, s in zip(dims, spacing)]
    px, py, pz = np.meshgrid(*ax, indexing="ij")

    if spec.kind in ("cylinder", "gapped_cylinder"):
        return np.sqrt((px - cx) ** 2 + (py - cy) ** 2)
    if spec.kind == "bifurcation":
        z_top = (nz - 1) * sz
        z_split = z_top / 2.0
        trunk = _oracle_dist_to_segment(px, py, pz, (cx, cy, 0.0), (cx, cy, z_split))
        reach = z_top - z_split
        left = _oracle_dist_to_segment(px, py, pz, (cx, cy, z_split),
                                       (cx - reach, cy, z_top))
        right = _oracle_dist_to_segment(px, py, pz, (cx, cy, z_split),
                                        (cx + reach, cy, z_top))
        return np.minimum(trunk, np.minimum(left, right))
    turns = 2.0  # helix
    amp = min((nx - 1) * sx, (ny - 1) * sy) / 4.0
    t = np.linspace(0.0, 1.0, 8 * nz)
    theta = 2.0 * np.pi * turns * t
    curve = np.column_stack([cx + amp * np.cos(theta), cy + amp * np.sin(theta),
                             t * (nz - 1) * sz])
    pts = np.column_stack([px.ravel(), py.ravel(), pz.ravel()])
    d, _ = cKDTree(curve).query(pts)
    return d.reshape(dims)


def phantom_oracle(spec, dims, spacing):
    """The package's former whole-volume ``make_phantom`` body: distance,
    label, gap and noise for every voxel at once, an exact helix
    distance everywhere.  Returns (float32 image, uint8 label) arrays.
    The noise comes from ``tubekit.rng.normal``, the generator both
    sides share; what is checked is how counters map to voxels."""
    from tubekit.rng import normal

    label = _oracle_centerline_distance(spec, dims, spacing) <= spec.radius_mm
    if spec.kind == "gapped_cylinder" and spec.gap_len_voxels > 0:
        gap = int(spec.gap_len_voxels)
        z0 = (dims[2] - gap) // 2
        label[:, :, z0:z0 + gap] = False
    img = spec.background_intensity + (
        spec.foreground_intensity - spec.background_intensity) * label.astype(np.float64)
    if spec.noise_sigma > 0:
        counters = np.arange(label.size, dtype=np.uint64)
        noise = normal(spec.seed, counters).reshape(dims, order="F")
        img = img + spec.noise_sigma * noise
    return img.astype(np.float32), label.astype(np.uint8)
