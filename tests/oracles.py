"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (loops, brute force) and shares no
code with the package paths it checks.
"""

import hashlib
import math

import numpy as np


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


def central_difference(fn, x, voxel, h=1e-3):
    """Two-sided finite difference of a scalar function at one voxel."""
    xp = np.array(x, dtype=np.float64)
    xp[voxel] += h
    xm = np.array(x, dtype=np.float64)
    xm[voxel] -= h
    return (fn(xp) - fn(xm)) / (2.0 * h)


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
