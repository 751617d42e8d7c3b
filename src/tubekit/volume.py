"""Core volume/mask containers, synthetic tube phantoms, and .tvol file I/O.

Conventions shared by every module:

* arrays are indexed ``data[x, y, z]`` with shape ``(nx, ny, nz)``;
* the linear order of a voxel is x-fastest: ``x + nx*(y + ny*z)``, which
  is the Fortran ravel of the array above (used for file payloads and
  every deterministic tie-break in the toolkit);
* volumes are float32, masks are uint8 holding exactly {0, 1}; both
  carry their voxel spacing in mm, which every .tvol header stores:
  ``load_tvol`` returns it on the container and ``save_tvol`` writes the
  object's own, so a container takes only a spacing that stays finite
  and positive in float32 (``ParameterError`` otherwise);
* containers are frozen after construction (numpy buffers are marked
  read-only), so instances are safe to share across threads.

The .tvol format (little-endian, no padding):

    magic "TVOL1" | dtype u8 (0 = f32 volume, 1 = u8 mask)
    | nx, ny, nz as u32 | sx, sy, sz as f32 | payload, x-fastest
"""

import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import FileFormatError, NumericDomainError, ParameterError
from .rng import normal
from .workers import parallel_map, slabs

_MAGIC = b"TVOL1"
_HEAD = struct.Struct("<B3I3f")  # dtype code, dims, spacing
_DTYPE_VOLUME = 0
_DTYPE_MASK = 1

PHANTOM_KINDS = ("cylinder", "gapped_cylinder", "bifurcation", "helix")
DEFAULT_ROI_MARGIN = 2  # voxels added around the label's positives
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# |z| of a Box-Muller deviate with u1 >= 2^-53 is at most sqrt(106 ln 2) = 8.572
_NOISE_REACH = 8.58


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _check_grid(dims, spacing, size):
    """Normalised (dims, spacing) of a container holding ``size`` voxels."""
    grid = tuple(int(d) for d in dims)
    sp = tuple(float(s) for s in spacing)
    if len(grid) != 3 or any(d < 1 for d in grid):
        raise ParameterError(f"dims must be three counts >= 1, got {dims}")
    with np.errstate(over="ignore", under="ignore"):
        header = np.array(sp, dtype=np.float32)  # as a .tvol header stores it
    if len(sp) != 3 or not (np.isfinite(header).all() and (header > 0).all()):
        raise ParameterError(
            f"spacing must be three finite positives, also in float32, got {spacing}")
    if size != grid[0] * grid[1] * grid[2]:
        raise ParameterError(f"data length {size} does not match dims {grid}")
    return grid, sp


@dataclass(frozen=True, eq=False)
class Volume3:
    """Dense 3D scalar field with voxel spacing in millimetres."""

    dims: tuple
    spacing: tuple
    data: np.ndarray  # float32, shape == dims

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        dims, spacing = _check_grid(self.dims, self.spacing, data.size)
        data = data.reshape(dims)
        if not np.isfinite([data.min(), data.max()]).all():  # NaN propagates; no bool payload
            raise ParameterError("volume data contains non-finite values")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", _freeze(data))


@dataclass(frozen=True, eq=False)
class Mask3:
    """Dense 3D binary field with voxel spacing in millimetres; same
    indexing conventions as Volume3.  Equality compares dims and data
    only."""

    dims: tuple
    data: np.ndarray  # uint8, values in {0, 1}
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        dims, spacing = _check_grid(self.dims, self.spacing, data.size)
        data = data.reshape(dims)
        if data.dtype != np.uint8:
            parts = slabs(dims[0], dims[1] * dims[2])  # no payload copy
            if not all(np.isin(data[s], (0, 1)).all() for s in parts):
                raise ParameterError("mask values must be exactly 0 or 1")
            data = data.astype(np.uint8)
        elif data.max(initial=0) > 1:
            raise ParameterError("mask values must be exactly 0 or 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", _freeze(data))

    def count(self) -> int:
        return int(self.data.sum())

    def __eq__(self, other):
        return (isinstance(other, Mask3) and self.dims == other.dims
                and np.array_equal(self.data, other.data))


@dataclass(frozen=True)
class RoiBox:
    """Axis-aligned inclusive voxel box [min, max]."""

    min: tuple
    max: tuple

    def __post_init__(self):
        lo = tuple(int(v) for v in self.min)
        hi = tuple(int(v) for v in self.max)
        if len(lo) != 3 or len(hi) != 3:
            raise ParameterError("RoiBox corners must be 3-vectors")
        if any(a > b for a, b in zip(lo, hi)) or any(a < 0 for a in lo):
            raise ParameterError(f"RoiBox requires 0 <= min <= max, got {lo}..{hi}")
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)

    def indicator(self, dims) -> np.ndarray:
        """Boolean field, True inside the box (clamped to dims)."""
        if any(m >= d for m, d in zip(self.min, dims)):
            raise ParameterError(f"RoiBox {self.min}..{self.max} outside dims {dims}")
        out = np.zeros(dims, dtype=bool)
        sl = tuple(slice(a, min(b + 1, d)) for a, b, d in zip(self.min, self.max, dims))
        out[sl] = True
        return out


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of a synthetic tube phantom (bright tube on dark background).

    Every image value must fit float32: max(|foreground_intensity|,
    |background_intensity|) + 8.58 * noise_sigma, where 8.58 bounds any
    deviate ``rng.normal`` draws, may not exceed float32's max
    (3.4028235e38); beyond it is a ParameterError.  The noise seed lies
    in [0, 2^64), the seeds ``rng.splitmix64`` tells apart."""

    kind: str
    radius_mm: float
    foreground_intensity: float = 1.0
    background_intensity: float = 0.0
    noise_sigma: float = 0.0
    gap_len_voxels: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PHANTOM_KINDS:
            raise ParameterError(f"unknown phantom kind {self.kind!r}")
        if not 0 < self.radius_mm < np.inf:  # NaN fails too
            raise ParameterError("radius_mm must be positive and finite")
        if not self.foreground_intensity > self.background_intensity:
            raise ParameterError("foreground_intensity must exceed background_intensity")
        if not self.noise_sigma >= 0:  # NaN fails too
            raise ParameterError("noise_sigma must be non-negative")
        reach = (max(abs(self.foreground_intensity), abs(self.background_intensity))
                 + _NOISE_REACH * self.noise_sigma)
        if not reach <= _FLOAT32_MAX:
            raise ParameterError(
                f"max(|foreground_intensity|, |background_intensity|) + {_NOISE_REACH} * "
                f"noise_sigma = {reach:g} exceeds float32's max {_FLOAT32_MAX:g}")
        if self.gap_len_voxels < 0 or int(self.gap_len_voxels) != self.gap_len_voxels:
            raise ParameterError("gap_len_voxels must be a non-negative integer")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError(f"seed must lie in [0, 2^64), got {self.seed}")


def _dist_to_segment(px, py, pz, a, b):
    """Euclidean distance from each point to segment a-b (all in mm)."""
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


def _centerline_distance(spec: PhantomSpec, dims, spacing, axes):
    """The phantom's centerline as pieces ``(cols, near_z, dist)``, given
    the voxel-centre coordinates (mm) ``axes`` along x, y and z.
    ``dist`` maps voxel-centre coordinates (px, py, pz) in mm, x and y as
    columns of shape (n, 1) and z of shape (m,), to their distances (mm)
    from the piece, broadcastable to (n, m); only the voxels in the xy
    columns ``cols`` (bool, (nx, ny)) and z planes ``near_z`` (bool,
    (nz,)) can lie within radius_mm of it.  Each region comes from a
    lower bound on the distance, kept with a margin of 2 * radius_mm so
    that rounding cannot drop a voxel: the axis distance of a cylinder;
    |rho - amp| for the helix, whose samples all lie on the cylinder of
    radius amp (rho: a voxel's xy distance from the axis); a bifurcation
    segment's bounding box.  Only distances up to radius_mm matter: the
    helix's nearest-point query stops just past it and reports inf
    beyond; it skips, as inf, voxels whose angle about the axis cannot be
    near a sample's at their height (see its ``dist``).

    gapped_cylinder is handled by the caller via a z-index mask, so here
    it shares the cylinder geometry.
    """
    nx, ny, nz = dims
    sx, sy, sz = spacing
    cx = (nx - 1) / 2.0 * sx
    cy = (ny - 1) / 2.0 * sy
    xs, ys, zs = axes
    margin = 2.0 * spec.radius_mm
    rho = np.sqrt((xs[:, None] - cx) ** 2 + (ys - cy) ** 2)
    every_z = np.ones(nz, dtype=bool)

    if spec.kind in ("cylinder", "gapped_cylinder"):
        return [(rho <= margin, every_z,
                 lambda px, py, pz: np.sqrt((px - cx) ** 2 + (py - cy) ** 2))]

    if spec.kind == "bifurcation":
        z_top = (nz - 1) * sz
        z_split = z_top / 2.0
        reach = z_top - z_split  # children rise at 45 degrees in the x-z plane
        fork = (cx, cy, z_split)
        pieces = []
        for a, b in (((cx, cy, 0.0), fork), (fork, (cx - reach, cy, z_top)),
                     (fork, (cx + reach, cy, z_top))):
            kx, ky, kz = ((ax >= min(u, v) - margin) & (ax <= max(u, v) + margin)
                          for ax, u, v in zip((xs, ys, zs), a, b))
            pieces.append((kx[:, None] & ky, kz,
                           lambda px, py, pz, a=a, b=b: _dist_to_segment(px, py, pz, a, b)))
        return pieces

    if spec.kind == "helix":
        turns = 2.0
        amp = min((nx - 1) * sx, (ny - 1) * sy) / 4.0
        t = np.linspace(0.0, 1.0, 8 * nz)
        theta = 2.0 * np.pi * turns * t
        tree = cKDTree(np.column_stack([cx + amp * np.cos(theta),
                                        cy + amp * np.sin(theta),
                                        t * (nz - 1) * sz]))
        bound = spec.radius_mm * (1.0 + 1e-6)
        climb = 2.0 * np.pi * turns / ((nz - 1) * sz)  # helix angle per mm of z

        def dist(px, py, pz):
            """Only voxels near the helix's angle at their height are queried.
            A sample within ``bound`` of a voxel is within it in z too, so its
            angle is within climb * bound (2 pi turns bound / z_top) of the
            helix's at the voxel's height; and in xy, so seen from the axis it
            is within arcsin(bound / r) of the voxel's angle (r: the voxel's
            rho), any angle if r <= bound.  1e-9 covers rounding."""
            r = np.hypot(px - cx, py - cy)
            spread = np.where(r > bound, np.arcsin(bound / np.maximum(r, bound)), np.pi)
            turn = np.arctan2(py - cy, px - cx) - climb * pz
            near = np.abs((turn + np.pi) % (2.0 * np.pi) - np.pi) <= spread + climb * bound + 1e-9
            d = np.full(near.shape, np.inf)
            at = np.column_stack([a[near] for a in np.broadcast_arrays(px, py, pz)])
            d[near] = tree.query(at, distance_upper_bound=bound)[0]
            return d

        return [(np.abs(rho - amp) <= margin, every_z, dist)]

    raise ParameterError(f"unknown phantom kind {spec.kind!r}")


def make_phantom(spec: PhantomSpec, dims, spacing=(1.0, 1.0, 1.0)):
    """Generate a (image, label) pair for the given phantom spec.

    The label marks voxels whose centre lies within radius_mm of the
    analytic centerline; the image is background + (fg-bg)*label plus
    i.i.d. Gaussian noise drawn from the counter-based generator, so a
    fixed (spec, dims, spacing) reproduces identical bytes.  The work runs
    in the z-slabs of the slab plan, one pool part a slab (both
    ``tubekit.workers``), so the working memory beyond the output does not
    grow with the volume; a slab writes only its own z-range, reads no
    other slab's output, and its noise counters, x-fastest, are one
    contiguous range, so the worker count changes no bit.  Distances are
    computed only in each centerline piece's region and, for the helix,
    near its angle at each height (see ``_centerline_distance``); every
    other voxel is at +inf, beyond any radius, and a computed voxel keeps
    its coordinates and ufuncs, so the bytes are those of an exact
    distance at every voxel.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 16 for d in dims):
        raise ParameterError(f"phantom dims must each be >= 16, got {dims}")
    dims, spacing = _check_grid(dims, spacing, dims[0] * dims[1] * dims[2])
    nx, ny, nz = dims

    in_gap = np.zeros(nz, dtype=bool)
    if spec.kind == "gapped_cylinder" and spec.gap_len_voxels > 0:
        gap = int(spec.gap_len_voxels)
        if gap >= nz:
            raise ParameterError("gap_len_voxels must be smaller than nz")
        in_gap[(nz - gap) // 2:(nz - gap) // 2 + gap] = True

    xs, ys, zs = axes = [np.arange(n, dtype=np.float64) * s for n, s in zip(dims, spacing)]
    pieces = [(*np.nonzero(cols), near_z & ~in_gap, dist_to)
              for cols, near_z, dist_to in _centerline_distance(spec, dims, spacing, axes)]
    image = np.empty(dims, dtype=np.float32)
    label = np.empty(dims, dtype=np.uint8)
    plane = nx * ny

    def part(s):
        z0, z1 = s.start, s.stop
        lab = np.zeros((nx, ny, z1 - z0), dtype=bool)
        for ix, iy, near_z, dist_to in pieces:
            iz = np.flatnonzero(near_z[z0:z1])
            lab[ix[:, None], iy[:, None], iz] |= dist_to(
                xs[ix][:, None], ys[iy][:, None], zs[z0 + iz]) <= spec.radius_mm
        img = spec.background_intensity + (
            spec.foreground_intensity - spec.background_intensity) * lab.astype(np.float64)
        if spec.noise_sigma > 0:
            counters = np.arange(z0 * plane, z1 * plane, dtype=np.uint64)
            noise = normal(spec.seed, counters).reshape((nx, ny, z1 - z0), order="F")
            img = img + spec.noise_sigma * noise
        image[:, :, z0:z1] = img
        label[:, :, z0:z1] = lab

    parallel_map(part, slabs(nz, plane))
    return Volume3(dims, spacing, image), Mask3(dims, label, spacing)


def save_tvol(obj, path) -> None:
    """Write a Volume3 or Mask3, spacing included, to the .tvol format
    (bit-exact round trip), in the z-slabs of ``tubekit.workers.slabs``,
    each transposed to x-fastest order and written straight from its
    array, so that no whole-volume copy of the payload is made."""
    if isinstance(obj, Volume3):
        code, dtype = _DTYPE_VOLUME, np.dtype("<f4")
    elif isinstance(obj, Mask3):
        code, dtype = _DTYPE_MASK, np.dtype(np.uint8)
    else:
        raise ParameterError(f"cannot save object of type {type(obj).__name__}")
    header = _MAGIC + _HEAD.pack(code, *obj.dims, *obj.spacing)
    nx, ny, nz = obj.dims
    with open(path, "wb") as fh:
        fh.write(header)
        for s in slabs(nz, nx * ny):  # (z, y, x) in C order is x-fastest
            fh.write(np.ascontiguousarray(obj.data[:, :, s].T, dtype))


def _read_header(fh, path):
    head = fh.read(len(_MAGIC) + _HEAD.size)
    if len(head) < len(_MAGIC) + _HEAD.size:
        raise FileFormatError(f"{path}: truncated header")
    if head[:len(_MAGIC)] != _MAGIC:
        raise FileFormatError(f"{path}: bad magic {head[:len(_MAGIC)]!r}")
    code, nx, ny, nz, sx, sy, sz = _HEAD.unpack_from(head, len(_MAGIC))
    if code not in (_DTYPE_VOLUME, _DTYPE_MASK):
        raise FileFormatError(f"{path}: unknown dtype code {code}")
    kind = "volume" if code == _DTYPE_VOLUME else "mask"
    return kind, (nx, ny, nz), (sx, sy, sz)


def load_tvol(path):
    """Read a .tvol file back into a Volume3 or Mask3; the one reader.

    The header is checked before any payload byte is read: dims, spacing,
    and the payload length the dims imply against the file's size.  The
    payload is read in the z-slabs of ``tubekit.workers.slabs`` with
    ``readinto`` straight into one C-order array, so one payload is held;
    a short read is a FileFormatError.  The container checks the values;
    its ParameterError becomes a FileFormatError."""
    with open(path, "rb") as fh:
        kind, dims, spacing = _read_header(fh, path)
        if min(dims) < 1:
            raise FileFormatError(f"{path}: bad dims {dims}")
        if any(s <= 0 or not np.isfinite(s) for s in spacing):
            raise FileFormatError(f"{path}: bad spacing {spacing}")
        count = dims[0] * dims[1] * dims[2]
        dtype = np.dtype("<f4") if kind == "volume" else np.dtype(np.uint8)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != count * dtype.itemsize:
            raise FileFormatError(
                f"{path}: length mismatch, header says {count} voxels "
                f"but payload holds {held // dtype.itemsize}")
        nx, ny, nz = dims
        data, parts = np.empty(dims, dtype), slabs(nz, nx * ny)
        chunk = np.empty((parts[0].stop, ny, nx), dtype)  # (z, y, x) in C order is x-fastest
        for s in parts:
            part = chunk[:s.stop - s.start]
            if fh.readinto(part) != part.nbytes:
                raise FileFormatError(f"{path}: truncated payload")
            data[:, :, s] = part.T
    try:
        if kind == "volume":
            return Volume3(dims, spacing, data)
        return Mask3(dims, data, spacing)
    except ParameterError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def roi_from_label(y: Mask3, margin: int = DEFAULT_ROI_MARGIN) -> RoiBox:
    """Tightest box around all positive voxels, dilated by margin, clamped."""
    if margin < 0:
        raise ParameterError("margin must be non-negative")
    pos = np.argwhere(y.data > 0)
    if pos.size == 0:
        raise NumericDomainError("empty label: ROI undefined without positives")
    lo = np.maximum(pos.min(axis=0) - margin, 0)
    hi = np.minimum(pos.max(axis=0) + margin, np.asarray(y.dims) - 1)
    return RoiBox(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
