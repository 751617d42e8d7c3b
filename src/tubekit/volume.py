"""Core volume/mask containers, synthetic tube phantoms, and .tvol file I/O.

Conventions shared by every module:

* arrays are indexed ``data[x, y, z]`` with shape ``(nx, ny, nz)``;
* the linear order of a voxel is x-fastest: ``x + nx*(y + ny*z)``, which
  is the Fortran ravel of the array above (used for file payloads and
  every deterministic tie-break in the toolkit);
* volumes are float32, masks are uint8 holding exactly {0, 1}; both
  carry their voxel spacing in mm, which every .tvol header stores;
* containers are frozen after construction (numpy buffers are marked
  read-only), so instances are safe to share across threads.

The .tvol format (little-endian, no padding):

    magic "TVOL1" | dtype u8 (0 = f32 volume, 1 = u8 mask)
    | nx, ny, nz as u32 | sx, sy, sz as f32 | payload, x-fastest
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import FileFormatError, NumericDomainError, ParameterError
from .rng import normal

_MAGIC = b"TVOL1"
_HEAD = struct.Struct("<B3I3f")  # dtype code, dims, spacing
_DTYPE_VOLUME = 0
_DTYPE_MASK = 1

PHANTOM_KINDS = ("cylinder", "gapped_cylinder", "bifurcation", "helix")


def linear_index(dims) -> np.ndarray:
    """x-fastest linear index of every voxel, shaped like the volume."""
    nx, ny, nz = dims
    return np.arange(nx * ny * nz, dtype=np.int64).reshape((nx, ny, nz), order="F")


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
    if len(sp) != 3 or any(not np.isfinite(s) or s <= 0 for s in sp):
        raise ParameterError(f"spacing must be three finite positives, got {spacing}")
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
        if not np.all(np.isfinite(data)):
            raise ParameterError("volume data contains non-finite values")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", _freeze(data))

    def allclose(self, other: "Volume3", rtol=0.0, atol=0.0) -> bool:
        return (self.dims == other.dims
                and np.allclose(self.spacing, other.spacing)
                and np.allclose(self.data, other.data, rtol=rtol, atol=atol))


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
            if not np.isin(np.unique(data), (0, 1)).all():
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
    """Parameters of a synthetic tube phantom (bright tube on dark background)."""

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
        if not self.radius_mm > 0:
            raise ParameterError("radius_mm must be positive")
        if not self.foreground_intensity > self.background_intensity:
            raise ParameterError("foreground_intensity must exceed background_intensity")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be non-negative")
        if self.gap_len_voxels < 0 or int(self.gap_len_voxels) != self.gap_len_voxels:
            raise ParameterError("gap_len_voxels must be a non-negative integer")


def _voxel_centers_mm(dims, spacing):
    """Voxel-center coordinate grids in mm, one (nx,ny,nz) array per axis."""
    ax = [np.arange(d, dtype=np.float64) * s for d, s in zip(dims, spacing)]
    return np.meshgrid(*ax, indexing="ij")


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


def _centerline_distance(spec: PhantomSpec, dims, spacing) -> np.ndarray:
    """Distance (mm) from every voxel centre to the phantom's centerline.

    gapped_cylinder is handled by the caller via a z-index mask, so here
    it shares the cylinder geometry.
    """
    nx, ny, nz = dims
    sx, sy, sz = spacing
    cx = (nx - 1) / 2.0 * sx
    cy = (ny - 1) / 2.0 * sy
    px, py, pz = _voxel_centers_mm(dims, spacing)

    if spec.kind in ("cylinder", "gapped_cylinder"):
        return np.sqrt((px - cx) ** 2 + (py - cy) ** 2)

    if spec.kind == "bifurcation":
        z_top = (nz - 1) * sz
        z_split = z_top / 2.0
        trunk = _dist_to_segment(px, py, pz, (cx, cy, 0.0), (cx, cy, z_split))
        # children rise at 45 degrees in the x-z plane
        reach = z_top - z_split
        left = _dist_to_segment(px, py, pz, (cx, cy, z_split),
                                (cx - reach, cy, z_top))
        right = _dist_to_segment(px, py, pz, (cx, cy, z_split),
                                 (cx + reach, cy, z_top))
        return np.minimum(trunk, np.minimum(left, right))

    if spec.kind == "helix":
        turns = 2.0
        amp = min((nx - 1) * sx, (ny - 1) * sy) / 4.0
        t = np.linspace(0.0, 1.0, 8 * nz)
        theta = 2.0 * np.pi * turns * t
        curve = np.column_stack([cx + amp * np.cos(theta),
                                 cy + amp * np.sin(theta),
                                 t * (nz - 1) * sz])
        pts = np.column_stack([px.ravel(), py.ravel(), pz.ravel()])
        d, _ = cKDTree(curve).query(pts)
        return d.reshape(dims)

    raise ParameterError(f"unknown phantom kind {spec.kind!r}")


def make_phantom(spec: PhantomSpec, dims, spacing=(1.0, 1.0, 1.0)):
    """Generate a (image, label) pair for the given phantom spec.

    The label marks voxels whose centre lies within radius_mm of the
    analytic centerline; the image is background + (fg-bg)*label plus
    i.i.d. Gaussian noise drawn from the counter-based generator, so a
    fixed (spec, dims, spacing) reproduces identical bytes.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 16 for d in dims):
        raise ParameterError(f"phantom dims must each be >= 16, got {dims}")
    dims, spacing = _check_grid(dims, spacing, dims[0] * dims[1] * dims[2])

    dist = _centerline_distance(spec, dims, spacing)
    label = dist <= spec.radius_mm

    if spec.kind == "gapped_cylinder" and spec.gap_len_voxels > 0:
        gap = int(spec.gap_len_voxels)
        if gap >= dims[2]:
            raise ParameterError("gap_len_voxels must be smaller than nz")
        z0 = (dims[2] - gap) // 2
        label[:, :, z0:z0 + gap] = False

    img = spec.background_intensity + (
        spec.foreground_intensity - spec.background_intensity) * label.astype(np.float64)
    if spec.noise_sigma > 0:
        counters = np.arange(label.size, dtype=np.uint64)
        noise = normal(spec.seed, counters).reshape(dims, order="F")
        img = img + spec.noise_sigma * noise

    return (Volume3(dims, spacing, img.astype(np.float32)),
            Mask3(dims, label.astype(np.uint8), spacing))


def save_tvol(obj, path) -> None:
    """Write a Volume3 or Mask3, spacing included, to the .tvol format
    (bit-exact round trip)."""
    if isinstance(obj, Volume3):
        code, payload = _DTYPE_VOLUME, obj.data.astype("<f4").ravel(order="F")
    elif isinstance(obj, Mask3):
        code, payload = _DTYPE_MASK, obj.data.astype(np.uint8).ravel(order="F")
    else:
        raise ParameterError(f"cannot save object of type {type(obj).__name__}")
    header = _MAGIC + _HEAD.pack(code, *obj.dims, *obj.spacing)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


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


def read_tvol_header(path):
    """Return (dtype_kind, dims, spacing) without reading the payload."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_tvol(path):
    """Read a .tvol file back into a Volume3 or Mask3.

    The header is checked before any payload byte is read: dims, spacing,
    and the payload length the dims imply against the file's size."""
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
        raw = fh.read(held)
    data = np.frombuffer(raw, dtype=dtype).reshape(dims, order="F")
    if kind == "volume":
        if not np.all(np.isfinite(data)):
            raise FileFormatError(f"{path}: non-finite data in payload")
        return Volume3(dims, spacing, data)
    if data.max(initial=0) > 1:
        raise FileFormatError(f"{path}: mask payload holds values outside {{0,1}}")
    return Mask3(dims, data, spacing)


def roi_from_label(y: Mask3, margin: int = 2) -> RoiBox:
    """Tightest box around all positive voxels, dilated by margin, clamped."""
    if margin < 0:
        raise ParameterError("margin must be non-negative")
    pos = np.argwhere(y.data > 0)
    if pos.size == 0:
        raise NumericDomainError("empty label: ROI undefined without positives")
    lo = np.maximum(pos.min(axis=0) - margin, 0)
    hi = np.minimum(pos.max(axis=0) + margin, np.asarray(y.dims) - 1)
    return RoiBox(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
