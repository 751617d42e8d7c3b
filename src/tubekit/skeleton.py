"""Soft/hard skeletonization, component analysis, and skeleton reconnection.

Morphology is built from 3x3x3 min/max pooling with zero padding, the
differentiable erosion/dilation surrogates behind centerline losses.
The forward pass can record a tape of pooling selections so a loss can
backpropagate through the skeleton recurrence: each min/max routes its
gradient to the unique winning voxel, ties resolved toward the smallest
x-fastest linear index (pads count as off-volume and absorb nothing).

Pooling passes run per axis in x, y, z order; because each 1D pass
prefers the lower index on ties, the composed selection is the window
cell with the smallest linear index, matching the documented tie rule.

The recurrence (soft clDice, Shit et al., CVPR 2021) runs at most the
requested number of erosions and stops early once an erosion leaves an
all-zero image: every later iteration would add exactly zero to the
skeleton and to its gradient, so the result equals the full run's.  A
tape's ``iterations`` is the number of erosions that actually ran.
"""

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import NumericDomainError, ParameterError
from .volume import Mask3, Volume3

_STRUCT_26 = np.ones((3, 3, 3), dtype=bool)
_STRUCT_6 = ndimage.generate_binary_structure(3, 1)


@dataclass(frozen=True)
class SoftSkeletonParams:
    """Iteration count of the erosion/opening recurrence (3^3 element)."""

    iterations: int = 10

    def __post_init__(self):
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class ComponentSet:
    """Connected-component labelling: ids 1..count ordered by each
    component's minimum linear voxel index; 0 is background."""

    labels: np.ndarray
    count: int
    sizes: np.ndarray  # sizes[i-1] = voxels in component i


@dataclass(frozen=True, eq=False)
class ReconnectResult:
    reconnected: Mask3
    drawn_only: Mask3
    segments: list  # [( (x,y,z) from, (x,y,z) to ), ...]


# ---------------------------------------------------------------------------
# pooling with selection tracking
# ---------------------------------------------------------------------------

def _pool3(arr, mode, record=None):
    """3x3x3 min/max pool with zero padding, one 1D pass per axis in
    x, y, z order.

    With a ``record`` list, appends the per-axis offsets in {-1, 0, +1}
    naming each pass's winning source cell: the first of (left, centre,
    right) equal to the pooled value, so the left pad wins ties at -1.
    """
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


def _scatter3(grad, offs):
    """Adjoint of ``_pool3``: route grad to each pass's winning source,
    last pass first; gradient routed into the pad is dropped."""
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


# ---------------------------------------------------------------------------
# soft skeleton forward / backward
# ---------------------------------------------------------------------------

def _recurrence(img, iterations, tape=None):
    """The skeleton recurrence on a float64 array; returns the skeleton.

    Stage 0 opens the image; each later stage erodes it once more and
    opens the result, adding relu(delta - skel * delta) with delta =
    relu(img - opened).  The erosion inside one stage's opening is the
    next stage's image.  The loop stops once that erosion is all zero:
    every further stage would add exactly zero to the skeleton and, in
    the adjoint, scatter an all-zero gradient.  With a ``tape``, each
    stage's adjoint inputs go to ``tape.stages`` and the pooling offsets
    to ``tape.pools`` (erosion, then dilation, per stage).
    """
    if iterations < 1:
        raise ParameterError("iterations must be >= 1")
    pools = None if tape is None else tape.pools
    skel = np.zeros_like(img)
    eroded = _pool3(img, "min", pools)
    for i in itertools.count():
        opened = _pool3(eroded, "max", pools)
        delta = np.maximum(img - opened, 0.0)
        t = np.maximum(delta - skel * delta, 0.0)
        if tape is not None:
            tape.stages.append((skel, delta, t > 0))
        skel = skel + t
        if i >= iterations or not eroded.any():
            break
        img = eroded
        eroded = _pool3(img, "min", pools)
    return skel


class SoftSkeletonTape:
    """Recorded forward pass of the skeleton recurrence.

    ``iterations`` is the number of erosions actually run: at most the
    requested count, fewer when an erosion leaves an all-zero image,
    after which the recurrence stops (further iterations change neither
    the skeleton nor the gradient).  Per stage 0..iterations the tape
    holds the skeleton entering the stage, its relu output and mask, and
    the pooling selections of its opening.  ``signature()`` digests all
    discrete choices; two inputs with equal signatures lie in the same
    smooth region of the piecewise-linear recurrence.
    """

    def __init__(self, img: np.ndarray, iterations: int):
        self.stages = []  # (skeleton in, delta, relu mask of t) per stage
        self.pools = []   # erosion offs, dilation offs, per stage
        self.skeleton = _recurrence(np.asarray(img, dtype=np.float64),
                                    iterations, self)
        self.iterations = len(self.stages) - 1

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * skeleton) w.r.t. the input image."""
        g_skel = np.asarray(grad_out, dtype=np.float64).copy()
        g_img = np.zeros_like(g_skel)
        for i in range(self.iterations, -1, -1):
            skel, delta, mask_t = self.stages[i]
            g_t = np.where(mask_t, g_skel, 0.0)
            g_skel = g_skel - g_t * delta
            g_din = np.where(delta > 0, g_t * (1.0 - skel), 0.0)
            g_img += g_din
            g_er = _scatter3(-g_din, self.pools[2 * i + 1])
            g_img += _scatter3(g_er, self.pools[2 * i])
            if i:  # this stage's image is the previous stage's erosion
                g_img = _scatter3(g_img, self.pools[2 * i - 2])
        return g_img

    def signature(self) -> bytes:
        """Digest of the iteration count, then every discrete selection
        made in the forward pass.  The count comes first, so a change of
        the stopping point always changes the signature."""
        h = hashlib.sha256()
        h.update(self.iterations.to_bytes(4, "little"))
        for _, delta, mask_t in self.stages:
            h.update((delta > 0).tobytes())
            h.update(mask_t.tobytes())
        for offs in self.pools:
            for o in offs:
                h.update(o.tobytes())
        return h.digest()


def soft_skeleton_array(img: np.ndarray, iterations: int) -> np.ndarray:
    """Skeleton recurrence on a raw array in [0, 1] (float64 math)."""
    img = np.asarray(img, dtype=np.float64)
    if img.min(initial=0.0) < 0.0 or img.max(initial=0.0) > 1.0:
        raise ParameterError("soft_skeleton input values must lie in [0, 1]")
    return _recurrence(img, iterations)


def soft_skeleton(prob: Volume3, params: SoftSkeletonParams = SoftSkeletonParams()) -> Volume3:
    """Differentiable centerline proxy of a probability volume."""
    out = soft_skeleton_array(prob.data, params.iterations)
    return Volume3(prob.dims, prob.spacing, out.astype(np.float32))


def hard_skeleton(mask: Mask3, k: int = 10) -> Mask3:
    """Binary skeleton: soft recurrence on the 0/1 field, cut at 0.5."""
    skel = soft_skeleton_array(mask.data.astype(np.float64), k)
    return Mask3(mask.dims, (skel >= 0.5).astype(np.uint8), mask.spacing)


# ---------------------------------------------------------------------------
# components / endpoints / reconnection
# ---------------------------------------------------------------------------

def _components_array(fg: np.ndarray, connectivity: int) -> ComponentSet:
    if connectivity not in (6, 26):
        raise ParameterError(f"connectivity must be 6 or 26, got {connectivity}")
    struct = _STRUCT_6 if connectivity == 6 else _STRUCT_26
    raw, n = ndimage.label(fg, structure=struct)
    if n == 0:
        return ComponentSet(raw.astype(np.int32), 0, np.zeros(0, dtype=np.int64))
    # Relabel so ids follow each component's first voxel in linear order.
    flat = raw.ravel(order="F")
    ids, first = np.unique(flat, return_index=True)
    keep = ids != 0
    order = np.argsort(first[keep], kind="stable")
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[ids[keep][order]] = np.arange(1, n + 1, dtype=np.int32)
    labels = remap[raw]
    sizes = np.bincount(labels.ravel(), minlength=n + 1)[1:].astype(np.int64)
    return ComponentSet(labels, n, sizes)


def connected_components(mask: Mask3, connectivity: int = 26) -> ComponentSet:
    return _components_array(mask.data > 0, connectivity)


def _neighbor_counts(fg: np.ndarray) -> np.ndarray:
    """Number of foreground 26-neighbors of every voxel (self excluded)."""
    fg = fg.astype(np.int32)
    return ndimage.correlate(fg, _STRUCT_26.astype(np.int32), mode="constant") - fg


def _sort_by_linear(coords: np.ndarray) -> np.ndarray:
    if coords.size == 0:
        return coords
    return coords[np.lexsort((coords[:, 0], coords[:, 1], coords[:, 2]))]


def _endpoints_array(fg: np.ndarray) -> np.ndarray:
    counts = _neighbor_counts(fg)
    pts = np.argwhere(fg & (counts <= 1))
    return _sort_by_linear(pts)


def endpoints(skeleton: Mask3) -> list:
    """Foreground voxels with <= 1 foreground 26-neighbor, linear order."""
    return [tuple(int(v) for v in p) for p in _endpoints_array(skeleton.data > 0)]


def bresenham_line(a, b) -> np.ndarray:
    """Integer 3D line from a to b inclusive, one voxel per driving step."""
    p = np.array(a, dtype=np.int64)
    q = np.array(b, dtype=np.int64)
    d = np.abs(q - p)
    step = np.sign(q - p)
    axis = int(np.argmax(d))
    n = int(d[axis])
    pts = [p.copy()]
    err = [2 * d[i] - d[axis] for i in range(3)]
    cur = p.copy()
    for _ in range(n):
        cur[axis] += step[axis]
        for i in range(3):
            if i == axis:
                continue
            if err[i] > 0:
                cur[i] += step[i]
                err[i] -= 2 * d[axis]
            err[i] += 2 * d[i]
        pts.append(cur.copy())
    return np.array(pts, dtype=np.int64)


def _linear_of(coords: np.ndarray, dims) -> np.ndarray:
    nx, ny, _ = dims
    return coords[:, 0] + nx * (coords[:, 1] + ny * coords[:, 2])


def _nearest_pair(src: np.ndarray, dst: np.ndarray, dims):
    """Closest (source, target) pair; ties by smallest linear indices."""
    diff = src[:, None, :].astype(np.float64) - dst[None, :, :].astype(np.float64)
    dist = np.sqrt((diff ** 2).sum(axis=2))
    lin_src = _linear_of(src, dims)
    lin_dst = _linear_of(dst, dims)
    # per-source nearest target, ties -> smallest target linear index
    order_dst = np.argsort(lin_dst, kind="stable")
    dist_sorted = dist[:, order_dst]
    j_sorted = np.argmin(dist_sorted, axis=1)
    best_d = dist_sorted[np.arange(len(src)), j_sorted]
    best_j = order_dst[j_sorted]
    # pair with minimal distance, ties -> smallest source linear index
    order_src = np.argsort(lin_src, kind="stable")
    i_best = order_src[int(np.argmin(best_d[order_src]))]
    return src[i_best], dst[best_j[i_best]], float(best_d[i_best])


def _reconnect_pass(fg: np.ndarray, comp: ComponentSet, segments) -> np.ndarray:
    """Draw one line per non-largest component; returns the line mask."""
    dims = fg.shape
    largest = int(np.argmax(comp.sizes)) + 1  # ties -> smallest id, i.e. argmax
    ep_all = _endpoints_array(fg)
    ep_labels = comp.labels[ep_all[:, 0], ep_all[:, 1], ep_all[:, 2]] if ep_all.size else np.zeros(0, int)
    lines = np.zeros(dims, dtype=bool)
    for cid in range(1, comp.count + 1):
        if cid == largest:
            continue
        src = ep_all[ep_labels == cid]
        if src.size == 0:  # endpoint-free component (e.g. a ring)
            src = _sort_by_linear(np.argwhere(comp.labels == cid))
        dst = ep_all[(ep_labels != cid) & (ep_labels != 0)]
        if dst.size == 0:  # no endpoints anywhere else: aim at any voxel
            dst = _sort_by_linear(np.argwhere(fg & (comp.labels != cid)))
        a, b, _ = _nearest_pair(src, dst, dims)
        pts = bresenham_line(a, b)
        lines[pts[:, 0], pts[:, 1], pts[:, 2]] = True
        segments.append((tuple(int(v) for v in a), tuple(int(v) for v in b)))
    return lines


def _reconnect_array(fg0: np.ndarray):
    """Reconnection loop on a boolean array: returns the reconnected
    copy and the segments drawn, in drawing order."""
    fg = fg0.copy()
    segments = []
    while True:
        comp = _components_array(fg, 26)
        if comp.count <= 1:
            return fg, segments
        fg |= _reconnect_pass(fg, comp, segments)


def reconnect(skeleton: Mask3) -> ReconnectResult:
    """Join skeleton fragments with 1-voxel-wide lines between nearest
    endpoints, repeating passes until a single component remains."""
    fg0 = skeleton.data > 0
    if not fg0.any():
        raise NumericDomainError("reconnect: empty skeleton")
    fg, segments = _reconnect_array(fg0)
    return ReconnectResult(
        reconnected=Mask3(skeleton.dims, fg.astype(np.uint8), skeleton.spacing),
        drawn_only=Mask3(skeleton.dims, (fg & ~fg0).astype(np.uint8),
                         skeleton.spacing),
        segments=segments,
    )
