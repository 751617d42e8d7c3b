"""Soft/hard skeletonization, component analysis, and skeleton reconnection.

Every function takes and returns plain ndarrays.  Morphology is built
from 3x3x3 min/max pooling with zero padding, the differentiable
erosion/dilation surrogates behind centerline losses.  The forward pass
can record a tape so a loss can backpropagate through the skeleton
recurrence.  The tape keeps per stage only the flat indices and values
of the delta's nonzeros (about 40% of the voxels at stage 0 and a few
percent after it), and per pooling one byte per voxel coding the winning
source of each axis pass; no stage skeleton is kept.  The backward
carries the gradient as (flat index, value) pairs, since the
connectivity loss's is nonzero on under 1% of the voxels, and rebuilds
each stage's delta and incoming skeleton on that support by the
forward's own elementwise arithmetic, so every bit is kept.  Each
min/max routes its gradient to the unique winning voxel, ties resolved
toward the smallest x-fastest linear index (pads count as off-volume and
absorb nothing).

Pooling passes run per axis in x, y, z order; because each 1D pass
prefers the lower index on ties, the composed selection is the window
cell with the smallest linear index, matching the documented tie rule.
A pooling runs its three passes slab by slab along axis 0, the slab plan
of ``tubekit.workers`` sized by bytes, through one slab-sized scratch,
so it makes one new volume (and its codes) and no other; the recurrence
adds each stage slab by slab over that stage's delta.  Every value is
the same elementwise min, max or sum on the same operands as a
whole-volume pass, so the slab size moves no bit.

The recurrence (soft clDice, Shit et al., CVPR 2021) runs at most the
requested number of erosions and stops early once an erosion leaves an
all-zero image: every later iteration would add exactly zero to the
skeleton and to its gradient, so the result equals the full run's.  A
tape's ``iterations`` is the number of erosions that actually ran.

``hard_skeleton`` runs the same recurrence on uint8 0/1 data, which is
exact: an opening never exceeds its image, so ``img - opened`` cannot
wrap; ``skel * delta <= delta``; and ``t > 0`` only where ``skel == 0``,
so every value stays 0 or 1, as it would in float64.

Neighbour counts and pooling are numpy operations on shifted views; scipy
serves only the component labelling (``ndimage.label``, once per
``reconnect``) and the nearest-endpoint queries (``cKDTree``).
"""

import hashlib
import itertools
from typing import NamedTuple

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import NumericDomainError, ParameterError
from .workers import parallel_map, slabs, thread_count

_STRUCT_26 = np.ones((3, 3, 3), dtype=bool)
DEFAULT_ITERATIONS = 10  # erosions of the skeleton recurrence


def _check_unit_range(a: np.ndarray, name: str):
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ParameterError(f"{name} values must lie in [0, 1]")


def _window_offsets(radius: int):
    """(dx, dy, dz) of the (2r+1)^3 cube, centre excluded, x fastest."""
    for dz in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                if dx or dy or dz:
                    yield dx, dy, dz


class Reconnection(NamedTuple):
    reconnected: np.ndarray  # bool, the input plus every drawn line
    segments: np.ndarray  # (n, 2, 3) int64: (from, to) voxels, in drawing order


# ---------------------------------------------------------------------------
# pooling with selection tracking
# ---------------------------------------------------------------------------

def _plan(arr):
    """The slab plan along axis 0, sized by bytes: a slab holds at most
    ``SLAB_VOXELS`` float64 voxels' worth, so a uint8 volume takes 8 times
    as many planes a slab as a float64 one."""
    return slabs(len(arr), -(-arr[0].nbytes // 8))


def _pool3(arr, mode, record=None):
    """3x3x3 min/max pool with zero padding, in a new array: one 1D pass
    per axis in x, y, z order, slab by slab of ``_plan``.  A slab's x pass
    reads the input's planes lo-1 .. hi and writes ``out[lo:hi]``; its y
    pass writes one slab-sized scratch, zero-padded along z, and its z
    pass writes back into ``out[lo:hi]``, so no other whole volume is
    made.  With a ``record`` list, appends one uint8 selection code per
    voxel, (ox+1) + 3(oy+1) + 9(oz+1), where each pass's offset in {-1,
    0, +1} names its winning source cell: the first of (left, centre,
    right) equal to the pooled value, so the left pad wins ties at -1.
    """
    op = np.minimum if mode == "min" else np.maximum
    zero = arr.dtype.type(0)  # the pad, in the array's own type
    out = np.empty_like(arr)
    code = None if record is None else np.empty(arr.shape, np.uint8)
    plan = _plan(arr)
    n, ny, nz = arr.shape
    mid = np.zeros((plan[0].stop, ny, nz + 2), arr.dtype)  # one slab's y pass
    flags = None if code is None else np.empty((2, plan[0].stop, ny, nz), bool)
    for s in plan:
        lo, hi = s.start, s.stop
        o, y = out[s], mid[:hi - lo]
        c = None if code is None else code[s]
        f = None if code is None else flags[:, :hi - lo]
        _pass(op, zero, arr[max(lo - 1, 0):hi + 1], o, lo > 0, hi < n, f, c, 0)
        _pass(op, zero, o, y[:, :, 1:-1], False, False, f, c, 1)
        _pass(op, zero, y, o, True, True, f, c, 2)
    if record is not None:
        record.append(code)
    return out


def _pass(op, zero, a, p, head, tail, flags, code, axis):
    """One pooling pass along ``axis``: p[i] = op(op(a[i-1], a[i]),
    a[i+1]) over the planes of p, where ``a`` holds them, plus the plane
    before them if ``head`` and the one after if ``tail``; beyond that is
    the zero pad.  With ``code``, adds the pass's digit times 3^axis:
    (left != p) << (centre != p), 0 wherever the left wins."""
    a, p = a.swapaxes(0, axis), p.swapaxes(0, axis)
    k = len(p)
    centre = a[head:head + k]
    if head:
        op(a[:k], centre, out=p)  # p[i] = op(a[i-1], a[i])
    else:
        op(zero, a[0], out=p[0])
        op(a[:k - 1], centre[1:], out=p[1:])
    if tail:
        op(p, a[head + 1:], out=p)  # p[i] = op(p[i], a[i+1])
    else:
        op(p[:-1], a[head + 1:], out=p[:-1])
        op(p[-1], zero, out=p[-1])
    if code is None:
        return
    left_ne, centre_ne = flags[0].swapaxes(0, axis), flags[1].swapaxes(0, axis)
    if head:
        np.not_equal(a[:k], p, out=left_ne)
    else:
        np.not_equal(p[0], zero, out=left_ne[0])  # the pad
        np.not_equal(a[:k - 1], p[1:], out=left_ne[1:])
    np.not_equal(centre, p, out=centre_ne)
    digit = flags.view(np.uint8)
    if axis == 0:
        np.left_shift(digit[0], digit[1], out=code)
    else:
        np.left_shift(digit[0], digit[1], out=digit[1])
        np.add(code, np.multiply(digit[1], 3 ** axis, out=digit[1]), out=code)


def _scatter3(idx, val, code, shape):
    """Adjoint of ``_pool3`` on a gradient given as ascending flat
    indices and their values; returns the routed gradient in that form.
    Each value goes to each pass's winning source, last pass first; one
    routed into the pad is dropped.  Each target sums its left, centre,
    right sources in that order from +0.0, as a padded accumulator would,
    by ``np.bincount`` over descending source index, so zero values that
    ride along change no sum."""
    code = code.ravel()
    for axis in (2, 1, 0):
        n, stride = shape[axis], int(np.prod(shape[axis + 1:]))
        o = (code[idx] // 3 ** axis % 3).astype(np.intp) - 1
        pos = idx // stride % n + o
        keep = (0 <= pos) & (pos < n)  # a pad winner takes nothing
        idx, inv = np.unique((idx + o * stride)[keep][::-1], return_inverse=True)
        val = np.bincount(inv, val[keep][::-1], len(idx))
    return idx, val


# ---------------------------------------------------------------------------
# soft skeleton forward / backward
# ---------------------------------------------------------------------------

def _recurrence(img, iterations, tape=None):
    """The skeleton recurrence on a float64 array, or on a uint8 one of
    0s and 1s; returns the skeleton in the input's type.

    Stage 0 opens the image; each later stage erodes it once more and
    opens the result, adding relu(delta - skel * delta) with delta =
    relu(img - opened).  The erosion inside one stage's opening is the
    next stage's image.  The loop stops once that erosion is all zero:
    every further stage would add exactly zero to the skeleton and, in
    the adjoint, scatter an all-zero gradient.  Stage 0's skeleton is
    the scalar 0.  Each stage's sum is written slab by slab over its
    delta, which then becomes the skeleton.  With a ``tape``, each
    stage's delta goes to ``tape.stages`` first, as (flat indices,
    values) of its nonzeros, the indices int32 when the volume has fewer
    than 2^31 voxels, and the pooling codes to ``tape.pools`` (erosion,
    then dilation, per stage).  An array that is not 3-D, or has an
    empty axis, is a ParameterError.
    """
    if img.ndim != 3 or not img.size:
        raise ParameterError(f"the skeleton needs a 3-D array with no empty axis, "
                             f"got shape {img.shape}")
    if iterations < 1:
        raise ParameterError("iterations must be >= 1")
    pools = None if tape is None else tape.pools
    index = np.int32 if img.size < 2 ** 31 else np.intp
    zero = img.dtype.type(0)  # a float 0.0 would promote uint8 to float64
    skel = zero
    eroded = _pool3(img, "min", pools)
    for i in itertools.count():
        delta = _pool3(eroded, "max", pools)  # the opening, then in place:
        np.maximum(np.subtract(img, delta, out=delta), zero, out=delta)
        if tape is not None:
            nz = np.flatnonzero(delta)
            tape.stages.append((nz.astype(index, copy=False), delta.ravel()[nz]))
            del nz
        for s in _plan(delta):
            _add_stage(skel[s] if i else skel, delta[s], out=delta[s])
        skel = delta
        del delta  # not held across the next stage's pooling
        if i >= iterations or not eroded.any():
            break
        img = eroded
        eroded = _pool3(img, "min", pools)
    return skel


def _add_stage(skel, delta, out=None):
    """skel + relu(delta - skel * delta), the skeleton leaving a stage, in
    ``out`` or a new array; the forward and the tape's rebuilds share it."""
    t = skel * delta
    np.maximum(np.subtract(delta, t, out=t), skel.dtype.type(0), out=t)
    return np.add(skel, t, out=t if out is None else out)


class SoftSkeletonTape:
    """Recorded forward pass of the skeleton recurrence.

    ``iterations`` is the number of erosions actually run: at most the
    requested count, fewer when an erosion leaves an all-zero image,
    after which the recurrence stops (further iterations change neither
    the skeleton nor the gradient).  The tape holds only what the
    adjoint reads: per stage 0..iterations the flat indices and values
    of its delta's nonzeros, and the selection codes of the stage's
    poolings.  A stage's incoming skeleton is the sum of the earlier
    stages' additions, so ``backward`` rebuilds it, with the deltas, on
    the gradient's support, and ``signature()`` on each delta's support.
    ``signature()`` digests all discrete choices; two inputs with equal
    signatures lie in the same smooth region of the piecewise-linear
    recurrence.  At 128^3, after two erosions, a tape holds 2.44 float64
    volumes: the skeleton, the delta nonzeros (12 bytes each, most of
    them at stage 0) and the six poolings' codes; its forward peaks at
    5.48.
    """

    def __init__(self, img: np.ndarray, iterations: int):
        self.stages = []  # (flat indices, values) of each stage's delta nonzeros
        self.pools = []   # erosion code, dilation code, per stage
        self.skeleton = _recurrence(np.asarray(img, dtype=np.float64),
                                    iterations, self)
        self.iterations = len(self.stages) - 1

    def _rebuilt(self, idx, stop):
        """(skeleton in, delta) of stages 0..stop-1 at the ascending flat
        indices ``idx``, stage 0's skeleton the scalar 0 as in the
        forward.  Each addition is the forward's, elementwise, so each
        value has the forward's bits; a delta of -0.0 reads +0.0, which
        changes no relu mask, no addition and no gradient."""
        out, skel = [], np.float64(0)
        for nz, values in self.stages[:stop]:
            pos = np.searchsorted(nz, idx.astype(nz.dtype, copy=False))  # nz not cast
            hit = pos < len(nz)
            hit[hit] = nz[pos[hit]] == idx[hit]
            delta = np.zeros(len(idx))
            delta[hit] = values[pos[hit]]
            out.append((skel, delta))
            skel = _add_stage(skel, delta)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * skeleton) w.r.t. the input image,
        carried as (flat index, value) pairs from grad_out's nonzeros and
        routed through each pooling's selections; each stage's delta and
        skeleton, rebuilt on that support, form its relu mask as ``d -
        s*d > 0``, so only the returned gradient is a whole volume.  Each
        sum adds the terms a dense adjoint adds, in its order and from
        +0.0, so the bits are the same.  A grad_out of another shape is a
        ParameterError."""
        grad_out = np.asarray(grad_out, dtype=np.float64)
        shape = self.skeleton.shape
        if grad_out.shape != shape:
            raise ParameterError(f"gradient shape {grad_out.shape} is not {shape}")
        idx = np.flatnonzero(grad_out)  # the support of d/d skeleton
        g_skel = grad_out.ravel()[idx]
        stages = self._rebuilt(idx, len(self.stages))
        img_idx, g_img = np.empty(0, dtype=np.intp), np.empty(0)
        for i in range(self.iterations, -1, -1):
            s, d = stages[i]
            on = d - s * d > 0  # the relu mask of t; it implies delta > 0
            g_t, g_din = g_skel[on], (g_skel * (1.0 - s))[on]
            g_skel[on] = g_t - g_t * d[on]
            er_idx, g_er = _scatter3(idx[on], -g_din, self.pools[2 * i + 1], shape)
            op_idx, g_op = _scatter3(er_idx, g_er, self.pools[2 * i], shape)
            img_idx, inv = np.unique(np.concatenate([img_idx, idx[on], op_idx]),
                                     return_inverse=True)
            g_img = np.bincount(inv, np.concatenate([g_img, g_din, g_op]), len(img_idx))
            if i:  # this stage's image is the previous stage's erosion
                img_idx, g_img = _scatter3(img_idx, g_img, self.pools[2 * i - 2], shape)
        out = np.zeros(grad_out.size)
        out[img_idx] = g_img
        return out.reshape(shape)

    def signature(self) -> bytes:
        """Digest of the iteration count, then every discrete selection
        made in the forward pass.  The count comes first, so a change of
        the stopping point always changes the signature.  Each stage's
        masks delta > 0 and ``d - s*d > 0`` are hashed as whole volumes,
        set in one scratch volume on that stage's delta nonzeros; off
        them both masks are False."""
        h = hashlib.sha256()
        h.update(self.iterations.to_bytes(4, "little"))
        mask = np.zeros(self.skeleton.size, dtype=bool)
        for i, (nz, _) in enumerate(self.stages):
            s, d = self._rebuilt(nz, i + 1)[i]
            for on in (d > 0, d - s * d > 0):
                mask[nz[on]] = True
                h.update(mask)
                mask[nz] = False
        for code in self.pools:
            for axis in range(3):  # each pass's offsets, as int8
                h.update((code // 3 ** axis % 3).astype(np.int8) - 1)
        return h.digest()


def soft_skeleton_array(img: np.ndarray, iterations: int) -> np.ndarray:
    """Skeleton recurrence on a raw array in [0, 1] (float64 math)."""
    img = np.asarray(img, dtype=np.float64)
    _check_unit_range(img, "soft_skeleton input")
    return _recurrence(img, iterations)


def hard_skeleton(fg: np.ndarray, k: int = DEFAULT_ITERATIONS) -> np.ndarray:
    """Binary skeleton of a boolean array, boolean too: the soft recurrence
    on its 0/1 field, run in uint8.  Every value stays exactly 0 or 1 (see
    the module notes), so this equals the float64 run cut at 0.5.  Any
    other dtype is a ParameterError."""
    if fg.dtype != bool:
        raise ParameterError(f"hard_skeleton needs a boolean array, got {fg.dtype}")
    return _recurrence(fg.astype(np.uint8), k).view(bool)


# ---------------------------------------------------------------------------
# components / reconnection
# ---------------------------------------------------------------------------

def connected_components(fg: np.ndarray) -> tuple[np.ndarray, int]:
    """26-connected components of a boolean array: (labels, count), ids
    1..count ordered by each component's first voxel in x-fastest linear
    order; 0 is background."""
    # Labelling the transpose scans x fastest.
    raw, n = ndimage.label(fg.T, structure=_STRUCT_26)
    return raw.T, n


def _neighbor_counts(fg: np.ndarray, radius: int = 1) -> np.ndarray:
    """Foreground voxels in the (2r+1)^3 cube around each voxel, itself
    excluded: per axis a sum of shifted views, in the narrowest type."""
    box = fg.astype(np.min_scalar_type((2 * radius + 1) ** 3))
    for axis in range(3):
        b = np.moveaxis(box, axis, 0)
        acc = b.copy()
        for s in range(1, radius + 1):
            acc[s:] += b[:-s]
            acc[:-s] += b[s:]
        box = np.moveaxis(acc, 0, axis)
    return box - fg


def _voxels(fg: np.ndarray):
    """(linear index, (x, y, z) rows) of the foreground voxels in linear
    order: the C-order flat indices, sorted by x-fastest linear index."""
    x, y, z = np.unravel_index(np.flatnonzero(fg), fg.shape)
    lin = np.sort(x + fg.shape[0] * (y + fg.shape[1] * z))
    return lin, np.stack(np.unravel_index(lin, fg.shape, order="F"), axis=1)


def _lines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Voxels of the integer 3D line from a[i] to b[i] inclusive, one
    voxel per driving step, for every row i, joined.

    A line takes max|b - a| + 1 voxels.  After t steps, Bresenham's error
    term for an axis moving d of the driving axis's D has stepped that
    axis ceil((2 d t - D) / (2 D)) times; on the driving axis this is t.
    """
    d = np.abs(b - a)
    n = d.max(axis=1) + 1
    seg = np.repeat(np.arange(len(a)), n)
    t = (np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n))[:, None]
    big = np.maximum(n - 1, 1)[seg, None]  # D; a == b has t = 0 only
    moved = -((big - 2 * d[seg] * t) // (2 * big))
    return a[seg] + np.sign(b - a)[seg] * moved


_QUERY_PAIRS = 1 << 20  # (source, neighbour) pairs held by the queries at once


def _nearest_other(src, src_lab, tgt, tgt_lab):
    """Per source, the nearest target of another label: (squared distance,
    target row), ties -> smallest target row.  ``tgt`` is in linear
    order, so that is the smallest target linear index; it must hold a
    point of another label for every source.

    Each round queries the k nearest targets; k doubles for the sources
    whose k-th neighbour is not strictly farther than their best hit,
    since an equally near target might then be missing from the k
    returned.  A round's rows are cut into pool parts, at least one per
    worker, each of at most ``_QUERY_PAIRS`` / workers pairs (or one
    row), so the parts in flight hold at most ``_QUERY_PAIRS``.  A
    source's answer depends only on it and the tree: each part writes
    its own rows of ``key`` and returns the rows left for the next
    round, in order."""
    n = len(tgt)
    tree = cKDTree(tgt)
    none = np.iinfo(np.int64).max
    key = np.full(len(src), none)  # d2 * n + row of the best hit
    todo = np.arange(len(src))
    k = min(4, n)
    workers = thread_count()

    def part(rows):
        _, idx = tree.query(src[rows], k=k)
        idx = idx.reshape(len(rows), k)
        d2 = ((tgt[idx] - src[rows, None, :]) ** 2).sum(axis=2)
        best = np.where(tgt_lab[idx] != src_lab[rows, None],
                        d2 * n + idx, none).min(axis=1)
        done = (k == n) | ((best < none) & (d2[:, -1] > best // n))
        key[rows[done]] = best[done]
        return rows[~done]

    while todo.size:
        per = max(1, _QUERY_PAIRS // (k * workers))  # rows a part
        cuts = min(todo.size, max(workers, -(-todo.size // per)))
        todo = np.concatenate(parallel_map(part, np.array_split(todo, cuts)))
        k = min(2 * k, n)
    return key // n, key % n


def _reconnect_pass(pts, lab, end, sizes):
    """The (from, to) rows of one line per non-largest component, given
    the foreground voxels ``pts`` in linear order, their component ids
    ``lab`` (1..len(sizes)), their endpoint flags and the sizes.

    A component's sources are its endpoints, or all its voxels when it
    has none (e.g. a ring); its targets are the endpoints of the other
    components, or all their voxels when it owns every endpoint.  It
    draws its closest (source, target) pair, ties -> smallest source,
    then target, linear index.  All components are solved at once on the
    one voxel list: sources and targets are selections of it, so they
    stay in linear order, and a stable sort by (component, distance)
    puts each component's smallest source first.
    """
    largest = int(np.argmax(sizes)) + 1  # ties -> smallest id, i.e. argmax
    n_ep = np.bincount(lab[end], minlength=len(sizes) + 1)
    whole = n_ep == 0
    whole[[0, largest]] = False
    is_src = (end & (lab != largest)) | whole[lab]
    src, src_lab = pts[is_src], lab[is_src]

    d2 = np.empty(len(src), dtype=np.int64)
    dst = np.empty_like(src)
    fallback = (n_ep == n_ep.sum())[src_lab]  # no endpoint outside: any voxel
    for sel, tgt, tgt_lab in ((~fallback, pts[end], lab[end]), (fallback, pts, lab)):
        if sel.any():
            d2[sel], j = _nearest_other(src[sel], src_lab[sel], tgt, tgt_lab)
            dst[sel] = tgt[j]

    # per component, the source with minimal (d2, linear index)
    order = np.lexsort((d2, src_lab))
    first = order[np.flatnonzero(np.r_[True, np.diff(src_lab[order]) != 0])]
    return src[first], dst[first]


def _min_roots(n, u, v):
    """Per node of the n-node graph with edges (u, v), the smallest node
    of its connected component: each root joined by an edge to a smaller
    root is hooked to one of them, then pointers jump to their roots,
    until no edge joins two roots.  Hooks only ever point to a smaller
    node, so the smallest node of a component stays its root."""
    p = np.arange(n)
    while True:
        pu, pv = p[u], p[v]
        cross = pu != pv
        if not cross.any():
            return p
        p[np.maximum(pu, pv)[cross]] = np.minimum(pu, pv)[cross]  # any one hook wins
        while (p[p] != p).any():
            p = p[p]


def _merge(drawn, stamp, counts, root, first, steps):
    """Add the drawn voxels (sorted padded linear indices, repeats
    allowed) to ``stamp`` and ``counts`` in place; returns the new
    ``root`` and the voxels that were new.  The merge graph's nodes are
    the components and the new voxels, ordered by first voxel, each new
    voxel joined to its foreground 26-neighbours; the roots of its
    components, in node order, are the merged components in id order."""
    new = drawn[np.r_[True, np.diff(drawn) > 0] & (stamp[drawn] == 0)]
    key = np.sort(np.concatenate([first, new]))
    stamp[new] = np.arange(len(root), len(root) + len(new))
    own = np.searchsorted(key, new)
    node = np.r_[np.r_[0, np.searchsorted(key, first) + 1][root], own + 1]  # node + 1 by stamp
    near = node[stamp[new[:, None] + steps]]
    i, j = np.nonzero(near)
    p = _min_roots(len(key), own[i], near[i, j] - 1)
    for s in steps:
        counts[new + s] += 1
    return np.r_[0, np.cumsum(p == np.arange(len(key)))[p]][node], new


def reconnect(fg: np.ndarray) -> Reconnection:
    """Join the fragments of a boolean skeleton with 1-voxel-wide lines
    between nearest endpoints, repeating passes until a single component
    remains; the input is not modified.  Returns
    ``Reconnection(reconnected, segments)``, ``segments`` an (n, 2, 3)
    int64 array of (from, to) voxels in drawing order.  Every pass joins
    each non-largest component to another, so the component count falls
    strictly; a pass that fails to lower it is an error.

    The volume is labelled and its neighbours counted once; then the
    voxel list in linear order, each voxel's component and the neighbour
    counts are carried from pass to pass.  A pass selects its sources and
    targets from that list, so they keep that order, and draws its lines
    into this function's copy of the input.  Only the drawn voxels are
    then handled (``_merge``): a small graph of the old components and
    the new voxels merges components by union, and the counts gain 1
    around each new voxel.  Each voxel of the zero-padded, x-fastest
    flat volume keeps a stamp: its first component id, or a fresh id when
    a line adds it; ``root`` maps stamps to the current ids, which stay
    ranked by each component's first voxel in linear order.
    """
    if not fg.any():
        raise NumericDomainError("reconnect: empty skeleton")
    fg = fg.copy()
    stamp = np.pad(connected_components(fg)[0].T, 1).ravel()
    root = np.arange(stamp.max() + 1)
    counts = _neighbor_counts(np.pad(fg.T, 1)).ravel()
    dims = tuple(n + 2 for n in fg.shape)
    stride = np.array([1, dims[0], dims[0] * dims[1]])
    steps = np.array(list(_window_offsets(1))) @ stride
    lin = np.flatnonzero(stamp)  # the voxel list, in linear order
    count, segments = len(root) - 1, [np.empty((0, 2, 3), dtype=np.int64)]
    while count > 1:
        lab = root[stamp[lin]]
        a, b = _reconnect_pass(
            np.stack(np.unravel_index(lin, dims, order="F"), axis=1) - 1,
            lab, counts[lin] <= 1, np.bincount(lab)[1:])
        segments.append(np.stack([a, b], axis=1))
        line = _lines(a, b)
        fg[tuple(line.T)] = True
        # ids follow first voxels, so the running max of the ids steps up at each
        first = lin[np.diff(np.maximum.accumulate(lab), prepend=0) > 0]
        root, new = _merge(np.sort((line + 1) @ stride), stamp, counts, root, first, steps)
        if root.max() >= count:
            raise NumericDomainError(
                f"reconnect: a pass left {root.max()} of {count} components")
        count = int(root.max())
        lin = np.sort(np.concatenate([lin, new]))
    return Reconnection(fg, np.concatenate(segments))
