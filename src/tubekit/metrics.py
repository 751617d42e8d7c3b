"""Overlap, centerline, surface-distance, and tree-detection metrics.

All overlap scores are percentages in [0, 100]; distances and lengths are
in mm, measured in the given voxel spacing.  Each metric is one function
on boolean arrays, and every field it pairs must be boolean and share one
shape (ParameterError otherwise).  ``evaluate`` is the one entry point
for a (prediction, reference) pair of masks: it checks that the two share
dims and spacing and measures in that spacing.  Surfaces are foreground
voxels with at least one background 6-neighbor, the volume border
counting as background.  Centerline-based scores share the toolkit's
skeleton semantics (hard_skeleton), so the same centerline feeds losses
and evaluation.  Tree scores use one 26-neighbour graph of the
centerline's voxels, on which scipy.sparse.csgraph labels and walks the
branches.  ``surface_distances`` runs its two directions as parts on
the worker pool (``tubekit.workers``), each cut into one row range of
query points per worker, and ``evaluate`` runs it and the centerline
scores as two parts, the nested calls joining the same pool.
"""

from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import NumericDomainError, ParameterError
from .skeleton import DEFAULT_ITERATIONS, _voxels, _window_offsets, hard_skeleton
from .volume import Mask3
from .workers import parallel_map, thread_count

class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def _run(part):
    return part()


def _check_shapes(*fields):
    if any(f.dtype != bool for f in fields):
        raise ParameterError("not boolean: " + " vs ".join(str(f.dtype) for f in fields))
    if len({f.shape for f in fields}) > 1:
        raise ParameterError("shape mismatch: " + " vs ".join(str(f.shape) for f in fields))


def dice(p: np.ndarray, g: np.ndarray) -> float:
    """100 * 2|P&G| / (|P|+|G|); both-empty pairs score 100 by convention."""
    _check_shapes(p, g)
    np_, ng = int(p.sum()), int(g.sum())
    if np_ + ng == 0:
        return 100.0
    return 100.0 * 2.0 * int((p & g).sum()) / (np_ + ng)


def precision_recall_f1(p: np.ndarray, g: np.ndarray) -> PRF:
    _check_shapes(p, g)
    tp = int((p & g).sum())
    np_, ng = int(p.sum()), int(g.sum())
    precision = 100.0 * tp / np_ if np_ else 0.0
    recall = 100.0 * tp / ng if ng else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision > 0 and recall > 0 else 0.0)
    return PRF(precision, recall, f1)


def cldice(p: np.ndarray, g: np.ndarray, sp: np.ndarray, sg: np.ndarray) -> float:
    """Harmonic mean of topology precision/sensitivity of the masks p, g
    and their centerlines sp, sg; equal masks score 100."""
    _check_shapes(p, g, sp, sg)
    if np.array_equal(p, g):
        return 100.0
    nsp, nsg = int(sp.sum()), int(sg.sum())
    if nsp == 0 or nsg == 0:
        return 0.0
    tprec = int((sp & g).sum()) / nsp
    tsens = int((sg & p).sum()) / nsg
    if tprec + tsens == 0:
        return 0.0
    return 100.0 * 2.0 * tprec * tsens / (tprec + tsens)


def surface_voxels(fg: np.ndarray) -> np.ndarray:
    """Coordinates of foreground voxels touching background 6-wise;
    the volume border counts as background."""
    inner = fg.copy()  # foreground whose six neighbours are all foreground
    for axis in range(3):
        f, i = np.moveaxis(fg, axis, 0), np.moveaxis(inner, axis, 0)
        i[1:] &= f[:-1]
        i[:-1] &= f[1:]
        i[[0, -1]] = False  # beyond the border is background
    surface = fg & ~inner
    return np.stack(np.unravel_index(np.flatnonzero(surface), fg.shape), axis=1)


def _nearest_distances(pts, other):
    """Distances from each of ``pts`` to the nearest of ``other``: one
    tree built here, the points cut into one row range per worker, each
    range a pool part.  A point's nearest neighbour depends only on the
    point and the tree, so the ranges, joined in order, hold the bits of
    one query of all the points."""
    tree = cKDTree(other)
    return np.concatenate(parallel_map(lambda rows: tree.query(rows)[0],
                                       np.array_split(pts, thread_count())))


def surface_distances(surf_a: np.ndarray, surf_b: np.ndarray, spacing):
    """(hd, assd, ahd) in mm between two surfaces' voxel coordinates; a
    non-empty mask always has surface voxels.  The two directions, a to
    b and b to a, run as two pool parts (``_nearest_distances``)."""
    if not (len(surf_a) and len(surf_b)):
        raise NumericDomainError("undefined distance: empty mask")
    sp = np.asarray(spacing, dtype=np.float64)
    a, b = surf_a * sp, surf_b * sp
    d_ab, d_ba = parallel_map(lambda pair: _nearest_distances(*pair), [(a, b), (b, a)])
    hd = max(float(d_ab.max()), float(d_ba.max()))
    assd = (float(d_ab.sum()) + float(d_ba.sum())) / (len(d_ab) + len(d_ba))
    ahd = (float(d_ab.mean()) + float(d_ba.mean())) / 2.0
    return hd, assd, ahd


def _branch_walk(centerline: np.ndarray):
    """(coords, lab, parent, child) of the centerline's branches: the branch
    voxels as (x, y, z) rows in linear order, each one's branch id (ids
    follow each branch's first voxel), and the rows of every step of each
    branch's breadth-first spanning tree from its first voxel.

    Branches are the centerline without its junctions (>= 3 neighbours),
    labelled 26-wise; a blob-like centerline can be all junctions, and
    then all of it counts.  One walk from an extra root, joined to each
    branch's first voxel, takes neighbours in linear order, first in first
    out, so each branch's steps come in the order of its own walk."""
    # imported on first use: csgraph and the scipy.sparse.linalg it loads
    # take 2-3 MB resident, which the other commands need not pay
    from scipy.sparse import csgraph, csr_matrix
    pts = _voxels(centerline)[1]
    if not len(pts):
        raise NumericDomainError("reference centerline has no branches")
    # a grid over the voxels' bounding box plus a margin, x fastest: the
    # voxels' grid indices ascend, and a flat offset finds a neighbour
    # (-1: none); only branch voxels keep a row of all 26
    lo = pts.min(axis=0) - 1
    dims = pts.max(axis=0) - lo + 2
    stride = np.array([1, dims[0], dims[0] * dims[1]])
    flat = (pts - lo) @ stride
    at = np.full(int(np.prod(dims)), -1, dtype=np.intp)
    at[flat] = np.arange(len(pts))
    offs = np.array(list(_window_offsets(1))) @ stride
    branch = sum((at[flat + o] >= 0).astype(np.uint8) for o in offs) < 3
    if not branch.any():
        branch[:] = True
    remap = np.full(len(pts) + 1, -1, dtype=np.intp)  # -1 (no neighbour) reads the last -1
    remap[np.flatnonzero(branch)] = np.arange(np.count_nonzero(branch))
    near = remap[at[flat[branch, None] + offs]]
    # CSR rows: the branch voxels (then the root); columns in linear order
    cols = near[near >= 0]
    ptr = np.concatenate([[0], np.cumsum((near >= 0).sum(axis=1))])
    m = len(near)
    _, comp = csgraph.connected_components(
        csr_matrix((np.ones(len(cols)), cols, ptr), shape=(m, m)), directed=False)
    first = np.unique(comp, return_index=True)[1]
    starts = np.sort(first)
    lab = np.searchsorted(starts, first)[comp]
    walk = csr_matrix((np.ones(len(cols) + len(starts)), np.concatenate([cols, starts]),
                       np.append(ptr, len(cols) + len(starts))), shape=(m + 1, m + 1))
    visit, pred = csgraph.breadth_first_order(walk, m, directed=True)
    child = visit[1:][pred[visit[1:]] != m]  # the root's own steps left out
    return pts[branch], lab, pred[child], child


def tree_metrics(p: np.ndarray, centerline: np.ndarray, spacing):
    """Branch-detected and tree-length-detected percentages of the
    reference centerline covered by the prediction p; lengths in mm.

    A reference branch counts as detected when any of its centerline
    voxels falls inside the prediction.  A branch's length sums, left to
    right, the steps of its breadth-first spanning tree from its
    smallest-linear-index voxel, neighbours taken in linear order (for a
    simple path, the path itself); a step is detected when both its ends
    are inside.  Branch lengths add up in branch order.  The branches and
    steps come from one graph walk (``_branch_walk``).
    """
    _check_shapes(p, centerline)
    coords, lab, parent, child = _branch_walk(centerline)
    inside = p[tuple(coords.T)]
    n_steps = np.bincount(lab) - 1
    sp = np.asarray(spacing, dtype=np.float64)
    step = np.sqrt((((coords[child] - coords[parent]) * sp) ** 2).sum(axis=1))
    # per branch, sequential sums (np.cumsum along a row) in walk order, the
    # branches of one step count at once; an undetected step adds +0.0,
    # which leaves a non-negative sum unchanged
    lengths = np.stack([step, np.where(inside[parent] & inside[child], step, 0.0)])
    lengths = lengths[:, np.argsort(lab[child], kind="stable")]
    first = np.cumsum(n_steps) - n_steps
    sums = np.zeros((2, len(n_steps)))
    for n in np.unique(n_steps[n_steps > 0]):
        ids = np.flatnonzero(n_steps == n)
        sums[:, ids] = np.cumsum(lengths[:, first[ids, None] + np.arange(n)], axis=2)[..., -1]
    total_len, detected_len = (float(v) for v in np.cumsum(sums, axis=1)[:, -1])

    bd = 100.0 * len(np.unique(lab[inside])) / len(n_steps)
    if total_len > 0:
        tld = 100.0 * detected_len / total_len
    else:
        # all branches are single voxels: fall back to voxel coverage
        tld = 100.0 * int(inside.sum()) / len(coords)
    return bd, tld


def evaluate(pred: Mask3, gt: Mask3, skel_k: int = DEFAULT_ITERATIONS) -> dict:
    """Full metric panel, as a dict of 14 scores and counts, for one
    prediction/reference pair of masks that share dims and spacing,
    measured in that spacing.  Each skeleton and surface is computed once
    and shared by the scores."""
    if pred.spacing != gt.spacing:
        raise ParameterError(
            f"pred and gt must share spacing, got {pred.spacing} vs {gt.spacing}")
    p, g = pred.data > 0, gt.data > 0
    prf = precision_recall_f1(p, g)  # the dims check, before any other work
    surf_p, surf_g = surface_voxels(p), surface_voxels(g)

    def centerlines():
        sg = hard_skeleton(g, skel_k)
        bd, tld = tree_metrics(p, sg, gt.spacing)
        sp = sg if np.array_equal(p, g) else hard_skeleton(p, skel_k)
        return sp, sg, bd, tld

    # The surface part comes first, so the parts raise in the serial order.
    (hd, assd, ahd), (sp, sg, bd, tld) = parallel_map(_run, [
        lambda: surface_distances(surf_p, surf_g, gt.spacing), centerlines])
    return {
        "dice": dice(p, g), "cldice": cldice(p, g, sp, sg),
        "f1": prf.f1, "precision": prf.precision, "recall": prf.recall,
        "hd": hd, "assd": assd, "ahd": ahd, "bd": bd, "tld": tld,
        "pred_voxels": pred.count(), "gt_voxels": gt.count(),
        "pred_surface_voxels": len(surf_p), "gt_surface_voxels": len(surf_g),
    }
