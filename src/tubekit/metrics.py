"""Overlap, centerline, surface-distance, and tree-detection metrics.

All overlap scores are percentages in [0, 100]; distances and lengths are
in mm, measured in the given voxel spacing.  Each metric is one function
on boolean arrays, and every field it pairs must share one shape
(ParameterError otherwise).  ``evaluate`` is the one entry point for a
(prediction, reference) pair of masks: it checks that the two share dims
and spacing and measures in that spacing.  Surfaces are foreground voxels
with at least one background 6-neighbor, the volume border counting as
background.  Centerline-based scores share the toolkit's skeleton
semantics (hard_skeleton), so the same centerline feeds losses and
evaluation.
"""

from typing import NamedTuple

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import NumericDomainError, ParameterError
from .skeleton import (DEFAULT_ITERATIONS, _neighbor_counts, _window_offsets,
                       connected_components, hard_skeleton)
from .volume import Mask3

_STRUCT_6 = ndimage.generate_binary_structure(3, 1)


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def _check_shapes(*fields):
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
    return np.argwhere(fg & ~ndimage.binary_erosion(fg, _STRUCT_6, border_value=0))


def surface_distances(surf_a: np.ndarray, surf_b: np.ndarray, spacing):
    """(hd, assd, ahd) in mm between two surfaces' voxel coordinates; a
    non-empty mask always has surface voxels."""
    if not (len(surf_a) and len(surf_b)):
        raise NumericDomainError("undefined distance: empty mask")
    sp = np.asarray(spacing, dtype=np.float64)
    a = surf_a * sp
    b = surf_b * sp
    d_ab, _ = cKDTree(b).query(a)
    d_ba, _ = cKDTree(a).query(b)
    hd = max(float(d_ab.max()), float(d_ba.max()))
    assd = (float(d_ab.sum()) + float(d_ba.sum())) / (len(a) + len(b))
    ahd = (float(d_ab.mean()) + float(d_ba.mean())) / 2.0
    return hd, assd, ahd


def _branch_components(centerline: np.ndarray):
    """Split a centerline into branches: junctions (>= 3 neighbors)
    removed, remaining voxels labelled 26-wise.  Returns the centerline's
    bounding box (a tuple of slices) and the components of that crop;
    cropping keeps the x-fastest order, so ids and their order are those
    of the whole volume.

    A blob-like centerline can be all junctions; fall back to the whole
    centerline so thick degenerate skeletons still count as branches."""
    box = (ndimage.find_objects(centerline.view(np.uint8)) or [(slice(0, 0),) * 3])[0]
    crop = centerline[box]
    branches = crop & (_neighbor_counts(crop) < 3)
    return box, connected_components(branches if branches.any() else crop)


def _tree_steps(coords: np.ndarray, starts: np.ndarray):
    """(parent, child, offset) of every step of each branch's breadth-first
    spanning tree, walked from the branch's first voxel.

    ``coords`` holds the branches' voxels grouped by branch, each group in
    linear order and starting at ``starts``; no two branches touch.  All
    branches advance their frontiers together.  A frontier's voxels, in
    order, each claim their unclaimed neighbours in linear order, which is
    the order of ``_window_offsets``; ``offset`` indexes that list.  Within
    a branch the steps come in the order a first-in first-out walk makes
    them."""
    at = np.full(tuple(coords.max(axis=0) + 3), -1, dtype=np.intp)
    at[tuple((coords + 1).T)] = np.arange(len(coords))
    near = np.stack([at[tuple((coords + 1 + o).T)] for o in _window_offsets(1)], axis=1)
    seen = np.zeros(len(coords), dtype=bool)
    seen[starts] = True
    front, steps = starts, []
    while front.size:
        cand = near[front]
        hit = cand >= 0
        hit[hit] = ~seen[cand[hit]]
        rows, offs = np.nonzero(hit)  # frontier order, then neighbour order
        child = cand[rows, offs]
        first = np.sort(np.unique(child, return_index=True)[1])
        rows, offs, child = rows[first], offs[first], child[first]
        seen[child] = True
        steps.append((front[rows], child, offs))
        front = child
    return [np.concatenate(s) for s in zip(*steps)]


def tree_metrics(p: np.ndarray, centerline: np.ndarray, spacing):
    """Branch-detected and tree-length-detected percentages of the
    reference centerline covered by the prediction p; lengths in mm.

    A reference branch counts as detected when any of its centerline
    voxels falls inside the prediction.  A branch's length sums, left to
    right, the steps of its breadth-first spanning tree from its
    smallest-linear-index voxel, neighbours taken in linear order (for a
    simple path, the path itself); a step is detected when both its ends
    are inside.  Branch lengths add up in branch order.
    """
    _check_shapes(p, centerline)
    box, comp = _branch_components(centerline)
    if comp.count == 0:
        raise NumericDomainError("reference centerline has no branches")
    # every branch's voxels from one scan: linear order, grouped by id
    flat = comp.labels.ravel(order="F")
    lin = np.flatnonzero(flat)
    lin = lin[np.argsort(flat[lin], kind="stable")]
    lab = flat[lin]
    coords = np.stack(np.unravel_index(lin, comp.labels.shape, order="F"), axis=1)
    inside = p[box][tuple(coords.T)]
    starts = np.cumsum(comp.sizes) - comp.sizes
    detected_branches = int(np.count_nonzero(np.logical_or.reduceat(inside, starts)))

    parent, child, offs = _tree_steps(coords, starts)
    sp = np.asarray(spacing, dtype=np.float64)
    step = np.array([np.sqrt(((np.array(o) * sp) ** 2).sum()) for o in _window_offsets(1)])[offs]
    # per branch, sequential sums (np.cumsum) in walk order; an undetected
    # step adds +0.0, which leaves a non-negative sum unchanged
    lengths = np.stack([step, np.where(inside[parent] & inside[child], step, 0.0)])
    lengths = lengths[:, np.argsort(lab[child], kind="stable")]
    per_branch = [np.cumsum(s, axis=1)[:, -1] if s.shape[1] else np.zeros(2)
                  for s in np.split(lengths, np.cumsum(comp.sizes - 1)[:-1], axis=1)]
    total_len, detected_len = (float(v) for v in np.cumsum(per_branch, axis=0)[-1])

    bd = 100.0 * detected_branches / comp.count
    if total_len > 0:
        tld = 100.0 * detected_len / total_len
    else:
        # all branches are single voxels: fall back to voxel coverage
        tld = 100.0 * int(inside.sum()) / int(comp.sizes.sum())
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
    hd, assd, ahd = surface_distances(surf_p, surf_g, gt.spacing)
    sg = hard_skeleton(g, skel_k)
    bd, tld = tree_metrics(p, sg, gt.spacing)
    sp = sg if np.array_equal(p, g) else hard_skeleton(p, skel_k)
    return {
        "dice": dice(p, g), "cldice": cldice(p, g, sp, sg),
        "f1": prf.f1, "precision": prf.precision, "recall": prf.recall,
        "hd": hd, "assd": assd, "ahd": ahd, "bd": bd, "tld": tld,
        "pred_voxels": pred.count(), "gt_voxels": gt.count(),
        "pred_surface_voxels": len(surf_p), "gt_surface_voxels": len(surf_g),
    }
