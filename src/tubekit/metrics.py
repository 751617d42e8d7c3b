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
    removed, remaining voxels labelled 26-wise.

    A blob-like centerline can be all junctions; fall back to the whole
    centerline so thick degenerate skeletons still count as branches."""
    counts = _neighbor_counts(centerline)
    junctions = centerline & (counts >= 3)
    comp = connected_components(centerline & ~junctions)
    if comp.count == 0:
        comp = connected_components(centerline)
    return comp


def _walk_lengths(coords: np.ndarray, inside: np.ndarray, spacing):
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
        near = ((x + dx, y + dy, z + dz) for dx, dy, dz in _window_offsets(1))
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


def tree_metrics(p: np.ndarray, centerline: np.ndarray, spacing):
    """Branch-detected and tree-length-detected percentages of the
    reference centerline covered by the prediction p; lengths in mm.

    A reference branch counts as detected when any of its centerline
    voxels falls inside the prediction.
    """
    _check_shapes(p, centerline)
    comp = _branch_components(centerline)
    if comp.count == 0:
        raise NumericDomainError("reference centerline has no branches")
    # every branch's voxels from one scan: C-order coordinates, grouped by id
    coords = np.argwhere(comp.labels)
    coords = coords[np.argsort(comp.labels[tuple(coords.T)], kind="stable")]
    inside = p[tuple(coords.T)]
    bounds = np.cumsum(comp.sizes)[:-1]

    detected_branches = 0
    total_len = detected_len = 0.0
    for c, ins in zip(np.split(coords, bounds), np.split(inside, bounds)):
        if ins.any():
            detected_branches += 1
        t, d = _walk_lengths(c, ins, spacing)
        total_len += t
        detected_len += d

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
