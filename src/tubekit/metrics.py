"""Overlap, centerline, surface-distance, and tree-detection metrics.

All overlap scores are percentages in [0, 100]; distances and lengths are
in mm, measured in the voxel spacing the two masks carry.  Every metric
takes a (prediction, reference) pair of masks that must share dims and
spacing (ParameterError otherwise).  Surfaces are foreground voxels with at
least one background 6-neighbor, the volume border counting as
background.  Centerline-based scores share the toolkit's skeleton
semantics (hard_skeleton), so the same centerline feeds losses and
evaluation.
"""

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import NumericDomainError, ParameterError
from .skeleton import (_neighbor_counts, _window_offsets, connected_components,
                       hard_skeleton)
from .volume import Mask3

_STRUCT_6 = ndimage.generate_binary_structure(3, 1)


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float
    degenerate: bool  # True when an empty denominator forced a 0


@dataclass(frozen=True)
class MetricsReport:
    dice: float
    cldice: float
    f1: float
    precision: float
    recall: float
    hd: float
    assd: float
    ahd: float
    bd: float
    tld: float
    pred_voxels: int
    gt_voxels: int
    pred_surface_voxels: int
    gt_surface_voxels: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_pair(pred: Mask3, gt: Mask3):
    if pred.spacing != gt.spacing:
        raise ParameterError(
            f"pred and gt must share spacing, got {pred.spacing} vs {gt.spacing}")
    if pred.dims != gt.dims:
        raise ParameterError(f"shape mismatch: {pred.dims} vs {gt.dims}")


def dice(pred: Mask3, gt: Mask3) -> float:
    """100 * 2|P&G| / (|P|+|G|); both-empty pairs score 100 by convention."""
    _check_pair(pred, gt)
    p = pred.data > 0
    g = gt.data > 0
    np_, ng = int(p.sum()), int(g.sum())
    if np_ + ng == 0:
        return 100.0
    return 100.0 * 2.0 * int((p & g).sum()) / (np_ + ng)


def precision_recall_f1(pred: Mask3, gt: Mask3) -> PRF:
    _check_pair(pred, gt)
    p = pred.data > 0
    g = gt.data > 0
    tp = int((p & g).sum())
    np_, ng = int(p.sum()), int(g.sum())
    degenerate = np_ == 0 or ng == 0
    precision = 100.0 * tp / np_ if np_ else 0.0
    recall = 100.0 * tp / ng if ng else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision > 0 and recall > 0 else 0.0)
    return PRF(precision, recall, f1, degenerate)


def cldice(pred: Mask3, gt: Mask3, skel_k: int = 10) -> float:
    """Harmonic mean of topology precision/sensitivity on skeletons."""
    _check_pair(pred, gt)
    if pred == gt:
        return 100.0
    return _cldice(pred.data > 0, gt.data > 0, _centerline(pred, skel_k),
                   _centerline(gt, skel_k))


def _centerline(mask: Mask3, skel_k: int) -> np.ndarray:
    return hard_skeleton(mask.data > 0, skel_k)


def _cldice(p, g, sp, sg) -> float:
    nsp, nsg = int(sp.sum()), int(sg.sum())
    if nsp == 0 or nsg == 0:
        return 0.0
    tprec = int((sp & g).sum()) / nsp
    tsens = int((sg & p).sum()) / nsg
    if tprec + tsens == 0:
        return 0.0
    return 100.0 * 2.0 * tprec * tsens / (tprec + tsens)


def surface_voxels(mask: Mask3) -> np.ndarray:
    """Coordinates of foreground voxels touching background 6-wise;
    the volume border counts as background."""
    fg = mask.data > 0
    return np.argwhere(fg & ~ndimage.binary_erosion(fg, _STRUCT_6, border_value=0))


def surface_distances(pred: Mask3, gt: Mask3):
    """(hd, assd, ahd) in mm between the two mask surfaces."""
    _check_distance_inputs(pred, gt)
    return _surface_distances(surface_voxels(pred), surface_voxels(gt), gt.spacing)


def _check_distance_inputs(pred: Mask3, gt: Mask3):
    _check_pair(pred, gt)
    if not (pred.data.any() and gt.data.any()):
        raise NumericDomainError("undefined distance: empty mask")


def _surface_distances(surf_a, surf_b, spacing):
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


def tree_metrics(pred: Mask3, gt: Mask3, skel_k: int = 10):
    """Branch-detected and tree-length-detected percentages; lengths are
    measured in the masks' spacing.

    A reference branch counts as detected when any of its centerline
    voxels falls inside the prediction.
    """
    _check_pair(pred, gt)
    if not gt.data.any():
        raise NumericDomainError("tree metrics need a non-empty reference")
    return _tree_metrics(pred.data > 0, _centerline(gt, skel_k), gt.spacing)


def _tree_metrics(p, centerline, spacing):
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


def evaluate(pred: Mask3, gt: Mask3, skel_k: int = 10) -> MetricsReport:
    """Full metric panel for one prediction/reference pair, in the masks'
    spacing.  Each skeleton and surface is computed once and shared by
    the scores."""
    prf = precision_recall_f1(pred, gt)
    _check_distance_inputs(pred, gt)
    surf_p, surf_g = surface_voxels(pred), surface_voxels(gt)
    hd, assd, ahd = _surface_distances(surf_p, surf_g, gt.spacing)
    p, g = pred.data > 0, gt.data > 0
    sg = _centerline(gt, skel_k)
    bd, tld = _tree_metrics(p, sg, gt.spacing)
    return MetricsReport(
        dice=dice(pred, gt),
        cldice=100.0 if pred == gt else _cldice(p, g, _centerline(pred, skel_k), sg),
        f1=prf.f1, precision=prf.precision, recall=prf.recall,
        hd=hd, assd=assd, ahd=ahd, bd=bd, tld=tld,
        pred_voxels=pred.count(), gt_voxels=gt.count(),
        pred_surface_voxels=len(surf_p), gt_surface_voxels=len(surf_g),
    )
