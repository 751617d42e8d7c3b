import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import Mask3, NumericDomainError, ParameterError, PhantomSpec, make_phantom
from tubekit.metrics import (cldice, dice, evaluate, precision_recall_f1,
                             surface_distances, surface_voxels, tree_metrics)
from tubekit.skeleton import hard_skeleton

from memory import traced
from oracles import (brute_surface_distances, surface_voxels_bruteforce,
                     tree_metrics_oracle)


def _mask(data, spacing=(1.0, 1.0, 1.0)):
    return Mask3(np.asarray(data).shape, np.asarray(data, dtype=np.uint8), spacing)


def _blob(rng, dims=(8, 8, 8), p=0.2):
    data = rng.random(dims) < p
    if not data.any():
        data[3, 3, 3] = True
    return data


def _cldice(p, g, skel_k=10):
    return cldice(p, g, hard_skeleton(p, skel_k), hard_skeleton(g, skel_k))


def _distances(p, g, spacing=(1.0, 1.0, 1.0)):
    return surface_distances(surface_voxels(p), surface_voxels(g), spacing)


def _tree(p, g, skel_k, spacing=(1.0, 1.0, 1.0)):
    return tree_metrics(p, hard_skeleton(g, skel_k), spacing)


# ---------------------------------------------------------------------------
# dice
# ---------------------------------------------------------------------------

def test_dice_examples():
    a = np.zeros((6, 6, 6), dtype=bool)
    a[2:4, 2:4, 2:4] = True
    assert dice(a, a) == 100.0

    b = np.zeros((6, 6, 6), dtype=bool)
    b[5, 5, 5] = True
    assert dice(a, b) == 0.0

    g = np.zeros((6, 6, 6), dtype=bool)
    g[0, 0, 0] = g[0, 0, 1] = True
    p = np.zeros((6, 6, 6), dtype=bool)
    p[0, 0, 1] = p[0, 0, 2] = True
    assert dice(p, g) == 50.0

    empty = np.zeros((6, 6, 6), dtype=bool)
    assert dice(empty, empty) == 100.0


def test_dice_matches_enumeration_on_random_masks():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = _blob(rng)
        g = _blob(rng)
        inter = sum(1 for v in np.ndindex(8, 8, 8) if p[v] and g[v])
        expected = 100.0 * 2 * inter / (int(p.sum()) + int(g.sum()))
        assert dice(p, g) == expected


@pytest.mark.parametrize("metric", [dice, precision_recall_f1, cldice, tree_metrics])
def test_dice_shape_mismatch(metric):
    # (4, 4, 1) broadcasts against (4, 4, 4): unchecked, it would be scored
    a, b = np.ones((4, 4, 4), dtype=bool), np.ones((4, 4, 1), dtype=bool)
    args = {cldice: (a, b, a, b), tree_metrics: (a, b, (1.0, 1.0, 1.0))}
    with pytest.raises(ParameterError, match="shape mismatch"):
        metric(*args.get(metric, (a, b)))
    # a float field: `&` would raise a bare TypeError, an int field would pass
    b = np.ones((4, 4, 4))
    args = {cldice: (a, b, a, b), tree_metrics: (a, b, (1.0, 1.0, 1.0))}
    with pytest.raises(ParameterError, match="not boolean"):
        metric(*args.get(metric, (a, b)))


# ---------------------------------------------------------------------------
# precision / recall / f1
# ---------------------------------------------------------------------------

def test_prf_examples():
    a = np.zeros((6, 6, 6), dtype=bool)
    a[1:3, 1:3, 1:3] = True
    r = precision_recall_f1(a, a)
    assert (r.precision, r.recall, r.f1) == (100.0, 100.0, 100.0)
    r = precision_recall_f1(a, np.zeros_like(a))  # empty reference: recall forced to 0
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)

    g = np.zeros((6, 6, 6), dtype=bool)
    g[1:3, 1:3, 1:3] = True       # 8 voxels
    p = np.zeros((6, 6, 6), dtype=bool)
    p[1:3, 1:3, 1:5] = True       # 16 voxels, superset
    r = precision_recall_f1(p, g)
    assert r.precision == 50.0 and r.recall == 100.0
    assert abs(r.f1 - 200.0 / 3.0) <= 1e-9

    r = precision_recall_f1(np.zeros((6, 6, 6), dtype=bool), g)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    empty = np.zeros((6, 6, 6), dtype=bool)  # both denominators empty
    assert precision_recall_f1(empty, empty) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# clDice
# ---------------------------------------------------------------------------

def test_cldice_identical_tube_is_100():
    _, label = make_phantom(PhantomSpec("cylinder", radius_mm=1.5), (17, 17, 17))
    fg = label.data > 0
    assert _cldice(fg, fg) == 100.0


def test_cldice_half_covered_centerline():
    g = np.zeros((5, 5, 12), dtype=bool)
    g[2, 2, 1:11] = True   # 10-voxel line, its own skeleton
    p = np.zeros((5, 5, 12), dtype=bool)
    p[2, 2, 1:6] = True    # half of it
    got = _cldice(p, g, skel_k=3)
    # Tprec = 1, Tsens = 0.5 -> 2/3
    assert abs(got - 200.0 / 3.0) <= 1e-9


def test_cldice_empty_and_symmetry():
    g = np.zeros((6, 6, 6), dtype=bool)
    g[2, 2, 1:5] = True
    assert _cldice(np.zeros((6, 6, 6), dtype=bool), g) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = _blob(rng)
        q = _blob(rng)
        assert abs(_cldice(p, q, 3) - _cldice(q, p, 3)) <= 1e-9


# ---------------------------------------------------------------------------
# surface distances
# ---------------------------------------------------------------------------

def test_surface_identical_masks_are_zero():
    a = np.zeros((6, 6, 6), dtype=bool)
    a[2:5, 2:5, 2:5] = True
    assert _distances(a, a) == (0.0, 0.0, 0.0)


def test_surface_single_voxel_pair_is_euclidean():
    a = np.zeros((8, 8, 8), dtype=bool)
    a[0, 0, 0] = True
    b = np.zeros((8, 8, 8), dtype=bool)
    b[3, 4, 0] = True
    hd, assd, ahd = _distances(a, b)
    assert hd == assd == ahd == 5.0


def test_surface_extraction_matches_bruteforce():
    # Same voxels in the same (C) order; dense fills have interior voxels,
    # and thin shapes are all border.
    rng = np.random.default_rng(4)
    masks = [_blob(rng, p=0.3) for _ in range(10)]
    masks += [rng.random(shape) < p for shape in [(1, 1, 1), (1, 5, 4), (2, 3, 7), (6, 1, 6),
                                                 (7, 6, 5)] for p in (0.5, 0.9, 1.0)]
    for m in masks:
        assert np.array_equal(surface_voxels(m), surface_voxels_bruteforce(m))


def test_surface_distances_match_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = _blob(rng, p=0.15)
        g = _blob(rng, p=0.15)
        spacing = tuple(rng.uniform(0.5, 2.0, 3))
        sp_vox = surface_voxels(p)
        sg_vox = surface_voxels(g)
        assert len(sp_vox) <= 200 and len(sg_vox) <= 200
        expected = brute_surface_distances(sp_vox, sg_vox, spacing)
        got = surface_distances(sp_vox, sg_vox, spacing)
        for e, o in zip(got, expected):
            assert abs(e - o) <= 1e-6


def test_surface_distance_scales_with_spacing():
    rng = np.random.default_rng(6)
    p = _blob(rng)
    g = _blob(rng)
    base = _distances(p, g)
    double = _distances(p, g, (2.0, 2.0, 2.0))
    for b, d in zip(base, double):
        assert abs(d - 2.0 * b) <= 1e-9


def test_surface_hd_dominates_other_distances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = _blob(rng)
        g = _blob(rng)
        hd, assd, ahd = _distances(p, g)
        assert hd >= assd >= 0.0
        assert hd >= ahd >= 0.0


def test_surface_empty_mask_error():
    a = np.zeros((5, 5, 5), dtype=bool)
    b = np.zeros((5, 5, 5), dtype=bool)
    b[2, 2, 2] = True
    with pytest.raises(NumericDomainError, match="undefined distance"):
        _distances(a, b)


# ---------------------------------------------------------------------------
# tree metrics
# ---------------------------------------------------------------------------

def _y_tree(dims=(17, 17, 17)):
    """1-wide Y: trunk along z plus two diagonal arms."""
    data = np.zeros(dims, dtype=bool)
    data[8, 8, 0:9] = True                # trunk, junction at (8,8,8)
    for i in range(1, 7):
        data[8 + i, 8, 8 + i] = True       # right arm
        data[8 - i, 8, 8 + i] = True       # left arm
    return data


def test_tree_full_coverage_is_100():
    gt = _y_tree()
    bd, tld = _tree(gt, gt, skel_k=3)
    assert bd == 100.0 and tld == 100.0


def test_tree_one_missed_branch_bd():
    gt = _y_tree()
    pred = np.array(gt)
    for i in range(1, 7):
        pred[8 - i, 8, 8 + i] = False      # drop the left arm
    bd, tld = _tree(pred, gt, skel_k=3)
    assert abs(bd - 200.0 / 3.0) <= 0.01
    assert 0.0 < tld < 100.0


def test_tree_empty_pred_and_empty_gt():
    gt = _y_tree()
    bd, tld = _tree(np.zeros(gt.shape, dtype=bool), gt, skel_k=3)
    assert bd == 0.0 and tld == 0.0
    with pytest.raises(NumericDomainError):
        _tree(gt, np.zeros(gt.shape, dtype=bool), skel_k=3)


def test_tree_length_uses_spacing():
    gt = np.zeros((9, 9, 9), dtype=bool)
    gt[4, 4, 1:8] = True
    pred = np.array(gt)
    pred[4, 4, 5:] = False  # keep steps 1-4 of 6
    bd, tld = _tree(pred, gt, skel_k=3, spacing=(1.0, 1.0, 2.0))
    assert bd == 100.0
    assert abs(tld - 100.0 * 3.0 / 6.0) <= 1e-9


def _put_piece(fg, kind, rng):
    """Draw one centerline piece into fg at a random place: a ``voxel``,
    a ``triangle`` or a ``diamond`` (cycles whose voxels have two
    neighbours each), a ``blob`` (a box of sides 2-4, all junctions) or
    a ``walk`` (a random 26-connected path, which may cross itself)."""
    shape = np.array(fg.shape)
    at = rng.integers(0, shape)
    if kind == "voxel":
        pts = [at]
    elif kind == "triangle":
        pts = [at, at + (1, 0, 0), at + (0, 1, 0)]
    elif kind == "diamond":  # |dx| + |dy| = r in one plane, stepped diagonally
        r = int(rng.integers(1, 4))
        pts = [at + (dx, dy, 0) for dx in range(-r, r + 1)
               for dy in (r - abs(dx), abs(dx) - r)]
    elif kind == "blob":
        pts = [at + d for d in np.ndindex(*rng.integers(2, 5, 3))]
    else:
        pts = [at]
        for _ in range(int(rng.integers(1, 40))):
            pts.append(pts[-1] + rng.integers(-1, 2, 3))
    for q in pts:
        if (q >= 0).all() and (q < shape).all():
            fg[tuple(q)] = True


def _centerline(shape, kinds, density, seed):
    rng = np.random.default_rng(seed)
    fg = rng.random(shape) < density
    for kind in kinds:
        _put_piece(fg, kind, rng)
    if not fg.any():
        fg[tuple(rng.integers(0, shape))] = True
    return fg, rng


def _bits(pair):
    return [struct.pack("<d", v) for v in pair]


_SPACINGS = st.tuples(*[st.floats(0.1, 4.0, allow_nan=False)] * 3) | st.just((1.0, 1.0, 1.0))


@given(st.tuples(st.integers(1, 14), st.integers(1, 14), st.integers(1, 14)),
       st.lists(st.sampled_from(["voxel", "triangle", "diamond", "blob", "walk"]),
                max_size=6),
       st.sampled_from([0.0, 0.0, 0.05, 0.2, 0.5]),
       _SPACINGS, st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_tree_metrics_matches_the_branch_walk_oracle(shape, kinds, density, spacing,
                                                     p_density, seed):
    centerline, rng = _centerline(shape, kinds, density, seed)
    p = rng.random(shape) < p_density
    assert _bits(tree_metrics(p, centerline, spacing)) == \
        _bits(tree_metrics_oracle(p, centerline, spacing))


@pytest.mark.parametrize("kinds", [
    ["triangle"], ["triangle", "triangle", "diamond"],  # cycles, no junction
    ["blob"], ["blob", "blob"],  # all junctions: the whole-centerline fallback
    ["voxel"] * 5,  # single-voxel branches only: the voxel-coverage fallback
    ["walk", "diamond", "voxel", "blob"],
])
@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.9)])
def test_tree_metrics_matches_the_oracle_on_each_branch_kind(kinds, spacing):
    for seed in range(8):
        centerline, rng = _centerline((9, 8, 7), kinds, 0.0, seed)
        for p in (rng.random(centerline.shape) < 0.5, centerline,
                  np.zeros_like(centerline)):
            assert _bits(tree_metrics(p, centerline, spacing)) == \
                _bits(tree_metrics_oracle(p, centerline, spacing)), (kinds, seed)


def test_tree_metrics_memory_follows_the_centerline_not_the_volume():
    # five voxels at the far corner of a 160^3 volume: a neighbour grid
    # from the origin to the centerline would take 32 MB
    centerline = np.zeros((160, 160, 160), dtype=bool)
    centerline[155:, 159, 159] = True
    tree_metrics(centerline, centerline, (1.0, 1.0, 1.0))  # imports scipy.sparse.csgraph
    got, _, peak = traced(tree_metrics, centerline, centerline, (1.0, 1.0, 1.0))
    assert got == (100.0, 100.0)
    assert peak <= 64 * 1024, peak


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_evaluate_full_report():
    _, gt = make_phantom(PhantomSpec("cylinder", radius_mm=1.5), (17, 17, 17))
    pred = np.array(gt.data)
    pred[:, :, 12:] = 0
    d = evaluate(_mask(pred), gt, skel_k=6)
    assert set(d) == {"dice", "cldice", "f1", "precision", "recall", "hd",
                      "assd", "ahd", "bd", "tld", "pred_voxels", "gt_voxels",
                      "pred_surface_voxels", "gt_surface_voxels"}
    for key in ("dice", "cldice", "f1", "precision", "recall", "bd", "tld"):
        assert 0.0 <= d[key] <= 100.0
    assert d["hd"] >= d["assd"] >= 0.0
    assert d["precision"] == 100.0  # pred is a subset of gt
    counts = ("pred_voxels", "gt_voxels", "pred_surface_voxels", "gt_surface_voxels")
    assert all(type(d[key]) is int for key in counts)
    assert d["gt_voxels"] == gt.count() and d["pred_voxels"] == int((pred > 0).sum())


def test_evaluate_shares_skeletons_and_surfaces(monkeypatch):
    # One skeleton and one surface per mask feed every score, and the
    # scores equal those of the array functions fed by hard_skeleton and
    # surface_voxels.
    from tubekit import metrics

    calls = {"hard_skeleton": 0, "surface_voxels": 0}
    for name in calls:
        def counted(*args, _fn=getattr(metrics, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(metrics, name, counted)

    _, gt = make_phantom(PhantomSpec("bifurcation", radius_mm=2.0), (20, 20, 20))
    rng = np.random.default_rng(3)
    sp = (0.5, 1.0, 1.5)
    gt = _mask(gt.data, sp)
    for flip, skeletons in ((0.0, 1), (0.05, 2)):
        pred = _mask((gt.data > 0) ^ (rng.random(gt.dims) < flip), sp)
        for name in calls:
            calls[name] = 0
        report = evaluate(pred, gt, skel_k=4)
        assert calls == {"hard_skeleton": skeletons, "surface_voxels": 2}
        p, g = pred.data > 0, gt.data > 0
        assert report["cldice"] == _cldice(p, g, 4)
        assert (report["bd"], report["tld"]) == _tree(p, g, 4, sp)
        assert (report["hd"], report["assd"], report["ahd"]) == _distances(p, g, sp)
        assert report["pred_surface_voxels"] == len(surface_voxels(p))
        assert report["gt_surface_voxels"] == len(surface_voxels(g))


def test_metrics_measure_in_the_masks_spacing():
    _, gt = make_phantom(PhantomSpec("cylinder", radius_mm=2.0), (16, 16, 16),
                         (2.0, 2.0, 2.0))
    shifted = np.zeros_like(gt.data)
    shifted[1:] = gt.data[:-1]
    assert evaluate(Mask3(gt.dims, shifted, gt.spacing), gt)["hd"] == 2.0
    assert evaluate(_mask(shifted), _mask(gt.data))["hd"] == 1.0


@pytest.mark.parametrize("metric", [evaluate])
def test_metrics_reject_masks_of_different_spacing(metric):
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[2:4, 2:4, 1:5] = 1
    with pytest.raises(ParameterError, match="must share spacing"):
        metric(_mask(data), _mask(data, (2.0, 2.0, 2.0)))
