"""The kd-tree queries on the worker pool against the one-call form.

``surface_distances`` runs its two directions as parts, each cutting its
query points into one row range per worker (``evaluate`` runs it as a
part beside the centerline scores, so the call nests), and
``reconnect``'s nearest-endpoint search cuts each k-doubling round's
rows into parts of at most ``_QUERY_PAIRS`` / workers
(source, neighbour) pairs.  A point's neighbours depend only on the point
and the tree, so the joined results must be those of one query, bit for
bit, at 1, 2 and 4 workers: the surface distances against the all-pairs
oracle, the reconnection against the one-component-at-a-time oracle.
Lattices of isolated voxels tie 6, 8 or 12 targets at the nearest
distance, so the search doubles k up to 16; a budget of 64 pairs cuts a
round into a few rows a part, and one of 5 into single rows.  Both
modules import ``cKDTree`` from ``scipy.spatial`` when they query, so the
recording tree is patched in there.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import brute_surface_distances, reconnect_oracle
from pool import at_workers
from tubekit import Mask3, PhantomSpec, make_phantom, metrics, skeleton
from tubekit.metrics import evaluate, surface_distances, surface_voxels
from tubekit.skeleton import reconnect

THREADS = [1, 2, 4]


def _lattice(kind, shape):
    """Isolated voxels on a cubic (6 nearest), body-centred (8) or
    face-centred (12) lattice, none of them 26-adjacent."""
    x, y, z = np.indices(shape)
    if kind == "cubic":
        return (x % 2 == 0) & (y % 2 == 0) & (z % 2 == 0)
    if kind == "bcc":
        return (((x % 4 == 0) & (y % 4 == 0) & (z % 4 == 0))
                | ((x % 4 == 2) & (y % 4 == 2) & (z % 4 == 2)))
    return (x % 2 == 0) & (y % 2 == 0) & (z % 2 == 0) & ((x + y + z) % 4 == 0)


def _masks(case):
    rng = np.random.default_rng(case)
    if case == 0:  # one voxel each: fewer points than workers
        p = np.zeros((5, 5, 5), dtype=bool)
        g = p.copy()
        p[1, 1, 1] = g[3, 2, 4] = True
        return p, g
    if case == 1:  # lattices: many equidistant nearest points
        return _lattice("fcc", (12, 12, 12)), _lattice("bcc", (13, 12, 11))
    p = rng.random((12, 10, 9)) < 0.2
    g = rng.random((12, 10, 9)) < 0.1
    p[0, 0, 0] = g[5, 5, 5] = True
    return p, g


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.9)])
@pytest.mark.parametrize("case", range(5))
def test_surface_distances_match_the_oracle_bit_for_bit(monkeypatch, case, spacing, threads):
    surf_p, surf_g = (surface_voxels(m) for m in _masks(case))
    want = brute_surface_distances(surf_p, surf_g, spacing)
    sp = np.asarray(spacing)
    pairs = [(surf_p * sp, surf_g * sp), (surf_g * sp, surf_p * sp)]
    one_call = [cKDTree(b).query(a)[0] for a, b in pairs]
    monkeypatch.setattr("scipy.spatial.cKDTree", _RecordingTree)
    monkeypatch.setattr(_RecordingTree, "queries", [])
    with at_workers(threads):
        got = surface_distances(surf_p, surf_g, spacing)
        joined = [metrics._nearest_distances(a, b) for a, b in pairs]
    assert got == want
    assert [j.tobytes() for j in joined] == [w.tobytes() for w in one_call]
    # each direction's points are cut into one range per worker (some may
    # be empty), in both the nested and the direct calls
    queries = _RecordingTree.queries
    assert len(queries) == 4 * threads
    assert sum(rows for rows, _ in queries) == 2 * (len(surf_p) + len(surf_g))


def test_evaluate_reports_the_same_at_every_worker_count():
    image, gt = make_phantom(PhantomSpec("bifurcation", radius_mm=2.0, noise_sigma=0.3,
                                         seed=4), (24, 22, 20), (0.8, 1.0, 1.2))
    pred = Mask3(gt.dims, (np.asarray(image.data) > 0.5).astype(np.uint8), gt.spacing)
    reports = []
    for n in THREADS:
        with at_workers(n):
            reports.append(evaluate(pred, gt, skel_k=6))
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("threads", THREADS)
def test_evaluate_parts_raise_in_the_serial_order(monkeypatch, threads):
    # The surface queries come before the centerline scores, as in a
    # serial run, whichever part finishes first.
    _, gt = make_phantom(PhantomSpec("cylinder", radius_mm=2.0), (16, 16, 16))

    def fail(name):
        def raising(*args):
            raise RuntimeError(name)
        return raising

    monkeypatch.setattr(metrics, "tree_metrics", fail("centerline"))
    with at_workers(threads), pytest.raises(RuntimeError, match="centerline"):
        evaluate(gt, gt)
    monkeypatch.setattr(metrics, "_nearest_distances", fail("surface"))
    with at_workers(threads), pytest.raises(RuntimeError, match="surface"):
        evaluate(gt, gt)


class _RecordingTree(cKDTree):
    """A cKDTree that records (rows, k) of every query."""

    queries = []

    def query(self, x, k=1, **kwargs):
        self.queries.append((len(x), k))
        return super().query(x, k=k, **kwargs)


def _fields():
    rng = np.random.default_rng(11)
    noisy = rng.random((14, 12, 10)) < 0.05
    noisy[::3, ::3, ::3] = True
    return {"cubic": _lattice("cubic", (9, 9, 9)), "bcc": _lattice("bcc", (13, 13, 13)),
            "fcc": _lattice("fcc", (12, 12, 12)), "noisy": noisy}


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("pairs", [1 << 20, 64, 5])
@pytest.mark.parametrize("name", ["cubic", "bcc", "fcc", "noisy"])
def test_reconnect_matches_the_oracle_at_every_worker_count(monkeypatch, name, pairs,
                                                            threads):
    fg = _fields()[name]
    want, want_segments = reconnect_oracle(fg)
    monkeypatch.setattr(skeleton, "_QUERY_PAIRS", pairs)
    monkeypatch.setattr("scipy.spatial.cKDTree", _RecordingTree)
    monkeypatch.setattr(_RecordingTree, "queries", [])
    with at_workers(threads):
        got, segments = reconnect(fg)
    assert got.tobytes() == want.tobytes()
    assert segments.tolist() == [[list(a), list(b)] for a, b in want_segments]
    queries = _RecordingTree.queries
    # every query within its share of the budget, or one row
    assert all(rows * k <= max(k, pairs // threads) for rows, k in queries)
    if name in ("bcc", "fcc"):
        assert max(k for _, k in queries) >= 16
