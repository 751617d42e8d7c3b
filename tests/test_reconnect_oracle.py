"""Skeleton reconnection against the one-component-at-a-time oracle.

The package solves all components of a pass with one cKDTree query over
the pass's endpoints; the oracle builds a dense distance matrix per
component, as the loop did before.  Byte-equal masks and equal segment
lists pin the sources, the targets, the fallback and both tie rules.
The labels, endpoint flags and sizes that ``reconnect`` carries from
pass to pass are checked against a fresh labelling before every pass.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memory import traced
from oracles import bresenham_line, bresenham_line_oracle, reconnect_oracle
from pool import at_workers
from tubekit import skeleton
from tubekit.errors import NumericDomainError
from tubekit.skeleton import _neighbor_counts, _voxels, connected_components, reconnect


def _put(fg, kind, at, rng):
    x, y, z = at
    if kind == "voxel":
        fg[x, y, z] = True
    elif kind == "blob":  # 2x2x2: every voxel has 7 neighbours, no endpoint
        fg[x:x + 2, y:y + 2, z:z + 2] = True
    elif kind == "ring":  # 3x3 square without its centre, no endpoint
        fg[x:x + 3, y:y + 3, z] = True
        fg[x + 1, y + 1, z] = False
    else:
        fg[x:x + int(rng.integers(2, 5)), y, z] = True


def _field(shape, kinds, density, lattice, seed):
    rng = np.random.default_rng(seed)
    fg = rng.random(shape) < density
    if lattice:  # isolated voxels at equal spacing: equal-distance ties
        fg[::lattice, ::lattice, ::lattice] = True
    for kind in kinds:
        at = tuple(int(rng.integers(0, n - 2)) for n in shape)
        _put(fg, kind, at, rng)
    return fg


def _listed(segments):
    """The oracle's ((x, y, z), (x, y, z)) segments as ``tolist`` gives
    reconnect's (n, 2, 3) array."""
    return [[list(a), list(b)] for a, b in segments]


fields = st.tuples(
    st.tuples(*[st.integers(3, 16)] * 3),
    st.lists(st.sampled_from(["voxel", "blob", "ring", "line"]), max_size=8),
    st.sampled_from([0.0, 0.02, 0.06, 0.12]),
    st.sampled_from([0, 2, 3]),
    st.integers(0, 2 ** 32 - 1),
)


@given(fields)
def test_reconnect_matches_oracle(case):
    fg = _field(*case)
    fg.flat[0] = True  # never empty
    given_bytes = fg.tobytes()
    got, segments = reconnect(fg)
    assert fg.tobytes() == given_bytes  # the passes draw into a copy
    want, want_segments = reconnect_oracle(fg)
    assert got.tobytes() == want.tobytes()
    assert segments.tolist() == _listed(want_segments)


@given(st.tuples(
    st.tuples(*[st.integers(4, 16)] * 3),
    st.lists(st.sampled_from(["blob", "ring"]), min_size=2, max_size=6),
    st.booleans(),
    st.integers(0, 2 ** 32 - 1),
))
def test_fallback_matches_oracle(case):
    # Only endpoint-free fragments, plus at most one line that then owns
    # every endpoint: the fallback aims at all voxels of the others.
    shape, kinds, with_line, seed = case
    fg = _field(shape, kinds + ["line"] * with_line, 0.0, 0, seed)
    got, segments = reconnect(fg)
    want, want_segments = reconnect_oracle(fg)
    assert got.tobytes() == want.tobytes()
    assert segments.tolist() == _listed(want_segments)


@pytest.mark.parametrize("pairs", [1 << 20, 5])
@pytest.mark.parametrize("with_line", [True, False])
def test_endpoint_free_components_fall_back_to_all_voxels(monkeypatch, with_line,
                                                          pairs):
    # Rings and blobs have no endpoints.  With a short line beside them the
    # line owns every endpoint, so it must aim at any voxel of the others;
    # without it, every component falls back.  A small query budget splits
    # each neighbour query into many chunks.
    monkeypatch.setattr(skeleton, "_QUERY_PAIRS", pairs)
    fg = np.zeros((16, 12, 6), dtype=bool)
    rng = np.random.default_rng(0)
    for kind, at in (("ring", (0, 0, 0)), ("blob", (6, 1, 3)),
                     ("ring", (11, 7, 2)), ("blob", (2, 8, 4))):
        _put(fg, kind, at, rng)
    if with_line:
        fg[12:14, 1, 5] = True
    ends = _voxels(fg & (_neighbor_counts(fg) <= 1))[1].tolist()
    assert len(ends) == (2 if with_line else 0)
    got, segments = reconnect(fg)
    want, want_segments = reconnect_oracle(fg)
    assert got.tobytes() == want.tobytes()
    assert segments.tolist() == _listed(want_segments)
    if with_line:
        assert any(a in ends and b not in ends for a, b in segments.tolist())


def test_many_isolated_fragments_reconnect_in_bounded_memory():
    # 1334 voxels, mostly isolated, joined by 1553 segments.  One float64
    # distance matrix over all fragment pairs would take 16 volumes.  The
    # bound holds with the queries cut into pool parts as well.
    fg = np.random.default_rng(5).random((48, 48, 48)) < 0.012
    for threads in (1, 2):
        with at_workers(threads):
            res, _, peak = traced(reconnect, fg)
        assert connected_components(res.reconnected)[1] == 1
        assert peak <= 8 * 8 * fg.size, (threads, peak)  # 8 float64 volumes


def test_lines_match_the_stepping_loop():
    rng = np.random.default_rng(8)
    for _ in range(500):
        a = rng.integers(-20, 20, 3)
        b = a + rng.integers(-6, 7, 3) * rng.integers(0, 4)
        got = bresenham_line(tuple(a), tuple(b))
        assert got.tobytes() == bresenham_line_oracle(a, b).tobytes(), (a, b)


def test_a_pass_that_joins_nothing_raises(monkeypatch):
    passes = []

    def draw_nothing(pts, lab, end, sizes):
        passes.append(len(sizes))
        assert len(passes) < 5, "the loop did not stop"
        return np.empty((0, 3), dtype=np.int64), np.empty((0, 3), dtype=np.int64)

    monkeypatch.setattr(skeleton, "_reconnect_pass", draw_nothing)
    fg = np.zeros((6, 6, 6), dtype=bool)
    fg[0, 0, 0] = fg[5, 5, 5] = True
    with pytest.raises(NumericDomainError, match="a pass left 2 of 2 components"):
        reconnect(fg)


def _reconnect_checking_every_pass(fg):
    """``reconnect(fg)``, checking that every pass sees the voxel list,
    labels, endpoint flags and sizes that labelling and counting the
    drawn mask from scratch would give; returns the component count each
    pass saw."""
    seen = []
    pass_ = skeleton._reconnect_pass

    def checked(pts, lab, end, sizes):
        drawn = np.zeros(fg.shape, dtype=bool)
        drawn[tuple(pts.T)] = True
        assert np.array_equal(pts, _voxels(drawn)[1])
        labels, count = connected_components(drawn)
        assert np.array_equal(lab, labels[tuple(pts.T)])
        assert np.array_equal(sizes, np.bincount(labels.ravel(), minlength=count + 1)[1:])
        assert np.array_equal(end, _neighbor_counts(drawn)[tuple(pts.T)] <= 1)
        seen.append(len(sizes))
        return pass_(pts, lab, end, sizes)

    skeleton._reconnect_pass = checked  # by hand: a @given test takes no monkeypatch
    try:
        got, _ = reconnect(fg)
    finally:
        skeleton._reconnect_pass = pass_
    assert connected_components(got)[1] == 1
    return seen


@given(fields)
def test_carried_state_matches_a_fresh_labelling_every_pass(case):
    fg = _field(*case)
    fg.flat[0] = True
    seen = _reconnect_checking_every_pass(fg)
    assert seen == sorted(set(seen), reverse=True)


def test_merged_ids_follow_each_first_voxel():
    # A and B join each other; C's line to D's end passes (3, 5, 0), before
    # A's first voxel (29, 6, 0) in linear order, so the merged {C, D} must
    # take id 1 although A had the smaller id before the pass.
    fg = np.zeros((30, 10, 4), dtype=bool)
    fg[29, 6, 0] = fg[29, 8, 0] = fg[3, 9, 0] = True  # A, B, C
    fg[3, 0, 1:4] = True  # D, the largest
    assert _reconnect_checking_every_pass(fg) == [4, 2]


def test_reconnect_labels_the_volume_once(monkeypatch):
    fg = np.random.default_rng(2).random((24, 20, 16)) < 0.02
    pieces = connected_components(fg)[1]
    calls = []
    label = skeleton.ndimage.label

    def counted(*args, **kwargs):
        calls.append(1)
        return label(*args, **kwargs)

    monkeypatch.setattr(skeleton.ndimage, "label", counted)
    res = reconnect(fg)
    assert len(calls) == 1
    assert len(res.segments) > pieces - 1  # more than one pass


@given(st.integers(1, 60), st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)),
                                    max_size=120))
def test_min_roots_give_each_component_its_smallest_node(n, edges):
    from scipy.sparse import coo_matrix, csgraph
    u, v = (np.array([e[k] % n for e in edges], dtype=np.intp) for k in (0, 1))
    _, comp = csgraph.connected_components(
        coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n)), directed=False)
    smallest = np.array([np.flatnonzero(comp == c).min() for c in comp])
    assert np.array_equal(skeleton._min_roots(n, u, v), smallest)
