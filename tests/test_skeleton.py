import numpy as np
import pytest

from tubekit import NumericDomainError, ParameterError
from tubekit.skeleton import (SoftSkeletonTape, connected_components, hard_skeleton,
                              reconnect, soft_skeleton_array)

from memory import traced
from oracles import bresenham_line


def _mask(data):
    return np.asarray(data) > 0


def _line_mask(dims, axis, start, length, fixed):
    data = np.zeros(dims, dtype=np.uint8)
    idx = [fixed[0], fixed[1]]
    idx.insert(axis, slice(start, start + length))
    data[tuple(idx)] = 1
    return data


# ---------------------------------------------------------------------------
# soft skeleton
# ---------------------------------------------------------------------------

def test_one_wide_line_is_exact_fixed_point():
    data = np.zeros((9, 9, 9))
    data[4, 4, 1:8] = 1.0
    out = soft_skeleton_array(data, 2)
    assert np.array_equal(out, data)


def test_all_zero_maps_to_all_zero():
    out = soft_skeleton_array(np.zeros((8, 8, 8)), 3)
    assert not out.any()


def test_solid_bar_skeleton_strictly_inside():
    data = np.zeros((11, 11, 11))
    data[4:7, 4:7, :] = 1.0  # 3x3xL solid bar
    out = soft_skeleton_array(data, 2)
    assert out.any()
    assert (out[data == 0.0] == 0.0).all()
    assert out.sum() < data.sum()


def test_soft_skeleton_bounded_by_input():
    rng = np.random.default_rng(4)
    for _ in range(10):
        img = rng.random((7, 7, 7))
        out = soft_skeleton_array(img, 3)
        assert (out <= img + 1e-6).all()
        assert (out[img == 0.0] == 0.0).all()
        assert out.min() >= 0.0


def test_soft_skeleton_rejects_out_of_range():
    with pytest.raises(ParameterError):
        soft_skeleton_array(np.full((5, 5, 5), 1.5), 2)
    with pytest.raises(ParameterError, match="iterations must be >= 1"):
        soft_skeleton_array(np.full((5, 5, 5), 0.5), 0)


@pytest.mark.parametrize("shape", [(4, 4, 5), (2, 8, 4), (64,)])
def test_tape_backward_rejects_a_gradient_of_another_shape(shape):
    # (2, 8, 4) and (64,) hold as many voxels as the 4^3 skeleton: read as
    # flat indices, they would be routed to the wrong voxels.
    tape = SoftSkeletonTape(np.random.default_rng(5).random((4, 4, 4)), 3)
    with pytest.raises(ParameterError, match="shape"):
        tape.backward(np.ones(shape))


# ---------------------------------------------------------------------------
# hard skeleton
# ---------------------------------------------------------------------------

def test_hard_skeleton_line_and_empty():
    line = _line_mask((9, 9, 9), 2, 1, 7, (4, 4))
    assert np.array_equal(hard_skeleton(_mask(line), 2), _mask(line))
    empty = np.zeros((6, 6, 6), dtype=np.uint8)
    assert np.array_equal(hard_skeleton(_mask(empty), 2), _mask(empty))


def test_hard_skeleton_idempotent_on_one_wide_curves():
    rng = np.random.default_rng(17)
    for _ in range(8):
        # monotone-z staircase walk: one voxel per z slice, never 2-thick
        n = 12
        data = np.zeros((n, n, n), dtype=np.uint8)
        x, y = 5, 5
        for z in range(1, n - 1):
            data[x, y, z] = 1
            x = int(np.clip(x + rng.integers(-1, 2), 1, n - 2))
            y = int(np.clip(y + rng.integers(-1, 2), 1, n - 2))
        m = _mask(data)
        once = hard_skeleton(m, 3)
        twice = hard_skeleton(once, 3)
        assert np.array_equal(once, m)
        assert np.array_equal(twice, once)


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_hard_skeleton_rejects_a_non_boolean_array(dtype):
    # 0.4 would be foreground as uint8 after a cast, background at >= 0.5
    with pytest.raises(ParameterError, match="boolean"):
        hard_skeleton(np.full((5, 5, 5), 0.4).astype(dtype), 2)


def test_hard_skeleton_peaks_under_one_float64_volume():
    fg = np.random.default_rng(2).random((48, 48, 48)) < 0.7
    _, _, peak = traced(hard_skeleton, fg)
    assert peak < 8 * fg.size, peak


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def test_diagonal_pair_connectivity():
    data = np.zeros((5, 5, 5), dtype=np.uint8)
    data[1, 1, 1] = 1
    data[2, 2, 2] = 1
    assert connected_components(_mask(data))[1] == 1


def test_components_empty_and_full():
    labels, count = connected_components(_mask(np.zeros((4, 4, 4), dtype=np.uint8)))
    assert count == 0 and not labels.any()
    labels, count = connected_components(_mask(np.ones((3, 4, 5), dtype=np.uint8)))
    assert count == 1 and (labels == 1).all()


def test_component_ids_ordered_by_linear_index():
    data = np.zeros((8, 8, 8), dtype=np.uint8)
    data[6, 6, 6] = 1  # high linear index
    data[1, 0, 0] = 1  # low linear index
    data[0, 0, 4] = 1  # middle
    labels, count = connected_components(_mask(data))
    assert count == 3
    assert labels[1, 0, 0] == 1
    assert labels[0, 0, 4] == 2
    assert labels[6, 6, 6] == 3


# ---------------------------------------------------------------------------
# bresenham
# ---------------------------------------------------------------------------

def test_bresenham_axis_and_diagonal():
    pts = bresenham_line((1, 1, 1), (1, 1, 5))
    assert pts.tolist() == [[1, 1, 1], [1, 1, 2], [1, 1, 3], [1, 1, 4], [1, 1, 5]]
    pts = bresenham_line((0, 0, 0), (3, 3, 3))
    assert pts.tolist() == [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]]
    pts = bresenham_line((2, 2, 2), (2, 2, 2))
    assert pts.tolist() == [[2, 2, 2]]


def test_bresenham_steps_are_26_connected():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.integers(0, 10, 3)
        b = rng.integers(0, 10, 3)
        pts = bresenham_line(tuple(a), tuple(b))
        assert (pts[0] == a).all() and (pts[-1] == b).all()
        steps = np.abs(np.diff(pts, axis=0))
        assert steps.max(initial=0) <= 1
        assert (steps.sum(axis=1) >= 1).all()


# ---------------------------------------------------------------------------
# reconnect
# ---------------------------------------------------------------------------

def test_reconnect_collinear_gap_of_three():
    data = np.zeros((15, 7, 7), dtype=np.uint8)
    data[1:6, 3, 3] = 1    # voxels x=1..5
    data[9:14, 3, 3] = 1   # voxels x=9..13, gap x=6,7,8
    res = reconnect(_mask(data))
    assert connected_components(res.reconnected)[1] == 1
    assert (res.reconnected & ~_mask(data)).sum() == 3
    assert res.segments.tolist() == [[[9, 3, 3], [5, 3, 3]]]
    drawn = np.argwhere(res.reconnected & ~_mask(data))
    assert sorted(map(tuple, drawn)) == [(6, 3, 3), (7, 3, 3), (8, 3, 3)]


def test_reconnect_connected_input_is_identity():
    line = _line_mask((9, 9, 9), 0, 1, 6, (4, 4))
    res = reconnect(_mask(line))
    assert np.array_equal(res.reconnected, _mask(line))
    assert res.segments.shape == (0, 2, 3) and res.segments.dtype == np.int64


def test_reconnect_three_fragments_single_component():
    data = np.zeros((24, 9, 9), dtype=np.uint8)
    data[1:5, 4, 4] = 1
    data[9:13, 4, 4] = 1
    data[17:21, 4, 4] = 1
    res = reconnect(_mask(data))
    assert len(res.segments) >= 2
    assert connected_components(res.reconnected)[1] == 1


def test_reconnect_never_removes_voxels():
    rng = np.random.default_rng(31)
    for _ in range(10):
        data = (rng.random((10, 10, 10)) < 0.02).astype(np.uint8)
        if not data.any():
            data[4, 4, 4] = 1
        res = reconnect(_mask(data))
        assert (res.reconnected >= data).all()
        assert connected_components(res.reconnected)[1] == 1


def test_reconnect_endpoint_free_components():
    # two separated planar rings: no endpoints anywhere
    data = np.zeros((14, 6, 6), dtype=np.uint8)
    ring = [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2)]
    for x, y in ring:
        data[x, y, 2] = 1
        data[x + 8, y, 2] = 1
    res = reconnect(_mask(data))
    assert connected_components(res.reconnected)[1] == 1


def test_reconnect_empty_is_error():
    with pytest.raises(NumericDomainError):
        reconnect(_mask(np.zeros((5, 5, 5), dtype=np.uint8)))
