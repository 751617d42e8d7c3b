"""The spatial loss against its former per-offset loop.

The oracle visits every pair from both ends, allocating fresh temporaries
over each offset's 3-D views, and counts pairs by count_nonzero(a*b) per
offset.  The package visits each unordered pair once, in flat blocks of
whole planes reusing small block buffers, and counts pairs with one box
sum of the nonzero mask.  The counts are exact while no a*b underflows,
which the domain (finite inputs, every nonzero |y| >= 2^-537) guarantees,
and n_pairs is compared exactly.  Each kernel keeps its bits, but value
and gradient are sums taken in another order, so they are checked to
``TOL`` of the oracle's sums over |yhat|, which cannot cancel: over 2100
drawn cases at both block sizes the value moved by at most 3.2e-15 and a
gradient voxel by at most 3.9e-15 of that scale.
"""

import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import spatial_loss_oracle
from tubekit import ParameterError, losses
from tubekit.losses import (SPATIAL_MAX_RADIUS, SPATIAL_MIN_MAGNITUDE, GatedKernelParams,
                            loss_spatial_array)

TOL = 1e-14  # of the value and of each gradient voxel, over |yhat|


def _inputs(kind, shape, seed):
    rng = np.random.default_rng(seed)
    guide = rng.random(shape)
    if kind == "smallest":  # products near the smallest subnormal
        return (1.0 + rng.random(shape)) * SPATIAL_MIN_MAGNITUDE, guide
    yhat = rng.random(shape).astype(np.float32).astype(np.float64)
    if kind == "sparse":
        yhat[rng.random(shape) < 0.85] = 0.0
    if kind == "signed":  # negative predictions and -0.0 entries
        yhat -= 0.5
        yhat[rng.random(shape) < 0.6] = -0.0
    return yhat, guide


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64).tobytes()


def _assert_matches_oracle(got, yhat, guide, sigma_l, sigma_c, radius):
    value, grad, n_pairs = got
    o_value, o_grad, o_pairs = spatial_loss_oracle(yhat, guide, sigma_l, sigma_c, radius)
    a_value, a_grad, _ = spatial_loss_oracle(np.abs(yhat), guide, sigma_l, sigma_c, radius)
    assert n_pairs == o_pairs
    assert abs(value - o_value) <= TOL * a_value
    assert (np.abs(grad - o_grad) <= TOL * a_grad).all()


cases = st.tuples(
    st.sampled_from(["dense", "sparse", "smallest", "signed"]),
    st.tuples(*[st.integers(1, 12)] * 3),
    st.integers(1, 3),
    st.sampled_from([(1.5, 0.1), (0.8, 2.0)]),
    st.integers(0, 2 ** 32 - 1),
)


@given(cases)
def test_matches_former_loop_to_tolerance(case):
    kind, shape, radius, (sigma_l, sigma_c), seed = case
    yhat, guide = _inputs(kind, shape, seed)
    # A block of 1 voxel means one plane: shapes up to 12^3 then run in
    # several blocks, and a pair's two voxels often lie in different ones.
    for block in (losses.SPATIAL_BLOCK, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(losses, "SPATIAL_BLOCK", block)
            got = loss_spatial_array(yhat, guide, GatedKernelParams(sigma_l, sigma_c, radius))
        _assert_matches_oracle(got, yhat, guide, sigma_l, sigma_c, radius)


def test_axis_shorter_than_the_window():
    # an offset of 3 on an axis of 2 once sliced one cell against none
    yhat, guide = _inputs("dense", (2, 4, 1), 4)
    got = loss_spatial_array(yhat, guide, GatedKernelParams(radius=3))
    assert got[2] == 8 * 7  # the window holds the whole volume
    _assert_matches_oracle(got, yhat, guide, 1.5, 0.1, 3)


@pytest.mark.parametrize("shape", [(0, 4, 4), (4, 0, 4), (4, 4, 0)])
def test_an_empty_volume_has_no_pairs(shape):
    value, grad, n_pairs = loss_spatial_array(np.zeros(shape), np.zeros(shape),
                                              GatedKernelParams())
    assert (value, grad.shape, n_pairs) == (0.0, shape, 0)


def test_window_is_cut_to_the_volume():
    # Every offset beyond max(dims) - 1 = 7 pairs no voxels, so a radius
    # of 10**6 gives the radius-7 bits without walking its huge window.
    yhat, guide = _inputs("sparse", (6, 7, 8), 3)
    want = loss_spatial_array(yhat, guide, GatedKernelParams(radius=7))

    def give_up(signum, frame):
        raise TimeoutError("radius 10**6 took more than a second")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        got = loss_spatial_array(yhat, guide, GatedKernelParams(radius=10 ** 6))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert got[2] == want[2] > 0
    assert _bits(got[0]) == _bits(want[0])
    assert _bits(got[1]) == _bits(want[1])


def test_cut_radius_above_the_limit_is_refused():
    # Each offset is a pass over the volume: the window is cut to the
    # volume first, and only a cut radius above the limit is refused.
    params = GatedKernelParams(radius=10 ** 6)
    yhat, guide = _inputs("sparse", (SPATIAL_MAX_RADIUS + 1, 2, 3), 5)
    assert loss_spatial_array(yhat, guide, params)[2] > 0
    yhat, guide = _inputs("sparse", (SPATIAL_MAX_RADIUS + 2, 2, 3), 5)
    assert loss_spatial_array(yhat, guide, GatedKernelParams(radius=SPATIAL_MAX_RADIUS))[2] > 0
    for radius in (SPATIAL_MAX_RADIUS + 1, 10 ** 6):
        with pytest.raises(ParameterError, match=f"radius {SPATIAL_MAX_RADIUS + 1} exceeds"):
            loss_spatial_array(yhat, guide, GatedKernelParams(radius=radius))


@pytest.mark.parametrize("where, bad", [
    ("yhat", np.nan), ("yhat", np.inf), ("guide", np.nan), ("guide", -np.inf),
    ("yhat", SPATIAL_MIN_MAGNITUDE / 2), ("yhat", -np.nextafter(SPATIAL_MIN_MAGNITUDE, 0.0)),
    ("yhat", 5e-324),
])
def test_rejects_inputs_outside_the_domain(where, bad):
    yhat, guide = _inputs("dense", (4, 4, 4), 1)
    (yhat if where == "yhat" else guide)[1, 2, 3] = bad
    with pytest.raises(ParameterError, match="2\\^-537"):
        loss_spatial_array(yhat, guide, GatedKernelParams())


def test_domain_edge_is_where_the_counts_could_part():
    guide = np.zeros((3, 3, 3))
    edge = np.full((3, 3, 3), -SPATIAL_MIN_MAGNITUDE)
    n_pairs = loss_spatial_array(edge, guide, GatedKernelParams(radius=1))[2]
    assert n_pairs == spatial_loss_oracle(edge, guide, 1.5, 0.1, 1)[2] == 316
    # below the edge every product underflows and the former loop counts
    # no pair, while the nonzero mask still holds every voxel
    below = np.full((3, 3, 3), 2.0 ** -540)
    assert spatial_loss_oracle(below, guide, 1.5, 0.1, 1)[2] == 0
    with pytest.raises(ParameterError):
        loss_spatial_array(below, guide, GatedKernelParams(radius=1))
