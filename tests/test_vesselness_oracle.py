"""Slab-by-slab vesselness against the whole-volume oracle.

The package smooths each scale in blocks, differentiates and eigen-solves
it in slabs of planes along axis 0, keeps the signed l2/l3 of the voxels
that can respond and a running max(l3), and forms the response slab by
slab; the oracle materialises every field over the whole volume.
Bit-equal float32 responses (compared as uint32) pin the halo, the edge
replication at the volume's ends, the running maximum and the slab and
block bounds, including 1-plane slabs, a short last slab and a single slab.
The same bits come out at 1, 2 and 3 pool workers, and the package's
response, which forms the middle branch everywhere and then selects,
equals the oracle's at every voxel, tiny and signed-zero eigenvalues too.
The smoothing's x-blocks and the Hessian's slabs, each against the
oracle's whole-volume passes, and the Hessian's divisions by a power of
two, against true division, are pinned on their own as well.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (_hessian_whole_volume_oracle, _jerman_oracle, gaussian_kernel_1d,
                     gaussian_smooth_oracle, vesselness_multiscale_oracle)
from pool import at_workers
from tubekit import ParameterError, PhantomSpec, Volume3, make_phantom, workers
from tubekit.vesselness import (JermanParams, _divide, _jerman_response, gaussian_smooth,
                                hessian_at_scale, vesselness_multiscale)


def _volume(kind, shape, spacing, seed):
    rng = np.random.default_rng(seed)
    if kind == "noise":
        data = rng.standard_normal(shape)
    elif kind == "quantised":  # flat patches: degenerate Hessians and ties
        data = rng.integers(0, 3, shape).astype(np.float64)
    else:  # a bright bar along a random axis, plus weak noise
        data = 0.05 * rng.standard_normal(shape)
        axis = int(rng.integers(0, 3))
        idx = [slice(None)] * 3
        for other in range(3):
            if other != axis:
                c = shape[other] // 2
                idx[other] = slice(max(c - 1, 0), c + 1)
        data[tuple(idx)] += 1.0
    return Volume3(shape, spacing, data.astype(np.float32))


def _assert_bit_equal(vol, params, slab_voxels):
    with mock.patch.object(workers, "SLAB_VOXELS", slab_voxels):
        got = vesselness_multiscale(vol, params).data
    want = vesselness_multiscale_oracle(vol, params)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


SCALE_SETS = [(1.0,), (0.7, 1.3), (1.0, 1.5, 2.0, 3.0), (0.5, 2.5)]


@given(st.sampled_from(["noise", "quantised", "bar"]),
       st.tuples(*[st.integers(5, 40)] * 3),
       st.tuples(*[st.sampled_from([0.5, 0.8, 1.0, 1.7])] * 3),
       st.sampled_from(SCALE_SETS),
       st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       st.sampled_from(["bright", "dark"]),
       st.integers(0, 42),
       st.integers(0, 2 ** 32 - 1))
def test_slabs_match_whole_volume_oracle(kind, shape, spacing, scales, tau,
                                         polarity, planes, seed):
    # The smoothing kernel must fit the volume, as vesselness requires.
    assume(3.0 * max(scales) / min(spacing) <= max(shape))
    vol = _volume(kind, shape, spacing, seed)
    params = JermanParams(tau=tau, scales=scales, polarity=polarity)
    # planes == 0 leaves less than one plane: slabs are then one plane thick.
    _assert_bit_equal(vol, params, max(planes * shape[1] * shape[2], 1))


@pytest.mark.parametrize("slab_planes", [1, 2, 5, 22, 23, 40])
def test_slab_bounds_match_whole_volume_oracle(slab_planes):
    # 23 planes: 5-plane slabs leave a short last slab of 3; 23 and 40 give
    # a single slab; 22 gives a 1-plane last slab.
    vol = _volume("noise", (23, 9, 11), (0.6, 0.9, 1.3), seed=4)
    for polarity in ("bright", "dark"):
        params = JermanParams(tau=0.5, scales=(1.0, 2.0), polarity=polarity)
        _assert_bit_equal(vol, params, slab_planes * 9 * 11)


def test_default_slabs_match_whole_volume_oracle():
    image, _ = make_phantom(PhantomSpec("helix", 2.0, noise_sigma=0.3, seed=1),
                            (40, 36, 32), (0.9, 1.0, 1.1))
    params = JermanParams()
    _assert_bit_equal(image, params, workers.SLAB_VOXELS)


def _bits(a):
    return a.view(np.uint32).tobytes()


@given(st.sampled_from(["noise", "quantised", "bar"]),
       st.tuples(st.integers(5, 9), st.integers(5, 24), st.integers(5, 24)),
       st.tuples(*[st.sampled_from([0.5, 0.8, 1.0, 1.7])] * 3),
       st.sampled_from(SCALE_SETS),
       st.sampled_from(["bright", "dark"]),
       st.integers(0, 12),
       st.integers(0, 2 ** 32 - 1))
def test_worker_count_changes_no_bit(kind, shape, spacing, scales, polarity, planes, seed):
    assume(3.0 * max(scales) / min(spacing) <= max(shape))
    vol = _volume(kind, shape, spacing, seed)
    params = JermanParams(scales=scales, polarity=polarity)
    # planes * plane voxels per slab: from 1-plane slabs to one slab for all.
    slab_voxels = max(planes * shape[1] * shape[2], 1)
    want_smooth = gaussian_smooth_oracle(vol.data, spacing, scales[0])
    want = vesselness_multiscale_oracle(vol, params)
    for n in (1, 2, 3):
        with at_workers(n), mock.patch.object(workers, "SLAB_VOXELS", slab_voxels):
            smooth = gaussian_smooth(vol.data, spacing, scales[0])
            got = vesselness_multiscale(vol, params).data
        assert smooth.dtype == got.dtype == np.float32
        assert _bits(smooth) == _bits(want_smooth), n
        assert _bits(got) == _bits(want), n


@pytest.mark.parametrize("slab_voxels", [1, 420])
def test_smoothing_blocks_match_whole_volume_oracle(slab_voxels):
    # x-blocks of 110-voxel planes: 1 voxel gives 1-plane blocks; 420 gives
    # 3 planes at 1, 2 and 3 workers, with a short last block where
    # the axis is not a multiple of the step.  The x kernel's radius is 4
    # planes at sigma 0.7 and 10 at 2.0: at 7 planes every block gathers
    # clamped planes, at 40 the blocks between read the source's own.
    for shape in ((7, 10, 11), (40, 10, 11)):
        vol = _volume("noise", shape, (0.6, 1.0, 1.7), seed=9)
        for sigma in (0.7, 2.0):
            want = _bits(gaussian_smooth_oracle(vol.data, vol.spacing, sigma))
            for n in (1, 2, 3):
                with at_workers(n), mock.patch.object(workers, "SLAB_VOXELS", slab_voxels):
                    got = gaussian_smooth(vol.data, vol.spacing, sigma)
                assert got.dtype == np.float32
                assert _bits(got) == want, (shape, sigma, n)


def test_smoothing_sums_x_taps_in_correlate1d_order():
    # An x-line (0, c, a, a, 1, a, a, c, 0) whose pair terms cancel to far
    # below their size: at its middle the float64 sum rounds differently
    # with the taps added 3, 2, 1 after the centre, as correlate1d does for
    # a symmetric kernel, than 1, 2, 3.  The float32 result keeps the
    # difference; the lines along y and z are constant.
    w = gaussian_kernel_1d(0.7, 1.0)[3:]  # the centre tap, then taps 1..3 planes away
    a = (2.0 ** 44 + np.arange(4096) * 2.0 ** 21).astype(np.float32).astype(float)
    c = (-a * (w[1] + w[2]) / w[3]).astype(np.float32).astype(float)
    down = ((w[0] + 2 * c * w[3]) + 2 * a * w[2]) + 2 * a * w[1]
    up = ((w[0] + 2 * a * w[1]) + 2 * a * w[2]) + 2 * c * w[3]
    k = np.flatnonzero(down.astype(np.float32) != up.astype(np.float32))[0]
    line = np.zeros(9, dtype=np.float32)
    line[[2, 3, 5, 6]], line[[1, 7]], line[4] = a[k], c[k], 1.0
    data = np.broadcast_to(line[:, None, None], (9, 6, 7))
    got = gaussian_smooth(data, (1.0, 1.0, 1.0), 0.7)
    assert got[4, 0, 0] == np.float32(down[k]) != np.float32(up[k])
    assert _bits(got) == _bits(gaussian_smooth_oracle(data, (1.0, 1.0, 1.0), 0.7))


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.5, 0.25, 2.0), (0.6, 0.9, 1.7)])
def test_hessian_slabs_match_whole_volume_oracle(spacing):
    # Unit spacing skips the diagonal divisions, (0.5, 0.25, 2) multiplies by
    # every divisor's reciprocal and (0.6, 0.9, 1.7) divides by each.  The
    # slabs: every 1-plane slab, both ends among them, interior and end
    # slabs of several planes, and the whole volume.
    vol = _volume("noise", (9, 7, 8), spacing, seed=2)
    smooth = gaussian_smooth_oracle(vol.data, spacing, 1.3)
    want = _hessian_whole_volume_oracle(vol.data, spacing, 1.3)
    for lo, hi in [(i, i + 1) for i in range(9)] + [(0, 4), (4, 7), (7, 9), (2, 9), (0, 9)]:
        got = hessian_at_scale(smooth, spacing, 1.3, slice(lo, hi))
        assert got.dtype == np.float32 and got.shape == want[lo:hi].shape
        assert _bits(got) == _bits(want[lo:hi]), (lo, hi)


_DIVIDEND = st.one_of(st.floats(allow_nan=False),
                      st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                       2.2250738585072014e-308, 1.5e-310]))


@given(st.lists(_DIVIDEND, min_size=1, max_size=32),
       st.one_of(st.integers(-30, 30).map(lambda k: 2.0 ** k),
                 st.floats(min_value=5e-324, allow_infinity=False)))
def test_divide_matches_true_division(dividends, d):
    # d = 2^k (1 at k = 0) takes the reciprocal or no step; any other d divides.
    t = np.array(dividends)
    with np.errstate(all="ignore"):  # overflow and underflow, the same on both paths
        want = t / d
        _divide(t, d)
    assert t.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_non_finite_hessian_raises_from_a_worker():
    # Only the last two of six 4-plane slabs overflow float32 at sigma 3:
    # their parts run on either worker, and the error reaches the caller.
    data = np.zeros((24, 12, 12), dtype=np.float32)
    data[16:] = np.where(np.arange(12) % 8 < 4, 3e38, -3e38)[:, None]
    vol = Volume3(data.shape, (1.0, 1.0, 1.0), data)
    with at_workers(2), mock.patch.object(workers, "SLAB_VOXELS", 4 * 12 * 12):
        with pytest.raises(ParameterError) as info:
            vesselness_multiscale(vol, JermanParams(scales=(3.0,)))
    assert type(info.value) is ParameterError
    assert str(info.value) == "Hessian components must be finite"


# Eigenvalues with the branch edges: 0, -0, tiny and ordinary magnitudes.
_EIGENVALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324]),
                        st.floats(-1e3, 1e3), st.floats(-1e-150, 1e-150))


@given(st.lists(st.tuples(_EIGENVALUE, _EIGENVALUE, st.sampled_from(["free", "half", "cap"])),
                min_size=1, max_size=64),
       st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
       st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_lean_jerman_matches_every_voxel_response(rows, lambda3_max, tau):
    # "half" puts l2 exactly on lp/2 where l3 exceeds the floor; "cap" puts
    # l3 on the floor tau*lambda3_max itself.
    cap = tau * lambda3_max
    l3 = np.array([cap if how == "cap" else b for a, b, how in rows])
    l2 = np.array([c / 2.0 if how != "free" else a for (a, _, how), c in zip(rows, l3)])
    with np.errstate(over="ignore", invalid="ignore"):  # tiny l2 + lp cubes to inf
        got = _jerman_response(l2, l3, lambda3_max, tau)
        want = _jerman_oracle(l2, l3, lambda3_max, tau)
    assert got.dtype == want.dtype == np.float64
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_lean_jerman_branch_edges():
    # l2 = 0, lp = 0 (l3 <= 0), l2 = lp/2 exactly, and one middle voxel.
    l2 = np.array([0.0, 0.3, 1.0, 0.5, -0.2])
    l3 = np.array([2.0, -1.0, 2.0, 2.0, 2.0])
    got = _jerman_response(l2, l3, 2.0, 0.5)
    assert got.tolist()[:3] == [0.0, 0.0, 1.0] and got[4] == 0.0
    assert 0.0 < got[3] < 1.0
    want = _jerman_oracle(l2, l3, 2.0, 0.5)
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
