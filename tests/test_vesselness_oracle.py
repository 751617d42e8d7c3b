"""Slab-by-slab vesselness against the whole-volume oracle.

The package differentiates and eigen-solves each scale in slabs of planes
along axis 0, keeps the signed l2/l3 and a running max(l3), and forms the
response slab by slab; the oracle materialises every field over the whole
volume.  Bit-equal float32 responses (compared as uint32) pin the halo,
the edge replication at the volume's ends, the running maximum and the
slab bounds, including 1-plane slabs, a short last slab and a single slab.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import vesselness_multiscale_oracle
from tubekit import PhantomSpec, Volume3, make_phantom, vesselness
from tubekit.vesselness import JermanParams, vesselness_multiscale


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
    with mock.patch.object(vesselness, "_SLAB_VOXELS", slab_voxels):
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
    _assert_bit_equal(image, params, vesselness._SLAB_VOXELS)
