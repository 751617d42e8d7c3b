"""make_phantom in z-slabs against the former whole-volume code."""

import tracemalloc

import numpy as np
import pytest

from oracles import _oracle_centerline_distance, phantom_oracle
from tubekit import volume
from tubekit.volume import PHANTOM_KINDS, PhantomSpec, make_phantom


@pytest.mark.parametrize("kind", PHANTOM_KINDS)
@pytest.mark.parametrize("slab", [1, 5000, volume._PHANTOM_SLAB])
def test_slabs_match_whole_volume_oracle(kind, slab, monkeypatch):
    monkeypatch.setattr(volume, "_PHANTOM_SLAB", slab)
    for dims, spacing, spec in (
            ((33, 30, 41), (0.5, 0.75, 1.25),
             PhantomSpec(kind, 2.0, noise_sigma=0.3, gap_len_voxels=5, seed=7)),
            ((20, 16, 70), (1.0, 1.0, 1.0),
             PhantomSpec(kind, 3.5, foreground_intensity=2.0, background_intensity=-1.0,
                         gap_len_voxels=9, seed=1))):
        image, label = make_phantom(spec, dims, spacing)
        o_image, o_label = phantom_oracle(spec, dims, spacing)
        assert image.data.tobytes() == o_image.tobytes()
        assert label.data.tobytes() == o_label.tobytes()
        assert label.count() > 0


def test_helix_voxel_exactly_at_the_radius_is_inside():
    # the helix's nearest-point query stops just past radius_mm
    dims, spacing = (24, 20, 18), (1.0, 0.5, 1.5)
    dist = _oracle_centerline_distance(PhantomSpec("helix", 1.0), dims, spacing)
    radius = float(np.sort(dist.ravel())[dist.size // 20])
    spec = PhantomSpec("helix", radius, seed=2)
    label = make_phantom(spec, dims, spacing)[1].data
    assert label.tobytes() == phantom_oracle(spec, dims, spacing)[1].tobytes()
    assert label[dist == radius].all()


@pytest.mark.parametrize("kind", ["bifurcation", "helix"])
def test_peak_memory_is_bounded_in_volumes(kind):
    # the whole-volume code peaked at 14 float64 volumes (bifurcation)
    dims = (128, 128, 128)
    tracemalloc.start()
    try:
        make_phantom(PhantomSpec(kind, 2.0, noise_sigma=0.3, seed=3), dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * np.prod(dims), peak
