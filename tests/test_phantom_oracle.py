"""make_phantom in z-slabs, with distances only near the centerline,
against the former whole-volume code."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from memory import traced
from oracles import _oracle_centerline_distance, phantom_oracle
from pool import at_workers
from tubekit import volume, workers
from tubekit.volume import PHANTOM_KINDS, PhantomSpec, make_phantom


@pytest.mark.parametrize("kind", PHANTOM_KINDS)
@pytest.mark.parametrize("slab", [1, 5000, workers.SLAB_VOXELS])
def test_slabs_match_whole_volume_oracle(kind, slab, monkeypatch):
    # the slabs run on the pool: the bytes are the same at 1 and 2 workers
    monkeypatch.setattr(workers, "SLAB_VOXELS", slab)
    for threads, (dims, spacing, spec) in itertools.product((1, 2), (
            ((33, 30, 41), (0.5, 0.75, 1.25),
             PhantomSpec(kind, 2.0, noise_sigma=0.3, gap_len_voxels=5, seed=7)),
            ((20, 16, 70), (1.0, 1.0, 1.0),
             PhantomSpec(kind, 3.5, foreground_intensity=2.0, background_intensity=-1.0,
                         gap_len_voxels=9, seed=1)))):
        with at_workers(threads):
            image, label = make_phantom(spec, dims, spacing)
        o_image, o_label = phantom_oracle(spec, dims, spacing)
        assert image.data.tobytes() == o_image.tobytes()
        assert label.data.tobytes() == o_label.tobytes()
        assert label.count() > 0


_SPACINGS = st.sampled_from([0.5, 0.75, 1.0, 1.25, 2.0])


@settings(max_examples=80)
@given(st.data())
def test_bytes_match_the_every_voxel_oracle(data):
    # radii up to past the helix amplitude, so the helix's shell reaches
    # the axis and the bifurcation's branch boxes overlap
    kind = data.draw(st.sampled_from(PHANTOM_KINDS), "kind")
    dims = data.draw(st.tuples(*[st.integers(16, 40)] * 3), "dims")
    spacing = data.draw(st.tuples(*[_SPACINGS] * 3), "spacing")
    amp = min((dims[0] - 1) * spacing[0], (dims[1] - 1) * spacing[1]) / 4.0
    radius = data.draw(st.one_of(st.floats(0.3, 3.0),
                                 st.floats(0.5, 1.5).map(lambda f: f * amp)), "radius")
    spec = PhantomSpec(kind, radius, noise_sigma=data.draw(st.sampled_from([0.0, 0.25])),
                       gap_len_voxels=data.draw(st.integers(0, dims[2] - 1), "gap"),
                       seed=data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
    slab = data.draw(st.sampled_from([1, 5000, workers.SLAB_VOXELS]), "slab")
    threads = data.draw(st.sampled_from([1, 2]), "threads")
    with mock.patch.object(workers, "SLAB_VOXELS", slab), at_workers(threads):
        image, label = make_phantom(spec, dims, spacing)
    o_image, o_label = phantom_oracle(spec, dims, spacing)
    assert image.data.tobytes() == o_image.tobytes()
    assert label.data.tobytes() == o_label.tobytes()


def test_helix_queries_only_voxels_near_its_cylinder(monkeypatch):
    # a ring of columns about the axis, every height, queried 50688 voxels
    # (19% of the volume); bounding each height by angle leaves 8506
    queried = []

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(volume, "cKDTree", CountingTree)
    dims = (64, 64, 64)
    label = make_phantom(PhantomSpec("helix", 2.0, seed=4), dims)[1]
    assert label.count() > 0
    assert 0 < sum(queried) <= 0.05 * np.prod(dims), sum(queried)


def test_helix_wider_than_its_amplitude_keeps_the_axis_voxels():
    # radius 1.5 * amp: every voxel within amp / 2 of the axis is inside, at
    # angles up to pi from the helix's, though the climb term alone spans 0.9 rad
    dims, spacing = (16, 16, 40), (0.5, 0.5, 1.0)
    amp = min((dims[0] - 1) * spacing[0], (dims[1] - 1) * spacing[1]) / 4.0
    spec = PhantomSpec("helix", 1.5 * amp, noise_sigma=0.25, seed=3)
    image, label = make_phantom(spec, dims, spacing)
    o_image, o_label = phantom_oracle(spec, dims, spacing)
    assert image.data.tobytes() == o_image.tobytes()
    assert label.data.tobytes() == o_label.tobytes()
    x, y = np.meshgrid(*[np.arange(n) * s for n, s in zip(dims[:2], spacing[:2])],
                       indexing="ij")
    rho = np.hypot(x - (dims[0] - 1) / 2.0 * spacing[0], y - (dims[1] - 1) / 2.0 * spacing[1])
    assert rho.min() <= amp / 2 and label.data[rho <= amp / 2].all()


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
    # the whole-volume code peaked at 14 float64 volumes (bifurcation);
    # tracemalloc counts every thread, so at 2 workers both slabs in flight count
    dims, spec = (128, 128, 128), PhantomSpec(kind, 2.0, noise_sigma=0.3, seed=3)
    for threads in (1, 2):
        with at_workers(threads):
            _, _, peak = traced(make_phantom, spec, dims)
        assert peak <= 1.5 * 8 * np.prod(dims), (threads, peak)
