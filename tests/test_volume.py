import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from tubekit import (FileFormatError, Mask3, NumericDomainError, ParameterError,
                     PhantomSpec, RoiBox, Volume3, load_tvol, make_phantom,
                     roi_from_label, save_tvol, volume)

from oracles import cylinder_voxel_count


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_volume_invariants_enforced():
    with pytest.raises(ParameterError):
        Volume3((2, 2, 2), (1, 1, 1), np.zeros(7, dtype=np.float32))
    with pytest.raises(ParameterError):
        Volume3((2, 2, 2), (1, 0, 1), np.zeros(8, dtype=np.float32))
    with pytest.raises(ParameterError):
        Volume3((2, 2, 2), (1, 1, 1), np.full(8, np.nan, dtype=np.float32))
    with pytest.raises(ParameterError):
        Volume3((0, 2, 2), (1, 1, 1), np.zeros(0, dtype=np.float32))


def test_mask_requires_binary_values():
    with pytest.raises(ParameterError):
        Mask3((2, 2, 2), np.full((2, 2, 2), 2, dtype=np.uint8))
    m = Mask3((2, 2, 2), np.ones((2, 2, 2), dtype=np.uint8))
    assert m.count() == 8


def test_mask_carries_validated_spacing():
    m = Mask3((2, 2, 2), np.ones(8, dtype=np.uint8), (0.5, 1, 2))
    assert m.spacing == (0.5, 1.0, 2.0)
    assert m == Mask3((2, 2, 2), np.ones(8, dtype=np.uint8))  # dims and data only
    for bad in ((1, 0, 1), (1, -1, 1), (1, math.nan, 1), (1, math.inf, 1), (1, 1)):
        with pytest.raises(ParameterError, match="spacing"):
            Mask3((2, 2, 2), np.ones(8, dtype=np.uint8), bad)


def test_containers_are_frozen():
    v = Volume3((2, 2, 2), (1, 1, 1), np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# phantoms
# ---------------------------------------------------------------------------

def test_cylinder_label_matches_enumeration_oracle():
    spec = PhantomSpec("cylinder", radius_mm=2.0)
    _, label = make_phantom(spec, (32, 32, 32), (1.0, 1.0, 1.0))
    expected = cylinder_voxel_count((32, 32, 32), (1.0, 1.0, 1.0), 2.0)
    assert label.count() == expected
    analytic = math.pi * 2.0 ** 2 * 32
    assert abs(label.count() - analytic) / analytic <= 0.05


def test_noiseless_image_takes_exactly_two_values():
    spec = PhantomSpec("cylinder", radius_mm=2.0,
                       foreground_intensity=3.0, background_intensity=-1.0)
    image, label = make_phantom(spec, (16, 16, 16))
    assert set(np.unique(image.data)) == {-1.0, 3.0}
    # label is exactly the bright set
    assert np.array_equal(label.data > 0, image.data > -1.0)


def test_phantom_deterministic_for_fixed_seed():
    spec = PhantomSpec("cylinder", radius_mm=2.0, noise_sigma=0.3, seed=1234)
    a, _ = make_phantom(spec, (16, 16, 16))
    b, _ = make_phantom(spec, (16, 16, 16))
    assert a.data.tobytes() == b.data.tobytes()
    other, _ = make_phantom(PhantomSpec("cylinder", radius_mm=2.0,
                                        noise_sigma=0.3, seed=1235), (16, 16, 16))
    assert a.data.tobytes() != other.data.tobytes()


def test_gapped_cylinder_omits_midsection():
    spec = PhantomSpec("gapped_cylinder", radius_mm=2.0, gap_len_voxels=4)
    image, label = make_phantom(spec, (24, 24, 24))
    per_slice = label.data.sum(axis=(0, 1))
    z0 = (24 - 4) // 2
    assert (per_slice[z0:z0 + 4] == 0).all()
    assert (per_slice[:z0] > 0).all() and (per_slice[z0 + 4:] > 0).all()
    assert (image.data[:, :, z0:z0 + 4] == 0.0).all()


@pytest.mark.parametrize("kind", ["bifurcation", "helix"])
def test_other_phantom_kinds_produce_tubes(kind):
    spec = PhantomSpec(kind, radius_mm=1.5)
    image, label = make_phantom(spec, (24, 24, 24))
    assert label.count() > 0
    assert np.array_equal(label.data > 0, image.data > 0)
    again, _ = make_phantom(spec, (24, 24, 24))
    assert again.data.tobytes() == image.data.tobytes()


def test_phantom_parameter_errors():
    with pytest.raises(ParameterError):
        make_phantom(PhantomSpec("cylinder", radius_mm=2.0), (8, 32, 32))
    with pytest.raises(ParameterError):
        PhantomSpec("cylinder", radius_mm=0.0)
    with pytest.raises(ParameterError):
        PhantomSpec("cylinder", radius_mm=1.0,
                    foreground_intensity=0.0, background_intensity=0.0)
    with pytest.raises(ParameterError):
        PhantomSpec("hexagon", radius_mm=1.0)
    for sigma in (-0.1, math.nan):
        with pytest.raises(ParameterError, match="noise_sigma must be non-negative"):
            PhantomSpec("cylinder", radius_mm=1.0, noise_sigma=sigma)


@pytest.mark.parametrize("spacing", [(1.0, 1.0), (1.0, 0.0, 1.0), (math.nan, 1.0, 1.0)])
def test_phantom_rejects_bad_spacing(spacing):
    with pytest.raises(ParameterError, match="spacing"):
        make_phantom(PhantomSpec("helix", radius_mm=2.0), (16, 16, 16), spacing)


# ---------------------------------------------------------------------------
# .tvol round trips
# ---------------------------------------------------------------------------

def _random_volume(rng):
    dims = tuple(int(rng.integers(1, 9)) for _ in range(3))
    spacing = tuple(float(rng.uniform(0.2, 3.0)) for _ in range(3))
    data = rng.standard_normal(dims).astype(np.float32)
    return Volume3(dims, spacing, data)


def test_tvol_round_trip_100_random_volumes(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(100):
        v = _random_volume(rng)
        path = tmp_path / f"v{i}.tvol"
        save_tvol(v, path)
        w = load_tvol(path)
        assert isinstance(w, Volume3)
        assert w.dims == v.dims
        assert np.allclose(w.spacing, v.spacing, rtol=1e-6)
        assert w.data.tobytes() == v.data.tobytes()


def test_tvol_round_trip_masks(tmp_path):
    rng = np.random.default_rng(8)
    for i in range(20):
        dims = tuple(int(rng.integers(1, 9)) for _ in range(3))
        m = Mask3(dims, (rng.random(dims) < 0.4).astype(np.uint8), (1.0, 2.0, 3.0))
        path = tmp_path / f"m{i}.tvol"
        save_tvol(m, path)
        w = load_tvol(path)
        assert isinstance(w, Mask3)
        assert w == m
        assert w.spacing == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("dims, slab", [((1, 1, 1), 16), ((3, 5, 7), 16), ((4, 2, 9), 16),
                                        ((64, 64, 21), volume._PHANTOM_SLAB)])
def test_tvol_chunks_write_the_whole_volume_payload(tmp_path, monkeypatch, dims, slab):
    # Chunks of 16 voxels: 3x5 planes go one at a time, 4x2 planes two at a
    # time with a short last chunk of one; 64x64 planes go 16 at a time, 21
    # leaving a short last chunk of 5.
    monkeypatch.setattr(volume, "_PHANTOM_SLAB", slab)
    rng = np.random.default_rng(11)
    vol = Volume3(dims, (1.0, 0.5, 2.0), rng.standard_normal(dims).astype(np.float32))
    mask = Mask3(dims, (rng.random(dims) < 0.5).astype(np.uint8), (1.0, 0.5, 2.0))
    for obj, dtype in ((vol, "<f4"), (mask, np.uint8)):
        path = tmp_path / "chunked.tvol"
        save_tvol(obj, path)
        # the payload as one whole-volume Fortran ravel, after the 30-byte header
        assert path.read_bytes()[30:] == obj.data.astype(dtype).ravel(order="F").tobytes()


def test_tvol_save_makes_no_whole_volume_copy(tmp_path):
    # A chunk of 2^16 float32 voxels is a quarter of this 1 MiB payload; a
    # whole-volume astype, ravel or tobytes copy is one payload each.
    dims = (64, 64, 64)
    v = Volume3(dims, (1.0, 1.0, 1.0), np.ones(dims, dtype=np.float32))
    tracemalloc.start()
    try:
        save_tvol(v, tmp_path / "v.tvol")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 4 * np.prod(dims)


def test_tvol_bad_magic(tmp_path):
    path = tmp_path / "bad.tvol"
    path.write_bytes(b"XVOL1" + bytes(50))
    with pytest.raises(FileFormatError, match="bad magic"):
        load_tvol(path)


def test_tvol_length_mismatch(tmp_path):
    path = tmp_path / "short.tvol"
    header = b"TVOL1" + struct.pack("<B3I3f", 0, 2, 2, 2, 1.0, 1.0, 1.0)
    payload = struct.pack("<7f", *range(7))  # header promises 8
    path.write_bytes(header + payload)
    with pytest.raises(FileFormatError, match="length mismatch"):
        load_tvol(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_tvol_rejects_bad_mask_spacing(tmp_path, bad):
    path = tmp_path / "mask.tvol"
    header = b"TVOL1" + struct.pack("<B3I3f", 1, 2, 1, 1, 1.0, bad, 1.0)
    path.write_bytes(header + bytes([0, 1]))
    with pytest.raises(FileFormatError, match="bad spacing"):
        load_tvol(path)


@pytest.mark.parametrize("code", [0, 1])
def test_tvol_huge_header_is_length_mismatch(tmp_path, code):
    path = tmp_path / "huge.tvol"
    header = b"TVOL1" + struct.pack("<B3I3f", code, 2048, 1024, 1024, 1.0, 1.0, 1.0)
    path.write_bytes(header + bytes(10))  # header claims 2**31 voxels
    with pytest.raises(FileFormatError, match="length mismatch"):
        load_tvol(path)


def test_tvol_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "nan.tvol"
    header = b"TVOL1" + struct.pack("<B3I3f", 0, 1, 1, 2, 1.0, 1.0, 1.0)
    path.write_bytes(header + struct.pack("<2f", 1.0, float("nan")))
    with pytest.raises(FileFormatError, match="non-finite"):
        load_tvol(path)


def test_tvol_rejects_mask_payload_above_one(tmp_path):
    path = tmp_path / "two.tvol"
    header = b"TVOL1" + struct.pack("<B3I3f", 1, 1, 1, 2, 1.0, 1.0, 1.0)
    path.write_bytes(header + bytes([1, 2]))
    with pytest.raises(FileFormatError,
                       match=rf"^{re.escape(str(path))}: mask values must be exactly 0 or 1$"):
        load_tvol(path)


def test_tvol_truncated_header(tmp_path):
    path = tmp_path / "trunc.tvol"
    path.write_bytes(b"TVO")
    with pytest.raises(FileFormatError):
        load_tvol(path)


# ---------------------------------------------------------------------------
# ROI boxes
# ---------------------------------------------------------------------------

def test_roi_single_positive_margin_zero():
    data = np.zeros((16, 16, 16), dtype=np.uint8)
    data[5, 5, 5] = 1
    box = roi_from_label(Mask3((16, 16, 16), data), margin=0)
    assert box.min == (5, 5, 5) and box.max == (5, 5, 5)


def test_roi_two_positives_margin_one():
    data = np.zeros((16, 16, 16), dtype=np.uint8)
    data[1, 1, 1] = 1
    data[8, 3, 2] = 1
    box = roi_from_label(Mask3((16, 16, 16), data), margin=1)
    assert box.min == (0, 0, 0) and box.max == (9, 4, 3)


def test_roi_full_mask_spans_volume():
    m = Mask3((6, 7, 8), np.ones((6, 7, 8), dtype=np.uint8))
    box = roi_from_label(m, margin=2)
    assert box.min == (0, 0, 0) and box.max == (5, 6, 7)


def test_roi_empty_label_is_error():
    with pytest.raises(NumericDomainError, match="empty label"):
        roi_from_label(Mask3((4, 4, 4), np.zeros((4, 4, 4), dtype=np.uint8)))


def test_roi_contains_all_positives_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dims = tuple(int(rng.integers(4, 12)) for _ in range(3))
        data = (rng.random(dims) < 0.1).astype(np.uint8)
        if not data.any():
            data[tuple(int(rng.integers(0, d)) for d in dims)] = 1
        m = Mask3(dims, data)
        box = roi_from_label(m, margin=int(rng.integers(0, 3)))
        ind = box.indicator(dims)
        for p in np.argwhere(m.data > 0):
            assert ind[tuple(p)]


def test_roi_box_validation():
    with pytest.raises(ParameterError):
        RoiBox((2, 2, 2), (1, 2, 2))
    with pytest.raises(ParameterError):
        RoiBox((-1, 0, 0), (1, 1, 1))
