"""Hostile .tvol input to `tubekit vesselness`.

Every damaged file must end in exit code 2 (bad parameter) or 3 (bad
file) with exactly one JSON error line on stderr, never a traceback and
never an output file.  A flipped bit in a volume's spacing mantissa or
payload can leave a valid file, so volume flips are drawn from the bytes
where any flip is fatal: magic, dtype code, dims and the spacing sign
bits.  A mask is never a valid input, so a mask's bits may all be flipped.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import Mask3, Volume3, save_tvol
from tubekit.cli import main

HEADER = 30  # "TVOL1", dtype u8, three u32 dims, three f32 spacings
SPACING_AT = 18
# Bit positions (byte * 8 + bit) where every flip makes a volume invalid.
FATAL_BITS = ([b * 8 + i for b in range(SPACING_AT) for i in range(8)]
              + [(SPACING_AT + 4 * k + 3) * 8 + 7 for k in range(3)])


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    shape = (6, 7, 5)
    vol, mask = root / "vol.tvol", root / "mask.tvol"
    save_tvol(Volume3(shape, (1.0, 0.8, 1.2), rng.standard_normal(shape)), vol)
    save_tvol(Mask3(shape, (rng.random(shape) < 0.3).astype(np.uint8)), mask)
    return root, {"volume": vol.read_bytes(), "mask": mask.read_bytes()}


def _run_vesselness(root, blob):
    src, out = root / "case.tvol", root / "resp.tvol"
    src.write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["vesselness", "--in", str(src), "--out", str(out), "--scales", "1"])
    return code, err.getvalue(), out.exists()


def _assert_one_json_error(code, err, wrote):
    assert code in (2, 3)
    assert not wrote
    lines = err.splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}


def _flip(blob, bit):
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@given(st.data())
def test_truncated_files_fail_cleanly(originals, data):
    root, blobs = originals
    blob = blobs[data.draw(st.sampled_from(["volume", "mask"]))]
    cut = data.draw(st.integers(0, len(blob) - 1))
    _assert_one_json_error(*_run_vesselness(root, blob[:cut]))


@given(st.sampled_from(FATAL_BITS))
def test_volume_header_bit_flips_fail_cleanly(originals, bit):
    root, blobs = originals
    _assert_one_json_error(*_run_vesselness(root, _flip(blobs["volume"], bit)))


@given(st.data())
def test_mask_bit_flips_fail_cleanly(originals, data):
    root, blobs = originals
    bit = data.draw(st.integers(0, 8 * len(blobs["mask"]) - 1))
    _assert_one_json_error(*_run_vesselness(root, _flip(blobs["mask"], bit)))


@given(st.sampled_from([float("nan"), -float("nan"), 0.0, -0.0, float("inf"), -1.0, 1e-30]),
       st.integers(0, 2))
def test_degenerate_header_spacing_fails_cleanly(originals, spacing, axis):
    root, blobs = originals
    blob = bytearray(blobs["volume"])
    struct.pack_into("<f", blob, SPACING_AT + 4 * axis, spacing)
    _assert_one_json_error(*_run_vesselness(root, bytes(blob)))


@given(st.integers(0, 6 * 7 * 5 - 1), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_payload_fails_cleanly(originals, voxel, value):
    root, blobs = originals
    blob = bytearray(blobs["volume"])
    struct.pack_into("<f", blob, HEADER + 4 * voxel, value)
    _assert_one_json_error(*_run_vesselness(root, bytes(blob)))
