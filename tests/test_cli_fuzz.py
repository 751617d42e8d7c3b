"""Hostile .tvol input to `tubekit vesselness` and to the mask commands.

Every damaged file must end in exit code 2 (bad parameter) or 3 (bad
file) with exactly one JSON error line on stderr, never a traceback and
never an output file.  A flipped bit in a spacing mantissa or payload
can leave a valid file, so header flips are drawn from the bits where
any flip is fatal: magic, dtype code, dims and the spacing sign bits.
A mask is never a valid input to `vesselness`, so there a mask's bits
may all be flipped.  The mask commands (`skeleton`, `reconnect`,
`metrics`, `loss`) take the damaged file as their mask input.
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
    # the inputs a mask command reads beside its mask
    save_tvol(Volume3(shape, (1.0, 1.0, 1.0), rng.random(shape)), root / "pred.tvol")
    save_tvol(Volume3(shape, (1.0, 1.0, 1.0), rng.random(shape)), root / "image.tvol")
    return root, {"volume": vol.read_bytes(), "mask": mask.read_bytes()}


def _run(root, command, blob):
    """Run ``command`` with ``blob`` as its input volume or mask; returns
    the exit code, stderr and whether any output file was written."""
    src, out, report = root / "case.tvol", root / "out", root / "report.json"
    src.write_bytes(blob)
    argv = {
        "vesselness": ["--in", src, "--out", out, "--scales", "1"],
        "skeleton": ["--in", src, "--out", out],
        "reconnect": ["--in", src, "--out", out, "--report", report],
        "metrics": ["--pred", root / "mask.tvol", "--gt", src, "--json", out],
        "loss": ["--pred", root / "pred.tvol", "--label", src,
                 "--image", root / "image.tvol", "--json", out],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, *map(str, argv)])
    wrote = out.exists() or report.exists()
    for path in (out, report):
        path.unlink(missing_ok=True)
    return code, err.getvalue(), wrote


def _assert_one_json_error(code, err, wrote, codes=(2, 3)):
    assert code in codes
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
    _assert_one_json_error(*_run(root, "vesselness", blob[:cut]))


@given(st.sampled_from(FATAL_BITS))
def test_volume_header_bit_flips_fail_cleanly(originals, bit):
    root, blobs = originals
    _assert_one_json_error(*_run(root, "vesselness", _flip(blobs["volume"], bit)))


@given(st.data())
def test_mask_bit_flips_fail_cleanly(originals, data):
    root, blobs = originals
    bit = data.draw(st.integers(0, 8 * len(blobs["mask"]) - 1))
    _assert_one_json_error(*_run(root, "vesselness", _flip(blobs["mask"], bit)))


@given(st.sampled_from([float("nan"), -float("nan"), 0.0, -0.0, float("inf"), -1.0, 1e-30]),
       st.integers(0, 2))
def test_degenerate_header_spacing_fails_cleanly(originals, spacing, axis):
    root, blobs = originals
    blob = bytearray(blobs["volume"])
    struct.pack_into("<f", blob, SPACING_AT + 4 * axis, spacing)
    _assert_one_json_error(*_run(root, "vesselness", bytes(blob)))


@given(st.integers(0, 6 * 7 * 5 - 1), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_payload_fails_cleanly(originals, voxel, value):
    root, blobs = originals
    blob = bytearray(blobs["volume"])
    struct.pack_into("<f", blob, HEADER + 4 * voxel, value)
    _assert_one_json_error(*_run(root, "vesselness", bytes(blob)))


MASK_COMMANDS = ["skeleton", "reconnect", "metrics", "loss"]
BAD_SPACINGS = [float("nan"), -float("nan"), 0.0, -0.0, float("inf"), -float("inf"), -1.0]


@pytest.mark.parametrize("command", MASK_COMMANDS)
@given(data=st.data())
def test_mask_commands_truncated_masks_fail_cleanly(originals, command, data):
    root, blobs = originals
    cut = data.draw(st.integers(0, len(blobs["mask"]) - 1))
    _assert_one_json_error(*_run(root, command, blobs["mask"][:cut]))


@pytest.mark.parametrize("command", MASK_COMMANDS)
@given(bit=st.sampled_from(FATAL_BITS))
def test_mask_commands_header_bit_flips_fail_cleanly(originals, command, bit):
    root, blobs = originals
    _assert_one_json_error(*_run(root, command, _flip(blobs["mask"], bit)))


@pytest.mark.parametrize("command", MASK_COMMANDS)
@given(spacing=st.sampled_from(BAD_SPACINGS), axis=st.integers(0, 2))
def test_mask_commands_bad_header_spacing_fails_cleanly(originals, command, spacing, axis):
    root, blobs = originals
    blob = bytearray(blobs["mask"])
    struct.pack_into("<f", blob, SPACING_AT + 4 * axis, spacing)
    _assert_one_json_error(*_run(root, command, bytes(blob)))


# Exit code of each mask command on an empty and on an all-positive mask:
# an empty skeleton has nothing to reconnect, an empty mask has no surface,
# and the automatic beta needs 0 < sum(y) < sum(1 - y).
DEGENERATE_EXITS = {
    ("skeleton", "empty"): 0, ("skeleton", "full"): 0,
    ("reconnect", "empty"): 4, ("reconnect", "full"): 0,
    ("metrics", "empty"): 4, ("metrics", "full"): 0,
    ("loss", "empty"): 4, ("loss", "full"): 4,
}


@pytest.mark.parametrize("command, fill", sorted(DEGENERATE_EXITS))
def test_mask_commands_on_empty_and_full_masks(originals, tmp_path, command, fill):
    root, _ = originals
    shape = (6, 7, 5)
    path = tmp_path / "fill.tvol"
    save_tvol(Mask3(shape, np.full(shape, fill == "full", dtype=np.uint8)), path)
    code, err, wrote = _run(root, command, path.read_bytes())
    assert code == DEGENERATE_EXITS[command, fill]
    if code:
        _assert_one_json_error(code, err, wrote, codes=(4,))
    else:
        assert wrote and err == ""
