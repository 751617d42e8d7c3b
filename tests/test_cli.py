import argparse
import contextlib
import importlib
import io
import json
import math
import re
import shlex
import shutil
import struct
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekit import Mask3, ParameterError, load_tvol, losses, metrics, save_tvol, vesselness
from tubekit.cli import _build_parser, _jsonify, _line_voxels, _reconnect_report, main
from tubekit.skeleton import (DEFAULT_ITERATIONS, SoftSkeletonTape, reconnect,
                              soft_skeleton_array)
from tubekit.volume import DEFAULT_ROI_MARGIN, PHANTOM_KINDS, PhantomSpec, Volume3, roi_from_label

from memory import traced
from oracles import bresenham_line
from pool import at_workers


def _run(*argv):
    return main(list(argv))


def _phantom_files(tmp_path, **kw):
    tmp_path.mkdir(parents=True, exist_ok=True)
    img = tmp_path / "img.tvol"
    lab = tmp_path / "lab.tvol"
    args = ["phantom", "--out-image", str(img), "--out-label", str(lab)]
    for k, v in kw.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    assert _run(*args) == 0
    return img, lab


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_phantom_writes_pair(tmp_path):
    img, lab = _phantom_files(tmp_path, dims="16,16,16", radius_mm=2.0)
    image = load_tvol(img)
    label = load_tvol(lab)
    assert isinstance(image, Volume3) and isinstance(label, Mask3)
    assert image.dims == (16, 16, 16)
    assert label.count() > 0


def test_metrics_self_comparison_is_perfect(tmp_path):
    _, lab = _phantom_files(tmp_path, dims="17,17,17", radius_mm=1.5)
    report = tmp_path / "metrics.json"
    assert _run("metrics", "--pred", str(lab), "--gt", str(lab),
                "--json", str(report)) == 0
    data = json.loads(report.read_text())
    assert data["dice"] == 100.0
    assert data["cldice"] == 100.0
    assert data["hd"] == 0.0


def test_vesselness_output_in_unit_range(tmp_path):
    img, _ = _phantom_files(tmp_path, dims="24,24,24", radius_mm=2.0)
    out = tmp_path / "resp.tvol"
    assert _run("vesselness", "--in", str(img), "--out", str(out),
                "--scales", "1,2", "--tau", "0.5") == 0
    resp = load_tvol(out)
    assert resp.data.min() >= 0.0 and resp.data.max() <= 1.0


def test_skeleton_and_reconnect_pipeline(tmp_path):
    _, lab = _phantom_files(tmp_path, kind="gapped_cylinder", dims="17,17,17",
                            radius_mm=1.5, gap=1)
    skel = tmp_path / "skel.tvol"
    assert _run("skeleton", "--in", str(lab), "--iters", "6",
                "--out", str(skel)) == 0
    rec = tmp_path / "rec.tvol"
    report = tmp_path / "segments.json"
    assert _run("reconnect", "--in", str(skel), "--out", str(rec),
                "--report", str(report)) == 0
    seg = json.loads(report.read_text())
    assert seg["segment_count"] == 1
    assert seg["drawn_voxels"] == 3
    assert seg["output_voxels"] == seg["input_voxels"] + 3
    assert len(seg["segments"][0]["from"]) == 3


def test_skeleton_of_a_volume_is_its_soft_skeleton(tmp_path):
    data = np.zeros((8, 8, 8), dtype=np.float32)
    data[3, 3, 1:7] = 1.0  # a one-wide line is its own soft skeleton
    src, out = tmp_path / "line.tvol", tmp_path / "skel.tvol"
    save_tvol(Volume3(data.shape, (1, 1, 1), data), src)
    assert _run("skeleton", "--in", str(src), "--iters", "2", "--out", str(out)) == 0
    skel = load_tvol(out)
    assert isinstance(skel, Volume3)
    assert np.array_equal(skel.data, data)


def test_anisotropic_spacing_flows_through_cli(tmp_path):
    sp = (0.5, 0.75, 1.25)
    _, lab = _phantom_files(tmp_path, kind="gapped_cylinder", dims="16,16,16",
                            radius_mm=1.5, gap=1, spacing="0.5,0.75,1.25")
    skel = tmp_path / "skel.tvol"
    rec = tmp_path / "rec.tvol"
    assert _run("skeleton", "--in", str(lab), "--out", str(skel)) == 0
    assert _run("reconnect", "--in", str(skel), "--out", str(rec)) == 0
    for path in (lab, skel, rec):
        assert load_tvol(path).spacing == sp

    gt = load_tvol(lab)
    shifted = np.zeros_like(gt.data)
    shifted[1:] = gt.data[:-1]
    pred_mask = Mask3(gt.dims, shifted, sp)
    pred = tmp_path / "pred.tvol"
    save_tvol(pred_mask, pred)
    report = tmp_path / "m.json"
    assert _run("metrics", "--pred", str(pred), "--gt", str(lab),
                "--json", str(report)) == 0
    surfaces = [metrics.surface_voxels(m.data > 0) for m in (pred_mask, gt)]
    hd = metrics.surface_distances(*surfaces, sp)[0]
    assert hd != metrics.surface_distances(*surfaces, (1.0, 1.0, 1.0))[0]
    assert json.loads(report.read_text())["hd"] == float(f"{hd:.9g}")


def test_loss_lambda_zero_total(tmp_path):
    img, lab = _phantom_files(tmp_path, dims="17,17,17", radius_mm=1.5)
    pred = tmp_path / "pred.tvol"
    label = load_tvol(lab)
    prob = 0.1 + 0.8 * label.data.astype(np.float32)
    save_tvol(Volume3(label.dims, (1, 1, 1), prob), pred)
    report = tmp_path / "loss.json"
    for zero in ("0", "-0"):  # -0 as lambda and as beta: the report writes both unsigned
        beta = [] if zero == "0" else ["--beta", zero]
        assert _run("loss", "--pred", str(pred), "--label", str(lab),
                    "--image", str(img), "--lambda", zero, *beta,
                    "--skel-iters", "4", "--json", str(report)) == 0
        text = report.read_text()
        data = json.loads(text)
        assert math.isclose(data["total"], data["r_sup"] + data["con"],
                            rel_tol=1e-6, abs_tol=1e-9)
        assert set(data) == {"r_sup", "con", "spatial", "mix", "lambda", "total",
                             "beta", "spatial_pairs", "grad_norms"}
        assert '  "lambda": 0.0,\n' in text
        assert data["beta"] > 0 if zero == "0" else '  "beta": 0.0,\n' in text
        assert type(data["spatial_pairs"]) is int and data["spatial_pairs"] > 0
        assert set(data["grad_norms"]) == {"r_sup", "con", "spatial", "mix"}


def test_loss_lambda_linearity_via_cli(tmp_path):
    img, lab = _phantom_files(tmp_path, dims="17,17,17", radius_mm=1.5)
    pred = tmp_path / "pred.tvol"
    label = load_tvol(lab)
    prob = 0.1 + 0.8 * label.data.astype(np.float32)
    save_tvol(Volume3(label.dims, (1, 1, 1), prob), pred)
    totals = {}
    parts = {}
    for lam in ("0", "2"):
        report = tmp_path / f"loss{lam}.json"
        assert _run("loss", "--pred", str(pred), "--label", str(lab),
                    "--image", str(img), "--lambda", lam,
                    "--skel-iters", "4", "--json", str(report)) == 0
        data = json.loads(report.read_text())
        totals[lam] = data["total"]
        parts[lam] = data["spatial"] + data["mix"]
    assert math.isclose(totals["2"] - totals["0"], 2.0 * parts["0"],
                        rel_tol=1e-6, abs_tol=1e-9)


# Two valid values per optional flag of every subcommand whose meaning
# says an output must change between them.  An output path counts: a
# report written to another file is another output.  On the 20^3 loss
# input the 0.1 background erodes from the border for 10 iterations, and
# the radius-5 tube for 5, so 1 and 10 skeleton iterations differ.
OPTION_VALUES = {
    "phantom": {
        "--kind": ("cylinder", "helix"),
        "--radius-mm": ("1", "3"),
        "--dims": ("16,16,16", "16,16,20"),
        "--spacing": ("1,1,1", "1,1,2"),
        "--foreground": ("1", "2"),
        "--background": ("0", "0.5"),
        "--noise-sigma": ("0", "0.1"),
        "--gap": ("0", "3"),
        "--seed": ("0", "1"),
    },
    "vesselness": {"--tau": ("0.5", "1"), "--scales": ("1", "2"),
                   "--polarity": ("bright", "dark")},
    "skeleton": {"--iters": ("1", "10")},
    "reconnect": {"--report": ("out/a.json", "out/b.json")},
    "loss": {
        "--roi": ("auto", "0,0,0,5,5,5"),
        "--roi-margin": ("0", "4"),
        "--lambda": ("0", "1"),
        "--beta": ("auto", "0.5"),
        "--skel-iters": ("1", "10"),
        "--radius": ("1", "2"),
        "--sigma-l": ("1", "2"),
        "--sigma-c": ("0.05", "0.5"),
    },
    "metrics": {"--skel-iters": ("1", "10")},
    "fusion-demo": {"--seed": ("0", "7"), "--dims": ("4,4,4", "6,6,6"),
                    "--channels": ("2", "4"), "--json": ("out/a.json", "out/b.json")},
    "gradcheck": {"--seed": ("0", "1"), "--size": ("6", "7"),
                  "--json": ("out/a.json", "out/b.json")},
}
# arguments a flag needs before its value can matter
OPTION_NEEDS = {
    ("phantom", "--gap"): ["--kind", "gapped_cylinder"],
    ("phantom", "--seed"): ["--noise-sigma", "0.1"],
}


def _assert_every_option_changes_an_output(command, base, capsys):
    """Run ``command`` (in the current directory, writing under out/) at
    both values of each optional flag; the files and stdout must differ."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(OPTION_VALUES) == set(sub.choices)
    options = {a.option_strings[-1] for a in sub.choices[command]._actions
               if a.option_strings and not a.required} - {"--help"}
    assert options == set(OPTION_VALUES[command])

    out = Path("out")
    for flag, values in OPTION_VALUES[command].items():
        outputs = []
        for value in values:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            argv = [command, *base, *OPTION_NEEDS.get((command, flag), []), flag, value]
            assert _run(*argv) == 0, argv
            outputs.append((capsys.readouterr().out,
                            {p.name: p.read_bytes() for p in out.iterdir()}))
        assert outputs[0] != outputs[1], (command, flag)


def test_every_loss_option_changes_the_report(tmp_path, monkeypatch, capsys):
    img, lab = _phantom_files(tmp_path, dims="20,20,20", radius_mm=3.0)
    label = load_tvol(lab)
    pred = tmp_path / "pred.tvol"
    save_tvol(Volume3(label.dims, label.spacing,
                      0.1 + 0.8 * label.data.astype(np.float32)), pred)
    monkeypatch.chdir(tmp_path)
    base = ["--pred", str(pred), "--label", str(lab), "--image", str(img),
            "--json", "out/loss.json"]
    _assert_every_option_changes_an_output("loss", base, capsys)


@pytest.mark.parametrize("command", [c for c in OPTION_VALUES if c != "loss"])
def test_every_option_changes_an_output(tmp_path, monkeypatch, capsys, command):
    img, tube = _phantom_files(tmp_path / "in", dims="20,20,20", radius_mm=5.0,
                               noise_sigma=0.2)
    _, thin = _phantom_files(tmp_path / "thin", dims="20,20,20", radius_mm=2.0)
    monkeypatch.chdir(tmp_path)
    base = {
        "phantom": ["--out-image", "out/i.tvol", "--out-label", "out/l.tvol"],
        "vesselness": ["--in", str(img), "--out", "out/v.tvol"],
        "skeleton": ["--in", str(tube), "--out", "out/s.tvol"],
        "reconnect": ["--in", str(tube), "--out", "out/r.tvol"],
        "metrics": ["--pred", str(tube), "--gt", str(thin), "--json", "out/m.json"],
    }.get(command, [])
    _assert_every_option_changes_an_output(command, base, capsys)


def test_gradcheck_thresholds(tmp_path):
    report = tmp_path / "grad.json"
    assert _run("gradcheck", "--seed", "3", "--size", "8",
                "--json", str(report)) == 0
    data = json.loads(report.read_text())
    assert data["r_sup"]["max_rel_err"] <= 1e-4
    assert data["spatial"]["max_rel_err"] <= 1e-4
    assert data["mix"]["max_rel_err"] <= 1e-4
    assert data["con"]["max_rel_err"] <= 1e-3
    assert data["con"]["points"] > 0


def test_fusion_demo_invariants(tmp_path):
    report = tmp_path / "shapes.json"
    assert _run("fusion-demo", "--seed", "7", "--dims", "6,6,6",
                "--channels", "8", "--json", str(report)) == 0
    data = json.loads(report.read_text())
    assert set(data) == {"dims", "channels", "seed", "shapes", "invariants"}
    assert data["shapes"] == {"dq_v2c": [8, 6, 6, 6], "dq_c2v": [8, 6, 6, 6],
                              "shallow_query": [8, 6, 6, 6], "flex_conv": [8, 6, 6, 6],
                              "d2sd": [1, 6, 6, 6]}
    inv = data["invariants"]
    assert set(inv) == {"attention_row_sum_max_dev", "single_token_max_dev",
                        "flex_conv_identity_exact", "d2sd_range_ok",
                        "dmq_symmetric_on_equal_inputs"}
    assert inv["attention_row_sum_max_dev"] <= 1e-6
    assert inv["single_token_max_dev"] <= 1e-6
    assert inv["flex_conv_identity_exact"] is True
    assert inv["d2sd_range_ok"] is True
    assert inv["dmq_symmetric_on_equal_inputs"] is True


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_outputs_byte_identical_across_runs(tmp_path):
    a_img, a_lab = _phantom_files(tmp_path / "a", dims="16,16,16",
                                  noise_sigma=0.2, seed=9)
    b_img, b_lab = _phantom_files(tmp_path / "b", dims="16,16,16",
                                  noise_sigma=0.2, seed=9)
    assert a_img.read_bytes() == b_img.read_bytes()
    assert a_lab.read_bytes() == b_lab.read_bytes()

    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for r in (r1, r2):
        assert _run("metrics", "--pred", str(a_lab), "--gt", str(a_lab),
                    "--json", str(r)) == 0
    assert r1.read_bytes() == r2.read_bytes()


# ---------------------------------------------------------------------------
# failure paths and exit codes
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    assert _run("frobnicate") == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_parameter_error_exits_2(tmp_path, capsys):
    code = _run("phantom", "--dims", "4,4,4",
                "--out-image", str(tmp_path / "i.tvol"),
                "--out-label", str(tmp_path / "l.tvol"))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ParameterError"


@pytest.mark.parametrize("argv, error", [
    *((["gradcheck", "--size", str(n)], "ParameterError") for n in range(6)),
    (["fusion-demo", "--channels", "0"], "ParameterError"),
    (["fusion-demo", "--channels", "66"], "ParameterError"),
    (["fusion-demo", "--dims", "0,4,4"], "ParameterError"),
    (["fusion-demo", "--dims", "17,16,16"], "ParameterError"),
    (["fusion-demo", "--dims", "32,32,32"], "ParameterError"),
    (["phantom", "--noise-sigma", "nan"], "ParameterError"),
    (["phantom", "--kind", "helix", "--radius-mm", "inf"], "ParameterError"),
    (["phantom", "--spacing", "1e300,1e300,1e300"], "ParameterError"),
    (["phantom", "--spacing", "1e-300,1,1"], "ParameterError"),
    # the image would overflow when it is cast to the float32 volume
    (["phantom", "--dims", "16,16,16", "--foreground", "1e39"], "ParameterError"),
    # splitmix64 reads a seed modulo 2^64, so these would alias 0 and 2^64 - 1
    *((["phantom", "--noise-sigma", "0.1", "--seed", seed], "ParameterError")
      for seed in (str(2 ** 64), "-1")),
], ids=[*(f"gradcheck-size-{n}" for n in range(6)),
        "fusion-channels-0", "fusion-channels-over-64", "fusion-dims-0", "fusion-dims-over-16^3",
        "fusion-dims-32^3", "phantom-noise-nan", "phantom-radius-inf",
        "phantom-spacing-over-float32", "phantom-spacing-under-float32",
        "phantom-foreground-over-float32", "phantom-seed-2^64", "phantom-seed-negative"])
def test_out_of_domain_arguments_exit_2(tmp_path, capsys, argv, error):
    # gradcheck below size 6 cannot draw its 20 voxels and 40 interior ones
    if argv[0] == "phantom":
        argv = argv + ["--out-image", str(tmp_path / "i.tvol"),
                       "--out-label", str(tmp_path / "l.tvol")]
    assert _run(*argv) == 2
    assert _one_line_error(capsys)["error"] == error
    assert not list(tmp_path.iterdir())


# The largest seeds derived from --seed: 8*seed + 83 (gradcheck) and
# 1024*seed + 111 (fusion-demo's flex-conv weights).  splitmix64 reads a
# seed modulo 2^64, so beyond these limits the outputs would alias.
_GRADCHECK_SEEDS, _FUSION_SEEDS = 2 ** 61 - 10, 2 ** 54


@pytest.mark.parametrize("argv, seed, limit", [
    (["gradcheck", "--size", "3"], -1, _GRADCHECK_SEEDS),
    (["gradcheck", "--size", "3"], _GRADCHECK_SEEDS, _GRADCHECK_SEEDS),
    (["fusion-demo", "--channels", "0"], -1, _FUSION_SEEDS),
    (["fusion-demo", "--channels", "0"], _FUSION_SEEDS, _FUSION_SEEDS),
    (["fusion-demo", "--channels", "0"], 2 ** 58, _FUSION_SEEDS),
], ids=["gradcheck-negative", "gradcheck-limit", "fusion-demo-negative", "fusion-demo-limit",
        "fusion-demo-2^58"])
def test_derived_seed_out_of_range_exits_2_first(tmp_path, capsys, argv, seed, limit):
    # --size 3 and --channels 0 are errors of their own: the seed is checked first.
    out = tmp_path / "report.json"
    assert _run(*argv, "--seed", str(seed), "--json", str(out)) == 2
    assert _one_line_error(capsys) == {
        "error": "ParameterError", "message": f"seed must lie in [0, {limit}), got {seed}"}
    assert not out.exists()


@pytest.mark.parametrize("argv, seed", [
    (["gradcheck", "--size", "6"], _GRADCHECK_SEEDS - 1),
    (["fusion-demo", "--dims", "2,2,2", "--channels", "2"], _FUSION_SEEDS - 1),
], ids=["gradcheck", "fusion-demo"])
def test_largest_accepted_derived_seed_runs(tmp_path, argv, seed):
    out = tmp_path / "report.json"
    assert _run(*argv, "--seed", str(seed), "--json", str(out)) == 0
    assert json.loads(out.read_text())["seed"] == seed


def test_missing_file_exits_3(tmp_path, capsys):
    assert _run("vesselness", "--in", str(tmp_path / "nope.tvol"),
                "--out", str(tmp_path / "o.tvol")) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] in ("FileNotFoundError", "FileFormatError")


def test_bad_magic_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.tvol"
    bad.write_bytes(b"XVOL1" + bytes(40))
    assert _run("vesselness", "--in", str(bad), "--out",
                str(tmp_path / "o.tvol")) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert "bad magic" in err["message"]


def test_failed_write_leaves_target_and_no_temp_file(tmp_path, monkeypatch, capsys):
    _, lab = _phantom_files(tmp_path / "in", dims="16,16,16", radius_mm=1.5)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "skel.tvol"
    out.write_bytes(b"previous contents")

    def failing_save(obj, path, spacing=None):
        with open(path, "wb") as fh:
            fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr("tubekit.cli.save_tvol", failing_save)
    assert _run("skeleton", "--in", str(lab), "--out", str(out)) == 3
    assert "disk full" in json.loads(capsys.readouterr().err.strip())["message"]
    assert [p.name for p in out_dir.iterdir()] == ["skel.tvol"]
    assert out.read_bytes() == b"previous contents"


def _one_line_error(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("argv", [
    ["skeleton", "--iters", "-3"],
    ["metrics", "--skel-iters", "0"],
    ["metrics", "--skel-iters", "-3"],
])
def test_skeleton_iterations_below_one_exit_2(tmp_path, capsys, argv):
    _, lab = _phantom_files(tmp_path, dims="16,16,16", radius_mm=1.5)
    if argv[0] == "skeleton":
        argv = argv + ["--in", str(lab), "--out", str(tmp_path / "s.tvol")]
    else:
        argv = argv + ["--pred", str(lab), "--gt", str(lab),
                       "--json", str(tmp_path / "m.json")]
    assert _run(*argv) == 2
    err = _one_line_error(capsys)
    assert err["error"] == "ParameterError"
    assert err["message"] == "iterations must be >= 1"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("empty", ["pred", "gt", "both"])
def test_empty_masks_exit_4_with_one_line_at_any_worker_count(tmp_path, capsys, empty,
                                                              threads):
    # metrics and reconnect query their kd-trees on the pool; an empty
    # input still gives the serial run's one error line and exit code,
    # and writes nothing.
    _, lab = _phantom_files(tmp_path, dims="16,16,16", radius_mm=1.5)
    blank = tmp_path / "empty.tvol"
    save_tvol(Mask3((16, 16, 16), np.zeros(16 ** 3, dtype=np.uint8)), blank)
    pred = blank if empty in ("pred", "both") else lab
    gt = blank if empty in ("gt", "both") else lab
    out = tmp_path / "out"
    out.mkdir()
    with at_workers(threads):
        assert _run("metrics", "--pred", str(pred), "--gt", str(gt),
                    "--json", str(out / "m.json")) == 4
        assert _one_line_error(capsys) == {
            "error": "NumericDomainError", "message": "undefined distance: empty mask"}
        assert _run("reconnect", "--in", str(blank), "--out", str(out / "r.tvol"),
                    "--report", str(out / "r.json")) == 4
        assert _one_line_error(capsys) == {
            "error": "NumericDomainError", "message": "reconnect: empty skeleton"}
    assert not list(out.iterdir())


@pytest.mark.parametrize("command", ["metrics", "skeleton", "reconnect"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_mask_with_bad_header_spacing_exits_3(tmp_path, capsys, command, bad):
    _, lab = _phantom_files(tmp_path, dims="16,16,16", radius_mm=1.5)
    hostile = tmp_path / "hostile.tvol"
    raw = lab.read_bytes()
    head = struct.calcsize("<5sB3I")
    spacing = struct.pack("<3f", 1.0, bad, 1.0)
    hostile.write_bytes(raw[:head] + spacing + raw[head + len(spacing):])
    out = tmp_path / "out"
    if command == "metrics":
        argv = ["--pred", str(lab), "--gt", str(hostile), "--json", str(out)]
    else:
        argv = ["--in", str(hostile), "--out", str(out)]
    assert _run(command, *argv) == 3
    err = _one_line_error(capsys)
    assert err["error"] == "FileFormatError"
    assert "bad spacing" in err["message"]
    assert not out.exists()


def test_numeric_domain_error_exits_4(tmp_path, capsys):
    # all-positive label: auto-beta undefined (sum(y^c) == 0)
    dims = (16, 16, 16)
    lab = tmp_path / "ones.tvol"
    save_tvol(Mask3(dims, np.ones(dims, dtype=np.uint8)), lab)
    img = tmp_path / "img.tvol"
    save_tvol(Volume3(dims, (1, 1, 1), np.zeros(dims, dtype=np.float32)), img)
    pred = tmp_path / "pred.tvol"
    save_tvol(Volume3(dims, (1, 1, 1), np.full(dims, 0.5, dtype=np.float32)), pred)
    code = _run("loss", "--pred", str(pred), "--label", str(lab),
                "--image", str(img), "--json", str(tmp_path / "r.json"))
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NumericDomainError"
    assert "beta undefined" in err["message"]


def test_mask_volume_type_confusion_exits_2(tmp_path, capsys):
    img, lab = _phantom_files(tmp_path, dims="16,16,16")
    assert _run("metrics", "--pred", str(img), "--gt", str(lab),
                "--json", str(tmp_path / "m.json")) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ParameterError"


@pytest.mark.parametrize("argv", [
    "vesselness --in {lab} --out {out}",
    "loss --pred {lab} --label {lab} --image {img} --json {out}",
    "loss --pred {img} --label {lab} --image {lab} --json {out}",
], ids=["vesselness-in", "loss-pred", "loss-image"])
def test_mask_where_a_volume_is_expected_exits_2(tmp_path, capsys, argv):
    img, lab = _phantom_files(tmp_path, dims="16,16,16")
    capsys.readouterr()
    assert _run(*argv.format(img=img, lab=lab, out=tmp_path / "out").split()) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ParameterError"
    assert err["message"] == f"{lab} holds a mask, expected a volume"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.tvol", "lab.tvol"]


def test_reports_have_sorted_keys(tmp_path):
    _, lab = _phantom_files(tmp_path, dims="16,16,16")
    report = tmp_path / "m.json"
    assert _run("metrics", "--pred", str(lab), "--gt", str(lab),
                "--json", str(report)) == 0
    data = json.loads(report.read_text())
    assert list(data) == sorted(data)


def test_line_voxels_counts_the_bresenham_interior():
    rng = np.random.default_rng(4)
    pairs = [((3, 4, 5), (3, 4, 5)), ((0, 0, 0), (0, 0, 1))]
    for _ in range(300):
        a = tuple(int(v) for v in rng.integers(0, 20, 3))
        b = a if rng.random() < 0.1 else tuple(int(v) for v in rng.integers(0, 20, 3))
        pairs.append((a, b))
    want = [len(bresenham_line(a, b)) - 2 for a, b in pairs]
    assert _line_voxels(np.array(pairs)).tolist() == want


def _report_as_json(segments, n_in, n_out):
    """The reconnect report through the generic writer's formatting."""
    report = {"segments": [{"from": list(a), "to": list(b),
                            "line_voxels": max(abs(q - p) for p, q in zip(a, b)) - 1}
                           for a, b in segments],
              "segment_count": len(segments), "drawn_voxels": n_out - n_in,
              "input_voxels": n_in, "output_voxels": n_out}
    return json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n"


_POINTS = st.tuples(*[st.integers(0, 10 ** 6)] * 3)


@given(st.lists(st.tuples(_POINTS, _POINTS), max_size=12),
       st.integers(1, 10 ** 9), st.integers(0, 10 ** 6))
def test_reconnect_report_is_the_indented_json_of_its_dict(segments, n_in, drawn):
    ab = np.array(segments, dtype=np.int64).reshape(-1, 2, 3)  # as reconnect returns them
    assert (_reconnect_report(ab, n_in, n_in + drawn)
            == _report_as_json(segments, n_in, n_in + drawn))


@pytest.mark.parametrize("pieces", [1, 3])
def test_reconnect_report_file_is_the_indented_json_of_its_dict(tmp_path, pieces):
    # One piece is already one component: it draws nothing, "segments": [].
    data = np.zeros((12, 12, 12), dtype=np.uint8)
    data[2, 2, 1:10] = 1
    if pieces == 3:
        data[8, 9, 3:6] = data[5, 0, 11] = 1
    skel, rec, report = tmp_path / "s.tvol", tmp_path / "r.tvol", tmp_path / "r.json"
    save_tvol(Mask3(data.shape, data), str(skel))
    assert _run("reconnect", "--in", str(skel), "--out", str(rec),
                "--report", str(report)) == 0
    res = reconnect(data > 0)
    assert len(res.segments) == pieces - 1
    assert report.read_text() == _report_as_json(
        res.segments, int(data.sum()), int(res.reconnected.sum()))


def test_metrics_spacing_mismatch_exits_2(tmp_path, capsys):
    _, lab1 = _phantom_files(tmp_path / "a", dims="16,16,16")
    _, lab2 = _phantom_files(tmp_path / "b", dims="16,16,16", spacing="2,2,2")
    out = tmp_path / "m.json"
    for pred, gt in ((lab2, lab1), (lab1, lab2)):
        assert _run("metrics", "--pred", str(pred), "--gt", str(gt),
                    "--json", str(out)) == 2
        err = _one_line_error(capsys)
        assert err["error"] == "ParameterError"
        assert "spacing" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("odd", ["pred", "image"])
def test_loss_spacing_mismatch_exits_2(tmp_path, capsys, odd):
    img, lab = _phantom_files(tmp_path, dims="16,16,16", radius_mm=1.5)
    label = load_tvol(lab)
    pred = tmp_path / "pred.tvol"
    spacing = (2.0, 2.0, 2.0) if odd == "pred" else (1.0, 1.0, 1.0)
    save_tvol(Volume3(label.dims, spacing,
                      0.1 + 0.8 * label.data.astype(np.float32)), pred)
    if odd == "image":
        image = load_tvol(img)
        img = tmp_path / "img2.tvol"
        save_tvol(Volume3(image.dims, (1.0, 1.0, 2.0), image.data), img)
    out = tmp_path / "loss.json"
    assert _run("loss", "--pred", str(pred), "--label", str(lab),
                "--image", str(img), "--json", str(out)) == 2
    err = _one_line_error(capsys)
    assert err["error"] == "ParameterError"
    assert err["message"] == "pred, label and image must share spacing"
    assert not out.exists()


@pytest.mark.parametrize("tiny", [1e-20, 1e-6])
def test_vesselness_kernel_wider_than_volume_exits_2(tmp_path, capsys, tiny):
    # 3*sigma/spacing far beyond any dimension: a kernel of millions of
    # taps (1e-6) or an overflowing np.arange (1e-20) without the check.
    img = tmp_path / "img.tvol"
    data = np.random.default_rng(0).random((9, 9, 9)).astype(np.float32)
    save_tvol(Volume3((9, 9, 9), (tiny, 1.0, 1.0), data), img)
    out = tmp_path / "v.tvol"
    assert _run("vesselness", "--in", str(img), "--out", str(out)) == 2
    err = _one_line_error(capsys)
    assert err["error"] == "ParameterError"
    assert "exceeds" in err["message"]
    assert not out.exists()


def test_vesselness_tiny_scale_runs_without_a_warning(tmp_path, capsys):
    # sigma 1e-200: the kernel's taps off the centre overflow in the square
    # to exp(-inf) = 0.  Warnings are errors here, so a warning would fail it.
    img, _ = _phantom_files(tmp_path, dims="16,16,16", noise_sigma=0.2)
    out = tmp_path / "v.tvol"
    capsys.readouterr()
    assert _run("vesselness", "--in", str(img), "--out", str(out), "--scales", "1e-200") == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_vesselness_hessian_overflow_exits_2(tmp_path, capsys):
    # Finite float32 slabs of +-3e38, four voxels thick along x: at the
    # default scales their scaled second differences overflow float32.
    img = tmp_path / "img.tvol"
    slabs = np.where(np.arange(16) % 8 < 4, 3e38, -3e38)[:, None, None]
    save_tvol(Volume3((16, 16, 16), (1.0, 1.0, 1.0),
                      np.broadcast_to(slabs, (16, 16, 16)).astype(np.float32)), img)
    out = tmp_path / "v.tvol"
    assert _run("vesselness", "--in", str(img), "--out", str(out)) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {"error": "ParameterError",
                   "message": "Hessian components must be finite"}
    assert not out.exists()


def _loss_argv(tmp_path, pred_scale=0.8, empty_label=False, pred_floor=0.1):
    """`tubekit loss` over a 16^3 tube with pred = pred_floor + pred_scale * label."""
    img, lab = _phantom_files(tmp_path, dims="16,16,16", radius_mm=1.5)
    label = load_tvol(lab)
    pred = tmp_path / "pred.tvol"
    save_tvol(Volume3(label.dims, label.spacing,
                      pred_floor + pred_scale * label.data.astype(np.float32)), pred)
    if empty_label:
        lab = tmp_path / "empty.tvol"
        save_tvol(Mask3(label.dims, np.zeros(label.dims, dtype=np.uint8)), lab)
    return ["loss", "--pred", str(pred), "--label", str(lab), "--image", str(img)]


@pytest.mark.parametrize("inputs, extra, code, error, message", [
    ({"pred_scale": 1.5}, [], 2, "ParameterError",
     "prediction values must lie in [0, 1]"),
    ({}, ["--beta", "-5"], 2, "ParameterError",
     "beta must be finite and non-negative, got -5.0"),
    ({"empty_label": True}, ["--beta", "0.5", "--roi", "0,0,0,3,3,3"], 4,
     "NumericDomainError", "relaxed supervision needs at least one positive voxel"),
    ({}, ["--skel-iters", "0"], 2, "ParameterError", "iterations must be >= 1"),
    ({}, ["--lambda", "nan"], 2, "ParameterError",
     "lambda must be finite and non-negative, got nan"),
    ({}, ["--lambda", "inf"], 2, "ParameterError",
     "lambda must be finite and non-negative, got inf"),
    *(({}, [flag, value], 2, "ParameterError",
       "sigma_l and sigma_c must lie in [1e-150, 1e+150]")
      for flag in ("--sigma-l", "--sigma-c") for value in ("1e-300", "1e200")),
    ({}, ["--radius", "9"], 2, "ParameterError",
     "spatial window radius 9 exceeds 8"),
    # the relaxed Dice denominator's square overflows (1e200, 1e300), or
    # its sum does (1e308)
    *(({}, ["--beta", beta], 2, "ParameterError",
       f"beta {float(beta):g} overflows the relaxed Dice denominator: "
       "sum(y) + sum(yhat') exceeds 1.34e+154")
      for beta in ("1e200", "1e300", "1e308")),
    # every float32 entry is finite, but their float32 sum of squares is not
    ({"pred_scale": 1e-30, "pred_floor": 1e-30}, [], 2, "ParameterError",
     "mix gradient exceeds the float32 range"),
], ids=["pred-above-one", "negative-beta", "empty-label-explicit-beta", "skel-iters-0",
        "lambda-nan", "lambda-inf", "sigma-l-underflow", "sigma-l-overflow",
        "sigma-c-underflow", "sigma-c-overflow", "radius-above-limit",
        "beta-1e200-overflow", "beta-1e300-overflow", "beta-1e308-overflow",
        "mix-norm-over-float32"])
def test_loss_error_contract(tmp_path, capsys, inputs, extra, code, error, message):
    argv = _loss_argv(tmp_path, **inputs)
    capsys.readouterr()
    out = tmp_path / "loss.json"
    assert _run(*argv, *extra, "--json", str(out)) == code
    assert _one_line_error(capsys) == {"error": error, "message": message}
    assert not out.exists()


def _largest_accepted(accepts, hi: float) -> float:
    """The largest float in [0, hi) that ``accepts``, by bisection on its
    bits, which order non-negative floats as their values; ``accepts``
    must hold at 0 and fail at ``hi``."""
    lo, hi = 0, int(np.float64(hi).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepts(float(np.int64(mid).view(np.float64))):
            lo = mid
        else:
            hi = mid
    return float(np.int64(lo).view(np.float64))


def test_loss_beta_overflow_names_beta_and_the_largest_beta_runs(tmp_path, capsys):
    argv = _loss_argv(tmp_path)
    label, pred = (load_tvol(argv[argv.index(flag) + 1]) for flag in ("--label", "--pred"))
    roi = roi_from_label(label, margin=DEFAULT_ROI_MARGIN).indicator(label.dims)

    def accepts(beta):
        try:
            losses.loss_r_sup_array(label.data, pred.data, roi, beta)
        except ParameterError:
            return False
        return True

    beta = _largest_accepted(accepts, 1e200)
    assert 1e150 < beta < 1e154
    out = tmp_path / "loss.json"
    capsys.readouterr()
    assert _run(*argv, "--beta", repr(beta), "--json", str(out)) == 0
    assert json.loads(out.read_text())["beta"] == float(f"{beta:.9g}")
    above = float(np.nextafter(beta, np.inf))
    assert _run(*argv, "--beta", repr(above), "--json", str(out)) == 2
    assert _one_line_error(capsys) == {
        "error": "ParameterError",
        "message": f"beta {above:g} overflows the relaxed Dice denominator: "
                   "sum(y) + sum(yhat') exceeds 1.34e+154"}


def test_phantom_beyond_float32_names_the_option_and_the_largest_value_runs(
        tmp_path, capsys):
    f32_max = float(np.finfo(np.float32).max)

    def accepts(sigma):
        try:
            PhantomSpec("cylinder", 2.0, noise_sigma=sigma)
        except ParameterError:
            return False
        return True

    sigma = _largest_accepted(accepts, f32_max)
    for option, largest in (("foreground", f32_max), ("noise_sigma", sigma)):
        img, _ = _phantom_files(tmp_path / option, dims="16,16,16", **{option: repr(largest)})
        if option == "foreground":
            assert load_tvol(img).data.max() == np.float32(f32_max)
        capsys.readouterr()
        above = repr(float(np.nextafter(largest, np.inf)))
        argv = ["phantom", f"--{option.replace('_', '-')}", above,
                "--out-image", str(tmp_path / "i.tvol"), "--out-label", str(tmp_path / "l.tvol")]
        assert _run(*argv) == 2
        err = _one_line_error(capsys)
        assert err["error"] == "ParameterError" and option in err["message"], err
        assert not (tmp_path / "i.tvol").exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
def test_loss_checks_lambda_before_any_work(tmp_path, capsys, monkeypatch, lam):
    def never(*args, **kwargs):
        raise AssertionError("a loss term ran before lambda was checked")

    for term in ("loss_r_sup_array", "loss_con_array", "loss_spatial_array",
                 "loss_mix_array"):
        monkeypatch.setattr(losses, term, never)
    argv = _loss_argv(tmp_path)
    capsys.readouterr()
    out = tmp_path / "loss.json"
    assert _run(*argv, "--lambda", lam, "--json", str(out)) == 2
    assert _one_line_error(capsys) == {
        "error": "ParameterError",
        "message": f"lambda must be finite and non-negative, got {float(lam)}"}
    assert not out.exists()


def test_vesselness_checks_every_scale_before_any_work(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a scale ran before every scale was checked")

    for stage in ("gaussian_smooth", "hessian_at_scale"):
        monkeypatch.setattr(vesselness, stage, never)
    img, _ = _phantom_files(tmp_path, dims="16,16,16")
    capsys.readouterr()
    out = tmp_path / "resp.tvol"
    assert _run("vesselness", "--in", str(img), "--out", str(out),
                "--scales", "1,3000") == 2
    assert _one_line_error(capsys) == {
        "error": "ParameterError",
        "message": "kernel radius 3*sigma/spacing exceeds dimension 16"}
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
def test_bad_thread_count_exits_2_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                          value):
    # The input does not exist: reading it would exit 3, not 2.
    monkeypatch.setenv("TUBEKIT_THREADS", value)
    out = tmp_path / "resp.tvol"
    assert _run("vesselness", "--in", str(tmp_path / "missing.tvol"), "--out", str(out)) == 2
    assert _one_line_error(capsys) == {
        "error": "ParameterError",
        "message": f"TUBEKIT_THREADS must be an integer >= 0, got {value!r}"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["phantom", "--dims", "100000,100000,100000",
     "--out-image", "img.tvol", "--out-label", "lab.tvol"],
    ["gradcheck", "--size", "100000", "--json", "report.json"],
], ids=["phantom", "gradcheck"])
def test_unallocatable_size_exits_2(tmp_path, capsys, monkeypatch, argv):
    # numpy refuses these 3.55 and 7.11 PiB requests at once: nothing is
    # allocated, and the refusal is a parameter error, not a traceback.
    monkeypatch.chdir(tmp_path)
    assert _run(*argv) == 2
    assert _one_line_error(capsys)["error"] == "MemoryError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, option, text", [
    ("loss", "--roi", "a,b,c,d,e,f"),
    ("loss", "--beta", "xyz"),
    ("vesselness", "--scales", "1,x"),
    ("vesselness", "--scales", ""),
])
def test_malformed_numbers_exit_2(tmp_path, capsys, command, option, text):
    if command == "loss":
        argv = _loss_argv(tmp_path) + ["--json"]
    else:
        img, _ = _phantom_files(tmp_path, dims="16,16,16")
        argv = ["vesselness", "--in", str(img), "--out"]
    capsys.readouterr()
    out = tmp_path / "out"
    assert _run(*argv, str(out), option, text) == 2
    err = _one_line_error(capsys)
    assert err["error"] == "ParameterError"
    assert err["message"].startswith(option)
    assert not out.exists()


def test_loss_gradient_beyond_float32_exits_2(tmp_path, capsys):
    # A huge explicit beta weights the ROI's zero-prediction negatives so
    # strongly that the relaxed-supervision gradient overflows float32.
    argv = _loss_argv(tmp_path, pred_scale=0.5, pred_floor=0.0)
    capsys.readouterr()
    out = tmp_path / "loss.json"
    assert _run(*argv, "--beta", "1e300", "--json", str(out)) == 2
    assert _one_line_error(capsys) == {
        "error": "ParameterError", "message": "r_sup gradient exceeds the float32 range"}
    assert not out.exists()


def test_loss_kernel_exponent_overflow_is_a_zero_kernel(tmp_path, capsys):
    # At sigma_c = 1e-150 an intensity difference above about 2e4 sends the
    # kernel's exponent to -inf: k is exp(-inf) = 0, as exp would underflow
    # to anyway, not an overflow error.
    argv = _loss_argv(tmp_path)
    img, _ = _phantom_files(tmp_path / "bright", dims="16,16,16", foreground=1e5,
                            noise_sigma=10)
    argv[argv.index("--image") + 1] = str(img)
    capsys.readouterr()
    out = tmp_path / "loss.json"
    assert _run(*argv, "--sigma-c", "1e-150", "--json", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["spatial"] == 0.0


def _loss_outcome(argv, threads):
    """(exit code, stderr, report bytes or None) of ``tubekit loss`` at
    ``threads`` workers; the report is removed."""
    out = Path(argv[argv.index("--json") + 1])
    err = io.StringIO()
    with at_workers(threads), contextlib.redirect_stderr(err):
        code = main(argv)
    report = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, err.getvalue(), report


@given(kind=st.sampled_from(PHANTOM_KINDS),
       dims=st.lists(st.integers(16, 20), min_size=3, max_size=3),
       radius_mm=st.sampled_from([1.0, 1.5, 2.5]), noise=st.sampled_from([0.0, 0.2]),
       seed=st.integers(0, 99), window=st.integers(1, 3))
@settings(max_examples=25)
def test_loss_report_is_the_same_at_one_and_two_workers(kind, dims, radius_mm, noise,
                                                        seed, window):
    with tempfile.TemporaryDirectory() as d:
        img, lab = _phantom_files(Path(d), kind=kind, dims=",".join(map(str, dims)),
                                  radius_mm=radius_mm, noise_sigma=noise, seed=seed)
        image = load_tvol(img)
        pred = Path(d) / "pred.tvol"
        save_tvol(Volume3(image.dims, image.spacing, np.clip(image.data, 0.0, 1.0)), pred)
        argv = ["loss", "--pred", str(pred), "--label", str(lab), "--image", str(img),
                "--radius", str(window), "--json", str(Path(d) / "loss.json")]
        serial = _loss_outcome(argv, 1)
        assert serial[0] == 0
        assert _loss_outcome(argv, 2) == serial


def _train_loss_argv(tmp_path):
    """`tubekit loss` on the first input of the train benchmark at seed 0."""
    img, lab = _phantom_files(tmp_path, kind="cylinder", dims="64,64,64",
                              noise_sigma=0.1, gap=4, seed=0)
    pred = tmp_path / "pred.tvol"
    assert _run("vesselness", "--in", str(img), "--out", str(pred)) == 0
    return ["loss", "--pred", str(pred), "--label", str(lab), "--image", str(img),
            "--json", str(tmp_path / "loss.json")]


def test_loss_report_is_the_same_at_one_and_two_workers_at_64(tmp_path):
    argv = _train_loss_argv(tmp_path)
    serial = _loss_outcome(argv, 1)
    assert serial[0] == 0
    assert _loss_outcome(argv, 2) == serial


def _assert_loss_peaks(argv, n, bounds):
    """tracemalloc's peak over ``tubekit loss`` at each worker count, in
    float64 volumes of n^3 voxels, is within its bound."""
    for threads, bound in bounds:
        (code, *_), _, peak = traced(_loss_outcome, argv, threads)
        assert code == 0
        assert peak <= bound * 8 * n ** 3, (threads, peak / (8 * n ** 3))


def test_loss_peak_memory_at_64(tmp_path):
    # Measured at 7.95 volumes at 1 worker and 9.27 at 2: the
    # connectivity tape's forward sets the peak, and at 2 workers the
    # spatial term's gradient and buffers are held beside it.
    _assert_loss_peaks(_train_loss_argv(tmp_path), 64, ((1, 8.5), (2, 10.0)))


@pytest.fixture(scope="module")
def helix_128(tmp_path_factory):
    """A 128^3 helix at noise 0.1 and its vesselness: (image, label, pred)."""
    tmp = tmp_path_factory.mktemp("helix_128")
    img, lab = _phantom_files(tmp, kind="helix", dims="128,128,128", noise_sigma=0.1)
    pred = tmp / "pred.tvol"
    assert _run("vesselness", "--in", str(img), "--out", str(pred)) == 0
    return img, lab, pred


def test_loss_peak_memory_at_128(helix_128, tmp_path):
    # Measured at 7.61 volumes at 1 worker and 8.76 at 2.
    img, lab, pred = helix_128
    argv = ["loss", "--pred", str(pred), "--label", str(lab), "--image", str(img),
            "--json", str(tmp_path / "loss.json")]
    _assert_loss_peaks(argv, 128, ((1, 8.0), (2, 9.5)))


def test_tape_holds_under_three_volumes_after_its_forward_at_128(helix_128):
    # Two erosions run: the skeleton, the int32 index and float64 value of
    # each nonzero of the three stages' deltas, and one selection byte per
    # voxel and pooling make 2.44 float64 volumes.
    yhat = np.asarray(load_tvol(helix_128[2]).data, dtype=np.float64)
    tape, size, _ = traced(SoftSkeletonTape, yhat, DEFAULT_ITERATIONS)
    assert tape.iterations == 2
    assert size <= 2.75 * yhat.nbytes, size / yhat.nbytes


def test_tape_forward_peak_memory_at_128(helix_128):
    # Measured at 5.48 volumes: the last dilation's input and output beside
    # the stage's image, the skeleton, stage 0's delta nonzeros and the six
    # poolings' codes.
    yhat = np.asarray(load_tvol(helix_128[2]).data, dtype=np.float64)
    _, _, peak = traced(SoftSkeletonTape, yhat, DEFAULT_ITERATIONS)
    assert peak <= 5.5 * yhat.nbytes, peak / yhat.nbytes


@pytest.mark.parametrize("dtype, bound", [(np.float64, 4.5), (np.float32, 5.5)])
def test_soft_skeleton_peak_memory_at_128(helix_128, dtype, bound):
    # Measured at 4.04 volumes on a float64 input: the pooling's input and
    # output beside the stage's image and the skeleton, with one slab's
    # scratch.  `tubekit skeleton` passes a volume's float32 data, whose
    # float64 copy adds one more: 5.04.
    yhat = load_tvol(helix_128[2]).data.astype(dtype)
    _, _, peak = traced(soft_skeleton_array, yhat, DEFAULT_ITERATIONS)
    assert peak <= bound * 8 * yhat.size, peak / (8 * yhat.size)


def test_loss_runs_the_spatial_term_beside_the_connectivity_term(tmp_path, monkeypatch):
    # Each term waits at a barrier before its work: only terms in flight
    # together pass it, and a serial run breaks it after 5 s.
    barrier = threading.Barrier(2, timeout=5)
    spans = {}

    def term(name, fn):
        def run(*args):
            start = time.perf_counter()
            with contextlib.suppress(threading.BrokenBarrierError):
                barrier.wait()
            out = fn(*args)
            spans[name] = (threading.current_thread().name, start, time.perf_counter())
            return out
        return run

    monkeypatch.setattr(losses, "loss_con_array", term("con", losses.loss_con_array))
    monkeypatch.setattr(losses, "loss_spatial_array",
                        term("spatial", losses.loss_spatial_array))
    argv = _loss_argv(tmp_path) + ["--json", str(tmp_path / "loss.json")]
    assert _loss_outcome(argv, 2)[0] == 0
    (con_thread, con_start, con_end), (sp_thread, sp_start, sp_end) = (
        spans["con"], spans["spatial"])
    assert sp_thread != con_thread
    assert sp_start < con_end and con_start < sp_end


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("inputs, extra, code, error, message", [
    ({"empty_label": True}, ["--beta", "0.5", "--roi", "0,0,0,3,3,3"], 4,
     "NumericDomainError", "relaxed supervision needs at least one positive voxel"),
    ({}, ["--skel-iters", "0"], 2, "ParameterError", "iterations must be >= 1"),
], ids=["r_sup", "con"])
def test_loss_growth_error_wins_over_a_spatial_error(tmp_path, monkeypatch, threads, inputs,
                                                     extra, code, error, message):
    # The spatial term sees a NaN image, which the .tvol reader would
    # refuse, and fails with its own ParameterError.
    spatial, calls = losses.loss_spatial_array, []

    def nan_guide(yhat, guide, params):
        calls.append(params)
        return spatial(yhat, np.full_like(guide, np.nan), params)

    with pytest.raises(ParameterError, match="spatial loss inputs must be finite"):
        nan_guide(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), losses.GatedKernelParams())
    monkeypatch.setattr(losses, "loss_spatial_array", nan_guide)
    argv = _loss_argv(tmp_path, **inputs) + extra + ["--json", str(tmp_path / "loss.json")]
    got, err, report = _loss_outcome(argv, threads)
    assert (got, json.loads(err), report) == (code, {"error": error, "message": message},
                                              None)
    # The plain loop stops at the growth part; the pool runs the spatial term.
    assert len(calls) == 1 + (threads == 2)


def _readme_cli_lines():
    """Each `tubekit ...` command of README's CLI block, continuations
    joined; the walkthrough test runs them in order, in a temporary
    directory, so the walkthrough stays runnable."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("tubekit ")]


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch):
    lines = _readme_cli_lines()
    assert [line.split()[1] for line in lines] == [
        "phantom", "vesselness", "skeleton", "reconnect", "loss", "metrics",
        "fusion-demo", "gradcheck"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_library_rows_state_contracts_of_public_names():
    """Each row of the README's library table states its module's contract
    in at most 80 words and names only public functions; the module
    docstring says how the module works."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(tubekit\.\w+)` +\|(.*)\|$", text, re.M)
    assert [name for name, _ in rows] == [
        "tubekit.volume", "tubekit.vesselness", "tubekit.workers", "tubekit.skeleton",
        "tubekit.losses", "tubekit.metrics", "tubekit.fusion", "tubekit.gradcheck",
        "tubekit.cli"]
    for name, row in rows:
        module = importlib.import_module(name)
        assert len(row.split()) <= 80, (name, len(row.split()))
        for called in re.findall(r"(\w+)\(", row):
            assert not called.startswith("_") and hasattr(module, called), (name, called)
        assert not re.findall(r"`_\w+", row), name
