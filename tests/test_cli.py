import json
import math
import struct

import numpy as np
import pytest

from tubekit import Mask3, load_tvol, metrics, save_tvol
from tubekit.cli import main
from tubekit.volume import Volume3, read_tvol_header


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


def test_anisotropic_spacing_flows_through_cli(tmp_path):
    sp = (0.5, 0.75, 1.25)
    _, lab = _phantom_files(tmp_path, kind="gapped_cylinder", dims="16,16,16",
                            radius_mm=1.5, gap=1, spacing="0.5,0.75,1.25")
    skel = tmp_path / "skel.tvol"
    rec = tmp_path / "rec.tvol"
    assert _run("skeleton", "--in", str(lab), "--out", str(skel)) == 0
    assert _run("reconnect", "--in", str(skel), "--out", str(rec)) == 0
    for path in (lab, skel, rec):
        assert read_tvol_header(path)[2] == sp

    gt = load_tvol(lab)
    shifted = np.zeros_like(gt.data)
    shifted[1:] = gt.data[:-1]
    pred_mask = Mask3(gt.dims, shifted, sp)
    pred = tmp_path / "pred.tvol"
    save_tvol(pred_mask, pred)
    report = tmp_path / "m.json"
    assert _run("metrics", "--pred", str(pred), "--gt", str(lab),
                "--json", str(report)) == 0
    hd = metrics.surface_distances(pred_mask, gt, gt.spacing)[0]
    assert hd != metrics.surface_distances(pred_mask, gt)[0]
    assert json.loads(report.read_text())["hd"] == float(f"{hd:.9g}")


def test_loss_lambda_zero_total(tmp_path):
    img, lab = _phantom_files(tmp_path, dims="17,17,17", radius_mm=1.5)
    pred = tmp_path / "pred.tvol"
    label = load_tvol(lab)
    prob = 0.1 + 0.8 * label.data.astype(np.float32)
    save_tvol(Volume3(label.dims, (1, 1, 1), prob), pred)
    report = tmp_path / "loss.json"
    assert _run("loss", "--pred", str(pred), "--label", str(lab),
                "--image", str(img), "--lambda", "0",
                "--skel-iters", "4", "--json", str(report)) == 0
    data = json.loads(report.read_text())
    assert math.isclose(data["total"], data["r_sup"] + data["con"],
                        rel_tol=1e-6, abs_tol=1e-9)
    assert data["beta"] > 0
    assert data["spatial_pairs"] > 0
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
    inv = data["invariants"]
    assert inv["attention_row_sum_max_dev"] <= 1e-6
    assert inv["single_token_max_dev"] <= 1e-6
    assert inv["flex_conv_identity_exact"] is True
    assert inv["d2sd_range_ok"] is True
    assert inv["dmq_symmetric_on_equal_inputs"] is True
    assert data["shapes"]["d2sd"] == [1, 6, 6, 6]


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


def test_reports_have_sorted_keys(tmp_path):
    _, lab = _phantom_files(tmp_path, dims="16,16,16")
    report = tmp_path / "m.json"
    assert _run("metrics", "--pred", str(lab), "--gt", str(lab),
                "--json", str(report)) == 0
    data = json.loads(report.read_text())
    assert list(data) == sorted(data)
