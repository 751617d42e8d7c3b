"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s to see the printed summaries inline).
"""

import json
import math
import time

import numpy as np

from tubekit import PhantomSpec, Volume3, load_tvol, make_phantom, save_tvol
from tubekit.cli import main as cli_main
from tubekit.fusion import (AttentionParams, FlexConvParams, attention_rows,
                            cross_attention, d2sd_fuse, feature_map_from_seed,
                            flex_conv_block, tokens)
from tubekit.losses import (GatedKernelParams, loss_con_array,
                            loss_con_signature, loss_gsb, loss_mix_array,
                            loss_r_sup_array, loss_spatial_array)
from tubekit.metrics import (dice, precision_recall_f1, surface_distances,
                             surface_voxels, tree_metrics)
from tubekit.skeleton import (connected_components, hard_skeleton, reconnect,
                              soft_skeleton_array)
from tubekit.vesselness import JermanParams, vesselness_multiscale

from oracles import (bresenham_line, brute_surface_distances, central_difference,
                     jacobi_eigenvalues)
from single_voxel import EigenTriple, eig3_symmetric, jerman_response


def _report(num, text):
    print(f"CRITERION {num:02d} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    size = 8
    dims = (size,) * 3
    worst = {"r_sup": 0.0, "spatial": 0.0, "mix": 0.0, "con": 0.0}
    kparams = GatedKernelParams()

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        yhat = 0.1 + 0.8 * rng.random(dims)
        guide = rng.random(dims)
        y = (rng.random(dims) < 0.25).astype(np.float64)
        if y.sum() < 1 or y.sum() > y.size - 2:
            y[:] = 0
            y[2:4, 2:4, 2:4] = 1
        roi = np.zeros(dims, dtype=bool)
        roi[1:-1, 1:-1, 1:-1] = True
        beta = 1.0 / math.log((y.size - y.sum()) / y.sum())
        m = (rng.random(dims) < 0.3).astype(np.float64)
        if m.sum() < 1:
            m[0, 0, 0] = 1.0
        points = [tuple(rng.integers(0, size, 3)) for _ in range(8)]

        _, g = loss_r_sup_array(y, yhat, roi, beta)
        for v in points:
            fd = central_difference(
                lambda x: loss_r_sup_array(y, x, roi, beta)[0], yhat, v)
            worst["r_sup"] = max(worst["r_sup"], abs(g[v] - fd) / max(abs(fd), 1e-8))

        _, g, _ = loss_spatial_array(yhat, guide, kparams)
        for v in points:
            fd = central_difference(
                lambda x: loss_spatial_array(x, guide, kparams)[0], yhat, v)
            worst["spatial"] = max(worst["spatial"], abs(g[v] - fd) / max(abs(fd), 1e-8))

        _, g = loss_mix_array(yhat, m)
        for v in points:
            fd = central_difference(lambda x: loss_mix_array(x, m)[0], yhat, v)
            worst["mix"] = max(worst["mix"], abs(g[v] - fd) / max(abs(fd), 1e-8))

    # connectivity: tie-free voxels on jittered connected tubes
    iters, h = 3, 1e-3
    _, label = make_phantom(PhantomSpec("cylinder", radius_mm=1.5), (17, 17, 17))
    lab8 = label.data[:size, :size, :size].astype(np.float64)
    checked_total = 0
    for seed in range(4):
        rng = np.random.default_rng(2000 + seed)
        pred = np.clip(0.12 + 0.78 * lab8
                       + rng.uniform(-0.02, 0.02, dims), 0.1, 0.9)
        _, g = loss_con_array(pred, iterations=iters)
        sig0 = loss_con_signature(pred, iterations=iters)[0]
        live = np.argsort(-np.abs(g), axis=None)[:30]
        checked = 0
        for flat in live:
            if checked >= 10:
                break
            v = tuple(int(c) for c in np.unravel_index(flat, dims))
            xp = pred.copy()
            xp[v] += h
            xm = pred.copy()
            xm[v] -= h
            if (loss_con_signature(xp, iterations=iters)[0] != sig0
                    or loss_con_signature(xm, iterations=iters)[0] != sig0):
                continue
            fd = central_difference(
                lambda x: loss_con_array(x, iterations=iters)[0], pred, v, h)
            worst["con"] = max(worst["con"], abs(g[v] - fd) / max(abs(fd), 1e-8))
            checked += 1
        checked_total += checked

    elapsed = time.perf_counter() - t0
    assert worst["r_sup"] <= 1e-4, worst
    assert worst["spatial"] <= 1e-4, worst
    assert worst["mix"] <= 1e-4, worst
    assert worst["con"] <= 1e-3, worst
    assert checked_total >= 20
    assert elapsed < 60.0
    _report(1, f"max rel FD errors r_sup={worst['r_sup']:.2e} "
               f"spatial={worst['spatial']:.2e} mix={worst['mix']:.2e} "
               f"con={worst['con']:.2e} (tie-free n={checked_total}) "
               f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. combined-objective linearity
# ---------------------------------------------------------------------------

def test_criterion_02_lambda_linearity():
    grid = (0.0, 0.5, 0.75, 1.0, 1.5, 2.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        r_sup, con, spatial, mix = (float(v) for v in rng.standard_normal(4))
        for lam in grid:
            total = loss_gsb(r_sup, con, spatial, mix, lam)
            lhs = total - (r_sup + con)
            rhs = lam * (spatial + mix)
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))
    _report(2, f"total - (r_sup + con) == lambda*(spatial + mix) to 1e-7 "
               f"over lambda grid {grid}")


# ---------------------------------------------------------------------------
# 3. Jerman branch values
# ---------------------------------------------------------------------------

def test_criterion_03_jerman_branches():
    # F = 0 when l2 <= 0 or lp <= 0 (after polarity adjustment)
    assert jerman_response(EigenTriple(0.0, 1.0, 2.0), 2.0, 0.5, "bright") == 0.0
    assert jerman_response(EigenTriple(0.0, 0.0, 2.0), 2.0, 0.5, "dark") == 0.0
    assert jerman_response(EigenTriple(0.0, 1.0, -2.0), 2.0, 0.5, "dark") == 0.0
    # F = 1 when l2 >= lp/2 > 0
    assert jerman_response(EigenTriple(0.0, -2.0, -3.0), 3.0, 0.5, "bright") == 1.0
    assert jerman_response(EigenTriple(0.1, 1.5, 3.0), 3.0, 0.5, "dark") == 1.0
    # middle branch at (l2=1, lp=3)
    got_b = jerman_response(EigenTriple(0.0, -1.0, -3.0), 3.0, 0.5, "bright")
    got_d = jerman_response(EigenTriple(0.0, 1.0, 3.0), 3.0, 0.5, "dark")
    assert abs(got_b - 0.84375) <= 1e-9
    assert abs(got_d - 0.84375) <= 1e-9
    _report(3, "F branches: zero/one gates hold, middle value 0.84375 exact to 1e-9")


# ---------------------------------------------------------------------------
# 4. vesselness contrast and runtime
# ---------------------------------------------------------------------------

def test_criterion_04_vesselness_contrast_and_runtime():
    image, label = make_phantom(PhantomSpec("cylinder", radius_mm=2.0), (64, 64, 64))
    t0 = time.perf_counter()
    resp = vesselness_multiscale(image, JermanParams(scales=(1.0, 2.0, 3.0)))
    t64 = time.perf_counter() - t0

    c = (64 - 1) / 2.0
    xx, yy = np.meshgrid(np.arange(64) - c, np.arange(64) - c, indexing="ij")
    axis_dist = np.sqrt(xx ** 2 + yy ** 2)
    centerline = float(resp.data[axis_dist <= 1.0, :].mean())
    far = float(resp.data[axis_dist >= 2.0 + 5.0, :].mean())
    ratio = centerline / max(far, 1e-300)
    assert ratio >= 10.0
    assert t64 < 30.0

    big, _ = make_phantom(PhantomSpec("cylinder", radius_mm=2.0), (128, 128, 128))
    t0 = time.perf_counter()
    vesselness_multiscale(big, JermanParams())  # four default scales
    t128 = time.perf_counter() - t0
    assert t128 < 120.0
    _report(4, f"centerline/background ratio {ratio:.3g} (>= 10), "
               f"64^3 in {t64:.1f}s (< 30), 128^3 four scales in {t128:.1f}s (< 120)")


# ---------------------------------------------------------------------------
# 5. eigen solver vs Jacobi oracle
# ---------------------------------------------------------------------------

def test_criterion_05_eigen_oracle():
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(1000):
        c = rng.standard_normal(6) * float(rng.choice([0.2, 1.0, 5.0]))
        mat = np.array([[c[0], c[1], c[2]],
                        [c[1], c[3], c[4]],
                        [c[2], c[4], c[5]]])
        t = eig3_symmetric(c)
        got = np.array([t.l1, t.l2, t.l3])
        expected = jacobi_eigenvalues(mat)
        worst_gap = max(worst_gap, float(np.abs(got - expected).max()))
        norm = np.linalg.norm(mat)
        for lam in got:
            r = abs(np.linalg.det(mat - lam * np.eye(3)))
            worst_residual = max(worst_residual, r / (1.0 + norm))
        assert np.abs(got - expected).max() <= 1e-6
    assert worst_residual <= 1e-4
    _report(5, f"1000 matrices: max |eig - jacobi| = {worst_gap:.2e} (<= 1e-6), "
               f"max charpoly residual ratio {worst_residual:.2e} (<= 1e-4)")


# ---------------------------------------------------------------------------
# 6. skeleton fixed points
# ---------------------------------------------------------------------------

def _one_wide_curves():
    n = 13
    curves = []
    for axis in range(3):  # axis lines, including border-touching
        data = np.zeros((n, n, n))
        idx = [6, 6]
        idx.insert(axis, slice(0, n))
        data[tuple(idx)] = 1.0
        curves.append(data)
    diag = np.zeros((n, n, n))
    for i in range(n):
        diag[i, i, i] = 1.0
    curves.append(diag)
    rng = np.random.default_rng(55)
    for _ in range(6):  # random straight segments
        data = np.zeros((n, n, n))
        a = rng.integers(0, n, 3)
        b = rng.integers(0, n, 3)
        for p in bresenham_line(tuple(a), tuple(b)):
            data[tuple(p)] = 1.0
        curves.append(data)
    for _ in range(6):  # monotone-z staircase walks
        data = np.zeros((n, n, n))
        x, y = 6, 6
        for z in range(n):
            data[x, y, z] = 1.0
            x = int(np.clip(x + rng.integers(-1, 2), 0, n - 1))
            y = int(np.clip(y + rng.integers(-1, 2), 0, n - 1))
        curves.append(data)
    helix = np.zeros((n, n, n))  # circular staircase
    for z in range(n):
        ang = 2 * np.pi * z / n
        helix[6 + int(round(3 * np.cos(ang))), 6 + int(round(3 * np.sin(ang))), z] = 1.0
    curves.append(helix)
    return curves


def test_criterion_06_skeleton_fixed_points():
    count = 0
    for data in _one_wide_curves():
        out = soft_skeleton_array(data, 4)
        assert np.array_equal(out, data)
        m = data > 0
        once = hard_skeleton(m, 4)
        assert np.array_equal(once, m)
        assert np.array_equal(hard_skeleton(once, 4), once)
        count += 1
    _report(6, f"{count} one-wide 26-connected curves are exact soft-skeleton "
               f"fixed points and hard-skeleton idempotent")


# ---------------------------------------------------------------------------
# 7. reconnection on the gapped phantom
# ---------------------------------------------------------------------------

def test_criterion_07_reconnection_and_con_loss():
    dims = (17, 17, 17)
    # gap_len 1 plus one eroded slice per segment end -> 3-voxel skeleton gap
    _, label = make_phantom(
        PhantomSpec("gapped_cylinder", radius_mm=1.5, gap_len_voxels=1), dims)
    skel = hard_skeleton(label.data > 0, 6)
    assert connected_components(skel)[1] == 2
    res = reconnect(skel)
    assert connected_components(res.reconnected)[1] == 1
    assert (res.reconnected & ~skel).sum() == 3

    gapped_pred = label.data.astype(np.float64) * 0.9
    before, _ = loss_con_array(gapped_pred, iterations=6)
    _, solid = make_phantom(PhantomSpec("cylinder", radius_mm=1.5), dims)
    filled = gapped_pred.copy()
    gap_slice = (solid.data > 0) & (label.data == 0)
    filled[gap_slice] = 0.9
    after, _ = loss_con_array(filled, iterations=6)
    assert before > 0.0
    assert after < before
    _report(7, f"skeleton gap reconnected: 1 component, 3 drawn voxels; "
               f"loss_con {before:.4f} -> {after:.4f} after filling the gap")


# ---------------------------------------------------------------------------
# 8. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(202)
    for _ in range(10):
        dims = (8, 8, 8)
        p = (rng.random(dims) < 0.15).astype(np.uint8)
        g = (rng.random(dims) < 0.15).astype(np.uint8)
        p[4, 4, 4] = 1
        g[3, 3, 3] = 1
        pm, gm = p > 0, g > 0
        spacing = tuple(rng.uniform(0.5, 2.0, 3))
        sp, sg = surface_voxels(pm), surface_voxels(gm)
        assert len(sp) <= 200 and len(sg) <= 200
        expected = brute_surface_distances(sp, sg, spacing)
        got = surface_distances(sp, sg, spacing)
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-6

        inter = int((p & g).sum())
        assert dice(pm, gm) == 100.0 * 2 * inter / (p.sum() + g.sum())
        prf = precision_recall_f1(pm, gm)
        assert prf.precision == 100.0 * inter / p.sum()
        assert prf.recall == 100.0 * inter / g.sum()

    # Y-tree with one of three branches missed
    data = np.zeros((17, 17, 17), dtype=np.uint8)
    data[8, 8, 0:9] = 1
    for i in range(1, 7):
        data[8 + i, 8, 8 + i] = 1
        data[8 - i, 8, 8 + i] = 1
    pred = np.array(data)
    for i in range(1, 7):
        pred[8 - i, 8, 8 + i] = 0
    bd, _ = tree_metrics(pred > 0, hard_skeleton(data > 0, 3), (1.0, 1.0, 1.0))
    assert abs(bd - 66.67) <= 0.01
    _report(8, f"surface distances match brute force to 1e-6; dice/precision/"
               f"recall exact; Y-tree BD {bd:.2f} (66.67 +/- 0.01)")


# ---------------------------------------------------------------------------
# 9. fusion invariants
# ---------------------------------------------------------------------------

def test_criterion_09_fusion_invariants():
    rng = np.random.default_rng(303)
    worst_row = 0.0
    for seed in range(10):
        c = int(rng.integers(2, 8))
        p = AttentionParams.init(c, seed=seed)
        fq = feature_map_from_seed(c, tuple(rng.integers(1, 4, 3)), seed + 10)
        fkv = feature_map_from_seed(c, tuple(rng.integers(1, 4, 3)), seed + 20)
        rows = attention_rows(fq, fkv, p)
        worst_row = max(worst_row, float(np.abs(rows.sum(axis=1) - 1.0).max()))
    assert worst_row <= 1e-6

    p = AttentionParams.init(4, seed=5)
    fq = feature_map_from_seed(4, (2, 2, 2), 31)
    single = feature_map_from_seed(4, (1, 1, 1), 32)
    out = cross_attention(fq, single, p)
    expected = (tokens(single) @ p.wv) @ p.wo
    assert np.abs(tokens(out) - expected[None, :]).max() <= 1e-6

    const = np.full((4, 2, 2, 2), 0.4, dtype=np.float32)
    out = cross_attention(fq, const, p)
    mean_row = (tokens(const) @ p.wv).mean(axis=0) @ p.wo
    assert np.abs(tokens(out) - mean_row[None, :]).max() <= 1e-6

    f = feature_map_from_seed(5, (5, 5, 5), 33)
    ident = flex_conv_block(f, FlexConvParams.identity(5))
    assert np.array_equal(ident, f)

    for i in range(50):
        n_scales = int(rng.integers(2, 5))
        segs = [feature_map_from_seed(1, tuple(rng.integers(1, 6, 3)), 400 + i * 8 + j)
                for j in range(n_scales)]
        target = tuple(rng.integers(2, 9, 3))
        fused = d2sd_fuse(segs, target)
        assert fused.shape == (1, *target)
    _report(9, f"attention rows sum to 1 (max dev {worst_row:.1e}); single-token "
               f"and identical-key cases hold; flex-conv identity bitwise; "
               f"d2sd shape contract over 50 draws")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def _run_all_subcommands(base):
    base.mkdir(parents=True, exist_ok=True)
    img = base / "img.tvol"
    lab = base / "lab.tvol"
    outputs = {}

    assert cli_main(["phantom", "--kind", "gapped_cylinder", "--dims", "17,17,17",
                     "--radius-mm", "1.5", "--gap", "1", "--noise-sigma", "0.1",
                     "--seed", "5", "--out-image", str(img),
                     "--out-label", str(lab)]) == 0
    outputs["phantom_img"] = img
    outputs["phantom_lab"] = lab

    resp = base / "resp.tvol"
    assert cli_main(["vesselness", "--in", str(img), "--out", str(resp),
                     "--scales", "1,2"]) == 0
    outputs["vesselness"] = resp

    skel = base / "skel.tvol"
    assert cli_main(["skeleton", "--in", str(lab), "--iters", "6",
                     "--out", str(skel)]) == 0
    outputs["skeleton"] = skel

    rec = base / "rec.tvol"
    seg = base / "seg.json"
    assert cli_main(["reconnect", "--in", str(skel), "--out", str(rec),
                     "--report", str(seg)]) == 0
    outputs["reconnect"] = rec
    outputs["reconnect_report"] = seg

    pred = base / "pred.tvol"
    label = load_tvol(lab)
    prob = (0.1 + 0.8 * label.data.astype(np.float32))
    save_tvol(Volume3(label.dims, (1.0, 1.0, 1.0), prob), pred)
    loss_json = base / "loss.json"
    assert cli_main(["loss", "--pred", str(pred), "--label", str(lab),
                     "--image", str(img), "--lambda", "1.0",
                     "--skel-iters", "4", "--json", str(loss_json)]) == 0
    outputs["loss"] = loss_json

    met = base / "metrics.json"
    assert cli_main(["metrics", "--pred", str(lab), "--gt", str(lab),
                     "--json", str(met)]) == 0
    outputs["metrics"] = met

    fus = base / "fusion.json"
    assert cli_main(["fusion-demo", "--seed", "7", "--dims", "6,6,6",
                     "--channels", "8", "--json", str(fus)]) == 0
    outputs["fusion"] = fus

    grad = base / "grad.json"
    assert cli_main(["gradcheck", "--seed", "3", "--size", "8",
                     "--json", str(grad)]) == 0
    outputs["gradcheck"] = grad
    return outputs


def test_criterion_10_cli_determinism(tmp_path):
    first = _run_all_subcommands(tmp_path / "run1")
    second = _run_all_subcommands(tmp_path / "run2")
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), name

    grad = json.loads(first["gradcheck"].read_text())
    assert grad["r_sup"]["max_rel_err"] <= 1e-4
    assert grad["spatial"]["max_rel_err"] <= 1e-4
    assert grad["mix"]["max_rel_err"] <= 1e-4
    assert grad["con"]["max_rel_err"] <= 1e-3
    _report(10, f"{len(first)} artifacts byte-identical across two runs of "
                f"every subcommand; gradcheck report within thresholds")
