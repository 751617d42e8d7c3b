"""Command-line front end: scriptable pipelines over .tvol files.

Exit codes: 0 success, 2 parameter error, 3 I/O error, 4 numeric-domain
error.  Failures print a one-line JSON error object to stderr.  All file
outputs are written atomically (temp file + rename) and JSON reports use
sorted keys with floats rounded to 9 significant digits, so fixed seeds
give byte-identical artifacts.
"""

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import fusion, losses, metrics, skeleton, vesselness
from .errors import FileFormatError, NumericDomainError, ParameterError
from .rng import uniform01, uniform_range
from .volume import (Mask3, PhantomSpec, RoiBox, Volume3, load_tvol,
                     make_phantom, roi_from_label, save_tvol)

GRADCHECK_H = 1e-3


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _jsonify(obj):
    """Round floats to 9 significant digits for stable report bytes."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _atomic_write(path: str, write):
    """Run ``write(tmp)`` on a unique temp file beside ``path``, fsync it,
    then rename it over ``path``.  On any failure the temp file is
    removed and ``path`` is left as it was."""
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=os.path.dirname(path) or ".")
    os.close(fd)
    try:
        write(tmp)
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file as 0600
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj):
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"
    _atomic_write(path, lambda tmp: Path(tmp).write_bytes(text.encode()))


def _save_tvol_atomic(obj, path: str):
    _atomic_write(path, lambda tmp: save_tvol(obj, tmp))


def _parse_triple(text: str, cast, name: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError(f"{name} must be three comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"{name}: {exc}") from None


def _load_volume(path) -> Volume3:
    obj = load_tvol(path)
    if not isinstance(obj, Volume3):
        raise ParameterError(f"{path} holds a mask, expected a volume")
    return obj


def _load_mask(path) -> Mask3:
    obj = load_tvol(path)
    if not isinstance(obj, Mask3):
        raise ParameterError(f"{path} holds a volume, expected a mask")
    return obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_phantom(args):
    spec = PhantomSpec(kind=args.kind, radius_mm=args.radius_mm,
                       foreground_intensity=args.foreground,
                       background_intensity=args.background,
                       noise_sigma=args.noise_sigma,
                       gap_len_voxels=args.gap, seed=args.seed)
    dims = _parse_triple(args.dims, int, "--dims")
    spacing = _parse_triple(args.spacing, float, "--spacing")
    image, label = make_phantom(spec, dims, spacing)
    _save_tvol_atomic(image, args.out_image)
    _save_tvol_atomic(label, args.out_label)
    return 0


def _cmd_vesselness(args):
    vol = _load_volume(args.infile)
    scales = tuple(float(s) for s in args.scales.split(","))
    params = vesselness.JermanParams(tau=args.tau, scales=scales,
                                     polarity=args.polarity)
    resp = vesselness.vesselness_multiscale(vol, params)
    _save_tvol_atomic(resp, args.out)
    return 0


def _cmd_skeleton(args):
    obj = load_tvol(args.infile)
    if isinstance(obj, Mask3):
        out = skeleton.hard_skeleton(obj, args.iters)
    else:
        out = skeleton.soft_skeleton(obj, skeleton.SoftSkeletonParams(args.iters))
    _save_tvol_atomic(out, args.out)
    return 0


def _cmd_reconnect(args):
    mask = _load_mask(args.infile)
    res = skeleton.reconnect(mask)
    _save_tvol_atomic(res.reconnected, args.out)
    if args.report:
        segments = [{"from": list(a), "to": list(b),
                     "line_voxels": len(skeleton.bresenham_line(a, b)) - 2}
                    for a, b in res.segments]
        _write_json(args.report, {
            "segments": segments,
            "segment_count": len(res.segments),
            "drawn_voxels": res.drawn_only.count(),
            "input_voxels": mask.count(),
            "output_voxels": res.reconnected.count(),
        })
    return 0


def _parse_roi(args, label: Mask3) -> RoiBox:
    if args.roi == "auto":
        return roi_from_label(label, margin=args.roi_margin)
    parts = args.roi.split(",")
    if len(parts) != 6:
        raise ParameterError("--roi must be 'auto' or six ints x0,y0,z0,x1,y1,z1")
    v = [int(p) for p in parts]
    return RoiBox((v[0], v[1], v[2]), (v[3], v[4], v[5]))


def _cmd_loss(args):
    pred = _load_volume(args.pred)
    label = _load_mask(args.label)
    image = _load_volume(args.image)
    if pred.dims != label.dims or pred.dims != image.dims:
        raise ParameterError("pred, label and image must share dims")
    roi = _parse_roi(args, label)
    beta = None if args.beta == "auto" else float(args.beta)
    cfg = losses.RelaxedSupConfig(beta=beta)
    kparams = losses.GatedKernelParams(sigma_l=args.sigma_l, sigma_c=args.sigma_c,
                                       radius=args.radius)

    beta_used = losses.resolve_beta(np.asarray(label.data, dtype=np.float64), cfg)
    r_sup = losses.loss_r_sup(label, pred, roi, cfg)
    con = losses.loss_con(pred, skeleton.SoftSkeletonParams(args.skel_iters))
    sp_value, sp_grad, n_pairs = losses.loss_spatial_array(
        np.asarray(pred.data, dtype=np.float64),
        np.asarray(image.data, dtype=np.float64), kparams)
    spatial = (sp_value, Volume3(pred.dims, pred.spacing, sp_grad.astype(np.float32)))
    # Mix term at CLI level: self-mix of the case (alpha plays no role).
    mix = losses.loss_mix(pred, label, label, args.mix_alpha)

    bd = losses.loss_gsb(r_sup, con, spatial, mix, args.lam)
    report = {
        "r_sup": bd.r_sup, "con": bd.con, "spatial": bd.spatial, "mix": bd.mix,
        "lambda": bd.lam, "total": bd.total, "beta": beta_used,
        "spatial_pairs": n_pairs,
        "grad_norms": {
            "r_sup": float(np.linalg.norm(bd.grad_r_sup.data)),
            "con": float(np.linalg.norm(bd.grad_con.data)),
            "spatial": float(np.linalg.norm(bd.grad_spatial.data)),
            "mix": float(np.linalg.norm(bd.grad_mix.data)),
        },
    }
    _write_json(args.json, report)
    return 0


def _cmd_metrics(args):
    pred = _load_mask(args.pred)
    gt = _load_mask(args.gt)
    report = metrics.evaluate(pred, gt, spacing=gt.spacing, skel_k=args.skel_iters)
    _write_json(args.json, report.to_dict())
    return 0


def _cmd_fusion_demo(args):
    dims = _parse_triple(args.dims, int, "--dims")
    c = args.channels
    if c % 2:
        raise ParameterError("--channels must be even (shallow query splits halves)")
    seed = args.seed

    fc4 = fusion.feature_map_from_seed(c, dims, seed * 64 + 1)
    fv4 = fusion.feature_map_from_seed(c, dims, seed * 64 + 2)
    p_deep = fusion.AttentionParams.init(c, seed=seed * 64 + 3)
    dq_v2c, dq_c2v = fusion.deep_mutual_query(fc4, fv4, p_deep)
    dq_self = fusion.deep_mutual_query(fc4, fc4, p_deep)

    rows = fusion.attention_rows(fv4, fc4, p_deep)
    row_sum_dev = float(np.abs(rows.sum(axis=1) - 1.0).max())

    single = fusion.feature_map_from_seed(c, (1, 1, 1), seed * 64 + 4)
    out_single = fusion.cross_attention(fc4, single, p_deep)
    expected = (single.tokens() @ p_deep.wv) @ p_deep.wo
    single_token_dev = float(np.abs(out_single.tokens() - expected[None, :]).max())

    p_half = fusion.AttentionParams.init(c // 2, seed=seed * 64 + 5)
    sq = fusion.shallow_query(fc4, fv4, p_half)

    flex_p = fusion.FlexConvParams.init(c, c, seed=seed * 64 + 6)
    flex_out = fusion.flex_conv_block(fc4, flex_p)
    ident = fusion.flex_conv_block(fc4, fusion.FlexConvParams.identity(c))
    identity_exact = bool(np.array_equal(ident.data, fc4.data))

    segs = [fusion.feature_map_from_seed(1, tuple(max(1, d >> i) for d in dims),
                                         seed * 64 + 16 + i)
            for i in range(3, -1, -1)]
    fused = fusion.d2sd_fuse(segs, dims)

    report = {
        "dims": list(dims), "channels": c, "seed": seed,
        "shapes": {
            "dq_v2c": [dq_v2c.channels, *dq_v2c.spatial],
            "dq_c2v": [dq_c2v.channels, *dq_c2v.spatial],
            "shallow_query": [sq.channels, *sq.spatial],
            "flex_conv": [flex_out.channels, *flex_out.spatial],
            "d2sd": [fused.channels, *fused.spatial],
        },
        "invariants": {
            "attention_row_sum_max_dev": row_sum_dev,
            "single_token_max_dev": single_token_dev,
            "flex_conv_identity_exact": identity_exact,
            "d2sd_range_ok": bool(fused.data.min() >= 0.0 and fused.data.max() <= 1.0),
            "dmq_symmetric_on_equal_inputs": bool(np.array_equal(
                dq_self[0].data, dq_self[1].data)),
        },
    }
    if args.json:
        _write_json(args.json, report)
    else:
        sys.stdout.write(json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def central_difference(fn, x: np.ndarray, voxel, h: float = GRADCHECK_H) -> float:
    xp = x.copy()
    xp[voxel] += h
    xm = x.copy()
    xm[voxel] -= h
    return (fn(xp) - fn(xm)) / (2.0 * h)


def _rel_err(analytic: float, fd: float) -> float:
    return abs(analytic - fd) / max(abs(fd), 1e-8)


def _sample_voxels(dims, seed, count, interior=0):
    lo = interior
    pts = []
    n = 0
    while len(pts) < count:
        u = uniform01(seed, np.arange(n * 3, n * 3 + 3, dtype=np.uint64))
        v = tuple(lo + int(u[i] * (dims[i] - 2 * lo)) for i in range(3))
        n += 1
        if v not in pts:
            pts.append(v)
    return pts


def _tube_prediction(size: int, seed: int) -> np.ndarray:
    """Connected-tube probability field with tie-breaking jitter."""
    spec = PhantomSpec("cylinder", radius_mm=1.5, seed=seed)
    _, label = make_phantom(spec, (max(size, 16),) * 3, (1.0, 1.0, 1.0))
    lab = label.data[:size, :size, :size].astype(np.float64)
    jitter = uniform_range(seed + 77, size ** 3, -0.02, 0.02).reshape((size,) * 3)
    return np.clip(0.07 + 0.83 * lab + jitter, 0.05, 0.95)


def gradcheck_report(seed: int, size: int, points: int = 20,
                     con_points: int = 20, skel_iters: int = 4) -> dict:
    """Max relative error of each analytic gradient vs central FD.

    The connectivity loss is checked only at tie-free voxels: candidate
    perturbations must leave every pooling/relu/threshold selection
    unchanged at x-h, x, x+h (certified via selection signatures).
    """
    dims = (size,) * 3
    n = size ** 3

    # Stay clear of 0/1: the FD truncation of the log terms grows as
    # h^2/x^2 and would swamp the comparison below ~0.1.
    yhat = 0.1 + 0.8 * uniform01(seed * 8 + 1, np.arange(n, dtype=np.uint64)).reshape(dims)
    guide = uniform01(seed * 8 + 2, np.arange(n, dtype=np.uint64)).reshape(dims)
    y = (uniform01(seed * 8 + 3, np.arange(n, dtype=np.uint64)).reshape(dims) < 0.2)
    y = y.astype(np.float64)
    if y.sum() < 1:
        y.flat[0] = 1.0
    roi = np.zeros(dims, dtype=bool)
    roi[1:-1, 1:-1, 1:-1] = True
    beta = 1.0 / math.log((n - y.sum()) / y.sum())

    kparams = losses.GatedKernelParams()
    m = (uniform01(seed * 8 + 4, np.arange(n, dtype=np.uint64)).reshape(dims) < 0.3)
    m = m.astype(np.float64)
    if m.sum() < 1:
        m.flat[-1] = 1.0

    voxels = _sample_voxels(dims, seed * 8 + 5, points)
    report = {"h": GRADCHECK_H, "size": size, "seed": seed}

    _, g = losses.loss_r_sup_array(y, yhat, roi, beta)
    errs = [_rel_err(g[v], central_difference(
        lambda x: losses.loss_r_sup_array(y, x, roi, beta)[0], yhat, v))
        for v in voxels]
    report["r_sup"] = {"max_rel_err": max(errs), "points": len(errs)}

    _, g, _ = losses.loss_spatial_array(yhat, guide, kparams)
    errs = [_rel_err(g[v], central_difference(
        lambda x: losses.loss_spatial_array(x, guide, kparams)[0], yhat, v))
        for v in voxels]
    report["spatial"] = {"max_rel_err": max(errs), "points": len(errs)}

    _, g = losses.loss_mix_array(yhat, m)
    errs = [_rel_err(g[v], central_difference(
        lambda x: losses.loss_mix_array(x, m)[0], yhat, v))
        for v in voxels]
    report["mix"] = {"max_rel_err": max(errs), "points": len(errs)}

    tube = _tube_prediction(size, seed * 8 + 6)
    _, g = losses.loss_con_array(tube, skel_iters)
    sig0 = losses.loss_con_signature(tube, skel_iters)
    errs = []
    # Check where the gradient is live, not only at inert background.
    flat = np.argsort(-np.abs(g), axis=None, kind="stable")[:con_points * 2]
    candidates = [tuple(int(c) for c in np.unravel_index(i, dims)) for i in flat]
    candidates += _sample_voxels(dims, seed * 8 + 7, con_points * 2, interior=1)
    for v in candidates:
        if len(errs) >= con_points:
            break
        xp = tube.copy()
        xp[v] += GRADCHECK_H
        xm = tube.copy()
        xm[v] -= GRADCHECK_H
        if (losses.loss_con_signature(xp, skel_iters) != sig0
                or losses.loss_con_signature(xm, skel_iters) != sig0):
            continue
        fd = central_difference(
            lambda x: losses.loss_con_array(x, skel_iters)[0], tube, v)
        errs.append(_rel_err(g[v], fd))
    report["con"] = {"max_rel_err": max(errs) if errs else 0.0,
                     "points": len(errs), "tie_free_only": True}
    return report


def _cmd_gradcheck(args):
    report = gradcheck_report(args.seed, args.size)
    if args.json:
        _write_json(args.json, report)
    else:
        sys.stdout.write(json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubekit",
        description="Volumetric tubular-structure toolkit (.tvol pipelines).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic tube phantom")
    p.add_argument("--kind", default="cylinder",
                   choices=["cylinder", "gapped_cylinder", "bifurcation", "helix"])
    p.add_argument("--radius-mm", type=float, default=2.0)
    p.add_argument("--dims", default="32,32,32")
    p.add_argument("--spacing", default="1,1,1")
    p.add_argument("--foreground", type=float, default=1.0)
    p.add_argument("--background", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--gap", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-image", required=True)
    p.add_argument("--out-label", required=True)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("vesselness", help="multi-scale tubularity response")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tau", type=float, default=vesselness.DEFAULT_TAU)
    p.add_argument("--scales", default=",".join(str(s) for s in vesselness.DEFAULT_SCALES))
    p.add_argument("--polarity", default="bright", choices=["bright", "dark"])
    p.set_defaults(func=_cmd_vesselness)

    p = sub.add_parser("skeleton", help="soft/hard skeletonization")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("reconnect", help="join skeleton fragments")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_reconnect)

    p = sub.add_parser("loss", help="growth/suppression loss breakdown")
    p.add_argument("--pred", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--roi", default="auto")
    p.add_argument("--roi-margin", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--beta", default="auto")
    p.add_argument("--skel-iters", type=int, default=10)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--sigma-l", type=float, default=1.5)
    p.add_argument("--sigma-c", type=float, default=0.1)
    p.add_argument("--mix-alpha", type=float, default=0.5)
    p.add_argument("--json", required=True)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("metrics", help="evaluation metrics for a mask pair")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--skel-iters", type=int, default=10)
    p.add_argument("--json", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("fusion-demo", help="attention fusion shape/invariant demo")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--dims", default="8,8,8")
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_fusion_demo)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _emit_error(exc: Exception):
    obj = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return int(args.func(args) or 0)
    except ParameterError as exc:
        _emit_error(exc)
        return 2
    except (FileFormatError, OSError) as exc:
        _emit_error(exc)
        return 3
    except NumericDomainError as exc:
        _emit_error(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
