"""Command-line front end: scriptable pipelines over .tvol files.

An argparse front end: parsing, input checks, atomic writes and JSON
reports.  Exit codes: 0 success, 2 parameter error, 3 I/O error, 4
numeric-domain error (for example an all-positive label makes the
automatic uncertainty ratio undefined).  A size that numpy refuses to
allocate (say ``phantom --dims 100000,100000,100000``, 3.55 PiB) is exit 2
with ``"error": "MemoryError"``.  Every command runs under
``np.errstate(over="raise", divide="raise", invalid="raise")``, so a float
overflow, division by zero or invalid operation that no stage handles in
a local ``np.errstate`` is exit 2 with ``"error": "ArithmeticError"``
instead of a warning or a traceback.  Failures print a one-line JSON
error object to stderr.  All file outputs are written atomically (temp
file + rename) and JSON reports use sorted keys with floats rounded to 9
significant digits, so fixed seeds give byte-identical artifacts.  Every
command that turns a mask into a mask (``skeleton``, ``reconnect``) keeps
the input's spacing.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import fusion, gradcheck, losses, metrics, skeleton, vesselness
from .errors import FileFormatError, NumericDomainError, ParameterError
from .rng import check_derived_seed
from .volume import (DEFAULT_ROI_MARGIN, Mask3, PhantomSpec, RoiBox, Volume3,
                     load_tvol, make_phantom, roi_from_label, save_tvol)
from .workers import parallel_map, thread_count

FUSION_MAX_VOXELS = 16 ** 3  # fusion-demo's attention matrix grows as voxels^2
FUSION_MAX_CHANNELS = 64  # its flex-conv weights grow as 153 * channels^2


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


def _write_json(path, obj):
    """Write the report ``obj`` to ``path``, or to stdout without one."""
    _write_text(path, json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n")


def _write_text(path, text: str):
    """Write ``text`` to ``path`` atomically, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
    else:
        _atomic_write(path, lambda tmp: Path(tmp).write_bytes(text.encode()))


def _save_tvol_atomic(obj, path: str):
    _atomic_write(path, lambda tmp: save_tvol(obj, tmp))


def _parse_list(text: str, cast, name: str, count: int = None) -> tuple:
    """The comma-separated values of ``text`` cast by ``cast``; exactly
    ``count`` of them when ``count`` is given."""
    parts = text.split(",")
    if count is not None and len(parts) != count:
        raise ParameterError(f"{name} needs {count} comma-separated "
                             f"value{'s' * (count != 1)}, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"{name}: {exc}") from None


def _load(path, kind):
    """The ``kind`` (Volume3 or Mask3) that the file at ``path`` holds."""
    obj = load_tvol(path)
    if not isinstance(obj, kind):
        held, want = ("mask", "volume") if kind is Volume3 else ("volume", "mask")
        raise ParameterError(f"{path} holds a {held}, expected a {want}")
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
    dims = _parse_list(args.dims, int, "--dims", 3)
    spacing = _parse_list(args.spacing, float, "--spacing", 3)
    image, label = make_phantom(spec, dims, spacing)
    _save_tvol_atomic(image, args.out_image)
    _save_tvol_atomic(label, args.out_label)
    return 0


def _cmd_vesselness(args):
    vol = _load(args.infile, Volume3)
    scales = _parse_list(args.scales, float, "--scales")
    params = vesselness.JermanParams(tau=args.tau, scales=scales,
                                     polarity=args.polarity)
    resp = vesselness.vesselness_multiscale(vol, params)
    _save_tvol_atomic(resp, args.out)
    return 0


def _cmd_skeleton(args):
    obj = load_tvol(args.infile)
    if isinstance(obj, Mask3):
        skel = skeleton.hard_skeleton(obj.data > 0, args.iters)
        out = Mask3(obj.dims, skel.astype(np.uint8), obj.spacing)
    else:
        skel = skeleton.soft_skeleton_array(obj.data, args.iters)
        out = Volume3(obj.dims, obj.spacing, skel.astype(np.float32))
    _save_tvol_atomic(out, args.out)
    return 0


def _cmd_reconnect(args):
    mask = _load(args.infile, Mask3)
    res = skeleton.reconnect(mask.data > 0)
    _save_tvol_atomic(Mask3(mask.dims, res.reconnected.astype(np.uint8),
                            mask.spacing), args.out)
    if args.report:
        _write_text(args.report, _reconnect_report(
            res.segments, mask.count(), int(res.reconnected.sum())))
    return 0


# One segment as json.dumps(..., indent=2) nests it in the report's list.
_SEGMENT = ('    {\n      "from": [\n        %d,\n        %d,\n        %d\n      ],\n'
            '      "line_voxels": %d,\n'
            '      "to": [\n        %d,\n        %d,\n        %d\n      ]\n    }')


def _reconnect_report(segments: np.ndarray, n_in: int, n_out: int) -> str:
    """The reconnect report of ``segments``, reconnect's (n, 2, 3) array,
    in the bytes ``_write_json`` would give it (sorted keys, 2-space
    indentation), formatted directly: every value in it is an integer, so
    one repeated ``%d`` template takes them all, filled in one call from a
    flat integer list of the segments and their ``_line_voxels``, computed
    by numpy."""
    listed = "[]"
    if len(segments):
        row = np.concatenate([segments[:, 0], _line_voxels(segments)[:, None],
                              segments[:, 1]], axis=1)
        listed = "[\n%s\n  ]" % (",\n".join([_SEGMENT] * len(row)) % tuple(row.ravel().tolist()))
    return (f'{{\n  "drawn_voxels": {n_out - n_in},\n'  # reconnection only adds voxels
            f'  "input_voxels": {n_in},\n  "output_voxels": {n_out},\n'
            f'  "segment_count": {len(segments)},\n  "segments": {listed}\n}}\n')


def _line_voxels(ab: np.ndarray) -> np.ndarray:
    """Per (from, to) row pair of ``ab``, the voxels strictly between
    them on their ``skeleton._lines`` line, one voxel per step of the
    driving axis: max|b - a| - 1."""
    return np.abs(ab[:, 1] - ab[:, 0]).max(axis=1) - 1


def _parse_roi(args, label: Mask3) -> RoiBox:
    if args.roi == "auto":
        return roi_from_label(label, margin=args.roi_margin)
    v = _parse_list(args.roi, int, "--roi", 6)
    return RoiBox(v[:3], v[3:])


def _cmd_loss(args):
    """Lambda is checked before any file is read.  No term reads another's
    output, so the growth terms and the spatial term run as two pool
    parts; listed in the serial term order, they raise the same first
    error, and give the same report bits, at any worker count.  Each
    input is held once, in the type the terms read: the prediction and
    guide as float64, their float32 containers released, and the label
    as uint8, which each term converts where it reads it."""
    lam = losses._checked_non_negative("lambda", args.lam)
    pred = _load(args.pred, Volume3)
    label = _load(args.label, Mask3)
    image = _load(args.image, Volume3)
    if pred.dims != label.dims or pred.dims != image.dims:
        raise ParameterError("pred, label and image must share dims")
    if pred.spacing != label.spacing or pred.spacing != image.spacing:
        raise ParameterError("pred, label and image must share spacing")
    roi = _parse_roi(args, label)
    beta = None if args.beta == "auto" else _parse_list(args.beta, float, "--beta", 1)[0]
    kparams = losses.GatedKernelParams(sigma_l=args.sigma_l, sigma_c=args.sigma_c,
                                       radius=args.radius)
    yhat = np.asarray(pred.data, dtype=np.float64)
    guide = np.asarray(image.data, dtype=np.float64)
    del pred, image
    lab = label.data

    beta = losses.resolve_beta(lab, beta)

    def growth():
        r_sup = _grad32("r_sup", *losses.loss_r_sup_array(
            lab, yhat, roi.indicator(label.dims), beta))
        return r_sup, _grad32("con", *losses.loss_con_array(yhat, args.skel_iters))

    def suppression():
        sp_value, sp_grad, n_pairs = losses.loss_spatial_array(yhat, guide, kparams)
        return _grad32("spatial", sp_value, sp_grad), n_pairs

    (r_sup, con), (spatial, n_pairs) = parallel_map(lambda part: part(),
                                                    [growth, suppression])
    mix = _grad32("mix", *losses.loss_mix_array(yhat, lab))

    terms = {"r_sup": r_sup, "con": con, "spatial": spatial, "mix": mix}
    report = {name: value for name, (value, _) in terms.items()}
    report.update({
        "lambda": lam, "beta": beta, "spatial_pairs": n_pairs,
        "total": losses.loss_gsb(r_sup[0], con[0], spatial[0], mix[0], lam),
        "grad_norms": {name: norm for name, (_, norm) in terms.items()},
    })
    _write_json(args.json, report)
    return 0


def _grad32(name: str, value: float, grad: np.ndarray):
    """(value, norm): the norm of the gradient rounded to float32, the
    precision of a stored volume, computed in float32.  A norm that is
    not finite is rejected; a finite one means every entry is finite."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(grad.astype(np.float32))
    if not np.isfinite(norm):
        raise ParameterError(f"{name} gradient exceeds the float32 range")
    return value, float(norm)


def _cmd_metrics(args):
    pred = _load(args.pred, Mask3)
    gt = _load(args.gt, Mask3)
    _write_json(args.json, metrics.evaluate(pred, gt, skel_k=args.skel_iters))
    return 0


def _cmd_fusion_demo(args):
    # The largest derived seed: FlexConvParams.init(seed * 64 + 6) draws from 16 * that + 15.
    check_derived_seed(args.seed, 1024, 111)
    dims = _parse_list(args.dims, int, "--dims", 3)
    if min(dims) < 1:
        raise ParameterError(f"--dims must be three counts >= 1, got {args.dims!r}")
    if dims[0] * dims[1] * dims[2] > FUSION_MAX_VOXELS:
        raise ParameterError(f"--dims {args.dims!r} holds more than {FUSION_MAX_VOXELS} "
                             "voxels (16^3); the demo keeps a voxels x voxels attention matrix")
    c = args.channels
    if c < 2 or c % 2:
        raise ParameterError("--channels must be even and >= 2 (shallow query splits halves)")
    if c > FUSION_MAX_CHANNELS:
        raise ParameterError(f"--channels {c} exceeds {FUSION_MAX_CHANNELS}; the demo's "
                             "flex-conv block holds 153 * channels^2 weights")
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
    expected = (fusion.tokens(single) @ p_deep.wv) @ p_deep.wo
    single_token_dev = float(np.abs(fusion.tokens(out_single) - expected[None, :]).max())

    p_half = fusion.AttentionParams.init(c // 2, seed=seed * 64 + 5)
    sq = fusion.shallow_query(fc4, fv4, p_half)

    flex_p = fusion.FlexConvParams.init(c, c, seed=seed * 64 + 6)
    flex_out = fusion.flex_conv_block(fc4, flex_p)
    ident = fusion.flex_conv_block(fc4, fusion.FlexConvParams.identity(c))
    identity_exact = bool(np.array_equal(ident, fc4))

    segs = [fusion.feature_map_from_seed(1, tuple(max(1, d >> i) for d in dims),
                                         seed * 64 + 16 + i)
            for i in range(3, -1, -1)]
    fused = fusion.d2sd_fuse(segs, dims)

    report = {
        "dims": list(dims), "channels": c, "seed": seed,
        "shapes": {
            "dq_v2c": list(dq_v2c.shape),
            "dq_c2v": list(dq_c2v.shape),
            "shallow_query": list(sq.shape),
            "flex_conv": list(flex_out.shape),
            "d2sd": list(fused.shape),
        },
        "invariants": {
            "attention_row_sum_max_dev": row_sum_dev,
            "single_token_max_dev": single_token_dev,
            "flex_conv_identity_exact": identity_exact,
            "d2sd_range_ok": bool(fused.min() >= 0.0 and fused.max() <= 1.0),
            "dmq_symmetric_on_equal_inputs": bool(np.array_equal(*dq_self)),
        },
    }
    _write_json(args.json, report)
    return 0


def _cmd_gradcheck(args):
    _write_json(args.json, gradcheck.gradcheck_report(args.seed, args.size))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    """The ``tubekit`` parser, built once per process."""
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
    p.add_argument("--foreground", type=float, default=PhantomSpec.foreground_intensity)
    p.add_argument("--background", type=float, default=PhantomSpec.background_intensity)
    p.add_argument("--noise-sigma", type=float, default=PhantomSpec.noise_sigma)
    p.add_argument("--gap", type=int, default=PhantomSpec.gap_len_voxels)
    p.add_argument("--seed", type=int, default=PhantomSpec.seed)
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
    p.add_argument("--iters", type=int, default=skeleton.DEFAULT_ITERATIONS)
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
    p.add_argument("--roi-margin", type=int, default=DEFAULT_ROI_MARGIN)
    p.add_argument("--lambda", dest="lam", type=float, default=losses.DEFAULT_LAMBDA)
    p.add_argument("--beta", default="auto")
    p.add_argument("--skel-iters", type=int, default=skeleton.DEFAULT_ITERATIONS)
    p.add_argument("--radius", type=int, default=losses.GatedKernelParams.radius,
                   help="spatial window radius, cut to max(dims) - 1; above "
                        f"{losses.SPATIAL_MAX_RADIUS} after the cut it exits 2")
    p.add_argument("--sigma-l", type=float, default=losses.GatedKernelParams.sigma_l)
    p.add_argument("--sigma-c", type=float, default=losses.GatedKernelParams.sigma_c)
    p.add_argument("--json", required=True)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("metrics", help="evaluation metrics for a mask pair")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--skel-iters", type=int, default=skeleton.DEFAULT_ITERATIONS)
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
        thread_count()  # a bad TUBEKIT_THREADS exits 2 before any file is read
        with np.errstate(over="raise", divide="raise", invalid="raise"):
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
    except MemoryError as exc:  # numpy's refusal of an impossible size
        _emit_error(MemoryError(str(exc)))
        return 2
    except ArithmeticError as exc:  # a float overflow no stage handles
        _emit_error(ArithmeticError(str(exc)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
