#!/usr/bin/env python3
"""tubekit benchmark: runs the `tubekit` CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload {filter,train,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program under test is imported from
./src.  Set-up generates four inputs (one per phantom kind, order and
noise from the seed) and runs one warm-up case on a 32^3 input.  Timed
cases then cycle over the inputs for --seconds seconds, and every output
is checked.  Set-up is repeated after the timed cases, SETUP_REPEATS in
all, so its median samples the host at more than one moment.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each case
untraced and then traced on the same input and reports per-layer
metrics from the spans (see tracer.py); the spans are written to
.perfbench_out/.  The last line of stdout is the result object; the
line before it carries run metadata and per-case detail.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from statistics import median  # noqa: E402

from tracer import Tracer, aggregate  # noqa: E402
from workloads import (WARMUP_KIND, WARMUP_SEED, WARMUP_SIZE,  # noqa: E402
                       WORKLOADS, input_plan, sha256)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_REPEATS = 2

# (metric, span, field): field is an aggregate() column or a counter.
SPAN_METRICS = [
    ("vesselness.gaussian_smooth.self_s", "vesselness.gaussian_smooth", "self_s"),
    ("vesselness.hessian_at_scale.self_s", "vesselness.hessian_at_scale", "self_s"),
    ("vesselness.eig3_symmetric_field.self_s", "vesselness.eig3_symmetric_field", "self_s"),
    ("vesselness.vesselness_multiscale.self_s", "vesselness.vesselness_multiscale", "self_s"),
    ("vesselness.hessian_at_scale.calls", "vesselness.hessian_at_scale", "calls"),
    ("vesselness.vesselness_multiscale.peak_mb", "vesselness.vesselness_multiscale", "peak_mb"),
    ("skeleton.SoftSkeletonTape.forward.self_s", "skeleton.SoftSkeletonTape.forward", "self_s"),
    ("skeleton.SoftSkeletonTape.backward.self_s", "skeleton.SoftSkeletonTape.backward", "self_s"),
    ("skeleton.SoftSkeletonTape.peak_mb", "skeleton.SoftSkeletonTape.forward", "peak_mb"),
    ("skeleton.soft_skeleton_array.self_s", "skeleton.soft_skeleton_array", "self_s"),
    ("skeleton.hard_skeleton.calls", "skeleton.hard_skeleton", "calls"),
    ("skeleton.reconnect.self_s", "skeleton.reconnect", "self_s"),
    ("skeleton.reconnect.segments", "skeleton.reconnect", "segments"),
    ("skeleton.reconnect.peak_mb", "skeleton.reconnect", "peak_mb"),
    ("losses.loss_spatial_array.self_s", "losses.loss_spatial_array", "self_s"),
    ("losses.loss_spatial_array.pairs", "losses.loss_spatial_array", "pairs"),
    ("losses.loss_con.self_s", "losses.loss_con", "self_s"),
    ("losses.loss_con_array.self_s", "losses.loss_con_array", "self_s"),
    ("losses.loss_r_sup.self_s", "losses.loss_r_sup", "self_s"),
    ("losses.loss_r_sup_array.self_s", "losses.loss_r_sup_array", "self_s"),
    ("losses.loss_mix.self_s", "losses.loss_mix", "self_s"),
    ("losses.loss_mix_array.self_s", "losses.loss_mix_array", "self_s"),
    ("metrics.tree_metrics.self_s", "metrics.tree_metrics", "self_s"),
    ("metrics.surface_distances.self_s", "metrics.surface_distances", "self_s"),
    ("metrics.cldice.self_s", "metrics.cldice", "self_s"),
    ("metrics.surface_voxels.calls", "metrics.surface_voxels", "calls"),
    ("volume.load_tvol.self_s", "volume.load_tvol", "self_s"),
    ("volume.save_tvol.self_s", "volume.save_tvol", "self_s"),
    ("cli.vesselness.s", "cli.vesselness", "total_s"),
    ("cli.loss.s", "cli.loss", "total_s"),
    ("cli.skeleton.s", "cli.skeleton", "total_s"),
    ("cli.reconnect.s", "cli.reconnect", "total_s"),
    ("cli.metrics.s", "cli.metrics", "total_s"),
]


class SetupError(RuntimeError):
    pass


def _import_program():
    """Import tubekit from ./src and nowhere else."""
    sys.path.insert(0, SRC)
    import tubekit.cli
    if not os.path.abspath(tubekit.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"tubekit imported from {tubekit.cli.__file__}, not {SRC}")
    return tubekit.cli.main


def _git_commit():
    """Commit of the checkout read from .git, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _caches():
    """L2/L3 sizes of cpu0, read from sysfs."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def metadata(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "caches": _caches(),
            "TUBEKIT_THREADS": os.environ.get("TUBEKIT_THREADS"),
            "commit": _git_commit()}


class Bench:
    """One run of one workload: inputs, cases, checks and counts."""

    def __init__(self, workload, seed, work, tubekit_main, expected):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.main = tubekit_main
        self.digests = dict(expected)  # key -> sha256, recorded or first seen
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.inputs = []
        self.traced = []  # (case time, span aggregate, input props)
        self.spans = []   # every traced span, as written to the spans file

    def _call(self, argv):
        self.attempted += 1
        try:
            return self.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            return -1

    def _setup_cli(self, argv):
        rc = self._call(argv)
        if rc != 0:
            self.failed += 1
            raise SetupError(f"set-up command {argv[0]} exited with {rc}")

    def _digest_ok(self, key, path):
        digest = sha256(path)
        want = self.digests.setdefault(key, digest)
        if want != digest:
            self.problems.append(f"{key}: sha256 {digest[:12]} != {want[:12]}")
        return want == digest

    def _prepare(self, key, kind, pseed, size):
        d = os.path.join(self.work, key)
        os.makedirs(d, exist_ok=True)
        inp = self.wl.prepare(self._setup_cli, d, kind, pseed, size)
        for name, cmd in (("image", "phantom"), ("pred", "vesselness"),
                          ("resp", "vesselness")):
            if name in inp and not self._digest_ok(f"{key}/input/{name}", inp[name]):
                self.failed += 1
                self.problems.append(f"{key}: set-up {cmd} output changed")
        return inp

    def setup(self):
        """Generate the inputs and run the warm-up case; returns seconds."""
        t0 = time.perf_counter()
        self.inputs = [self._prepare(str(i), kind, pseed, self.wl.size)
                       for i, (kind, pseed) in enumerate(input_plan(self.seed))]
        warm = self._prepare("warmup", WARMUP_KIND, WARMUP_SEED, WARMUP_SIZE)
        self.run_case(warm, "warmup", "warmup")
        return time.perf_counter() - t0

    def run_case(self, inp, key, tag, traced=False):
        """Run one case's commands; returns their wall seconds."""
        steps = self.wl.case(inp, os.path.join(self.work, tag + "-"))
        outputs = {name: path for _, _, outs in steps for name, path in outs.items()}
        failed = set()
        tracer = patched = None
        if traced:
            tracer = Tracer()
            tracer.case = tag
            tracemalloc.start()
            patched = tracer.install()
        try:
            t0 = time.perf_counter()
            for cmd, argv, _ in steps:
                span = tracer.enter(f"cli.{cmd}") if traced else None
                rc = self._call(argv)
                if traced:
                    tracer.exit(span)
                if rc != 0:
                    failed.add(cmd)
                    self.problems.append(f"{tag}: {cmd} exited with {rc}")
                    break
            dt = time.perf_counter() - t0
        finally:
            if traced:
                Tracer.uninstall(patched)
                tracemalloc.stop()
        if not failed:
            try:
                for cmd, problem in self.wl.check(inp, outputs):
                    failed.add(cmd)
                    self.problems.append(f"{tag}: {cmd}: {problem}")
                for cmd, _, outs in steps:
                    for name, path in outs.items():
                        if not self._digest_ok(f"{key}/{name}", path):
                            failed.add(cmd)
            except Exception as exc:  # unreadable output fails every command
                failed.update(cmd for cmd, _, _ in steps)
                self.problems.append(f"{tag}: check raised {exc!r}")
        self.failed += len(failed)
        for path in outputs.values():
            for p in (path, path + ".tmp"):
                if os.path.exists(p):
                    os.remove(p)
        if traced:
            self.traced.append((dt, aggregate(tracer.spans), inp["props"]))
            self.spans += [s.to_dict(i) for i, s in enumerate(tracer.spans)]
        return dt

    def timed_cycles(self, seconds):
        """Run whole cycles over the inputs, at least the workload's
        ``min_cycles``, until ``seconds`` have passed, so every run times
        each input equally often."""
        times = []
        t0 = time.perf_counter()
        while (len(times) < self.wl.min_cycles * len(self.inputs)
               or time.perf_counter() - t0 < seconds):
            for i, inp in enumerate(self.inputs):
                times.append(self.run_case(inp, str(i), f"c{len(times)}"))
        return times

    def traced_pairs(self, seconds):
        """Run each case untraced and then traced on the same input until
        ``seconds`` have passed; one untimed case first absorbs first-touch
        costs that would otherwise land on the first untraced case."""
        self.run_case(self.inputs[0], "0", "warm")
        untraced, traced = [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            i = len(traced) % len(self.inputs)
            untraced.append(self.run_case(self.inputs[i], str(i), f"c{len(traced)}"))
            traced.append(self.run_case(self.inputs[i], str(i), f"c{len(traced)}t",
                                        traced=True))
        return untraced, traced


def layer_metrics(bench, untraced, traced):
    """Per-layer metrics: medians over traced cases."""
    per_case = []
    for dt, agg, props in bench.traced:
        row = {}
        for metric, span, field in SPAN_METRICS:
            a = agg.get(span)
            row[metric] = 0.0 if a is None else float(
                a[field] if field in a else a["counters"].get(field, 0))
        tvol_bytes = sum(agg.get(s, {}).get("counters", {}).get("bytes", 0)
                         for s in ("volume.load_tvol", "volume.save_tvol"))
        row["volume.tvol_mb"] = tvol_bytes / (1024.0 * 1024.0)
        row["skeleton.erosion_useful_frac"] = (
            props["erosions_useful"] / props["erosions_run"] if props["erosions_run"] else 0.0)
        row["input.fg_voxels"] = float(props["fg_voxels"])
        covered = sum(a["self_s"] for name, a in agg.items() if not name.startswith("cli."))
        row["trace.span_coverage_frac"] = covered / dt
        per_case.append(row)
    out = {name: median(r[name] for r in per_case) for name in per_case[0]}
    out["trace.case_s_p50"] = median(traced)
    out["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
    return out


E2E_UNITS = {"case_s_p50": "s", "mvox_per_s": "Mvox/s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def _units(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith((".calls", ".segments", ".pairs")) or name == "input.fg_voxels":
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def top_spans(bench):
    """Span names by median self seconds per traced case, largest first."""
    names = {n for _, agg, _ in bench.traced for n in agg}
    med = {n: median(agg[n]["self_s"] if n in agg else 0.0 for _, agg, _ in bench.traced)
           for n in names}
    return sorted(((round(v, 4), n) for n, v in med.items()), reverse=True)[:8]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        tubekit_main = _import_program()
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import tubekit from {SRC}: {exc}\n")
        return 2
    import_s = time.perf_counter() - T0

    wl = WORKLOADS[args.workload]
    with open(DIGESTS) as fh:
        recorded = json.load(fh).get(wl.name, {})
    expected = {f"warmup/{k}": v for k, v in recorded.get("warmup", {}).items()}
    expected.update(recorded.get("seeds", {}).get(str(args.seed), {}))

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    bench = Bench(wl, args.seed, work, tubekit_main, expected)
    detail = {"meta": metadata(args), "digests_recorded": len(expected)}
    try:
        if args.trace:
            bench.setup()
            untraced, traced = bench.traced_pairs(args.seconds)
            metrics = layer_metrics(bench, untraced, traced)
            detail.update(untraced_s=untraced, traced_s=traced, top_spans=top_spans(bench))
            spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.jsonl")
            with open(spans_path, "w") as fh:
                for s in bench.spans:
                    fh.write(json.dumps(s) + "\n")
            detail["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            setups = [bench.setup()]
            rss_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            times = bench.timed_cycles(args.seconds)
            setups += [bench.setup() for _ in range(SETUP_REPEATS - 1)]
            voxels = wl.size ** 3 * len(times)
            metrics = {
                "case_s_p50": median(times),
                "mvox_per_s": voxels / sum(times) / 1e6,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": import_s + median(setups),
            }
            detail.update(import_s=import_s, setup_repeats_s=setups, case_s=times,
                          cases=len(times), rss_after_setup_mb=rss_setup_mb)
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n" + "\n".join(bench.problems) + "\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(attempted=bench.attempted, failed=bench.failed,
                  failed_frac=bench.failed / bench.attempted, problems=bench.problems[:20])
    print(json.dumps(detail))
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": _units(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
