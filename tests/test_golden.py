"""Golden artifacts: the sha256 of every file a fixed CLI script writes.

The script runs in-process through ``tubekit.cli.main`` on the four phantom
kinds at 33x30x28 with anisotropic spacing and noise, and covers every
command: vesselness bright and dark, skeleton of a mask and of a volume,
reconnect with its report, loss with the defaults and with non-default
--beta, --radius and an explicit --roi, metrics, fusion-demo and gradcheck.
Those inputs are too small to split into slabs, so the script also makes
the bifurcation and helix phantoms at 64x64x40 (three z-slabs), runs
skeleton, reconnect with its report and metrics against the label on
both, and the helix's bright and dark vesselness (three slabs, of 25, 25
and 14 planes, at any worker count; the oracle tests in
test_vesselness_oracle.py cover other splits).  The bifurcation label is
its own hard skeleton, so its reconnect draws no segment; the helix's
draws 114.  It runs at one, two and four workers, each through
``pool.at_workers`` (a host that appears to have that many cores, and a
check that ``thread_count()`` is that many), and every run must give the
hashes in ``golden.json``.  A change that moves a bit of any artifact
fails here; one that means to change the numerics re-records the file
and says by how much.  numpy's float loops dispatch on CPU features, so
one more run, at one worker in a subprocess, turns off every dispatch
target above numpy's baseline (``NPY_DISABLE_CPU_FEATURES``) and must
give the same hashes; it skips where numpy dispatches to none.

Record the hashes with ``PYTHONPATH=src python tests/test_golden.py``; it
prints each key whose hash changed, was added or was dropped against the
file it replaces.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pool import at_workers
from tubekit import Mask3, load_tvol, save_tvol
from tubekit.cli import main
from tubekit.volume import PHANTOM_KINDS

GOLDEN = Path(__file__).with_name("golden.json")
TESTS = Path(__file__).resolve().parent
DIMS, SPACING = "33,30,28", "0.5,0.75,1.25"


def _run(*argv):
    code = main([str(a) for a in argv])
    if code != 0:
        raise AssertionError(f"tubekit {' '.join(map(str, argv))} exited {code}")


def artifacts(out: Path) -> dict:
    """Run the script into the directory ``out``; the sha256 of each file."""
    for i, kind in enumerate(sorted(PHANTOM_KINDS)):
        img, lab = out / f"{kind}-img.tvol", out / f"{kind}-lab.tvol"
        _run("phantom", "--kind", kind, "--dims", DIMS, "--spacing", SPACING,
             "--radius-mm", 1.5, "--noise-sigma", 0.2, "--seed", 11 + i,
             "--out-image", img, "--out-label", lab)
        for polarity in ("bright", "dark"):
            _run("vesselness", "--in", img, "--polarity", polarity,
                 "--out", out / f"{kind}-vess-{polarity}.tvol")
        pred = out / f"{kind}-vess-bright.tvol"
        _run("skeleton", "--in", lab, "--iters", 6, "--out", out / f"{kind}-skel.tvol")
        _run("skeleton", "--in", pred, "--iters", 6, "--out", out / f"{kind}-soft.tvol")
        _run("reconnect", "--in", out / f"{kind}-skel.tvol", "--out", out / f"{kind}-rec.tvol",
             "--report", out / f"{kind}-rec.json")
        loss = ("loss", "--pred", pred, "--label", lab, "--image", img)
        _run(*loss, "--json", out / f"{kind}-loss.json")
        if kind == "helix":
            _run(*loss, "--beta", 0.7, "--radius", 1, "--roi", "3,2,1,30,27,26",
                 "--json", out / f"{kind}-loss-options.json")
        resp = load_tvol(pred)
        mask = out / f"{kind}-mask.tvol"
        save_tvol(Mask3(resp.dims, (resp.data > 0.5).astype(np.uint8), resp.spacing), mask)
        _run("metrics", "--pred", mask, "--gt", lab, "--json", out / f"{kind}-metrics.json")
    for kind in ("bifurcation", "helix"):
        img, lab = out / f"{kind}-slabs-img.tvol", out / f"{kind}-slabs-lab.tvol"
        skel, rec = out / f"{kind}-slabs-skel.tvol", out / f"{kind}-slabs-rec.tvol"
        _run("phantom", "--kind", kind, "--dims", "64,64,40", "--noise-sigma", 0.3,
             "--seed", 5, "--out-image", img, "--out-label", lab)
        _run("skeleton", "--in", lab, "--out", skel)
        _run("reconnect", "--in", skel, "--out", rec, "--report", out / f"{kind}-slabs-rec.json")
        _run("metrics", "--pred", rec, "--gt", lab, "--json", out / f"{kind}-slabs-metrics.json")
    for polarity in ("bright", "dark"):
        _run("vesselness", "--in", out / "helix-slabs-img.tvol", "--polarity", polarity,
             "--out", out / f"helix-slabs-vess-{polarity}.tvol")
    _run("fusion-demo", "--json", out / "fusion.json")
    _run("gradcheck", "--json", out / "gradcheck.json")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_artifacts_match_golden_at_one_two_and_four_workers(tmp_path):
    want = json.loads(GOLDEN.read_text())
    for n in (1, 2, 4):
        (tmp_path / str(n)).mkdir()
        with at_workers(n):
            assert artifacts(tmp_path / str(n)) == want, n


def dispatch_above_baseline() -> list:
    """The SIMD targets above its baseline that numpy dispatches to here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


_BASELINE_RUN = """
import json, sys
from pathlib import Path
from pool import at_workers
from test_golden import artifacts, dispatch_above_baseline
with at_workers(1):
    hashes = artifacts(Path(sys.argv[1]))
print(json.dumps([dispatch_above_baseline(), hashes]))
"""


def test_artifacts_match_golden_with_only_the_baseline_simd(tmp_path):
    # numpy's exp, log, cos, sin, arccos and arctan2 loops dispatch on CPU
    # features: one run at one worker with every target above numpy's
    # baseline disabled must give the same hashes.
    targets = dispatch_above_baseline()
    if not targets:
        pytest.skip("numpy dispatches to no target above its baseline here")
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), str(TESTS),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets), PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", _BASELINE_RUN, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    still_dispatched, hashes = json.loads(run.stdout.splitlines()[-1])
    assert still_dispatched == []
    assert hashes == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        with at_workers(1):
            got = artifacts(Path(tmp))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for key in sorted(old.keys() | got.keys()):
        if old.get(key) != got.get(key):
            change = "added" if key not in old else "dropped" if key not in got else "changed"
            sys.stdout.write(f"{change} {key}: {old.get(key, '-')} -> {got.get(key, '-')}\n")
    GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"{len(got)} artifacts recorded in {GOLDEN}\n")
