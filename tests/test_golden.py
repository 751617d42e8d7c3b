"""Golden artifacts: the sha256 of every file a fixed CLI script writes.

The script runs in-process through ``tubekit.cli.main`` on the four phantom
kinds at 33x30x28 with anisotropic spacing and noise, and covers every
command: vesselness bright and dark, skeleton of a mask and of a volume,
reconnect with its report, loss with the defaults and with non-default
--beta, --radius and an explicit --roi, metrics, fusion-demo and gradcheck.
Those inputs are too small to split into slabs, so the script also makes
the helix phantom at 64x64x40 (three z-slabs) and its bright vesselness
(three slabs at one worker, six at two).
It runs at one and at two workers, and both must give the hashes in
``golden.json``.  A change that moves a bit of any artifact fails here; one
that means to change the numerics re-records the file and says by how much.

Record the hashes with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from tubekit import Mask3, load_tvol, save_tvol, workers
from tubekit.cli import main
from tubekit.volume import PHANTOM_KINDS

GOLDEN = Path(__file__).with_name("golden.json")
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
    img = out / "helix-slabs-img.tvol"
    _run("phantom", "--kind", "helix", "--dims", "64,64,40", "--noise-sigma", 0.3,
         "--seed", 5, "--out-image", img, "--out-label", out / "helix-slabs-lab.tvol")
    _run("vesselness", "--in", img, "--polarity", "bright",
         "--out", out / "helix-slabs-vess-bright.tvol")
    _run("fusion-demo", "--json", out / "fusion.json")
    _run("gradcheck", "--json", out / "gradcheck.json")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _artifacts_at(n: int, out: Path) -> dict:
    """The script at TUBEKIT_THREADS=n on a host that appears to have two cores."""
    with mock.patch.dict(os.environ, {"TUBEKIT_THREADS": str(n)}), \
            mock.patch.object(workers, "_available_cores", return_value=2):
        return artifacts(out)


def test_artifacts_match_golden_at_one_and_two_workers(tmp_path):
    want = json.loads(GOLDEN.read_text())
    for n in (1, 2):
        (tmp_path / str(n)).mkdir()
        assert _artifacts_at(n, tmp_path / str(n)) == want, n


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = _artifacts_at(1, Path(tmp))
    GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"{len(got)} artifacts recorded in {GOLDEN}\n")
