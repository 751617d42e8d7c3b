"""The three workloads: seeded input generation, one case's CLI command
sequence, and the checks on its outputs.

Outputs are read back with the small .tvol reader below, not with
tubekit's own loader, so a defect in the program cannot vouch for its
own output.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np
from scipy import ndimage

KINDS = ("cylinder", "gapped_cylinder", "bifurcation", "helix")
SKEL_ITERS = 10       # the CLI default of skeleton --iters and loss --skel-iters
MASK_THRESHOLD = 0.5  # evaluate: mask = response > 0.5
WARMUP_SIZE = 32
WARMUP_KIND = "bifurcation"
WARMUP_SEED = 9001
_STRUCT_26 = np.ones((3, 3, 3), dtype=bool)

_HEAD = struct.Struct("<5sB3I3f")


def read_tvol(path):
    """(array in x,y,z order, is_mask) of a .tvol file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, code, nx, ny, nz, *_ = _HEAD.unpack_from(raw)
    if magic != b"TVOL1" or code not in (0, 1):
        raise ValueError(f"{path}: not a .tvol file")
    dtype = np.dtype("<f4") if code == 0 else np.dtype(np.uint8)
    data = np.frombuffer(raw, dtype=dtype, offset=_HEAD.size)
    if data.size != nx * ny * nz:
        raise ValueError(f"{path}: payload holds {data.size} of {nx * ny * nz} voxels")
    return data.reshape((nx, ny, nz), order="F"), code == 1


def write_mask(path, mask):
    """Write a {0,1} mask as a .tvol file with 1 mm spacing."""
    head = _HEAD.pack(b"TVOL1", 1, *mask.shape, 1.0, 1.0, 1.0)
    with open(path, "wb") as fh:
        fh.write(head + mask.astype(np.uint8).ravel(order="F").tobytes())


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def useful_erosions(field, k=SKEL_ITERS):
    """How many of the skeleton recurrence's k erosions act on a
    non-empty image; the rest erode an all-zero image."""
    img = np.asarray(field, dtype=np.float64)
    useful = 0
    while useful < k and img.any():
        useful += 1
        img = ndimage.minimum_filter(img, size=3, mode="constant", cval=0.0)
    return useful


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Workload:
    """One workload: ``size``-cubed phantoms of ``noise`` sigma.

    ``prepare`` makes one input through the CLI and returns its paths and
    input properties; ``case`` lists the timed commands as
    (command, argv, outputs); ``check`` returns (command, problem) pairs.
    """

    name = ""
    size = 0
    noise = 0.0
    min_cycles = 1

    def phantom(self, cli, d, kind, seed, size):
        image, label = os.path.join(d, "image.tvol"), os.path.join(d, "label.tvol")
        cli(["phantom", "--kind", kind, "--dims", f"{size},{size},{size}",
             "--noise-sigma", str(self.noise), "--gap", str(size // 16),
             "--seed", str(seed), "--out-image", image, "--out-label", label])
        return {"image": image, "label": label}

    def prepare(self, cli, d, kind, seed, size):
        raise NotImplementedError

    def case(self, inp, out):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError


class Filter(Workload):
    """vesselness on noisy 128^3 images: only the vesselness layer works."""

    name = "filter"
    size = 128
    noise = 0.3

    def prepare(self, cli, d, kind, seed, size):
        inp = self.phantom(cli, d, kind, seed, size)
        label, _ = read_tvol(inp["label"])
        inp["props"] = {"fg_voxels": int(label.sum()), "erosions_useful": 0,
                        "erosions_run": 0}
        return inp

    def case(self, inp, out):
        resp = out + "resp.tvol"
        return [("vesselness", ["vesselness", "--in", inp["image"], "--out", resp],
                 {"resp": resp})]

    def check(self, inp, out):
        resp, is_mask = read_tvol(out["resp"])
        image, _ = read_tvol(inp["image"])
        if (is_mask or resp.shape != image.shape or not np.isfinite(resp).all()
                or resp.min() < 0.0 or resp.max() > 1.0 or not resp.max() > 0.0):
            return [("vesselness", "response not finite, not in [0,1] or all zero")]
        return []


class Train(Workload):
    """loss on 64^3 predictions: one full four-term evaluation with its
    gradients, the cost of one training step."""

    name = "train"
    size = 64
    noise = 0.1

    def prepare(self, cli, d, kind, seed, size):
        inp = self.phantom(cli, d, kind, seed, size)
        inp["pred"] = os.path.join(d, "pred.tvol")
        cli(["vesselness", "--in", inp["image"], "--out", inp["pred"]])
        label, _ = read_tvol(inp["label"])
        pred, _ = read_tvol(inp["pred"])
        inp["props"] = {"fg_voxels": int(label.sum()),
                        "erosions_useful": useful_erosions(pred),
                        "erosions_run": SKEL_ITERS}
        return inp

    def case(self, inp, out):
        report = out + "loss.json"
        return [("loss", ["loss", "--pred", inp["pred"], "--label", inp["label"],
                          "--image", inp["image"], "--json", report],
                 {"loss": report})]

    def check(self, inp, out):
        with open(out["loss"]) as fh:
            r = json.load(fh)
        g = r["grad_norms"]
        terms = (r["r_sup"], r["con"], r["spatial"], r["mix"], r["lambda"], r["beta"])
        ok = (_finite(*terms, r["total"], *g.values()) and len(g) == 4
              and min(g.values()) >= 0.0 and r["spatial_pairs"] > 0)
        if ok:
            total = r["r_sup"] + r["con"] + r["lambda"] * (r["spatial"] + r["mix"])
            ok = abs(total - r["total"]) <= 1e-6 * max(1.0, abs(total))
        return [] if ok else [("loss", "loss values or gradient norms invalid")]


class Evaluate(Workload):
    """skeleton -> reconnect -> metrics on 64^3 masks thresholded from
    noisy responses: thousands of skeleton fragments per case."""

    name = "evaluate"
    size = 64
    noise = 0.3
    # Its case times swing about twice as widely as filter's on a shared
    # 2-core host, so a run times eight cases instead of four.
    min_cycles = 2

    def prepare(self, cli, d, kind, seed, size):
        inp = self.phantom(cli, d, kind, seed, size)
        inp["resp"] = os.path.join(d, "resp.tvol")
        cli(["vesselness", "--in", inp["image"], "--out", inp["resp"]])
        resp, _ = read_tvol(inp["resp"])
        label, _ = read_tvol(inp["label"])
        mask = resp > MASK_THRESHOLD
        inp["mask"] = os.path.join(d, "mask.tvol")
        write_mask(inp["mask"], mask)
        # hard_skeleton runs twice on the mask (skeleton, cldice) and twice
        # on the label (cldice, tree_metrics).
        inp["props"] = {"fg_voxels": int(mask.sum()),
                        "erosions_useful": 2 * (useful_erosions(mask)
                                                + useful_erosions(label)),
                        "erosions_run": 4 * SKEL_ITERS}
        return inp

    def case(self, inp, out):
        skel, rec = out + "skel.tvol", out + "rec.tvol"
        seg, met = out + "segments.json", out + "metrics.json"
        return [
            ("skeleton", ["skeleton", "--in", inp["mask"], "--out", skel], {"skel": skel}),
            ("reconnect", ["reconnect", "--in", skel, "--out", rec, "--report", seg],
             {"rec": rec, "segments": seg}),
            ("metrics", ["metrics", "--pred", inp["mask"], "--gt", inp["label"],
                         "--json", met], {"metrics": met}),
        ]

    def check(self, inp, out):
        bad = []
        mask, _ = read_tvol(inp["mask"])
        label, _ = read_tvol(inp["label"])
        skel, skel_is_mask = read_tvol(out["skel"])
        if not skel_is_mask or skel.shape != mask.shape or (skel > mask).any():
            bad.append(("skeleton", "hard skeleton is not a subset of the mask"))
        rec, _ = read_tvol(out["rec"])
        with open(out["segments"]) as fh:
            seg = json.load(fh)
        _, n_comp = ndimage.label(rec, structure=_STRUCT_26)
        if ((skel > rec).any() or n_comp != 1
                or seg["segment_count"] != len(seg["segments"])
                or seg["input_voxels"] != int(skel.sum())
                or seg["output_voxels"] != int(rec.sum())):
            bad.append(("reconnect", "output does not contain its input as one "
                                     "26-component, or the report disagrees"))
        with open(out["metrics"]) as fh:
            m = json.load(fh)
        scores = [m[k] for k in ("dice", "cldice", "f1", "precision", "recall", "bd", "tld")]
        dists = [m[k] for k in ("hd", "assd", "ahd")]
        if (not _finite(*scores, *dists) or min(scores) < 0.0 or max(scores) > 100.0
                or min(dists) < 0.0 or m["pred_voxels"] != int(mask.sum())
                or m["gt_voxels"] != int(label.sum())):
            bad.append(("metrics", "scores outside [0,100] or counts disagree"))
        return bad


WORKLOADS = {w.name: w for w in (Filter(), Train(), Evaluate())}


def input_plan(seed):
    """(kind, phantom seed) of each input of a run: every kind once, in
    an order rotated by the workload seed."""
    return [(KINDS[(seed + i) % len(KINDS)], seed * len(KINDS) + i)
            for i in range(len(KINDS))]
