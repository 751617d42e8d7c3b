#!/usr/bin/env python3
"""Record the sha256 of every set-up and case output into digests.json.

    python3 perfbench/record_digests.py [--workloads filter,train,evaluate]
                                        [--seeds 0-9]

Runs set-up once and each input's case once per seed, untraced, with no
expected digests.  run.py then holds every later run of a recorded seed
(and every warm-up case, whose input does not depend on the seed) to
these bytes.  Re-record only for a change that is meant to alter the
outputs, and say so where the change is described.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload, seed, tubekit_main):
    os.makedirs(run.OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"record-{workload.name}-", dir=run.OUT_DIR)
    try:
        bench = run.Bench(workload, seed, work, tubekit_main, {})
        bench.setup()
        for i, inp in enumerate(bench.inputs):
            bench.run_case(inp, str(i), f"c{i}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bench.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {bench.problems}")
    return bench.digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    args = parser.parse_args()
    tubekit_main = run._import_program()
    try:
        with open(run.DIGESTS) as fh:
            book = json.load(fh)
    except FileNotFoundError:
        book = {}
    for name in args.workloads.split(","):
        entry = book.setdefault(name, {"warmup": {}, "seeds": {}})
        for seed in args.seeds:
            digests = record(WORKLOADS[name], seed, tubekit_main)
            entry["warmup"] = {k[len("warmup/"):]: v for k, v in digests.items()
                               if k.startswith("warmup/")}
            entry["seeds"][str(seed)] = {k: v for k, v in sorted(digests.items())
                                         if not k.startswith("warmup/")}
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
        with open(run.DIGESTS, "w") as fh:
            json.dump(book, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
