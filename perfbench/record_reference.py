"""Record the reference end states that run.py checks jobs against.

Usage (from the repository root):

    python3 perfbench/record_reference.py [--seeds 0-15]

Runs one untraced job per workload and seed and writes its end-state summary
(L2 norms of phi, theta and u plus E_total, or the sweep's distance columns)
to perfbench/reference.json, merging with what is there. Record from the
commit whose results the benchmark should hold later commits to; a job that
fails its own checks is not recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import HERE, ROOT, WORKLOADS, run_one


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    path = os.path.join(HERE, "reference.json")
    try:
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    workdir = os.path.join(ROOT, ".perfbench_work", "reference")
    os.makedirs(workdir, exist_ok=True)
    for workload in WORKLOADS:
        for seed in seeds:
            job = run_one(workload, seed, False, False, workdir, 0, timeout=170.0)
            if job["errors"]:
                print(f"{workload} seed {seed}: not recorded: {job['errors']}", file=sys.stderr)
                continue
            table.setdefault(workload, {})[str(seed)] = job["summary"]
            print(f"{workload} seed {seed}: {job['summary']}", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
