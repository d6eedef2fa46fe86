"""A/B benchmark of a base revision against this working tree, in alternating rounds.

    python3 scripts/ab.py --base REV --workload W --pairs N [--seconds S] [--seed K]
                          [--control] [--tag T]

S defaults to BENCHMARK.json's `run_seconds` and K to 0.

Exports REV, and the working tree as a `git stash create` commit (HEAD when
the tree is clean), each with `git archive` into its own temporary directory,
so both sides run from the same kind of directory. Files that git does not
track are not exported: `git add` them first. With `--control`, REV is
exported a second time, so the file also shows the parent-against-parent
spread of the same rounds.

Round i runs `perfbench/run.py --workload W --seed s --seconds S --trace 0`
in each export, one after another, and the side that runs first rotates from
round to round. Round i takes the i-th of perfbench/reference.json's seeds
for W from K up, and starts again at K when they run out, so that every run
is checked against its reference end state.

After the rounds, each of the parent and change exports runs
`perfbench/run.py --workload W --seed s --seconds 0 --trace 1` once, with the
first round's seed: its traced jobs give the call counts and per-layer medians
that the untraced rounds do not record.

Writes BENCH_<T>_ab_<W>.json at the repository root (T defaults to the
change's short commit hash). Per gated metric of BENCHMARK.json it holds each
side's median and quartiles, the parent's IQR, `change_relative` (the change
median over the parent median, minus 1), and `change_lower_in` of
`change_pairs` (the rounds in which both sides ran and the change read
lower); the same for the control; and `gain_met`: the change read lower in
at least 9 of every 10 of at least 10 pairs, and its median lies below the
parent's by more than the parent's IQR. `verdict` applies the metric's
`bound` and `better` from BENCHMARK.json: `worse` when the change median is
worse than the parent's by more than bound x parent median; else
`unresolved` when the parent's IQR is wider than that, unless every change
run beat every parent run; else `within_bound`. Every run stays in the file; one
that failed has `correct: false`, and `failed_runs` counts them per side.
`traced` holds, per side, the traced run's `seed`, `correct`, `counts` and
`per_layer` (empty when its result file is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 400.0  # perfbench/run.py starts no job after 150 s


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """The tree of commit `rev`, written to the new directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def src_sha256(tree: str) -> str:
    """The hash perfbench/run.py records for the sources under `tree`."""
    digest = hashlib.sha256()
    src = os.path.join(tree, "src", "nlchb")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def seeds(workload: str, first: int, pairs: int) -> list[int]:
    """The seed of each round: the reference's seeds from `first` up, cycled."""
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        known = sorted(int(s) for s in json.load(fh).get(workload, {}) if int(s) >= first)
    known = known or [first]
    return [known[i % len(known)] for i in range(pairs)]


def run_side(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in `tree`: its JSON line, or a failed record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": "timeout"}
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if out.returncode != 0:
        result["correct"] = False
        result["error"] = f"exit {out.returncode}: {out.stderr.strip()[-400:]}"
    return result


def run_traced(tree: str, workload: str, seed: int) -> dict:
    """One traced perfbench run in `tree` with no time budget: its call counts
    and per-layer medians, read from the result file the run writes."""
    result = run_side(tree, workload, seed, 0.0, trace=1)
    path = os.path.join(tree, ".perfbench_work", workload, "result.json")
    try:
        with open(path, encoding="utf-8") as fh:
            full = json.load(fh)
    except (OSError, ValueError):
        full = {}
    traced = {"seed": seed, "correct": result["correct"], "counts": full.get("counts", {}),
              "per_layer": full.get("per_layer", {})}
    if "error" in result:
        traced["error"] = result["error"]
    return traced


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(row: dict, parent: list[float], change: list[float], bound: float, better: str) -> str:
    """`worse`, `unresolved` or `within_bound` for one metric's summary row and
    the values of the parent's and the change's runs (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    allowed = bound * abs(row["parent_median"])
    if sign * (row["change_median"] - row["parent_median"]) > allowed:
        return "worse"
    beats_every_run = max(sign * v for v in change) < min(sign * v for v in parent)
    if row["parent_iqr"] > allowed and not beats_every_run:
        return "unresolved"
    return "within_bound"


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric of BENCHMARK.json's `end_to_end` (name, better, bound):
    medians, quartiles and pair counts of each side against the parent, from
    the runs of each side in round order (a run's `pair` is its round), and
    the verdict. Failed runs, and runs without the metric, are left out."""

    def value(run: dict, name: str) -> float | None:
        if not run.get("correct") or name not in run.get("metrics", {}):
            return None
        return run["metrics"][name]["value"]

    summary = {}
    for metric in metrics:
        name = metric["name"]
        by_pair = {side: {r["pair"]: value(r, name) for r in rs} for side, rs in runs.items()}
        vals = {side: [v for v in by_pair[side].values() if v is not None] for side in runs}
        row = {}
        for side in runs:
            if not vals[side]:
                continue
            q1, median, q3 = quartiles(vals[side])
            row.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
            if side == "parent":
                row["parent_iqr"] = q3 - q1
            elif "parent_median" in row:
                parent = by_pair["parent"]
                both = [(parent[p], v) for p, v in by_pair[side].items()
                        if v is not None and parent.get(p) is not None]
                row[f"{side}_relative"] = median / row["parent_median"] - 1.0
                row[f"{side}_lower_in"] = sum(v < base for base, v in both)
                row[f"{side}_pairs"] = len(both)
        pairs, lower = row.get("change_pairs", 0), row.get("change_lower_in", 0)
        row["gain_met"] = bool(
            pairs >= 10 and lower >= 0.9 * pairs
            and row["parent_median"] - row["change_median"] > row["parent_iqr"]
        )
        if "change_relative" in row:
            row["verdict"] = verdict(row, vals["parent"], vals["change"], metric["bound"],
                                     metric["better"])
        summary[name] = row
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="length of each run (default: BENCHMARK.json's)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the first round")
    ap.add_argument("--control", action="store_true", help="also run a second export of REV")
    ap.add_argument("--tag", help="the file's tag (default: the change's short hash)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    base = git("rev-parse", "--verify", args.base + "^{commit}")
    stash = git("stash", "create")
    change = stash or git("rev-parse", "HEAD")
    sides = ["parent", "change"] + (["control"] if args.control else [])
    revs = {"parent": base, "change": change, "control": base}
    round_seeds = seeds(args.workload, args.seed, args.pairs)

    runs: dict[str, list[dict]] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory(prefix="nlchb-ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in sides}
        for side in sides:
            export(revs[side], trees[side])
        for i, seed in enumerate(round_seeds):
            order = sides[i % len(sides):] + sides[:i % len(sides)]
            for side in order:
                result = run_side(trees[side], args.workload, seed, args.seconds)
                result.update(pair=i, first=order[0], seed=seed)
                runs[side].append(result)
                shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
                print(f"round {i} seed {seed} {side}: correct {result['correct']} {shown}",
                      flush=True)
        traced = {side: run_traced(trees[side], args.workload, round_seeds[0])
                  for side in ("parent", "change")}
        hashes = {side: src_sha256(trees[side]) for side in ("parent", "change")}

    record = {
        "workload": args.workload,
        "kind": "interleaved rounds of parent, change" + (" and control (a second export of "
                "the parent)" if args.control else "") + "; the first side rotates by round; "
                f"perfbench/run.py --seconds {args.seconds:g} --trace 0, each side a git "
                "archive export",
        "seconds": args.seconds,
        "seeds": round_seeds,
        "parent_commit": base,
        "change_commit": change,
        "dirty": bool(stash),
        "parent_src_sha256": hashes["parent"],
        "change_src_sha256": hashes["change"],
        "failed_runs": {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()},
        "summary": summarize(runs, benchmark["end_to_end"]),
        "runs": runs,
        "traced": traced,
    }
    tag = args.tag or change[:10]
    path = os.path.join(ROOT, f"BENCH_{tag}_ab_{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, row in record["summary"].items():
        print(f"{name:<12} parent {row.get('parent_median', float('nan')):.6g}  "
              f"change {row.get('change_median', float('nan')):.6g}  "
              f"lower in {row.get('change_lower_in', 0)}/{row.get('change_pairs', 0)}  "
              f"gain_met {row['gain_met']}  verdict {row.get('verdict', 'none')}")
    for side, run in traced.items():
        print(f"traced {side}: correct {run['correct']} counts {run['counts']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
