"""nlchb benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: convection-256, spinodal-64, sweep-eps-64 (see README.md). Each job
is one closed-loop batch run of the workload in a fresh child process, one at
a time, single-threaded. Jobs start until `--seconds` is used up (at least
three, with at least 200 timed steps). With `--trace 0` every job is untraced and the end-to-end metrics are
reported; with `--trace 1` traced jobs alternate with untraced ones and the
per-layer metrics are reported, with the tracing overhead and a check that
the call counts repeat exactly.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A table with every metric, the environment and the failures comes before it.
The full result is also written to .perfbench_work/<workload>/result.json.

Extra options: --tiny (small grids, for the self-test) and --reference FILE
(reference end states to check against, default perfbench/reference.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("convection-256", "spinodal-64", "sweep-eps-64")
REQUIRED = ("src/nlchb/__init__.py", "configs/convection.cfg", "configs/spinodal.cfg")

MIN_JOBS = 3
MIN_STEPS = 200  # timed steps for step_ms_p95, so that 10 lie beyond it
MAX_JOBS = 200
RUN_LIMIT_S = 150.0  # no job starts after this, so a run ends well within 180 s
REF_RTOL = 1e-12  # ROADMAP aim 1: end state within 1e-12 relative

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("step_ms_p50", "ms"),
              ("step_ms_p95", "ms"), ("peak_rss_mb", "MB")]
# The end-to-end metrics of the JSON line (and of BENCHMARK.json). step_ms_p50 is
# printed but not gated: where the host's speed switches between two levels,
# the median step lands on either one (README.md, "Run-to-run spread").
GATED = ("wall_s", "setup_s", "step_ms_p95", "peak_rss_mb")
PER_LAYER = [
    ("kernel.sample_kernel.s", "s"), ("kernel.calibrate_mollifier.s", "s"),
    ("kernel.compute_a.s", "s"), ("kernel.kernel_value.calls", "count"),
    ("kernel.kernel_value.points", "count"), ("kernel.convolve.per_step", "1/step"),
    ("kernel.convolve.ms", "ms"),
    ("grid.helmholtz_solve.per_step", "1/step"), ("grid.laplacian_neumann.per_step", "1/step"),
    ("grid.laplacian_eigenvalues.per_step", "1/step"),
    ("fft.rfft2.per_step", "1/step"), ("fft.irfft2.per_step", "1/step"),
    ("fft.dctn.per_step", "1/step"), ("fft.idctn.per_step", "1/step"),
    ("fft.dst.per_step", "1/step"), ("fft.idst.per_step", "1/step"),
    ("fft.mb_moved_per_step", "MB/step"),
    ("solver.step_ch.ms", "ms"), ("solver.step_heat.ms", "ms"), ("solver.step_ns.ms", "ms"),
    ("solver.project.ms", "ms"), ("solver.advance.self_ms", "ms"),
    ("physics.chemical_potential.per_step", "1/step"), ("physics.validate_assumptions.s", "s"),
    ("energy.total_energy.per_step", "1/step"), ("energy.e_nl.per_step", "1/step"),
    ("energy.dissipation.ms", "ms"), ("energy.work_terms.ms", "ms"),
    ("energy.ledger_append.ms", "ms"),
    ("snapshots.write_snapshot.s", "s"), ("snapshots.write_ppm.s", "s"),
    ("snapshots.csv_row.us", "us"), ("snapshots.bytes_written", "bytes"),
    ("limits.sweep.self_s", "s"), ("limits.samples_mb", "MB"),
    ("config.parse_config.s", "s"), ("cli.loop.self_s", "s"), ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
]


def child_env() -> dict[str, str]:
    """Single-threaded numerics and nlchb from this checkout's sources."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("NLCHB_THREADS", None)
    env.pop("NLCHB_OUTPUT_DIR", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    """Versions, CPU and source revision recorded with every result."""
    probe = ("import sys, numpy, scipy; "
             "print(sys.version.split()[0], numpy.__version__, scipy.__version__)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=child_env(), timeout=60)
    versions = out.stdout.split() if out.returncode == 0 else ["?", "?", "?"]
    cpu = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    # identifies the measured sources where there is no git history
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nlchb")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": versions[0], "numpy": versions[1], "scipy": versions[2], "cpu": cpu,
            "nproc": os.cpu_count(), "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "threads": {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS")} | {"NLCHB_THREADS": "unset"}}


def run_one(workload: str, seed: int, traced: bool, tiny: bool, workdir: str, index: int,
            timeout: float) -> dict:
    """One job in a fresh process; returns its result, or one with the failure."""
    jobdir = os.path.join(workdir, f"job{index:03d}")
    shutil.rmtree(jobdir, ignore_errors=True)
    os.makedirs(jobdir)
    spec = {"workload": workload, "seed": seed, "trace": traced, "tiny": tiny,
            "root": ROOT, "jobdir": jobdir}
    spec_path = os.path.join(jobdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.monotonic()
    with open(os.path.join(jobdir, "log.txt"), "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "job.py"), spec_path],
                                  stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                  cwd=ROOT, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = None
    elapsed = time.monotonic() - t0
    result_path = os.path.join(jobdir, "result.json")
    if rc == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    else:
        why = "timed out" if rc is None else f"job process exited with {rc}"
        result = {"errors": [f"{why}; see {os.path.join(jobdir, 'log.txt')}"], "summary": {}}
    result.update(traced=traced, elapsed_s=elapsed)
    return result


def reference_errors(summary: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return []
    errors = []
    for key, want in ref.items():
        got = summary.get(key)
        if got is None or not abs(got - want) <= REF_RTOL * abs(want):
            errors.append(f"{key} = {got!r}, reference {want!r}")
    return errors


def end_to_end(jobs: list[dict]) -> tuple[dict, dict]:
    steps = [ms for j in jobs for ms in j["step_ms"]]
    metrics = {
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "setup_s": statistics.median(j["setup_s"] for j in jobs),
        # 0 only when `advance` is absent, which the run reports as a warning
        "step_ms_p50": statistics.median(steps) if steps else 0.0,
        "step_ms_p95": statistics.quantiles(steps, n=20, method="inclusive")[18]
        if len(steps) > 1 else sum(steps),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }
    samples = {"jobs": len(jobs), "steps": len(steps), "builds": sum(j["builds"] for j in jobs)}
    return metrics, samples


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    names = [n for n, _ in PER_LAYER if n != "trace.overhead_s"]
    metrics = {n: statistics.median(j["layer"].get(n, 0.0) for j in traced) for n in names}
    metrics["trace.overhead_s"] = (statistics.median(j["wall_s"] for j in traced)
                                   - statistics.median(j["wall_s"] for j in untraced))
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small grids and few steps (self-test)")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an nlchb checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        with open(args.reference, encoding="utf-8") as fh:
            references = json.load(fh)
    except FileNotFoundError:
        references = {}
    ref_key = args.workload + ("@tiny" if args.tiny else "")
    ref = references.get(ref_key, {}).get(str(args.seed))

    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env_info = environment()

    # --trace 1: untraced, traced, traced, then alternating; --trace 0: untraced only
    def traced_at(i: int) -> bool:
        return bool(args.trace) and (i in (1, 2) or (i > 2 and i % 2 == 0))

    min_steps = 0 if args.tiny else MIN_STEPS
    start = time.monotonic()
    jobs: list[dict] = []
    while len(jobs) < MAX_JOBS:
        elapsed = time.monotonic() - start
        timed_steps = sum(len(j.get("step_ms", [])) for j in jobs if not j["traced"])
        next_traced = traced_at(len(jobs))
        like = [j["elapsed_s"] for j in jobs if j["traced"] == next_traced] or \
               [j["elapsed_s"] for j in jobs]
        estimate = statistics.median(like) if like else 0.0
        # no timed steps at all means `advance` is absent: there is nothing to wait for
        steps_ok = timed_steps == 0 or timed_steps >= min_steps
        enough = len(jobs) >= MIN_JOBS and (args.trace or steps_ok)
        if enough and elapsed + estimate > args.seconds:
            break
        if elapsed > RUN_LIMIT_S:
            break
        jobs.append(run_one(args.workload, args.seed, next_traced, args.tiny, workdir,
                            len(jobs), timeout=max(10.0, RUN_LIMIT_S + 20.0 - elapsed)))
        job = jobs[-1]
        job["errors"] += reference_errors(job["summary"], ref)
        first = next((j for j in jobs if not j["errors"]), None)
        if not job["errors"] and first is not None and job["summary"] != first["summary"]:
            job["errors"].append("end state differs from the run's first job (same seed)")

    ok = [j for j in jobs if not j["errors"]]
    ok_untraced = [j for j in ok if not j["traced"]]
    ok_traced = [j for j in ok if j["traced"]]
    failed = len(jobs) - len(ok)
    problems = [f"job {i}: {e}" for i, j in enumerate(jobs) for e in j["errors"]]

    counts_repeat = None
    if args.trace:
        counts = [j["counts"] for j in ok_traced]
        counts_repeat = len(counts) >= 2 and all(c == counts[0] for c in counts)
        if not counts_repeat:
            problems.append(f"call counts differ between traced jobs (or fewer than 2): {counts}")

    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "environment": env_info,
            "reference_checked": ref is not None, "attempted": len(jobs), "failed": failed,
            "fail_frac": failed / max(1, len(jobs)), "problems": problems, "jobs": jobs}
    have = ok_untraced and (ok_traced or not args.trace)
    if have:
        e2e, samples = end_to_end(ok_untraced)
        full.update(end_to_end=e2e, samples=samples)
        reported, units = e2e, {n: u for n, u in END_TO_END if n in GATED}
        if args.trace:
            layer = per_layer(ok_traced, ok_untraced)
            full.update(per_layer=layer, counts=ok_traced[0]["counts"],
                        counts_repeat=counts_repeat,
                        absent_metrics=sorted({m for j in ok_traced for m in j["absent_metrics"]}))
            reported, units = layer, dict(PER_LAYER)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  failed {failed}  fail_frac {full['fail_frac']:.3g}")
    print("environment: " + json.dumps(env_info))
    for p in problems:
        print(f"FAIL {p}")
    for target in sorted({t for j in ok for t in j["absent"]}):
        print(f"warning: {target} not found; the metrics timed through it read 0")
    for name in full.get("absent_metrics", []):
        print(f"warning: {name} is absent (its function was not found); reported as 0")
    if not have:
        print("error: no job passed its checks; no metrics", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(jobs), "failed": failed,
                          "metrics": {}}))
        return 1
    for name, unit in END_TO_END:
        print(f"  {name:<40} {e2e[name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<40} {full['fail_frac']:>14.6g} 1  "
          f"({failed}/{len(jobs)} jobs; {samples['steps']} timed steps, "
          f"{samples['builds']} timed builds)")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {layer[name]:>14.6g} {unit}")
        print(f"  counts repeat exactly between traced jobs: {counts_repeat}  {full['counts']}")
    print(json.dumps({
        "correct": failed == 0 and counts_repeat is not False,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {n: {"value": reported[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
