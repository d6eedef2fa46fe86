"""Fast self-test of the benchmark: tiny grids, a few steps per workload.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run pass and emit
every named end-to-end and per-layer metric, that the call counts repeat, and
that a wrong reference end state is counted as a failure. It also checks that wrapping a
function that does not exist is reported, not raised. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

from run import END_TO_END, GATED, HERE, PER_LAYER, ROOT, WORKLOADS, child_env


def bench(*args: str, expect_rc: int = 0) -> tuple[dict, dict, str]:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--seed", "0",
                          "--seconds", "0", "--tiny", *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=170)
    if out.returncode != expect_rc:
        raise AssertionError(f"run.py {args} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    workload = args[args.index("--workload") + 1]
    with open(os.path.join(ROOT, ".perfbench_work", workload, "result.json"), encoding="utf-8") as fh:
        full = json.load(fh)
    return line, full, out.stdout


def check_workload(workload: str) -> None:
    line, full, text = bench("--workload", workload, "--trace", "0")
    assert line["correct"] and list(line["metrics"]) == list(GATED), line
    line, full, text = bench("--workload", workload, "--trace", "1")
    assert line["correct"] and line["failed"] == 0, text
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert list(line["metrics"]) == [n for n, _ in PER_LAYER], sorted(line["metrics"])
    assert set(full["end_to_end"]) == {n for n, _ in END_TO_END}, full["end_to_end"]
    for name, _ in END_TO_END:
        assert full["end_to_end"][name] > 0.0, (name, full["end_to_end"][name])
        assert f"  {name} " in text, name
    assert full["counts_repeat"] is True, full["counts"]
    assert not full["absent_metrics"], full["absent_metrics"]

    # the same seed against a reference off by 1e-9 relative: every job fails
    summary = full["jobs"][0]["summary"]
    wrong = {f"{workload}@tiny": {"0": {k: v * (1.0 + 1e-9) for k, v in summary.items()}}}
    ref_path = os.path.join(ROOT, ".perfbench_work", "selftest_reference.json")
    with open(ref_path, "w", encoding="utf-8") as fh:
        json.dump(wrong, fh)
    line, full, text = bench("--workload", workload, "--trace", "0", "--reference", ref_path,
                             expect_rc=1)
    assert not line["correct"] and line["failed"] == line["attempted"] >= 1, text
    assert all("reference" in " ".join(j["errors"]) for j in full["jobs"]), full["problems"]
    print(f"ok  {workload}")


def check_missing_target() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_THREADS")})
    import nlchb.solver  # noqa: F401
    from tracing import Tracer

    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.patch("solver.gone", "nlchb.solver", "no_such_function")
        tracer.patch("grid.gone", "nlchb.grid", "Grid.no_such_method")
    assert tracer.absent == ["nlchb.solver.no_such_function", "nlchb.grid.Grid.no_such_method"]
    assert len(caught) == 2 and not tracer.wrapped
    print("ok  missing wrap targets are reported as absent")


def main() -> int:
    check_missing_target()
    for workload in WORKLOADS:
        check_workload(workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
