"""The summary that scripts/ab.py writes, on canned runs: no export and no
benchmark run, so these tests take no time."""

import importlib.util
import os
import sys

import pytest

AB = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "ab.py")


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("nlchb_ab", AB)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under scripts/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def runs_of(values, failed=(), name="peak_rss_mb"):
    """One run per round with metric `name` = values[i]; rounds in `failed` failed."""
    runs = []
    for i, v in enumerate(values):
        if i in failed:
            runs.append({"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "pair": i})
        else:
            runs.append({"correct": True, "attempted": 3, "failed": 0, "pair": i,
                         "metrics": {name: {"value": v, "unit": "MB"}}})
    return runs


PARENT = [43.10, 43.12, 43.14, 43.16, 43.18, 43.11, 43.13, 43.15, 43.17, 43.19]
PEAK_RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}  # as in BENCHMARK.json


def test_summary_of_a_clear_gain(ab):
    change = [v - 1.5 for v in PARENT]
    change[3] = 44.0  # loses one round of ten
    row = ab.summarize({"parent": runs_of(PARENT), "change": runs_of(change)},
                       [PEAK_RSS])["peak_rss_mb"]
    assert row["parent_median"] == pytest.approx(43.145)
    assert (row["parent_q1"], row["parent_q3"]) == pytest.approx((43.1175, 43.1725))
    assert row["parent_iqr"] == pytest.approx(0.055)
    assert row["change_median"] == pytest.approx(41.645)  # 44.0 only moves the top
    assert row["change_relative"] == pytest.approx(row["change_median"] / 43.145 - 1.0)
    assert (row["change_lower_in"], row["change_pairs"]) == (9, 10)
    assert row["gain_met"] is True


def test_gain_needs_nine_of_ten_pairs_and_a_drop_beyond_the_parent_iqr(ab):
    two_losses = [v - 1.5 for v in PARENT]
    two_losses[3] = two_losses[4] = 44.0
    small = [v - 0.04 for v in PARENT]  # lower in 10 of 10, but by less than the IQR
    for change in (two_losses, small):
        row = ab.summarize({"parent": runs_of(PARENT), "change": runs_of(change)},
                           [PEAK_RSS])["peak_rss_mb"]
        assert row["gain_met"] is False
    row = ab.summarize({"parent": runs_of(PARENT[:9]), "change": runs_of(PARENT[:9])},
                       [PEAK_RSS])["peak_rss_mb"]
    assert row["change_pairs"] == 9 and row["gain_met"] is False


def test_failed_runs_leave_their_pairs_out(ab):
    change = [v - 1.5 for v in PARENT]
    runs = {"parent": runs_of(PARENT, failed={0}), "change": runs_of(change, failed={5}),
            "control": runs_of(PARENT)}
    row = ab.summarize(runs, [PEAK_RSS])["peak_rss_mb"]
    assert (row["change_lower_in"], row["change_pairs"]) == (8, 8)
    assert (row["control_lower_in"], row["control_pairs"]) == (0, 9)
    assert row["control_relative"] == pytest.approx(43.145 / row["parent_median"] - 1.0)
    assert row["gain_met"] is False


def verdict_of(ab, parent, change, metric=PEAK_RSS):
    name = metric["name"]
    runs = {"parent": runs_of(parent, name=name), "change": runs_of(change, name=name)}
    return ab.summarize(runs, [metric])[name]["verdict"]


def test_verdict_within_bound_and_worse(ab):
    # the bound is 5% of the parent median, 2.157 MB; the parent IQR is 0.055
    assert verdict_of(ab, PARENT, [v + 2.0 for v in PARENT]) == "within_bound"
    assert verdict_of(ab, PARENT, [v - 3.0 for v in PARENT]) == "within_bound"
    assert verdict_of(ab, PARENT, [v + 2.3 for v in PARENT]) == "worse"


def test_verdict_unresolved_when_the_parent_spreads_beyond_the_bound(ab):
    wall = {"name": "wall_s", "better": "lower", "bound": 0.25}
    parent = [1.0, 1.6, 1.1, 1.7, 1.2, 1.8, 1.3, 1.9, 1.4, 2.0]  # IQR 0.65 against 0.375
    assert verdict_of(ab, parent, parent, wall) == "unresolved"
    assert verdict_of(ab, parent, [v - 0.1 for v in parent], wall) == "unresolved"
    # every change run beat every parent run: resolved despite the spread
    assert verdict_of(ab, parent, [0.9, 0.95, 0.8, 0.85, 0.9, 0.7, 0.99, 0.9, 0.8, 0.9],
                      wall) == "within_bound"
    # a median worse by more than the bound is worse, whatever the spread
    assert verdict_of(ab, parent, [v + 0.5 for v in parent], wall) == "worse"


def test_verdict_of_a_metric_where_higher_is_better(ab):
    rate = {"name": "steps_per_s", "better": "higher", "bound": 0.05}
    assert verdict_of(ab, PARENT, [v - 2.0 for v in PARENT], rate) == "within_bound"
    assert verdict_of(ab, PARENT, [v - 2.3 for v in PARENT], rate) == "worse"
    assert verdict_of(ab, PARENT, [v + 9.0 for v in PARENT], rate) == "within_bound"


def test_no_verdict_without_change_runs(ab):
    row = ab.summarize({"parent": runs_of(PARENT), "change": runs_of(PARENT, failed=set(range(10)))},
                       [PEAK_RSS])["peak_rss_mb"]
    assert "verdict" not in row and row["gain_met"] is False


def test_seeds_cycle_over_the_reference_seeds(ab):
    assert ab.seeds("spinodal-64", 8, 10) == [8, 9, 10, 11, 12, 13, 14, 15, 8, 9]
    assert ab.seeds("spinodal-64", 14, 3) == [14, 15, 14]


# A stand-in for perfbench/run.py: it checks that it was asked for one traced
# run with no time budget, writes the canned result file and prints its line.
FAKE_RUN = """
import json, os, sys
args = sys.argv[1:]
assert args[args.index("--trace") + 1] == "1" and float(args[args.index("--seconds") + 1]) == 0
workload = args[args.index("--workload") + 1]
work = os.path.join(".perfbench_work", workload)
os.makedirs(work)
with open(os.path.join(work, "result.json"), "w") as fh:
    json.dump({"counts": {"kernel.convolve": 150, "fft.rfft2": 0},
               "per_layer": {"kernel.convolve.ms": 5.25, "energy.dissipation.ms": 1.5}}, fh)
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}}))
"""


def fake_tree(tmp_path, script):
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "perfbench" / "run.py").write_text(script)
    return str(tmp_path)


def test_traced_run_keeps_counts_and_per_layer_medians(ab, tmp_path):
    traced = ab.run_traced(fake_tree(tmp_path, FAKE_RUN), "convection-256", 3)
    assert traced == {"seed": 3, "correct": True,
                      "counts": {"kernel.convolve": 150, "fft.rfft2": 0},
                      "per_layer": {"kernel.convolve.ms": 5.25, "energy.dissipation.ms": 1.5}}


def test_failed_traced_run_is_kept_with_empty_tables(ab, tmp_path):
    traced = ab.run_traced(fake_tree(tmp_path, "import sys\nsys.exit(4)\n"), "spinodal-64", 0)
    assert traced["correct"] is False and traced["error"].startswith("exit 4")
    assert (traced["counts"], traced["per_layer"]) == ({}, {})
