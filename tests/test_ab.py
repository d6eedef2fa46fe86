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


def runs_of(values, failed=()):
    """One run per round with `peak_rss_mb` = values[i]; rounds in `failed` failed."""
    runs = []
    for i, v in enumerate(values):
        if i in failed:
            runs.append({"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "pair": i})
        else:
            runs.append({"correct": True, "attempted": 3, "failed": 0, "pair": i,
                         "metrics": {"peak_rss_mb": {"value": v, "unit": "MB"}}})
    return runs


PARENT = [43.10, 43.12, 43.14, 43.16, 43.18, 43.11, 43.13, 43.15, 43.17, 43.19]


def test_summary_of_a_clear_gain(ab):
    change = [v - 1.5 for v in PARENT]
    change[3] = 44.0  # loses one round of ten
    row = ab.summarize({"parent": runs_of(PARENT), "change": runs_of(change)},
                       ["peak_rss_mb"])["peak_rss_mb"]
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
                           ["peak_rss_mb"])["peak_rss_mb"]
        assert row["gain_met"] is False
    row = ab.summarize({"parent": runs_of(PARENT[:9]), "change": runs_of(PARENT[:9])},
                       ["peak_rss_mb"])["peak_rss_mb"]
    assert row["change_pairs"] == 9 and row["gain_met"] is False


def test_failed_runs_leave_their_pairs_out(ab):
    change = [v - 1.5 for v in PARENT]
    runs = {"parent": runs_of(PARENT, failed={0}), "change": runs_of(change, failed={5}),
            "control": runs_of(PARENT)}
    row = ab.summarize(runs, ["peak_rss_mb"])["peak_rss_mb"]
    assert (row["change_lower_in"], row["change_pairs"]) == (8, 8)
    assert (row["control_lower_in"], row["control_pairs"]) == (0, 9)
    assert row["control_relative"] == pytest.approx(43.145 / row["parent_median"] - 1.0)
    assert row["gain_met"] is False


def test_seeds_cycle_over_the_reference_seeds(ab):
    assert ab.seeds("spinodal-64", 8, 10) == [8, 9, 10, 11, 12, 13, 14, 15, 8, 9]
    assert ab.seeds("spinodal-64", 14, 3) == [14, 15, 14]
