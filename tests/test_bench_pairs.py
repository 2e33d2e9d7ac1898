"""tools/bench_pairs.py: the order of each pair and the per-metric summary, on fixed numbers."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def record(commit, seed, items_per_s, peak_rss_mb):
    """A run.py record holding only what the summary reads."""
    return {"provenance": {"workload": "reduce-replay", "seed": seed, "seconds": 40.0,
                           "trace": 0, "kernel": "python", "python": "3.11.7",
                           "implementation": "CPython", "machine": "x86_64", "nproc": 2,
                           "commit": commit, "state_budget": 0},
            "metrics": {"items_per_s": [items_per_s, "1/s"], "peak_rss_mb": [peak_rss_mb, "MB"]},
            "extra": {}, "failed": 0, "attempted": 100}


def runs(commit, items_per_s, peak_rss_mb):
    return [record(commit, seed, x, y) for seed, (x, y) in enumerate(zip(items_per_s, peak_rss_mb))]


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = runs("p", [10, 11, 9, 10], [21.0, 21.5, 21.2, 21.3])
    change = runs("c", [34, 35, 8, 33], [22.0, 24.0, 21.2, 23.0])
    rows, regressed = bench_pairs.summary(END_TO_END, parent, change)
    by_name = {row[0]: row for row in rows}

    name, unit, b, c, wins, worse, bound, verdict = by_name["items_per_s"]
    assert (unit, wins, bound, verdict) == ("1/s", 3, 0.25, "ok")
    assert (b["median"], b["q1"], b["q3"]) == (10, 9.25, 10.75)
    assert c["median"] == 33.5
    assert worse == pytest.approx(-2.35)  # higher is better: a gain reads negative

    name, unit, b, c, wins, worse, bound, verdict = by_name["peak_rss_mb"]
    assert (unit, wins, verdict) == ("MB", 0, "ok")  # the 21.2 tie is no win
    assert (b["median"], c["median"]) == (21.25, 22.5)
    assert worse == pytest.approx(1.25 / 21.25)
    assert not regressed


def test_summary_flags_a_median_worse_than_its_bound():
    parent = runs("p", [10, 10, 10], [20.0, 20.0, 20.0])
    change = runs("c", [7, 7.4, 8], [21.0, 22.1, 23.0])
    rows, regressed = bench_pairs.summary(END_TO_END, parent, change)
    verdicts = {row[0]: row[-1] for row in rows}
    assert verdicts == {"items_per_s": "regression", "peak_rss_mb": "regression"}
    assert regressed
