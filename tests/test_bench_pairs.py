"""tools/bench_pairs.py: the order of each pair and the per-metric summary, on fixed
numbers, and which record a run returns."""

import importlib.util
import json
import os
import sys

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


def test_a_run_that_writes_no_record_fails_instead_of_reading_an_old_one(tmp_path):
    results = tmp_path / "perfbench" / "results"
    results.mkdir(parents=True)
    stale = results / "reduce-replay.seed3.trace0.json"
    stale.write_text(json.dumps(record("old", 3, 10, 21.0)), encoding="utf-8")
    # exit code 1, as a run with a failed item has, but dying before it writes
    command = [sys.executable, "-c", "import sys; sys.exit('set-up raised')"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.run_once(str(tmp_path), command, "reduce-replay", 3, 1)
    message = str(exc.value)
    assert "exited 1 and wrote no record" in message and "set-up raised" in message
    assert not stale.exists()


def test_a_run_returns_the_record_it_wrote(tmp_path):
    (tmp_path / "perfbench" / "results").mkdir(parents=True)
    fresh = json.dumps(record("new", 4, 12, 21.5))
    write = ("import sys; open('perfbench/results/reduce-replay.seed4.trace0.json', 'w')"
             f".write({fresh!r}); sys.exit(1)")
    rec = bench_pairs.run_once(str(tmp_path), [sys.executable, "-c", write], "reduce-replay", 4, 1)
    assert rec["provenance"]["commit"] == "new"
