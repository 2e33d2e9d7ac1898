"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Tiny runs of every workload must emit exactly the metric names declared in
BENCHMARK.json, and injected program faults must show up as failed items.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from zhedkit import reducer, solver  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def tiny_run(name, trace=False, seconds=0.3):
    return harness.run(workloads.WORKLOADS[name](tiny=True), seed=1, seconds=seconds,
                       trace=trace, root=ROOT)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_exactly_the_declared_metrics(name, trace):
    record = tiny_run(name, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value, unit = record["metrics"][m["name"]]
        assert unit == m["unit"]
        assert isinstance(value, (int, float))
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["failure_examples"]
    line = json.loads(harness.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_layer_times_account_for_the_wall_time(name):
    metrics = tiny_run(name, trace=True, seconds=1.0)["metrics"]
    assert 0.8 <= metrics["trace.accounted_frac"][0] <= 1.0 + 1e-9


def test_time_outside_every_layer_lowers_the_accounted_share(monkeypatch):
    count_tiles = workloads.count_tiles

    def slow(cells):  # benchmark code, in no layer's span
        time.sleep(0.05)
        return count_tiles(cells)
    monkeypatch.setattr(workloads, "count_tiles", slow)
    metrics = tiny_run("reduce-replay", trace=True, seconds=1.0)["metrics"]
    assert metrics["trace.accounted_frac"][0] < 0.8
    assert metrics["bench.self_s"][0] >= 0.05


def test_witness_check_includes_its_replay(monkeypatch):
    apply_move = solver.apply_move

    def slow(board, move):
        time.sleep(0.002)
        return apply_move(board, move)
    monkeypatch.setattr(solver, "apply_move", slow)
    record = tiny_run("gadget-explore", trace=True)
    # the calls solver.solve makes to replay its witness (verify.certify makes others)
    calls = sum(s["inner"]["board.apply_move"][0] for s in record["spans"]
                if s["name"] == "solver.solve")
    assert calls > 0
    assert record["metrics"]["solver.witness_check_s"][0] >= 0.002 * calls


def test_decide_compiled_solves_insert_states():
    metrics = tiny_run("decide-compiled", trace=True)["metrics"]
    assert metrics["search.solve_states"][0] > 0
    assert metrics["search.solve_states_per_s"][0] > 0
    assert metrics["search.exhausted"][0] > 0


def test_work_moved_into_set_up_raises_setup_s(monkeypatch):
    cls = workloads.WORKLOADS["gadget-explore"]
    setup = cls.setup

    def slow(self, seed):
        time.sleep(0.05)
        return setup(self, seed)
    monkeypatch.setattr(cls, "setup", slow)
    assert tiny_run("gadget-explore")["metrics"]["setup_s"][0] >= 0.05


def test_set_ups_interleaved_with_items_are_left_out_of_the_loop_time(monkeypatch):
    class Sleepy:
        def run_item(self, item, tracer):
            time.sleep(0.01)
            return {}, None
    monkeypatch.setattr(harness, "SETUP_EVERY", 0.1)
    records, elapsed, _, setups = harness.closed_loop(
        Sleepy(), iter(range(10 ** 6)), 0.5, lambda: time.sleep(0.05) or 0.05)
    assert 3 <= len(setups) <= 5
    assert 0.5 <= elapsed < 0.6
    assert len(records) >= 30


def test_end_to_end_metrics_are_never_zero():
    for name in workloads.WORKLOADS:
        for value, _ in tiny_run(name)["metrics"].values():
            assert value > 0


@pytest.mark.parametrize("name", ["gadget-explore", "decide-compiled"])
def test_injected_wrong_verdict_raises_failed_frac(monkeypatch, name):
    monkeypatch.setattr(solver, "solve", lambda board, limits=None, **kw: solver.Unsolvable(0))
    record = tiny_run(name)
    assert record["extra"]["failed_frac"][0] > 0
    assert record["failures"].get("verdict", 0) > 0
    assert json.loads(harness.result_line(record))["correct"] is False


def test_injected_unsolved_replay_raises_failed_frac(monkeypatch):
    monkeypatch.setattr(solver, "replay", lambda board, moves: board)
    record = tiny_run("reduce-replay")
    assert record["extra"]["failed_frac"][0] == 1.0
    assert set(record["failures"]) == {"replay"}


def test_injected_short_intended_solution_fails_replay(monkeypatch):
    intended = reducer.intended_solution
    monkeypatch.setattr(reducer, "intended_solution", lambda p, a: intended(p, a)[:-1])
    record = tiny_run("reduce-replay")
    assert record["failures"] == {"replay": record["attempted"]}


def test_program_exception_fails_the_item_not_the_run(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")
    monkeypatch.setattr(reducer, "compile", broken)
    record = tiny_run("reduce-replay")
    assert record["attempted"] > 1
    assert record["failures"] == {"exception": record["attempted"]}
    assert record["failure_examples"][0] == "exception: ValueError"
    assert "injected" in record["tracebacks"][0]


def test_tail_percentile_keeps_ten_items_beyond():
    assert harness.tail_percentile(100, 90) == 90
    assert harness.tail_percentile(99, 90) == 75
    assert harness.tail_percentile(1000, 90) == 90
    assert harness.tail_percentile(15, 90) == 100


def test_same_seed_gives_the_same_inputs():
    for name, cls in workloads.WORKLOADS.items():
        a, b = cls().setup(7), cls().setup(7)
        assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)], name


def test_compare_refuses_results_from_different_kernels():
    record = tiny_run("reduce-replay")
    base = report.summarize([record])
    other = json.loads(json.dumps(record))
    other["provenance"]["kernel"] = "cython"
    with pytest.raises(report.Refused, match="kernel"):
        report.compare(base, report.summarize([other]), SPEC["end_to_end"])
    rows, regressed = report.compare(base, base, SPEC["end_to_end"])
    assert not regressed and {r[-1] for r in rows} == {"ok"}


def test_cli_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-replay",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "reduce-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
