"""Closed-loop runner, span tracer and metric computation of the zhedkit benchmark.

An untraced run (trace=0) measures the end-to-end metrics.  A traced run
(trace=1) records a span around every call the workload makes into a
zhedkit layer, plus per-call totals for the kernel's inner functions and
for board.apply_move, and derives the per-layer metrics from them.  It runs
each item again untraced right after, so that the tracing overhead is
measured rather than assumed; the traced half of the run takes half its
--seconds, so the whole run still takes about its --seconds.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

from zhedkit import search, solver

TAIL_LADDER = (50, 75, 90, 95, 99)
SETUP_EVERY = 2.5  # seconds between the set-ups an untraced run times


# -- tracing ---------------------------------------------------------------------

class Span:
    __slots__ = ("name", "item", "parent", "start", "end", "inner")

    def __init__(self, name, item, parent, start):
        self.name, self.item, self.parent, self.start = name, item, parent, start
        self.end = start
        self.inner = {}  # function name -> [calls, seconds], for hot inner calls

    def record(self) -> dict:
        return {"name": self.name, "item": self.item, "parent": self.parent,
                "start": self.start, "end": self.end, "inner": self.inner}


class Tracer:
    """Spans in memory, in start order; parents are indices into the list."""

    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[int] = []
        self.item = None

    @contextmanager
    def span(self, name):
        parent = self.open[-1] if self.open else None
        self.open.append(len(self.spans))
        span = Span(name, self.item, parent, perf_counter())
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self.open.pop()

    def spanned(self, name, fn):
        """fn, recording a span around every call."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, name, fn):
        """fn, adding each call's count and time to the enclosing span.

        Used for functions called millions of times, where a span per call
        would cost more memory than the run is worth.
        """
        spans, open_, clock = self.spans, self.open, perf_counter

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            total = spans[open_[-1]].inner.get(name)
            if total is None:
                spans[open_[-1]].inner[name] = [1, dt]
            else:
                total[0] += 1
                total[1] += dt
            return out
        return wrapper


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracer interface that records nothing, for the measured run."""
    _span = _NullSpan()

    def span(self, name):
        return self._span


# kernel functions that only the pure-Python kernel lets the benchmark see
INNER_KERNEL = ("ordered_moves", "apply_encoded")


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the program's internal calls into other layers for one traced run.

    solver.solve reaches the kernel through search.solve and solver.replay
    reaches the board through solver.apply_move; both are module attributes
    looked up at call time, as are the pure-Python kernel's inner helpers.
    """
    patches = [(search, "solve", tracer.spanned("search.solve", search.solve)),
               (solver, "apply_move", tracer.counted("board.apply_move", solver.apply_move))]
    if search.KERNEL == "python":
        for attr in INNER_KERNEL:
            patches.append((search.kernel, attr,
                            tracer.counted(f"search.{attr}", getattr(search.kernel, attr))))
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, wrapper in patches:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# -- the closed loop -------------------------------------------------------------

class ItemRecord:
    __slots__ = ("item", "seconds", "counts", "failure")

    def __init__(self, item, seconds, counts, failure):
        self.item, self.seconds, self.counts, self.failure = item, seconds, counts, failure


def run_one(workload, item, tracer) -> tuple[dict, str | None, str | None]:
    """One item; a program exception fails the item instead of the run."""
    try:
        counts, failure = workload.run_item(item, tracer)
        return counts, failure, None
    except Exception as exc:  # the loop must go on and report the failure
        return {}, f"exception: {type(exc).__name__}", traceback.format_exc()


def closed_loop(workload, items, seconds: float, set_up) -> tuple[list, float, list, list]:
    """Run items one after another, untraced, for `seconds`.

    Every SETUP_EVERY seconds, between two items, it also times a set-up
    (`set_up()` returns its seconds); that time is left out of the loop's.
    Returns (records, elapsed seconds, tracebacks, set-up seconds).
    """
    records, tracebacks, setups = [], [], []
    tracer = NullTracer()
    start = perf_counter()
    next_setup = start + SETUP_EVERY
    paused = 0.0
    for item in items:
        now = perf_counter()
        if now - paused >= start + seconds:
            break
        if now >= next_setup:
            setups.append(set_up())
            resumed = perf_counter()
            paused += resumed - now
            next_setup = resumed + SETUP_EVERY
        t0 = perf_counter()
        counts, failure, tb = run_one(workload, item, tracer)
        records.append(ItemRecord(item, perf_counter() - t0, counts, failure))
        if tb and len(tracebacks) < 3:
            tracebacks.append(tb)
    return records, perf_counter() - start - paused, tracebacks, setups


def traced_loop(workload, items, seconds: float, tracer) -> tuple[list, float, float, list]:
    """Run each item traced and then again untraced, until `seconds` of traced time.

    Running the two back to back keeps the machine's drift in speed, which
    can exceed the tracing overhead, out of their difference.  Returns
    (records of the traced runs, traced seconds, untraced seconds, tracebacks).
    """
    records, tracebacks = [], []
    traced = untraced = 0.0
    for item in items:
        if traced >= seconds:
            break
        tracer.item = len(records)
        with instrumented(tracer):
            t0 = perf_counter()
            with tracer.span("item"):
                counts, failure, tb = run_one(workload, item, tracer)
            t1 = perf_counter()
        records.append(ItemRecord(item, t1 - t0, counts, failure))
        traced += t1 - t0
        if tb and len(tracebacks) < 3:
            tracebacks.append(tb)
        t2 = perf_counter()
        run_one(workload, item, NullTracer())
        untraced += perf_counter() - t2
    return records, traced, untraced, tracebacks


# -- metrics ---------------------------------------------------------------------

def tail_percentile(n: int, cap: int) -> int:
    """Highest ladder percentile, up to cap, with at least ten items beyond it.

    The cap keeps the rung fixed for a workload across runs whose item
    counts differ a little; below twenty items the tail is the maximum.
    """
    rungs = [p for p in TAIL_LADDER if p <= cap and n - math.ceil(p / 100 * n) >= 10]
    return rungs[-1] if rungs else 100


def nearest_rank(sorted_values, p: int) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def end_to_end(records, elapsed, setup_s, cap) -> tuple[dict, dict]:
    """(metrics, extra): metrics in BENCHMARK.json, extra for the text report."""
    times = sorted(r.seconds for r in records)
    boards = sum(r.counts.get("boards", 0) for r in records)
    pct = tail_percentile(len(times), cap)
    n = len(records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n / elapsed, "1/s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "item_tail_ms": (nearest_rank(times, pct) * 1e3, "ms"),
        "board_cells": (sum(r.counts.get("cells", 0) for r in records) / boards
                        if boards else 0.0, "cells"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "decided_frac": (sum(r.counts.get("decided", 0) for r in records) / n, "frac"),
        "failed_frac": (sum(1 for r in records if r.failure) / n, "frac"),
        "item_tail_percentile": (pct, "pct"),
        "items": (n, "count"),
    }
    return metrics, extra


def per_layer(tracer, records, elapsed, untraced_ips) -> dict:
    """Per-layer metrics from the spans and item counts of a traced run."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    # own: outside child spans; self: outside child spans and counted inner calls
    total, own, self_time, inner = {}, {}, {}, {}
    for i, s in enumerate(spans):
        d = s.end - s.start
        inner_s = sum(t for _, t in s.inner.values())
        total[s.name] = total.get(s.name, 0.0) + d
        own[s.name] = own.get(s.name, 0.0) + d - child[i]
        self_time[s.name] = self_time.get(s.name, 0.0) + d - child[i] - inner_s
        for name, (calls, t) in s.inner.items():
            acc = inner.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += t
    counts = {}
    for r in records:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value

    def dur(name):
        return total.get(name, 0.0)

    def rate(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    traced_ips = len(records) / elapsed
    m = {
        "rpm3sat.parse_s": (dur("rpm3sat.parse"), "s"),
        "rpm3sat.embed_s": (dur("rpm3sat.embed"), "s"),
        "rpm3sat.oracle_s": (dur("rpm3sat.oracle"), "s"),
        "reducer.compile_s": (dur("reducer.compile"), "s"),
        "reducer.audit_s": (dur("reducer.audit"), "s"),
        "reducer.intended_s": (dur("reducer.intended"), "s"),
        "reducer.board_cells": (counts.get("reducer.board_cells", 0), "count"),
        "reducer.tiles": (counts.get("reducer.tiles", 0), "count"),
        "gadgets.build_s": (dur("gadgets.build"), "s"),
        "search.explore_s": (dur("search.explore"), "s"),
        "search.explore_states": (counts.get("search.explore_states", 0), "count"),
        "search.explore_states_per_s": (
            rate(counts.get("search.explore_states", 0), dur("search.explore")), "1/s"),
        "search.solve_s": (dur("search.solve"), "s"),
        "search.solve_states": (counts.get("search.solve_states", 0), "count"),
        "search.solve_states_per_s": (
            rate(counts.get("search.solve_states", 0), dur("search.solve")), "1/s"),
        "search.exhausted": (counts.get("search.exhausted", 0), "count"),
        "search.loop_self_s": (
            self_time.get("search.solve", 0.0) + self_time.get("search.explore", 0.0), "s"),
        # includes the apply_move calls of the check, which board.apply_move_s counts too
        "solver.witness_check_s": (own.get("solver.solve", 0.0), "s"),
        "solver.replay_s": (dur("solver.replay"), "s"),
        "solver.replay_moves": (counts.get("solver.replay_moves", 0), "count"),
        "solver.replay_us_per_move": (
            rate(dur("solver.replay"), counts.get("solver.replay_moves", 0), 1e6), "us"),
        "board.apply_move_s": (inner.get("board.apply_move", [0, 0.0])[1], "s"),
        "board.apply_move_calls": (inner.get("board.apply_move", [0, 0.0])[0], "count"),
        "verify.certify_s": (dur("verify.certify"), "s"),
        "bench.self_s": (self_time.get("item", 0.0), "s"),
        "trace.wall_s": (elapsed, "s"),
        # the layers' share: the item span's self time (the benchmark's own checks) is left out
        "trace.accounted_frac": (
            (sum(t for name, t in self_time.items() if name != "item")
             + sum(t for _, t in inner.values())) / elapsed, "frac"),
        "trace.items_per_s": (traced_ips, "1/s"),
        "trace.untraced_items_per_s": (untraced_ips, "1/s"),
        "trace.overhead_frac": (1 - traced_ips / untraced_ips, "frac"),
    }
    visible = search.KERNEL == "python"
    for attr in INNER_KERNEL:
        calls, seconds = inner.get(f"search.{attr}", [0, 0.0])
        m[f"search.{attr}_s"] = (seconds if visible else None, "s")
        m[f"search.{attr}_calls"] = (calls if visible else None, "count")
    return m


# -- provenance ------------------------------------------------------------------

def commit_of(root: str) -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root, workload, seed, seconds, trace) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "kernel": search.KERNEL, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": nproc, "commit": commit_of(root),
            "state_budget": workload.budget}


# -- one run ---------------------------------------------------------------------

def _is_zhedkit(name: str) -> bool:
    return name == "zhedkit" or name.startswith("zhedkit.")


def import_afresh() -> None:
    """Import zhedkit again from its sources; the modules already in use stay in use."""
    kept = {name: module for name, module in sys.modules.items() if _is_zhedkit(name)}
    for name in kept:
        del sys.modules[name]
    try:
        importlib.import_module("zhedkit.verify")  # imports every layer the workloads use
    finally:
        for name in [name for name in sys.modules if _is_zhedkit(name)]:
            del sys.modules[name]
        sys.modules.update(kept)


def set_up_once(workload, seed: int):
    """One timed set-up: import zhedkit afresh and generate the first round's inputs.

    Returns (seconds, the first round, the later rounds).
    """
    t0 = perf_counter()
    import_afresh()
    rounds = workload.setup(seed)
    first = next(rounds)
    return perf_counter() - t0, first, rounds


def run(workload, seed: int, seconds: float, trace: bool, root: str = ".") -> dict:
    """One benchmark run; returns the result record (see run.py for its use).

    setup_s is the median of the first set-up and those the untraced loop
    interleaves with its items.  One set-up takes under 0.1 s; repeats run
    back to back share whatever speed this machine has at that moment, while
    repeats spread over the run sample its drift.
    """
    setup_first, first, rounds = set_up_once(workload, seed)
    items = itertools.chain(first, itertools.chain.from_iterable(rounds))

    record = {"provenance": provenance(root, workload, seed, seconds, int(trace))}
    if trace:
        tracer = Tracer()
        records, elapsed, untraced, tracebacks = traced_loop(workload, items, seconds / 2, tracer)
        metrics = per_layer(tracer, records, elapsed, len(records) / untraced)
        record["absent"] = {name: "compiled kernel: its inner calls are not visible"
                            for name, (value, _) in metrics.items() if value is None}
        record["spans"] = [s.record() for s in tracer.spans]
        setup_times = [setup_first]
    else:
        records, elapsed, tracebacks, setup_times = closed_loop(
            workload, items, seconds, lambda: set_up_once(workload, seed)[0])
        setup_times.insert(0, setup_first)
    measured, extra = end_to_end(records, elapsed, statistics.median(setup_times),
                                 workload.tail_cap)
    if not trace:
        metrics = measured

    failures = {}
    for r in records:
        if r.failure:
            kind = r.failure.split(":")[0]
            failures[kind] = failures.get(kind, 0) + 1
    record.update({
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": metrics,
        "extra": extra,
        "failures": failures,
        "failure_examples": [r.failure for r in records if r.failure][:5],
        "item_seconds": [r.seconds for r in records],
        "setup_seconds": setup_times,
        "tracebacks": tracebacks,
    })
    return record


def result_line(record) -> str:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})
