#!/usr/bin/env python3
"""Alternating benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload reduce-replay --pairs 10

PARENT and CHANGE are the roots of two checkouts.  Pair i runs the command of
BENCHMARK.json in each with seed SEED0 + i, the parent first when i is even
and the change first when it is odd, so that a drift in the machine's speed
falls on both sides.  Each run's end-to-end metrics are printed as it ends.
Then, per metric, come both sides' medians and quartiles, the pairs the change
wins (ties count for neither) and the verdict of perfbench/report.py's
compare: "regression" when the change's median is worse than the parent's by
more than the metric's bound.  Each run leaves its record in
perfbench/results/ of its checkout, as run.py always does; this script writes
no file.  It deletes a run's old record before the run, so that a run that
dies before writing one fails instead of reporting a stale record.  It exits 1
when a run fails an item or a metric regresses.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import report  # noqa: E402  (perfbench/report.py)

SIDES = ("parent", "change")


def order(pair: int) -> tuple[str, str]:
    """The two sides in the order that pair number `pair` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(root: str, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at root; returns the record run.py wrote."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    path = os.path.join(root, "perfbench", "results", f"{workload}.seed{seed}.trace0.json")
    if os.path.exists(path):
        os.remove(path)  # a run that dies in set-up writes none, and must not read an old one
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    written = os.path.exists(path)
    # 1 also means some item failed, and then the record is still written
    if proc.returncode not in (0, 1) or not written:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {root} exited {proc.returncode}"
                         f"{'' if written else ' and wrote no record'}\n" + proc.stderr)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summary(end_to_end: list, parent: list, change: list) -> tuple[list, bool]:
    """Rows (metric, unit, parent stats, change stats, wins, worse share, bound, verdict).

    parent and change are the records of the same pairs, in pair order; the
    stats are report.summarize's median, q1 and q3.  The second value is
    whether any metric regressed.
    """
    base, new = report.summarize(parent), report.summarize(change)
    compared, regressed = report.compare(base, new, end_to_end)
    (key,) = base
    better = {spec["name"]: spec["better"] for spec in end_to_end}
    rows = []
    for _, name, _, _, worse, bound, verdict in compared:
        sign = 1 if better[name] == "lower" else -1
        wins = sum(sign * (c["metrics"][name][0] - p["metrics"][name][0]) < 0
                   for p, c in zip(parent, change))
        b, c = base[key]["metrics"][name], new[key]["metrics"][name]
        rows.append((name, b["unit"], b, c, wins, worse, bound, verdict))
    return rows, regressed


def _stats(m: dict) -> str:
    return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [spec["name"] for spec in bench["end_to_end"]]

    roots = dict(zip(SIDES, (args.parent, args.change)))
    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        seed = args.seed0 + pair
        for side in order(pair):
            rec = run_once(roots[side], bench["command"], args.workload, seed, seconds)
            runs[side].append(rec)
            print(f"pair {pair} seed {seed} {side:6} failed {rec['failed']}/{rec['attempted']}  "
                  + "  ".join(f"{n} {rec['metrics'][n][0]:.4g}" for n in names), flush=True)

    try:
        rows, regressed = summary(bench["end_to_end"], runs["parent"], runs["change"])
    except report.Refused as exc:
        print(f"bench_pairs: refused: {exc}", file=sys.stderr)
        return 2
    print(f"\n{args.workload}, {args.pairs} pairs of {seconds:g} s, "
          "median [q1, q3] per side; worse: the change's median against the parent's")
    print(f"{'metric':14} {'unit':6} {'parent':>28} {'change':>28} {'wins':>6} {'worse':>8} "
          f"{'bound':>6}  verdict")
    for name, unit, b, c, wins, worse, bound, verdict in rows:
        print(f"{name:14} {unit:6} {_stats(b):>28} {_stats(c):>28} {wins:>3}/{args.pairs:<2} "
              f"{worse:+8.1%} {bound:6.0%}  {verdict}")
    failed = any(rec["failed"] for side in SIDES for rec in runs[side])
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
