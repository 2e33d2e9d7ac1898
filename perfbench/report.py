#!/usr/bin/env python3
"""Summarise benchmark result records, and compare two summaries.

    python3 perfbench/report.py summarize perfbench/results/*.json -o BENCH.json
    python3 perfbench/report.py compare BASE.json CHANGE.json

A summary holds, per workload and trace mode, each metric's median and
quartiles over the runs, the seeds, and the provenance the runs share.
summarize refuses to pool runs whose provenance differs.  compare refuses
(exit 2) to compare summaries recorded on different kernels, Python
versions or state budgets, so that a change of build environment cannot
pass as a gain.  It exits 1 when an end-to-end median is worse than the
base by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# provenance that every pooled run must share, and that compare must match
POOLED = ("workload", "trace", "seconds", "kernel", "python", "implementation",
          "machine", "nproc", "commit", "state_budget")
COMPARABLE = ("kernel", "python", "implementation", "state_budget", "seconds")


class Refused(Exception):
    pass


def summarize(records) -> dict:
    groups: dict[str, list] = {}
    for rec in records:
        prov = rec["provenance"]
        groups.setdefault(f"{prov['workload']}.trace{prov['trace']}", []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        shared = {k: recs[0]["provenance"][k] for k in POOLED}
        for rec in recs[1:]:
            diff = [k for k in POOLED if rec["provenance"][k] != shared[k]]
            if diff:
                raise Refused(f"{key}: runs differ in {', '.join(diff)}")
        metrics = {}
        for name, (_, unit) in {**recs[0]["metrics"], **recs[0]["extra"]}.items():
            values = [{**r["metrics"], **r["extra"]}[name][0] for r in recs]
            if any(v is None for v in values):
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None,
                             "values": values}
        out[key] = {"provenance": shared, "runs": len(recs),
                    "seeds": [r["provenance"]["seed"] for r in recs],
                    "failed": sum(r["failed"] for r in recs),
                    "attempted": sum(r["attempted"] for r in recs),
                    "metrics": metrics}
    return out


def compare(base: dict, change: dict, end_to_end: list) -> tuple[list, bool]:
    """Rows (workload, metric, base, change, worse share, bound, verdict); any regression."""
    rows, regressed = [], False
    for key in sorted(set(base) & set(change)):
        if not key.endswith(".trace0"):
            continue
        b, c = base[key], change[key]
        diff = [k for k in COMPARABLE if b["provenance"][k] != c["provenance"][k]]
        if diff:
            raise Refused(f"{key}: recorded with different {', '.join(diff)}: "
                          + "; ".join(f"{k} {b['provenance'][k]!r} vs {c['provenance'][k]!r}"
                                      for k in diff))
        for spec in end_to_end:
            name = spec["name"]
            bm, cm = b["metrics"][name], c["metrics"][name]
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (cm["median"] - bm["median"]) / bm["median"]
            if worse > spec["bound"]:
                verdict, regressed = "regression", True
            elif (bm["spread"] or 0) > spec["bound"] and not all(
                    sign * (x - y) < 0 for x in cm["values"] for y in bm["values"]):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((key[:-len(".trace0")], name, bm["median"], cm["median"],
                         worse, spec["bound"], verdict))
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("records", nargs="+")
    s.add_argument("-o", "--output", required=True)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("change")
    args = parser.parse_args(argv)

    try:
        if args.command == "summarize":
            records = []
            for path in args.records:
                with open(path, encoding="utf-8") as fh:
                    records.append(json.load(fh))
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(summarize(records), fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        with open(args.base, encoding="utf-8") as fh:
            base = json.load(fh)
        with open(args.change, encoding="utf-8") as fh:
            change = json.load(fh)
        with open(BENCHMARK, encoding="utf-8") as fh:
            end_to_end = json.load(fh)["end_to_end"]
        rows, regressed = compare(base, change, end_to_end)
    except Refused as exc:
        print(f"report: refused: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':16} {'metric':14} {'base':>12} {'change':>12} {'worse':>8} {'bound':>6}  verdict")
    for workload, name, bm, cm, worse, bound, verdict in rows:
        print(f"{workload:16} {name:14} {bm:12.4f} {cm:12.4f} {worse:8.1%} {bound:6.0%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
