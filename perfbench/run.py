#!/usr/bin/env python3
"""The zhedkit benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload reduce-replay --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; zhedkit is imported from its src/.  With
--trace 0 the run measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it records spans and reports the per-layer metrics, plus the
tracing overhead.  Every metric is printed as "<name> <value> <unit>", the
last line is one JSON object, and the full record (provenance, failures,
spans) goes to perfbench/results/.  The exit code is 0 only when every
item's outputs passed their checks; without zhedkit's sources it is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True  # leave the checkout as it was found

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "zhedkit", "__init__.py")):
        print(f"perfbench: no zhedkit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    record = harness.run(workload, args.seed, args.seconds, bool(args.trace), root=ROOT)

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, (value, unit) in {**record["metrics"], **record["extra"]}.items():
        print(f"{name} {value} {unit}")
    for kind, n in sorted(record["failures"].items()):
        print(f"# failed {kind}: {n}", file=sys.stderr)
    for example in record["failure_examples"]:
        print(f"# e.g. {example}", file=sys.stderr)
    print(harness.result_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
