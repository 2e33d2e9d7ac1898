"""Command-line interface.

Subcommands cover the whole pipeline: compile an instance to a board plus
certificate, solve or replay boards, render them, emit single gadgets with
a JSON sidecar, run the brute-force oracle, generate the intended solution
for an assignment, and run the verification suite.

Exit codes: 0 success, 1 domain error (one machine-parsable reason line on
stderr), 2 usage errors.  Outputs are written atomically (temp file plus
rename) and are byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import reducer, rpm3sat, verify
from .board import parse_board, render_board
from .errors import ParseError, UnsatisfiedAssignment, ZhedError
from .gadgets import isolated_board, make_threshold, make_variable, instantiate
from .solver import (ResourceExhausted, Solvable, SolveLimits, Unsolvable,
                     parse_trace, render_trace, replay, solve)
from .board import is_solved


def _write_atomic(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."),
                               prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _bounded_int(low: int, note: str = "", high: int | None = None, even: bool = False):
    """An argparse type: an integer in low..high (no upper bound when high is
    None), and even when even is set."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}{note}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}{note}, got {value}")
        if even and value % 2:
            raise argparse.ArgumentTypeError(f"must be even, got {value}")
        return value
    return parse


_budget = _bounded_int(0, " (0 = unlimited)")  # a --limits-* value


def _limits(args) -> SolveLimits:
    return SolveLimits(max_states=args.limits_states or None,
                       max_millis=args.limits_ms or None)


_TRUTH = {"0": False, "false": False, "1": True, "true": True}


def _parse_assignment(text: str) -> tuple[bool, ...]:
    """Truth values from an assignment file.

    Values are 0, 1, false or true in any case, separated by whitespace; a
    '#' starts a comment that runs to the end of its line.
    """
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split("#", 1)[0].split():
            value = _TRUTH.get(tok.lower())
            if value is None:
                raise ParseError(f"assignment value {tok!r} is not 0, 1, false or true",
                                 lineno)
            values.append(value)
    return tuple(values)


def cmd_compile(args) -> int:
    formula, embedding = rpm3sat.parse_instance(_read(args.instance))
    puzzle = reducer.compile(formula, embedding)
    _write_atomic(args.out_board, render_board(puzzle.board))
    _write_atomic(args.out_cert, reducer.render_certificate(puzzle))
    return 0


def cmd_solve(args) -> int:
    board = parse_board(_read(args.board))
    result = solve(board, _limits(args))
    if isinstance(result, Solvable):
        trace = render_trace(result.moves)
        if args.out_trace:
            _write_atomic(args.out_trace, trace)
        else:
            sys.stdout.write(trace)
        print(f"solvable moves={len(result.moves)} states={result.states_visited}",
              file=sys.stderr)
        return 0
    if isinstance(result, Unsolvable):
        print(f"error: Unsolvable: no move sequence fills the target "
              f"(states={result.states_visited})", file=sys.stderr)
        return 1
    print(f"error: ResourceExhausted: budget hit after "
          f"{result.states_visited} states", file=sys.stderr)
    return 1


def cmd_replay(args) -> int:
    board = parse_board(_read(args.board))
    moves = parse_trace(_read(args.trace))
    end = replay(board, moves)
    sys.stdout.write(render_board(end))
    print(f"solved={'yes' if is_solved(end) else 'no'}", file=sys.stderr)
    return 0 if is_solved(end) else 1


def cmd_render(args) -> int:
    board = parse_board(_read(args.board))
    sys.stdout.write(render_board(board))
    return 0


def cmd_gadget(args) -> int:
    if args.kind in ("threshold", "shifted-threshold", "wire"):
        b = args.sources if args.kind != "wire" else 1
        k = args.k if args.kind != "wire" else 1
        bp = make_threshold((2, 2), "H", "R", b, k,
                            shifted=args.kind == "shifted-threshold")
        board = isolated_board(bp)
        sidecar = {
            "kind": args.kind,
            "tiles": [list(t) for t in bp.tiles],
            "sources": [list(s) for s in bp.sources],
            "target": list(bp.target),
            "k": bp.k,
            "bbox": list(bp.bbox),
        }
    elif args.kind == "variable":
        bp = make_variable((2, 2 + 3 * (args.length // 2)), args.length)
        board = instantiate([bp], (0, 0), width=bp.bbox[3] + 2, height=5)
        sidecar = {
            "kind": "variable",
            "tiles": [list(t) for t in bp.tiles],
            "sources": [],
            "target": None,
            "k": None,
            "bbox": list(bp.bbox),
            "left_window": list(bp.left_window),
            "right_window": list(bp.right_window),
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ZhedError(f"unknown gadget kind {args.kind}")
    _write_atomic(args.out, render_board(board))
    _write_atomic(args.out + ".json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_oracle(args) -> int:
    formula, _ = rpm3sat.parse_instance(_read(args.instance))
    assignment = rpm3sat.sat_oracle(formula)
    if assignment is None:
        print("error: Unsatisfiable: no assignment satisfies the formula",
              file=sys.stderr)
        return 1
    print(" ".join("1" if v else "0" for v in assignment))
    return 0


def cmd_intended(args) -> int:
    formula, embedding = rpm3sat.parse_instance(_read(args.instance))
    puzzle = reducer.compile(formula, embedding)
    cert_text = reducer.render_certificate(puzzle)
    if _read(args.cert) != cert_text:
        print("error: CertificateMismatch: certificate does not match this "
              "instance", file=sys.stderr)
        return 1
    values = _parse_assignment(_read(args.assignment))
    if len(values) != formula.num_vars:
        raise UnsatisfiedAssignment(
            f"assignment has {len(values)} values, formula has {formula.num_vars}")
    moves = reducer.intended_solution(puzzle, values)
    _write_atomic(args.out_trace, render_trace(moves))
    return 0


def cmd_verify(args) -> int:
    limits = _limits(args)
    artifacts = args.artifacts
    rows = []
    failed = False

    def run(name, report):
        nonlocal failed
        rows.append((name, "pass" if report.passed else "FAIL",
                     "; ".join(report.failures[:2])))
        failed = failed or not report.passed

    run("threshold law (b<=%d)" % args.b_max,
        verify.certify_threshold(args.b_max, False, limits, artifacts))
    run("shifted threshold law",
        verify.certify_threshold(args.b_max, True, limits, artifacts))
    run("variable split safety (L=%d)" % args.variable_length,
        verify.certify_variable(args.variable_length, artifacts))
    run("crossover order tolerance", verify.certify_crossover(artifacts))

    ok = verify.intended_replay_suite(args.samples, args.seed)
    rows.append(("intended replay (%d samples)" % args.samples,
                 "pass" if ok == args.samples else "FAIL",
                 f"{ok}/{args.samples} solved"))
    failed = failed or ok != args.samples

    reports = verify.equivalence_suite(args.max_vars, args.max_clauses,
                                       limits, fail_fast=True)
    exhausted = sum(1 for r in reports if r.exhausted)
    disagreements = [r for r in reports if r.agreement is False]
    replay_bad = [r for r in reports if r.replay_ok is False]
    status = "pass" if not (exhausted or disagreements or replay_bad) else "FAIL"
    rows.append((f"equivalence (n<={args.max_vars}, m<={args.max_clauses})", status,
                 f"{len(reports)} instances, {exhausted} exhausted, "
                 f"{len(disagreements)} disagreements, {len(replay_bad)} bad replays"))
    failed = failed or status == "FAIL"

    width = max(len(r[0]) for r in rows)
    for name, status, detail in rows:
        print(f"{name.ljust(width)}  {status:4}  {detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zhedkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_limits(p):
        p.add_argument("--limits-states", type=_budget, default=10_000_000,
                       metavar="N", help="solver state budget (0 = unlimited)")
        p.add_argument("--limits-ms", type=_budget, default=0, metavar="N",
                       help="solver wall-clock budget in ms (0 = unlimited)")

    p = sub.add_parser("compile", help="compile an instance to a board + certificate")
    p.add_argument("instance")
    p.add_argument("out_board")
    p.add_argument("out_cert")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("solve", help="decide solvability of a board")
    p.add_argument("board")
    p.add_argument("out_trace", nargs="?")
    add_limits(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("replay", help="replay a trace against a board")
    p.add_argument("board")
    p.add_argument("trace")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("render", help="parse and re-render a board file")
    p.add_argument("board")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gadget", help="emit a single gadget board + JSON sidecar")
    p.add_argument("kind", choices=["threshold", "shifted-threshold", "wire", "variable"])
    p.add_argument("out")
    p.add_argument("--sources", type=_bounded_int(1), default=5, help="gap count b")
    p.add_argument("-k", type=_bounded_int(1), default=3,
                   help="threshold parameter, at most --sources")
    p.add_argument("--length", type=_bounded_int(2, even=True), default=8,
                   help="variable length L")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("oracle", help="brute-force satisfiability of an instance")
    p.add_argument("instance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("intended", help="write the intended solution trace")
    p.add_argument("instance")
    p.add_argument("cert")
    p.add_argument("assignment", help="file with n values 0/1/false/true; '#' comments")
    p.add_argument("out_trace")
    p.set_defaults(func=cmd_intended)

    p = sub.add_parser("verify", help="run the certification suite")
    # the exhaustive walks' guards are usage errors, checked before any walk runs
    p.add_argument("--b-max", type=_bounded_int(1, high=verify.CERT_B_MAX), default=5)
    p.add_argument("--variable-length", default=8,
                   type=_bounded_int(2, high=verify.CERT_L_MAX, even=True))
    p.add_argument("--max-vars", type=_bounded_int(1), default=3)
    p.add_argument("--max-clauses", type=_bounded_int(1), default=2)
    p.add_argument("--samples", type=_bounded_int(0), default=20)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--artifacts", default=None,
                   help="directory for failure artifacts (board + trace files)")
    add_limits(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is cmd_gadget and args.kind.endswith("threshold") and args.k > args.sources:
            parser.error(f"argument -k: must be <= --sources ({args.sources}), got {args.k}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ZhedError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # missing file, directory given as a file, no permission
        print(f"error: {type(exc).__name__.removesuffix('Error')}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
