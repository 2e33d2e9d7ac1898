"""Executable certification of the gadget laws and the reduction.

Gadget-level checks run full searches over isolated gadget boards: the
threshold law (target fillable iff enough sources pre-filled) must hold
under every move order, fills must stay inside the declared bounding box,
variable strips must never feed readers on both sides, and a crossover
played in the wrong order must perturb the horizontal gadget's reach by
exactly one square.  A threshold gadget is certified on
gadgets.isolated_board: its whole bounding box plus a ring of one square,
so a fill that escapes the box shows up as a fill of the ring.

The equivalence suite compares sat_oracle against solve(compile(F)) over
small formula families and replays the intended solution on satisfiable
instances.  A report never claims agreement when the solver ran out of
budget; such outcomes are carried separately.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from typing import NamedTuple

from . import reducer, rpm3sat
from .board import BLANK, Board, Move, apply_move, is_solved, render_board
from .errors import CertificationFailure, NotEmbeddable
from .gadgets import instantiate, isolated_board, make_crossover, make_threshold, make_variable
from .rpm3sat import Formula, render_instance, sat_oracle
from .solver import (Solvable, SolveLimits, Unsolvable, render_trace, replay,
                     solve)
from . import search

CERT_B_MAX = 6  # search-space guard for exhaustive threshold certification
CERT_L_MAX = 10  # 2^L move orders bound exhaustive variable certification


class GadgetReport:
    """What one gadget certifier found.

    failures lists every broken law, empty when the gadget passed.  Only
    the variable and crossover certifiers fill verdicts, with the outcome
    of each case they play; the threshold certifier reports failures only.
    """
    __slots__ = ("verdicts", "failures")

    def __init__(self):
        self.verdicts = {}
        self.failures = []

    @property
    def passed(self) -> bool:
        return not self.failures


class EquivalenceReport(NamedTuple):
    formula: str
    oracle_satisfiable: bool
    solver_verdict: str         # "solvable" | "unsolvable" | "exhausted" | "skipped"
    states_visited: int
    replay_ok: bool | None      # None when the formula is unsatisfiable
    agreement: bool | None      # None when the solver was exhausted or skipped

    @property
    def exhausted(self) -> bool:
        return self.solver_verdict == "exhausted"


def _save_artifact(artifacts_dir, name: str, board: Board,
                   limits: SolveLimits | None = None) -> None:
    """Write board; with limits, also the witness trace solve finds for it."""
    if artifacts_dir is None:
        return
    path = Path(artifacts_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{name}.board").write_text(render_board(board), encoding="utf-8")
    if limits is not None and isinstance(result := solve(board, limits), Solvable):
        (path / f"{name}.trace").write_text(render_trace(result.moves), encoding="utf-8")


def _prefilled(board: Board, squares) -> Board:
    """board with the given squares pre-filled Blank."""
    cells = bytearray(board.cells)
    for r, c in squares:
        cells[r * board.width + c] = BLANK
    return Board(board.width, board.height, board.target, bytes(cells))


def _reach(board: Board, square, delta) -> int:
    """Non-empty squares in an unbroken run from square (exclusive) along delta."""
    dr, dc = delta
    r, c = square[0] + dr, square[1] + dc
    reach = 0
    while 0 <= r < board.height and 0 <= c < board.width and board.at(r, c) != 0:
        reach += 1
        r, c = r + dr, c + dc
    return reach


def certify_threshold(b_max: int = 5, shifted: bool = False,
                      limits: SolveLimits | None = None,
                      artifacts_dir=None) -> GadgetReport:
    """Threshold law and containment, exhaustively.

    For every gap count b <= b_max and every subset of pre-filled sources,
    one full walk of the isolated gadget's state space decides fillability
    of every k's target at once (a cell is fillable iff some reachable
    state fills it; the target for k lies b - k squares before the one for
    k = b) and yields the union of all filled cells for the containment
    check.  The board is the bounding box plus a ring of one square, and
    containment is "no reachable state fills the ring": a fill past the box
    would have to fill the ring square on its ray first, because that
    square starts Empty and only a fill can make a ray pass it.
    """
    if b_max > CERT_B_MAX:
        raise CertificationFailure(f"b_max {b_max} exceeds exhaustive guard {CERT_B_MAX}")
    limits = limits or SolveLimits()
    report = GadgetReport()
    prefix = "shifted-" if shifted else ""  # a plain and a shifted walk may share a directory
    for b in range(1, b_max + 1):
        bp = make_threshold((0, 0), "H", "R", b, b, shifted=shifted)
        for subset in itertools.product((0, 1), repeat=b):
            j = sum(subset)
            bits = "".join(map(str, subset))  # names this subset's artifacts
            board = isolated_board(bp, [i for i in range(b) if subset[i]])
            width, height = board.width, board.height
            tr, tc = board.target
            fillable, union, states, complete = search.explore(
                board.cells, width, height, tr * width + tc,
                limits.max_states or 0, limits.max_millis or 0)
            if not complete:
                report.failures.append(f"b={b} subset={subset}: search budget exceeded")
                continue
            for k in range(1, b + 1):
                target = (tr, tc - (b - k))
                got = bool(union[target[0] * width + target[1]])
                if got != (j >= k):
                    report.failures.append(f"b={b} k={k} j={j} subset={subset}: "
                                           f"fillable={got}, law says {j >= k}")
                    _save_artifact(artifacts_dir, f"{prefix}threshold-b{b}-k{k}-s{bits}",
                                   Board(width, height, target, board.cells),
                                   limits if got else None)
            for idx, filled in enumerate(union):
                r, c = divmod(idx, width)
                if filled and (r in (0, height - 1) or c in (0, width - 1)):
                    report.failures.append(
                        f"b={b} subset={subset}: fill at {(r, c)} escapes the bbox")
                    _save_artifact(artifacts_dir, f"{prefix}containment-b{b}-s{bits}-at{r}-{c}",
                                   Board(width, height, (r, c), board.cells), limits)
    return report


def _play_all(board: Board, steps):
    """The end board of every pick of one move per step, in itertools.product order.

    boards[i] is the board after the first i moves of the last pick, and a
    pick replays only from its first step that differs from the last one,
    so each prefix is played once: 2^(n+1) - 2 apply_move calls for n steps
    of two moves, where replaying every pick takes n 2^n.
    """
    boards, last = [board], ()
    for pick in itertools.product(*steps):
        i = next((i for i, (a, b) in enumerate(zip(last, pick)) if a is not b), len(last))
        del boards[i + 1:]
        for move in pick[i:]:
            boards.append(apply_move(boards[-1], move))
        last = pick
        yield boards[-1]


def certify_variable(length: int = 8, artifacts_dir=None) -> GadgetReport:
    """Split safety: readers on both sides never fire together.

    Exhausts all 2^L left/right assignments, each played left to right; a
    reader at distance d is reached iff the strip's reach on that side is at
    least d, and readers sit at distances L/2+1 .. L.  One play order is
    enough: the strip's tiles are contiguous, so every L or R move fills the
    nearest EMPTY squares beyond the strip's end, and every order of an
    assignment ends on the same board.  verdicts maps each assignment to the
    (left, right) reach measured after playing it.
    """
    if length > CERT_L_MAX:
        raise CertificationFailure(
            f"L={length} exceeds the exhaustiveness bound {CERT_L_MAX}")
    report = GadgetReport()
    half = length // 2
    bp = make_variable((2, 2 + 3 * half), length)
    board = instantiate([bp], (0, 0), width=bp.bbox[3] + 2, height=5)
    steps = [[Move(bp.row, bp.col0 + i, d) for d in "LR"] for i in range(length)]
    for dirs, end in zip(itertools.product("LR", repeat=length), _play_all(board, steps)):
        reach = _reach(end, bp.tiles[0], (0, -1)), _reach(end, bp.tiles[-1], (0, 1))
        report.verdicts[dirs] = reach
        name, x, y = "".join(dirs), dirs.count("L"), dirs.count("R")
        if reach != (x, y):
            report.failures.append(
                f"dirs={name}: reach ({reach[0]},{reach[1]}), expected ({x},{y})")
            _save_artifact(artifacts_dir, f"variable-{name}", end)
        if min(reach) >= half + 1:
            report.failures.append(f"dirs={name}: readers reachable on both sides")
            _save_artifact(artifacts_dir, f"variable-split-{name}", end)
    return report


def certify_crossover(artifacts_dir=None) -> GadgetReport:
    """Crossover order tolerance.

    Builds a horizontal and a vertical threshold gadget sharing a blank
    intersection.  Horizontal-first play preserves both laws with the
    vertical k already incremented; vertical-first play extends the
    horizontal gadget's reach by exactly one square.
    """
    report = GadgetReport()
    h = make_threshold((6, 2), "H", "R", 3, 1)
    v = make_threshold((9, 7), "V", "U", 3, 1)
    cross = make_crossover(h, v, (6, 7)).intersection
    h_alone = instantiate([h], (0, 0), width=16, height=13)
    board = instantiate([h, v], v.target, width=16, height=13)

    def h_reach(state: Board) -> int:
        """Squares filled beyond h's last tile after its intended activation."""
        return _reach(replay(state, h.activation_order), h.tiles[-1], h.delta)

    h_externals = [s for s in h.sources if s != cross]
    for j_h in range(len(h_externals) + 1):
        # reach of the horizontal gadget alone, with j_h sources pre-filled
        alone = h_reach(_prefilled(h_alone, h_externals[:j_h]))
        # vertical first, then horizontal: reach grows by exactly one
        after_v = replay(_prefilled(board, h_externals[:j_h]), v.activation_order)
        reach = h_reach(after_v)
        report.verdicts[("vertical-first", j_h)] = reach
        if reach != alone + 1:
            report.failures.append(
                f"vertical-first with j={j_h}: horizontal reach {reach}, "
                f"expected {alone} + 1")
            _save_artifact(artifacts_dir, f"crossover-vfirst-j{j_h}", after_v)

    # horizontal first (its rear source pre-filled so it activates): the
    # vertical gadget obeys its original law (one real source) relative to
    # the moved target
    v_externals = [s for s in v.sources if s != cross]
    for j_v in (0, 1):
        state = _prefilled(board, [*v_externals[:j_v], h.sources[0]])
        state = replay(state, h.activation_order)
        state = replay(state, v.activation_order)
        got = is_solved(state)
        report.verdicts[("horizontal-first", j_v)] = got
        if got != (j_v >= 1):
            report.failures.append(f"horizontal-first with j={j_v}: "
                                   f"target filled={got}, law says {j_v >= 1}")
            _save_artifact(artifacts_dir, f"crossover-hfirst-j{j_v}", state)
    return report


# -- equivalence ----------------------------------------------------------------

def enumerate_formulas(max_vars: int, max_clauses: int):
    """All monotone formulas (clause multisets) over 1..max_vars variables."""
    for n in range(1, max_vars + 1):
        universe = []
        for size in (1, 2, 3):
            for vars_ in itertools.combinations(range(1, n + 1), size):
                for pol in (rpm3sat.POSITIVE, rpm3sat.NEGATIVE):
                    universe.append(rpm3sat.Clause(pol, vars_))
        for m in range(1, max_clauses + 1):
            for clauses in itertools.combinations_with_replacement(universe, m):
                yield Formula(n, clauses)


def check_instance(formula: Formula, limits: SolveLimits | None) -> EquivalenceReport:
    """sat_oracle vs solve(compile(F)) plus the intended replay for one formula.

    With limits None the solver is skipped: the verdict reads "skipped" and
    agreement stays None.  Raises NotEmbeddable when auto_embed rejects F.
    """
    puzzle = reducer.compile(formula)
    assignment = sat_oracle(formula)
    verdict, states = "skipped", 0
    if limits is not None:
        result = solve(puzzle.board, limits)
        states = result.states_visited
        if isinstance(result, Solvable):
            verdict = "solvable"
        elif isinstance(result, Unsolvable):
            verdict = "unsolvable"
        else:
            verdict = "exhausted"
    replay_ok = None
    if assignment is not None:
        end = replay(puzzle.board, reducer.intended_solution(puzzle, assignment))
        replay_ok = is_solved(end)
    agreement = None
    if verdict in ("solvable", "unsolvable"):
        agreement = (assignment is not None) == (verdict == "solvable")
    return EquivalenceReport(
        formula=render_instance(formula).strip().replace("\n", "; "),
        oracle_satisfiable=assignment is not None,
        solver_verdict=verdict,
        states_visited=states,
        replay_ok=replay_ok,
        agreement=agreement)


def equivalence_suite(max_vars: int = 3, max_clauses: int = 2,
                      limits: SolveLimits | None = None,
                      fail_fast: bool = False) -> list[EquivalenceReport]:
    """sat_oracle vs solve(compile(F)) over every auto-embeddable formula.

    With fail_fast, stops solving at the first disagreement or budget
    exhaustion; the remaining instances are reported "skipped" and still
    get their intended-solution replay check.
    """
    limits = limits or SolveLimits(max_states=10_000_000)
    reports = []
    solver_enabled = True
    for formula in enumerate_formulas(max_vars, max_clauses):
        try:
            report = check_instance(formula, limits if solver_enabled else None)
        except NotEmbeddable:
            continue
        if fail_fast and (report.exhausted or report.agreement is False):
            solver_enabled = False
        reports.append(report)
    return reports


def random_satisfiable_formula(rng: random.Random, max_vars: int = 8,
                               max_clauses: int = 6) -> Formula:
    """Seeded rejection sampler: auto-embeddable and satisfiable."""
    while True:
        n = rng.randint(1, max_vars)
        m = rng.randint(1, max_clauses)
        clauses = []
        for _ in range(m):
            size = rng.randint(1, min(3, n))
            vars_ = tuple(sorted(rng.sample(range(1, n + 1), size)))
            pol = rng.choice((rpm3sat.POSITIVE, rpm3sat.NEGATIVE))
            clauses.append(rpm3sat.Clause(pol, vars_))
        formula = Formula(n, tuple(clauses))
        try:
            rpm3sat.auto_embed(formula)
        except NotEmbeddable:
            continue
        if sat_oracle(formula) is None:
            continue
        return formula


def intended_replay_suite(count: int = 20, seed: int = 2024) -> int:
    """Replay the intended solution on seeded random satisfiable instances.

    Returns how many of the count instances it solves within the move bound
    (no more moves than the board has tiles).
    """
    rng = random.Random(seed)
    ok = 0
    for _ in range(count):
        formula = random_satisfiable_formula(rng)
        puzzle = reducer.compile(formula)
        moves = reducer.intended_solution(puzzle, sat_oracle(formula))
        if is_solved(replay(puzzle.board, moves)) and len(moves) <= puzzle.board.tile_count():
            ok += 1
    return ok
