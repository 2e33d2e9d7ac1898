"""Solvability decision by complete search.

solve() runs a depth-first search over move sequences with a memo set of
the states proved non-winning, which are never re-expanded.  A memo key is
exact, not a hash: the bitmask of the squares that differ from the start
board, which determines the state because a move only turns its tile and
empty squares into blanks.  So an Unsolvable verdict has no collision
caveat: every state the memo skips was fully expanded before.
The classification (Solvable / Unsolvable) is independent of exploration
order; the witness follows the fixed move-ordering heuristic (ray toward
the target first, ties by row-major coordinate then U,R,D,L).  The
zhedkit.search docstring describes the traversal and argues each of its
shortcuts exact; its sleep sets skip only children the memo would reject,
so verdicts, witnesses and state counts are those of the search without
them.

The search never plays a move that fills nothing (an idle move), and loses
no verdict or witness by it.  An idle move's child s.t has the same empty
squares as s and a subset of its tiles, and solvability is monotone in
both: a solving sequence for s.t replays on s, filling at least as much.
So s.t is unsolvable whenever every move of s that fills something fails,
and a search that tried idle moves last would only visit more states: 64
(one per set of spent tiles) on a board whose six tiles are all blocked,
where this search visits 1.
"""

from __future__ import annotations

from typing import NamedTuple

from . import search
from .board import DELTAS, DIRECTIONS, Board, Move, apply_move, is_solved
from .errors import NotATile, OutOfBounds, ParseError, ReplayError


class _Limits(NamedTuple):
    max_states: int | None = None
    max_millis: int | None = None


class SolveLimits(_Limits):
    """Search budget; None means unlimited.  Both must be positive when set."""
    __slots__ = ()

    def __new__(cls, max_states: int | None = None, max_millis: int | None = None):
        if max_states is not None and max_states <= 0:
            raise ValueError("max_states must be positive")
        if max_millis is not None and max_millis <= 0:
            raise ValueError("max_millis must be positive")
        return tuple.__new__(cls, (max_states, max_millis))


UNLIMITED = SolveLimits()


def _same_verdict(self, other) -> bool:
    """Verdicts of different types differ, even when their fields agree."""
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_verdict(self, other) -> bool:
    return not _same_verdict(self, other)


class Solvable(NamedTuple):
    moves: tuple[Move, ...]
    states_visited: int
    __eq__, __ne__ = _same_verdict, _other_verdict


class Unsolvable(NamedTuple):
    states_visited: int
    __eq__, __ne__ = _same_verdict, _other_verdict


class ResourceExhausted(NamedTuple):
    states_visited: int
    __eq__, __ne__ = _same_verdict, _other_verdict


SolveResult = Solvable | Unsolvable | ResourceExhausted


def decode_move(board: Board, encoded: int) -> Move:
    idx, d = encoded >> 2, encoded & 3
    return Move(idx // board.width, idx % board.width, DIRECTIONS[d])


def solve(board: Board, limits: SolveLimits | None = None) -> SolveResult:
    """Decide solvability; complete within the given limits.

    Solvable results carry a witness that replays to a solved board (checked
    before returning); Unsolvable means no move sequence fills the target.
    When a limit stops the search first, ResourceExhausted reports the memo
    insertion count reached.
    """
    limits = limits or UNLIMITED
    target = board.target[0] * board.width + board.target[1]
    status, encoded, states = search.solve(
        board.cells, board.width, board.height, target,
        limits.max_states or 0, limits.max_millis or 0)
    if status == search.SOLVED:
        moves = tuple(decode_move(board, m) for m in encoded)
        if not is_solved(replay(board, moves)):
            raise AssertionError("solver returned a witness that does not solve the board")
        return Solvable(moves, states)
    if status == search.UNSOLVED:
        return Unsolvable(states)
    return ResourceExhausted(states)


def replay(board: Board, moves) -> Board:
    """Fold apply_move over the sequence; annotates failures with the index."""
    current = board
    for i, move in enumerate(moves):
        try:
            current = apply_move(current, move)
        except (NotATile, OutOfBounds) as exc:
            raise ReplayError(i, exc) from exc
    return current


# -- solution trace format ----------------------------------------------------
#
# One move per line: "<row> <col> <U|D|L|R>".  Lines starting with '#' are
# comments; blank lines are ignored.

def render_trace(moves) -> str:
    return "".join(f"{m.row} {m.col} {m.direction}\n" for m in moves)


def parse_trace(text: str) -> list[Move]:
    moves = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in DELTAS:
            raise ParseError("expected '<row> <col> <U|D|L|R>'", lineno)
        try:
            moves.append(Move(int(parts[0]), int(parts[1]), parts[2]))
        except ValueError:
            raise ParseError("non-integer move coordinate", lineno) from None
    return moves
