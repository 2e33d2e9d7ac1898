"""Solvability decision by complete search.

solve() runs a depth-first search over move sequences with a memo set of
the states proved non-winning, which are never re-expanded.  A memo key is
exact, not a hash: the bitmask of the squares that differ from the start
board, which determines the state because a move only turns its tile and
empty squares into blanks.  So an Unsolvable verdict has no collision
caveat: every state the memo skips was fully expanded before.
The classification (Solvable / Unsolvable) is independent of exploration
order; the witness follows the fixed move-ordering heuristic (ray toward
the target first, ties by row-major coordinate then U,R,D,L).  The search
core ranks the start board's moves once per search and at each node takes
those whose tile is unspent and whose ray meets an empty square.  That is
exact because a move only blanks its own tile and fills empty squares: no
square ever gains or changes a number, so every reachable state's tiles are
a subset of the start board's.  The core keeps the board's empty squares
as one int, so a ray's nearest empty square is the highest bit of the
ray's mask for L and U and its lowest for R and D; popping
a child restores the node's state bit for bit, so a node resumed after a
child's subtree sees the same moves it started with.  A
move found to fill nothing is known to fill nothing in the whole subtree
below, since moves only ever fill empty squares.  Sleep sets skip a
move whose child is provably memoized already: moves of different tiles
whose fills are disjoint commute, so after trying u and then t at a node,
the t-child need not try u again when u's ray crosses none of t's fills.
They skip only children the memo would reject, so verdicts, witnesses and
state counts are those of the search without them.

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

from dataclasses import dataclass

from . import search
from .board import Board, Move, apply_move, is_solved
from .errors import NotATile, OutOfBounds, ParseError, ReplayError, ZhedError

_DIR_BY_INDEX = "URDL"
_INDEX_BY_DIR = {d: i for i, d in enumerate(_DIR_BY_INDEX)}


@dataclass(frozen=True)
class SolveLimits:
    """Search budget; None means unlimited.  Both must be positive when set."""
    max_states: int | None = None
    max_millis: int | None = None

    def __post_init__(self):
        if self.max_states is not None and self.max_states <= 0:
            raise ValueError("max_states must be positive")
        if self.max_millis is not None and self.max_millis <= 0:
            raise ValueError("max_millis must be positive")


UNLIMITED = SolveLimits()


@dataclass(frozen=True)
class Solvable:
    moves: tuple[Move, ...]
    states_visited: int


@dataclass(frozen=True)
class Unsolvable:
    states_visited: int


@dataclass(frozen=True)
class ResourceExhausted:
    states_visited: int


SolveResult = Solvable | Unsolvable | ResourceExhausted


def decode_move(board: Board, encoded: int) -> Move:
    idx, d = encoded >> 2, encoded & 3
    return Move(idx // board.width, idx % board.width, _DIR_BY_INDEX[d])


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
        if len(parts) != 3 or parts[2] not in _INDEX_BY_DIR:
            raise ParseError("expected '<row> <col> <U|D|L|R>'", lineno)
        try:
            moves.append(Move(int(parts[0]), int(parts[1]), parts[2]))
        except ValueError:
            raise ParseError("non-integer move coordinate", lineno) from None
    return moves
