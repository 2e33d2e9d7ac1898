"""ZHED game state and move semantics.

A board is a rectangular grid of squares, each Empty, Blank (filled, no
number) or Numbered.  A move selects a numbered tile and a direction; the
tile goes Blank and its number k fills the k closest *unfilled* squares in
that direction.  Already-filled squares are skipped, not consumed, and a ray
that runs off the board edge is truncated (the move stays legal).

Boards are immutable; apply_move returns a fresh board.  They serve parsing,
replay and the tests; the search core plays and undoes moves on its own
bytearray of the cells instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import DuplicateTarget, MissingTarget, NotATile, OutOfBounds, ParseError

EMPTY = 0
BLANK = 255
MAX_VALUE = 254  # 255 is the Blank sentinel in the cell byte array

DIRECTIONS = "URDL"
_DELTAS = {"U": (-1, 0), "R": (0, 1), "D": (1, 0), "L": (0, -1)}


class Move(NamedTuple):
    row: int
    col: int
    direction: str  # one of "URDL"


@dataclass(frozen=True)
class Board:
    width: int
    height: int
    target: tuple[int, int]
    cells: bytes  # row-major; EMPTY, BLANK, or a tile value 1..254

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("board dimensions must be >= 1")
        if len(self.cells) != self.width * self.height:
            raise ValueError("cell array does not match dimensions")
        tr, tc = self.target
        if not (0 <= tr < self.height and 0 <= tc < self.width):
            raise OutOfBounds(f"target {self.target} outside {self.width}x{self.height} board")
        bound = max(self.width, self.height) - 1
        for i, v in enumerate(self.cells):
            if v in (EMPTY, BLANK):
                continue
            if not 1 <= v <= min(bound, MAX_VALUE):
                raise ValueError(f"cell {divmod(i, self.width)} has invalid tile value {v}")

    # -- helpers ------------------------------------------------------------

    def index(self, row: int, col: int) -> int:
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise OutOfBounds(f"({row}, {col}) outside {self.width}x{self.height} board")
        return row * self.width + col

    def at(self, row: int, col: int) -> int:
        """Raw cell byte: EMPTY, BLANK, or the tile number."""
        return self.cells[self.index(row, col)]

    def tiles(self) -> Iterator[tuple[int, int, int]]:
        """Yield (row, col, value) for every numbered tile, row-major."""
        for i, v in enumerate(self.cells):
            if v not in (EMPTY, BLANK):
                yield (*divmod(i, self.width), v)

    def tile_count(self) -> int:
        return sum(1 for v in self.cells if v not in (EMPTY, BLANK))


def board_from_cells(width: int, height: int, target: tuple[int, int],
                     filled: dict[tuple[int, int], int]) -> Board:
    """Build a board from a sparse {(row, col): value} mapping.

    Values are tile numbers; use BLANK for pre-filled blank squares.
    """
    cells = bytearray(width * height)
    for (r, c), v in filled.items():
        if not (0 <= r < height and 0 <= c < width):
            raise OutOfBounds(f"({r}, {c}) outside {width}x{height} board")
        cells[r * width + c] = v
    return Board(width, height, target, bytes(cells))


# -- operations --------------------------------------------------------------

def apply_move(board: Board, move: Move) -> Board:
    """Expand the numbered tile at move's coordinate in its direction.

    The tile square becomes Blank; scanning outward, the first
    min(k, available) Empty squares before the edge become Blank.  Raises
    NotATile when the selected square is Empty or Blank.
    """
    idx = board.index(move.row, move.col)
    k = board.cells[idx]
    if k in (EMPTY, BLANK):
        raise NotATile(f"square ({move.row}, {move.col}) holds no numbered tile")
    if move.direction not in _DELTAS:
        raise ValueError(f"bad direction {move.direction!r}")
    dr, dc = _DELTAS[move.direction]
    cells = bytearray(board.cells)
    cells[idx] = BLANK
    r, c = move.row + dr, move.col + dc
    while k and 0 <= r < board.height and 0 <= c < board.width:
        j = r * board.width + c
        if cells[j] == EMPTY:
            cells[j] = BLANK
            k -= 1
        r += dr
        c += dc
    return Board(board.width, board.height, board.target, bytes(cells))


def legal_moves(board: Board) -> list[Move]:
    """Every (numbered tile, direction) pair, in row-major then URDL order.

    Legality does not depend on effect: moves that would fill zero squares
    are included.
    """
    moves = []
    for r, c, _ in board.tiles():
        for d in DIRECTIONS:
            moves.append(Move(r, c, d))
    return moves


def is_solved(board: Board) -> bool:
    """True iff the target square is filled (Blank or Numbered)."""
    return board.cells[board.target[0] * board.width + board.target[1]] != EMPTY


# -- text format --------------------------------------------------------------
#
# line 1: zhed v1 <width> <height>
# line 2: target <row> <col>          (0-based, row 0 = top)
# then <height> rows of exactly <width> logical cells:
#   .      Empty
#   #      Blank
#   1-9    tile with that number
#   [N]    tile with number N >= 10 (one logical cell)

def render_board(board: Board) -> str:
    lines = [f"zhed v1 {board.width} {board.height}",
             f"target {board.target[0]} {board.target[1]}"]
    for r in range(board.height):
        row = []
        for c in range(board.width):
            v = board.cells[r * board.width + c]
            if v == EMPTY:
                row.append(".")
            elif v == BLANK:
                row.append("#")
            elif v <= 9:
                row.append(str(v))
            else:
                row.append(f"[{v}]")
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def _parse_grid_line(text: str, width: int, lineno: int) -> bytes:
    cells = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == ".":
            cells.append(EMPTY)
            i += 1
        elif ch == "#":
            cells.append(BLANK)
            i += 1
        elif ch.isdigit():
            if ch == "0":
                raise ParseError("tile value 0 is not allowed", lineno, i + 1)
            cells.append(int(ch))
            i += 1
        elif ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise ParseError("unterminated [N] cell", lineno, i + 1)
            body = text[i + 1:end]
            if not body.isdigit():
                raise ParseError(f"bad [N] cell {body!r}", lineno, i + 1)
            v = int(body)
            if not 1 <= v <= MAX_VALUE:
                raise ParseError(f"tile value {v} out of range 1..{MAX_VALUE}", lineno, i + 1)
            cells.append(v)
            i = end + 1
        else:
            raise ParseError(f"bad cell character {ch!r}", lineno, i + 1)
        if len(cells) > width:
            raise ParseError(f"row longer than declared width {width}", lineno, i)
    if len(cells) != width:
        raise ParseError(f"row has {len(cells)} cells, expected {width}", lineno, len(text))
    return bytes(cells)


def parse_board(text: str) -> Board:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty board file", 1)
    head = lines[0].split()
    if len(head) != 4 or head[0] != "zhed" or head[1] != "v1":
        raise ParseError("expected header 'zhed v1 <width> <height>'", 1)
    try:
        width, height = int(head[2]), int(head[3])
    except ValueError:
        raise ParseError("non-integer board dimensions", 1) from None
    if width < 1 or height < 1:
        raise ParseError("board dimensions must be >= 1", 1)

    target = None
    grid_rows: list[bytes] = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if raw.startswith("target"):
            parts = raw.split()
            if len(parts) != 3:
                raise ParseError("expected 'target <row> <col>'", lineno)
            if target is not None:
                raise DuplicateTarget("second target line", lineno)
            try:
                target = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ParseError("non-integer target coordinate", lineno) from None
            if not (0 <= target[0] < height and 0 <= target[1] < width):
                raise ParseError(f"target {target} out of bounds", lineno)
        else:
            if len(grid_rows) >= height:
                raise ParseError("more grid rows than declared height", lineno)
            grid_rows.append(_parse_grid_line(raw, width, lineno))
    if target is None:
        raise MissingTarget("no target line", lineno)
    if len(grid_rows) != height:
        raise ParseError(f"found {len(grid_rows)} grid rows, expected {height}", lineno)
    try:
        return Board(width, height, target, b"".join(grid_rows))
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
