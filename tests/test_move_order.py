"""The search's once-per-search move order against a per-node scan and sort."""

import random

import pytest

from zhedkit import reducer, rpm3sat, search
from zhedkit.board import BLANK, EMPTY, Board, Move, board_from_cells
from zhedkit.solver import Solvable, SolveLimits, solve

DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # U, R, D, L


def reference_ordered_moves(cells, width, height, tr, tc, prune_zero):
    """Scan every cell of this state and sort its moves by the fixed heuristic.

    Moves that fill something first, then rays toward the target, then
    row-major by tile, then U, R, D, L.
    """
    keys = []
    for idx, v in enumerate(cells):
        if v == EMPTY or v == BLANK:
            continue
        r, c = divmod(idx, width)
        for d, (dr, dc) in enumerate(DELTAS):
            rr, cc = r + dr, c + dc
            effect = False
            while 0 <= rr < height and 0 <= cc < width:
                if cells[rr * width + cc] == EMPTY:
                    effect = True
                    break
                rr, cc = rr + dr, cc + dc
            if not effect and prune_zero:
                continue
            toward = ((d == 0 and tr < r) or (d == 1 and tc > c)
                      or (d == 2 and tr > r) or (d == 3 and tc < c))
            keys.append((not effect, not toward, idx, d))
    keys.sort()
    return [idx * 4 + d for _, _, idx, d in keys]


def random_board(rng):
    w, h = rng.randint(2, 7), rng.randint(1, 6)
    cells = bytearray(w * h)
    for i in range(w * h):
        roll = rng.random()
        if roll < 0.3:
            cells[i] = rng.randint(1, max(1, max(w, h) - 1))
        elif roll < 0.42:
            cells[i] = BLANK
    return Board(w, h, (rng.randrange(h), rng.randrange(w)), bytes(cells))


def assert_matches_reference_along_random_plays(board, rng, plays):
    """Compare the two orders on the start board and on states after random moves."""
    w, h = board.width, board.height
    tr, tc = board.target
    order = search.move_order(board.cells, w, tr, tc)
    for _ in range(plays):
        cells = board.cells
        while True:
            for prune in (False, True):
                got = search.ordered_moves(cells, w, h, order, prune)
                assert got == reference_ordered_moves(cells, w, h, tr, tc, prune)
            moves = search.ordered_moves(cells, w, h, order, False)
            if not moves:
                break
            cells, _ = search.apply_encoded(cells, w, h, rng.choice(moves))


def test_matches_reference_on_random_boards_and_reachable_states():
    rng = random.Random(42)
    for _ in range(150):
        assert_matches_reference_along_random_plays(random_board(rng), rng, plays=3)


@pytest.mark.parametrize("text", ["p rpm3sat 1\npos 1\n", "p rpm3sat 2\npos 1 2\n"])
def test_matches_reference_on_compiled_boards(text):
    formula, embedding = rpm3sat.parse_instance(text)
    board = reducer.compile(formula, embedding).board
    assert_matches_reference_along_random_plays(board, random.Random(43), plays=2)


def test_move_index_is_exact_on_boards_of_two_to_the_18_cells():
    # move codes here need more than 20 bits
    board = board_from_cells(1024, 257, (256, 1023), {(256, 1022): 1})
    assert board.width * board.height >= 1 << 18
    tile = 256 * 1024 + 1022
    assert tile == 263166
    order = search.move_order(board.cells, board.width, *board.target)
    moves = search.ordered_moves(board.cells, board.width, board.height, order, False)
    # R points at the target; U and L fill something; D runs off the board
    assert moves == [tile * 4 + 1, tile * 4 + 0, tile * 4 + 3, tile * 4 + 2]
    result = solve(board, SolveLimits(max_states=3))
    assert isinstance(result, Solvable)
    assert result.moves == (Move(256, 1022, "R"),)
