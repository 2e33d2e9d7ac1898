"""Compiled and pure-Python kernels must behave identically."""

import random

import pytest

from zhedkit import search, search_slow
from zhedkit.board import BLANK, EMPTY, Board
from zhedkit.gadgets import instantiate, make_shifted_threshold, make_threshold

search_fast = pytest.importorskip("zhedkit.search_fast",
                                  reason="compiled kernel not built")


def random_board(rng):
    w, h = rng.randint(2, 6), rng.randint(1, 5)
    cells = bytearray(w * h)
    for i in range(w * h):
        roll = rng.random()
        if roll < 0.3:
            cells[i] = rng.randint(1, max(1, max(w, h) - 1))
        elif roll < 0.42:
            cells[i] = BLANK
    return Board(w, h, (rng.randrange(h), rng.randrange(w)), bytes(cells))


def test_selected_kernel_is_compiled():
    assert search.KERNEL == "cython"


def test_solve_parity_on_random_boards():
    # identical budgets give identical traversals, exhausted cases included
    rng = random.Random(31)
    for _ in range(80):
        b = random_board(rng)
        t = b.target[0] * b.width + b.target[1]
        slow = search_slow.solve(b.cells, b.width, b.height, t, 20_000, 0, False)
        fast = search_fast.solve(b.cells, b.width, b.height, t, 20_000, 0, False)
        assert slow == fast


def test_explore_parity_on_random_boards():
    rng = random.Random(32)
    for _ in range(50):
        b = random_board(rng)
        t = b.target[0] * b.width + b.target[1]
        slow = search_slow.explore(b.cells, b.width, b.height, t, 20_000, 0)
        fast = search_fast.explore(b.cells, b.width, b.height, t, 20_000, 0)
        assert slow[0] == fast[0]
        assert bytes(slow[1]) == bytes(fast[1])
        assert slow[2:] == fast[2:]


def test_parity_on_digest_keyed_boards():
    # boards over 64 cells use hashed memo keys in both kernels
    for shifted in (False, True):
        make = make_shifted_threshold if shifted else make_threshold
        bp = make((2, 2), "H", "R", 4, 2)
        bp.prefilled = bp.sources[:2]
        board = instantiate([bp], bp.target)
        assert board.width * board.height > 64
        t = board.target[0] * board.width + board.target[1]
        slow = search_slow.solve(board.cells, board.width, board.height, t, 0, 0, False)
        fast = search_fast.solve(board.cells, board.width, board.height, t, 0, 0, False)
        assert slow == fast


def test_move_ordering_parity():
    rng = random.Random(33)
    for _ in range(40):
        b = random_board(rng)
        tr, tc = b.target
        order = search_slow.move_order(b.cells, b.width, tr, tc)
        assert order == search_fast.move_order(b.cells, b.width, tr, tc)
        for prune in (False, True):
            slow = search_slow.ordered_moves(b.cells, b.width, b.height, order, prune)
            fast = search_fast.ordered_moves(b.cells, b.width, b.height, order, prune)
            assert slow == fast


def test_apply_parity():
    rng = random.Random(34)
    for _ in range(40):
        b = random_board(rng)
        order = search_slow.move_order(b.cells, b.width, *b.target)
        moves = search_slow.ordered_moves(b.cells, b.width, b.height, order, False)
        for m in moves:
            slow = search_slow.apply_encoded(b.cells, b.width, b.height, m)
            fast = search_fast.apply_encoded(b.cells, b.width, b.height, m)
            assert slow[0] == fast[0] and list(slow[1]) == list(fast[1])
