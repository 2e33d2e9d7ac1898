"""The in-place search core against a copy-and-scan reference, a BFS and a clock.

The reference is the traversal the core replaced: it copies the board for
every child, scans and sorts each node's moves afresh and keys its memo by
the raw cell bytes.  The core must return the same tuples: its sleep sets
skip only children the reference would reject as memo hits, so it enters
the same states in the same order and memoizes the same ones.
"""

import itertools
import random
from collections import deque

import pytest

from zhedkit import gadgets, reducer, rpm3sat, search, search_slow, solver
from zhedkit.board import BLANK, EMPTY, board_from_cells

DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # U, R, D, L


def play(cells, width, height, move):
    """(child cells, filled squares) after an encoded move, on a copy."""
    idx, d = move >> 2, move & 3
    out = bytearray(cells)
    k, out[idx] = out[idx], BLANK
    dr, dc = DELTAS[d]
    r, c = divmod(idx, width)
    r, c = r + dr, c + dc
    filled = []
    while k and 0 <= r < height and 0 <= c < width:
        if out[r * width + c] == EMPTY:
            out[r * width + c] = BLANK
            filled.append(r * width + c)
            k -= 1
        r, c = r + dr, c + dc
    return bytes(out), filled


def node_moves(cells, width, height, target, prune_zero):
    """Scan every cell and sort: fills something, toward the target, row-major, URDL."""
    tr, tc = divmod(target, width)
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
            toward = (tr < r, tc > c, tr > r, tc < c)[d]
            keys.append((not effect, not toward, idx, d))
    keys.sort()
    return [idx * 4 + d for _, _, idx, d in keys]


def reference(cells, width, height, target, max_states, prune_zero, early_exit):
    """The copy-and-scan DFS with raw-bytes memo keys.

    Returns (status, moves, states, fillable, union, complete).
    """
    union = bytearray(1 if v else 0 for v in cells)
    fillable = cells[target] != EMPTY
    if early_exit and fillable:
        return search.SOLVED, [], 0, True, union, True
    memo, states, path = set(), 0, []
    stack = [(cells, node_moves(cells, width, height, target, prune_zero), [0])]
    while stack:
        cur, moves, nxt = stack[-1]
        i = nxt[0]
        if i == len(moves):
            memo.add(cur)
            states += 1
            stack.pop()
            if path:
                path.pop()
            if stack and states >= max_states > 0:
                return search.EXHAUSTED, [], states, fillable, union, False
            continue
        nxt[0] = i + 1
        child, filled = play(cur, width, height, moves[i])
        if child[target] != EMPTY:
            if early_exit:
                return search.SOLVED, path + [moves[i]], states, True, union, True
            fillable = True
        if child in memo:
            continue
        for j in filled:
            union[j] = 1
        stack.append((child, node_moves(child, width, height, target, prune_zero), [0]))
        path.append(moves[i])
    return search.UNSOLVED, [], states, fillable, union, True


def bfs_states(cells, width, height):
    """Every distinct state reachable from cells, by breadth-first search."""
    seen = {bytes(cells)}
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        for idx, v in enumerate(state):
            if v == EMPTY or v == BLANK:
                continue
            for d in range(4):
                child, _ = play(state, width, height, idx * 4 + d)
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    return len(seen)


def random_board(rng, max_w=6, max_h=5, max_tiles=None, max_value=None):
    w, h = rng.randint(1, max_w), rng.randint(1, max_h)
    cells = bytearray(w * h)
    for i in range(w * h):
        roll = rng.random()
        if roll < 0.3:
            cells[i] = rng.randint(1, max_value or max(1, max(w, h) - 1))
        elif roll < 0.42:
            cells[i] = BLANK
    if max_tiles is not None:
        tiles = [i for i, v in enumerate(cells) if v not in (EMPTY, BLANK)]
        for i in rng.sample(tiles, max(0, len(tiles) - max_tiles)):
            cells[i] = EMPTY
    return bytes(cells), w, h, rng.randrange(w * h)


def assert_same_as_reference(cells, w, h, t, budget):
    for prune in (False, True):
        want = reference(cells, w, h, t, budget, prune, True)
        assert search.solve(cells, w, h, t, budget, 0, prune) == tuple(want[:3])
    want = reference(cells, w, h, t, budget, False, False)
    fillable, union, states, complete = search.explore(cells, w, h, t, budget, 0)
    assert (fillable, bytes(union), states, complete) == (
        want[3], bytes(want[4]), want[2], want[5])


@pytest.mark.parametrize("budget", [1, 7])
def test_budgeted_search_matches_reference_on_random_boards(budget):
    rng = random.Random(600 + budget)
    for _ in range(120):
        assert_same_as_reference(*random_board(rng), budget)


def test_unbudgeted_search_matches_reference_on_random_boards():
    rng = random.Random(607)
    for _ in range(120):
        assert_same_as_reference(*random_board(rng, 6, 5, max_tiles=6), 0)


def test_search_matches_reference_and_bfs_on_random_boards_with_values_1_to_3():
    rng = random.Random(609)
    for _ in range(100):
        cells, w, h, t = random_board(rng, 7, 6, max_tiles=6, max_value=3)
        assert_same_as_reference(cells, w, h, t, 0)
        assert search.explore(cells, w, h, t, 0, 0)[2] == bfs_states(cells, w, h)


@pytest.mark.parametrize("shifted,b_max", [(False, 3), (True, 2)])
def test_search_matches_reference_and_bfs_on_threshold_boards(shifted, b_max):
    # the gadget-explore boards: every pre-filled subset, all four directions;
    # the target is fillable exactly when every source is
    for b in range(1, b_max + 1):
        for subset in itertools.product((0, 1), repeat=b):
            for forward in "URDL":
                bp = gadgets.make_threshold((0, 0), "V" if forward in "UD" else "H",
                                            forward, b, b, shifted=shifted)
                board = gadgets.isolated_board(bp, [i for i in range(b) if subset[i]])
                w, h = board.width, board.height
                t = board.target[0] * w + board.target[1]
                assert_same_as_reference(board.cells, w, h, t, 0)
                fillable, _, states, _ = search.explore(board.cells, w, h, t, 0, 0)
                assert fillable == all(subset)
                assert states == bfs_states(board.cells, w, h)


@pytest.mark.parametrize("text", ["p rpm3sat 1\npos 1\n", "p rpm3sat 2\npos 1 2\n",
                                  "p rpm3sat 1\npos 1\nneg 1\n"])
def test_search_matches_reference_on_compiled_boards(text):
    board = reducer.compile(*rpm3sat.parse_instance(text)).board
    target = board.target[0] * board.width + board.target[1]
    assert_same_as_reference(board.cells, board.width, board.height, target, 500)


def test_explore_counts_exactly_the_reachable_states():
    # explore memoizes every state it expands; with exact keys that is each
    # reachable state once, so its count is the number a BFS finds
    rng = random.Random(608)
    for _ in range(100):
        cells, w, h, t = random_board(rng, 5, 5, max_tiles=5)
        _, _, states, complete = search.explore(cells, w, h, t, 0, 0)
        assert complete and states == bfs_states(cells, w, h)


def tile_strip(count):
    """`count` adjacent 1-tiles along the top of a 2-row board, one square wider.

    Neighbouring tiles' R (or L) moves commute but share their first empty
    square, so no sleep set skips the second order and it is a memo hit.
    With five tiles the unbudgeted walk finds 454 states and tries 1394
    children; with seven, 4246 states and 16286 children.  The target, the
    bottom-right corner, is never filled.
    """
    return board_from_cells(count + 1, 2, (1, count), {(0, c): 1 for c in range(count)})


class JumpingClock:
    """A clock that reads 0 for its first `still` reads and then far past any deadline."""

    def __init__(self, still=1):
        self.reads = 0
        self.still = still

    def __call__(self):
        self.reads += 1
        return 0.0 if self.reads <= self.still else 1e9


def test_deadline_counts_memo_hits(monkeypatch):
    board = tile_strip(5)
    target = board.target[0] * board.width + board.target[1]
    assert search.explore(board.cells, 6, 2, target, 0, 0)[2:] == (454, True)
    clock = JumpingClock()
    monkeypatch.setattr(search_slow, "_clock", clock)
    # fewer than 1024 children lead to new states, so only counting memo
    # hits reaches a check of the clock; the first check, at child 1024, stops
    _, _, states, complete = search.explore(board.cells, 6, 2, target, 0, 1)
    assert not complete and clock.reads == 2 and states < 454
    clock.reads = 0
    assert search.solve(board.cells, 6, 2, target, 0, 1, False) == (
        search.EXHAUSTED, [], states)
    assert clock.reads == 2


@pytest.mark.parametrize("still", [2, 7, 12])
def test_deadline_is_checked_every_1024_children(monkeypatch, still):
    # the clock passes the deadline after its still-th read; the search must
    # stop at the next check, 1024 children later
    board = tile_strip(7)
    clock = JumpingClock(still)
    monkeypatch.setattr(search_slow, "_clock", clock)
    result = solver.solve(board, solver.SolveLimits(max_millis=1))
    assert isinstance(result, solver.ResourceExhausted) and clock.reads == still + 1


def test_unlimited_search_never_reads_the_clock(monkeypatch):
    def fail():
        raise AssertionError("clock read without a deadline")
    monkeypatch.setattr(search_slow, "_clock", fail)
    board = tile_strip(5)
    assert isinstance(solver.solve(board), solver.Unsolvable)

