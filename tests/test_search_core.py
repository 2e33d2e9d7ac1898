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

from zhedkit import gadgets, reducer, rpm3sat, search, solver
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


def random_cells(rng, w, h, min_value, max_value):
    """About 30 % tiles of values min_value..max_value, 12 % blanks, the rest empty."""
    cells = bytearray(w * h)
    for i in range(w * h):
        roll = rng.random()
        if roll < 0.3:
            cells[i] = rng.randint(min_value, max_value)
        elif roll < 0.42:
            cells[i] = BLANK
    return cells


def random_board(rng, max_w=6, max_h=5, max_tiles=None, max_value=None):
    w, h = rng.randint(1, max_w), rng.randint(1, max_h)
    cells = random_cells(rng, w, h, 1, max_value or max(1, max(w, h) - 1))
    if max_tiles is not None:
        tiles = [i for i, v in enumerate(cells) if v not in (EMPTY, BLANK)]
        for i in rng.sample(tiles, max(0, len(tiles) - max_tiles)):
            cells[i] = EMPTY
    return bytes(cells), w, h, rng.randrange(w * h)


def assert_same_as_reference(cells, w, h, t, budget):
    want = reference(cells, w, h, t, budget, True, True)
    assert search.solve(cells, w, h, t, budget, 0) == tuple(want[:3])
    if not budget:
        # trying the idle moves too changes neither verdict nor witness, and
        # visits no fewer states
        idle_too = reference(cells, w, h, t, 0, False, True)
        assert idle_too[:2] == want[:2] and idle_too[2] >= want[2]
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


def threshold_boards(shifted, b_max):
    """The gadget-explore boards up to b_max gaps: (subset, cells, w, h, target),
    for every pre-filled subset and all four directions."""
    for b in range(1, b_max + 1):
        for subset in itertools.product((0, 1), repeat=b):
            for forward in "URDL":
                bp = gadgets.make_threshold((0, 0), "V" if forward in "UD" else "H",
                                            forward, b, b, shifted=shifted)
                board = gadgets.isolated_board(bp, [i for i in range(b) if subset[i]])
                w, h = board.width, board.height
                yield subset, board.cells, w, h, board.target[0] * w + board.target[1]


@pytest.mark.parametrize("shifted,b_max", [(False, 3), (True, 2)])
def test_search_matches_reference_and_bfs_on_threshold_boards(shifted, b_max):
    # the target is fillable exactly when every source is
    for subset, cells, w, h, t in threshold_boards(shifted, b_max):
        assert_same_as_reference(cells, w, h, t, 0)
        fillable, _, states, _ = search.explore(cells, w, h, t, 0, 0)
        assert fillable == all(subset)
        assert states == bfs_states(cells, w, h)


@pytest.mark.parametrize("budget", [1, 7, 50])
@pytest.mark.parametrize("shifted,b_max", [(False, 3), (True, 2)])
def test_partial_walks_match_reference_on_threshold_boards(shifted, b_max, budget):
    # a walk stopped by its budget: explore's union and fillable come from
    # the squares the states entered so far fill
    for _, cells, w, h, t in threshold_boards(shifted, b_max):
        assert_same_as_reference(cells, w, h, t, budget)


@pytest.mark.parametrize("shifted,b_max", [(False, 3), (True, 2)])
def test_a_walk_stopped_before_its_first_child_fills_nothing(monkeypatch, shifted, b_max):
    # the clock is read before every child and passes the deadline at the
    # first: no state was entered, so nothing is filled, not even the squares
    # of the child the walk was about to try
    monkeypatch.setattr(search, "_CHECK_EVERY", 1)
    for _, cells, w, h, t in threshold_boards(shifted, b_max):
        monkeypatch.setattr(search, "_clock", JumpingClock())
        fillable, union, states, complete = search.explore(cells, w, h, t, 0, 1)
        assert (fillable, bytes(union), states, complete) == (
            False, bytes(1 if v else 0 for v in cells), 0, False)


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


def assert_same_as_reference_and_bfs(cells, w, h, t):
    for budget in (0, 3):
        assert_same_as_reference(cells, w, h, t, budget)
    assert search.explore(cells, w, h, t, 0, 0)[2] == bfs_states(cells, w, h)


@pytest.mark.parametrize("w,h", [(9, 1), (1, 9)])
def test_search_matches_reference_and_bfs_on_one_row_or_one_column(w, h):
    # the column-major copy of a one-row board holds one square per column,
    # and that of a one-column board is the board itself
    rng = random.Random(610 + w)
    for _ in range(80):
        assert_same_as_reference_and_bfs(bytes(random_cells(rng, w, h, 1, 4)), w, h,
                                         rng.randrange(w * h))


@pytest.mark.parametrize("w,h,d", [(1, 7, 2), (7, 1, 1)])
def test_a_move_fills_past_blanks_and_tiles(w, h, d):
    # the 3 fills squares 1, 4 and 5 of its line, skipping the blank and the
    # 2; then the 2 fills square 6, past the squares the 3 filled
    cells = bytes([3, EMPTY, BLANK, 2, EMPTY, EMPTY, EMPTY])
    assert search.solve(cells, w, h, 5, 0, 0) == (search.SOLVED, [d], 0)
    assert search.solve(cells, w, h, 6, 0, 0) == (search.SOLVED, [d, 12 + d], 0)
    assert_same_as_reference_and_bfs(cells, w, h, 6)


def test_multi_square_vertical_fills_match_reference_and_bfs():
    # tiles of value 2-4 on tall, narrow boards: U and D moves fill several
    # squares of the column-major copy, past blanks and other tiles
    rng = random.Random(612)
    for _ in range(150):
        w, h = rng.randint(1, 3), rng.randint(4, 8)
        cells = random_cells(rng, w, h, 2, 4)
        tiles = [i for i, v in enumerate(cells) if v not in (EMPTY, BLANK)]
        for i in rng.sample(tiles, max(0, len(tiles) - 6)):
            cells[i] = EMPTY
        assert_same_as_reference_and_bfs(bytes(cells), w, h, rng.randrange(w * h))


def goes_idle_below(cells, w, h):
    """Whether a move that fills something at a child of cells fills nothing at a grandchild.

    The search then learns at the grandchild that the move is idle, while
    the move still fills something at the child and at the child's siblings.
    """
    for t in node_moves(cells, w, h, 0, True):
        child, _ = play(cells, w, h, t)
        effective = node_moves(child, w, h, 0, True)
        for v in effective:
            below = set(node_moves(play(child, w, h, v)[0], w, h, 0, True))
            if any(u >> 2 != v >> 2 and u not in below for u in effective):
                return True
    return False


def test_an_idle_move_found_below_a_node_stays_below_it():
    rng = random.Random(613)
    boards = 0
    while boards < 60:
        cells, w, h, t = random_board(rng, 5, 5, max_tiles=6, max_value=2)
        if goes_idle_below(cells, w, h):
            boards += 1
            assert_same_as_reference_and_bfs(cells, w, h, t)


def tile_strip(count, gap=1):
    """`count` adjacent 1-tiles along the top of a 2-row board, then `gap` empty squares.

    Neighbouring tiles' R moves commute but fill the same squares in either
    order, as their L moves, which fill nothing, do in explore; so no sleep
    set skips the second order and it is a memo hit.  With five tiles and a
    gap of one, explore finds 454 states and tries 1394 children.  solve
    plays no move that fills nothing: with six tiles and a gap of six it
    enters 729 states and tries 1275 children, with eight and eight 6561
    states and 13668 children.  The target, the bottom-right corner, is
    never filled.
    """
    return board_from_cells(count + gap, 2, (1, count + gap - 1),
                            {(0, c): 1 for c in range(count)})


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
    monkeypatch.setattr(search, "_clock", clock)
    # fewer than 1024 children lead to new states, so only counting memo
    # hits reaches a check of the clock; the first check, at child 1024, stops
    _, _, states, complete = search.explore(board.cells, 6, 2, target, 0, 1)
    assert not complete and clock.reads == 2 and states < 454
    board = tile_strip(6, 6)
    target = board.target[0] * board.width + board.target[1]
    assert search.solve(board.cells, 12, 2, target, 0, 0) == (search.UNSOLVED, [], 729)
    clock.reads = 0
    status, _, states = search.solve(board.cells, 12, 2, target, 0, 1)
    assert status == search.EXHAUSTED and clock.reads == 2 and states < 729


@pytest.mark.parametrize("still", [2, 7, 12])
def test_deadline_is_checked_every_1024_children(monkeypatch, still):
    # the clock passes the deadline after its still-th read; the search must
    # stop at the next check, 1024 children later
    board = tile_strip(8, 8)
    clock = JumpingClock(still)
    monkeypatch.setattr(search, "_clock", clock)
    result = solver.solve(board, solver.SolveLimits(max_millis=1))
    assert isinstance(result, solver.ResourceExhausted) and clock.reads == still + 1


def test_unlimited_search_never_reads_the_clock(monkeypatch):
    def fail():
        raise AssertionError("clock read without a deadline")
    monkeypatch.setattr(search, "_clock", fail)
    board = tile_strip(5)
    assert isinstance(solver.solve(board), solver.Unsolvable)



# The core keeps the board as one int of EMPTY squares, bit i = square i, and
# a ray's nearest EMPTY square is the highest bit of its mask for L and U and
# the lowest for R and D.  CPython stores ints in 30-bit digits, so boards of
# 29-33, 59-65 and 119-129 cells put squares on both sides of a digit
# boundary and of 64 bits.
DIGIT_EDGE_SIZES = [*range(29, 34), *range(59, 66), *range(119, 130)]


def shapes(size):
    """One row, one column, and the most nearly square board of size cells with sides >= 4."""
    out = [(size, 1), (1, size)]
    w = max((w for w in range(4, int(size ** 0.5) + 1) if size % w == 0), default=None)
    if w is not None:
        out += [(w, size // w), (size // w, w)]
    return out


def line_board(size):
    """Blanks but for EMPTY squares 0, size // 2 and size-1, and tiles 3 at 1 and 2 at size-2.

    The 3's backward ray ends at square 0, and its forward one fills
    size // 2 and size-1 past the blanks and the 2.  The 2's backward ray
    fills size // 2 and then square 0, past the 3; its forward ray is
    square size-1 alone.
    """
    cells = bytearray([BLANK]) * size
    cells[0] = cells[size // 2] = cells[-1] = EMPTY
    cells[1], cells[-2] = 3, 2
    return bytes(cells)


def border_board(w, h):
    """Blanks but for EMPTY corners and edge middles, 1s beside square 0 and 3s in two corners.

    The top-right 3 fills the top row leftward to square 0 past the 1 on
    it, and the bottom-left 3 the left column upward; their other rays
    along the edges end at square size-1.
    """
    cells = bytearray([BLANK]) * (w * h)
    for r, c in ((0, 0), (h - 1, w - 1), (0, w // 2), (h - 1, w // 2), (h // 2, 0),
                 (h // 2, w - 1)):
        cells[r * w + c] = EMPTY
    cells[1] = cells[w] = 1
    cells[w - 1] = cells[(h - 1) * w] = 3
    return bytes(cells)


@pytest.mark.parametrize("size", DIGIT_EDGE_SIZES)
def test_line_rays_end_at_square_0_and_size_minus_1(size):
    cells = line_board(size)
    for w, h in shapes(size)[:2]:
        back, ahead = (3, 1) if h == 1 else (0, 2)  # L and R, or U and D
        assert search.apply_encoded(cells, w, h, 4 + back)[1] == [0]
        assert search.apply_encoded(cells, w, h, 4 + ahead)[1] == [size // 2, size - 1]
        assert search.apply_encoded(cells, w, h, (size - 2) * 4 + back)[1] == [size // 2, 0]
        assert search.apply_encoded(cells, w, h, (size - 2) * 4 + ahead)[1] == [size - 1]
        for target in (0, size // 2, size - 1):
            assert_same_as_reference_and_bfs(cells, w, h, target)


@pytest.mark.parametrize("size", [s for s in DIGIT_EDGE_SIZES if len(shapes(s)) > 2])
def test_border_rays_end_at_square_0_and_size_minus_1(size):
    for w, h in shapes(size)[2:]:
        cells = border_board(w, h)
        corner = (h - 1) * w
        assert search.apply_encoded(cells, w, h, (w - 1) * 4 + 3)[1] == [w // 2, 0]
        assert search.apply_encoded(cells, w, h, corner * 4)[1] == [h // 2 * w, 0]
        assert search.apply_encoded(cells, w, h, (w - 1) * 4 + 2)[1] == [
            h // 2 * w + w - 1, w * h - 1]
        assert search.apply_encoded(cells, w, h, corner * 4 + 1)[1] == [
            corner + w // 2, w * h - 1]
        for target in (0, w * h - 1, w // 2):
            assert_same_as_reference_and_bfs(cells, w, h, target)


@pytest.mark.parametrize("size", DIGIT_EDGE_SIZES)
def test_search_matches_reference_and_bfs_across_int_digit_boundaries(size):
    # sparse tiles of values 1-3 among many blanks, so rays skip far
    rng = random.Random(700 + size)
    for w, h in shapes(size):
        for _ in range(3):
            cells = bytearray(rng.choice((EMPTY, BLANK, BLANK)) for _ in range(size))
            for i in rng.sample(range(size), 5):
                cells[i] = rng.randint(1, 3)
            assert_same_as_reference_and_bfs(bytes(cells), w, h, rng.randrange(size))


def test_threshold_sweep_visits_591849_states_and_keeps_the_law():
    # the gadget-explore sweep in one direction: plain b <= 5 and shifted
    # b <= 4, every pre-filled subset, on the box plus a ring of one square
    total = 0
    for shifted, b_max in ((False, 5), (True, 4)):
        for b in range(1, b_max + 1):
            bp = gadgets.make_threshold((0, 0), "H", "R", b, b, shifted=shifted)
            for subset in itertools.product((0, 1), repeat=b):
                board = gadgets.isolated_board(bp, [i for i in range(b) if subset[i]])
                w, h = board.width, board.height
                target = board.target[0] * w + board.target[1]
                fillable, union, states, complete = search.explore(
                    board.cells, w, h, target, 0, 0)
                assert complete
                total += states
                j = sum(subset)
                # the target for k lies b - k squares before the one for k = b
                assert [union[target - (b - k)] for k in range(1, b + 1)] == [
                    int(j >= k) for k in range(1, b + 1)]
                assert fillable == (j >= b)
                ring = [r * w + c for r in range(h) for c in range(w)
                        if r in (0, h - 1) or c in (0, w - 1)]
                assert not any(union[i] for i in ring)
    assert total == 591849


def test_the_names_the_benchmark_reads(monkeypatch):
    # perfbench records search.KERNEL, patches search.solve and
    # search.kernel.<helper> by name, and calls explore with six positionals
    assert search.KERNEL == "python"
    assert search.kernel.ordered_moves is search.ordered_moves
    assert search.kernel.apply_encoded is search.apply_encoded
    board = tile_strip(3)
    width, height = board.width, board.height
    target = board.target[0] * width + board.target[1]
    fillable, union, states, complete = search.explore(
        board.cells, width, height, target, 0, 0)
    assert (fillable, len(union), complete) == (False, len(board.cells), True)
    assert states == bfs_states(board.cells, width, height)
    calls, original = [], search.solve
    monkeypatch.setattr(search, "solve", lambda *args: calls.append(args) or original(*args))
    assert isinstance(solver.solve(board), solver.Unsolvable) and len(calls) == 1
