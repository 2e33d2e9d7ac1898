"""Pure-Python search core: one exact, in-place depth-first traversal.

Cells are a bytes object: 0 = Empty, 255 = Blank, 1..254 = tile value.
Moves are encoded as cell_index * 4 + direction with directions
0=Up 1=Right 2=Down 3=Left.  solve and explore share one traversal,
_search; solve stops at the first state whose target is filled, explore
walks every reachable state and collects the squares they fill.

Move ordering: move_order ranks every move of the start board once per
search (ray toward the target first, then row-major by tile, then URDL).
At each node the moves of spent tiles drop out of that list and the moves
that fill nothing go last (or are pruned).  The tiles of a reachable state
are a subset of the start board's tiles, so this gives the same list a full
scan and sort of the node would.  ordered_moves and apply_encoded compute
a node's list and a move's result statelessly; the traversal does not call
them, and they stay as the reference the tests compare it against.

In-place state: the traversal keeps one mutable bytearray of the board,
plays each move on it and undoes the move once the child's subtree is done.
For every move in the start board's order it keeps the number of EMPTY
squares on the move's ray, and two flags indexed like that order:
"effective" (tile unspent, count > 0) and "idle" (tile unspent, count 0).
Filling or restoring a square updates the counts of the moves whose rays
cross it, through a per-square cover list built on the square's first fill;
playing or restoring a tile sets its four moves' flags.  The two flag
arrays read in order are exactly ordered_moves' two groups.

Frames: a frame is only a phase (effective moves, then idle ones) and a
cursor; its next child is flags.find(1, cursor).  That is exact because
undo restores the board, the counts, the flags and the key bit for bit, so
whenever a frame resumes it reads the flags of its own state.

Memoization: a state enters the memo set only after its whole subtree was
expanded without reaching the target.  States on the recursion path cannot
repeat (every move consumes a tile), so no on-path tracking is needed.  A
state's key is an integer with one bit per square that differs from the
start board; playing a move XORs in the bits of its tile and its filled
squares, and undoing it restores the parent's key.  The key is exact, not a hash: a move only turns its tile
and EMPTY squares into BLANK, so a reachable state is the start board with
a set of squares made BLANK, and that set determines it.  Squares get their
bit numbers in the order they first change, so a key is no longer than the
number of squares the search has touched; a number never changes within a
search, so equal states get equal keys.  A child whose key is in the memo
is skipped before anything else: it was expanded before, so its target is
empty (solve would have stopped there) and its fills are in explore's union.

Deadline: every child tried counts toward the wall-clock check, memo hits
included, and the clock is read every 1024 children, so a long run of memo
hits cannot overrun max_millis.

SOLVED / UNSOLVED / EXHAUSTED are the status codes solve returns.
"""

from __future__ import annotations

import re
import time
from bisect import bisect

EMPTY = 0
BLANK = 255

SOLVED = 0
UNSOLVED = 1
EXHAUSTED = 2

_DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # U, R, D, L
_CHECK_EVERY = 1024  # children tried between two reads of the clock

KERNEL = "python"

_TILE = re.compile(b"[\x01-\xfe]")  # a square holding a tile
_clock = time.monotonic


def move_order(cells, width: int, tr: int, tc: int) -> list[int]:
    """Every encoded move of the start board, in the search's fixed order.

    Moves whose ray points toward the target (tr, tc) come first, then the
    rest; within each group, row-major by tile and then U, R, D, L.  Run once
    per search, which filters this list at every node.
    """
    toward, away = [], []
    for match in _TILE.finditer(cells):
        idx = match.start()
        r, c = divmod(idx, width)
        for d, ahead in enumerate((tr < r, tc > c, tr > r, tc < c)):
            (toward if ahead else away).append(idx * 4 + d)
    return toward + away


def ordered_moves(cells, width: int, height: int, order: list[int],
                  prune_zero: bool) -> list[int]:
    """The moves of this state: `order` without spent tiles, effective first.

    A move fills something when an EMPTY square lies on its ray.  Moves that
    fill something come first, then (unless prune_zero) the zero-effect ones,
    each group in the order of `order`.

    Filtering the start board's order is exact: a move only blanks its own
    tile square and fills EMPTY squares, so a numbered square never gains or
    changes a value.  The tiles of any reachable state are therefore the
    start board's tiles whose squares are not yet BLANK.
    """
    effective, idle = [], []
    for move in order:
        idx = move >> 2
        if cells[idx] == BLANK:
            continue
        d = move & 3
        if d == 0:
            ray = cells[idx % width:idx:width]
        elif d == 1:
            ray = cells[idx + 1:idx - idx % width + width]
        elif d == 2:
            ray = cells[idx + width::width]
        else:
            ray = cells[idx - idx % width:idx]
        (effective if EMPTY in ray else idle).append(move)
    if prune_zero:
        return effective
    return effective + idle


def apply_encoded(cells, width: int, height: int, move: int):
    """Apply an encoded move; returns (new cells, list of filled indices)."""
    idx, d = move >> 2, move & 3
    k = cells[idx]
    out = bytearray(cells)
    out[idx] = BLANK
    dr, dc = _DELTAS[d]
    r, c = divmod(idx, width)
    r += dr
    c += dc
    filled = []
    while k and 0 <= r < height and 0 <= c < width:
        j = r * width + c
        if out[j] == EMPTY:
            out[j] = BLANK
            filled.append(j)
            k -= 1
        r += dr
        c += dc
    return bytes(out), filled


def _search(cells: bytes, width: int, target: int, max_states: int,
            max_millis: int, prune_zero: bool, early_exit: bool):
    """The traversal behind solve and explore; see the module docstring.

    Returns (status, moves, states, fillable, union).  status is SOLVED only
    with early_exit, EXHAUSTED when a limit stopped the walk and UNSOLVED
    when it finished; moves is the witness for SOLVED; union is None with
    early_exit.
    """
    deadline = _clock() + max_millis / 1000.0 if max_millis else 0.0
    check_at = _CHECK_EVERY if max_millis else 0
    order = move_order(cells, width, *divmod(target, width))
    size = len(cells)

    # per move position: its ray, nearest square first, and the EMPTY squares on it
    rays: list[range] = [range(0)] * len(order)
    count = [0] * len(order)
    position = {move: p for p, move in enumerate(order)}
    tile_moves = {}  # tile square -> its four moves' positions, U, R, D, L
    rows: dict[int, tuple[list, list, list]] = {}  # row -> its tiles' columns, R and L positions
    cols: dict[int, tuple[list, list, list]] = {}  # column -> its tiles' rows, D and U positions
    bit = [0] * size  # square -> its key bit, once it has changed: tiles first, then fills
    nbits = 0
    for match in _TILE.finditer(cells):  # row-major, so rows and cols come out sorted
        idx = match.start()
        r, c = divmod(idx, width)
        move = idx * 4
        up, right, down, left = moves = (position[move], position[move + 1],
                                         position[move + 2], position[move + 3])
        tile_moves[idx] = moves
        bit[idx] = 1 << nbits
        nbits += 1
        rays[up] = range(idx - width, -1, -width)
        count[up] = cells[c:idx:width].count(EMPTY)
        rays[right] = range(idx + 1, idx - c + width)
        count[right] = cells[idx + 1:idx - c + width].count(EMPTY)
        rays[down] = range(idx + width, size, width)
        count[down] = cells[idx + width::width].count(EMPTY)
        rays[left] = range(idx - 1, idx - c - 1, -1)
        count[left] = cells[idx - c:idx].count(EMPTY)
        row = rows.setdefault(r, ([], [], []))
        row[0].append(c)
        row[1].append(right)
        row[2].append(left)
        col = cols.setdefault(c, ([], [], []))
        col[0].append(r)
        col[1].append(down)
        col[2].append(up)
    eff = bytearray(1 if n else 0 for n in count)
    idle = bytearray(0 if n else 1 for n in count)
    cover: list = [None] * size  # square -> positions of the moves whose rays cross it

    union = None
    if not early_exit:
        union = bytearray(1 if v else 0 for v in cells)
    fillable = cells[target] != EMPTY

    cur = bytearray(cells)
    memo = set()
    states = ticks = 0
    key = phase = cursor = 0
    stack = []  # per ancestor frame: (phase, cursor, position played, filled, key)

    while True:
        p = (idle if phase else eff).find(1, cursor)
        if p < 0:
            if not phase and not prune_zero:
                phase, cursor = 1, 0
                continue
            memo.add(key)
            states += 1
            if not stack:
                return UNSOLVED, [], states, fillable, union
            phase, cursor, p, filled, key = stack.pop()
            idx = order[p] >> 2
            for j in filled:
                cur[j] = EMPTY
                for q in cover[j]:
                    n = count[q] + 1
                    count[q] = n
                    if n == 1 and idle[q]:
                        idle[q] = 0
                        eff[q] = 1
            cur[idx] = cells[idx]
            for q in tile_moves[idx]:
                if count[q]:
                    eff[q] = 1
                else:
                    idle[q] = 1
            if states >= max_states > 0:
                return EXHAUSTED, [], states, fillable, union
            continue

        cursor = p + 1
        idx = order[p] >> 2
        k = cur[idx]
        delta = bit[idx]
        filled = []
        for j in rays[p]:
            if not cur[j]:
                b = bit[j]
                if not b:
                    b = bit[j] = 1 << nbits
                    nbits += 1
                    # the tiles before j on its row or column point at it with
                    # R or D, the tiles after it with L or U
                    r, c = divmod(j, width)
                    covering = []
                    for line, at in ((rows.get(r), c), (cols.get(c), r)):
                        if line:
                            i = bisect(line[0], at)
                            covering += line[1][:i] + line[2][i:]
                    cover[j] = covering
                delta |= b
                filled.append(j)
                k -= 1
                if not k:
                    break
        ticks += 1
        if ticks == check_at:
            check_at += _CHECK_EVERY
            if _clock() > deadline:
                return EXHAUSTED, [], states, fillable, union
        child = key ^ delta
        if child in memo:
            # an expanded state, so its fills are in union already and its
            # target is empty (solve would have stopped there)
            continue
        if target in filled:
            if early_exit:
                return SOLVED, [order[f[2]] for f in stack] + [order[p]], states, True, None
            fillable = True
        if union is not None:
            for j in filled:
                union[j] = 1

        cur[idx] = BLANK
        for q in tile_moves[idx]:
            eff[q] = idle[q] = 0
        for j in filled:
            cur[j] = BLANK
            for q in cover[j]:
                n = count[q] - 1
                count[q] = n
                if not n and eff[q]:
                    eff[q] = 0
                    idle[q] = 1
        stack.append((phase, cursor, p, filled, key))
        key = child
        phase = cursor = 0


def solve(cells: bytes, width: int, height: int, target: int,
          max_states: int, max_millis: int, prune_zero: bool):
    """Depth-first solvability search.

    Returns (status, moves, states) where moves is the encoded witness for
    SOLVED and states counts memo insertions.
    """
    if cells[target] != EMPTY:
        return SOLVED, [], 0
    status, moves, states, _, _ = _search(cells, width, target, max_states,
                                          max_millis, prune_zero, True)
    return status, moves, states


def explore(cells: bytes, width: int, height: int, target: int,
            max_states: int, max_millis: int):
    """Exhaustive walk of the reachable state space, no early exit.

    Returns (fillable, union, states, complete) where union is a bytearray
    with 1 at every cell that is filled in any reachable state (including
    the start state) and fillable reports whether any reachable state has
    the target filled.  complete is False when a limit stopped the walk.
    """
    status, _, states, fillable, union = _search(cells, width, target, max_states,
                                                 max_millis, False, False)
    return fillable, union, states, status == UNSOLVED
