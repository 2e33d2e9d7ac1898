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
Every move of the start board's order has a position, and a position has a
bit in the int masks below.  For every position it keeps the number of
EMPTY squares on the move's ray, and two int masks: "effective" (tile
unspent, count > 0) and "idle" (tile unspent, count 0).  Filling or
restoring a square updates the counts of the moves whose rays cross it,
through a per-square cover list built on the square's first fill; playing
a tile clears its four moves' bits.  The two masks read in position order
are exactly ordered_moves' two groups.

Frames: a frame is a mask of the moves still "awake" at its node, neither
asleep (below) nor tried there yet; its next child is the lowest bit of
effective & awake, then, unless prune_zero, of idle & awake, and trying a
child clears the child's bit.  A frame also saves its node's two masks, and
undo restores the board, the counts and the key bit for bit, so whenever a
frame resumes it reads the masks of its own state.

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
The memo is a plain set of keys; it stores no sleep sets.

Sleep sets (Godefroid, Partial-Order Methods for the Verification of
Concurrent Systems, LNCS 1032, 1996): a node's sleep set holds moves whose
child is known to be memoized already, so they are never tried there.
The child reached by move t inherits (its parent's sleep set | the moves
already tried at the parent) minus dep(t), where dep(t) is the four moves
of t's tile and every move whose ray crosses a square t fills (the square's
cover mask, the int form of its cover list).  In a frame's terms, the
child's awake mask is its parent's (t already cleared) | dep(t).  Call a
candidate of a state a move the search would try there: unspent, and
effective under prune_zero.

1. Independence.  Let t and u be moves of different tiles at state s, and
   let u's ray cross none of t's fills (u not in dep(t)).  Then u fills the
   same squares at s.t as at s, since t blanks its tile, which was not
   EMPTY, and squares off u's ray.  And t fills the same squares at s.u as
   at s: a square u fills lies on u's ray, so it is not one of t's fills,
   and an EMPTY square on t's ray that t did not fill lies past all of t's
   fills (t had no value left for it).  So s.t.u = s.u.t, and each of t
   and u is a candidate at the other's child exactly when it is at s.
2. Invariant J.  When a node s is entered, s.u is in the memo for every
   candidate u of s in its sleep set.  By induction on entry order, with p
   the parent and s = p.t: a u tried at p before t has finished, so p.u is
   in the memo (an entered child that finishes is memoized; a skipped one
   was already there); a u inherited from p's sleep set had p.u in the
   memo by J at p.  Either way t is a candidate at p.u by step 1, so p.u.t
   is in the memo by step 3, and p.u.t = p.t.u.
3. Closure.  When a state finishes, every candidate u of it was tried (so
   s.u is in the memo) or slept (so s.u is in the memo by J), and the memo
   only grows: the memo is closed under candidate successors.
4. Consequences.  Every child the sleep sets skip is one the search
   without them would have found in the memo and skipped.  So explore still
   memoizes every reachable state exactly once (its states, union and
   fillable are unchanged), and solve enters the same states in the same
   order and returns the same witness, state count and budget outcome.
   Only the number of children tried falls.

Deadline: every child tried counts toward the wall-clock check, memo hits
included, and the clock is read every 1024 children, so a long run of memo
hits cannot overrun max_millis.  A move its node's sleep set skips is not a
child tried: the awake mask drops it before its ray is walked.

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

    # per move position: its bit, its ray (nearest square first) and the
    # number of EMPTY squares on it
    move_bit = [1 << p for p in range(len(order))]
    rays: list[range] = [range(0)] * len(order)
    count = [0] * len(order)
    position = {move: p for p, move in enumerate(order)}
    tile_mask = {}  # tile square -> the bits of its four moves
    rows: dict[int, tuple[list, list, list]] = {}  # row -> its tiles' columns, R and L positions
    cols: dict[int, tuple[list, list, list]] = {}  # column -> its tiles' rows, D and U positions
    bit = [0] * size  # square -> its key bit, once it has changed: tiles first, then fills
    nbits = 0
    for match in _TILE.finditer(cells):  # row-major, so rows and cols come out sorted
        idx = match.start()
        r, c = divmod(idx, width)
        move = idx * 4
        up, right, down, left = (position[move], position[move + 1],
                                 position[move + 2], position[move + 3])
        tile_mask[idx] = move_bit[up] | move_bit[right] | move_bit[down] | move_bit[left]
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
    all_moves = (1 << len(order)) - 1
    eff = sum(move_bit[p] for p, n in enumerate(count) if n)
    idle = all_moves ^ eff
    cover: list = [None] * size  # square -> positions of the moves whose rays cross it
    cover_mask = [0] * size  # square -> the bits of those moves

    union = None
    if not early_exit:
        union = bytearray(1 if v else 0 for v in cells)
    fillable = cells[target] != EMPTY

    cur = bytearray(cells)
    memo = set()
    states = ticks = 0
    key = 0
    awake = all_moves  # moves neither asleep at this node nor tried here yet
    stack = []  # per ancestor frame: (awake, position played, filled, key, eff, idle)

    while True:
        ready = eff & awake
        if not ready and not prune_zero:
            ready = idle & awake
        if not ready:
            memo.add(key)
            states += 1
            if not stack:
                return UNSOLVED, [], states, fillable, union
            awake, p, filled, key, eff, idle = stack.pop()
            idx = order[p] >> 2
            for j in filled:
                cur[j] = EMPTY
                for q in cover[j]:
                    count[q] += 1
            cur[idx] = cells[idx]
            if states >= max_states > 0:
                return EXHAUSTED, [], states, fillable, union
            continue

        low = ready & -ready
        awake ^= low
        p = low.bit_length() - 1
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
                    cover_mask[j] = sum(move_bit[q] for q in covering)
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
                return SOLVED, [order[f[1]] for f in stack] + [order[p]], states, True, None
            fillable = True
        if union is not None:
            for j in filled:
                union[j] = 1

        stack.append((awake, p, filled, key, eff, idle))
        cur[idx] = BLANK
        spent = tile_mask[idx]
        dep = spent  # the moves that may not commute with this one
        emptied = 0  # moves whose rays lose their last EMPTY square
        for j in filled:
            cur[j] = BLANK
            dep |= cover_mask[j]
            for q in cover[j]:
                n = count[q] - 1
                count[q] = n
                if not n:
                    emptied |= move_bit[q]
        eff &= ~spent
        emptied &= eff
        eff ^= emptied
        idle = (idle & ~spent) | emptied
        awake |= dep
        key = child


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
