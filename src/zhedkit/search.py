"""The search core: one exact depth-first traversal over bitboards, in pure Python.

Cells are a bytes object: 0 = Empty, 255 = Blank, 1..254 = tile value.
Moves are encoded as cell_index * 4 + direction with directions
0=Up 1=Right 2=Down 3=Left.  solve and explore share one traversal,
_search; solve stops at the first state whose target is filled, explore
walks every reachable state and collects the squares they fill.

Move ordering: move_order ranks every move of the start board once per
search (ray toward the target first, then row-major by tile, then URDL).
At each node the moves of spent tiles drop out of that list.  solve tries
only the moves that fill something (solver says why that is exact);
explore tries the idle ones, which fill nothing, after them, since states
that differ only in spent tiles are distinct states of its count.  The
tiles of a reachable state are a subset of the start board's tiles, so
this gives the same list a full scan and sort of the node would.
ordered_moves (solve's list with prune_zero, explore's without) and
apply_encoded compute a node's list and a move's result statelessly; the
traversal does not call them, and they stay as the reference the tests
compare it against.

Board state: the traversal keeps the board as one int of its EMPTY
squares, bit i for square i.  Each move has a ray mask in it.  The nearest
EMPTY square on an L or U ray is the highest set bit of mask & board (one
AND and one bit_length), and on an R or D ray the lowest (m & -m), so a
move's k fills are the k highest or lowest.  A move's mask and tuple are
built on its first try.  A move turns the EMPTY squares it fills into BLANK
and changes nothing else: the BLANK its tile leaves needs no bit, since a
tile square is not EMPTY either way, and a spent tile is told from an
unspent one by a mask.  Every move of the start board's order has a
position, and a position has a bit in the int masks below; "live" holds the
moves of unspent tiles, and playing a tile clears its four moves' bits.

Idle moves, found lazily: a move is idle at a state when no EMPTY square is
left on its ray.  A frame keeps an "idle" mask of moves known to be idle at
its node.  Its next child is the lowest awake move (below) not in that mask
whose ray mask meets an EMPTY square; a move whose mask meets none joins
the mask instead, and the frame looks at the next one.  Once every awake
move is known idle, the frame finishes, in explore after trying those in
position order (the idle phase).  This is ordered_moves' order.  A child
starts with its parent's idle mask, which is sound because the search is
monotone: a move turns its tile and EMPTY squares into BLANK and makes no
square EMPTY, so the EMPTY squares on a ray at a descendant are a subset
of those at its ancestor, and a move idle at a node is idle at every node
below it.  The converse fails: a move idle at a child may still fill
something at the parent, so a discovery made below a frame must not reach
the frame or its other children.  It does not: each frame saves its own
mask, and popping a child restores it.

Frames: a frame is a mask of the moves still "awake" at its node, neither
asleep (below) nor tried there yet, with awake a subset of live; trying a
child clears the child's bit.  A frame saves its awake, live and idle masks,
the position it played, the squares that move filled and its key.  The
squares are the one square filled, or a list only when the tile's value is
above 1 (none for an idle move).  Entering the child XORs those squares'
bits out of the board int and popping it XORs them back in, so whenever a
frame resumes it reads the masks and the board of its own state.  (A frame
keeps the squares, not the parent's board int: on a board of 10 K squares
it takes about 1.4 KB, and a 500-state solve there runs more than 300
frames deep.)  A child whose awake mask is 0 is a leaf: it would finish as
soon as it was entered, so it is memoized and counted where it is found,
with no frame.

Memoization: a state enters the memo set only after its whole subtree was
expanded without reaching the target.  States on the recursion path cannot
repeat (every move consumes a tile), so no on-path tracking is needed.  A
state's key is an integer with one bit per square that differs from the
start board; playing a move XORs in the bits of its tile and its filled
squares, and popping it restores the parent's key.  The key is exact, not
a hash: a move only turns its tile and EMPTY squares into BLANK, so a
reachable state is the start board with a set of squares made BLANK, and
that set determines it.  Tiles get their
bit numbers first, in row-major order, and other squares theirs in the
order they are first filled, so a key is no longer than the number of
squares the search has touched; a number never changes within a search, so
equal states get equal keys.  A child whose key is in the memo
is skipped before anything else: it was expanded before, so its target is
empty (solve would have stopped there) and its fills are in explore's union.
The memo is a plain set of keys; it stores no sleep sets.  explore reads
its union and fillable from the key bits, at return: a square that is not
a tile has a bit exactly when some state entered fills it, since a child's
fills are numbered only after the last check that could stop the walk
before the child is entered, and a memo hit was entered before.

Sleep sets (Godefroid, Partial-Order Methods for the Verification of
Concurrent Systems, LNCS 1032, 1996): a node's sleep set holds moves whose
child is known to be memoized already, so they are never tried there.
The child reached by move t inherits (its parent's sleep set | the moves
already tried at the parent) minus dep(t), where dep(t) is the four moves
of t's tile and every move whose ray crosses a square t fills.  A square's
share of dep(t) is its cover mask: the R moves of the tiles before it on
its row and the L moves of those after it, and the same for D and U on its
column.  It is read, on the square's first fill, from running sums of its
row's and column's move bits with one bisect each, and cached.  In a
frame's terms, the child's awake mask is (its parent's, t already cleared,
| the cover masks of t's fills) & its own live mask, which has no move of
t's tile.  Call a candidate of a state a move the search would try there:
unspent, and in solve also effective.

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

Deadline: with max_millis set, every child tried counts toward the
wall-clock check, memo hits included, and the clock is read every 1024
children, so a long run of memo hits cannot overrun max_millis.  The check
comes before the child's fills are found, so a walk it stops has numbered
no square of a child it did not enter.  A move its node's sleep set skips
is not a child tried, nor is a ray whose mask meets no EMPTY square: the
move only joins the idle mask, and counts only when explore's idle phase
tries it.

SOLVED / UNSOLVED / EXHAUSTED are the status codes solve returns.  KERNEL
names the implementation a benchmark result was recorded on.
"""

from __future__ import annotations

import re
import sys
import time
from bisect import bisect
from itertools import accumulate

from .board import BLANK, DELTAS, DIRECTIONS, EMPTY

SOLVED = 0
UNSOLVED = 1
EXHAUSTED = 2

_CHECK_EVERY = 1024  # children tried between two reads of the clock

KERNEL = "python"
# perfbench's tracer counts calls by patching kernel.ordered_moves and
# kernel.apply_encoded, so kernel is this module
kernel = sys.modules[__name__]

_TILE = re.compile(b"[\x01-\xfe]")  # a square holding a tile
_EMPTY_DIGIT = b"1" + b"0" * 255  # translates a cell to the digit of its bit in an EMPTY mask
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
    fill something come first, then (unless prune_zero, as in solve) the
    zero-effect ones, each group in the order of `order`.

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
    dr, dc = DELTAS[DIRECTIONS[d]]
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


def _line_bits(tiles: list, position: dict, fwd: int):
    """A row's (fwd = 1) or column's (fwd = 2) tiles with running sums of their move bits.

    Entry n of the two lists sums the bits of the first n tiles' R and L (or
    D and U) moves; the bits are distinct, so each sum is also their OR.
    """
    return (tiles, *([*accumulate((1 << position[i * 4 + d] for i in tiles), initial=0)]
                     for d in (fwd, fwd ^ 2)))


def _move(move: int, cells: bytes, width: int, position: dict, column: int, bit: list):
    """A move's (ray mask, lowest, the bits of its tile's four moves, tile's key bit, value).

    Bit i of the board int is square i.  The mask holds the ray's squares:
    those left or right of the tile on its row for L and R, those above or
    below it on its column for U and D.  The squares nearest the tile are
    the mask's highest bits for L and U and its lowest for R and D (lowest is
    True).  column has a bit at the first square of every row.
    """
    idx, d = move >> 2, move & 3
    up = idx * 4  # the tile's first move
    spent = ((1 << position[up]) | (1 << position[up + 1]) | (1 << position[up + 2])
             | (1 << position[up + 3]))
    r, c = divmod(idx, width)
    if d == 0:
        mask = column >> (len(cells) - r * width) << c
    elif d == 1:
        mask = ((1 << (width - 1 - c)) - 1) << (idx + 1)
    elif d == 2:
        mask = column >> ((r + 1) * width) << (idx + width)
    else:
        mask = ((1 << c) - 1) << (idx - c)
    return mask, d == 1 or d == 2, spent, bit[idx], cells[idx]


def _number(j: int, nbits: int, bit: list, cover: list, rows: list, cols: list,
            position: dict, width: int):
    """Give square j, filled for the first time, key bit nbits and its cover mask."""
    bit[j] = 1 << nbits
    r, c = divmod(j, width)
    for lines, line_no, d in ((rows, r, 1), (cols, c, 2)):
        line = lines[line_no]
        if line.__class__ is list:  # the line's first fill
            line = lines[line_no] = _line_bits(line, position, d)
        # the tiles before j point at it forward, the rest backward
        at = bisect(line[0], j)
        cover[j] |= line[1][at] | (line[2][-1] - line[2][at])


def _search(cells: bytes, width: int, target: int, max_states: int,
            max_millis: int, early_exit: bool):
    """The traversal behind solve and explore; see the module docstring.

    Returns (status, moves, states, union).  status is SOLVED only with
    early_exit, EXHAUSTED when a limit stopped the walk and UNSOLVED when it
    finished; moves is the witness for SOLVED; union is None with early_exit.
    """
    deadline = _clock() + max_millis / 1000.0 if max_millis else 0.0
    order = move_order(cells, width, *divmod(target, width))
    position = dict(zip(order, range(len(order))))
    size = len(cells)
    column = ((1 << size) - 1) // ((1 << width) - 1)  # a bit at the first square of every row
    board = int(cells.translate(_EMPTY_DIGIT)[::-1], 2)  # bit i: square i is EMPTY
    moves: list = [None] * len(order)  # per move position, once tried: _move's tuple
    rows = [[] for _ in range(size // width)]  # row -> its tiles, left to right; later _line_bits
    cols = [[] for _ in range(width)]  # column -> its tiles, top to bottom; the same
    bit = [0] * size  # square -> its key bit: a tile's from the start, others once filled
    for nbits, match in enumerate(_TILE.finditer(cells)):  # row-major, so lines come out sorted
        idx = match.start()
        bit[idx] = 1 << nbits
        rows[idx // width].append(idx)
        cols[idx % width].append(idx)
    nbits = len(order) // 4
    cover = [0] * size  # square -> the bits of the moves whose rays cross it, once filled

    memo = set()
    status = EXHAUSTED  # unless the walk finishes
    states = ticks = key = idle = 0  # idle: unspent moves known to fill nothing here
    live = awake = (1 << len(order)) - 1  # unspent moves; moves neither asleep nor tried here
    stack = []  # per ancestor frame: (awake, position played, filled, key, live, idle)

    while True:
        ready = awake & ~idle
        if ready:
            low = ready & -ready
            p = low.bit_length() - 1
            move = moves[p]
            if move is None:  # the move's first try
                move = moves[p] = _move(order[p], cells, width, position, column, bit)
            mask, lowest, spent, delta, k = move
            m = mask & board
            if not m:
                idle |= low
                continue
        elif awake and not early_exit:  # every move left here is idle
            low = awake & -awake
            p = low.bit_length() - 1
            _, _, spent, delta, _ = moves[p]
            m = 0
        else:
            memo.add(key)
            states += 1
            if not stack:
                status = UNSOLVED
                break
            awake, p, filled, key, live, idle = stack.pop()
            if filled.__class__ is int:
                board ^= 1 << filled
            else:
                for j in filled:
                    board ^= 1 << j
            # states grows by one and is compared after every step but the
            # root's last, so == stops where >= would; max_states <= 0 never does
            if states == max_states:
                break
            continue

        awake ^= low
        if max_millis:
            ticks += 1
            if ticks == _CHECK_EVERY:
                ticks = 0
                if _clock() > deadline:
                    break
        if m:
            # the ray's EMPTY squares, nearest first; the first fill is peeled
            # out of the loop, since most tiles are 1s
            j = (m & -m).bit_length() - 1 if lowest else m.bit_length() - 1
            if not bit[j]:
                _number(j, nbits, bit, cover, rows, cols, position, width)
                nbits += 1
            delta |= bit[j]
            dep = cover[j]  # the moves whose rays cross a fill; live drops the tile's own
            filled = j
            if k > 1:
                filled = [j]
                while len(filled) < k:
                    m ^= 1 << j
                    if not m:
                        break
                    j = (m & -m).bit_length() - 1 if lowest else m.bit_length() - 1
                    if not bit[j]:
                        _number(j, nbits, bit, cover, rows, cols, position, width)
                        nbits += 1
                    delta |= bit[j]
                    dep |= cover[j]
                    filled.append(j)
                if target in filled:  # the target test below reads j
                    j = target
        else:
            j, filled, dep = -1, (), 0
        child = key ^ delta
        if child in memo:
            # an expanded state, so its fills have key bits already and its
            # target is empty (solve would have stopped there)
            continue
        if j == target and early_exit:
            return SOLVED, [order[f[1]] for f in stack] + [order[p]], states, None
        child_live = live ^ spent
        child_awake = (awake | dep) & child_live
        if not child_awake:  # a leaf: expanded as soon as it is entered
            memo.add(child)
            states += 1
            if states == max_states:
                break
            continue
        stack.append((awake, p, filled, key, live, idle))
        if filled.__class__ is int:
            board ^= 1 << filled
        else:
            for j in filled:
                board ^= 1 << j
        live, awake, key = child_live, child_awake, child

    if early_exit:
        return status, [], states, None
    # a square has a key bit exactly when some state entered fills it or it
    # is a tile: every fill was numbered on its way into a state entered
    union = bytearray(bool(b or c) for b, c in zip(bit, cells))
    return status, [], states, union


def solve(cells: bytes, width: int, height: int, target: int,
          max_states: int, max_millis: int):
    """Depth-first solvability search.

    Returns (status, moves, states) where moves is the encoded witness for
    SOLVED and states counts memo insertions.
    """
    if cells[target] != EMPTY:
        return SOLVED, [], 0
    status, moves, states, _ = _search(cells, width, target, max_states,
                                       max_millis, True)
    return status, moves, states


def explore(cells: bytes, width: int, height: int, target: int,
            max_states: int, max_millis: int):
    """Exhaustive walk of the reachable state space, no early exit.

    Returns (fillable, union, states, complete) where union is a bytearray
    with 1 at every cell that is filled in any reachable state (including
    the start state) and fillable reports whether any reachable state has
    the target filled.  complete is False when a limit stopped the walk.
    """
    status, _, states, union = _search(cells, width, target, max_states,
                                       max_millis, False)
    return union[target] == 1, union, states, status == UNSOLVED
