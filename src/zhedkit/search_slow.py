"""Pure-Python search kernel.

Reference implementation of the exhaustive depth-first solver; the compiled
kernel in search_fast.pyx mirrors it exactly (same move ordering, same memo
policy), so both produce identical classifications, witnesses and state
counts.  Select via zhedkit.search, or import directly for benchmarking.

Cells are a bytes object: 0 = Empty, 255 = Blank, 1..254 = tile value.
Moves are encoded as cell_index * 4 + direction with directions
0=Up 1=Right 2=Down 3=Left.

Move ordering: move_order ranks every move of the start board once per
search (ray toward the target first, then row-major by tile, then URDL).
At each node ordered_moves drops the moves of spent tiles from that list
and puts the moves that fill nothing last (or prunes them).  The tiles of a
reachable state are a subset of the start board's tiles, so this gives the
same list a full scan and sort of the node would.

Memoization: a state enters the memo set only after its whole subtree was
expanded without reaching the target.  States on the recursion path cannot
repeat (every move consumes a tile), so no on-path tracking is needed.
Keys are the raw cell bytes for small boards and a 16-byte blake2b digest
for larger ones; at 10^7 states the collision probability is below 1e-24,
far under hardware error rates.

SOLVED / UNSOLVED / EXHAUSTED match the compiled kernel's return codes.
"""

from __future__ import annotations

import time
from hashlib import blake2b

EMPTY = 0
BLANK = 255

SOLVED = 0
UNSOLVED = 1
EXHAUSTED = 2

_DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # U, R, D, L

KERNEL = "python"


def _key(cells: bytes) -> bytes:
    if len(cells) <= 64:
        return cells
    return blake2b(cells, digest_size=16).digest()


def move_order(cells, width: int, tr: int, tc: int) -> list[int]:
    """Every encoded move of the start board, in the search's fixed order.

    Moves whose ray points toward the target (tr, tc) come first, then the
    rest; within each group, row-major by tile and then U, R, D, L.  Run once
    per search: ordered_moves filters this list at every node.
    """
    toward, away = [], []
    for idx, v in enumerate(cells):
        if v == EMPTY or v == BLANK:
            continue
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


def solve(cells: bytes, width: int, height: int, target: int,
          max_states: int, max_millis: int, prune_zero: bool):
    """Depth-first solvability search.

    Returns (status, moves, states) where moves is the encoded witness for
    SOLVED and states counts memo insertions.
    """
    if cells[target] != EMPTY:
        return SOLVED, [], 0
    tr, tc = divmod(target, width)
    deadline = time.monotonic() + max_millis / 1000.0 if max_millis else None

    memo = set()
    states = 0
    stack_cells = [cells]
    order = move_order(cells, width, tr, tc)
    stack_moves = [ordered_moves(cells, width, height, order, prune_zero)]
    stack_next = [0]
    path: list[int] = []
    ticks = 0

    while stack_cells:
        i = stack_next[-1]
        cur = stack_cells[-1]
        moves = stack_moves[-1]
        if i == len(moves):
            memo.add(_key(cur))
            states += 1
            stack_cells.pop()
            stack_moves.pop()
            stack_next.pop()
            if path:
                path.pop()
            if stack_cells and states >= max_states > 0:
                return EXHAUSTED, [], states
            continue
        stack_next[-1] = i + 1
        child, _ = apply_encoded(cur, width, height, moves[i])
        if child[target] != EMPTY:
            return SOLVED, path + [moves[i]], states
        if _key(child) in memo:
            continue
        ticks += 1
        if deadline is not None and ticks % 1024 == 0 and time.monotonic() > deadline:
            return EXHAUSTED, [], states
        stack_cells.append(child)
        stack_moves.append(ordered_moves(child, width, height, order, prune_zero))
        stack_next.append(0)
        path.append(moves[i])

    return UNSOLVED, [], states


def explore(cells: bytes, width: int, height: int, target: int,
            max_states: int, max_millis: int):
    """Exhaustive walk of the reachable state space, no early exit.

    Returns (fillable, union, states, complete) where union is a bytearray
    with 1 at every cell that is filled in any reachable state (including
    the start state) and fillable reports whether any reachable state has
    the target filled.  complete is False when a limit stopped the walk.
    """
    tr, tc = divmod(target, width)
    deadline = time.monotonic() + max_millis / 1000.0 if max_millis else None

    union = bytearray(len(cells))
    for i, v in enumerate(cells):
        if v != EMPTY:
            union[i] = 1
    fillable = cells[target] != EMPTY

    memo = set()
    states = 0
    stack_cells = [cells]
    order = move_order(cells, width, tr, tc)
    stack_moves = [ordered_moves(cells, width, height, order, False)]
    stack_next = [0]
    ticks = 0

    while stack_cells:
        i = stack_next[-1]
        cur = stack_cells[-1]
        moves = stack_moves[-1]
        if i == len(moves):
            memo.add(_key(cur))
            states += 1
            stack_cells.pop()
            stack_moves.pop()
            stack_next.pop()
            if stack_cells and states >= max_states > 0:
                return fillable, union, states, False
            continue
        stack_next[-1] = i + 1
        child, filled = apply_encoded(cur, width, height, moves[i])
        if _key(child) in memo:
            continue
        for j in filled:
            union[j] = 1
        if child[target] != EMPTY:
            fillable = True
        ticks += 1
        if deadline is not None and ticks % 1024 == 0 and time.monotonic() > deadline:
            return fillable, union, states, False
        stack_cells.append(child)
        stack_moves.append(ordered_moves(child, width, height, order, False))
        stack_next.append(0)

    return fillable, union, states, True
