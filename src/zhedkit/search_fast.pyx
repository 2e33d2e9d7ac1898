# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled search kernel.

Mirror of search_slow.py: identical move ordering, memo policy and return
codes, so the two kernels are interchangeable and produce the same
classifications, witnesses and state counts.  As there, move_order ranks the
start board's moves once per search and ordered_moves filters that list at
every node; search_slow.ordered_moves states why the filter is exact.  The
hot path applies moves into a scratch buffer, hashes it with an inline
128-bit FNV-1a variant and only materializes a bytes object when the child
is genuinely new.  Memo keys are raw cells when <= 64 bytes and a 16-byte
digest otherwise, as in search_slow, but the digest is FNV rather than
blake2b; the kernels can differ only on a digest collision, whose
probability is far below hardware error rates.
"""

import time
from hashlib import blake2b

from cpython.bytearray cimport PyByteArray_AS_STRING
from cpython.bytes cimport PyBytes_AS_STRING, PyBytes_FromStringAndSize
from libc.stdlib cimport free, malloc
from libc.string cimport memcpy

cdef int C_EMPTY = 0
cdef int C_BLANK = 255

SOLVED = 0
UNSOLVED = 1
EXHAUSTED = 2

KERNEL = "cython"

cdef int[4] DR = [-1, 0, 1, 0]
cdef int[4] DC = [0, 1, 0, -1]

cdef unsigned long long FNV_OFFSET = 14695981039346656037ULL
cdef unsigned long long FNV_PRIME = 1099511628211ULL


cdef inline object _digest(const unsigned char *p, Py_ssize_t n):
    """Memo key: raw bytes for small boards, 16-byte hash otherwise."""
    cdef unsigned long long h1 = FNV_OFFSET
    cdef unsigned long long h2 = 9029988052155159843ULL
    cdef Py_ssize_t i
    cdef unsigned char out[16]
    if n <= 64:
        return PyBytes_FromStringAndSize(<const char *> p, n)
    for i in range(n):
        h1 = (h1 ^ p[i]) * FNV_PRIME
        h2 = (h2 ^ p[n - 1 - i]) * FNV_PRIME
    h1 ^= h1 >> 29
    h1 *= 0xbf58476d1ce4e5b9ULL
    h2 ^= h2 >> 31
    h2 *= 0x94d049bb133111ebULL
    for i in range(8):
        out[i] = <unsigned char> (h1 >> (8 * i))
        out[8 + i] = <unsigned char> (h2 >> (8 * i))
    return PyBytes_FromStringAndSize(<const char *> out, 16)


cdef list _move_order(const unsigned char *p, Py_ssize_t n, int width,
                      int tr, int tc):
    cdef list toward = []
    cdef list away = []
    cdef Py_ssize_t idx
    cdef int r, c, d
    cdef unsigned char v
    cdef bint ahead
    for idx in range(n):
        v = p[idx]
        if v == C_EMPTY or v == C_BLANK:
            continue
        r = <int> (idx / width)
        c = <int> (idx % width)
        for d in range(4):
            ahead = ((d == 0 and tr < r) or (d == 1 and tc > c)
                     or (d == 2 and tr > r) or (d == 3 and tc < c))
            if ahead:
                toward.append(idx * 4 + d)
            else:
                away.append(idx * 4 + d)
    return toward + away


cdef list _ordered_moves(const unsigned char *p, int width, int height,
                         list order, bint prune_zero):
    cdef list effective = []
    cdef list idle = []
    cdef Py_ssize_t i, idx
    cdef long m
    cdef int r, c, d, rr, cc, dr, dc
    cdef bint effect
    for i in range(len(order)):
        move = order[i]
        m = move
        idx = m >> 2
        if p[idx] == C_BLANK:
            continue
        d = <int> (m & 3)
        dr = DR[d]
        dc = DC[d]
        rr = <int> (idx / width) + dr
        cc = <int> (idx % width) + dc
        effect = False
        while 0 <= rr < height and 0 <= cc < width:
            if p[rr * width + cc] == C_EMPTY:
                effect = True
                break
            rr += dr
            cc += dc
        if effect:
            effective.append(move)
        elif not prune_zero:
            idle.append(move)
    return effective + idle


cdef int _apply_into(unsigned char *out, const unsigned char *src, Py_ssize_t n,
                     int width, int height, int move, int *filled) nogil:
    """Copy src into out, apply the encoded move, record filled indices."""
    cdef int idx = move >> 2
    cdef int d = move & 3
    cdef int k, dr, dc, r, c, j
    cdef int count = 0
    memcpy(out, src, n)
    k = out[idx]
    out[idx] = C_BLANK
    dr = DR[d]
    dc = DC[d]
    r = idx / width + dr
    c = idx % width + dc
    while k and 0 <= r < height and 0 <= c < width:
        j = r * width + c
        if out[j] == C_EMPTY:
            out[j] = C_BLANK
            filled[count] = j
            count += 1
            k -= 1
        r += dr
        c += dc
    return count


def move_order(cells, int width, int tr, int tc):
    cdef bytes data = bytes(cells)
    return _move_order(<const unsigned char *> PyBytes_AS_STRING(data),
                       len(data), width, tr, tc)


def ordered_moves(cells, int width, int height, list order, bint prune_zero):
    cdef bytes data = bytes(cells)
    return _ordered_moves(<const unsigned char *> PyBytes_AS_STRING(data),
                          width, height, order, prune_zero)


def apply_encoded(cells, int width, int height, int move):
    cdef bytes data = bytes(cells)
    cdef Py_ssize_t n = len(data)
    cdef bytes out = PyBytes_FromStringAndSize(NULL, n)
    cdef int fills[300]
    cdef int count = _apply_into(<unsigned char *> PyBytes_AS_STRING(out),
                                 <const unsigned char *> PyBytes_AS_STRING(data),
                                 n, width, height, move, fills)
    return out, [fills[i] for i in range(count)]


def solve(cells, int width, int height, int target, long max_states,
          long max_millis, bint prune_zero):
    cdef bytes root = bytes(cells)
    cdef Py_ssize_t n = len(root)
    if (<const unsigned char *> PyBytes_AS_STRING(root))[target] != C_EMPTY:
        return SOLVED, [], 0
    cdef int tr = target / width
    cdef int tc = target % width
    cdef double deadline = time.monotonic() + max_millis / 1000.0 if max_millis else 0.0

    cdef unsigned char *scratch = <unsigned char *> malloc(n)
    cdef int *fills = <int *> malloc(sizeof(int) * (n + 4))
    if scratch == NULL or fills == NULL:
        free(scratch)
        free(fills)
        raise MemoryError()

    cdef set memo = set()
    cdef long states = 0
    cdef list stack_cells = [root]
    cdef const unsigned char *rp = <const unsigned char *> PyBytes_AS_STRING(root)
    cdef list order = _move_order(rp, n, width, tr, tc)
    cdef list stack_moves = [_ordered_moves(rp, width, height, order, prune_zero)]
    cdef list stack_next = [0]
    cdef list path = []
    cdef long ticks = 0
    cdef int i, move
    cdef list moves
    cdef bytes cur, child
    cdef const unsigned char *cp

    try:
        while stack_cells:
            i = <int> stack_next[len(stack_next) - 1]
            cur = <bytes> stack_cells[len(stack_cells) - 1]
            moves = <list> stack_moves[len(stack_moves) - 1]
            if i == len(moves):
                cp = <const unsigned char *> PyBytes_AS_STRING(cur)
                memo.add(_digest(cp, n))
                states += 1
                stack_cells.pop()
                stack_moves.pop()
                stack_next.pop()
                if path:
                    path.pop()
                if stack_cells and max_states > 0 and states >= max_states:
                    return EXHAUSTED, [], states
                continue
            stack_next[len(stack_next) - 1] = i + 1
            move = <int> moves[i]
            cp = <const unsigned char *> PyBytes_AS_STRING(cur)
            _apply_into(scratch, cp, n, width, height, move, fills)
            if scratch[target] != C_EMPTY:
                return SOLVED, path + [move], states
            if _digest(scratch, n) in memo:
                continue
            ticks += 1
            if max_millis and ticks % 1024 == 0 and time.monotonic() > deadline:
                return EXHAUSTED, [], states
            child = PyBytes_FromStringAndSize(<const char *> scratch, n)
            stack_cells.append(child)
            stack_moves.append(_ordered_moves(scratch, width, height,
                                              order, prune_zero))
            stack_next.append(0)
            path.append(move)

        return UNSOLVED, [], states
    finally:
        free(scratch)
        free(fills)


def explore(cells, int width, int height, int target, long max_states,
            long max_millis):
    cdef bytes root = bytes(cells)
    cdef Py_ssize_t n = len(root)
    cdef int tr = target / width
    cdef int tc = target % width
    cdef double deadline = time.monotonic() + max_millis / 1000.0 if max_millis else 0.0

    cdef unsigned char *scratch = <unsigned char *> malloc(n)
    cdef int *fills = <int *> malloc(sizeof(int) * (n + 4))
    if scratch == NULL or fills == NULL:
        free(scratch)
        free(fills)
        raise MemoryError()

    cdef bytearray union = bytearray(n)
    cdef unsigned char *up = <unsigned char *> PyByteArray_AS_STRING(union)
    cdef const unsigned char *rp = <const unsigned char *> PyBytes_AS_STRING(root)
    cdef Py_ssize_t ii
    for ii in range(n):
        if rp[ii] != C_EMPTY:
            up[ii] = 1
    fillable = rp[target] != C_EMPTY

    cdef set memo = set()
    cdef long states = 0
    cdef list stack_cells = [root]
    cdef list order = _move_order(rp, n, width, tr, tc)
    cdef list stack_moves = [_ordered_moves(rp, width, height, order, False)]
    cdef list stack_next = [0]
    cdef long ticks = 0
    cdef int i, move, count, f
    cdef list moves
    cdef bytes cur, child
    cdef const unsigned char *cp

    try:
        while stack_cells:
            i = <int> stack_next[len(stack_next) - 1]
            cur = <bytes> stack_cells[len(stack_cells) - 1]
            moves = <list> stack_moves[len(stack_moves) - 1]
            if i == len(moves):
                cp = <const unsigned char *> PyBytes_AS_STRING(cur)
                memo.add(_digest(cp, n))
                states += 1
                stack_cells.pop()
                stack_moves.pop()
                stack_next.pop()
                if stack_cells and max_states > 0 and states >= max_states:
                    return fillable, union, states, False
                continue
            stack_next[len(stack_next) - 1] = i + 1
            move = <int> moves[i]
            cp = <const unsigned char *> PyBytes_AS_STRING(cur)
            count = _apply_into(scratch, cp, n, width, height, move, fills)
            if _digest(scratch, n) in memo:
                continue
            for f in range(count):
                up[fills[f]] = 1
            if scratch[target] != C_EMPTY:
                fillable = True
            ticks += 1
            if max_millis and ticks % 1024 == 0 and time.monotonic() > deadline:
                return fillable, union, states, False
            child = PyBytes_FromStringAndSize(<const char *> scratch, n)
            stack_cells.append(child)
            stack_moves.append(_ordered_moves(scratch, width, height, order, False))
            stack_next.append(0)

        return fillable, union, states, True
    finally:
        free(scratch)
        free(fills)
