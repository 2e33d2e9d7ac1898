"""The search core's public face.

The core is search_slow's pure-Python traversal: one exact depth-first
walk that serves solve() and explore(); see its docstring for the memo
keys, from whose bits explore reads its union, the board kept as one int of
EMPTY squares (bit i is square i, so a ray's nearest EMPTY square is its
mask's highest bit for L and U and its lowest for R and D), the frames that
XOR a move's fills out and back in, the leaves memoized where they are
found, the idle moves it finds lazily and lets children inherit, and the
sleep sets that keep it from trying children whose state is already
memoized.  kernel also exposes the
stateless reference helpers move_order(), ordered_moves() and
apply_encoded(), and KERNEL names the implementation a benchmark result
was recorded on.
"""

from . import search_slow as kernel

SOLVED = kernel.SOLVED
UNSOLVED = kernel.UNSOLVED
EXHAUSTED = kernel.EXHAUSTED
KERNEL = kernel.KERNEL

solve = kernel.solve
explore = kernel.explore
move_order = kernel.move_order
ordered_moves = kernel.ordered_moves
apply_encoded = kernel.apply_encoded
