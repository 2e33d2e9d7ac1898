"""The search core's public face.

The core is search_slow's pure-Python traversal: one exact, in-place
depth-first walk that serves solve() and explore(); see its docstring for
the memo keys, the do/undo invariant on its row-major and column-major
copies of the board (every ray is one run of one copy, searched by a
C-level find), the idle moves it finds lazily and lets children inherit,
and the sleep sets that keep it from trying children whose state is
already memoized.  kernel also exposes the
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
