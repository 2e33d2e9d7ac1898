"""Search kernel selection.

The compiled Cython kernel is preferred; when the extension was not built
the pure-Python kernel takes over with identical behavior.  Both expose
solve(), explore(), move_order(), ordered_moves(), apply_encoded() and the
status codes.
"""

try:
    from . import search_fast as kernel
except ImportError:  # extension not built; slow path
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
