"""ZHED puzzle engine, exhaustive solver, and RPM-3SAT board compiler.

The search core is pure Python, with no compiled extension; the
zhedkit.search docstring describes it.  Its memo keys are exact, so an
Unsolvable verdict rests on no hash.
"""

from .board import (BLANK, EMPTY, Board, Move, apply_move, is_solved, legal_moves,
                    parse_board, render_board)
from .solver import (ResourceExhausted, Solvable, SolveLimits, Unsolvable,
                     parse_trace, render_trace, replay, solve)

__version__ = "0.1.0"

__all__ = [
    "BLANK", "EMPTY", "Board", "Move", "apply_move", "is_solved", "legal_moves",
    "parse_board", "render_board",
    "ResourceExhausted", "Solvable", "SolveLimits", "Unsolvable",
    "parse_trace", "render_trace", "replay", "solve", "__version__",
]
