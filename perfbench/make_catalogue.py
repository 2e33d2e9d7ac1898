#!/usr/bin/env python3
"""Regenerate a workload's frozen formula catalogue.

    python3 perfbench/make_catalogue.py reduce-replay > perfbench/reduce_replay.txt
    python3 perfbench/make_catalogue.py decide-compiled > perfbench/decide_compiled.txt

Both catalogues hold cost slots: each line is "<slot> <cost> <instance
text, ';' for newline>", and a run picks one member per slot per round from
its own --seed, so every round has the same cost mix whatever the seed.
The slots are frozen here, at generation time, so that a later change to
the compiler moves board_cells instead of moving which formulas are run.

reduce-replay: replaying the intended solution costs about cells x moves of
the compiled board, and over random_satisfiable_formula(n <= 8, m <= 6)
that product spans five decades.  Runs drawn freely from the generator
therefore measure the seed, not the program.  The catalogue draws
candidates from the generator with a fixed master seed, takes SLOTS cost
levels at evenly spaced quantiles of the candidates' cells x moves up to
CAP_QUANTILE, and keeps for each slot up to MAX_MEMBERS distinct candidates
within WINDOW of its level.

decide-compiled: a budgeted solve of a compiled board costs about its
cells.  The catalogue takes every auto-embeddable formula with n <= 2 and
m <= 3, keeps those whose compiled board has at most DECIDE_MAX_CELLS
cells, sorts them by cells and puts each DECIDE_MEMBERS neighbours in one
slot; the workload pairs the slots, so their number must be even.
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from zhedkit import reducer, rpm3sat, verify  # noqa: E402
from zhedkit.errors import NotEmbeddable  # noqa: E402

MASTER_SEED = 20211215
CANDIDATES = 4000
SLOTS = 24
CAP_QUANTILE = 0.8   # the costliest fifth is left out: one such item fills a tenth of a run
WINDOW = 0.03        # members lie within +-3 % of their slot's cost level
MAX_MEMBERS = 12

DECIDE_MAX_CELLS = 11000  # larger boards take seconds each under the budget
DECIDE_MEMBERS = 2  # an even number of slots: the workload pairs them


def line(slot: int, cost: int, text: str) -> str:
    return f"{slot} {cost} {text.strip().replace(chr(10), ';')}"


def reduce_replay() -> None:
    rng = random.Random(MASTER_SEED)
    candidates = []
    for _ in range(CANDIDATES):
        formula = verify.random_satisfiable_formula(rng, 8, 6)
        puzzle = reducer.compile(formula)
        moves = reducer.intended_solution(puzzle, rpm3sat.sat_oracle(formula))
        cost = puzzle.board.width * puzzle.board.height * len(moves)
        candidates.append((cost, rpm3sat.render_instance(formula)))
    costs = sorted(c for c, _ in candidates)
    print(f"# reduce-replay catalogue: {CANDIDATES} candidates from "
          f"random_satisfiable_formula(n<=8, m<=6), master seed {MASTER_SEED}")
    print(f"# {SLOTS} slots at quantiles of cells*moves up to {CAP_QUANTILE}, "
          f"members within +-{WINDOW:.0%}")
    print("# <slot> <cells*moves> <instance text, ';' for newline>")
    for slot in range(SLOTS):
        level = costs[int((slot + 0.5) / SLOTS * CAP_QUANTILE * (len(costs) - 1))]
        members = list(dict.fromkeys(
            (c, text) for c, text in candidates if abs(c - level) <= WINDOW * level))
        members = members[:MAX_MEMBERS]
        if not members:
            raise SystemExit(f"slot {slot} at {level} has no members")
        for cost, text in members:
            print(line(slot, cost, text))


def decide_compiled() -> None:
    sized = []
    for formula in verify.enumerate_formulas(2, 3):
        try:
            rpm3sat.auto_embed(formula)
        except NotEmbeddable:
            continue
        board = reducer.compile(formula).board
        sized.append((board.width * board.height, rpm3sat.render_instance(formula)))
    kept = sorted(s for s in sized if s[0] <= DECIDE_MAX_CELLS)
    print(f"# decide-compiled catalogue: {len(kept)} of the {len(sized)} auto-embeddable "
          f"formulas with n<=2, m<=3 whose boards have at most {DECIDE_MAX_CELLS} cells")
    print(f"# slots of {DECIDE_MEMBERS} neighbours in compiled cells")
    print("# <slot> <cells> <instance text, ';' for newline>")
    if len(kept) % (2 * DECIDE_MEMBERS):
        raise SystemExit(f"{len(kept)} formulas do not fill an even number of slots")
    for rank, (cells, text) in enumerate(kept):
        print(line(rank // DECIDE_MEMBERS, cells, text))


if __name__ == "__main__":
    makers = {"reduce-replay": reduce_replay, "decide-compiled": decide_compiled}
    if len(sys.argv) != 2 or sys.argv[1] not in makers:
        raise SystemExit(f"usage: make_catalogue.py {{{','.join(makers)}}}")
    makers[sys.argv[1]]()
