"""The benchmark's three workloads: their inputs, their items and the reference checks.

Every workload is a closed loop over rounds of items.  ``setup(seed)``
yields lists of items forever; ``run_item(item, tracer)`` runs one item
through zhedkit's public API, layer by layer, each call inside a tracer
span, and checks the outputs against references that do not use the code
under test.  It returns ``(counts, failure)``: counts feed the metrics and
failure is None or a short reason.

Why each workload exists, and which metrics it should move, is in
README.md beside this file.
"""

from __future__ import annotations

import itertools
import os
import random

from zhedkit import gadgets, reducer, rpm3sat, search, solver, verify
from zhedkit.board import Board

HERE = os.path.dirname(os.path.abspath(__file__))
REDUCE_CATALOGUE = os.path.join(HERE, "reduce_replay.txt")
DECIDE_CATALOGUE = os.path.join(HERE, "decide_compiled.txt")

EMPTY, BLANK = 0, 255
DELTAS = {"U": (-1, 0), "R": (0, 1), "D": (1, 0), "L": (0, -1)}
AXIS = {"U": "V", "D": "V", "L": "H", "R": "H"}
GOLDEN = 0.6180339887498949


def spread_order(n: int) -> list[int]:
    """The order in which a round runs its n items, given sorted largest first.

    The largest runs first, so that every run includes the item that sets
    its peak memory.  The rest follow in golden-ratio order, so that a run
    which stops part-way through a round has still run an even sample of the
    round's costs, and the same sample for every seed.
    """
    return [0] + sorted(range(1, n), key=lambda i: (i * GOLDEN) % 1.0)


def load_slots(path: str) -> list[list[str]]:
    """A catalogue's members as instance texts, one list per slot, costliest slot first."""
    slots: dict[int, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            slot, _, text = line.rstrip("\n").split(" ", 2)
            slots.setdefault(int(slot), []).append(text.replace(";", "\n") + "\n")
    return [slots[s] for s in sorted(slots, reverse=True)]


def slot_rounds(members: list[list[str]], seed: int):
    """Rounds of one seeded member per slot, in spread order."""
    order = spread_order(len(members))
    rng = random.Random(seed)
    while True:
        yield [rng.choice(members[i]) for i in order]


# -- references that do not use zhedkit ------------------------------------------

def parse_clauses(text: str) -> tuple[int, list[tuple[str, tuple[int, ...]]]]:
    """(num_vars, [(polarity, vars)]) from rpm3sat instance text."""
    num_vars, clauses = 0, []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            num_vars = int(parts[2])
        elif parts and parts[0] in ("pos", "neg"):
            clauses.append((parts[0], tuple(sorted(int(v) for v in parts[1:]))))
    return num_vars, clauses


def satisfies(clauses, assignment) -> bool:
    return all(any(assignment[v - 1] == (pol == "pos") for v in vars_)
               for pol, vars_ in clauses)


def satisfiable(num_vars: int, clauses) -> bool:
    return any(satisfies(clauses, bits)
               for bits in itertools.product((False, True), repeat=num_vars))


def play(cells: bytes, width: int, height: int, moves) -> bytearray:
    """The ZHED move rule, applied to a copy of the cells."""
    out = bytearray(cells)
    for r, c, d in moves:
        k = out[r * width + c]
        if k in (EMPTY, BLANK):
            raise ValueError(f"move on ({r}, {c}) selects no tile")
        out[r * width + c] = BLANK
        dr, dc = DELTAS[d]
        r, c = r + dr, c + dc
        while k and 0 <= r < height and 0 <= c < width:
            if out[r * width + c] == EMPTY:
                out[r * width + c] = BLANK
                k -= 1
            r, c = r + dr, c + dc
    return out


def count_tiles(cells: bytes) -> int:
    return sum(1 for v in cells if v not in (EMPTY, BLANK))


def first_failure(checks) -> str | None:
    """The message of the first (passed, message) pair that did not pass."""
    return next((message for passed, message in checks if not passed), None)


def parse_and_embed(text: str, tracer):
    """Parse and embed, checking the parse against the benchmark's own reading."""
    with tracer.span("rpm3sat.parse"):
        formula, _ = rpm3sat.parse_instance(text)
    with tracer.span("rpm3sat.embed"):
        embedding = rpm3sat.auto_embed(formula)
    num_vars, clauses = parse_clauses(text)
    parsed = [(cl.polarity, cl.vars) for cl in formula.clauses]
    failure = None
    if formula.num_vars != num_vars or parsed != clauses:
        failure = "parse: formula differs from the instance text"
    return formula, embedding, num_vars, clauses, failure


# -- reduce-replay ---------------------------------------------------------------

class ReduceReplay:
    """Compile, audit and replay the intended solution of satisfiable formulas.

    Inputs come from reduce_replay.txt: one member per cost slot per round,
    picked by the seed.  See make_catalogue.py for how slots were fixed.
    """
    name = "reduce-replay"
    budget = 0
    tail_cap = 90

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int):
        members = load_slots(REDUCE_CATALOGUE)
        if self.tiny:
            members = members[-4:]
        return slot_rounds(members, seed)

    def run_item(self, text: str, tracer):
        formula, embedding, num_vars, clauses, failure = parse_and_embed(text, tracer)
        with tracer.span("reducer.compile"):
            puzzle = reducer.compile(formula, embedding)
        with tracer.span("reducer.audit"):
            problems = [v.detail for v in reducer.audit_bboxes(puzzle)]
            problems += reducer.check_certificate(puzzle)
        with tracer.span("rpm3sat.oracle"):
            assignment = rpm3sat.sat_oracle(formula)
        board = puzzle.board
        tiles = count_tiles(board.cells)
        counts = {"boards": 1, "cells": board.width * board.height, "decided": 1,
                  "reducer.board_cells": board.width * board.height,
                  "reducer.tiles": tiles}
        if assignment is None or not satisfies(clauses, assignment):
            return counts, "oracle: no satisfying assignment for a satisfiable formula"
        with tracer.span("reducer.intended"):
            moves = reducer.intended_solution(puzzle, assignment)
        with tracer.span("solver.replay"):
            end = solver.replay(board, moves)
        counts["solver.replay_moves"] = len(moves)
        expected = play(board.cells, board.width, board.height, moves)
        target = board.target[0] * board.width + board.target[1]
        return counts, failure or first_failure([
            (not problems, f"audit: {problems[:1]}"),
            (len(moves) <= tiles, f"replay: {len(moves)} moves for {tiles} tiles"),
            (end.cells == expected, "replay: end board differs from the move rule"),
            (expected[target] != EMPTY, "replay: intended solution leaves the target empty"),
        ])


# -- gadget-explore --------------------------------------------------------------

class GadgetExplore:
    """Exhaustive explore of isolated threshold gadgets, for every pre-fill subset.

    A round is one sweep of tasks: plain gadgets with b <= 5 gaps and shifted
    ones with b <= 4, every subset of pre-filled sources, plus one variable
    and one crossover certification.  Each item pairs the k-th costliest task
    with the k-th cheapest.  With one task per item, half the items would
    take under 90 ms and half over 260 ms, and the median item would flip
    between the halves from run to run.  The seed picks each gadget's
    direction.
    """
    name = "gadget-explore"
    budget = 0
    tail_cap = 75

    def __init__(self, tiny: bool = False):
        self.b_max = {False: 2, True: 1} if tiny else {False: 5, True: 4}

    def setup(self, seed: int):
        specs = [(shifted, b, subset)
                 for shifted in (False, True)
                 for b in range(1, self.b_max[shifted] + 1)
                 for subset in itertools.product((0, 1), repeat=b)]
        # the state space grows with b and shrinks with each pre-filled source
        specs.sort(key=lambda s: (s[1] + s[0], -sum(s[2])), reverse=True)
        tasks = [("threshold", s) for s in specs] + [("variable",), ("crossover",)]
        half = len(tasks) // 2
        pairs = [(tasks[i], tasks[-1 - i]) for i in range(half)] + [(t,) for t in tasks[half:-half]]
        order = spread_order(len(pairs))
        rng = random.Random(seed)

        def rounds():
            while True:
                yield [tuple(task + (rng.choice("URDL"),) for task in pairs[i]) for i in order]
        return rounds()

    def run_item(self, item, tracer):
        counts = {"boards": 0, "cells": 0, "decided": 1, "search.explore_states": 0,
                  "search.solve_states": 0}
        for task in item:
            failure = self.run_task(task, tracer, counts)
            if failure:
                return counts, failure
        return counts, None

    def run_task(self, task, tracer, counts) -> str | None:
        if task[0] != "threshold":
            with tracer.span("verify.certify"):
                report = (verify.certify_variable() if task[0] == "variable"
                          else verify.certify_crossover())
            return None if report.passed else f"{task[0]}: {report.failures[:1]}"
        (shifted, b, subset), forward = task[1], task[2]
        sigma = 1 if shifted else 0
        with tracer.span("gadgets.build"):
            bp = gadgets.make_threshold((0, 0), AXIS[forward], forward, b, b,
                                        shifted=shifted)
            board = gadgets.isolated_board(bp, [i for i in range(b) if subset[i]])
        width, height = board.width, board.height
        target = board.target[0] * width + board.target[1]
        with tracer.span("search.explore"):
            fillable, union, states, complete = search.explore(
                board.cells, width, height, target, 0, 0)
        counts["boards"] += 1
        counts["cells"] += width * height
        counts["search.explore_states"] += states
        if not complete:
            return "explore: walk incomplete without a budget"
        # the board is the gadget's box (with its target) plus a ring of one
        dr, dc = DELTAS[forward]
        r0, c0, r1, c1 = gadgets.rect_union(bp.bbox, (*bp.target, *bp.target))
        orow, ocol = 1 - r0, 1 - c0
        j = sum(subset)
        for k in range(1, b + 1):
            dist = 2 * b + k + 1 + sigma
            cell = (orow + dr * dist) * width + (ocol + dc * dist)
            if bool(union[cell]) != (j >= k):
                return f"law: b={b} k={k} j={j} fillable={bool(union[cell])}"
        if fillable != (j >= b):
            return f"law: b={b} j={j} target fillable={fillable}"
        br0, bc0, br1, bc1 = (bp.bbox[0] + orow, bp.bbox[1] + ocol,
                              bp.bbox[2] + orow, bp.bbox[3] + ocol)
        for idx, filled in enumerate(union):
            r, c = divmod(idx, width)
            if filled and not (br0 <= r <= br1 and bc0 <= c <= bc1):
                return f"bbox: b={b} j={j} fill at {(r, c)} escapes"
        if j == 0:
            return None
        # the law makes the target for k = j fillable: solve must find a witness
        dist = 2 * b + j + 1 + sigma
        goal = (orow + dr * dist, ocol + dc * dist)
        with tracer.span("solver.solve"):
            result = solver.solve(Board(width, height, goal, board.cells))
        counts["search.solve_states"] += result.states_visited
        if not isinstance(result, solver.Solvable):
            return f"verdict: b={b} k=j={j} is {type(result).__name__}"
        end = play(board.cells, width, height, result.moves)
        if end[goal[0] * width + goal[1]] == EMPTY:
            return f"verdict: b={b} k=j={j} witness leaves the target empty"
        return None


# -- decide-compiled -------------------------------------------------------------

class DecideCompiled:
    """solver.solve(compile(F)) under a fixed state budget, checked against brute force.

    Inputs come from decide_compiled.txt: the auto-embeddable formulas with
    n <= 2 and m <= 3 whose boards have at most 11 K cells, in slots of two
    neighbours in compiled size.  A budgeted solve costs about cells x
    states, so single items would range from 30 ms to 800 ms and the median
    item would move with the seed's picks.  Each item therefore pairs the
    k-th costliest slot with the k-th cheapest, and a round runs one seeded
    member of every slot.
    """
    name = "decide-compiled"
    budget = 500
    tail_cap = 75

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        if tiny:
            self.budget = 20

    def setup(self, seed: int):
        members = load_slots(DECIDE_CATALOGUE)
        if self.tiny:
            members = members[-4:]
        pairs = [(members[i], members[-1 - i]) for i in range(len(members) // 2)]
        order = spread_order(len(pairs))
        rng = random.Random(seed)
        while True:
            yield [tuple(rng.choice(slot) for slot in pairs[i]) for i in order]

    def run_item(self, texts, tracer):
        counts = {}
        for text in texts:
            one, failure = self.decide(text, tracer)
            for key, value in one.items():
                counts[key] = counts.get(key, 0) + value
            if failure:
                return counts, failure
        counts["decided"] = int(counts["decided"] == len(texts))  # an item decides both
        return counts, None

    def decide(self, text: str, tracer):
        formula, embedding, num_vars, clauses, failure = parse_and_embed(text, tracer)
        with tracer.span("reducer.compile"):
            puzzle = reducer.compile(formula, embedding)
        board = puzzle.board
        with tracer.span("solver.solve"):
            result = solver.solve(board, solver.SolveLimits(max_states=self.budget))
        with tracer.span("rpm3sat.oracle"):
            assignment = rpm3sat.sat_oracle(formula)
        sat = satisfiable(num_vars, clauses)
        decided = not isinstance(result, solver.ResourceExhausted)
        counts = {"boards": 1, "cells": board.width * board.height, "decided": int(decided),
                  "reducer.board_cells": board.width * board.height,
                  "reducer.tiles": count_tiles(board.cells),
                  "search.solve_states": result.states_visited,
                  "search.exhausted": int(not decided)}
        solved = isinstance(result, solver.Solvable)
        checks = [
            ((assignment is not None) == sat and (not sat or satisfies(clauses, assignment)),
             "oracle: sat_oracle disagrees with brute force"),
            (not (isinstance(result, solver.Unsolvable) and sat),
             "verdict: unsolvable, but the formula is satisfiable"),
            (not (solved and not sat), "verdict: solvable, but the formula is unsatisfiable"),
        ]
        if solved:
            end = play(board.cells, board.width, board.height, result.moves)
            checks.append((end[board.target[0] * board.width + board.target[1]] != EMPTY,
                           "verdict: witness leaves the target empty"))
        return counts, failure or first_failure(checks)


WORKLOADS = {w.name: w for w in (ReduceReplay, GadgetExplore, DecideCompiled)}
