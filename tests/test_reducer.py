"""The reducer over every auto-embeddable formula with n <= 2, m <= 3, over
seeded larger ones, and over explicit embeddings.

verify.enumerate_formulas(2, 3) yields 92 formulas that auto_embed accepts.
Their certificates are pinned by one md5, and the certificates and boards of
40 seeded random formulas with n <= 8, m <= 6 by another, which covers more
crossings per clause, wider windows and longer strips.  A third md5 pins
the boards compiled from explicit order/level blocks, which reorder the
variables.  So any change to the layout, the gadget arithmetic or the
certificate text shows here and must update the digests on purpose.
"""

import hashlib
import itertools
import random

import pytest

from zhedkit import reducer, rpm3sat, verify
from zhedkit.board import is_solved, render_board
from zhedkit.errors import NotEmbeddable
from zhedkit.solver import replay

# md5 of the concatenated render_certificate texts, in enumerate_formulas order
GOLDEN_MD5 = "c02767dc2079ebe3186445bf15d13d2c"
FORMULA_COUNT = 92
# md5 of render_certificate plus render_board, formula by formula, over the
# first LARGE_COUNT of random_satisfiable_formula(random.Random(LARGE_SEED), 8, 6)
LARGE_MD5 = "bf68e80024916503c61d3d89903adcf3"
LARGE_SEED, LARGE_COUNT = 23, 40
# md5 of render_certificate plus render_board, formula by formula, over every
# formula of enumerate_formulas(3, 2) under each non-identity variable order,
# with the first valid level vector in 1..3 (itertools.product order), compiled
# from its instance text with an order/level block
EXPLICIT_MD5 = "0fefff0a708fc7f83b2a94839a4535b1"
EXPLICIT_COUNT = 612
# 595 of them are satisfiable; replaying all would take over 10 s
EXPLICIT_REPLAY_STRIDE = 32
# intended replay costs about 0.2 s per board, so only every REPLAY_STRIDE-th
# satisfiable formula is replayed
REPLAY_STRIDE = 8


def _name(puzzle):
    return rpm3sat.render_instance(puzzle.formula).strip().replace("\n", "; ")


def _digest(puzzles):
    digest = hashlib.md5()
    for puzzle in puzzles:
        text = reducer.render_certificate(puzzle) + render_board(puzzle.board)
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def _audit(puzzles):
    problems = {}
    for p in puzzles:
        found = [v.detail for v in reducer.audit_bboxes(p)]
        found += reducer.check_certificate(p)
        if found:
            problems[_name(p)] = found
    return problems


@pytest.fixture(scope="module")
def puzzles():
    out = []
    for formula in verify.enumerate_formulas(2, 3):
        try:
            embedding = rpm3sat.auto_embed(formula)
        except NotEmbeddable:
            continue
        out.append(reducer.compile(formula, embedding))
    return out


@pytest.fixture(scope="module")
def large_puzzles():
    rng = random.Random(LARGE_SEED)
    return [reducer.compile(verify.random_satisfiable_formula(rng, 8, 6))
            for _ in range(LARGE_COUNT)]


def test_certificates_match_golden_digest(puzzles):
    assert len(puzzles) == FORMULA_COUNT
    text = "".join(reducer.render_certificate(p) for p in puzzles)
    assert hashlib.md5(text.encode("utf-8")).hexdigest() == GOLDEN_MD5


def test_larger_formulas_match_golden_digest(large_puzzles):
    assert _digest(large_puzzles) == LARGE_MD5


def test_audits_are_empty(puzzles, large_puzzles):
    # the larger formulas use both windows of a strip, and on some the strip
    # length is set by the left window's spill rather than by its wires
    assert _audit(puzzles + large_puzzles) == {}


def test_explicit_embeddings_compile_soundly():
    puzzles = []
    for formula in verify.enumerate_formulas(3, 2):
        identity = tuple(range(1, formula.num_vars + 1))
        for order in itertools.permutations(identity):
            if order == identity:
                continue
            for levels in itertools.product(range(1, 4), repeat=len(formula.clauses)):
                embedding = rpm3sat.Embedding(order, levels)
                if not rpm3sat.validate_embedding(formula, embedding):
                    break
            else:
                continue  # no level vector in 1..3 fits this order
            text = rpm3sat.render_instance(formula, embedding)
            puzzles.append(reducer.compile(*rpm3sat.parse_instance(text)))
    assert len(puzzles) == EXPLICIT_COUNT
    assert _digest(puzzles) == EXPLICIT_MD5
    assert _audit(puzzles) == {}
    satisfiable = [(p, a) for p in puzzles
                   if (a := rpm3sat.sat_oracle(p.formula)) is not None]
    assert len(satisfiable) == 595
    unsolved = [_name(p) for p, a in satisfiable[::EXPLICIT_REPLAY_STRIDE]
                if not is_solved(replay(p.board, reducer.intended_solution(p, a)))]
    assert unsolved == []


def test_board_coordinates_live_in_the_blueprints(puzzles):
    # the board's target is the final AND's, and each propagator's rear tile
    # sits one row behind its bar's target, in that target's column
    for p in puzzles:
        cert = p.certificate
        assert p.board.target == cert.final.target, _name(p)
        for rec in cert.clauses:
            (tr, tc), prop = rec.bar.target, rec.propagator
            assert prop.origin == (tr - prop.delta[0], tc), _name(p)


def test_intended_solution_solves_satisfiable_boards(puzzles):
    satisfiable = [(p, a) for p in puzzles
                   if (a := rpm3sat.sat_oracle(p.formula)) is not None]
    assert len(satisfiable) == 73
    unsolved = [_name(p) for p, a in satisfiable[::REPLAY_STRIDE]
                if not is_solved(replay(p.board, reducer.intended_solution(p, a)))]
    assert unsolved == []


@pytest.mark.parametrize("n", [1, 3])
def test_clause_free_formula_compiles_to_two_emitters(n):
    # enumerate_formulas and random_satisfiable_formula draw m >= 1, so only
    # this formula reaches the constant-emitter branch on both sides
    puzzle = reducer.compile(rpm3sat.parse_instance(f"p rpm3sat {n}\n")[0])
    cert = puzzle.certificate
    assert (cert.upper.kind, cert.lower.kind) == ("emitter", "emitter")
    assert reducer.audit_bboxes(puzzle) == [] and reducer.check_certificate(puzzle) == []
    for value in (False, True):
        moves = reducer.intended_solution(puzzle, (value,) * n)
        assert is_solved(replay(puzzle.board, moves))


def test_read_outside_its_window_is_a_certificate_problem():
    puzzle = reducer.compile(rpm3sat.parse_instance("p rpm3sat 2\npos 1 2\nneg 1\n")[0])
    strip = puzzle.certificate.variables[0].blueprint
    lo, hi = strip.right_window
    strip.right_window = (lo + 100, hi + 100)
    [read] = [r for r in puzzle.certificate.reads if r.variable is strip and r.side == "R"]
    [problem] = reducer.check_certificate(puzzle)
    assert f"read {strip.gadget_id}->{read.wire.gadget_id} " in problem
    assert f"window {(lo + 100, hi + 100)}" in problem
