"""The reducer over every auto-embeddable formula with n <= 2, m <= 3, and
over seeded larger ones.

verify.enumerate_formulas(2, 3) yields 92 formulas that auto_embed accepts.
Their certificates are pinned by one md5, and the certificates and boards of
40 seeded random formulas with n <= 8, m <= 6 by another, which covers more
crossings per clause, wider windows and longer strips.  So any change to the
layout, the gadget arithmetic or the certificate text shows here and must
update the digests on purpose.
"""

import hashlib
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
# intended replay costs about 0.2 s per board, so only every REPLAY_STRIDE-th
# satisfiable formula is replayed
REPLAY_STRIDE = 8


def _name(puzzle):
    return rpm3sat.render_instance(puzzle.formula).strip().replace("\n", "; ")


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


def test_certificates_match_golden_digest(puzzles):
    assert len(puzzles) == FORMULA_COUNT
    text = "".join(reducer.render_certificate(p) for p in puzzles)
    assert hashlib.md5(text.encode("utf-8")).hexdigest() == GOLDEN_MD5


def test_larger_formulas_match_golden_digest():
    rng = random.Random(LARGE_SEED)
    digest = hashlib.md5()
    for _ in range(LARGE_COUNT):
        puzzle = reducer.compile(verify.random_satisfiable_formula(rng, 8, 6))
        text = reducer.render_certificate(puzzle) + render_board(puzzle.board)
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == LARGE_MD5


def test_audits_are_empty(puzzles):
    problems = {}
    for p in puzzles:
        found = [v.detail for v in reducer.audit_bboxes(p)]
        found += reducer.check_certificate(p)
        if found:
            problems[_name(p)] = found
    assert problems == {}


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
