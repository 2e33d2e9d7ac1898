"""Value semantics of the records: verdicts of different types never compare
equal, immutable records refuse field assignment and hash by value, the
constructors keep their checks, and building a gadget's board leaves its
blueprint as it was."""

import pytest

from zhedkit.board import Board
from zhedkit.gadgets import isolated_board, make_threshold
from zhedkit.rpm3sat import Clause, Embedding, Formula
from zhedkit.solver import ResourceExhausted, Solvable, SolveLimits, Unsolvable


def test_verdicts_of_different_types_differ():
    verdicts = [Solvable((), 1), Unsolvable(1), ResourceExhausted(1)]
    for i, a in enumerate(verdicts):
        for j, b in enumerate(verdicts):
            assert (a == b) is (i == j)
            assert (a != b) is (i != j)


@pytest.mark.parametrize("record, field", [
    (Board(2, 1, (0, 1), b"\x01\x00"), "cells"),
    (Clause("pos", (1, 2)), "vars"),
    (Formula(2, (Clause("neg", (2,)),)), "num_vars"),
    (Embedding((1, 2), (1,)), "clause_level"),
    (SolveLimits(max_states=5), "max_states"),
    (Unsolvable(3), "states_visited"),
], ids=["Board", "Clause", "Formula", "Embedding", "SolveLimits", "Unsolvable"])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_equal_boards_hash_equal():
    a = Board(3, 1, (0, 2), bytes([1, 0, 0]))
    b = Board(3, 1, (0, 2), bytes(bytearray([1, 0, 0])))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_isolated_board_leaves_the_blueprint_in_place():
    bp = make_threshold((5, 7), "H", "R", 3, 2)

    def placed():
        return bp.origin, bp.tiles, bp.sources, bp.target, bp.bbox, bp.prefilled

    before = placed()
    isolated_board(bp, [0])
    assert placed() == before


def test_constructors_keep_their_checks():
    with pytest.raises(ValueError, match="invalid tile value 3"):
        Board(3, 1, (0, 0), bytes([0, 3, 0]))  # a tile above the board side
    with pytest.raises(ValueError, match="sorted"):
        Clause("pos", (2, 1))
