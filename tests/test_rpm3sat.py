"""Instance parsing, embeddings, and the brute-force oracle."""

import itertools

import pytest

from zhedkit.errors import (ArityError, BadVariableIndex, NonMonotoneClause,
                            NotEmbeddable, ParseError, TooManyVariables)
from zhedkit.rpm3sat import (Clause, Embedding, Formula, auto_embed,
                             parse_instance, render_instance, sat_oracle,
                             validate_embedding)

# the nine-variable sample instance: four positive and three negative clauses
SAMPLE = """p rpm3sat 9
pos 2 7 9
pos 3 4 6
pos 4 5 6
pos 7 8 9
neg 1 2 3
neg 4 7 8
neg 1 3 9
"""


class TestParsing:
    def test_minimal_instance(self):
        formula, embedding = parse_instance("p rpm3sat 1\npos 1\n")
        assert formula.num_vars == 1
        assert formula.clauses == (Clause("pos", (1,)),)
        assert embedding is None

    def test_negated_literal_rejected(self):
        with pytest.raises(NonMonotoneClause):
            parse_instance("p rpm3sat 2\npos 1 -2\n")

    def test_sample_instance_shape(self):
        formula, _ = parse_instance(SAMPLE)
        assert formula.num_vars == 9
        assert len(formula.clauses) == 7
        assert sum(c.polarity == "pos" for c in formula.clauses) == 4
        assert sum(c.polarity == "neg" for c in formula.clauses) == 3

    def test_arity_bounds(self):
        with pytest.raises(ArityError):
            parse_instance("p rpm3sat 4\npos 1 2 3 4\n")
        with pytest.raises(ArityError):
            parse_instance("p rpm3sat 4\npos\n")

    def test_duplicate_literal_rejected(self):
        with pytest.raises(ArityError):
            parse_instance("p rpm3sat 2\npos 1 1\n")

    def test_variable_index_bounds(self):
        with pytest.raises(BadVariableIndex):
            parse_instance("p rpm3sat 2\npos 3\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_instance("pos 1\n")

    def test_comments_ignored(self):
        formula, _ = parse_instance("# hi\np rpm3sat 1\n# mid\npos 1\n")
        assert len(formula.clauses) == 1

    def test_embedding_block(self):
        text = "p rpm3sat 2\npos 1\nneg 2\norder 2 1\nlevel 1 1\nlevel 2 1\n"
        formula, embedding = parse_instance(text)
        assert embedding == Embedding((2, 1), (1, 1))

    def test_partial_embedding_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p rpm3sat 2\npos 1\nneg 2\nlevel 1 1\n")

    def test_level_for_missing_clause_rejected(self):
        with pytest.raises(ParseError, match=r"clause 5 outside 1\.\.1 \(line 3\)"):
            parse_instance("p rpm3sat 1\npos 1\nlevel 5 1\nlevel 1 1\n")

    def test_level_for_clause_zero_rejected(self):
        with pytest.raises(ParseError, match=r"\(line 4\)"):
            parse_instance("p rpm3sat 1\npos 1\nlevel 1 1\nlevel 0 1\n")

    def test_second_level_for_a_clause_rejected(self):
        with pytest.raises(ParseError, match=r"second level for clause 1 \(line 4\)"):
            parse_instance("p rpm3sat 1\npos 1\nlevel 1 1\nlevel 1 2\n")

    def test_second_header_rejected(self):
        with pytest.raises(ParseError, match=r"second 'p rpm3sat' header \(line 3\)"):
            parse_instance("p rpm3sat 3\npos 1 2\np rpm3sat 2\n")

    def test_second_order_rejected(self):
        with pytest.raises(ParseError, match=r"second 'order' line \(line 4\)"):
            parse_instance("p rpm3sat 2\npos 1\norder 1 2\norder 2 1\nlevel 1 1\n")

    def test_round_trip(self):
        formula, _ = parse_instance(SAMPLE)
        embedding = auto_embed(formula)
        text = render_instance(formula, embedding)
        formula2, embedding2 = parse_instance(text)
        assert formula2 == formula and embedding2 == embedding
        assert render_instance(formula2, embedding2) == text


class TestAutoEmbed:
    def test_single_clause_level_one(self):
        formula, _ = parse_instance("p rpm3sat 3\npos 1 2 3\n")
        assert auto_embed(formula).clause_level == (1,)

    def test_disjoint_spans_share_level(self):
        formula, _ = parse_instance("p rpm3sat 4\npos 1 2\npos 3 4\n")
        assert auto_embed(formula).clause_level == (1, 1)

    def test_nested_spans_stack(self):
        formula, _ = parse_instance("p rpm3sat 4\npos 1 4\npos 2 3\n")
        assert auto_embed(formula).clause_level == (2, 1)

    def test_identical_spans_stack_in_input_order(self):
        formula, _ = parse_instance("p rpm3sat 1\npos 1\npos 1\n")
        assert auto_embed(formula).clause_level == (1, 2)

    def test_partial_overlap_rejected(self):
        formula, _ = parse_instance("p rpm3sat 4\npos 1 3\npos 2 4\n")
        with pytest.raises(NotEmbeddable):
            auto_embed(formula)

    def test_endpoint_sharing_is_nested(self):
        formula, _ = parse_instance("p rpm3sat 3\npos 2 3\npos 1 3\n")
        assert auto_embed(formula).clause_level == (1, 2)

    def test_middle_variable_blocks_embedding(self):
        # a variable of the wider clause strictly inside the narrow span
        formula, _ = parse_instance("p rpm3sat 5\npos 2 4\npos 1 3 5\n")
        with pytest.raises(NotEmbeddable):
            auto_embed(formula)

    def test_sides_are_independent(self):
        formula, _ = parse_instance("p rpm3sat 4\npos 1 4\nneg 1 4\n")
        assert auto_embed(formula).clause_level == (1, 1)

    def test_sample_instance_embeds(self):
        formula, _ = parse_instance(SAMPLE)
        embedding = auto_embed(formula)
        assert validate_embedding(formula, embedding) == []
        # positive nesting: {4,6} inside {3,6} inside {2,9}; {7,9} beside
        assert embedding.clause_level[:4] == (3, 2, 1, 1)
        assert embedding.clause_level[4:] == (1, 1, 2)


class TestValidateEmbedding:
    def test_auto_embeddings_validate(self):
        for text in ("p rpm3sat 1\npos 1\n", SAMPLE,
                     "p rpm3sat 4\npos 1 4\npos 2 3\nneg 1 2\nneg 3 4\n"):
            formula, _ = parse_instance(text)
            assert validate_embedding(formula, auto_embed(formula)) == []

    def test_same_level_overlap_flagged(self):
        formula, _ = parse_instance("p rpm3sat 4\npos 1 3\npos 2 4\n")
        violations = validate_embedding(formula, Embedding((1, 2, 3, 4), (1, 1)))
        assert any(v.rule == "same-level-overlap" for v in violations)

    def test_leg_planarity_flagged(self):
        # higher clause {1,3} has variable 3 strictly inside lower {2,4}
        formula, _ = parse_instance("p rpm3sat 4\npos 1 3\npos 2 4\n")
        violations = validate_embedding(formula, Embedding((1, 2, 3, 4), (2, 1)))
        assert any(v.rule == "leg-planarity" for v in violations)

    def test_bad_var_order_flagged(self):
        formula, _ = parse_instance("p rpm3sat 2\npos 1\n")
        violations = validate_embedding(formula, Embedding((1, 1), (1,)))
        assert violations and violations[0].rule == "var-order"


class TestOracle:
    def test_single_positive_clause(self):
        formula, _ = parse_instance("p rpm3sat 1\npos 1\n")
        assert sat_oracle(formula) == (True,)

    def test_contradiction(self):
        formula, _ = parse_instance("p rpm3sat 1\npos 1\nneg 1\n")
        assert sat_oracle(formula) is None

    def test_lexicographically_first_assignment(self):
        # independent check: enumerate assignments in lexicographic order
        formula, _ = parse_instance("p rpm3sat 3\npos 2 3\nneg 1\n")
        want = None
        for bits in itertools.product((False, True), repeat=3):
            if formula.evaluate(bits):
                want = bits
                break
        assert sat_oracle(formula) == want == (False, False, True)

    def test_sample_instance_is_satisfiable(self):
        formula, _ = parse_instance(SAMPLE)
        assignment = sat_oracle(formula)
        assert assignment is not None
        assert formula.evaluate(assignment)
        # frozen: computed by this oracle, pinned for regression
        assert assignment == (False, False, False, False, False, True, False, False, True)

    def test_returned_assignment_always_satisfies(self):
        formula, _ = parse_instance("p rpm3sat 4\npos 1 2\npos 3 4\nneg 2 3\n")
        assignment = sat_oracle(formula)
        assert formula.evaluate(assignment)

    def test_variable_bound(self):
        with pytest.raises(TooManyVariables):
            sat_oracle(Formula(25, (Clause("pos", (1,)),)))
