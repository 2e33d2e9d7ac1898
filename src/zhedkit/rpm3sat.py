"""Rectilinear planar monotone 3SAT instances and their embeddings.

A formula is a conjunction of clauses of at most three literals, each clause
all-positive or all-negative.  An embedding places the variables on one
horizontal line (var_order, left to right) and assigns every clause a
nesting level: positive clauses sit above the line, negative below, and the
horizontal bar of a clause at a higher level must nest over or lie beside
the bars below it so that no vertical connection crosses a bar.

sat_oracle is a brute-force reference solver used to cross-check the board
reduction at desk scale.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (ArityError, BadVariableIndex, NonMonotoneClause,
                     NotEmbeddable, ParseError, TooManyVariables)

POSITIVE = "pos"
NEGATIVE = "neg"

SAT_ORACLE_MAX_VARS = 24


class _ClauseFields(NamedTuple):
    polarity: str          # POSITIVE or NEGATIVE
    vars: tuple[int, ...]  # 1..3 distinct 1-based variable indices, sorted


class Clause(_ClauseFields):
    __slots__ = ()

    def __new__(cls, polarity: str, vars: tuple[int, ...]):
        if polarity not in (POSITIVE, NEGATIVE):
            raise ValueError(f"bad polarity {polarity!r}")
        if not 1 <= len(vars) <= 3:
            raise ArityError(f"clause has {len(vars)} literals, expected 1..3")
        if len(set(vars)) != len(vars):
            raise ArityError(f"duplicate literal in clause {vars}")
        if tuple(sorted(vars)) != vars:
            raise ValueError("clause variables must be sorted")
        return tuple.__new__(cls, (polarity, vars))


class _FormulaFields(NamedTuple):
    num_vars: int
    clauses: tuple[Clause, ...]


class Formula(_FormulaFields):
    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: tuple[Clause, ...]):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        for cl in clauses:
            for v in cl.vars:
                if not 1 <= v <= num_vars:
                    raise BadVariableIndex(f"variable {v} outside 1..{num_vars}")
        return tuple.__new__(cls, (num_vars, clauses))

    def evaluate(self, assignment: tuple[bool, ...]) -> bool:
        if len(assignment) != self.num_vars:
            raise ValueError("assignment length mismatch")
        for cl in self.clauses:
            if cl.polarity == POSITIVE:
                if not any(assignment[v - 1] for v in cl.vars):
                    return False
            else:
                if not any(not assignment[v - 1] for v in cl.vars):
                    return False
        return True


class Embedding(NamedTuple):
    var_order: tuple[int, ...]     # permutation of 1..n, left to right
    clause_level: tuple[int, ...]  # level >= 1 per clause, within its side

    def position(self, var: int) -> int:
        return self.var_order.index(var)


class Violation(NamedTuple):
    rule: str
    clauses: tuple[int, ...]  # 0-based clause indices involved
    detail: str


def _span(formula: Formula, embedding: Embedding, ci: int) -> tuple[int, int]:
    positions = [embedding.position(v) for v in formula.clauses[ci].vars]
    return min(positions), max(positions)


def validate_embedding(formula: Formula, embedding: Embedding) -> list[Violation]:
    """Structural checks; an empty list means the embedding is usable.

    Same-side clauses on one level need disjoint variable-order spans, and a
    clause may not place a variable strictly inside the span of a same-side
    clause at a lower level (its vertical leg would cross that clause's bar).
    """
    violations = []
    if sorted(embedding.var_order) != list(range(1, formula.num_vars + 1)):
        violations.append(Violation("var-order", (), "var_order is not a permutation of 1..n"))
        return violations
    if len(embedding.clause_level) != len(formula.clauses):
        violations.append(Violation("level-count", (), "one level required per clause"))
        return violations
    for ci, level in enumerate(embedding.clause_level):
        if level < 1:
            violations.append(Violation("level-range", (ci,), f"level {level} < 1"))

    by_side: dict[str, list[int]] = {POSITIVE: [], NEGATIVE: []}
    for ci, cl in enumerate(formula.clauses):
        by_side[cl.polarity].append(ci)

    for side, members in by_side.items():
        for i, ci in enumerate(members):
            si = _span(formula, embedding, ci)
            li = embedding.clause_level[ci]
            for cj in members[i + 1:]:
                sj = _span(formula, embedding, cj)
                lj = embedding.clause_level[cj]
                if li == lj and not (si[1] < sj[0] or sj[1] < si[0]):
                    violations.append(Violation(
                        "same-level-overlap", (ci, cj),
                        f"spans {si} and {sj} overlap on level {li}"))
            # leg-planarity: higher clause's variable strictly inside a lower span
            for cj in members:
                if cj == ci or embedding.clause_level[cj] >= li:
                    continue
                lo, hi = _span(formula, embedding, cj)
                for v in formula.clauses[ci].vars:
                    p = embedding.position(v)
                    if lo < p < hi:
                        violations.append(Violation(
                            "leg-planarity", (ci, cj),
                            f"variable {v} of clause {ci} lies strictly inside "
                            f"the span {(lo, hi)} of lower clause {cj}"))
    return violations


def auto_embed(formula: Formula) -> Embedding:
    """Embedding with identity variable order and nesting-depth levels.

    Same-side clause spans must be nested (sharing endpoints is fine;
    identical spans stack) or disjoint; no variable reordering is attempted.
    Raises NotEmbeddable when spans partially overlap or when the depth
    assignment still violates leg-planarity.
    """
    var_order = tuple(range(1, formula.num_vars + 1))
    spans = []
    for ci in range(len(formula.clauses)):
        positions = [v - 1 for v in formula.clauses[ci].vars]
        spans.append((min(positions), max(positions)))

    levels = [0] * len(formula.clauses)
    for side in (POSITIVE, NEGATIVE):
        members = [ci for ci, cl in enumerate(formula.clauses) if cl.polarity == side]
        for i, ci in enumerate(members):
            for cj in members[:i]:
                a, b = spans[ci], spans[cj]
                nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
                disjoint = a[1] < b[0] or b[1] < a[0]
                if not nested and not disjoint:
                    raise NotEmbeddable(
                        f"clause spans {a} and {b} partially overlap under identity order")
        # level = 1 + max level over contained spans, assigned in order of
        # increasing span width; identical spans stack in input order
        order = sorted(range(len(members)), key=lambda i: (
            spans[members[i]][1] - spans[members[i]][0], i))
        for i in order:
            ci = members[i]
            a = spans[ci]
            level = 1
            for j in order:
                cj = members[j]
                if cj == ci or levels[cj] == 0:
                    continue
                b = spans[cj]
                contained = a[0] <= b[0] and b[1] <= a[1]
                if contained and (b != a or j < i):
                    level = max(level, levels[cj] + 1)
            levels[ci] = level

    embedding = Embedding(var_order, tuple(levels))
    violations = validate_embedding(formula, embedding)
    if violations:
        raise NotEmbeddable("; ".join(v.detail for v in violations))
    return embedding


# -- brute-force oracle --------------------------------------------------------

def sat_oracle(formula: Formula):
    """Exhaustive search over all 2^n assignments.

    Returns the lexicographically first satisfying assignment as a tuple of
    booleans (x1 first, False < True), or None when unsatisfiable.
    """
    n = formula.num_vars
    if n > SAT_ORACLE_MAX_VARS:
        raise TooManyVariables(f"{n} variables exceeds brute-force bound {SAT_ORACLE_MAX_VARS}")
    for bits in range(1 << n):
        assignment = tuple(bool((bits >> (n - 1 - i)) & 1) for i in range(n))
        if formula.evaluate(assignment):
            return assignment
    return None


# -- instance text format -------------------------------------------------------
#
#   p rpm3sat <n>
#   pos v1 [v2 [v3]]      or      neg v1 [v2 [v3]]
#   optional embedding block:
#   order v_a v_b ...
#   level <clause-index> <level>        (1-based clause index, file order)
#   '#' starts a comment line.

def parse_instance(text: str) -> tuple[Formula, Embedding | None]:
    num_vars = None
    clauses: list[Clause] = []
    order = None
    levels: dict[int, tuple[int, int]] = {}  # clause index -> (level, line number)

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if len(parts) != 3 or parts[1] != "rpm3sat":
                raise ParseError("expected 'p rpm3sat <n>'", lineno)
            if num_vars is not None:
                raise ParseError("second 'p rpm3sat' header", lineno)
            try:
                num_vars = int(parts[2])
            except ValueError:
                raise ParseError("non-integer variable count", lineno) from None
            if num_vars < 1:
                raise ParseError("need at least one variable", lineno)
        elif kind in (POSITIVE, NEGATIVE):
            if num_vars is None:
                raise ParseError("clause before 'p rpm3sat' header", lineno)
            if not 2 <= len(parts) <= 4:
                raise ArityError(f"clause needs 1..3 literals (line {lineno})")
            vars_ = []
            for tok in parts[1:]:
                if tok.startswith("-"):
                    raise NonMonotoneClause(
                        f"negated literal {tok} in a {kind} clause (line {lineno})")
                try:
                    v = int(tok)
                except ValueError:
                    raise ParseError(f"bad variable token {tok!r}", lineno) from None
                if not 1 <= v <= num_vars:
                    raise BadVariableIndex(f"variable {v} outside 1..{num_vars} (line {lineno})")
                vars_.append(v)
            if len(set(vars_)) != len(vars_):
                raise ArityError(f"duplicate literal in clause (line {lineno})")
            clauses.append(Clause(kind, tuple(sorted(vars_))))
        elif kind == "order":
            if num_vars is None:
                raise ParseError("'order' before 'p rpm3sat' header", lineno)
            if order is not None:
                raise ParseError("second 'order' line", lineno)
            try:
                order = tuple(int(t) for t in parts[1:])
            except ValueError:
                raise ParseError("non-integer variable in order", lineno) from None
            if sorted(order) != list(range(1, num_vars + 1)):
                raise ParseError("order is not a permutation of 1..n", lineno)
        elif kind == "level":
            if len(parts) != 3:
                raise ParseError("expected 'level <clause-index> <level>'", lineno)
            try:
                ci, lv = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer level line", lineno) from None
            if lv < 1:
                raise ParseError("levels are 1-based", lineno)
            if ci in levels:
                raise ParseError(f"second level for clause {ci}", lineno)
            levels[ci] = lv, lineno
        else:
            raise ParseError(f"unrecognized line kind {kind!r}", lineno)

    if num_vars is None:
        raise ParseError("missing 'p rpm3sat <n>' header", 1)
    formula = Formula(num_vars, tuple(clauses))
    for ci, (_, lineno) in levels.items():
        if not 1 <= ci <= len(clauses):
            raise ParseError(f"level for clause {ci} outside 1..{len(clauses)}", lineno)

    embedding = None
    if order is not None or levels:
        if order is None:
            order = tuple(range(1, num_vars + 1))
        missing = [i + 1 for i in range(len(clauses)) if i + 1 not in levels]
        if missing:
            raise ParseError(f"embedding block lacks levels for clauses {missing}", 1)
        embedding = Embedding(order, tuple(levels[i + 1][0] for i in range(len(clauses))))
    return formula, embedding


def render_instance(formula: Formula, embedding: Embedding | None = None) -> str:
    lines = [f"p rpm3sat {formula.num_vars}"]
    for cl in formula.clauses:
        lines.append(cl.polarity + " " + " ".join(str(v) for v in cl.vars))
    if embedding is not None:
        lines.append("order " + " ".join(str(v) for v in embedding.var_order))
        for i, lv in enumerate(embedding.clause_level):
            lines.append(f"level {i + 1} {lv}")
    return "\n".join(lines) + "\n"
