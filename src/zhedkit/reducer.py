"""Compiler from RPM-3SAT instances to ZHED boards.

Layout scheme (virtual coordinates, normalized before instantiation):

The layout is a function of the formula and its embedding alone: the
spacing constants MARGIN and ROW_PITCH are part of the construction, not
inputs.

* Variables sit on row 0, left to right in embedding order, spaced so that
  no two footprints touch.
* A positive clause at level l gets a horizontal bar (its OR gadget) on row
  -(2*pitch*l - 1); negative clauses mirror below.  The level pitch starts
  at ROW_PITCH and grows only as far as propagator spill demands.  All bar
  rows share parity, which keeps every crossover intersection on a source
  gap.
* A clause's literal wires attach on the right side of its variables for
  positive clauses and on the left side for negative ones, so expanding a
  variable rightward (true) feeds exactly the positive readers and leftward
  (false) the negative ones.  Wires run on even columns, 4 apart.
* Each clause bar ends in a reserved corridor column where its propagator
  rises (or descends) to the extreme AND row, crossing the bars of clauses
  nested above it through crossover gadgets.  A clause crossed x times gets
  thick wires of g = x + 1 parallel wires, so the crossings alone can never
  satisfy it.
* The two extreme AND gadgets run rightward to a shared far-right column,
  where a final vertical AND (k=2) drops to the puzzle target near the
  bottom right.  Shift gadgets absorb every parity mismatch: a clause bar
  is shifted when its thickness is odd, a propagator when its crossover
  count is odd, and the extreme ANDs as their extension to the shared
  column demands.

Every clause's bar and thick wires come from gadgets.make_clause; the
reducer chooses the wire columns, the bar row and the corridor and records
the reads.  Every gadget except the variable strips and the crossovers is a
gadgets.make_bar bar: wires, clause ORs, propagators, the extreme ANDs (or
emitters) and the final AND.  Given the first and last input positions and
the target, make_bar alone decides the shift and the gap count, so compile
derives neither; a propagator starts x squares short of its AND row and
its x crossovers carry it there, which chain() confirms.

The plan is built once, in immutable records: _plan_clauses gives each
clause a _ClausePlan (its variable positions, the bars its propagator
crosses, its thickness and shift flags), and _layout_window gives each side
of each variable a _WindowLayout of wire and corridor offsets relative to
the window.  compile lays out, places and builds each variable in one pass,
left to right: both window layouts, the strip length L, the strip's column,
the absolute wire and corridor columns (kept in two dicts of its own) and
the variable's blueprint.  Only then does it build the clauses.

L is a closed form of the two window layouts.  Let need = 2 * (the larger
last wire offset) + 2, where an unused window counts -1; with both windows
used, raise need to ceil(2 * (MARGIN - right rel_min + left rel_max) / 5)
so the left window's spill clears the right window's pokes.  L = 2 when at
most one window is used and need <= 2; otherwise L is the least multiple of
4 that is >= need.

The certificate maps every formula element to its gadgets and the links
between them; a thick wire is a plain tuple of its g wire blueprints.  The
intended-solution generator, the audits and render_certificate read it.
Every coordinate it holds lives in a blueprint, once: links derive their
anchors from the blueprints they join and the board's target is the final
AND's, so normalizing the layout only translates the blueprints.  The wire
and corridor dicts hold pre-normalization columns; nothing after compile
reads them.
"""

from __future__ import annotations

from typing import NamedTuple

from .board import Board, Move
from .errors import EmbeddingInvalid, UnsatisfiedAssignment
from .gadgets import (ChainedPair, CrossoverSpec, GadgetBlueprint, ReadLink,
                      VariableBlueprint, chain, instantiate, make_bar,
                      make_clause, make_crossover, make_variable, rect_union,
                      rects_intersect)
from .rpm3sat import (Embedding, Formula, NEGATIVE, POSITIVE, auto_embed,
                      validate_embedding)


MARGIN = 2     # column spacing between footprints of unlinked gadgets
ROW_PITCH = 3  # least row pitch per clause level


class ClauseRecord(NamedTuple):
    index: int
    polarity: str
    level: int
    bar_crossings: int        # x: propagators piercing this clause's bar
    bar: GadgetBlueprint
    # one thick wire per literal, in variable order: a tuple of its g wires
    wires: list[tuple[GadgetBlueprint, ...]]
    # rises (or descends) from the bar's target, in the clause's corridor column
    propagator: GadgetBlueprint

    @property
    def g(self) -> int:
        return len(self.wires[0])


class VariableRecord(NamedTuple):
    index: int
    blueprint: VariableBlueprint


class Certificate(NamedTuple):
    variables: list[VariableRecord]
    clauses: list[ClauseRecord]
    upper: GadgetBlueprint        # extreme AND (or constant emitter) above
    lower: GadgetBlueprint        # and below
    final: GadgetBlueprint        # its target is the board's target
    chains: list[ChainedPair]
    crossovers: list[CrossoverSpec]
    reads: list[ReadLink]

    def gadget_blueprints(self) -> list:
        out = [rec.blueprint for rec in self.variables]
        for cr in self.clauses:
            out.append(cr.bar)
            for tw in cr.wires:
                out.extend(tw)
            out.append(cr.propagator)
        out.extend([self.upper, self.lower, self.final])
        return out


class CompiledPuzzle(NamedTuple):
    board: Board
    certificate: Certificate
    formula: Formula


# -- internal planning --------------------------------------------------------

class _ClausePlan(NamedTuple):
    ci: int
    polarity: str
    level: int
    var_positions: tuple[int, ...]  # sorted positions of its variables
    lpos: int
    rpos: int
    x_bar: int                  # propagators piercing this clause's bar
    x_prop: int                 # bars its own propagator pierces
    crossed: tuple[int, ...]    # clause indices of those bars, by level
    g: int
    bar_shift: int              # 1 when the bar is a shift gadget
    prop_shift: int


def _plan_clauses(formula: Formula, embedding: Embedding) -> list[_ClausePlan]:
    pos_of = {v: i for i, v in enumerate(embedding.var_order)}
    clauses, levels = formula.clauses, embedding.clause_level
    positions = [tuple(sorted(pos_of[v] for v in cl.vars)) for cl in clauses]
    # crossing structure: the propagator of c pierces the bar of every
    # same-side clause D at a higher level whose bar spans c's corridor,
    # i.e. lpos(D) < rpos(c) <= rpos(D)
    crossed = [sorted((di for di, d in enumerate(clauses)
                       if d.polarity == c.polarity and levels[di] > levels[ci]
                       and positions[di][0] < positions[ci][-1] <= positions[di][-1]),
                      key=levels.__getitem__)
               for ci, c in enumerate(clauses)]
    x_bar = [0] * len(clauses)
    for ds in crossed:
        for di in ds:
            x_bar[di] += 1
    plans = []
    for ci, cl in enumerate(clauses):
        pos, xs = positions[ci], tuple(crossed[ci])
        g = x_bar[ci] + 1  # strictly larger than x, minimal
        plans.append(_ClausePlan(ci, cl.polarity, levels[ci], pos, pos[0], pos[-1],
                                 x_bar[ci], len(xs), xs, g,
                                 bar_shift=g & 1,  # keeps the target on an even column
                                 prop_shift=len(xs) & 1))
    return plans


class _WindowLayout(NamedTuple):
    wire_offsets: dict       # clause index -> [offsets]; empty when the window is unused
    corridor_offsets: dict   # clause index -> offset
    last_wire: int
    rel_min: int
    rel_max: int


def _layout_window(side_plans: list[_ClausePlan], position: int) -> _WindowLayout:
    """Wire and corridor offsets of one side's window of the variable at position.

    The slot order keeps every wire clear of lower clause bars: first the
    clauses whose rightmost variable sits here, by level, then those passing
    through, by level, then those whose leftmost variable sits here, by
    descending level.
    """
    def slot(p: _ClausePlan) -> tuple[int, int, int]:
        if position == p.rpos:
            return 0, p.level, p.ci
        return (2, -p.level, p.ci) if position == p.lpos else (1, p.level, p.ci)

    wire_offsets, corridor_offsets = {}, {}
    last_wire, rel_min, rel_max = -1, 0, -1
    for p in sorted((p for p in side_plans if position in p.var_positions), key=slot):
        # the leftmost variable's window holds the bar's rear tile, and a
        # bar's rear can spill fillable+1 squares behind it (backward
        # expansions skip filled gaps), plus two for a shift tile
        rear_spill = (len(p.var_positions) * p.g + p.x_bar + 1
                      + 2 * p.bar_shift) if position == p.lpos else 0
        # the first item's pokes left of the window start are row-disjoint
        # from everything there; inter-variable spacing absorbs them
        first = 0 if rel_max < 0 else rel_max + MARGIN + 1 + rear_spill
        first += first & 1  # wires sit on even columns
        cols = [first + 4 * j for j in range(p.g)]
        wire_offsets[p.ci] = cols
        last_wire = cols[-1]
        rel_min = min(rel_min, first - 1 - rear_spill)
        rel_max = max(rel_max, last_wire + 1)
        if position == p.rpos:
            corridor_offsets[p.ci] = last_wire + p.g + p.bar_shift + 2
            bar_right = last_wire + len(p.var_positions) * p.g + p.x_bar + p.bar_shift + 3
            rel_max = max(rel_max, bar_right)
    return _WindowLayout(wire_offsets, corridor_offsets, last_wire, rel_min, rel_max)


def _fit_length(rw: _WindowLayout, lw: _WindowLayout) -> int:
    """Smallest usable even L for a variable given its two window layouts.

    Each used window's wires must sit within its first L/2 columns.  With
    both windows used, L must be divisible by 4 (window parity) and the left
    window's spill must stay MARGIN clear of the right window's pokes, which
    sit 5L/2 columns farther right.  With one window, L is 2 or divisible
    by 4.
    """
    need = 2 * max(rw.last_wire, lw.last_wire) + 2
    if rw.wire_offsets and lw.wire_offsets:
        need = max(need, -(-2 * (MARGIN - rw.rel_min + lw.rel_max) // 5))
    elif need <= 2:
        return 2
    return need + (-need) % 4


# -- compilation ---------------------------------------------------------------

def compile(formula: Formula, embedding: Embedding | None = None) -> CompiledPuzzle:
    """Assemble the complete board for a formula with a valid embedding."""
    if embedding is None:
        embedding = auto_embed(formula)
    violations = validate_embedding(formula, embedding)
    if violations:
        raise EmbeddingInvalid("; ".join(v.detail for v in violations))

    plans = _plan_clauses(formula, embedding)
    sides = {POSITIVE: [p for p in plans if p.polarity == POSITIVE],
             NEGATIVE: [p for p in plans if p.polarity == NEGATIVE]}

    # propagators spill fillable+1 squares behind their rear tile; the level
    # pitch grows until every spill clears the variable row and lower bars
    pitch = ROW_PITCH
    for p in plans:
        spill = p.x_prop + 2 * p.prop_shift
        pitch = max(pitch,
                    -(-(spill + 6) // (2 * p.level)),  # clear the variable row
                    -(-(spill + 5) // 2))              # clear the next bar down

    def bar_row(p: _ClausePlan) -> int:
        off = 2 * pitch * p.level - 1
        return -off if p.polarity == POSITIVE else off

    # extreme AND row offsets (even, both sides)
    and_offset = {}
    for side, members in sides.items():
        need = max(4, MARGIN + 3)
        for p in members:
            need = max(need, 2 * pitch * p.level + MARGIN + 1,
                       2 * pitch * p.level + 3 * p.x_prop + p.prop_shift + 2)
            if p.crossed:  # sorted by level, so the last is the top one
                ltop = plans[p.crossed[-1]].level
                need = max(need, 2 * pitch * ltop + p.x_prop + p.prop_shift + 2)
        and_offset[side] = need + (need & 1)
    and_row = {POSITIVE: -and_offset[POSITIVE], NEGATIVE: and_offset[NEGATIVE]}

    # one pass per variable, left to right: lay out both windows (offsets
    # independent of L and of the position), fit L, place the strip, record
    # its absolute wire and corridor columns and build its blueprint
    variables: list[VariableRecord] = []
    placed: list = []  # every blueprint built before the extreme ANDs
    wire_cols: dict[tuple[int, int], list[int]] = {}  # (clause, var position) -> columns
    corridor: dict[int, int] = {}                      # clause -> column
    prev_right = None
    for vp, var in enumerate(embedding.var_order):
        rw, lw = _layout_window(sides[POSITIVE], vp), _layout_window(sides[NEGATIVE], vp)
        length = _fit_length(rw, lw)
        # an unused window has rel_min 0 and rel_max -1, so its terms never win
        half3 = 3 * length // 2
        left_reach = max(half3, length - lw.rel_min, -half3 - rw.rel_min)
        vx = 0 if prev_right is None else prev_right + MARGIN + left_reach
        if length % 4 and rw.wire_offsets:  # L == 2, right window only: start vx + 3 must be even
            vx += (vx & 1) ^ 1
        else:
            vx += vx & 1
        prev_right = vx + max(length - 1 + half3, half3 + rw.rel_max, lw.rel_max - length)
        for w, start in ((rw, vx + half3), (lw, vx - length)):
            for ci, offsets in w.wire_offsets.items():
                wire_cols[ci, vp] = [start + o for o in offsets]
            for ci, off in w.corridor_offsets.items():
                corridor[ci] = start + off
        bp = make_variable((0, vx), length, gadget_id=f"var{var}")
        variables.append(VariableRecord(var, bp))
        placed.append(bp)

    chains: list[ChainedPair] = []
    crossovers: list[CrossoverSpec] = []
    reads: list[ReadLink] = []
    records: list[ClauseRecord] = []  # in clause order, so records[ci] is clause ci

    for p in plans:
        row = bar_row(p)
        up = p.polarity == POSITIVE
        cid = f"clause{p.ci + 1}"
        attach = {embedding.var_order[vp]: [(0, col) for col in wire_cols[p.ci, vp]]
                  for vp in p.var_positions}
        bar, wires, links = make_clause(attach, p.g, row, corridor[p.ci], gadget_id=cid)
        chains.extend(links)
        for vp, tw in zip(p.var_positions, wires):
            reads.extend(ReadLink(variables[vp].blueprint, wire, "R" if up else "L")
                         for wire in tw)

        # propagator: first source on the bar's target; each crossover moves
        # its target one square, so it starts x short of the AND row
        short = p.x_prop if up else -p.x_prop
        prop = make_bar(corridor[p.ci], row, row, and_row[p.polarity] + short, 1, 1,
                        forward="U" if up else "D", kind="propagator",
                        gadget_id=f"{cid}.prop")
        chains.append(chain(bar, prop))
        placed += [bar, *(w for tw in wires for w in tw), prop]
        records.append(ClauseRecord(
            index=p.ci, polarity=p.polarity, level=p.level,
            bar_crossings=p.x_bar, bar=bar, wires=wires, propagator=prop))

    # crossovers, now that every bar exists
    for p in plans:
        for di in p.crossed:
            point = (bar_row(plans[di]), corridor[p.ci])
            crossovers.append(make_crossover(records[di].bar, records[p.ci].propagator, point))

    # final column: right of every placed bounding box
    final_col = max(bp.bbox[3] for bp in placed) + MARGIN + 1
    side_records = {side: [records[p.ci] for p in members] for side, members in sides.items()}
    for members in side_records.values():
        if members:
            natural = max(corridor[rec.index] for rec in members) + 1
            final_col = max(final_col, natural + len(members) + 2)

    def make_and(side: str) -> GadgetBlueprint:
        gid = "and.pos" if side == POSITIVE else "and.neg"
        row = and_row[side]
        members = side_records[side]
        if not members:
            # degenerate side: a constant-true emitter, a wire whose single
            # source is pre-filled on the board
            bp = make_bar(row, final_col - 3, final_col - 3, final_col, 1, 1,
                          forward="R", kind="emitter", gadget_id=gid)
            bp.prefilled = bp.sources
            return bp
        cols = sorted(corridor[rec.index] for rec in members)
        k = len(members)
        bp = make_bar(row, cols[0], cols[-1], final_col, k, k, forward="R",
                      kind="and", gadget_id=gid)
        for rec in members:
            chains.append(chain(rec.propagator, bp))
        return bp

    upper = make_and(POSITIVE)
    lower = make_and(NEGATIVE)

    final = make_bar(final_col, and_row[POSITIVE], and_row[NEGATIVE], and_row[NEGATIVE] + 4,
                     2, 2, forward="D", kind="final", gadget_id="final")
    chains.append(chain(upper, final))
    chains.append(chain(lower, final))

    certificate = Certificate(variables=variables, clauses=records,
                              upper=upper, lower=lower, final=final,
                              chains=chains, crossovers=crossovers, reads=reads)

    # normalize to a 1-square border and instantiate
    blueprints = certificate.gadget_blueprints()
    box = (*final.target, *final.target)
    for bp in blueprints:
        box = rect_union(box, bp.bbox)
    dr, dc = 1 - box[0], 1 - box[1]
    for bp in blueprints:
        bp.translate(dr, dc)

    board = instantiate(blueprints, final.target,
                        width=box[3] - box[1] + 3, height=box[2] - box[0] + 3)
    return CompiledPuzzle(board=board, certificate=certificate, formula=formula)


# -- intended solution ----------------------------------------------------------

def intended_solution(puzzle: CompiledPuzzle, assignment) -> list[Move]:
    """Move script that solves the board for a satisfying assignment.

    Stage order: variable strips (right for true, left for false), then all
    reader wires toward their clauses, clause bars rightward, propagators,
    the two extreme ANDs rightward, and the final AND downward.  Horizontal
    gadgets always precede the vertical gadgets that cross them, which is
    the order the crossover compensation assumes.
    """
    formula = puzzle.formula
    if len(assignment) != formula.num_vars:
        raise UnsatisfiedAssignment(
            f"assignment has {len(assignment)} values, formula has {formula.num_vars}")
    if not formula.evaluate(tuple(assignment)):
        raise UnsatisfiedAssignment("assignment does not satisfy the formula")

    cert = puzzle.certificate
    moves: list[Move] = []
    for vr in cert.variables:
        direction = "R" if assignment[vr.index - 1] else "L"
        moves.extend(vr.blueprint.moves(direction))
    ordered = sorted(cert.clauses, key=lambda r: (r.polarity, r.level, r.index))
    for rec in ordered:
        for tw in rec.wires:
            for wire in tw:
                moves.extend(wire.activation_order)
    for rec in ordered:
        moves.extend(rec.bar.activation_order)
    for rec in ordered:
        moves.extend(rec.propagator.activation_order)
    moves.extend(cert.upper.activation_order)
    moves.extend(cert.lower.activation_order)
    moves.extend(cert.final.activation_order)
    return moves


# -- audits ----------------------------------------------------------------------

class AuditViolation(NamedTuple):
    first: str
    second: str
    detail: str


def audit_bboxes(puzzle: CompiledPuzzle) -> list[AuditViolation]:
    """Pairwise bounding-box audit.

    Boxes must be disjoint unless the pair is registered as a chain link, a
    crossover, or a variable read.
    """
    cert = puzzle.certificate
    allowed = set()
    for c in cert.chains:
        allowed.add(frozenset((c.upstream.gadget_id, c.downstream.gadget_id)))
    for c in cert.crossovers:
        allowed.add(frozenset((c.horizontal.gadget_id, c.vertical.gadget_id)))
    for r in cert.reads:
        allowed.add(frozenset((r.variable.gadget_id, r.wire.gadget_id)))
    blueprints = cert.gadget_blueprints()
    out = []
    for i, a in enumerate(blueprints):
        for b in blueprints[i + 1:]:
            if not rects_intersect(a.bbox, b.bbox):
                continue
            if frozenset((a.gadget_id, b.gadget_id)) in allowed:
                continue
            out.append(AuditViolation(a.gadget_id, b.gadget_id,
                                      f"boxes {a.bbox} and {b.bbox} overlap"))
    return out


def check_certificate(puzzle: CompiledPuzzle) -> list[str]:
    """Structural invariants of a compiled puzzle; empty when sound.

    Checks that each clause's thickness is its crossings plus one, that
    clause bars share row parity, that every crossover is a plus of tiles
    around an empty square, that every chain anchor is a source downstream,
    that each read's anchor column lies in its variable's window on its
    side, that certificate and board agree on tile ownership, and that only
    the extreme and final ANDs reach the target column.
    """
    cert = puzzle.certificate
    board = puzzle.board
    problems = []

    for rec in cert.clauses:
        if rec.g != rec.bar_crossings + 1:
            problems.append(f"clause {rec.index}: g={rec.g} but x={rec.bar_crossings}")

    parities = {rec.bar.origin[0] & 1 for rec in cert.clauses}
    if len(parities) > 1:
        problems.append("clause bar rows mix parities")

    for c in cert.crossovers:
        r, col = c.intersection
        if board.at(r, col) != 0:
            problems.append(f"crossover intersection {c.intersection} is not empty")
        for rr, cc in ((r, col - 1), (r, col + 1), (r - 1, col), (r + 1, col)):
            if board.at(rr, cc) == 0:
                problems.append(f"crossover at {c.intersection} lacks a tile at {(rr, cc)}")

    for link in cert.chains:
        if link.anchor not in link.downstream.sources:
            problems.append(f"chain {link.upstream.gadget_id}->{link.downstream.gadget_id} "
                            "anchor mismatch")

    for read in cert.reads:
        var = read.variable
        lo, hi = var.right_window if read.side == "R" else var.left_window
        if not lo <= read.anchor[1] <= hi:
            problems.append(f"read {var.gadget_id}->{read.wire.gadget_id} at column "
                            f"{read.anchor[1]} outside the {read.side} window {(lo, hi)}")

    owners: dict[tuple[int, int], str] = {}
    for bp in cert.gadget_blueprints():
        for t in bp.tiles:
            if t in owners:
                problems.append(f"tile {t} owned by {owners[t]} and {bp.gadget_id}")
            owners[t] = bp.gadget_id
    board_tiles = {(r, c) for r, c, _ in board.tiles()}
    if board_tiles != set(owners):
        problems.append("board tiles do not match certificate ownership")

    # the final target sits right of every non-terminal gadget's box
    tcol = cert.final.target[1]
    for bp in cert.gadget_blueprints():
        if bp.gadget_id in (cert.upper.gadget_id, cert.lower.gadget_id,
                            cert.final.gadget_id):
            continue
        if bp.bbox[3] >= tcol:
            problems.append(f"{bp.gadget_id} reaches column {bp.bbox[3]}, "
                            f"not left of the target column {tcol}")
    return problems


# -- certificate text form --------------------------------------------------------

def render_certificate(puzzle: CompiledPuzzle) -> str:
    """Deterministic text record of the compiled structure."""
    cert = puzzle.certificate
    lines = [f"zhed-cert v1",
             f"board {puzzle.board.width} {puzzle.board.height}",
             f"target {cert.final.target[0]} {cert.final.target[1]}"]
    for vr in cert.variables:
        bp = vr.blueprint
        lines.append(f"variable {vr.index} row {bp.row} col {bp.col0} L {bp.length}")
    for bp in sorted(cert.gadget_blueprints(), key=lambda b: b.gadget_id):
        if isinstance(bp, VariableBlueprint):
            continue
        r0, c0, r1, c1 = bp.bbox
        lines.append(
            f"gadget {bp.gadget_id} kind {bp.kind} axis {bp.axis} forward {bp.forward} "
            f"k {bp.k} shifted {int(bp.shifted)} gaps {bp.gaps} "
            f"target {bp.target[0]} {bp.target[1]} bbox {r0} {c0} {r1} {c1}")
        lines.append(f"tiles {bp.gadget_id} " +
                     " ".join(f"{r},{c}" for r, c in bp.tiles))
    for rec in cert.clauses:
        wire_ids = ";".join(",".join(w.gadget_id for w in tw) for tw in rec.wires)
        lines.append(f"clause {rec.index + 1} {rec.polarity} level {rec.level} "
                     f"g {rec.g} x {rec.bar_crossings} or {rec.bar.gadget_id} "
                     f"prop {rec.propagator.gadget_id} wires {wire_ids}")
    for link in cert.chains:
        lines.append(f"chain {link.upstream.gadget_id} {link.downstream.gadget_id} "
                     f"{link.anchor[0]} {link.anchor[1]}")
    for c in cert.crossovers:
        lines.append(f"crossover {c.horizontal.gadget_id} {c.vertical.gadget_id} "
                     f"{c.intersection[0]} {c.intersection[1]}")
    for r in cert.reads:
        lines.append(f"read {r.variable.gadget_id} {r.wire.gadget_id} "
                     f"{r.anchor[0]} {r.anchor[1]} {r.side}")
    return "\n".join(lines) + "\n"
