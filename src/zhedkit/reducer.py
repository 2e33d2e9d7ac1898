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
  count is even, and the extreme ANDs as their extension to the shared
  column demands.

Every clause's bar and thick wires come from gadgets.make_clause; the
reducer chooses the wire columns, the bar row and the corridor, checks that
each wire attaches inside its variable's window, and records the reads.

The plan is built once, in immutable records: _plan_clauses gives each
clause a _ClausePlan (its variable positions, the bars its propagator
crosses, its thickness and shift flags), and _layout_window gives each side
of each variable a _WindowLayout of wire and corridor offsets relative to
the window.  compile lays out, places and builds each variable in one pass,
left to right: both window layouts, the strip length L, the strip's column,
the absolute wire and corridor columns (kept in two dicts of its own) and
the variable's blueprint.  Only then does it build the clauses.

The certificate maps every formula element to its gadget anchors; the
intended-solution generator and the verifier both consume it.  Its links
derive their anchors from the blueprints, so normalizing the layout only
translates the blueprints.
"""

from __future__ import annotations

from typing import NamedTuple

from .board import Board, Move
from .errors import (EmbeddingInvalid, LayoutOverflow, ParityUnfixable,
                     UnsatisfiedAssignment)
from .gadgets import (ChainedPair, CrossoverSpec, GadgetBlueprint, ReadLink,
                      ThickWire, VariableBlueprint, chain, instantiate,
                      make_clause, make_crossover, make_threshold,
                      make_variable, rect_union, rects_intersect)
from .rpm3sat import (Embedding, Formula, NEGATIVE, POSITIVE, auto_embed,
                      validate_embedding)


MARGIN = 2     # column spacing between footprints of unlinked gadgets
ROW_PITCH = 3  # least row pitch per clause level


class ClauseRecord(NamedTuple):
    index: int
    polarity: str
    level: int
    g: int
    bar_crossings: int        # x: propagators piercing this clause's bar
    bar: GadgetBlueprint
    wires: list[ThickWire]    # one thick wire per literal, variable order
    propagator: GadgetBlueprint
    corridor_col: int


class VariableRecord(NamedTuple):
    index: int
    blueprint: VariableBlueprint


class Certificate(NamedTuple):
    variables: list[VariableRecord]
    clauses: list[ClauseRecord]
    upper: GadgetBlueprint        # extreme AND (or constant emitter) above
    lower: GadgetBlueprint        # and below
    final: GadgetBlueprint
    chains: list[ChainedPair]
    crossovers: list[CrossoverSpec]
    reads: list[ReadLink]
    target: tuple[int, int]

    def gadget_blueprints(self) -> list:
        out = [rec.blueprint for rec in self.variables]
        for cr in self.clauses:
            out.append(cr.bar)
            for tw in cr.wires:
                out.extend(tw.wires)
            out.append(cr.propagator)
        out.extend([self.upper, self.lower, self.final])
        return out


class CompiledPuzzle(NamedTuple):
    board: Board
    certificate: Certificate
    formula: Formula
    embedding: Embedding


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
    """Smallest usable even L for a variable given its two window layouts."""
    rw_used = bool(rw.wire_offsets)
    lw_used = bool(lw.wire_offsets)

    def fits(length: int) -> bool:
        if rw_used and rw.last_wire > length // 2 - 1:
            return False
        if lw_used and lw.last_wire > length // 2 - 1:
            return False
        if rw_used and lw_used:
            if length % 4:
                return False  # window parity needs L divisible by 4
            # left-side spill must stay clear of the right window's pokes
            if 5 * length // 2 + rw.rel_min - lw.rel_max < MARGIN:
                return False
        elif length > 2 and length % 4:
            return False  # one window: L is 2 or divisible by 4
        return True

    if not rw_used and not lw_used:
        return 2
    candidates = [2, 4] + list(range(8, 8 + 4 * (rw.last_wire + lw.last_wire + 32), 4))
    for length in candidates:
        if fits(length):
            return length
    raise LayoutOverflow("no variable length fits the window layout")


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
        left_reach = 3 * length // 2
        if lw.wire_offsets:
            left_reach = max(left_reach, length - lw.rel_min)
        if rw.wire_offsets:
            left_reach = max(left_reach, -(3 * length // 2) - rw.rel_min)
        vx = 0 if prev_right is None else prev_right + MARGIN + left_reach
        if length % 4 and rw.wire_offsets:  # L == 2, right window only: start vx + 3 must be even
            vx += (vx & 1) ^ 1
        else:
            vx += vx & 1
        prev_right = vx + length - 1 + 3 * length // 2
        if rw.wire_offsets:
            prev_right = max(prev_right, vx + 3 * length // 2 + rw.rel_max)
        if lw.wire_offsets:
            prev_right = max(prev_right, vx - length + lw.rel_max)
        for w, start in ((rw, vx + 3 * length // 2), (lw, vx - length)):
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
        if p.ci not in corridor:
            raise LayoutOverflow(f"clause {p.ci} never received a corridor")
        corridor_col = corridor[p.ci]
        attach = {embedding.var_order[vp]: [(0, col) for col in wire_cols[p.ci, vp]]
                  for vp in p.var_positions}
        bar, wires, links = make_clause(attach, p.g, row, corridor_col, gadget_id=cid)
        chains.extend(links)
        for vp, tw in zip(p.var_positions, wires):
            vb = variables[vp].blueprint
            lo, hi = (vb.right_window if up else vb.left_window)
            for wire in tw.wires:
                col = wire.origin[1]
                if not lo <= col <= hi:
                    raise LayoutOverflow(
                        f"wire column {col} outside attach window {(lo, hi)}")
                reads.append(ReadLink(vb, wire, "R" if up else "L"))

        # propagator: rear gap on the bar's target, target on the AND row
        # (before its crossover adjustments it stops x short of it)
        r_and = and_row[p.polarity]
        span = abs(row - r_and)
        gaps = (span - 1 - p.x_prop - p.prop_shift) // 2
        if (span - 1 - p.x_prop - p.prop_shift) % 2 or gaps < 1 + p.x_prop:
            raise ParityUnfixable(f"propagator span for clause {p.ci} is inconsistent")
        rear = (row + 1 if up else row - 1, corridor_col)
        prop = make_threshold(rear, "V", "U" if up else "D", gaps, 1,
                              shifted=bool(p.prop_shift), fillable=1,
                              kind="propagator", gadget_id=f"{cid}.prop")
        chains.append(chain(bar, prop))
        placed += [bar, *(w for tw in wires for w in tw.wires), prop]
        records.append(ClauseRecord(
            index=p.ci, polarity=p.polarity, level=p.level, g=p.g,
            bar_crossings=p.x_bar, bar=bar,
            wires=wires, propagator=prop, corridor_col=corridor_col))

    # crossovers, now that every bar exists
    for p in plans:
        rec = records[p.ci]
        for di in p.crossed:
            point = (bar_row(plans[di]), rec.corridor_col)
            crossovers.append(make_crossover(records[di].bar, rec.propagator, point))
        wanted = (and_row[p.polarity], rec.corridor_col)
        if rec.propagator.target != wanted:
            raise ParityUnfixable(
                f"propagator for clause {p.ci} ends at {rec.propagator.target}, "
                f"wanted {wanted}")

    # final column: right of every placed bounding box
    final_col = max(bp.bbox[3] for bp in placed) + MARGIN + 1
    side_records = {side: [records[p.ci] for p in members] for side, members in sides.items()}
    for members in side_records.values():
        if members:
            natural = max(rec.corridor_col for rec in members) + 1
            final_col = max(final_col, natural + len(members) + 2)

    def make_and(side: str) -> GadgetBlueprint:
        gid = "and.pos" if side == POSITIVE else "and.neg"
        row = and_row[side]
        members = side_records[side]
        if not members:
            # degenerate side: a constant-true emitter, a wire whose single
            # source is pre-filled on the board
            origin = (row, final_col - 4)
            return make_threshold(origin, "H", "R", 1, 1, fillable=1,
                                  kind="emitter", gadget_id=gid,
                                  prefilled=((row, final_col - 3),))
        cols = sorted(rec.corridor_col for rec in members)
        k = len(members)
        shift = (final_col - k - 1 - (cols[-1] + 1)) & 1
        last = final_col - k - 1 - shift
        origin = (row, cols[0] - 1)
        if last < cols[-1] + 1 or (last - origin[1]) % 2:
            raise ParityUnfixable("extreme AND extent is inconsistent")
        bp = make_threshold(origin, "H", "R", (last - origin[1]) // 2, k,
                            shifted=bool(shift), fillable=k,
                            kind="and", gadget_id=gid)
        if bp.target != (row, final_col):
            raise ParityUnfixable("extreme AND target misses the final column")
        for rec in members:
            chains.append(chain(rec.propagator, bp))
        return bp

    upper = make_and(POSITIVE)
    lower = make_and(NEGATIVE)

    span = and_row[NEGATIVE] - and_row[POSITIVE]
    final = make_threshold((and_row[POSITIVE] - 1, final_col), "V", "D",
                           span // 2 + 1, 2, fillable=2, kind="final",
                           gadget_id="final")
    chains.append(chain(upper, final))
    chains.append(chain(lower, final))
    target = final.target

    certificate = Certificate(variables=variables, clauses=records,
                              upper=upper, lower=lower, final=final,
                              chains=chains, crossovers=crossovers,
                              reads=reads, target=target)

    # normalize to a 1-square border and instantiate
    blueprints = certificate.gadget_blueprints()
    box = (*target, *target)
    for bp in blueprints:
        box = rect_union(box, bp.bbox)
    dr, dc = 1 - box[0], 1 - box[1]
    for bp in blueprints:
        bp.translate(dr, dc)
    certificate = certificate._replace(target=(target[0] + dr, target[1] + dc))

    board = instantiate(blueprints, certificate.target,
                        width=box[3] - box[1] + 3, height=box[2] - box[0] + 3)
    return CompiledPuzzle(board=board, certificate=certificate,
                          formula=formula, embedding=embedding)


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
        raise UnsatisfiedAssignment("assignment length mismatch")
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
            for wire in tw.wires:
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
    """Structural invariants of a compiled puzzle; empty when sound."""
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
    tcol = cert.target[1]
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
             f"target {cert.target[0]} {cert.target[1]}"]
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
        wire_ids = ";".join(",".join(w.gadget_id for w in tw.wires) for tw in rec.wires)
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
