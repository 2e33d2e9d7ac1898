"""Gadget blueprints for the SAT-to-ZHED construction.

The workhorse is the threshold gadget: b+1 tiles of value 1 on alternate
squares along one axis.  The b empty squares between consecutive tiles are
its sources; the square at distance k+1 beyond the last tile is its target.
Expanding every tile toward the target (rear first) reaches distance j+1
beyond the last tile when j sources were pre-filled, so the target fills
iff j >= k.  Wires (k=1), AND (k=m), OR (k=1 with m inputs), clause bars
and propagators are all parameterizations of this one shape.

A shifted threshold (make_threshold with shifted=True) carries one extra
tile behind the rear tile.  That tile's expansion is absorbed by the first
source gap, which moves the whole reach (and the target) one square
forward: the same threshold law with the opposite target parity.  It is
the parity-fixing tool of the layout.

Bounding boxes are closed rectangles, 3 squares across the axis.  Forward
reach is fillable+1 (+1 when shifted), where fillable counts the sources
other gadgets can actually fill; make_threshold defaults fillable to all
sources, which matches exhaustive certification, while the reducer passes
the true connected count.  The count only sizes the box; the blueprint does
not keep it.  Chaining or a crossover lengthens the affected boxes by one
square per the interaction.

make_clause assembles a whole clause (an OR bar fed by thick wires); it is
the only clause builder, used by the reducer and by the tests alike.  The
link records (ChainedPair, CrossoverSpec, ReadLink) compute their anchor
squares from the blueprints they join, so translating the blueprints moves
the links with them.  The blueprints are mutable, slotted records that the
links and the certificate share, so they compare by identity.
"""

from __future__ import annotations

from typing import NamedTuple

from .board import BLANK, DELTAS, Board, Move
from .errors import AnchorMismatch, InvalidParam, ParityMismatch, TileCollision

_AXIS_OF = {"U": "V", "D": "V", "L": "H", "R": "H"}

Coord = tuple[int, int]


def _add(p: Coord, d: Coord, times: int = 1) -> Coord:
    return (p[0] + d[0] * times, p[1] + d[1] * times)


def rects_intersect(a, b) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def rect_union(a, b) -> tuple[int, int, int, int]:
    return min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])


class GadgetBlueprint:
    """One placed threshold gadget plus its bookkeeping.

    Mutable during the build phase (crossover insertion bumps k/target/bbox);
    treated as immutable once the owning puzzle is finalized.
    """
    # in __init__'s order, which isolated_board's copy relies on
    __slots__ = ("gadget_id", "kind", "axis", "forward", "origin", "gaps", "k", "shifted",
                 "tiles", "sources", "target", "bbox", "prefilled", "chained")

    def __init__(self, gadget_id: str, kind: str, axis: str, forward: str, origin: Coord,
                 gaps: int, k: int, shifted: bool, tiles: tuple[Coord, ...],
                 sources: tuple[Coord, ...], target: Coord, bbox: tuple[int, int, int, int],
                 prefilled: tuple[Coord, ...], chained: bool = False):
        self.gadget_id = gadget_id
        self.kind = kind          # threshold, wire, clause-or, propagator, and, emitter, ...
        self.axis = axis          # "H" or "V"
        self.forward = forward    # direction of propagation, one of URDL
        self.origin = origin      # rear tile (the shift tile sits one behind it)
        self.gaps = gaps          # number of sources b
        self.k = k
        self.shifted = shifted
        self.tiles = tiles
        self.sources = sources
        self.target = target
        self.bbox = bbox
        self.prefilled = prefilled
        self.chained = chained

    @property
    def delta(self) -> Coord:
        return DELTAS[self.forward]

    @property
    def activation_order(self) -> tuple[Move, ...]:
        """Expand every tile toward the target, farthest from it first."""
        return tuple(Move(r, c, self.forward) for r, c in self.tiles)

    def translate(self, dr: int, dc: int) -> None:
        self.origin = (self.origin[0] + dr, self.origin[1] + dc)
        self.tiles = tuple((r + dr, c + dc) for r, c in self.tiles)
        self.sources = tuple((r + dr, c + dc) for r, c in self.sources)
        self.target = (self.target[0] + dr, self.target[1] + dc)
        r0, c0, r1, c1 = self.bbox
        self.bbox = (r0 + dr, c0 + dc, r1 + dr, c1 + dc)
        self.prefilled = tuple((r + dr, c + dc) for r, c in self.prefilled)


class VariableBlueprint:
    """L consecutive tiles on the central row plus its attach windows.

    Wires reading the value attach at columns between L/2+1 and L away from
    the nearest end, so a split expansion (x left, y right, x+y=L) can never
    reach wires on both sides.  The bounding box allows for rays lengthened
    by skipping over already-expanded wire sources: 3L/2 columns per side.
    """
    __slots__ = ("gadget_id", "row", "col0", "length", "tiles", "bbox",
                 "left_window", "right_window")

    def __init__(self, gadget_id: str, row: int, col0: int, length: int,
                 tiles: tuple[Coord, ...], bbox: tuple[int, int, int, int],
                 left_window: tuple[int, int], right_window: tuple[int, int]):
        self.gadget_id = gadget_id
        self.row = row
        self.col0 = col0                  # leftmost tile column
        self.length = length              # L, even
        self.tiles = tiles
        self.bbox = bbox
        self.left_window = left_window    # inclusive column range
        self.right_window = right_window

    def translate(self, dr: int, dc: int) -> None:
        self.row += dr
        self.col0 += dc
        self.tiles = tuple((r + dr, c + dc) for r, c in self.tiles)
        r0, c0, r1, c1 = self.bbox
        self.bbox = (r0 + dr, c0 + dc, r1 + dr, c1 + dc)
        self.left_window = (self.left_window[0] + dc, self.left_window[1] + dc)
        self.right_window = (self.right_window[0] + dc, self.right_window[1] + dc)

    def moves(self, direction: str) -> tuple[Move, ...]:
        return tuple(Move(r, c, direction) for r, c in self.tiles)


class _ThickWireFields(NamedTuple):
    g: int
    wires: tuple[GadgetBlueprint, ...]


class ThickWire(_ThickWireFields):
    """g parallel wires, 4 apart, joining one variable to one clause bar."""
    __slots__ = ()

    def __new__(cls, g: int, wires: tuple[GadgetBlueprint, ...]):
        if g != len(wires):
            raise InvalidParam("thickness does not match wire count")
        axes = {w.axis for w in wires}
        if len(axes) != 1:
            raise InvalidParam("thick wire components must share an axis")
        coord = 1 if wires[0].axis == "V" else 0
        lanes = sorted(w.origin[coord] for w in wires)
        for a, b in zip(lanes, lanes[1:]):
            if b - a != 4:
                raise InvalidParam(f"wire separation {b - a}, expected 4")
        for i, a in enumerate(wires):
            for b in wires[i + 1:]:
                if rects_intersect(a.bbox, b.bbox):
                    raise InvalidParam("component wire bounding boxes overlap")
        return tuple.__new__(cls, (g, wires))


class CrossoverSpec(NamedTuple):
    horizontal: GadgetBlueprint
    vertical: GadgetBlueprint

    @property
    def intersection(self) -> Coord:
        return (self.horizontal.origin[0], self.vertical.origin[1])


class ChainedPair(NamedTuple):
    upstream: GadgetBlueprint
    downstream: GadgetBlueprint

    @property
    def anchor(self) -> Coord:
        return self.upstream.target


class ReadLink(NamedTuple):
    """A wire whose rear source sits on a variable's row, inside its reach."""
    variable: VariableBlueprint
    wire: GadgetBlueprint
    side: str  # "L" or "R"

    @property
    def anchor(self) -> Coord:
        return (self.variable.row, self.wire.origin[1])


def make_threshold(origin: Coord, axis: str, forward: str, num_sources: int,
                   k: int, *, shifted: bool = False, fillable: int | None = None,
                   kind: str = "threshold", gadget_id: str = "",
                   prefilled: tuple[Coord, ...] = ()) -> GadgetBlueprint:
    """Threshold gadget with its rear tile at origin.

    num_sources is the gap count b; the default bounding box assumes every
    source can be filled from outside (reach b+1 beyond the last tile, one
    square behind the rear tile, 3 across the axis).
    """
    if axis not in ("H", "V"):
        raise InvalidParam(f"bad axis {axis!r}")
    if forward not in DELTAS or _AXIS_OF[forward] != axis:
        raise InvalidParam(f"direction {forward!r} does not run along axis {axis!r}")
    if num_sources < 1:
        raise InvalidParam("a threshold gadget needs at least one source")
    if not 1 <= k <= num_sources:
        raise InvalidParam(f"k={k} outside 1..{num_sources}")
    if fillable is None:
        fillable = num_sources
    if not 0 <= fillable <= num_sources:
        raise InvalidParam(f"fillable={fillable} outside 0..{num_sources}")

    d = DELTAS[forward]
    tiles = [_add(origin, d, 2 * i) for i in range(num_sources + 1)]
    if shifted:
        tiles.insert(0, _add(origin, d, -1))
    sources = tuple(_add(origin, d, 2 * i + 1) for i in range(num_sources))
    last = _add(origin, d, 2 * num_sources)
    target = _add(last, d, k + 1 + (1 if shifted else 0))
    # fills can escape j+1 squares past EITHER end: backward expansions skip
    # over pre-filled gaps just like forward ones, so the box is symmetric
    # (the shift tile adds one tile plus one square of reach at the rear)
    reach = fillable + 1 + (1 if shifted else 0)
    rear_edge = _add(origin, d, -(fillable + 1 + (2 if shifted else 0)))
    front_edge = _add(last, d, reach)
    if axis == "H":
        span = (origin[0] - 1, min(rear_edge[1], front_edge[1]),
                origin[0] + 1, max(rear_edge[1], front_edge[1]))
    else:
        span = (min(rear_edge[0], front_edge[0]), origin[1] - 1,
                max(rear_edge[0], front_edge[0]), origin[1] + 1)

    return GadgetBlueprint(
        gadget_id=gadget_id, kind=kind, axis=axis, forward=forward,
        origin=origin, gaps=num_sources, k=k, shifted=shifted,
        tiles=tuple(tiles), sources=sources, target=target,
        bbox=span, prefilled=prefilled)


def make_variable(origin: Coord, length: int, *, gadget_id: str = "") -> VariableBlueprint:
    if length < 2 or length % 2:
        raise InvalidParam(f"variable length must be even and >= 2, got {length}")
    row, col0 = origin
    half = length // 2
    tiles = tuple((row, col0 + i) for i in range(length))
    bbox = (row - 1, col0 - 3 * half, row + 1, col0 + length - 1 + 3 * half)
    left_window = (col0 - length, col0 - half - 1)
    right_window = (col0 + length - 1 + half + 1, col0 + length - 1 + length)
    return VariableBlueprint(gadget_id=gadget_id, row=row, col0=col0,
                             length=length, tiles=tiles, bbox=bbox,
                             left_window=left_window, right_window=right_window)


def chain(upstream: GadgetBlueprint, downstream: GadgetBlueprint) -> ChainedPair:
    """Link two gadgets: the upstream target doubles as a downstream source.

    Grows the upstream box one square forward, because the downstream gadget
    may expand first and pre-fill the shared square, letting the upstream
    ray skip one farther.
    """
    if upstream.target not in downstream.sources:
        raise AnchorMismatch(
            f"target {upstream.target} of {upstream.gadget_id or 'upstream'} is not a "
            f"source of {downstream.gadget_id or 'downstream'}")
    if upstream.axis == downstream.axis:
        raise AnchorMismatch("chained gadgets must run on orthogonal axes")
    if not upstream.chained:
        d = upstream.delta
        r0, c0, r1, c1 = upstream.bbox
        grown = (min(r0, r0 + d[0]), min(c0, c0 + d[1]),
                 max(r1, r1 + d[0]), max(c1, c1 + d[1]))
        upstream.bbox = grown
        upstream.chained = True
    return ChainedPair(upstream, downstream)


def make_crossover(horizontal: GadgetBlueprint, vertical: GadgetBlueprint,
                   intersection: Coord) -> CrossoverSpec:
    """Let a vertical threshold gadget pierce a horizontal one.

    The intersection square must be a source gap of both gadgets, leaving the
    four surrounding squares tiles (a plus sign).  The vertical gadget gets
    k+1 and its target one square farther: the horizontal gadget is meant to
    expand first and fill the shared gap.  If played in the other order the
    horizontal gadget's reach grows by exactly one square instead, the error
    the clause thickness rule (g > x) absorbs.  Both bounding boxes grow by
    one square at each end plus a 3x3 box at the intersection.
    """
    if horizontal.axis != "H" or vertical.axis != "V":
        raise InvalidParam("crossover needs a horizontal and a vertical gadget")
    if intersection not in horizontal.sources or intersection not in vertical.sources:
        raise ParityMismatch(
            f"intersection {intersection} is not a shared source gap; "
            "insert a shift gadget to align parities")
    r, c = intersection
    plus = [(r, c - 1), (r, c + 1)], [(r - 1, c), (r + 1, c)]
    if not all(p in horizontal.tiles for p in plus[0]):
        raise ParityMismatch(f"horizontal tiles missing around {intersection}")
    if not all(p in vertical.tiles for p in plus[1]):
        raise ParityMismatch(f"vertical tiles missing around {intersection}")
    if vertical.k + 1 > vertical.gaps:
        raise InvalidParam("vertical gadget lacks sources for another crossover")

    vertical.k += 1
    vertical.target = _add(vertical.target, vertical.delta)
    for bp in (horizontal, vertical):
        d = bp.delta
        r0, c0, r1, c1 = bp.bbox
        bp.bbox = (r0 - abs(d[0]), c0 - abs(d[1]), r1 + abs(d[0]), c1 + abs(d[1]))
        bp.bbox = rect_union(bp.bbox, (r - 1, c - 1, r + 1, c + 1))
    return CrossoverSpec(horizontal, vertical)


def make_clause(attach_points: dict, g: int, level_row: int, target_col: int, *,
                gadget_id: str = "clause"):
    """Clause gadget: a horizontal OR bar with k=g fed by thick wires.

    This is the one clause builder; the reducer calls it for every clause.
    attach_points maps a label per literal (the reducer uses the variable
    index) to the g coordinates on the variable row where that literal's
    wires begin.  Each wire runs vertically from its attach square to a
    source gap of the bar on level_row and is named
    <gadget_id>.v<label>.w<i>.  A single activated thick wire advances the
    bar's reach by g, so the bar acts as an OR of the literals.

    The bar's rear tile sits one square left of the leftmost wire and its
    target on (level_row, target_col).  The bar is shifted exactly when the
    parity of target_col demands it; a target column nearer than g+1
    squares beyond the last wire's gap raises ParityMismatch.  Every source
    can be filled by a wire, so the bar's fillable count is (literals) * g.

    Each wire is a threshold gadget with k=1 whose rear tile sits one square
    behind the variable row, so its first source is the attach square and
    its target is the bar's gap (level_row, attach column).  With span =
    |variable row - level_row|, the target lies span+1 squares from the
    rear tile, which is 2b+2 (+1 when shifted): the wire is shifted exactly
    when span is even, and b = (span - 1 - shift) // 2.  A span below 3
    leaves no room for a wire's source gap and raises InvalidParam.

    Returns (or_blueprint, thick_wires, chains), thick wires in the order
    of attach_points.
    """
    if g < 1:
        raise InvalidParam("wire thickness g must be >= 1")
    if not 1 <= len(attach_points) <= 3:
        raise InvalidParam("a clause takes 1..3 literals")
    for pts in attach_points.values():
        if len(pts) != g:
            raise InvalidParam(f"each literal needs exactly {g} attach points")

    anchor_rows = {r for pts in attach_points.values() for r, _ in pts}
    if len(anchor_rows) != 1:
        raise InvalidParam("attach points must share the variable row")
    base_row = anchor_rows.pop()
    span = abs(base_row - level_row)
    if span < 3:
        raise InvalidParam(f"clause bar {span} rows from the variable row; needs >= 3")
    up = level_row < base_row
    wire_forward = "U" if up else "D"

    all_cols = sorted(c for pts in attach_points.values() for _, c in pts)
    if len(set(all_cols)) != len(all_cols):
        raise InvalidParam("attach columns must be distinct")

    origin = (level_row, all_cols[0] - 1)
    natural_last = all_cols[-1] + 1
    shifted_bar = (target_col - natural_last - g - 1) % 2 == 1
    last = target_col - g - 1 - (1 if shifted_bar else 0)
    if last < natural_last:
        raise ParityMismatch(
            f"target column {target_col} unreachable from bar end {natural_last}")
    bar = make_threshold(origin, "H", "R", (last - origin[1]) // 2, g,
                         shifted=shifted_bar, fillable=len(attach_points) * g,
                         kind="clause-or", gadget_id=gadget_id + ".or")
    if bar.target != (level_row, target_col):
        raise ParityMismatch("bar target landed off the requested column")

    shifted_wire = span % 2 == 0
    b_wire = (span - 1 - (1 if shifted_wire else 0)) // 2
    wires = []
    chains = []
    for label, pts in attach_points.items():
        group = []
        for wi, (_, ac) in enumerate(pts):
            rear = (base_row + (1 if up else -1), ac)
            wire = make_threshold(rear, "V", wire_forward, b_wire, 1,
                                  shifted=shifted_wire, fillable=1, kind="wire",
                                  gadget_id=f"{gadget_id}.v{label}.w{wi}")
            if wire.target != (level_row, ac):
                raise ParityMismatch("wire target does not meet the bar row")
            chains.append(chain(wire, bar))
            group.append(wire)
        wires.append(ThickWire(g, tuple(group)))
    return bar, wires, chains


def instantiate(blueprints, target: Coord, width: int | None = None,
                height: int | None = None) -> Board:
    """Board with a value-1 tile at every blueprint tile, Empty elsewhere.

    Pre-filled squares declared by blueprints become Blank.  Two blueprints
    claiming one square raise TileCollision naming both.
    """
    tiles: dict[Coord, str] = {}
    prefills: dict[Coord, str] = {}
    for bp in blueprints:
        for t in bp.tiles:
            if t in tiles:
                raise TileCollision(
                    f"square {t} claimed by {tiles[t] or 'blueprint'} and "
                    f"{bp.gadget_id or 'blueprint'}")
            tiles[t] = bp.gadget_id
        for p in getattr(bp, "prefilled", ()):
            prefills[p] = bp.gadget_id
    if width is None or height is None:
        box = None
        for bp in blueprints:
            box = bp.bbox if box is None else rect_union(box, bp.bbox)
        if box is None:
            raise InvalidParam("nothing to instantiate")
        box = rect_union(box, (*target, *target))
        height = height or box[2] + 2
        width = width or box[3] + 2

    cells = bytearray(width * height)
    for (r, c), owner in tiles.items():
        if not (0 <= r < height and 0 <= c < width):
            raise TileCollision(f"tile {(r, c)} of {owner or 'blueprint'} outside the board")
        cells[r * width + c] = 1
    for (r, c), owner in prefills.items():
        if not (0 <= r < height and 0 <= c < width):
            raise TileCollision(f"prefill {(r, c)} of {owner or 'blueprint'} outside the board")
        if cells[r * width + c]:
            raise TileCollision(f"prefill {(r, c)} collides with a tile")
        cells[r * width + c] = BLANK
    return Board(width, height, target, bytes(cells))


def isolated_board(blueprint: GadgetBlueprint,
                   prefill_sources=()) -> Board:
    """The gadget alone on a board of its bounding box plus a 1-square ring.

    prefill_sources lists source indices (rear to front) to pre-fill Blank,
    simulating deliveries from other gadgets.
    """
    r0, c0, r1, c1 = rect_union(blueprint.bbox, (*blueprint.target, *blueprint.target))
    dr, dc = 1 - r0, 1 - c0
    # a copy, so the caller's blueprint stays where it is
    work = GadgetBlueprint(*(getattr(blueprint, name) for name in GadgetBlueprint.__slots__))
    work.translate(dr, dc)
    extra = tuple(work.sources[i] for i in prefill_sources)
    work.prefilled = work.prefilled + extra
    return instantiate([work], work.target,
                       width=(c1 - c0) + 3, height=(r1 - r0) + 3)
