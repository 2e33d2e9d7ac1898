"""Gadget constructors and their laws.

The exhaustive certifications live in zhedkit.verify (and run in the
acceptance suite); here the constructors' geometry and the simulation-level
laws are pinned down, including reach counts, shift parity, chaining, and
crossover order behavior.
"""

import itertools

import pytest

from zhedkit.board import BLANK, Move, is_solved
from zhedkit.errors import AnchorMismatch, InvalidParam, ParityMismatch, TileCollision
from zhedkit.gadgets import (ThickWire, chain, instantiate, isolated_board,
                             make_clause, make_crossover, make_threshold,
                             make_variable)
from zhedkit.solver import Solvable, Unsolvable, replay, solve


def activation_reach(board, blueprint):
    """Filled squares beyond the last tile after rear-to-front activation."""
    end = replay(board, blueprint.activation_order)
    dr, dc = blueprint.delta
    r, c = blueprint.tiles[-1]
    reach = 0
    r, c = r + dr, c + dc
    while 0 <= r < end.height and 0 <= c < end.width and end.at(r, c) != 0:
        reach += 1
        r, c = r + dr, c + dc
    return reach


class TestThresholdGeometry:
    def test_headline_shape(self):
        bp = make_threshold((0, 0), "H", "R", 5, 3)
        assert len(bp.tiles) == 6
        assert len(bp.sources) == 5
        assert bp.target == (0, 14)  # distance k+1 = 4 beyond the last tile

    def test_tiles_alternate_and_sources_fill_gaps(self):
        bp = make_threshold((4, 2), "H", "R", 3, 2)
        assert bp.tiles == ((4, 2), (4, 4), (4, 6), (4, 8))
        assert bp.sources == ((4, 3), (4, 5), (4, 7))

    def test_bbox_three_across_and_symmetric_reach(self):
        bp = make_threshold((4, 10), "H", "R", 3, 2)
        r0, c0, r1, c1 = bp.bbox
        assert (r0, r1) == (3, 5)
        assert c1 == 16 + 4     # b+1 beyond the last tile
        assert c0 == 10 - 4     # fills can escape b+1 behind the rear too

    def test_wire_is_threshold_with_one_source(self):
        wire = make_threshold((0, 0), "V", "D", 1, 1)
        assert len(wire.tiles) == 2 and wire.k == 1
        assert wire.target == (4, 0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParam):
            make_threshold((0, 0), "H", "R", 3, 4)  # k > b
        with pytest.raises(InvalidParam):
            make_threshold((0, 0), "H", "R", 0, 1)
        with pytest.raises(InvalidParam):
            make_threshold((0, 0), "H", "U", 2, 1)  # direction off-axis

    def test_activation_order_rear_to_front(self):
        bp = make_threshold((0, 0), "H", "R", 2, 1)
        assert bp.activation_order == (Move(0, 0, "R"), Move(0, 2, "R"), Move(0, 4, "R"))


class TestThresholdLaw:
    def test_reach_is_prefills_plus_one(self):
        # for every b <= 5 and j pre-filled sources the activated ray ends
        # exactly j+1 squares past the last tile
        for b in range(1, 6):
            for j in range(b + 1):
                bp = make_threshold((5, 2), "H", "R", b, 1)
                bp.prefilled = bp.sources[:j]
                board = instantiate([bp], bp.target, width=2 * b + 12, height=11)
                assert activation_reach(board, bp) == j + 1, (b, j)

    def test_prefill_positions_do_not_matter(self):
        for subset in itertools.combinations(range(4), 2):
            bp = make_threshold((5, 2), "H", "R", 4, 2)
            bp.prefilled = tuple(bp.sources[i] for i in subset)
            board = instantiate([bp], bp.target, width=22, height=11)
            assert activation_reach(board, bp) == 3

    def test_full_search_confirms_law_for_fig_sized_gadget(self):
        for j, kind in ((2, Unsolvable), (3, Solvable)):
            bp = make_threshold((2, 2), "H", "R", 5, 3)
            board = isolated_board(bp, prefill_sources=tuple(range(j)))
            assert isinstance(solve(board), kind)


class TestShiftedThreshold:
    def test_target_one_square_farther(self):
        plain = make_threshold((0, 0), "H", "R", 1, 1)
        shifted = make_threshold((0, 0), "H", "R", 1, 1, shifted=True)
        assert shifted.target == (0, plain.target[1] + 1)

    def test_extra_tile_sits_behind_and_fires_first(self):
        bp = make_threshold((0, 5), "H", "R", 2, 1, shifted=True)
        assert bp.tiles[0] == (0, 4)
        assert bp.activation_order[0] == Move(0, 4, "R")

    def test_extra_tile_fill_absorbed_by_first_gap(self):
        bp = make_threshold((5, 2), "H", "R", 2, 1, shifted=True)
        board = instantiate([bp], bp.target, width=16, height=11)
        after = replay(board, bp.activation_order[:1])
        assert after.at(5, 3) == BLANK  # the first source gap

    def test_reach_with_no_prefills_is_two(self):
        bp = make_threshold((5, 2), "H", "R", 3, 1, shifted=True)
        board = instantiate([bp], bp.target, width=20, height=11)
        assert activation_reach(board, bp) == 2

    def test_same_law_as_unshifted_by_simulation(self):
        for b in range(1, 5):
            for k in range(1, b + 1):
                for j in range(b + 1):
                    plain = make_threshold((5, 2), "H", "R", b, k)
                    shifted = make_threshold((5, 2), "H", "R", b, k, shifted=True)
                    outcomes = []
                    for bp in (plain, shifted):
                        bp.prefilled = bp.sources[:j]
                        board = instantiate([bp], bp.target,
                                            width=2 * b + 14, height=11)
                        end = replay(board, bp.activation_order)
                        outcomes.append(is_solved(end))
                    assert outcomes[0] == outcomes[1] == (j >= k), (b, k, j)

    def test_bbox_grows_one_forward_two_backward(self):
        plain = make_threshold((0, 10), "H", "R", 2, 1)
        shifted = make_threshold((0, 10), "H", "R", 2, 1, shifted=True)
        assert shifted.bbox[3] == plain.bbox[3] + 1
        assert shifted.bbox[1] == plain.bbox[1] - 2


class TestVariable:
    def test_shape_and_windows(self):
        bp = make_variable((0, 20), 8)
        assert len(bp.tiles) == 8
        assert bp.left_window == (12, 15)    # distances 5..8 left of the strip
        assert bp.right_window == (32, 35)
        assert bp.bbox == (-1, 8, 1, 39)     # 3L/2 columns beyond each end

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidParam):
            make_variable((0, 0), 7)
        with pytest.raises(InvalidParam):
            make_variable((0, 0), 0)

    def test_full_expansion_fills_exactly_length(self):
        bp = make_variable((2, 14), 8)
        board = instantiate([bp], (0, 0), width=40, height=5)
        end = replay(board, bp.moves("R"))
        filled = [c for c in range(40) if end.at(2, c) != 0]
        assert filled == list(range(14, 14 + 16))  # tiles + L squares right

    def test_split_expansion_reaches_min_on_each_side(self):
        bp = make_variable((2, 14), 8)
        board = instantiate([bp], (0, 0), width=40, height=5)
        moves = [Move(2, 14 + i, "L" if i < 3 else "R") for i in range(8)]
        end = replay(board, moves)
        left = sum(end.at(2, c) != 0 for c in range(14))
        right = sum(end.at(2, c) != 0 for c in range(22, 40))
        assert (left, right) == (3, 5)

    def test_no_split_reaches_both_windows(self):
        # exhaustive over all 2^8 direction choices; window distance is 5
        bp = make_variable((2, 14), 8)
        board = instantiate([bp], (0, 0), width=40, height=5)
        for dirs in itertools.product("LR", repeat=8):
            x = dirs.count("L")
            assert not (x >= 5 and 8 - x >= 5)  # arithmetic guarantee
            end = replay(board, [Move(2, 14 + i, dirs[i]) for i in range(8)])
            left = sum(end.at(2, c) != 0 for c in range(14))
            right = sum(end.at(2, c) != 0 for c in range(22, 40))
            assert not (left >= 5 and right >= 5), dirs


class TestChain:
    def test_wire_turns_signal_around_corner(self):
        first = make_threshold((6, 2), "H", "R", 1, 1)
        second = make_threshold((7, 6), "V", "U", 2, 1)
        assert first.target == (6, 6)
        assert first.target in second.sources
        link = chain(first, second)
        assert link.anchor == (6, 6)
        first.prefilled = (first.sources[0],)
        board = instantiate([first, second], second.target, width=12, height=12)
        end = replay(board, first.activation_order + second.activation_order)
        assert is_solved(end)

    def test_anchor_mismatch_rejected(self):
        first = make_threshold((6, 2), "H", "R", 1, 1)
        second = make_threshold((9, 7), "V", "U", 1, 1)
        with pytest.raises(AnchorMismatch):
            chain(first, second)

    def test_same_axis_rejected(self):
        first = make_threshold((6, 2), "H", "R", 1, 1)
        second = make_threshold((6, 5), "H", "R", 1, 1)
        with pytest.raises(AnchorMismatch):
            chain(first, second)

    def test_chain_grows_upstream_bbox_forward_once(self):
        first = make_threshold((6, 2), "H", "R", 1, 1)
        second = make_threshold((7, 6), "V", "U", 2, 1)
        before = first.bbox
        chain(first, second)
        assert first.bbox == (before[0], before[1], before[2], before[3] + 1)
        chain(first, second)  # idempotent growth
        assert first.bbox[3] == before[3] + 1

    def test_and_behavior_needs_every_input(self):
        # m wires into a threshold with k=m
        m = 3
        gate = make_threshold((10, 8), "V", "U", m, m)
        wires = []
        for i, (r, c) in enumerate(gate.sources):
            wire = make_threshold((r, c - 4), "H", "R", 1, 1)
            assert wire.target == (r, c)
            chain(wire, gate)
            wires.append(wire)
        for fired in itertools.product((0, 1), repeat=m):
            blueprints = []
            for wire, f in zip(wires, fired):
                wire.prefilled = (wire.sources[0],) if f else ()
                blueprints.append(wire)
            board = instantiate(blueprints + [gate], gate.target,
                                width=16, height=16)
            moves = [m_ for w in wires for m_ in w.activation_order]
            moves += gate.activation_order
            assert is_solved(replay(board, moves)) == all(fired), fired

    def test_or_behavior_any_single_input(self):
        # m wires into k=1: every nonempty subset of inputs suffices, also
        # under full search rather than just the scripted activation
        m = 3
        gate = make_threshold((10, 8), "V", "U", m, 1)
        wires = []
        for r, c in gate.sources:
            wire = make_threshold((r, c - 4), "H", "R", 1, 1)
            chain(wire, gate)
            wires.append(wire)
        for fired in itertools.product((0, 1), repeat=m):
            for wire, f in zip(wires, fired):
                wire.prefilled = (wire.sources[0],) if f else ()
            board = instantiate(wires + [gate], gate.target, width=16, height=16)
            result = solve(board)
            assert isinstance(result, Solvable) == any(fired), fired


class TestCrossover:
    def build(self):
        h = make_threshold((6, 2), "H", "R", 3, 1)
        v = make_threshold((9, 7), "V", "U", 3, 1)
        spec = make_crossover(h, v, (6, 7))
        return h, v, spec

    def test_vertical_k_and_target_bumped(self):
        h, v, spec = self.build()
        assert v.k == 2
        assert v.target == (0, 7)  # one square farther than (1, 7)
        assert spec.intersection == (6, 7)

    def test_intersection_empty_with_plus_sign(self):
        h, v, _ = self.build()
        board = instantiate([h, v], v.target, width=14, height=12)
        assert board.at(6, 7) == 0
        assert all(board.at(r, c) == 1
                   for r, c in ((6, 6), (6, 8), (5, 7), (7, 7)))

    def test_both_boxes_lengthen_by_two(self):
        h0 = make_threshold((6, 2), "H", "R", 3, 1)
        v0 = make_threshold((9, 7), "V", "U", 3, 1)
        h, v, _ = self.build()
        assert h.bbox[1] == h0.bbox[1] - 1 and h.bbox[3] == h0.bbox[3] + 1
        assert v.bbox[0] == v0.bbox[0] - 1 and v.bbox[2] == v0.bbox[2] + 1

    def test_horizontal_first_preserves_both_laws(self):
        h, v, spec = self.build()
        h.prefilled = (h.sources[0],)
        v.prefilled = (v.sources[0],)  # the vertical gadget's own input
        board = instantiate([h, v], v.target, width=14, height=12)
        end = replay(board, h.activation_order + v.activation_order)
        assert is_solved(end)

    def test_vertical_first_costs_the_vertical_gadget_its_bonus(self):
        h, v, _ = self.build()
        v.prefilled = (v.sources[0],)
        board = instantiate([h, v], v.target, width=14, height=12)
        end = replay(board, v.activation_order + h.activation_order)
        assert not is_solved(end)  # k=2 but only one source was filled in time

    def test_misaligned_parity_rejected(self):
        h = make_threshold((6, 2), "H", "R", 3, 1)
        v = make_threshold((9, 8), "V", "U", 3, 1)
        with pytest.raises(ParityMismatch):
            make_crossover(h, v, (6, 8))


# (variable row, bar row): odd and even spans (even ones need shifted
# wires), bars above and below the variable row
CLAUSE_ROWS = [(12, 5), (12, 6), (2, 9), (2, 10)]


class TestClause:
    def attach(self, base_row, cols, g):
        return {li + 1: [(base_row, c + 4 * i) for i in range(g)]
                for li, c in enumerate(cols)}

    def clause(self, base_row, cols, g, level_row, extra=0):
        """make_clause with its target g+1 (+extra) beyond the last wire's gap."""
        attach = self.attach(base_row, cols, g)
        last_gap = max(c for pts in attach.values() for _, c in pts) + 1
        return make_clause(attach, g, level_row, last_gap + g + 1 + extra)

    def test_two_literal_clause_shape(self):
        bar, wires, links = self.clause(12, (4, 16), 2, 5)
        assert bar.k == 2 and not bar.shifted
        assert len(wires) == 2 and all(tw.g == 2 for tw in wires)
        assert bar.target[1] == bar.tiles[-1][1] + 3  # g+1 beyond the last tile
        assert len(links) == 4

    def test_wires_named_by_label(self):
        attach = {7: [(12, 4)], 9: [(12, 16)]}
        bar, wires, _ = make_clause(attach, 1, 5, 20, gadget_id="clause3")
        assert bar.gadget_id == "clause3.or"
        assert [w.gadget_id for tw in wires for w in tw.wires] == [
            "clause3.v7.w0", "clause3.v9.w0"]

    @pytest.mark.parametrize("extra, shifted", [(0, False), (1, True), (2, False), (3, True)])
    def test_shift_follows_target_column_parity(self, extra, shifted):
        bar, _, _ = self.clause(12, (4, 16), 2, 5, extra)
        assert bar.shifted == shifted
        assert bar.target == (5, 24 + extra)
        assert bar.origin == (5, 3)

    def test_target_column_too_near_rejected(self):
        with pytest.raises(ParityMismatch):
            self.clause(12, (4, 16), 2, 5, extra=-1)

    def test_wire_landing_on_a_bar_tile_is_an_anchor_mismatch(self):
        # the bar's gaps are the even columns 4..10, so the middle wire's
        # target (-5, 7) is a bar tile, and chaining it to the bar fails
        with pytest.raises(AnchorMismatch):
            make_clause({1: [(0, 4)], 2: [(0, 7)], 3: [(0, 10)]}, 1, -5, 14)

    def test_single_thick_wire_activates_clause(self):
        bar, wires, _ = self.clause(12, (4, 16), 2, 5)
        for tw in wires[0].wires:
            tw.prefilled = (tw.sources[0],)
        blueprints = [w for tw in wires for w in tw.wires] + [bar]
        board = instantiate(blueprints, bar.target, width=30, height=16)
        moves = [m for tw in wires for w in tw.wires for m in w.activation_order]
        moves += bar.activation_order
        assert is_solved(replay(board, moves))

    def test_crossings_alone_fall_short_of_g(self):
        # g=2, one crossover intersection pre-filled: reach stays below k
        bar, wires, _ = self.clause(12, (4, 16), 2, 5)
        bar.prefilled = (bar.sources[3],)  # a single mid-bar gap, as a crossing would fill
        blueprints = [w for tw in wires for w in tw.wires] + [bar]
        board = instantiate(blueprints, bar.target, width=30, height=16)
        # unfed wires deliver nothing, so the bar reaches j+1 = 2 < g+1
        after_wires = replay(board, [m for tw in wires for w in tw.wires
                                     for m in w.activation_order])
        assert activation_reach(after_wires, bar) == 2
        assert replay(after_wires, bar.activation_order).at(*bar.target) == 0
        # no move order does better: full search on a one-literal bar (the
        # 26-tile board above is beyond an exhaustive search)
        small, _, _ = self.clause(12, (4,), 2, 5)
        assert isinstance(solve(isolated_board(small, prefill_sources=(1,))), Unsolvable)

    @pytest.mark.parametrize("base_row, level_row", CLAUSE_ROWS)
    def test_wires_end_on_bar_gaps(self, base_row, level_row):
        attach = self.attach(base_row, (4, 16), 2)
        bar, wires, _ = self.clause(base_row, (4, 16), 2, level_row)
        for pts, tw in zip(attach.values(), wires):
            for (row, col), w in zip(pts, tw.wires):
                assert w.sources[0] == (row, col)
                assert w.target == (level_row, col)
                assert w.target in bar.sources
                assert w.shifted == (abs(base_row - level_row) % 2 == 0)

    @pytest.mark.parametrize("base_row, level_row", CLAUSE_ROWS)
    @pytest.mark.parametrize("fed", [0, 1])
    def test_any_single_literal_activates_clause(self, base_row, level_row, fed):
        bar, wires, _ = self.clause(base_row, (4, 16), 2, level_row)
        for w in wires[fed].wires:
            w.prefilled = (w.sources[0],)
        blueprints = [w for tw in wires for w in tw.wires] + [bar]
        board = instantiate(blueprints, bar.target, width=30, height=16)
        moves = [m for tw in wires for w in tw.wires for m in w.activation_order]
        moves += bar.activation_order
        assert is_solved(replay(board, moves))

    @pytest.mark.parametrize("level_row", [10, 11, 12, 13, 14])
    def test_bar_too_close_to_variable_row_rejected(self, level_row):
        with pytest.raises(InvalidParam):
            self.clause(12, (4,), 1, level_row)

    def test_wire_separation_enforced(self):
        wires = tuple(make_threshold((8, c), "V", "U", 1, 1) for c in (0, 3))
        with pytest.raises(InvalidParam):
            ThickWire(2, wires)


class TestInstantiate:
    def test_single_wire(self):
        bp = make_threshold((2, 2), "H", "R", 1, 1)
        board = instantiate([bp], bp.target)
        assert board.tile_count() == 2

    def test_collision_names_both_owners(self):
        a = make_threshold((2, 2), "H", "R", 1, 1, gadget_id="a")
        b = make_threshold((2, 2), "H", "R", 2, 1, gadget_id="b")
        with pytest.raises(TileCollision) as err:
            instantiate([a, b], (0, 0), width=12, height=8)
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_fig_sized_threshold_has_six_tiles_in_a_row(self):
        bp = make_threshold((2, 2), "H", "R", 5, 3)
        board = instantiate([bp], bp.target)
        rows = {r for r, _, _ in board.tiles()}
        assert rows == {2} and board.tile_count() == 6
