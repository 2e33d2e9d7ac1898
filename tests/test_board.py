"""Board semantics: move application, legality, encoding, text format."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zhedkit.board import (BLANK, EMPTY, Board, Move, apply_move, board_from_cells,
                           is_solved, legal_moves, parse_board, render_board)
from zhedkit.errors import (DuplicateTarget, MissingTarget, NotATile,
                            OutOfBounds, ParseError)


def row_board(text, target=(0, 0)):
    """1xN board from a compact string: . empty, # blank, digits tiles."""
    cells = {}
    for i, ch in enumerate(text):
        if ch == "#":
            cells[(0, i)] = BLANK
        elif ch != ".":
            cells[(0, i)] = int(ch)
    return board_from_cells(len(text), 1, target, cells)


class TestApplyMove:
    def test_single_step_fill(self):
        b = apply_move(row_board("1...."), Move(0, 0, "R"))
        assert render_board(b).splitlines()[2] == "##..."

    def test_skip_rule_filled_squares_not_consumed(self):
        b = apply_move(row_board("2#..."), Move(0, 0, "R"))
        assert render_board(b).splitlines()[2] == "####."

    def test_edge_truncation_is_legal(self):
        b = apply_move(row_board("..2"), Move(0, 2, "R"))
        assert render_board(b).splitlines()[2] == "..#"

    def test_zero_effect_move_consumes_number(self):
        before = row_board("1#")
        after = apply_move(before, Move(0, 0, "R"))
        assert after.at(0, 0) == BLANK
        assert after.at(0, 1) == BLANK

    def test_not_a_tile(self):
        with pytest.raises(NotATile):
            apply_move(row_board("1..."), Move(0, 1, "R"))
        with pytest.raises(NotATile):
            apply_move(row_board("1#.."), Move(0, 1, "R"))

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            apply_move(row_board("1..."), Move(0, 9, "R"))

    def test_vertical_direction(self):
        b = board_from_cells(1, 4, (0, 0), {(2, 0): 2})
        after = apply_move(b, Move(2, 0, "U"))
        assert [after.at(r, 0) for r in range(4)] == [BLANK, BLANK, BLANK, EMPTY]

    def test_all_tiles_are_filled_squares(self):
        # a ray skips other tiles rather than consuming them
        b = row_board("1.3..")
        after = apply_move(b, Move(0, 2, "L"))
        assert after.at(0, 1) == BLANK
        assert after.at(0, 0) == 1  # untouched tile


class TestLegalMoves:
    def test_empty_board(self):
        assert legal_moves(board_from_cells(3, 3, (1, 1), {})) == []

    def test_single_tile_gives_four_moves(self):
        moves = legal_moves(board_from_cells(3, 3, (0, 0), {(1, 1): 1}))
        assert len(moves) == 4
        assert {m.direction for m in moves} == set("URDL")

    def test_three_tiles_give_twelve_moves(self):
        b = board_from_cells(4, 4, (0, 0), {(0, 1): 1, (2, 2): 2, (3, 3): 1})
        assert len(legal_moves(b)) == 12

    def test_includes_zero_effect_moves(self):
        b = row_board("1#")
        assert Move(0, 0, "R") in legal_moves(b)

    def test_blank_squares_are_not_tiles(self):
        b = row_board("#1")
        assert all(m.col == 1 for m in legal_moves(b))


class TestIsSolved:
    def test_empty_target(self):
        assert not is_solved(board_from_cells(2, 2, (0, 0), {(1, 1): 1}))

    def test_blank_target(self):
        assert is_solved(board_from_cells(2, 2, (0, 0), {(0, 0): BLANK}))

    def test_numbered_target_counts_as_filled(self):
        assert is_solved(board_from_cells(2, 2, (0, 0), {(0, 0): 1}))


class TestCanonicalEncoding:
    """A board's encoding is its cell bytes."""

    def test_every_effective_move_changes_encoding(self):
        # exhaustive over all 1x4 boards with cells in {empty, blank, 1..3}
        for combo in itertools.product((EMPTY, BLANK, 1, 2, 3), repeat=4):
            b = Board(4, 1, (0, 0), bytes(combo))
            for move in legal_moves(b):
                after = apply_move(b, move)
                assert after.cells != b.cells


def filled(before: Board, after: Board) -> set[int]:
    """The squares that are EMPTY on before and filled on after."""
    return {i for i, (x, y) in enumerate(zip(before.cells, after.cells))
            if x == EMPTY and y != EMPTY}


boards = st.builds(
    lambda w, h, cells, tr, tc: Board(
        w, h, (tr % h, tc % w),
        bytes([v if v in (EMPTY, BLANK) else max(1, v % max(2, max(w, h)))
               for v in cells[:w * h]])),
    st.integers(2, 6), st.integers(2, 5),
    st.lists(st.sampled_from([EMPTY, EMPTY, EMPTY, BLANK, 1, 2, 3, 4]),
             min_size=30, max_size=30),
    st.integers(0, 100), st.integers(0, 100))


@st.composite
def grids(draw):
    """(width, height, cells) with sides 1..8 and any cell bytes, tile-sized ones favoured."""
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cell = st.one_of(st.sampled_from([EMPTY, BLANK]), st.integers(1, 9), st.integers(0, 255))
    return w, h, bytes(draw(st.lists(cell, min_size=w * h, max_size=w * h)))


class TestCellCheck:
    @given(grids())
    @example((256, 1, bytes([254]) + bytes(255)))  # 254 is the cap however wide the board
    @example((5, 3, bytes(7) + bytes([4]) + bytes(7)))  # side - 1 is accepted
    @example((5, 3, bytes(7) + bytes([5]) + bytes(7)))  # side is rejected
    @example((1, 1, bytes([1])))  # a 1x1 board can hold no tile
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_tile_values_up_to_the_side(self, grid):
        w, h, cells = grid
        limit = min(max(w, h) - 1, 254)
        bad = [(i, v) for i, v in enumerate(cells) if v not in (EMPTY, BLANK) and v > limit]
        if not bad:
            assert Board(w, h, (0, 0), cells).cells == cells
            return
        i, v = bad[0]  # row-major order: the message names the first bad cell
        with pytest.raises(ValueError) as err:
            Board(w, h, (0, 0), cells)
        assert str(err.value) == f"cell {divmod(i, w)} has invalid tile value {v}"


class TestInvariants:
    @given(boards)
    @settings(max_examples=120, deadline=None)
    def test_move_monotonicity_and_tile_count(self, board):
        for move in legal_moves(board):
            after = apply_move(board, move)
            for i, v in enumerate(board.cells):
                if v != EMPTY:
                    assert after.cells[i] != EMPTY  # filled squares never unfill
            assert after.tile_count() == board.tile_count() - 1

    @given(boards)
    @settings(max_examples=120, deadline=None)
    def test_fill_count_and_locality(self, board):
        for move in legal_moves(board):
            k = board.at(move.row, move.col)
            dr, dc = {"U": (-1, 0), "R": (0, 1), "D": (1, 0), "L": (0, -1)}[move.direction]
            empties = 0
            r, c = move.row + dr, move.col + dc
            while 0 <= r < board.height and 0 <= c < board.width:
                empties += board.at(r, c) == EMPTY
                r, c = r + dr, c + dc
            after = apply_move(board, move)
            filled = sum(1 for i in range(len(board.cells))
                         if board.cells[i] == EMPTY and after.cells[i] != EMPTY)
            assert filled == min(k, empties)
            for i in range(len(board.cells)):
                r, c = divmod(i, board.width)
                if r != move.row and c != move.col:
                    assert after.cells[i] == board.cells[i]

    @given(boards)
    @settings(max_examples=120, deadline=None)
    def test_moves_with_disjoint_fills_commute(self, board):
        # the lemma behind the search's sleep sets: moves of different tiles
        # whose fills are disjoint leave each other's fills unchanged, so
        # both orders reach the same board
        moves = legal_moves(board)
        fills = {move: filled(board, apply_move(board, move)) for move in moves}
        for t, u in itertools.combinations(moves, 2):
            if t[:2] == u[:2] or fills[t] & fills[u]:
                continue
            after_t, after_u = apply_move(board, t), apply_move(board, u)
            both = apply_move(after_t, u)
            assert both == apply_move(after_u, t)
            assert filled(after_t, both) == fills[u]
            assert filled(after_u, apply_move(after_u, t)) == fills[t]

    @given(boards, st.lists(st.integers(0, 29), max_size=10))
    @settings(max_examples=120, deadline=None)
    def test_move_fills_a_superset_on_a_fuller_board(self, board, extra):
        # monotonicity: with filled squares F a subset of F', every move
        # leaves a superset of the squares it leaves filled on F
        cells = bytearray(board.cells)
        for i in extra:
            if i < len(cells) and cells[i] == EMPTY:
                cells[i] = BLANK
        fuller = Board(board.width, board.height, board.target, bytes(cells))
        for move in legal_moves(board):
            low, high = apply_move(board, move).cells, apply_move(fuller, move).cells
            assert all(h != EMPTY for lo, h in zip(low, high) if lo != EMPTY)

    @given(boards)
    @settings(max_examples=60, deadline=None)
    def test_play_length_bounded_by_tile_count(self, board):
        # greedy playout: any sequence ends within the initial tile count
        steps = 0
        current = board
        while legal_moves(current):
            current = apply_move(current, legal_moves(current)[0])
            steps += 1
        assert steps == board.tile_count()


class TestTextFormat:
    def test_round_trip_simple(self):
        b = board_from_cells(4, 3, (2, 1), {(0, 0): 1, (1, 2): 3, (2, 3): BLANK})
        assert parse_board(render_board(b)) == b

    def test_round_trip_wide_values(self):
        b = board_from_cells(30, 2, (0, 5), {(0, 0): 12, (1, 19): 29})
        text = render_board(b)
        assert "[12]" in text and "[29]" in text
        assert parse_board(text) == b

    def test_bit_exact_rendering(self):
        b = row_board("1.2#.", target=(0, 4))
        assert render_board(b) == render_board(parse_board(render_board(b)))
        assert render_board(b) == "zhed v1 5 1\ntarget 0 4\n1.2#.\n"

    def test_two_targets_rejected(self):
        text = "zhed v1 2 1\ntarget 0 0\ntarget 0 1\n..\n"
        with pytest.raises(DuplicateTarget):
            parse_board(text)

    def test_missing_target_rejected(self):
        with pytest.raises(MissingTarget):
            parse_board("zhed v1 2 1\n..\n")

    def test_trailing_blank_lines_are_ignored(self):
        b = row_board("1..", target=(0, 2))
        assert parse_board(render_board(b) + "\n\n") == b

    def test_blank_line_inside_the_grid_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_board("zhed v1 3 2\ntarget 0 2\n1..\n\n...\n")
        assert err.value.line == 4

    def test_short_row_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_board("zhed v1 3 1\ntarget 0 0\n..\n")
        assert err.value.line == 3

    def test_bad_cell_character(self):
        with pytest.raises(ParseError) as err:
            parse_board("zhed v1 3 1\ntarget 0 0\n.x.\n")
        assert err.value.line == 3 and err.value.col == 2

    def test_value_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_board("zhed v1 3 1\ntarget 0 0\n.0.\n")

    def test_value_above_cap_rejected(self):
        with pytest.raises(ParseError):
            parse_board("zhed v1 3 1\ntarget 0 0\n[255]..\n")

    def test_unterminated_escape(self):
        with pytest.raises(ParseError):
            parse_board("zhed v1 3 1\ntarget 0 0\n[12..\n")

    def test_value_exceeding_board_side(self):
        with pytest.raises(ParseError):
            parse_board("zhed v1 3 1\ntarget 0 0\n.5.\n")

    @given(boards)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, board):
        assert parse_board(render_board(board)) == board
