"""Solver classification against an independent breadth-first oracle."""

import itertools
import random
from collections import deque

import pytest

from zhedkit.board import (BLANK, EMPTY, Board, Move, apply_move, board_from_cells, is_solved,
                           parse_board)
from zhedkit.errors import ParseError, ReplayError
from zhedkit.gadgets import instantiate, make_threshold
from zhedkit.solver import (ResourceExhausted, Solvable, SolveLimits, Unsolvable,
                            parse_trace, render_trace, replay, solve)

DELTAS = {"U": (-1, 0), "R": (0, 1), "D": (1, 0), "L": (0, -1)}


def bfs_solvable(width, height, target, cells):
    """Naive breadth-first enumeration over tuples; independent of the solver.

    Re-implements the move rule inline so nothing is shared with the engine
    beyond the rules themselves.
    """
    start = tuple(cells)
    tr, tc = target
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state[tr * width + tc] != EMPTY:
            return True
        for idx, value in enumerate(state):
            if value in (EMPTY, BLANK):
                continue
            r, c = divmod(idx, width)
            for dr, dc in DELTAS.values():
                nxt = list(state)
                nxt[idx] = BLANK
                k = value
                rr, cc = r + dr, c + dc
                while k and 0 <= rr < height and 0 <= cc < width:
                    if nxt[rr * width + cc] == EMPTY:
                        nxt[rr * width + cc] = BLANK
                        k -= 1
                    rr, cc = rr + dr, cc + dc
                nxt = tuple(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


class TestSolveBasics:
    def test_one_move_win(self):
        b = board_from_cells(3, 1, (0, 1), {(0, 0): 1})
        result = solve(b)
        assert isinstance(result, Solvable)
        assert len(result.moves) == 1

    def test_already_solved_board(self):
        b = board_from_cells(3, 1, (0, 1), {(0, 1): BLANK})
        result = solve(b)
        assert isinstance(result, Solvable) and result.moves == ()

    def test_unsolvable_when_target_unreachable(self):
        b = board_from_cells(5, 1, (0, 4), {(0, 0): 1})
        assert isinstance(solve(b), Unsolvable)

    def test_threshold_gadget_below_k_is_unsolvable(self):
        bp = make_threshold((2, 2), "H", "R", 5, 3)
        bp.prefilled = bp.sources[:2]
        board = instantiate([bp], bp.target)
        assert isinstance(solve(board), Unsolvable)

    def test_threshold_gadget_at_k_is_solvable(self):
        bp = make_threshold((2, 2), "H", "R", 5, 3)
        bp.prefilled = bp.sources[:3]
        board = instantiate([bp], bp.target)
        result = solve(board)
        assert isinstance(result, Solvable)
        assert is_solved(replay(board, result.moves))

    def test_witness_length_within_tile_count(self):
        bp = make_threshold((2, 2), "H", "R", 4, 2)
        bp.prefilled = bp.sources[:4]
        board = instantiate([bp], bp.target)
        result = solve(board)
        assert isinstance(result, Solvable)
        assert len(result.moves) <= board.tile_count()

    def test_deterministic_witness(self):
        bp = make_threshold((2, 2), "H", "R", 4, 2)
        bp.prefilled = bp.sources[:2]
        board = instantiate([bp], bp.target)
        assert solve(board) == solve(board)


class TestCompleteness:
    def test_all_one_by_four_boards_match_bfs(self):
        # every 1x4 board with a single value-1 tile and every target spot
        for tile_pos, target_pos in itertools.product(range(4), repeat=2):
            b = board_from_cells(4, 1, (0, target_pos), {(0, tile_pos): 1})
            got = isinstance(solve(b), Solvable)
            want = bfs_solvable(4, 1, (0, target_pos), b.cells)
            assert got == want, (tile_pos, target_pos)

    def test_random_small_boards_match_bfs(self):
        rng = random.Random(11)
        for _ in range(120):
            w, h = rng.randint(2, 4), rng.randint(1, 3)
            cells = bytearray(w * h)
            for i in range(w * h):
                roll = rng.random()
                if roll < 0.3:
                    cells[i] = rng.randint(1, max(1, max(w, h) - 1))
                elif roll < 0.4:
                    cells[i] = BLANK
            target = (rng.randrange(h), rng.randrange(w))
            board = Board(w, h, target, bytes(cells))
            got = isinstance(solve(board), Solvable)
            want = bfs_solvable(w, h, target, board.cells)
            assert got == want


class TestLimits:
    def test_state_budget_reports_exhaustion(self):
        bp = make_threshold((2, 2), "H", "R", 5, 5)
        board = instantiate([bp], bp.target)
        result = solve(board, SolveLimits(max_states=5))
        assert isinstance(result, ResourceExhausted)
        assert result.states_visited == 5

    def test_wall_clock_budget(self):
        bp = make_threshold((2, 2), "H", "R", 6, 6)
        board = instantiate([bp], bp.target)
        result = solve(board, SolveLimits(max_millis=1))
        assert isinstance(result, (ResourceExhausted, Unsolvable))

    def test_blocked_tiles_spend_no_budget(self):
        # every tile's rays are blocked, so no move fills anything: the search
        # plays none of them and decides the board in one state, where the
        # 64 sets of spent tiles would overrun a budget of 10
        board = parse_board("zhed v1 7 2\ntarget 1 6\n111111#\n######.\n")
        assert solve(board, SolveLimits(max_states=10)) == Unsolvable(states_visited=1)

    def test_limits_validate(self):
        with pytest.raises(ValueError):
            SolveLimits(max_states=0)


class TestReplay:
    def test_empty_sequence_is_identity(self):
        b = board_from_cells(3, 1, (0, 1), {(0, 0): 1})
        assert replay(b, []) == b

    def test_solver_witness_replays_to_solved(self):
        bp = make_threshold((2, 2), "H", "R", 3, 1)
        bp.prefilled = bp.sources[:1]
        board = instantiate([bp], bp.target)
        result = solve(board)
        assert is_solved(replay(board, result.moves))

    def test_failure_carries_move_index(self):
        b = board_from_cells(3, 1, (0, 2), {(0, 0): 1})
        moves = [Move(0, 0, "R"), Move(0, 0, "R")]
        with pytest.raises(ReplayError) as err:
            replay(b, moves)
        assert err.value.index == 1


class TestTraceFormat:
    def test_round_trip(self):
        moves = [Move(0, 0, "R"), Move(3, 2, "U"), Move(1, 1, "L")]
        assert parse_trace(render_trace(moves)) == moves

    def test_comments_and_blanks_ignored(self):
        text = "# witness\n\n0 0 R\n# done\n1 2 D\n"
        assert parse_trace(text) == [Move(0, 0, "R"), Move(1, 2, "D")]

    @pytest.mark.parametrize("direction", ["X", "UR", "u"])
    def test_bad_direction_rejected(self, direction):
        with pytest.raises(ParseError):
            parse_trace(f"0 0 {direction}\n")

    def test_bad_arity_rejected(self):
        with pytest.raises(ParseError):
            parse_trace("0 0\n")
