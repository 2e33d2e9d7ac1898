"""The equivalence suite's reports, with and without fail_fast, and the
verdicts of the gadget certifiers."""

import itertools

import pytest

from zhedkit import gadgets, verify
from zhedkit.board import Move, is_solved, parse_board
from zhedkit.solver import SolveLimits, parse_trace, replay

# 200 states decide none of these boards, so the first one exhausts the budget
TINY = SolveLimits(max_states=200)


def test_fail_fast_skips_the_solver_but_still_replays():
    first, *rest = verify.equivalence_suite(1, 2, TINY, fail_fast=True)
    assert first.exhausted and first.agreement is None
    assert len(rest) == 4 and all(r.solver_verdict == "skipped" for r in rest)
    assert [r.oracle_satisfiable for r in rest].count(False) == 1
    for r in rest:
        assert r.states_visited == 0 and r.agreement is None
        assert r.replay_ok is (True if r.oracle_satisfiable else None)


def test_without_fail_fast_the_solver_runs_on_every_formula():
    reports = verify.equivalence_suite(1, 2, TINY)
    assert len(reports) == 5
    assert all(r.exhausted and r.states_visited > 0 for r in reports)
    assert [r.oracle_satisfiable for r in reports].count(True) == 4


def test_threshold_fill_past_a_short_rear_edge_is_an_escape(monkeypatch):
    # a box one square short at the rear: the backward expansion over two
    # pre-filled gaps fills the ring square the box no longer covers
    def rear_short(*args, **kwargs):
        bp = gadgets.make_threshold(*args, **kwargs)
        if bp.gaps >= 2:
            r0, c0, r1, c1 = bp.bbox
            bp.bbox = (r0, c0 + 1, r1, c1)
        return bp

    monkeypatch.setattr(verify, "make_threshold", rear_short)
    report = verify.certify_threshold(2)
    assert not report.passed
    assert "b=2 subset=(1, 1): fill at (2, 0) escapes the bbox" in report.failures


def test_each_threshold_failure_leaves_its_own_artifacts(monkeypatch, tmp_path):
    # a box two squares short at the rear: in each walk nine subsets escape
    # at the same ring square, several with the same count of pre-filled
    # sources, and the plain and the shifted walk share one directory
    def rear_short(*args, **kwargs):
        bp = gadgets.make_threshold(*args, **kwargs)
        r0, c0, r1, c1 = bp.bbox
        bp.bbox = (r0, c0 + 2, r1, c1)
        return bp

    monkeypatch.setattr(verify, "make_threshold", rear_short)
    failures = [f for shifted in (False, True)
                for f in verify.certify_threshold(3, shifted, artifacts_dir=tmp_path).failures]
    boards = sorted(tmp_path.glob("*.board"))
    assert len(failures) == 18
    assert len(boards) == len(failures)
    for path in boards:
        board = parse_board(path.read_text(encoding="utf-8"))
        moves = parse_trace(path.with_suffix(".trace").read_text(encoding="utf-8"))
        assert is_solved(replay(board, moves)), path.name


def test_variable_verdicts_at_length_4():
    report = verify.certify_variable(4)
    assert report.failures == []
    assert report.verdicts == {dirs: (dirs.count("L"), dirs.count("R"))
                               for dirs in itertools.product("LR", repeat=4)}


def test_variable_verdicts_hold_the_measured_reach(monkeypatch):
    # a reach that counts its start square reads one more on each side
    reach = verify._reach
    monkeypatch.setattr(verify, "_reach", lambda *args: reach(*args) + 1)
    report = verify.certify_variable(4)
    assert not report.passed
    assert report.verdicts == {dirs: (dirs.count("L") + 1, dirs.count("R") + 1)
                               for dirs in itertools.product("LR", repeat=4)}


def variable_strip(length):
    """The variable blueprint certify_variable builds and its isolated board."""
    bp = verify.make_variable((2, 2 + 3 * (length // 2)), length)
    return bp, verify.instantiate([bp], (0, 0), width=bp.bbox[3] + 2, height=5)


def flat_certify_variable(length):
    """certify_variable replaying every assignment in full, left to right."""
    report = verify.GadgetReport()
    half = length // 2
    bp, board = variable_strip(length)
    for dirs in itertools.product("LR", repeat=length):
        x, y = dirs.count("L"), dirs.count("R")
        end = replay(board, [Move(bp.row, bp.col0 + i, d) for i, d in enumerate(dirs)])
        left = verify._reach(end, bp.tiles[0], (0, -1))
        right = verify._reach(end, bp.tiles[-1], (0, 1))
        if left != x or right != y:
            report.failures.append(
                f"dirs={''.join(dirs)}: reach ({left},{right}), expected ({x},{y})")
        if left >= half + 1 and right >= half + 1:
            report.failures.append(f"dirs={''.join(dirs)}: readers reachable on both sides")
        report.verdicts[dirs] = (left, right)
    return report


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_variable_play_order_does_not_change_the_end_board(length):
    # why certify_variable plays one order: the strip's tiles are contiguous,
    # so each move fills the nearest EMPTY squares beyond the strip's end, and
    # an assignment ends on one board, set by how many of its tiles go left
    bp, board = variable_strip(length)
    ends = {}
    for dirs in itertools.product("LR", repeat=length):
        moves = [Move(bp.row, bp.col0 + i, d) for i, d in enumerate(dirs)]
        end = replay(board, moves).cells
        assert replay(board, moves[::-1]).cells == end, dirs
        assert ends.setdefault(dirs.count("L"), end) == end, dirs
    assert len(ends) == length + 1


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_variable_prefix_replay_matches_a_flat_replay(length):
    report, flat = verify.certify_variable(length), flat_certify_variable(length)
    assert (report.verdicts, report.failures) == (flat.verdicts, flat.failures)


def test_variable_prefix_replay_matches_a_flat_replay_on_a_failing_strip(monkeypatch):
    # a 2 as the second tile reaches one square farther on the side it is
    # played to, so every assignment fails
    def strip_with_a_2(blueprints, *args, **kwargs):
        board = gadgets.instantiate(blueprints, *args, **kwargs)
        r, c = blueprints[0].tiles[1]
        cells = bytearray(board.cells)
        cells[r * board.width + c] = 2
        return type(board)(board.width, board.height, board.target, bytes(cells))

    monkeypatch.setattr(verify, "instantiate", strip_with_a_2)
    report, flat = verify.certify_variable(6), flat_certify_variable(6)
    assert len(report.failures) == 2 ** 6
    assert (report.verdicts, report.failures) == (flat.verdicts, flat.failures)


def test_crossover_verdicts():
    # vertical first lengthens the horizontal reach from j + 1 to j + 2;
    # horizontal first leaves the vertical gadget its one-source law
    report = verify.certify_crossover()
    assert report.failures == []
    assert report.verdicts == {("vertical-first", 0): 2, ("vertical-first", 1): 3,
                               ("vertical-first", 2): 4, ("horizontal-first", 0): False,
                               ("horizontal-first", 1): True}
