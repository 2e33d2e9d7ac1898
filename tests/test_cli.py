"""The CLI contract: exit code 0, 1 or 2, one reason line on stderr, no traceback."""

import re

import pytest

from zhedkit import verify
from zhedkit.board import board_from_cells, render_board
from zhedkit.cli import main


@pytest.fixture
def board_file(tmp_path):
    def write(board):
        path = tmp_path / "board.txt"
        path.write_text(render_board(board), encoding="utf-8")
        return str(path)
    return write


def error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if "error:" in line]


def test_solvable_board_prints_trace(board_file, capsys):
    path = board_file(board_from_cells(3, 1, (0, 1), {(0, 0): 1}))
    assert main(["solve", path]) == 0
    out, err = capsys.readouterr()
    assert out == "0 0 R\n"
    assert err.startswith("solvable moves=1 ")


def test_unsolvable_board_is_a_domain_error(board_file, capsys):
    path = board_file(board_from_cells(5, 1, (0, 4), {(0, 0): 1}))
    assert main(["solve", path, "--limits-states", "0"]) == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: Unsolvable: ")


def test_board_of_blocked_tiles_is_unsolvable_within_a_small_budget(tmp_path, capsys):
    # no move fills anything, so the solve decides the board in one state
    path = tmp_path / "board.txt"
    path.write_text("zhed v1 7 2\ntarget 1 6\n111111#\n######.\n", encoding="utf-8")
    assert main(["solve", str(path), "--limits-states", "10"]) == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: Unsolvable: ") and line.endswith("(states=1)")


@pytest.mark.parametrize("flag", ["--limits-states", "--limits-ms"])
def test_negative_budget_is_a_usage_error(board_file, capsys, flag):
    path = board_file(board_from_cells(3, 1, (0, 1), {(0, 0): 1}))
    assert main(["solve", path, flag, "-5"]) == 2
    [line] = error_lines(capsys)
    assert f"argument {flag}: must be >= 0" in line


@pytest.mark.parametrize("flag,value,low", [("--samples", "-1", 0), ("--b-max", "0", 1),
                                            ("--max-vars", "0", 1), ("--max-clauses", "0", 1)])
def test_verify_size_below_its_minimum_is_a_usage_error(capsys, flag, value, low):
    # checked before any certificate runs: a negative sample count or an empty
    # walk or suite is a mistyped command, not a result
    assert main(["verify", flag, value]) == 2
    [line] = error_lines(capsys)
    assert f"argument {flag}: must be >= {low}, got {value}" in line


@pytest.mark.parametrize("flag,value,reason", [
    ("--variable-length", "3", "must be even, got 3"),
    ("--variable-length", "0", "must be >= 2, got 0"),
    ("--variable-length", "12", "must be <= 10, got 12"),
    ("--b-max", "7", "must be <= 6, got 7")])
def test_verify_size_past_its_exhaustive_guard_is_a_usage_error(monkeypatch, capsys,
                                                                flag, value, reason):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran before the arguments were checked")

    monkeypatch.setattr(verify, "certify_threshold", no_walk)
    assert main(["verify", flag, value]) == 2
    [line] = error_lines(capsys)
    assert f"argument {flag}: {reason}" in line


@pytest.mark.parametrize("args,reason", [
    (["threshold", "--sources", "0"], "argument --sources: must be >= 1, got 0"),
    (["shifted-threshold", "-k", "0"], "argument -k: must be >= 1, got 0"),
    (["threshold", "-k", "9", "--sources", "3"], "argument -k: must be <= --sources (3), got 9"),
    (["shifted-threshold", "-k", "4", "--sources", "3"],
     "argument -k: must be <= --sources (3), got 4"),
    (["variable", "--length", "3"], "argument --length: must be even, got 3"),
    (["variable", "--length", "0"], "argument --length: must be >= 2, got 0")])
def test_gadget_size_out_of_range_is_a_usage_error(tmp_path, capsys, args, reason):
    # the gadget builders would reject these sizes only after parsing, as a
    # domain error (exit 1)
    out = tmp_path / "gadget.txt"
    assert main(["gadget", args[0], str(out), *args[1:]]) == 2
    [line] = error_lines(capsys)
    assert reason in line
    assert not out.exists()


def test_gadget_ignores_k_where_it_has_no_meaning(tmp_path):
    # a wire is a threshold gadget with one source and k = 1 whatever -k says
    out = tmp_path / "wire.txt"
    assert main(["gadget", "wire", str(out), "--sources", "2", "-k", "3"]) == 0
    assert out.exists()


def test_verify_prints_one_row_per_check(capsys):
    # 200 states decide neither compiled board, so the equivalence row fails
    argv = ["verify", "--b-max", "1", "--variable-length", "4", "--samples", "1",
            "--max-vars", "1", "--max-clauses", "1", "--limits-states", "200"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    rows = [re.split(r"\s{2,}", line)[:2] for line in out.splitlines()]
    assert rows == [["threshold law (b<=1)", "pass"], ["shifted threshold law", "pass"],
                    ["shift equivalence", "pass"], ["variable split safety (L=4)", "pass"],
                    ["crossover order tolerance", "pass"],
                    ["intended replay (1 samples)", "pass"],
                    ["equivalence (n<=1, m<=1)", "FAIL"]]


def test_directory_as_board_is_a_domain_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: IsADirectory: ")


def test_missing_board_is_a_domain_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.txt")]) == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: FileNotFound: ")


def test_binary_board_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "board.bin"
    path.write_bytes(b"\xff\xfe\x00zhed")
    assert main(["render", str(path)]) == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: ParseError: ") and "not UTF-8" in line


def test_level_for_missing_clause_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "one.rpm"
    path.write_text("p rpm3sat 1\npos 1\nlevel 1 1\nlevel 5 1\n", encoding="utf-8")
    board, cert = tmp_path / "out.board", tmp_path / "out.cert"
    assert main(["compile", str(path), str(board), str(cert)]) == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: ParseError: ") and "(line 4)" in line
    assert not board.exists() and not cert.exists()


@pytest.fixture
def compiled(tmp_path):
    """An instance compiled by the CLI: paths of instance, board and certificate."""
    instance = tmp_path / "two.rpm"
    instance.write_text("p rpm3sat 2\npos 1 2\nneg 1\n", encoding="utf-8")
    board, cert = tmp_path / "two.board", tmp_path / "two.cert"
    assert main(["compile", str(instance), str(board), str(cert)]) == 0
    return str(instance), str(board), str(cert)


@pytest.mark.parametrize("flag", ["--limits-states", "--limits-ms", "--margin"])
def test_compile_and_intended_take_no_budget_or_margin(tmp_path, capsys, compiled, flag):
    instance, board, cert = compiled
    assignment = tmp_path / "assign.txt"
    assignment.write_text("0 1\n", encoding="utf-8")
    outputs = [tmp_path / "out.board", tmp_path / "out.cert", tmp_path / "out.trace"]
    for argv in (["compile", instance, *map(str, outputs[:2])],
                 ["intended", instance, cert, str(assignment), str(outputs[2])]):
        assert main([*argv, flag, "5"]) == 2
        [line] = error_lines(capsys)
        assert f"unrecognized arguments: {flag} 5" in line
    assert not any(out.exists() for out in outputs)


def test_intended_trace_replays_to_a_solved_board(tmp_path, capsys, compiled):
    instance, board, cert = compiled
    assignment, trace = tmp_path / "assign.txt", tmp_path / "two.trace"
    assignment.write_text("0 # x1\nTRUE  # x2\n", encoding="utf-8")
    assert main(["intended", instance, cert, str(assignment), str(trace)]) == 0
    assert main(["replay", board, str(trace)]) == 0
    assert capsys.readouterr().err == "solved=yes\n"


@pytest.mark.parametrize("text, token, lineno", [("banana 0\n", "banana", 1),
                                                 ("0\n1 2\n", "2", 2)],
                         ids=["word", "digit-on-line-2"])
def test_malformed_assignment_is_a_parse_error(tmp_path, capsys, compiled,
                                               text, token, lineno):
    instance, _, cert = compiled
    assignment, trace = tmp_path / "assign.txt", tmp_path / "two.trace"
    assignment.write_text(text, encoding="utf-8")
    assert main(["intended", instance, cert, str(assignment), str(trace)]) == 1
    [line] = error_lines(capsys)
    assert line.startswith("error: ParseError: ") and repr(token) in line
    assert f"(line {lineno})" in line
    assert not trace.exists()
