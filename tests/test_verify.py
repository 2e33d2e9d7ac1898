"""The equivalence suite's reports, with and without fail_fast, and the
shift-equivalence comparison of two threshold walks."""

from zhedkit import verify
from zhedkit.solver import SolveLimits

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


def test_shift_comparison_reports_only_divergent_verdicts():
    plain = verify.certify_threshold(2, None, False)
    shifted = verify.certify_threshold(2, None, True)
    assert plain.passed and shifted.passed and len(plain.verdicts) == 10
    assert verify.compare_shift_verdicts(plain, shifted).failures == []
    key = (2, 1, (0, 1))
    shifted.verdicts[key] = not shifted.verdicts[key]
    [failure] = verify.compare_shift_verdicts(plain, shifted).failures
    assert f"{key}: plain True, shifted False" in failure
