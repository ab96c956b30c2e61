"""Acceptance gate: every stated criterion at its stated tolerance, one
pass/fail line per check (run with -s to watch them stream)."""

import pytest

from treeldp.chain import DEFAULT_SEED
from treeldp.verify import CRITERIA, CheckResult


def _run(idx: int):
    results = CRITERIA[idx](seed=DEFAULT_SEED)
    failures = []
    for r in results:
        print(r.line())
        if not r.passed:
            failures.append(r)
    assert not failures, f"criterion {idx}: {len(failures)} check(s) failed: " + "; ".join(
        f"{r.name} ({r.value:.6g} not {r.relation} {r.bound:.6g})" for r in failures
    )
    return results


def test_criterion_1_hypergeometric_route_matches_closed_forms():
    _run(1)


def test_criterion_2_pressure_satisfies_ode():
    _run(2)


def test_criterion_3_anchors_means_and_clt_variances():
    _run(3)


def test_criterion_4_ratio_estimator_converges():
    _run(4)


def test_criterion_5_tail_probabilities_approach_rate():
    _run(5)


def test_criterion_6_euler_cost_matches_legendre():
    _run(6)


def test_criterion_7_root_certificates_all_presets():
    _run(7)


# C8's lines at DEFAULT_SEED: a change to a grower's stream, the bud
# walker or the TV arithmetic shows here, not only past a bound
C8_LINES = [
    "[PASS] C8 total variation vs chain pmf, Yule cherries: 0.00111582 <= 0.005  [worst step n=11]",
    "[PASS] C8 total variation vs chain pmf, uniform leaves: 0.00111967 <= 0.005  [worst step n=5]",
    "[PASS] C8 total variation vs chain pmf, plane-oriented leaves: 0.00151703 <= 0.005  [worst step n=10]",
    "[PASS] C8 total variation vs chain pmf, attachment-graph leaves: 0.00100612 <= 0.005  [worst step n=9]",
    "[PASS] C8 total variation vs chain pmf, Stirling plateaux: 0.000899333 <= 0.005  [worst step n=4]",
    "[PASS] C8 quenched bud LLN -> 3/4: 0.393613 <= 3  [mean=0.749967 se=8.40e-05]",
]


def test_criterion_8_growers_match_chain_and_bud_lln():
    assert [r.line() for r in _run(8)] == C8_LINES


def test_check_result_compares_by_its_relation():
    cases = [("<=", 1.0, 1.0, True), ("<", 1.0, 1.0, False), (">", 2.0, 1.0, True), ("==", 30, 30, True),
             ("==", 29, 30, False), ("<=", 1.5, 1.0, False)]
    for relation, value, bound, passed in cases:
        assert CheckResult(1, "check", value, bound, relation).passed is passed
    with pytest.raises(ValueError, match="unknown relation '>='"):
        CheckResult(1, "check", 1.0, 1.0, ">=").passed
