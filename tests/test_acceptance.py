"""Acceptance gate: every stated criterion at its stated tolerance, one
pass/fail line per check (run with -s to watch them stream)."""

import pytest

from treeldp.chain import DEFAULT_SEED
from treeldp.verify import CRITERIA


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


def test_criterion_8_growers_match_chain_and_bud_lln():
    _run(8)
