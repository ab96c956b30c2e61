"""The benchmark's correctness gates: every workload in
benchmark/workloads.py runs one untraced pass in-process at toy size, and
grow_large and analytic one more each at full size, and every answer must
pass its check.  No run record is written."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_workload_passes_its_gates(workload):
    p = run.Pass(workloads.WORKLOADS[workload](1, True), run.UNTRACED, workload, "toy", 0)
    assert p.calls
    assert p.failures == []


def test_full_size_grow_large_passes_its_gates():
    # the growers at the benchmark's own sizes: a change to any grower's law
    # fails the law gate here as it would in a benchmark run
    p = run.Pass(workloads.WORKLOADS["grow_large"](1, False), run.UNTRACED, "grow_large", "full", 0)
    assert len(p.calls) == len(workloads.LAYERS["grow_large"])
    assert p.failures == []


def test_full_size_analytic_passes_its_gates():
    # every rate point passes the Legendre gate (|Lambda'(lambda*) - x| <= 1e-9)
    # and every pressure derivative the ODE-residual gate (1e-6), at the
    # benchmark's own grids
    p = run.Pass(workloads.WORKLOADS["analytic"](1, False), run.UNTRACED, "analytic", "full", 0)
    assert {c[0] for c in p.calls} == set(workloads.LAYERS["analytic"])
    assert p.failures == []
