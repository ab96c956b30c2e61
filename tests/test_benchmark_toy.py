"""The benchmark's correctness gates: every workload in
benchmark/workloads.py runs one untraced pass in-process at toy size, and
grow_large one more at full size, and every answer must pass its law-based
check.  No run record is written."""

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
