"""The benchmark's correctness gates at toy size: every workload in
benchmark/workloads.py runs one untraced pass in-process, and every answer
must pass its law-based check.  No run record is written."""

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
