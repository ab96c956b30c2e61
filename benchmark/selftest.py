"""Self-test of the benchmark, run from the root of a checkout:

    python3 benchmark/selftest.py

Checks that a toy-size run of each workload, untraced and traced, emits
every metric BENCHMARK.json names with its unit; that traced self times
add up to the traced wall time; that a known-wrong answer is counted as
failed; and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_toy_run(workload: str, trace: int) -> None:
    # --seconds 0: a single pass, or a single cycle of the three traced kinds
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    if trace:
        record = json.loads((HERE / "runs" / f"{workload}-seed1-trace1-toy.json").read_text())
        (spans_pass,) = [p for p in record["passes"] if p["mode"] == "spans"]
        self_s = sum(layer["s"] for layer in record["layers"].values())
        assert math.isclose(self_s, spans_pass["wall_s"], rel_tol=1e-9), (self_s, spans_pass)


def check_known_wrong_fails() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads

    p = run.Pass(workloads.known_wrong(1, True), run.UNTRACED, "known_wrong", "selftest", 0)
    assert [c[3] for c in p.calls] == [False], p.calls
    assert len(p.failures) == 1 and p.failures[0].startswith("dist.pmf:"), p.failures


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        (Path(tmp) / "benchmark").mkdir()
        for f in HERE.glob("*.py"):
            shutil.copy(f, Path(tmp) / "benchmark")
        proc = bench(Path(tmp), "--workload", "analytic", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0 and "metrics" not in proc.stdout, proc


def main() -> int:
    check_known_wrong_fails()
    check_refuses_without_sources()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_toy_run(workload, trace)
            print(f"ok  toy {workload} --trace {trace}")
    print("ok  known-wrong pmf counted as failed; refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
