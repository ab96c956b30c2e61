"""Baseline of the benchmark, run from the root of a checkout:

    python3 benchmark/baseline.py OUT.json [--seeds 1-10] [--workloads a,b]

Runs each workload untraced once per seed (seeds outermost, so drift in
machine speed spreads over all workloads), then traced once at the default
seed, all with BENCHMARK.json's run_seconds.  Writes every result line, the
median, quartiles and quartile spread (IQR / median) of each end-to-end
metric, and the traced per-layer metrics to OUT.json, and prints a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seconds: int, trace: int, seed: int | None = None) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)] + ([] if seed is None else ["--seed", str(seed)])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return dict(median=statistics.median(values), q1=q1, q3=q3,
                spread=(q3 - q1) / statistics.median(values))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    first, last = map(int, args.seeds.split("-"))
    seconds = spec["run_seconds"]

    runs: dict[str, dict[int, dict]] = {w: {} for w in workloads}
    for seed in range(first, last + 1):
        for w in workloads:
            runs[w][seed] = r = run(w, seconds, 0, seed)
            print(w, seed, r["correct"], r["attempted"], r["failed"],
                  " ".join(f"{k}={m['value']:.4f}" for k, m in r["metrics"].items()), flush=True)
    stats = {
        w: {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs[w].values()])
            for m in spec["end_to_end"]}
        for w in workloads
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        for name, s in stats[w].items():
            print(f"{w:14s} {name:12s} median {s['median']:10.4f}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[name]}, a third {bounds[name] / 3:.4f})")
    traced = {w: run(w, seconds, 1) for w in workloads}
    args.out.write_text(json.dumps(dict(
        machine=dict(python=platform.python_version(), nproc=os.cpu_count(),
                     platform=platform.platform()),
        run_seconds=seconds,
        untraced=runs,
        end_to_end=stats,
        traced=traced,
    ), indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
