"""Benchmark of treeldp, run from the root of a checkout:

    python3 benchmark/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) against the checkout's `src/` in a
closed loop from this single process: each call starts when the previous
one returns.  Passes over the workload repeat while the next one is
expected to end within `--seconds` (at least one pass).  Every answer is
checked with the clock stopped; a wrong answer or an exception is counted
as failed and never aborts the run.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics (BENCHMARK.json "end_to_end"); with `--trace 1` it holds
the per-layer metrics ("per_layer"), taken from traced passes that
alternate with untraced ones.  A run record (versions, thread caps, seed,
operation counts, per-layer detail and, when traced, every span) is written
to benchmark/runs/.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
NPROC = os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # cold processes timed per run; setup_s is their median
MIB = 2.0**20


def cap_threads() -> dict[str, str]:
    """Cap the NumPy/BLAS thread pools at the core count (before numpy loads)."""
    for var in THREAD_VARS:
        os.environ[var] = str(min(int(os.environ.get(var) or NPROC), NPROC))
    return {var: os.environ[var] for var in THREAD_VARS}


def setup_seconds() -> float:
    """Time from starting a fresh interpreter to its first possible timed
    call: start-up, `import treeldp` and one warm-up call per module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py")], stdout=subprocess.PIPE,
                          env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


UNTRACED, SPANS, MEMORY = "untraced", "spans", "memory"
TRACED_CYCLE = (UNTRACED, SPANS, MEMORY)


class Pass:
    """One pass over a workload.  Every mode times each call; SPANS also
    keeps a span per call, MEMORY also takes each call's tracemalloc peak
    (tracemalloc slows Python-heavy calls several-fold, so self times come
    from SPANS passes and allocation peaks from MEMORY passes)."""

    def __init__(self, gen, mode: str, workload: str, run_id: str, index: int):
        self.mode = mode
        self.calls: list[tuple[str, float, int, bool, float]] = []  # layer, s, work, ok, peak MiB
        self.failures: list[str] = []
        self.spans: list[dict] = []
        if mode == MEMORY:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            self._drive(gen, run_id, str(index))
        finally:
            end = time.perf_counter()
            if mode == MEMORY:
                tracemalloc.stop()
        self.wall = sum(c[1] for c in self.calls)
        if mode == SPANS:
            self.spans.append(dict(id=str(index), name=workload, start=start, end=end,
                                   parent=None, run=run_id))

    def _drive(self, gen, run_id: str, pass_id: str) -> None:
        memory = self.mode == MEMORY
        result = None
        while True:
            try:
                op = gen.send(result)
            except StopIteration:
                return
            except Exception as exc:  # the workload itself broke: count it, end the pass
                self.calls.append(("workload", 0.0, 0, False, 0.0))
                self.failures.append(f"workload: {exc!r}")
                return
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            t0 = time.perf_counter()
            try:
                result = op.fn()
                reason = None
            except Exception as exc:
                result, reason = None, f"raised {exc!r}"
            t1 = time.perf_counter()
            peak = (tracemalloc.get_traced_memory()[1] - base) / MIB if memory else 0.0
            if reason is None:
                try:
                    reason = op.check(result)
                except Exception as exc:
                    reason = f"check raised {exc!r}"
            if reason is not None:
                self.failures.append(f"{op.layer}: {reason}")
            self.calls.append((op.layer, t1 - t0, op.work, reason is None, peak))
            if self.mode == SPANS:
                self.spans.append(dict(id=f"{pass_id}.{len(self.spans)}", name=op.layer,
                                       start=t0, end=t1, parent=pass_id, run=run_id))


def run_passes(workloads, args, run_id: str) -> list[Pass]:
    """Run untraced passes, or with args.trace cycle untraced, SPANS and
    (where workloads.TRACE_MEMORY allows) MEMORY passes, at least one of
    each, while the next pass is expected to end within args.seconds.
    Pass k runs at seed args.seed + k."""
    make_ops = workloads.WORKLOADS[args.workload]
    cycle = (UNTRACED,)
    if args.trace:
        cycle = TRACED_CYCLE if args.workload in workloads.TRACE_MEMORY else (UNTRACED, SPANS)
    passes: list[Pass] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        t0 = time.perf_counter()
        passes.append(Pass(make_ops(args.seed + k, args.toy), cycle[k % len(cycle)],
                           args.workload, run_id, k))
        durations.append(time.perf_counter() - t0)
        if len(passes) >= len(cycle) and (
                time.perf_counter() - start + statistics.median(durations) > args.seconds):
            return passes


def layer_metrics(passes: list[Pass], layers: list[str]) -> tuple[dict, dict]:
    """Per-layer quantities: self seconds (median over SPANS passes, or over
    untraced passes in an untraced run), allocation peaks from MEMORY passes,
    failures from every pass.  Returns (the per_layer metrics named as in
    BENCHMARK.json, full detail per layer)."""
    by_mode = {m: [p for p in passes if p.mode == m] for m in TRACED_CYCLE}
    timed = by_mode[SPANS] or by_mode[UNTRACED]
    metrics, detail = {}, {}
    for layer in layers:
        per_pass = [[c for c in p.calls if c[0] == layer] for p in timed]
        secs = statistics.median(sum(c[1] for c in calls) for calls in per_pass)
        work = sum(c[2] for c in per_pass[0])
        d = detail[layer] = dict(
            s=secs,
            calls=len(per_pass[0]),
            work=work,
            ns_per_work=secs / work * 1e9 if work else 0.0,
            failed=sum(not c[3] for p in passes for c in p.calls if c[0] == layer),
            peak_alloc_mb=max((c[4] for p in by_mode[MEMORY] for c in p.calls if c[0] == layer),
                              default=0.0),
        )
        if layer.startswith("verify."):
            metrics[f"{layer}_s"] = (d["s"], "s")
        else:
            metrics[f"{layer}.s"] = (d["s"], "s")
            metrics[f"{layer}.ns_per_work"] = (d["ns_per_work"], "ns")
            metrics[f"{layer}.peak_alloc_mb"] = (d["peak_alloc_mb"], "MiB")
        metrics[f"{layer}.failed"] = (d["failed"], "count")
    rate_ms = [1e3 * c[1] for p in timed for c in p.calls if c[0] == "pressure.rate"]
    metrics["pressure.rate.p50_ms"] = (statistics.median(rate_ms) if rate_ms else 0.0, "ms")
    # the highest percentile with at least ten samples beyond it: p98 of 600 points
    p98 = statistics.quantiles(rate_ms, n=50)[-1] if len(rate_ms) > 1 else 0.0
    metrics["pressure.rate.p98_ms"] = (p98, "ms")
    if by_mode[SPANS]:
        overhead = statistics.median(p.wall for p in by_mode[SPANS]) / statistics.median(
            p.wall for p in by_mode[UNTRACED]) - 1.0
        metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify_suite", "grow_large", "analytic"))
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default treeldp.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "treeldp" / "__init__.py").is_file():
        print(f"error: no treeldp sources under {SRC}", file=sys.stderr)
        return 2
    caps = cap_threads()
    setup = [] if args.trace else [setup_seconds() for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import treeldp
    import workloads

    if Path(treeldp.__file__).resolve().parent != SRC / "treeldp":
        print(f"error: imported treeldp from {treeldp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = treeldp.DEFAULT_SEED
    workloads.warm_up()

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes = run_passes(workloads, args, run_id)
    attempted = sum(len(p.calls) for p in passes)
    failed = sum(not c[3] for p in passes for c in p.calls)

    layers = [name for names in workloads.LAYERS.values() for name in names]
    per_layer, detail = layer_metrics(passes, layers)
    if args.trace:
        metrics = per_layer
    else:
        metrics = {
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    metrics = {k: dict(value=v, unit=u) for k, (v, u) in metrics.items()}
    record = dict(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        toy=args.toy,
        git_revision=git_revision(),
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        treeldp=treeldp.__version__,
        machine=platform.machine(),
        nproc=NPROC,
        thread_caps=caps,
        setup_samples_s=setup,
        passes=[dict(mode=p.mode, wall_s=p.wall, ops=len(p.calls)) for p in passes],
        ops_per_pass=collections.Counter(c[0] for c in passes[0].calls),
        attempted=attempted,
        failed=failed,
        failures=[f for p in passes for f in p.failures][:50],
        metrics=metrics,
        layers={k: v for k, v in detail.items() if v["calls"]},
        spans=[s for p in passes for s in p.spans],
    )
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{run_id}{'-toy' if args.toy else ''}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(dict(correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
