"""Command-line front end: parameter sweeps, simulation, exact pmfs,
variational paths, and the verification suite, emitted as plot-ready
CSV or JSON with the resolved configuration echoed in every header.

Identical config and seed produce byte-identical output except for the
timestamp line, which --no-header-timestamp suppresses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import dist
from .chain import DEFAULT_SEED, ModelSpec, model_from_name, simulate, simulate_endpoints
from .path import euler_solve
from .pressure import PressureEval, ode_residual, pressure, pressure_derivatives, rate
from .verify import run_suite

__all__ = ["main"]


def _parse_grid(text: str) -> list[float]:
    """'start:stop:step' (inclusive of stop when it lands on the grid) or a
    single number; result is finite, sorted, non-empty."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError("grid endpoints and step must be finite")
    if step <= 0 or stop < start:
        raise ValueError("grid needs step > 0 and stop >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _resolve_model(resolved: dict) -> ModelSpec:
    model = resolved.get("model")
    if model is None:
        raise ValueError("--model is required for this command")
    spec = model_from_name(model)
    k0 = resolved.get("k0")
    if k0 is not None and k0 != spec.k0:
        spec = ModelSpec(spec.slopes, k0)
    return spec


def _resolve_alpha(resolved: dict) -> float:
    if resolved.get("alpha") is not None:
        return float(resolved["alpha"])
    if resolved.get("model") is not None:
        return float(model_from_name(resolved["model"]).alpha)
    raise ValueError("pass --alpha or --model")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_json(stream, doc: dict, timestamp: bool) -> None:
    """One JSON document, keys sorted, with the optional `generated` stamp."""
    if timestamp:
        doc["generated"] = _now()
    json.dump(doc, stream, indent=2, sort_keys=True)
    print(file=stream)


def _write_table(stream, resolved, columns, rows, fmt, timestamp, extra_comments=()):
    if fmt == "json":
        doc = {"config": resolved, "columns": columns, "rows": [list(r) for r in rows]}
        _write_json(stream, doc, timestamp)
        return
    print(f"# config: {json.dumps(resolved, sort_keys=True)}", file=stream)
    if timestamp:
        print(f"# generated: {_now()}", file=stream)
    for line in extra_comments:
        print(line, file=stream)
    print(",".join(columns), file=stream)
    for row in rows:
        print(",".join(_fmt(v) for v in row), file=stream)


@contextmanager
def _output(path):
    """stdout when path is None or '-', else the file at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


class _Tee:
    def __init__(self, *streams):
        self.streams = streams

    def write(self, text):
        for s in self.streams:
            s.write(text)

    def flush(self):
        for s in self.streams:
            s.flush()


def _add_common(sp, *names):
    if "model" in names:
        sp.add_argument("--model", help="preset string, e.g. plane_oriented or pa:beta=0")
    if "alpha" in names:
        sp.add_argument("--alpha", type=float, help="slope growth rate")
    if "k0" in names:
        sp.add_argument("--k0", type=int, help="override the preset's start state")
    if "n" in names:
        sp.add_argument("--n", type=int, help="chain length / object size")
    if "reps" in names:
        sp.add_argument("--reps", type=int, help="number of replicates")
    sp.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--out", help="output file; stdout when omitted")
    sp.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    sp.add_argument(
        "--no-header-timestamp",
        action="store_const",
        const=True,
        help="omit the timestamp header line for byte-stable output",
    )
    sp.add_argument("--config", help="JSON file of defaults; explicit flags win")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treeldp",
        description="Leaf-count chains: pressure, rate functions, exact pmfs, "
        "optimal paths, simulators, and a verification suite.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pressure", help="pressure, derivative, and ODE residual on a grid")
    _add_common(sp, "model", "alpha")
    sp.add_argument("--lambda-grid", default=None, help="start:stop:step (default -5:5:0.1)")

    sp = sub.add_parser("rate", help="rate function via Legendre transform on an x grid")
    _add_common(sp, "model", "alpha")
    sp.add_argument("--x-grid", default=None, help="start:stop:step (default 0.05:0.95:0.05)")

    sp = sub.add_parser("path", help="cost-minimizing trajectories for endpoint targets")
    _add_common(sp, "model", "alpha")
    sp.add_argument(
        "--x", action="append", type=float, help="endpoint target; repeatable (default 2/3)"
    )

    sp = sub.add_parser("pmf", help="exact distribution of Z_n")
    _add_common(sp, "model", "k0", "n")

    sp = sub.add_parser("simulate", help="sample trajectories or endpoints")
    _add_common(sp, "model", "k0", "n", "reps")

    sp = sub.add_parser("verify", help="run acceptance criteria and report pass/fail")
    sp.add_argument("--suite", default=None, help="'all' or comma list like 1,4,8")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="also write the report to this file")
    sp.add_argument("--config", help="JSON file of defaults; explicit flags win")
    return ap


def _check_config_value(key: str, val, action: argparse.Action) -> None:
    """Refuse a stored value that the option's flag could not have stored."""
    kind = action.type or str

    def fits(v) -> bool:
        if isinstance(v, bool):
            return False
        return isinstance(v, kind) or (kind is float and isinstance(v, int))

    if action.nargs == 0:
        ok, want = isinstance(val, bool), "true or false"
    elif isinstance(action, argparse._AppendAction):
        ok, want = isinstance(val, list) and all(map(fits, val)), f"a list of {kind.__name__}"
    elif action.choices is not None:
        ok, want = val in action.choices, "one of " + ", ".join(action.choices)
    else:
        ok, want = fits(val), kind.__name__
    if not ok:
        raise ValueError(f"config key {key!r} must be {want}, got {json.dumps(val)}")


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    merged = vars(args).copy()
    path = merged.pop("config", None)
    if path:
        with open(path) as fh:
            stored = json.load(fh)
        if not isinstance(stored, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(key for key in stored if key.replace("-", "_") not in merged)
        if unknown:
            raise ValueError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in sub.choices[args.command]._actions}
        for key, val in stored.items():
            dest = key.replace("-", "_")
            if dest in actions:
                _check_config_value(key, val, actions[dest])
            if merged.get(dest) is None:
                merged[dest] = val
    return merged


def _cmd_pressure(m: dict) -> int:
    alpha = _resolve_alpha(m)
    grid = _parse_grid(m.get("lambda_grid") or "-5:5:0.1")
    resolved = {
        "command": "pressure",
        "alpha": alpha,
        "lambda_grid": grid,
        "format": m["format"],
    }
    ev = PressureEval(alpha)
    rows = []
    for lam in grid:
        val = pressure(ev, lam)
        d1, _ = pressure_derivatives(ev, lam)
        res = ode_residual(ev, lam) if lam != 0.0 else math.nan
        rows.append((lam, val, d1, res))
    columns = ["lambda", "pressure", "dpressure", "ode_residual"]
    with _output(m["out"]) as stream:
        _write_table(stream, resolved, columns, rows, m["format"], m["timestamp"])
    return 0


def _cmd_rate(m: dict) -> int:
    alpha = _resolve_alpha(m)
    grid = _parse_grid(m.get("x_grid") or "0.05:0.95:0.05")
    resolved = {"command": "rate", "alpha": alpha, "x_grid": grid, "format": m["format"]}
    ev = PressureEval(alpha)
    rows = []
    for x in grid:
        pt = rate(ev, x)
        rows.append((pt.x, pt.lambda_star, pt.rate))
    with _output(m["out"]) as stream:
        _write_table(
            stream, resolved, ["x", "lambda_star", "rate"], rows, m["format"], m["timestamp"]
        )
    return 0


def _path_out_name(out: str, x: float) -> str:
    stem, dot, ext = out.rpartition(".")
    return f"{stem}_x{x:g}.{ext}" if dot else f"{out}_x{x:g}"


def _cmd_path(m: dict) -> int:
    alpha = _resolve_alpha(m)
    xs = m.get("x") or [2.0 / 3.0]
    fmt = m["format"]
    outs = [m["out"]] * len(xs)
    if fmt == "csv" and len(xs) > 1 and m["out"] not in (None, "-"):
        outs = [_path_out_name(m["out"], x) for x in xs]
        for i, out in enumerate(outs):
            if out in outs[:i]:
                raise ValueError(f"targets {xs[outs.index(out)]!r} and {xs[i]!r} would both write {out}")
    ev = PressureEval(alpha)
    paths = []
    for x in xs:
        sol = euler_solve(alpha, x)
        paths.append({
            "x": x,
            "cost": sol.cost,
            "rate_from_legendre": rate(ev, x).rate,
            "terminal_gap": sol.terminal_gap,
            "t": sol.path.knots.tolist(),
            "phi": sol.path.values.tolist(),
            "phidot": np.gradient(sol.path.values, sol.path.knots).tolist(),
        })
    if fmt == "json":
        resolved = {"command": "path", "alpha": alpha, "x": list(xs), "format": fmt}
        with _output(m["out"]) as stream:
            _write_json(stream, {"config": resolved, "paths": paths}, m["timestamp"])
        return 0
    for p, out in zip(paths, outs):
        resolved = {"command": "path", "alpha": alpha, "x": p["x"], "format": fmt}
        summary = (
            f"# summary: cost={p['cost']:.17g} rate={p['rate_from_legendre']:.17g} "
            f"gap={p['terminal_gap']:.3g}"
        )
        rows = zip(p["t"], p["phi"], p["phidot"])
        with _output(out) as stream:
            _write_table(stream, resolved, ["t", "phi", "phidot"], rows, fmt, m["timestamp"], [summary])
    return 0


def _resolve_chain(m: dict) -> tuple[ModelSpec, int, dict]:
    """Model, length n and the config echo shared by pmf and simulate."""
    model = _resolve_model(m)
    n = m.get("n")
    if n is None or n < 1:
        raise ValueError("--n must be a positive integer")
    resolved = {
        "command": m["command"],
        "model": model.label(),
        "alpha": float(model.alpha),
        "k0": model.k0,
        "n": n,
        "format": m["format"],
    }
    return model, n, resolved


def _cmd_pmf(m: dict) -> int:
    model, n, resolved = _resolve_chain(m)
    p = dist.pmf(model, n)
    rows = [
        (int(k), float(w), float(lp))
        for k, w, lp in zip(p.support, p.probs(), p.logp)
    ]
    with _output(m["out"]) as stream:
        _write_table(
            stream, resolved, ["k", "prob", "log_prob"], rows, m["format"], m["timestamp"]
        )
    return 0


def _cmd_simulate(m: dict) -> int:
    model, n, resolved = _resolve_chain(m)
    reps = m.get("reps") if m.get("reps") is not None else 1
    seed = m["seed"]
    resolved.update(reps=reps, seed=seed)
    if reps == 1:
        traj = simulate(model, n, seed)
        columns = ["step", "z"]
        rows = list(enumerate(traj.values.tolist(), start=1))
    else:
        z = simulate_endpoints(model, n, reps, seed)
        columns = ["replicate", "z_n"]
        rows = list(enumerate(z.tolist()))
    with _output(m["out"]) as stream:
        _write_table(stream, resolved, columns, rows, m["format"], m["timestamp"])
    return 0


def _cmd_verify(m: dict) -> int:
    suite = m.get("suite") or "all"
    if suite == "all":
        criteria = None
    else:
        try:
            criteria = [int(tok) for tok in suite.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"--suite must be 'all' or a comma list of integers: {exc}")
        if not criteria:
            raise ValueError("--suite produced an empty criterion list")
    if not m.get("out"):
        return 0 if run_suite(criteria, seed=m["seed"], stream=sys.stdout) else 1
    with open(m["out"], "w") as copy:
        ok = run_suite(criteria, seed=m["seed"], stream=_Tee(sys.stdout, copy))
    return 0 if ok else 1


_GRID_FLAGS = ("--lambda-grid", "--x-grid")


def _preprocess(argv: list[str]) -> list[str]:
    # fuse grid flags with their value so argparse does not mistake
    # "-5:5:0.1" for an option string
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _GRID_FLAGS:
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(_preprocess(argv))
    try:
        m = _merge_config(args, parser)
        m["seed"] = m.get("seed") if m.get("seed") is not None else DEFAULT_SEED
        if m.get("command") != "verify":
            m["format"] = m.get("format") or "csv"
            m["timestamp"] = not m.get("no_header_timestamp")
        handler = {
            "pressure": _cmd_pressure,
            "rate": _cmd_rate,
            "path": _cmd_path,
            "pmf": _cmd_pmf,
            "simulate": _cmd_simulate,
            "verify": _cmd_verify,
        }[m["command"]]
        return handler(m)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
