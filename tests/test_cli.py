"""Command-line interface: output contracts, determinism, config merging,
and exit codes.  Runs in-process through main(argv); subprocess cases
cover the console-script entry point declared in pyproject.toml and the
modules a fresh import of the package loads."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from treeldp import cli, euler_solve
from treeldp.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_body(out: str):
    """(comments, header, data-rows) of a CSV dump."""
    lines = out.strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    return comments, rest[0].split(","), [ln.split(",") for ln in rest[1:]]


# ----------------------------------------------------------------- pressure


def test_pressure_csv_contract(capsys):
    rc, out, err = run_cli(
        capsys, "pressure", "--alpha", "2", "--lambda-grid", "-1:1:0.5", "--no-header-timestamp"
    )
    assert rc == 0 and err == ""
    comments, header, rows = csv_body(out)
    assert header == ["lambda", "pressure", "dpressure", "ode_residual"]
    assert len(rows) == 5
    config = json.loads(comments[0].removeprefix("# config: "))
    assert config["alpha"] == 2.0
    assert config["lambda_grid"] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    mid = rows[2]
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == 0.0
    assert float(mid[2]) == pytest.approx(2 / 3, abs=1e-14)
    assert mid[3] == "nan"  # the residual is undefined at lambda = 0
    e = math.e
    assert float(rows[4][1]) == pytest.approx(
        math.log((e - 1) ** 2 / (2 * (e - 2))), abs=1e-12
    )
    assert all(abs(float(r[3])) < 1e-8 for r in rows if r[3] != "nan")


def test_pressure_deterministic_bytes(capsys):
    args = ("pressure", "--alpha", "1", "--lambda-grid", "-2:2:1", "--no-header-timestamp")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_pressure_timestamp_present_by_default(capsys):
    rc, out, _ = run_cli(capsys, "pressure", "--alpha", "1", "--lambda-grid", "1")
    assert rc == 0
    assert "# generated: " in out


def test_pressure_deep_lower_tail_at_alpha_half(capsys):
    # the closed form for alpha = 1/2 lost 1 - e^lambda here and raised a
    # math domain error from lambda = -37.5
    rc, out, _ = run_cli(capsys, "pressure", "--alpha", "0.5", "--lambda-grid", "-40:-30:2")
    assert rc == 0
    _, _, rows = csv_body(out)
    assert len(rows) == 6
    assert all(math.isfinite(float(v)) for r in rows for v in r)


def test_model_supplies_alpha(capsys):
    rc, out, _ = run_cli(
        capsys, "pressure", "--model", "plane_oriented", "--lambda-grid", "1", "--no-header-timestamp"
    )
    assert rc == 0
    config = json.loads(out.splitlines()[0].removeprefix("# config: "))
    assert config["alpha"] == 2.0


@pytest.mark.parametrize(
    "grid", ["1:0:0.5", "0:1:-0.5", "0:1:0", "a:b:c", "1:2", "nan:1:0.1",
             # more points than a list should hold: once built until memory
             # ran out, or an OverflowError when stop - start overflows
             "710:1e308:100", "0:1:1e-6", "-1e308:1e308:1"]
)
def test_bad_grids_exit_2(capsys, grid):
    rc, _, err = run_cli(capsys, "pressure", "--alpha", "2", "--lambda-grid", grid)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["pmf", "simulate"])
def test_a_slope_beyond_a_double_exits_2(capsys, command):
    # s_2 = 2e308: the exact slopes' integer division raised OverflowError
    rc, out, err = run_cli(capsys, command, "--model", "linear:alpha=1e308", "--n", "3")
    assert rc == 2 and out == ""
    assert err == "error: a slope s_n exceeds the largest double, 1.8e308\n"


def test_missing_alpha_and_model_exit_2(capsys):
    rc, _, err = run_cli(capsys, "pressure")
    assert rc == 2 and "alpha" in err


@pytest.mark.parametrize("argv, err", [
    (("--alpha", "2", "--lambda-grid", "710"),
     "lambda must be <= 709.78, where e^lambda overflows, got 710.0"),
    (("--alpha", "1e-300"),
     "alpha must be >= 0.0001 (Lambda's relative error grows like 1e-14/alpha), got 1e-300"),
])
def test_pressure_outside_the_route_exits_2(capsys, argv, err):
    # e^lambda overflows above log(DBL_MAX); below the alpha floor Lambda
    # loses its relative precision, and below 2^-53 the series divided by 0
    rc, out, got = run_cli(capsys, "pressure", *argv)
    assert rc == 2 and out == ""
    assert got == f"error: {err}\n"


# --------------------------------------------------------------------- rate


def test_rate_json_contract(capsys):
    rc, out, _ = run_cli(
        capsys,
        "rate", "--alpha", "2", "--x-grid", "0.5:0.7:0.1", "--format", "json",
        "--no-header-timestamp",
    )
    assert rc == 0
    doc = json.loads(out)
    assert "generated" not in doc
    assert doc["columns"] == ["x", "lambda_star", "rate"]
    assert doc["config"]["x_grid"] == pytest.approx([0.5, 0.6, 0.7])
    assert len(doc["rows"]) == 3
    for x, lam_star, val in doc["rows"]:
        assert val >= 0.0
    # the rate shrinks toward the mean slope 2/3: smallest at x = 0.7
    assert min(doc["rows"], key=lambda r: r[2])[0] == pytest.approx(0.7)


def test_rate_deep_lower_tail_at_alpha_half(capsys):
    # mpmath: lambda* = -31.947038972206255, I = 1.8549995475936396
    rc, out, _ = run_cli(capsys, "rate", "--alpha", "0.5", "--x-grid", "0.03")
    assert rc == 0
    _, _, rows = csv_body(out)
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(-31.947038972206255, rel=1e-12)
    assert float(rows[0][2]) == pytest.approx(1.8549995475936396, rel=1e-12)


def test_rate_beyond_reach_is_inf(capsys):
    # alpha = 1/2: no Z_n exceeds s_n = n/2, so every x in (1/2, 1] costs +inf
    rc, out, _ = run_cli(capsys, "rate", "--alpha", "0.5", "--x-grid", "0.9:1.0:0.1")
    assert rc == 0
    _, header, rows = csv_body(out)
    assert header == ["x", "lambda_star", "rate"]
    assert [r[1:] for r in rows] == [["inf", "inf"], ["inf", "inf"]]


def test_rate_grid_through_alpha_below_one(capsys):
    # x = alpha = 1/2 costs log(pi/2) and no longer aborts the grid
    rc, out, _ = run_cli(capsys, "rate", "--alpha", "0.5", "--x-grid", "0.4:1.0:0.1")
    assert rc == 0
    _, _, rows = csv_body(out)
    assert len(rows) == 7
    assert float(rows[0][2]) > 0.0
    assert rows[1][:2] == ["0.5", "inf"]
    assert float(rows[1][2]) == pytest.approx(math.log(math.pi / 2), rel=1e-15)
    assert [r[1:] for r in rows[2:]] == [["inf", "inf"]] * 5


def test_rate_above_the_old_bracket_cap(capsys):
    # alpha = 1, x = 0.97: lambda* = 33.3, which the bracket once refused
    rc, out, _ = run_cli(capsys, "rate", "--alpha", "1", "--x-grid", "0.97")
    assert rc == 0
    _, _, rows = csv_body(out)
    assert float(rows[0][1]) == pytest.approx(100.0 / 3.0, rel=1e-12)
    assert float(rows[0][2]) == pytest.approx(2.50655789732, abs=1e-11)


def test_rate_at_alpha_past_the_square_overflow(capsys):
    # sigma^2's (1 + alpha)^2 raised OverflowError from alpha = 1.3e154.
    # For large alpha, I(x) = (1 - x) log(alpha) + c(x): at x = 1/2 both
    # alphas give one c, below the straight line's (1/2) log(1/2)
    cs = []
    for alpha in ("1e200", "1e308"):
        rc, out, err = run_cli(capsys, "rate", "--alpha", alpha, "--x-grid", "0.5")
        assert rc == 0 and err == ""
        _, _, rows = csv_body(out)
        cs.append(float(rows[0][2]) - 0.5 * math.log(float(alpha)))
    assert cs[0] == pytest.approx(cs[1], abs=1e-9)
    assert -1.0 < cs[0] < 0.5 * math.log(0.5)


def test_rate_grid_up_to_alpha_three_quarters(capsys):
    # lambda* runs up to 12.6 at x = 0.74: the upper tail of the general route
    rc, out, _ = run_cli(
        capsys, "rate", "--alpha", "0.75", "--x-grid", "0.70:0.75:0.01", "--no-header-timestamp"
    )
    assert rc == 0
    _, _, rows = csv_body(out)
    assert len(rows) == 6
    rates = [float(r[2]) for r in rows]
    assert all(math.isfinite(float(r[1])) for r in rows[:5])
    assert rates == sorted(rates)
    assert rows[5][1] == "inf"
    assert rates[5] == pytest.approx(math.log(3 * math.pi / (2 * math.sqrt(2))), rel=1e-15)


# --------------------------------------------------------------------- path


def test_path_json_default_target(capsys):
    rc, out, _ = run_cli(
        capsys, "path", "--alpha", "2", "--format", "json", "--no-header-timestamp"
    )
    assert rc == 0
    doc = json.loads(out)
    (p,) = doc["paths"]
    assert p["x"] == pytest.approx(2 / 3)
    assert p["cost"] == pytest.approx(0.0, abs=1e-9)
    assert p["terminal_gap"] <= 1e-9
    assert p["phidot"][0] == pytest.approx(2 / 3, abs=0.01)
    assert p["t"][0] == 0.0 and p["t"][-1] == 1.0
    assert p["phi"][0] == 0.0


def test_path_csv_files_per_target(capsys, tmp_path):
    out_file = tmp_path / "p.csv"
    rc, _, _ = run_cli(
        capsys,
        "path", "--alpha", "2", "--x", "0.5", "--x", "0.85",
        "--out", str(out_file), "--no-header-timestamp",
    )
    assert rc == 0
    for x in ("0.5", "0.85"):
        text = (tmp_path / f"p_x{x}.csv").read_text()
        comments, header, rows = csv_body(text)
        assert header == ["t", "phi", "phidot"]
        summary = next(c for c in comments if c.startswith("# summary: "))
        cost = float(summary.split("cost=")[1].split()[0])
        rate_val = float(summary.split("rate=")[1].split()[0])
        assert cost == pytest.approx(rate_val, abs=1e-6)
        assert float(rows[-1][1]) == pytest.approx(float(x), abs=1e-6)


@pytest.mark.parametrize("argv, alpha", [
    (("--alpha", "1e308"), "1e+308"),  # once an OverflowError in sigma^2
    (("--alpha", "1e16"), "1e+16"),  # once ran for hours
    (("--model", "pa:beta=-0.999999"), "1000001.0"),
])
def test_path_refuses_alpha_above_the_cap(capsys, argv, alpha):
    rc, out, err = run_cli(capsys, "path", *argv)
    assert rc == 2 and out == ""
    assert err == f"error: euler_solve takes time linear in alpha and refuses alpha > 10000; got alpha={alpha}\n"


def test_path_refuses_two_targets_that_share_a_file(capsys, tmp_path, monkeypatch):
    # {x:g} names both targets p_x0.123457.csv: refused before any solve or write
    monkeypatch.setattr(cli, "euler_solve", lambda *args: pytest.fail("solved a refused target"))
    rc, out, err = run_cli(
        capsys,
        "path", "--alpha", "2", "--x", "0.1234567", "--x", "0.1234568",
        "--out", str(tmp_path / "p.csv"), "--no-header-timestamp",
    )
    assert rc == 2 and out == ""
    assert "0.1234567" in err and "0.1234568" in err and "p_x0.123457.csv" in err
    assert list(tmp_path.iterdir()) == []


def test_path_csv_dash_writes_every_target_to_stdout(capsys, tmp_path, monkeypatch):
    # '-' is stdout for several CSV targets too, never a file stem
    monkeypatch.chdir(tmp_path)
    argv = ["path", "--alpha", "2", "--x", "0.13", "--x", "0.85", "--no-header-timestamp"]
    rc, out, _ = run_cli(capsys, *argv, "--out", "-")
    assert rc == 0
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv)[1] == out
    tables = out.split("# config: ")[1:]
    assert len(tables) == 2
    for x, table in zip(("0.13", "0.85"), tables):
        comments, header, rows = csv_body("# config: " + table)
        assert f'"x": {x}}}' in comments[0]
        assert header == ["t", "phi", "phidot"]
        assert float(rows[-1][1]) == pytest.approx(float(x), abs=1e-6)


def test_path_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["path", "--alpha", "2", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


# ---------------------------------------------------------------------- pmf


def test_pmf_yule_values(capsys):
    rc, out, _ = run_cli(capsys, "pmf", "--model", "yule", "--n", "4", "--no-header-timestamp")
    assert rc == 0
    _, header, rows = csv_body(out)
    assert header == ["k", "prob", "log_prob"]
    got = {int(r[0]): float(r[1]) for r in rows}
    assert got == {
        0: pytest.approx(0.0, abs=1e-15),
        1: pytest.approx(2 / 3, abs=1e-15),
        2: pytest.approx(1 / 3, abs=1e-15),
        3: pytest.approx(0.0, abs=1e-15),
    }


def test_pmf_k0_override(capsys):
    rc, out, _ = run_cli(
        capsys, "pmf", "--model", "pa:beta=0", "--k0", "1", "--n", "1", "--no-header-timestamp"
    )
    assert rc == 0
    config = json.loads(out.splitlines()[0].removeprefix("# config: "))
    assert config["k0"] == 1
    _, _, rows = csv_body(out)
    assert rows == [["1", "1", "0"]]


def test_pmf_requires_n(capsys):
    rc, _, err = run_cli(capsys, "pmf", "--model", "yule")
    assert rc == 2 and "--n" in err
    rc, _, err = run_cli(capsys, "pmf", "--model", "yule", "--n", "0")
    assert rc == 2


INADMISSIBLE = [
    ("linear:alpha=0.3,k0=0", "4", "state 1 exceeds slope 0.6 at step 2"),
    ("linear:alpha=7/10,k0=0", "12", "state 3 exceeds slope 2.8 at step 4"),
]


@pytest.mark.parametrize("model, n, err", INADMISSIBLE)
def test_pmf_inadmissible_model_exits_2(capsys, model, n, err):
    rc, out, got = run_cli(capsys, "pmf", "--model", model, "--n", n)
    assert rc == 2 and out == ""
    assert got == f"error: {err}\n"


@pytest.mark.parametrize("model, arg", [("linear:alpha=1e400", "alpha"), ("pa:beta=-1e400", "beta")])
def test_pmf_slope_parameter_beyond_a_double_exits_2(capsys, model, arg):
    rc, out, err = run_cli(capsys, "pmf", "--model", model, "--n", "3")
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {arg} ") and len(err) < 100


@pytest.mark.parametrize("model, arg", [("pa:beta=1/0", "beta"), ("linear:alpha=1/0", "alpha"),
                                        ("rpa:beta=1/0,gamma=1@1,seed=1", "beta")])
def test_pmf_zero_denominator_exits_2(capsys, model, arg):
    rc, out, err = run_cli(capsys, "pmf", "--model", model, "--n", "3")
    assert rc == 2 and out == ""
    assert err == f"error: {arg} has a zero denominator, got '1/0'\n"


# ----------------------------------------------------------------- simulate


def test_simulate_trajectory_mode(capsys):
    args = ("simulate", "--model", "plane_oriented", "--n", "6", "--seed", "4",
            "--no-header-timestamp")
    rc, out, _ = run_cli(capsys, *args)
    assert rc == 0
    _, header, rows = csv_body(out)
    assert header == ["step", "z"]
    assert len(rows) == 6
    assert rows[0] == ["1", "1"]  # Z_1 = k0
    zs = [int(r[1]) for r in rows]
    assert all(b - a in (0, 1) for a, b in zip(zs, zs[1:]))
    rc2, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_simulate_endpoint_mode(capsys):
    rc, out, _ = run_cli(
        capsys,
        "simulate", "--model", "uniform", "--n", "50", "--reps", "3", "--no-header-timestamp",
    )
    assert rc == 0
    _, header, rows = csv_body(out)
    assert header == ["replicate", "z_n"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert all(1 <= int(r[1]) <= 50 for r in rows)


def test_simulate_streams_are_pinned(capsys):
    # the chain's sub-streams at a fixed seed: the trajectory walk (reps 1)
    # and the endpoint walk (reps > 1)
    base = ("simulate", "--model", "plane_oriented", "--n", "12", "--seed", "4",
            "--no-header-timestamp")
    rc, out, _ = run_cli(capsys, *base, "--reps", "1")
    assert rc == 0
    _, header, rows = csv_body(out)
    assert header == ["step", "z"]
    assert [int(r[1]) for r in rows] == [1, 1, 2, 2, 3, 4, 4, 5, 5, 6, 7, 8]
    rc, out, _ = run_cli(capsys, *base, "--reps", "3")
    assert rc == 0
    _, header, rows = csv_body(out)
    assert header == ["replicate", "z_n"]
    assert rows == [["0", "10"], ["1", "7"], ["2", "8"]]


def test_simulate_inadmissible_model_exits_2(capsys):
    # the second passes its slopes only on the rare path that moves up at
    # every step, and is refused all the same, at any seed and reps
    for model, n, err in INADMISSIBLE:
        for reps in ("1", "5"):
            rc, out, got = run_cli(capsys, "simulate", "--model", model, "--n", n, "--reps", reps)
            assert rc == 2 and out == ""
            assert got == f"error: {err}\n"


# ------------------------------------------------------------------- config


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "alpha": 2.0,
        "lambda-grid": "0:1:0.5",
        "no-header-timestamp": True,
    }))
    rc, out, _ = run_cli(capsys, "pressure", "--config", str(cfg))
    assert rc == 0
    assert "# generated:" not in out
    _, _, rows = csv_body(out)
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    # explicit flags beat stored values
    rc, out, _ = run_cli(capsys, "pressure", "--config", str(cfg), "--lambda-grid", "0:2:1")
    assert [float(r[0]) for r in csv_body(out)[2]] == [0.0, 1.0, 2.0]


def test_config_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc, _, err = run_cli(capsys, "pressure", "--alpha", "2", "--config", str(cfg))
    assert rc == 2 and "JSON object" in err


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lamda-grid": "0:1:0.5", "alpha": 2}))
    rc, out, err = run_cli(capsys, "pressure", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err == "error: unknown config key(s) for pressure: lamda-grid\n"
    # a key of another subcommand is unknown here too
    cfg.write_text(json.dumps({"tol": 1e-9, "alpha": 2}))
    rc, out, err = run_cli(capsys, "path", "--config", str(cfg))
    assert rc == 2 and out == "" and "tol" in err


def test_config_rejects_values_of_the_wrong_type(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cases = [
        ("pmf", {"n": "5", "model": "yule"}, "error: config key 'n' must be int, got \"5\"\n"),
        ("path", {"x": 0.5, "alpha": 2}, "error: config key 'x' must be a list of float, got 0.5\n"),
        ("pmf", {"n": 5.0, "model": "yule"}, "error: config key 'n' must be int, got 5.0\n"),
        ("pmf", {"n": True, "model": "yule"}, "error: config key 'n' must be int, got true\n"),
        ("pressure", {"alpha": "2"}, "error: config key 'alpha' must be float, got \"2\"\n"),
        (
            "pressure",
            {"alpha": 2, "format": "xml"},
            "error: config key 'format' must be one of csv, json, got \"xml\"\n",
        ),
        (
            "pressure",
            {"alpha": 2, "no-header-timestamp": 1},
            "error: config key 'no-header-timestamp' must be true or false, got 1\n",
        ),
    ]
    for command, stored, want in cases:
        cfg.write_text(json.dumps(stored))
        rc, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (rc, out, err) == (2, "", want), stored


def test_config_accepts_values_of_the_flag_types(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    # an int is a valid float, and a list of numbers is a valid repeated --x
    cfg.write_text(json.dumps({"alpha": 2, "x": [0.5, 1 / 3], "no-header-timestamp": True}))
    rc, out, _ = run_cli(capsys, "path", "--config", str(cfg), "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["x"] == [0.5, 1 / 3]
    assert [p["x"] for p in doc["paths"]] == [0.5, 1 / 3]


# ------------------------------------------------------------------- verify


def test_verify_single_criterion(capsys, tmp_path):
    report = tmp_path / "report.txt"
    rc, out, _ = run_cli(capsys, "verify", "--suite", "1", "--out", str(report))
    assert rc == 0
    assert "[PASS] C1" in out
    assert "[FAIL]" not in out
    assert report.read_text() == out


def test_verify_has_no_budget_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--budget", "quick", "--suite", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget quick" in capsys.readouterr().err


def test_verify_bad_suite(capsys):
    rc, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run_cli(capsys, "verify", "--suite", ",")
    assert rc == 2


def test_verify_checks_every_criterion_before_running(capsys):
    rc, out, err = run_cli(capsys, "verify", "--suite", "1,9")
    assert rc == 2
    assert "[PASS]" not in out and out == ""
    assert err.startswith("error: unknown criterion 9;")


# -------------------------------------------------------------- entry point


ROOT = Path(__file__).resolve().parents[1]


def _source_env() -> dict:
    """The environment of a subprocess that imports treeldp from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_installed_entry_point():
    # run the [project.scripts] target the way an installed console script
    # would, from the source tree, so no install is needed
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^treeldp\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert target is not None, "pyproject.toml declares no treeldp console script"
    module, func = target.groups()
    assert (module, func) == ("treeldp.cli", "main")
    env = _source_env()
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "pressure", "--alpha", "2", "--lambda-grid", "1",
         "--no-header-timestamp"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# config: ")
    assert "lambda,pressure,dpressure,ode_residual" in proc.stdout


@pytest.mark.parametrize("module", ["chain", "dist", "pressure", "path", "trees"])
def test_the_package_exports_every_public_name_of_its_modules(module):
    import importlib

    import treeldp

    mod = importlib.import_module(f"treeldp.{module}")
    for name in mod.__all__:
        assert getattr(treeldp, name, None) is getattr(mod, name), name


def test_the_package_imports_neither_mpmath_nor_scipy_stats():
    # mpmath is a reference for literals in the tests only, and scipy.stats
    # is left out for import time: neither may come in through any kernel
    code = "\n".join([
        "import sys",
        "import treeldp",
        "treeldp.rate(treeldp.PressureEval(2.0), 0.5)",
        "treeldp.euler_solve(2.0, 0.5)",
        "treeldp.pmf(treeldp.model_from_name('plane_oriented'), 50)",
        "treeldp.batch_recursive_leaves('uniform', 20, 10)",
        "print(*[name for name in ('mpmath', 'scipy.stats') if name in sys.modules])",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_source_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_only_a_path_solve_imports_scipy_optimize_and_integrate():
    # rate solves lambda* by Newton and path.py imports solve_ivp on its
    # first call, so nothing short of a path solve pays for either package
    code = "\n".join([
        "import contextlib, io, json, sys",
        "import treeldp",
        "import treeldp.cli",
        "treeldp.rate(treeldp.PressureEval(2.0), 0.5)",
        "treeldp.pmf(treeldp.model_from_name('plane_oriented'), 50)",
        "treeldp.simulate_endpoints(treeldp.model_from_name('plane_oriented'), 50, 10, seed=1)",
        "treeldp.batch_recursive_leaves('uniform', 20, 10)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    treeldp.cli.main(['rate', '--alpha', '2', '--x-grid', '0.1:0.9:0.2'])",
        "loaded = [name for name in ('scipy.optimize', 'scipy.integrate') if name in sys.modules]",
        "sol = treeldp.euler_solve(2.0, 0.5)",
        "print(json.dumps([loaded, sol.cost, sol.endpoint, sol.path.values.tolist()]))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_source_env()
    )
    assert proc.returncode == 0, proc.stderr
    loaded, cost, endpoint, values = json.loads(proc.stdout)
    assert loaded == []
    sol = euler_solve(2.0, 0.5)
    assert (cost, endpoint, values) == (sol.cost, sol.endpoint, sol.path.values.tolist())
