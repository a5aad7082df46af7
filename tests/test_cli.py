import json
import math
import os
import subprocess
import sys
import tracemalloc

from dataclasses import replace

import pytest

import blowuplab
from blowuplab.cli import EXIT_CONFIG, EXIT_USAGE, main
from blowuplab.config import (
    apply_overrides,
    build_controls,
    build_grid,
    build_initial_data,
    build_params,
    default_config,
)
from blowuplab.grids import load_field_binary, save_field_binary, to_full_grid
from blowuplab.stepper import simulate
from blowuplab.sweep import SweepConfig, run_sweep, write_sweep_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == EXIT_USAGE
    assert "usage" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE
    assert "unknown command" in err


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(blowuplab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "blowuplab.cli", "frobnicate"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_USAGE
    assert "unknown command" in proc.stderr


def test_help_exits_zero(capsys):
    code, _, err = run_cli(capsys, "--help")
    assert code == 0
    assert "usage" in err


def test_exponents_table(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--n", "3", "--beta", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,beta,kato,strauss,beta_threshold"
    n, beta, kato, strauss, thr = lines[1].split(",")
    assert float(kato) == 2.0
    assert float(strauss) == pytest.approx(2.41421356, abs=1e-6)
    assert float(thr) == 2.0


def test_exponents_infinite_thresholds(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--n", "1", "--beta", "5")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "inf"
    assert row[4] == "inf"


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("oracle", "--u0", "1", "--vo", "0.8164965809", "--p", "2"), "--vo"),
        (("exponents", "--n", "1", "--betta", "-2"), "--betta"),
        (("scaling", "--resolution", "64", "--model.p", "3"), "--model.p"),
    ],
    ids=["oracle-vo", "exponents-betta", "scaling-dotted"],
)
def test_unread_flag_is_a_config_error(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error") and bad in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("oracle", "--u0", "nan"), "--u0"),
        (("oracle", "--p", "inf"), "--p"),
        (("weakcheck", "--T", "inf"), "--T"),
        # an infinite lambda would double the source grid forever
        (("scaling", "--lambda", "inf", "--resolution", "32"), "--lambda"),
        (("slopes", "--p", "x"), "--p"),
        # values that the objects a command builds from them refuse
        (("oracle", "--p", "1"), "p must exceed 1"),
        (("weakcheck", "--nt", "0"), "--nt"),
        (("weakcheck", "--p", "1.2"), "window powers too small"),
        (("slopes", "--Ts", "8,16"), "4 horizons"),
        (("scaling", "--resolution", "100"), "power of two"),
    ],
    ids=["oracle-u0-nan", "oracle-p-inf", "weakcheck-T-inf", "scaling-lambda-inf", "slopes-p-x",
         "oracle-p-1", "weakcheck-nt-0", "weakcheck-p-window", "slopes-two-Ts", "scaling-resolution-100"],
)
def test_a_flag_value_gets_the_checks_of_a_config_value(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error") and bad in err


@pytest.mark.parametrize("command, target", [
    (("oracle", "--u0", "1"), "blowuplab.oracles.ode_blowup_time"),
    (("simulate", "--grid.points", "16", "--time.t_end", "0.1", "--output.dir", "{tmp}"),
     "blowuplab.cli.simulate"),
])
def test_a_value_error_inside_a_run_is_no_config_error(tmp_path, capsys, monkeypatch, command, target):
    # only values refused while a command builds its objects are config
    # errors; one raised once the run is under way propagates
    def fail(*args, **kwargs):
        raise ValueError("raised inside the run")

    monkeypatch.setattr(target, fail)
    with pytest.raises(ValueError, match="inside the run"):
        main([arg.format(tmp=tmp_path / "run") for arg in command])
    assert "config error" not in capsys.readouterr().err


def test_exponents_prints_nothing_for_a_bad_dimension(capsys):
    code, out, err = run_cli(capsys, "exponents", "--n", "1,0")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "n >= 1" in err


@pytest.mark.parametrize("key, value", [
    ("init.center", "0"), ("time.dt_min", "1e-12"), ("blowup.fit_points", "12"),
])
def test_a_removed_key_is_refused_before_the_run(tmp_path, capsys, key, value):
    # every bump is centred at the origin, and the step floor and the fit
    # length are the constants stepper.DT_MIN and FIT_POINTS
    out_dir = tmp_path / "run"
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(f"{key} = {value}\n")
    for extra in ((f"--{key}", value), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, "simulate", *extra, "--output.dir", str(out_dir))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"config error: unknown config key {key!r}")
        assert not out_dir.exists()


def test_simulate_rejects_plots_flag_before_the_run(tmp_path, capsys):
    # plotting was removed: --plots was never read, and output.plots is no
    # longer a config key, on the command line or in a config file
    out_dir = tmp_path / "run"
    cfg = tmp_path / "plots.cfg"
    cfg.write_text("output.plots = true\n")
    for extra, name in [
        (("--plots",), "--plots"),
        (("--output.plots", "true"), "output.plots"),
        (("--config", str(cfg)), "output.plots"),
    ]:
        code, out, err = run_cli(
            capsys,
            "simulate",
            *extra,
            "--init.amplitude", "0",
            "--time.t_end", "0.2",
            "--grid.points", "32",
            "--grid.half_width", "4",
            "--output.dir", str(out_dir),
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("config error") and name in err
        assert not out_dir.exists()


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--u0", "1", "--v0", "0.816496580927726", "--p", "2")
    assert code == 0
    value = float(out.strip().split(",")[1])
    assert value == pytest.approx(math.sqrt(6.0), rel=1e-9)


def test_simulate_zero_amplitude(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--init.amplitude", "0",
        "--time.t_end", "0.5",
        "--grid.points", "32",
        "--grid.half_width", "4",
        "--output.dir", str(out_dir),
    )
    assert code == 0
    assert "CompletedHorizon" in out
    trace = (out_dir / "energy_trace.csv").read_text().splitlines()
    assert trace[0].startswith("t,kinetic")
    assert all(float(line.split(",")[1]) == 0.0 for line in trace[1:])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["artifact_version"]
    report = json.loads((out_dir / "report.json").read_text())
    assert report["outcome"] == "CompletedHorizon"
    u = load_field_binary(out_dir / "final_u.blwp")
    assert u.grid.points_per_axis == 32


@pytest.mark.parametrize("argv, points", [
    ((), [32]),
    # even data in 3-D march on the 9^3 samples of [0, L]^3
    (("--grid.dim", "3", "--grid.points", "16", "--init.kind", "mode"), [9, 9, 9]),
    # a 3-D grid whose coordinates do not mirror exactly: 2 * 2.2 / 16 is
    # not a binary fraction, so the centred bump's samples are not even
    (("--grid.dim", "3", "--grid.points", "16", "--grid.half_width", "2.2"), [16, 16, 16]),
])
def test_report_names_the_grid_the_solver_marched_on(tmp_path, capsys, argv, points):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(
        capsys, "simulate", "--grid.points", "32", "--grid.half_width", "4",
        "--time.t_end", "0.05", "--time.tol", "0", "--model.nonlinear", "false",
        *argv, "--output.dir", str(out_dir),
    )
    report = json.loads((out_dir / "report.json").read_text())
    assert report["solver_points"] == points
    # the fields are written on the full grid
    u = load_field_binary(out_dir / "final_u.blwp")
    assert u.values.size == u.grid.points_per_axis ** len(points)


@pytest.mark.parametrize("dt0, code, outcome", [
    # the step amplifies the top modes: its `_imex_margin`
    # dt0^2 K - 2 dt0 b K - 4 is +21.3, so the sup norm's pass of u_max at
    # t = 1.9 is no blow-up
    ("0.1", 40, "NumericalInstability"),
    # resolved: a straight fit, t* = 19.328 just before that sample
    ("0.01", 10, "BlowupDetected"),
])
def test_a_fixed_step_instability_is_not_a_blowup(tmp_path, capsys, dt0, code, outcome):
    out_dir = tmp_path / "run"
    got, out, _ = run_cli(
        capsys, "simulate", "--grid.points", "256", "--grid.half_width", "8",
        "--model.b0", "1e-6", "--init.kind", "mode", "--init.mode", "4",
        "--init.amplitude", "0.1", "--time.tol", "0", "--time.dt0", dt0,
        "--time.t_end", "20", "--output.dir", str(out_dir),
    )
    assert (got, out.split()[0]) == (code, outcome)
    report = json.loads((out_dir / "report.json").read_text())
    assert report["outcome"] == outcome
    # an instability reports no blow-up time
    assert (report["t_star_est"] is None) == (code == 40)


def test_simulate_refuses_overwrite_without_force(tmp_path, capsys):
    out_dir = tmp_path / "run"
    args = (
        "simulate",
        "--init.amplitude", "0",
        "--time.t_end", "0.2",
        "--grid.points", "32",
        "--grid.half_width", "4",
        "--output.dir", str(out_dir),
    )
    assert run_cli(capsys, *args)[0] == 0
    code, _, err = run_cli(capsys, *args)
    assert code == EXIT_CONFIG
    assert "force" in err
    assert run_cli(capsys, *args, "--force")[0] == 0


def test_force_takes_a_config_boolean(tmp_path, capsys):
    out_dir = tmp_path / "run"
    args = (
        "simulate",
        "--init.amplitude", "0",
        "--time.t_end", "0.2",
        "--grid.points", "32",
        "--grid.half_width", "4",
        "--output.dir", str(out_dir),
    )
    assert run_cli(capsys, *args)[0] == 0
    trace = out_dir / "energy_trace.csv"
    trace.write_text("stale\n")  # an overwrite would replace it
    finished = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    for value in ("no", "0", "off"):
        code, _, err = run_cli(capsys, *args, f"--force={value}")
        assert code == EXIT_CONFIG and "force" in err
        assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == finished
    code, _, err = run_cli(capsys, *args, "--force=maybe")
    assert code == EXIT_CONFIG and "not a boolean" in err
    assert run_cli(capsys, *args, "--force=yes")[0] == 0
    assert trace.read_text().startswith("t,kinetic")


def test_simulate_outputs_reproducible(tmp_path, capsys):
    args = lambda d: (
        "simulate",
        "--init.amplitude", "0.5",
        "--time.t_end", "0.5",
        "--grid.points", "64",
        "--grid.half_width", "8",
        "--output.dir", str(d),
    )
    run_cli(capsys, *args(tmp_path / "a"))
    run_cli(capsys, *args(tmp_path / "b"))
    assert (tmp_path / "a" / "energy_trace.csv").read_bytes() == (
        tmp_path / "b" / "energy_trace.csv"
    ).read_bytes()


def test_simulate_blowup_exit_code(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--init.kind", "constant",
        "--init.amplitude", "1.0",
        "--init.on", "both",
        "--grid.points", "32",
        "--grid.half_width", "4",
        "--time.t_end", "10",
        "--time.tol", "1e-4",
        "--blowup.u_max", "1e5",
        "--output.dir", str(tmp_path / "blow"),
    )
    assert code == 10
    assert "BlowupDetected" in out
    report = json.loads((tmp_path / "blow" / "report.json").read_text())
    assert report["outcome"] == "BlowupDetected"
    trace = (tmp_path / "blow" / "energy_trace.csv").read_text().splitlines()
    assert report["accepted"] == len(trace) - 2
    assert report["rejected"] >= 0
    assert 0.0 < report["dt_min"] <= report["dt_max"]


def test_simulate_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "init.amplitude = 0\n"
        "grid.points = 32\n"
        "grid.half_width = 4\n"
        "time.t_end = 1.0\n"
        f"output.dir = {tmp_path / 'from_file'}\n"
    )
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--time.t_end", "0.25")
    assert code == 0
    trace = (tmp_path / "from_file" / "energy_trace.csv").read_text().splitlines()
    assert float(trace[-1].split(",")[0]) == pytest.approx(0.25)


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.wibble = 3\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "unknown config key" in err


def _linear_mode_run(out_dir, mode):
    return (
        "simulate", "--grid.points", "16", "--init.kind", "mode", "--init.mode", str(mode),
        "--model.nonlinear", "false", "--time.tol", "0", "--time.t_end", "0.1",
        "--output.dir", str(out_dir),
    )


def test_simulate_refuses_a_mode_above_the_nyquist_mode(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, *_linear_mode_run(out_dir, 40))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: mode index 40 exceeds the grid's Nyquist mode 8\n"
    assert not out_dir.exists()
    code, out, _ = run_cli(capsys, *_linear_mode_run(out_dir, 8))
    assert code == 0
    assert out.startswith("CompletedHorizon ")


def test_sweep_subcommand(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--sweep.amplitude", "0.0,0.5",
        "--grid.points", "64",
        "--grid.half_width", "8",
        "--time.t_end", "1.0",
        "--time.tol", "1e-5",
        # keys the sweep does not read are taken at their defaults
        "--model.p", "2.0",
        "--output.every", "0",
        "--output.dir", str(tmp_path / "sweep"),
        "--workers", "1",
    )
    assert code == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("n,p,beta,b0,amplitude,mean_u1")
    assert len(lines) == 3
    assert "SurvivedHorizon" in lines[1]
    assert err == ""


def test_sweep_says_why_a_point_failed(tmp_path, capsys):
    # a box too small for the bump is a config error of the first point, as
    # it is for simulate, named in one line before any output
    argv = [
        "sweep",
        "--sweep.amplitude", "0.0,0.5",
        "--grid.points", "16",
        "--grid.half_width", "1.5",
        "--time.t_end", "0.1",
        "--time.tol", "1e-5",
        "--workers", "1",
    ]
    code, out, err = run_cli(capsys, *argv, "--output.dir", str(tmp_path / "sweep"))
    assert code == EXIT_CONFIG
    assert out == "" and not (tmp_path / "sweep").exists()
    assert err == (
        "config error: sweep point (n, p, beta, b0, amplitude) = (1, 2.0, 0.0, 1.0, 0.0): "
        "bump radius 1.0 too large for box half-width 1.5\n"
    )
    code, _, _ = run_cli(capsys, "simulate", *argv[3:9], "--output.dir", str(tmp_path / "run"))
    assert code == EXIT_CONFIG


def test_simulate_rejects_fit_points_below_two(tmp_path, capsys):
    # the fit length is the constant stepper.FIT_POINTS, so blowup.fit_points
    # is an unknown key
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--blowup.fit_points", "0", "--output.dir", str(out))
    assert code == EXIT_CONFIG
    assert "blowup.fit_points" in err
    assert not out.exists()


def test_sweep_with_zero_tol_marches_a_fixed_step(tmp_path, capsys):
    # time.tol = 0 means a fixed step, in sweep as in simulate
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--sweep.amplitude", "0.5,4.0",
        "--grid.points", "64",
        "--grid.half_width", "8",
        "--time.t_end", "1.0",
        "--time.dt0", "0.01",
        "--time.tol", "0",
        "--output.dir", str(tmp_path / "sweep"),
        "--workers", "1",
    )
    assert code == 0
    config = SweepConfig(
        amplitudes=(0.5, 4.0), points_per_axis=64, half_width=8.0, t_end=1.0,
        dt0=0.01, tol=None,
    )
    write_sweep_csv(run_sweep(config), tmp_path / "fixed.csv")
    write_sweep_csv(run_sweep(replace(config, tol=1e-6)), tmp_path / "adaptive.csv")
    written = (tmp_path / "sweep" / "sweep.csv").read_text()
    assert written == (tmp_path / "fixed.csv").read_text()
    assert written != (tmp_path / "adaptive.csv").read_text()


UNREAD = {
    "simulate": {
        "sweep.n": ("2", "grid.dim"),
        "sweep.p": ("3", "model.p"),
        "sweep.beta": ("1", "model.beta"),
        "sweep.b0": ("2", "model.b0"),
        "sweep.amplitude": ("0,2", "init.amplitude"),
    },
    "sweep": {
        "grid.dim": ("2", "sweep.n"),
        "model.p": ("3", "sweep.p"),
        "model.beta": ("1", "sweep.beta"),
        "model.b0": ("2", "sweep.b0"),
        "init.amplitude": ("2", "sweep.amplitude"),
        "output.every": ("5", "blwp simulate"),
        "model.nonlinear": ("false", "blwp simulate"),
        "init.kind": ("constant", "blwp simulate"),
        "init.on": ("both", "blwp simulate"),
        "init.mode": ("2", "blwp simulate"),
    },
}


@pytest.mark.parametrize(
    "command, key", [(command, key) for command, keys in UNREAD.items() for key in keys]
)
def test_command_refuses_a_key_it_does_not_read(tmp_path, capsys, command, key):
    value, instead = UNREAD[command][key]
    out = tmp_path / "run"
    code, stdout, err = run_cli(capsys, command, f"--{key}", value, "--output.dir", str(out))
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert err.startswith(f"config error: this command does not read {key}; use {instead}")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sweep.p", "2.0,1.0", "model.p must exceed 1, got 1.0"),
        ("--sweep.b0", "0", "model.b0 must be positive, got 0.0"),
        ("--sweep.n", "1,4", "grid.dim must be 1, 2 or 3, got 4"),
        ("--grid.points", "100", "grid.points must be a power of two >= 2, got 100"),
        ("--grid.half_width", "0", "grid.half_width must be positive or auto, got 0.0"),
        ("--init.radius", "0", "init.radius must be positive, got 0.0"),
    ],
)
def test_sweep_refuses_a_bad_point_before_any_output(tmp_path, capsys, flag, value, message):
    out = tmp_path / "sweep"
    code, stdout, err = run_cli(capsys, "sweep", flag, value, "--output.dir", str(out))
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "model.beta", "nan"),
        ("simulate", "init.amplitude", "nan"),
        ("simulate", "init.amplitude", "inf"),
        ("simulate", "time.t_end", "inf"),
        ("simulate", "grid.half_width", "inf"),
        ("sweep", "sweep.beta", "nan"),
        ("sweep", "sweep.amplitude", "1,-inf"),
    ],
)
def test_a_value_that_is_not_finite_is_refused_before_any_output(tmp_path, capsys, command, key, value):
    out = tmp_path / "run"
    code, stdout, err = run_cli(capsys, command, f"--{key}", value, "--output.dir", str(out))
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert err == f"config error: {key} must be finite, got {value!r} (command line)\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["mode", "constant", "bump"])
def test_an_amplitude_whose_coefficients_overflow_is_refused_before_any_output(
    tmp_path, capsys, kind
):
    # every sample is finite, but the coefficients would overflow: a config
    # error, raised before the output directory is made
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        capsys, "simulate", "--grid.points", "64", "--grid.half_width", "8",
        "--init.kind", kind, "--init.amplitude", "1e308", "--output.dir", str(out),
    )
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert err == "config error: init.amplitude 1e+308 makes the data's coefficients overflow\n"
    assert not out.exists()


def test_a_sweep_point_whose_coefficients_overflow_names_the_sweep_key(tmp_path, capsys):
    # the run key init.amplitude, which blwp sweep refuses, is named by the
    # sweep key that set it
    out = tmp_path / "sweep"
    code, stdout, err = run_cli(capsys, "sweep", "--sweep.amplitude", "1e307", "--output.dir", str(out))
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert err == (
        "config error: sweep point (n, p, beta, b0, amplitude) = (1, 2.0, 0.0, 1.0, 1e+307):"
        " sweep.amplitude 1e+307 makes the data's coefficients overflow\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("dt0, t_end, sign", [("0.01", "0.1", -1.0), ("0.1", "0.5", 1.0)])
def test_report_records_the_fixed_step_margin(tmp_path, capsys, dt0, t_end, sign):
    # dt0^2 K - 2 dt0 b0 K - 4 with K = (16 pi)^2 at N = 256 and L = 8 and
    # b0 = 1e-6: -3.75 at dt0 = 0.01, and +21.3 at 0.1, a step that
    # amplifies the top modes
    out_dir = tmp_path / "run"
    run_cli(
        capsys, "simulate", "--grid.points", "256", "--grid.half_width", "8",
        "--model.b0", "1e-6", "--init.kind", "mode", "--init.mode", "4",
        "--init.amplitude", "0.1", "--time.tol", "0", "--time.dt0", dt0,
        "--time.t_end", t_end, "--output.dir", str(out_dir),
    )
    report = json.loads((out_dir / "report.json").read_text())
    dt, k2 = float(dt0), (16.0 * math.pi) ** 2
    assert report["imex_margin"] == pytest.approx(dt * dt * k2 - 2.0 * dt * 1e-6 * k2 - 4.0, rel=1e-12)
    assert math.copysign(1.0, report["imex_margin"]) == sign
    # an adaptive run has no fixed step, and no margin
    run_cli(capsys, "simulate", "--grid.points", "256", "--grid.half_width", "8", "--model.b0", "1e-6",
            "--init.kind", "mode", "--init.mode", "4", "--init.amplitude", "0.1", "--time.t_end", t_end,
            "--output.dir", str(out_dir), "--force")
    assert json.loads((out_dir / "report.json").read_text())["imex_margin"] is None


def test_sweep_row_is_the_simulate_run(tmp_path, capsys):
    # a sweep point is the simulate run with the point's keys set, so its
    # row holds simulate's numbers bit for bit; at 128 points the bump's
    # spectral tail trips the boundary monitor instead
    run = ("--grid.points", "512", "--grid.half_width", "16", "--time.t_end", "5")
    code, _, _ = run_cli(
        capsys, "simulate", "--init.amplitude", "10", *run, "--output.dir", str(tmp_path / "sim")
    )
    assert code == 10
    code, _, _ = run_cli(
        capsys, "sweep", "--sweep.amplitude", "10", *run, "--output.dir", str(tmp_path / "sweep")
    )
    assert code == 0
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    header, row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["outcome"] == report["outcome"] == "BlowupDetected"
    for key in ("t_stop", "t_star_est", "fit_quality"):
        assert float(cells[key]) == report[key]


def test_slopes_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "slopes",
        "--p", "2", "--n", "1", "--beta", "0", "--d", "1",
        "--Ts", "8,16,32,64",
        "--out", str(tmp_path / "slopes"),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "term,T,value,fitted_slope,predicted_exponent,abs_error"
    assert len(lines) == 1 + 9 * 4
    assert (tmp_path / "slopes" / "slopes.csv").read_text().splitlines()[0] == lines[0]


@pytest.mark.parametrize("powers", [("--ell", "0"), ("--ell", "0", "--eta", "6"), ("--eta", "0")])
def test_slopes_rejects_a_zero_window_power(capsys, powers):
    # a 0 is a value, not a request for the default window
    code, out, err = run_cli(capsys, "slopes", "--Ts", "8,16,32,64", *powers)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "ell and eta must be >= 3" in err


def test_scaling_subcommand(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--beta", "-1", "--lambda", "2", "--resolution", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,resolution,error"
    lam, res, err = lines[1].split(",")
    assert float(err) < 0.05


@pytest.mark.parametrize("lam", ["0.5", "0.75"])
def test_scaling_rejects_lambda_below_one(capsys, lam):
    code, out, err = run_cli(capsys, "scaling", "--lambda", lam, "--resolution", "64")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "lambda" in err and "t_end" not in err and "pullback" not in err


def test_weakcheck_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "weakcheck", "--points", "256", "--nt", "500", "--T", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weak_residual,strong_form,rel_diff"
    assert float(lines[1].split(",")[2]) < 1e-5


def test_simulate_writes_snapshots(tmp_path, capsys):
    out_dir = tmp_path / "snaps"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--init.amplitude", "0.5",
        "--time.t_end", "0.2",
        "--time.tol", "0",
        "--time.dt0", "0.01",
        "--grid.points", "256",
        "--grid.half_width", "8",
        "--output.every", "5",
        "--output.dir", str(out_dir),
    )
    assert code == 0
    snaps = sorted(os.listdir(out_dir / "snapshots"))
    assert "u_000000.blwp" in snaps and "v_000000.blwp" in snaps
    u0 = load_field_binary(out_dir / "snapshots" / "u_000000.blwp")
    assert u0.values.max() == pytest.approx(0.0)  # bump rides on u1 by default

    # the files written as the run goes are those of the kept snapshots
    cfg = default_config()
    apply_overrides(cfg, [
        ("init.amplitude", "0.5"), ("time.t_end", "0.2"), ("time.tol", "0"),
        ("time.dt0", "0.01"), ("grid.points", "256"), ("grid.half_width", "8"),
        ("output.every", "5"),
    ])
    grid = build_grid(cfg)
    report = simulate(build_params(cfg), build_initial_data(cfg, grid), build_controls(cfg))
    assert len(snaps) == 2 * len(report.snapshots) == 2 * 5
    kept = tmp_path / "kept.blwp"
    for i, state in enumerate(report.snapshots):
        for name, field in (("u", state.u), ("v", state.v)):
            save_field_binary(field, kept)
            streamed = out_dir / "snapshots" / f"{name}_{i:06d}.blwp"
            assert streamed.read_bytes() == kept.read_bytes()
    save_field_binary(report.final_state.v, kept)
    assert (out_dir / "final_v.blwp").read_bytes() == kept.read_bytes()


def test_an_even_run_writes_its_kept_snapshots_mirrored(tmp_path, capsys):
    # a 3-D mode on its 9^3 even grid, a snapshot every step: every field
    # file streams through its own slab buffer, and holds the bytes of the
    # kept snapshot mirrored alone, so no field's samples leak into the next
    run = [
        ("grid.dim", "3"), ("grid.points", "16"), ("grid.half_width", "4"),
        ("model.nonlinear", "false"), ("init.kind", "mode"), ("init.on", "both"),
        ("time.tol", "0"), ("time.dt0", "0.0125"), ("time.t_end", "0.1"), ("output.every", "1"),
    ]
    out_dir = tmp_path / "run"
    argv = [token for key, value in run for token in (f"--{key}", value)]
    code, _, _ = run_cli(capsys, "simulate", *argv, "--output.dir", str(out_dir))
    assert code == 0
    cfg = default_config()
    apply_overrides(cfg, run)
    grid = build_grid(cfg)
    report = simulate(build_params(cfg), build_initial_data(cfg, grid), build_controls(cfg))
    assert report.solver_points == (9, 9, 9) and len(report.snapshots) == 9
    assert len(os.listdir(out_dir / "snapshots")) == 2 * 9
    kept = tmp_path / "kept.blwp"
    states = [(f"snapshots/{{}}_{i:06d}", s) for i, s in enumerate(report.snapshots)]
    for name, state in states + [("final_{}", report.final_state)]:
        for field, values in (("u", state.u), ("v", state.v)):
            assert values.grid.even
            save_field_binary(to_full_grid(values), kept)
            assert (out_dir / f"{name.format(field)}.blwp").read_bytes() == kept.read_bytes()


def test_simulate_does_not_hold_its_snapshots(tmp_path, capsys):
    # 32^3 with a snapshot every step: the 41 (u, v) pairs take 20.5 MiB
    argv = [
        "simulate", "--grid.dim", "3", "--grid.points", "32", "--grid.half_width", "8",
        "--model.nonlinear", "false", "--init.kind", "mode", "--time.tol", "0",
        "--time.dt0", "0.025", "--time.t_end", "1", "--output.every", "1",
        "--output.dir", str(tmp_path / "run"),
    ]
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(os.listdir(tmp_path / "run" / "snapshots")) == 2 * 41
    assert peak < 8 * 2**20
