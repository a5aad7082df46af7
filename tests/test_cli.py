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
from blowuplab.grids import load_field_binary, save_field_binary
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
    assert 0.0 < report["dt_min"] <= report["dt_max"] <= 0.5 * 8.0 / 32


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


def test_sweep_subcommand(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--sweep.amplitude", "0.0,0.5",
        "--grid.points", "64",
        "--grid.half_width", "8",
        "--time.t_end", "1.0",
        "--time.tol", "1e-5",
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
    # a box too small for the bump fails every point, each with one line
    argv = [
        "sweep",
        "--sweep.amplitude", "0.0,0.5",
        "--grid.points", "16",
        "--grid.half_width", "1.5",
        "--time.t_end", "0.1",
        "--time.tol", "1e-5",
        "--workers", "1",
    ]
    code, _, err = run_cli(capsys, *argv, "--output.dir", str(tmp_path / "sweep"))
    assert code == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[7] for line in lines[1:]] == ["Error", "Error"]
    assert err.count("\n") == 2
    assert err.splitlines()[0] == (
        "sweep point (n, p, beta, b0, amplitude) = (1, 2.0, 0.0, 1.0, 0.0): "
        "ValueError: bump radius 1.0 too large for box half-width 1.5"
    )


def test_simulate_rejects_fit_points_below_two(tmp_path, capsys):
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
