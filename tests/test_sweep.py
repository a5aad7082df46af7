import math

import pytest

from blowuplab.sweep import (
    SWEEP_CSV_COLUMNS,
    SweepConfig,
    format_cell,
    run_sweep,
    sweep_points,
    write_sweep_csv,
    _worker_cap,
)


def small_config(**overrides):
    base = dict(
        n_values=(1,),
        p_values=(2.0,),
        beta_values=(0.0,),
        amplitudes=(0.0, 0.5),
        points_per_axis=64,
        t_end=1.0,
        half_width=8.0,
        tol=1e-5,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_points_ordering():
    cfg = small_config(p_values=(1.5, 2.0), amplitudes=(1.0, 2.0))
    pts = sweep_points(cfg)
    assert pts == [
        (1, 1.5, 0.0, 1.0, 1.0),
        (1, 1.5, 0.0, 1.0, 2.0),
        (1, 2.0, 0.0, 1.0, 1.0),
        (1, 2.0, 0.0, 1.0, 2.0),
    ]


def test_zero_amplitude_survives_horizon():
    results = run_sweep(small_config(amplitudes=(0.0,)))
    assert len(results) == 1
    r = results[0]
    assert r.outcome == "SurvivedHorizon"
    assert r.mean_u1 == 0.0
    assert r.t_star_est is None
    assert r.verdict_theory == "TheoremBlowup"  # n = 1: threshold is infinite


def test_positive_amplitude_records_velocity_mean():
    results = run_sweep(small_config(amplitudes=(0.5,)))
    assert results[0].mean_u1 > 0.0


def test_failed_point_is_recorded_not_raised():
    # a box too small for the bump trips the data generator per point
    cfg = small_config(amplitudes=(1.0,), half_width=1.5)
    results = run_sweep(cfg)
    assert results[0].outcome == "Error"
    assert math.isnan(results[0].t_stop)
    # the row says why, and that stays out of the CSV columns
    assert results[0].error == "ValueError: bump radius 1.0 too large for box half-width 1.5"
    assert "error" not in SWEEP_CSV_COLUMNS
    assert run_sweep(small_config(amplitudes=(0.5,)))[0].error is None


def test_csv_deterministic_across_worker_counts(tmp_path):
    cfg = small_config()
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=2)
    p1 = tmp_path / "serial.csv"
    p2 = tmp_path / "parallel.csv"
    write_sweep_csv(serial, p1)
    write_sweep_csv(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(SWEEP_CSV_COLUMNS)


def test_format_cell():
    # the one formatter of sweep CSV cells and CLI output
    assert format_cell(None) == ""
    assert format_cell(-math.inf) == "-inf"
    assert format_cell(math.inf) == "inf"
    assert format_cell(math.nan) == "nan"


def test_worker_cap_env(monkeypatch):
    monkeypatch.setenv("BLWP_WORKERS", "2")
    assert _worker_cap(8) == 2
    monkeypatch.delenv("BLWP_WORKERS")
    assert _worker_cap(8) == 8
    assert _worker_cap(0) == 1


def test_auto_box_size():
    cfg = SweepConfig(t_end=50.0, radius=1.0)
    assert cfg.box_half_width() == pytest.approx(4.0 * 51.0)
    assert SweepConfig(half_width=10.0).box_half_width() == 10.0
