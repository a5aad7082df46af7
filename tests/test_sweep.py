import concurrent.futures
import math
from concurrent.futures import ProcessPoolExecutor

import pytest

from blowuplab.config import build_grid, build_initial_data
from blowuplab.sweep import (
    SWEEP_CSV_COLUMNS,
    SweepConfig,
    format_cell,
    run_sweep,
    sweep_points,
    write_sweep_csv,
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
    # the second config's centred 2-D bumps march on the 129^2 even grid,
    # whose transforms are BLAS products: its serial run marches it here,
    # so the pool forks a process that has already used BLAS
    even = small_config(n_values=(2,), points_per_axis=256, half_width=20.0)
    point = even.point_config(sweep_points(even)[-1])
    assert build_initial_data(point, build_grid(point)).u0.grid.even
    for name, cfg in (("1-d", small_config()), ("2-d", even)):
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        p1 = tmp_path / f"serial-{name}.csv"
        p2 = tmp_path / f"parallel-{name}.csv"
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


def test_pool_is_capped_at_the_number_of_points(monkeypatch):
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    # run_sweep imports the pool class when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    cfg = small_config()
    assert len(sweep_points(cfg)) == 2
    serial = run_sweep(cfg, workers=0)
    assert sizes == []
    assert run_sweep(cfg, workers=3) == serial
    assert sizes == [2]


def test_auto_box_size():
    # a sweep point's box is the one build_grid gives its run config
    cfg = SweepConfig(t_end=50.0, radius=1.0)
    point = next(iter(sweep_points(cfg)))
    assert build_grid(cfg.point_config(point)).half_width == pytest.approx(4.0 * 51.0)
    fixed = SweepConfig(half_width=10.0)
    point = next(iter(sweep_points(fixed)))
    assert build_grid(fixed.point_config(point)).half_width == 10.0
