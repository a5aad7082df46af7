"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
every tolerance is asserted, so a plain `pytest` run is just as binding.
"""

import math
import time

import numpy as np

from blowuplab.exponents import (
    beta_threshold,
    kato_threshold,
    scaling_d,
    strauss_exponent,
)
from blowuplab.grids import Field, Grid, constant_field
from blowuplab.model import Params, bump_data, constant_data, make_initial_data
from blowuplab.oracles import linear_mode_trajectory
from blowuplab.stepper import Controls, Outcome, simulate
from blowuplab.sweep import SweepConfig, run_sweep
from blowuplab.weakform import (
    TERM_NAMES,
    CutoffSpec,
    manufactured_crosscheck,
    measure_term_slopes,
    predicted_exponents,
    weak_residual,
)
from blowuplab.scaling import invariance_error


def _report(label, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{label} exceeded its runtime budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.1f}s)")


def test_criterion_1_exponent_identities():
    started = time.monotonic()
    for n in range(2, 7):
        p = strauss_exponent(n)
        assert abs((n - 1) * p * p - (n + 1) * p - 2.0) < 1e-10
        assert kato_threshold(n) < p
    for n in range(1, 7):
        kato = kato_threshold(n)
        via_beta = beta_threshold(n, -1.0)
        limit_from_below = (
            (n * 2.0 + 2.0) / (n * 2.0 - 2.0) if n * 2.0 > 2.0 else math.inf
        )
        assert via_beta == kato == limit_from_below
    _report("1 exponent-identities", started, 1.0)


def test_criterion_2_linear_energy_dissipation():
    started = time.monotonic()
    grid = Grid(1, 256, 100.0)
    init = make_initial_data(
        constant_field(grid, 0.0),
        bump_data(grid, 1.0, 0.0, 5.0),
        compact_support=True,
    )
    for beta in (-1.0, 0.0, 1.0):
        params = Params(n=1, p=2.0, beta=beta, b0=1.0, nonlinear=False)
        drifts = []
        for dt in (5e-4, 2.5e-4):
            report = simulate(params, init, Controls(t_end=10.0, dt0=dt, tol=None))
            assert report.outcome is Outcome.COMPLETED_HORIZON
            total = np.array([r.total for r in report.energy_trace])
            dissipated = np.array([r.dissipated_cum for r in report.energy_trace])
            increases = np.diff(total) / np.maximum(total[:-1], 1e-300)
            assert increases.max() <= 1e-9, f"energy grew at beta={beta}, dt={dt}"
            drifts.append(np.abs(total + dissipated - total[0]).max() / total[0])
        assert drifts[0] < 1e-4, f"ledger drift {drifts[0]:.2e} at beta={beta}"
        assert 0.35 < drifts[1] / drifts[0] < 0.65, "drift does not halve with dt"
    _report("2 linear-energy-dissipation", started, 30.0)


def test_criterion_3_ode_reduction_oracle():
    started = time.monotonic()
    grid = Grid(1, 32, 1.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    init = make_initial_data(
        constant_data(grid, 1.0), constant_data(grid, math.sqrt(2.0 / 3.0))
    )
    report = simulate(params, init, Controls(t_end=10.0, dt0=1e-2, tol=1e-6))
    assert report.outcome is Outcome.BLOWUP_DETECTED
    assert report.estimate is not None
    target = math.sqrt(6.0)
    assert abs(report.estimate.t_star - target) < 0.01 * target
    _report("3 ode-reduction-oracle", started, 10.0)


def test_criterion_4_linear_mode_order():
    started = time.monotonic()
    half = math.pi
    grid = Grid(1, 32, half)
    k = math.pi / half
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0, nonlinear=False)
    oracle = linear_mode_trajectory(k, 0.0, 1.0, 1.0, 0.0, [0.0, 5.0])
    profile = np.cos(k * grid.axis())
    errors = []
    init = make_initial_data(Field(grid, profile), constant_field(grid, 0.0))
    for dt in (1e-2, 5e-3, 2.5e-3):
        report = simulate(params, init, Controls(t_end=5.0, dt0=dt, tol=None))
        assert report.outcome is Outcome.COMPLETED_HORIZON
        errors.append(float(np.abs(report.final_state.u.values - oracle.u[-1] * profile).max()))
    for coarse, fine in zip(errors, errors[1:]):
        order = math.log2(coarse / fine)
        assert 0.8 <= order <= 1.2, f"observed order {order:.3f}"
    _report("4 linear-mode-order", started, 30.0)


def test_criterion_5_window_power_laws():
    started = time.monotonic()
    horizons = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    for p, n, beta, d in ((2.0, 1, 0.0, 1.0), (2.0, 2, 0.0, 1.0), (2.0, 1, -3.0, 2.0)):
        params = Params(n=n, p=p, beta=beta)
        table = measure_term_slopes(params, d, horizons)
        for name in TERM_NAMES:
            err = table[name]["abs_error"]
            assert err < 0.05, f"{name} at (p={p}, n={n}, beta={beta}): {err:.3f}"
    # at the threshold exponent the largest window exponent is exactly zero
    for n, beta in ((2, 0.0), (3, 0.0), (2, -1.0), (1, -3.0), (1, -5.0)):
        p_star = beta_threshold(n, beta)
        assert math.isfinite(p_star)
        exps = predicted_exponents(Params(n=n, p=p_star, beta=beta), scaling_d(beta))
        window_terms = [v for k, v in exps.items() if k != "D_data"]
        assert max(window_terms) == 0.0
    _report("5 window-power-laws", started, 120.0)


def test_criterion_6_weak_identity_crosscheck():
    started = time.monotonic()
    T = 4.0
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=T)
    result = manufactured_crosscheck(Grid(1, 256, 8.0), params, spec, nt=2000)
    assert result["rel_diff"] < 1e-6

    residuals = []
    for points, nt in ((128, 1000), (256, 2000)):
        grid = Grid(1, points, 8.0)
        init = make_initial_data(
            bump_data(grid, 0.5, 0.0, 1.0), constant_field(grid, 0.0), compact_support=True
        )
        controls = Controls(
            t_end=T, dt0=T / nt, tol=None, snapshot_every=1, boundary_check=False
        )
        report = simulate(params, init, controls)
        traj = [s.u for s in report.snapshots]
        residuals.append(abs(weak_residual(traj, init.u0, init.u1, spec, params, T)))
    assert residuals[1] < 0.8 * residuals[0]
    _report("6 weak-identity-crosscheck", started, 60.0)


def test_criterion_7_scaling_invariance():
    started = time.monotonic()
    invariant = Params(n=1, p=2.0, beta=-1.0, b0=1.0, nonlinear=False)
    err_512 = invariance_error(invariant, lam=2.0, resolution=512)
    err_1024 = invariance_error(invariant, lam=2.0, resolution=1024)
    assert err_512 < 1e-3
    assert err_1024 < err_512
    control = Params(n=1, p=2.0, beta=0.0, b0=1.0, nonlinear=False)
    assert invariance_error(control, lam=2.0, resolution=512) > 1e-2
    _report("7 scaling-invariance", started, 60.0)


def test_criterion_8_theorem_region_sweep():
    started = time.monotonic()
    shared = dict(
        n_values=(1,),
        beta_values=(0.0,),
        points_per_axis=512,
        t_end=20.0,
    )
    by_p = run_sweep(SweepConfig(p_values=(1.5, 2.0, 3.0), amplitudes=(10.0,), **shared))
    for row in by_p:
        assert row.verdict_theory == "TheoremBlowup"
        assert row.mean_u1 > 0.0
        assert row.outcome == "BlowupDetected"
        assert row.t_stop < 20.0
        assert row.t_star_est is not None

    by_amp = run_sweep(SweepConfig(p_values=(2.0,), amplitudes=(5.0, 10.0, 20.0), **shared))
    stars = [row.t_star_est for row in by_amp]
    assert all(s is not None for s in stars)
    assert stars[0] > stars[1] > stars[2]
    _report("8 theorem-region-sweep", started, 300.0)
