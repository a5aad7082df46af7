import gc
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from blowuplab import stepper
from blowuplab.grids import (
    Field,
    Grid,
    constant_field,
    from_half_spectrum,
    grad_sq_integral,
    half_k_squared,
    half_spectrum,
    integrate,
    l2_norm,
    linf_norm,
    parseval_weights,
    to_full_grid,
)
from blowuplab.model import Params, bump_data, constant_data, make_initial_data, mode_data
from blowuplab.oracles import linear_mode_trajectory
from blowuplab.stepper import (
    Controls,
    Outcome,
    State,
    detect_blowup,
    simulate,
    write_energy_csv,
)


def zero_init(grid):
    z = constant_field(grid, 0.0)
    return make_initial_data(z, z.copy())


def fixed_run(params, u0, u1, t_end, dt):
    """A fixed-step run of the data u0, u1 to t_end."""
    init = make_initial_data(u0, u1)
    return simulate(params, init, Controls(t_end=t_end, dt0=dt, tol=None))


def test_zero_state_is_fixed_point():
    g = Grid(1, 64, 4.0)
    params = Params(n=1, p=2.0, beta=0.0)
    out = fixed_run(params, constant_field(g, 0.0), constant_field(g, 0.0), 1e-2, 1e-2)
    assert out.accepted == 1
    assert linf_norm(out.final_state.u) == 0.0
    assert linf_norm(out.final_state.v) == 0.0


def test_constant_state_reduces_to_scalar_update():
    g = Grid(1, 64, 4.0)
    a, b, dt = -1.3, 0.4, 1e-2
    # a negative base: without the absolute value, p = 1.7 would give NaN
    for p in (3.0, 1.7):
        params = Params(n=1, p=p, beta=0.5, b0=2.0)
        out = fixed_run(params, constant_field(g, a), constant_field(g, b), dt, dt).final_state
        # flat fields kill every Laplacian, including the implicit solve
        v_expect = b + dt * abs(a) ** p
        u_expect = a + dt * v_expect
        assert np.abs(out.v.values - v_expect).max() < 1e-13
        assert np.abs(out.u.values - u_expect).max() < 1e-13


def test_constant_data_stays_spatially_flat():
    g = Grid(1, 128, 4.0)
    params = Params(n=1, p=2.0, beta=0.0)
    report = fixed_run(params, constant_field(g, 1.0), constant_field(g, 0.5), 0.1, 1e-3)
    assert report.accepted == 100
    u = report.final_state.u.values
    assert u.max() - u.min() < 1e-10 * abs(u.max())


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError, match="dt0"):
        Controls(t_end=1.0, dt0=0.0, tol=None)


def test_single_mode_matches_scalar_oracle_at_first_order():
    L = math.pi
    g = Grid(1, 32, L)
    k = math.pi / L
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    oracle = linear_mode_trajectory(k, 0.0, 1.0, 1.0, 0.0, [0.0, 5.0])
    profile = np.cos(k * g.axis())
    errs = []
    for dt in (1e-2, 5e-3):
        u = fixed_run(params, Field(g, profile), constant_field(g, 0.0), 5.0, dt).final_state.u
        errs.append(np.abs(u.values - oracle.u[-1] * profile).max())
    order = math.log2(errs[0] / errs[1])
    assert 0.8 <= order <= 1.2


def test_simulate_zero_data_completes_with_zero_trace():
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    report = simulate(params, zero_init(g), Controls(t_end=1.0, dt0=1e-2))
    assert report.outcome is Outcome.COMPLETED_HORIZON
    assert report.t_stop == pytest.approx(1.0)
    for r in report.energy_trace:
        assert r.kinetic == r.potential == r.linf == 0.0
    ts = [r.t for r in report.energy_trace]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_simulate_constant_blowup_hits_ode_time():
    g = Grid(1, 32, 1.0)
    params = Params(n=1, p=2.0, beta=0.0)
    init = make_initial_data(constant_data(g, 1.0), constant_data(g, math.sqrt(2.0 / 3.0)))
    controls = Controls(t_end=10.0, dt0=1e-2, tol=1e-5, u_max=1e6, boundary_check=False)
    report = simulate(params, init, controls)
    assert report.outcome is Outcome.BLOWUP_DETECTED
    assert report.estimate is not None
    assert report.estimate.t_star == pytest.approx(math.sqrt(6.0), rel=1e-2)
    assert report.estimate.t_star > report.t_stop
    assert report.estimate.fit_quality > 0.99


def test_linear_energy_ledger_closes_under_refinement():
    # small single-mode run: the balance E + dissipated - E(0) closes to
    # 1e-8 absolute at fine steps and the defect halves with dt
    L = math.pi
    g = Grid(1, 32, L)
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    init = make_initial_data(mode_data(g, 1e-2, 1), constant_field(g, 0.0))
    defects = []
    for dt in (2e-5, 1e-5):
        report = simulate(params, init, Controls(t_end=0.5, dt0=dt, tol=None))
        trace = report.energy_trace
        e0 = trace[0].total
        defects.append(max(abs(r.total + r.dissipated_cum - e0) for r in trace))
    assert defects[1] < 1e-8
    assert defects[1] / defects[0] == pytest.approx(0.5, abs=0.1)


def test_linear_l2_growth_bound():
    g = Grid(1, 256, 30.0)
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    init = make_initial_data(
        bump_data(g, 1.0, 0.0, 1.0), bump_data(g, 2.0, 0.0, 1.0), compact_support=True
    )
    report = simulate(params, init, Controls(t_end=5.0, dt0=1e-3, tol=None))
    e0 = report.energy_trace[0].total
    l2_0 = report.energy_trace[0].l2
    for r in report.energy_trace:
        assert r.l2 <= 1.05 * (l2_0 + r.t * math.sqrt(2.0 * e0))


def test_energy_record_analytic_values():
    g = Grid(1, 256, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    k = math.pi / g.half_width
    report = fixed_run(params, Field(g, np.cos(k * g.axis())), constant_field(g, 0.0), 0.1, 0.1)
    rec = report.energy_trace[0]
    assert rec.kinetic == 0.0
    assert rec.potential == pytest.approx(0.5 * k * k * g.half_width, rel=1e-12)
    assert rec.linf == pytest.approx(1.0)


def test_step_floor_outcome():
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    init = make_initial_data(bump_data(g, 1.0), constant_field(g, 0.0), compact_support=True)
    controls = Controls(t_end=1.0, dt0=1e-2, tol=1e-30)
    report = simulate(params, init, controls)
    assert report.outcome is Outcome.STEP_FLOOR_REACHED


def test_boundary_contamination_outcome():
    g = Grid(1, 128, 2.5)
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    init = make_initial_data(
        constant_field(g, 0.0), bump_data(g, 1.0, 0.0, 1.0), compact_support=True
    )
    report = simulate(params, init, Controls(t_end=5.0, dt0=1e-3))
    assert report.outcome is Outcome.BOUNDARY_CONTAMINATED
    assert report.t_stop < 5.0


def test_boundary_check_defaults_off_for_constant_data():
    g = Grid(1, 32, 1.0)
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    init = make_initial_data(constant_data(g, 1.0), constant_data(g, 0.0))
    report = simulate(params, init, Controls(t_end=0.5, dt0=1e-2))
    assert report.outcome is Outcome.COMPLETED_HORIZON


def test_controls_validation():
    with pytest.raises(ValueError):
        Controls(t_end=1.0, dt0=1e-13)
    with pytest.raises(ValueError):
        Controls(t_end=0.0)
    with pytest.raises(ValueError):
        Controls(t_end=1.0, tol=0.0)
    with pytest.raises(ValueError, match="snapshot_every"):
        Controls(t_end=1.0, on_snapshot=print)
    # an infinite horizon gave a fixed run an OverflowError from its step
    # count and an adaptive linear run no end
    for t_end, tol in ((math.inf, None), (math.inf, 1e-6), (math.nan, None)):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            Controls(t_end=t_end, tol=tol)


def test_exit_codes():
    g = Grid(1, 32, 1.0)
    params = Params(n=1, p=2.0, beta=0.0)
    report = simulate(params, zero_init(g), Controls(t_end=0.1, dt0=1e-2))
    assert report.exit_code == 0


def synthetic_blowup_trace(p=2.0, t_star=3.0, n=200, end=0.999):
    ts = np.linspace(0.0, end * t_star, n)
    linf = (1.0 - ts / t_star) ** (-2.0 / (p - 1.0))
    return ts, linf


def test_detect_blowup_recovers_synthetic_time():
    ts, linf = synthetic_blowup_trace()
    est = detect_blowup(ts, linf, 2.0)
    assert est is not None
    assert est.t_star == pytest.approx(3.0, rel=5e-3)
    assert est.fit_quality > 0.999
    assert est.samples_used == 12
    assert est.t_star > ts[-1]


def test_detect_blowup_rejects_bounded_oscillation():
    ts = np.linspace(0.0, 10.0, 300)
    linf = 60.0 + 50.0 * np.sin(3.0 * ts)
    # plenty of samples above 10x the initial value, but no decay trend in w
    linf[0] = 1.0
    assert detect_blowup(ts, linf, 2.0) is None


def test_detect_blowup_insufficient_samples():
    ts = np.linspace(0.0, 1.0, 30)
    linf = np.ones_like(ts)
    with pytest.raises(ValueError):
        detect_blowup(ts, linf, 2.0)


def test_detect_blowup_handles_nonfinite_tail():
    ts, linf = synthetic_blowup_trace()
    ts = np.append(ts, [3.0, 3.001])
    linf = np.append(linf, [np.inf, np.nan])
    est = detect_blowup(ts, linf, 2.0)
    assert est is not None
    assert est.t_star == pytest.approx(3.0, rel=5e-3)


def test_detect_blowup_nonfinite_without_fit_reports_last_time():
    ts = np.array([0.0, 0.1, 0.2, 0.3])
    linf = np.array([1.0, 2.0, 5.0, np.inf])
    est = detect_blowup(ts, linf, 2.0)
    assert est is not None
    assert est.t_star == pytest.approx(0.2)
    assert est.samples_used == 0


def test_energy_csv_roundtrip(tmp_path):
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    init = make_initial_data(constant_field(g, 0.0), bump_data(g, 1.0))
    report = simulate(params, init, Controls(t_end=0.2, dt0=1e-2))
    path = tmp_path / "trace.csv"
    write_energy_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,kinetic,potential,dissipated_cum,work_cum,linf,l2"
    assert len(lines) == len(report.energy_trace) + 1
    columns = lines[0].split(",")
    for line, record in zip(lines[1:], report.energy_trace):
        assert [float(cell) for cell in line.split(",")] == [getattr(record, c) for c in columns]
    # unlike zero data, the bump's last row has no zero cell
    assert all(float(cell) != 0.0 for cell in lines[-1].split(","))


def test_linear_instability_is_not_reported_as_blowup():
    # dt = 0.2 is far above the explicit wave bound and b0 = 1e-6 barely
    # damps, so the top modes grow; the linear equation itself cannot blow up
    g = Grid(1, 256, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1e-6, nonlinear=False)
    init = make_initial_data(constant_field(g, 0.0), bump_data(g, 1.0))
    controls = Controls(t_end=10.0, dt0=0.2, tol=None, boundary_check=False)
    report = simulate(params, init, controls)
    assert report.outcome is Outcome.NUMERICAL_INSTABILITY
    assert report.exit_code == 40
    assert report.estimate is None
    assert report.energy_trace[-1].linf > controls.u_max


def _mode_four_run(b0, dt0):
    # the CLI's instability reproduction: a mode-4 velocity of amplitude 0.1
    # on N = 256, L = 8, to t = 20; at b0 = 1e-6 an adaptive run at tol
    # 1e-10 blows up at t* = 19.3162
    g = Grid(1, 256, 8.0)
    init = make_initial_data(constant_field(g, 0.0), mode_data(g, 0.1, 4))
    params = Params(n=1, p=2.0, beta=0.0, b0=b0)
    controls = Controls(t_end=20.0, dt0=dt0, tol=None)
    return params, controls, simulate(params, init, controls)


@pytest.mark.parametrize("b0, dt0", [
    (1e-6, 0.04), (1e-6, 0.0405), (1e-6, 0.2), (1e-3, 0.041), (1e-3, 0.15), (1e-3, 0.2),
    (1e-2, 0.06),
])
def test_a_fixed_step_that_amplifies_a_mode_is_no_blowup(b0, dt0):
    # each of these steps breaks dt^2 K - 2 dt b K <= 4; without the bound
    # the first six ended BlowupDetected with a straight fit at a wrong t*,
    # between 2.4 and 13.2, and the last (margin +2.1) with a crooked one,
    # t* = 4.49 at fit_quality 0.81, before its last sample below u_max
    params, controls, report = _mode_four_run(b0, dt0)
    assert stepper._imex_margin(Grid(1, 256, 8.0), params, controls) > 0
    assert report.outcome is Outcome.NUMERICAL_INSTABILITY
    assert report.exit_code == 40
    assert report.estimate is None


@pytest.mark.parametrize("b0, dt0", [(1e-6, 0.0395), (1e-3, 0.0405), (1e-2, 0.05)])
def test_a_fixed_step_within_the_bound_keeps_its_blowup(b0, dt0):
    params, controls, report = _mode_four_run(b0, dt0)
    assert stepper._imex_margin(Grid(1, 256, 8.0), params, controls) <= 0
    assert report.outcome is Outcome.BLOWUP_DETECTED
    assert 19.3 < report.estimate.t_star < 19.9


def test_the_fixed_step_margin_takes_the_least_damping():
    # K = (16 pi)^2 at N = 256 and L = 8; dt0 = 0.04 and 0.0395 at
    # b0 = 1e-6 sit on either side of the bound
    g = Grid(1, 256, 8.0)
    k2 = float(half_k_squared(g).max())
    assert k2 == pytest.approx((16.0 * math.pi) ** 2)
    weak = Params(n=1, p=2.0, beta=0.0, b0=1e-6)
    for dt0, margin in ((0.04, 0.042), (0.0395, -0.058)):
        controls = Controls(t_end=20.0, dt0=dt0, tol=None)
        assert stepper._imex_margin(g, weak, controls) == pytest.approx(margin, abs=1e-3)
    # b0 (1+t)^(-beta) is least at t_end for beta > 0 and at dt0 for beta < 0
    controls = Controls(t_end=20.0, dt0=0.01, tol=None)
    for beta, t_least in ((1.0, 20.0), (-1.0, 0.01)):
        b = 1.0 * (1.0 + t_least) ** (-beta)
        expected = 0.01**2 * k2 - 2.0 * 0.01 * b * k2 - 4.0
        params = Params(n=1, p=2.0, beta=beta, b0=1.0)
        assert stepper._imex_margin(g, params, controls) == pytest.approx(expected, rel=1e-12)
    # a horizon shorter than dt0 is one step of that length
    short = Controls(t_end=0.02, dt0=0.04, tol=None)
    assert stepper._imex_margin(g, weak, short) == pytest.approx(
        0.02**2 * k2 - 2.0 * 0.02 * 1e-6 * k2 - 4.0, rel=1e-12
    )


def test_nonfinite_fixed_step_keeps_last_finite_state():
    g = Grid(1, 256, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1e-6, nonlinear=False)
    init = make_initial_data(constant_field(g, 0.0), bump_data(g, 1.0))
    controls = Controls(t_end=1000.0, dt0=0.2, tol=None, boundary_check=False, u_max=math.inf)
    # the overflow on the way to a non-finite state stays out of sight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulate(params, init, controls)
    assert report.outcome is Outcome.NUMERICAL_INSTABILITY
    assert report.t_stop < controls.t_end
    final = report.final_state
    assert np.isfinite(final.u.values).all() and np.isfinite(final.v.values).all()
    assert final.t == report.t_stop == report.energy_trace[-1].t
    assert linf_norm(final.u) == report.energy_trace[-1].linf


def _no_step_cases():
    # a fixed run whose first step is not finite, and an adaptive one that
    # reaches the step floor at t = 0
    g = Grid(1, 64, 8.0)
    huge = make_initial_data(constant_field(g, 1e200), bump_data(g, 1.0))
    bump = make_initial_data(bump_data(g, 1.0), constant_field(g, 0.0), compact_support=True)
    return [
        pytest.param(None, huge, Outcome.BLOWUP_DETECTED, id="fixed"),
        pytest.param(1e-30, bump, Outcome.STEP_FLOOR_REACHED, id="adaptive"),
    ]


@pytest.mark.parametrize("tol, init, outcome", _no_step_cases())
def test_a_run_that_keeps_no_step_returns_its_initial_data(tol, init, outcome):
    params = Params(n=1, p=2.0, beta=0.0)
    controls = Controls(t_end=1.0, dt0=1e-2, tol=tol, u_max=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulate(params, init, controls)
    assert report.outcome is outcome
    assert len(report.energy_trace) == 1 and report.accepted == 0
    final = report.final_state
    assert final.t == report.t_stop == 0.0
    assert final.u.values.tobytes() == init.u0.values.tobytes()
    assert final.v.values.tobytes() == init.u1.values.tobytes()


@pytest.mark.parametrize("nonlinear", [False, True])
@pytest.mark.parametrize("tol", [None, 1e-6], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_data_are_refused(bad, tol, nonlinear):
    # one bad velocity sample once ended a fixed nonlinear run BlowupDetected
    # at t = 0, a fixed linear one NumericalInstability and an adaptive one
    # StepFloorReached after 34 rejected attempts
    g = Grid(1, 64, 8.0)
    u1 = bump_data(g, 1.0).values.copy()
    u1[20] = bad
    init = make_initial_data(bump_data(g, 1.0), Field(g, u1))
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=nonlinear)
    with pytest.raises(ValueError, match="not finite"):
        simulate(params, init, Controls(t_end=1.0, dt0=1e-2, tol=tol))


def test_fixed_step_time_comes_from_step_index():
    # 10 / 2.5e-4 is 40000 in exact arithmetic; accumulating t in floating
    # point used to leave a 6e-13 sliver step and a near-duplicate row
    g = Grid(1, 8, 1.0)
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    report = simulate(params, zero_init(g), Controls(t_end=10.0, dt0=2.5e-4, tol=None))
    assert len(report.energy_trace) == 40001
    assert report.t_stop == report.energy_trace[-1].t == 10.0
    steps = np.diff([r.t for r in report.energy_trace])
    assert steps.min() > 0.999 * 2.5e-4


def test_fixed_step_remainder_is_one_short_step():
    g = Grid(1, 8, 1.0)
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    report = simulate(params, zero_init(g), Controls(t_end=0.25, dt0=0.1, tol=None))
    assert [r.t for r in report.energy_trace] == [0.0, 0.1, 0.2, 0.25]


def _spectral_ledger_cases():
    g1 = Grid(1, 128, 8.0)
    init1 = make_initial_data(bump_data(g1, 0.5, 0.3, 2.0), bump_data(g1, 1.0, -0.2, 1.5))
    g3 = Grid(3, 16, 6.0)
    init3 = make_initial_data(bump_data(g3, 0.5, 0.0, 2.5), mode_data(g3, 0.3, 1))
    return [
        (Params(n=1, p=2.0, beta=0.5), init1, Controls(t_end=0.5, dt0=1e-2, tol=None)),
        (Params(n=1, p=3.0, beta=-1.0), init1, Controls(t_end=0.5, dt0=1e-2, tol=1e-6)),
        (Params(n=3, p=2.0, beta=1.0), init3, Controls(t_end=0.25, dt0=1e-2, tol=None)),
    ]


@pytest.mark.parametrize("params, init, controls", _spectral_ledger_cases())
def test_spectral_ledger_matches_public_functions(params, init, controls):
    report = simulate(params, init, controls)
    assert report.outcome is Outcome.COMPLETED_HORIZON
    last = report.energy_trace[-1]
    final = report.final_state
    again = _energy(final.t, final.u, _row(final.u, final.v), params)
    for name, value in zip(("t", "kinetic", "potential", "linf", "l2"), again):
        assert getattr(last, name) == pytest.approx(value, rel=1e-12, abs=0.0)
    # and against the sample-space quadratures
    kinetic = 0.5 * integrate(Field(final.grid, final.v.values**2))
    assert last.kinetic == pytest.approx(kinetic, rel=1e-12)
    assert last.potential == pytest.approx(0.5 * grad_sq_integral(final.u), rel=1e-12)
    assert last.l2 == pytest.approx(l2_norm(final.u), rel=1e-12)
    assert last.linf == linf_norm(final.u)


def _count_calls(monkeypatch, name):
    """Record each call of stepper's function `name` as (positional
    arguments, result)."""
    calls = []
    real = getattr(stepper, name)

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(stepper, name, counted)
    return calls


def test_fixed_mode_calls_step_once_per_step(monkeypatch):
    # a fixed-step run marches its ring through the step kernel directly
    calls = _count_calls(monkeypatch, "_imex")
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    init = make_initial_data(bump_data(g, 1.0), constant_field(g, 0.0))
    report = simulate(params, init, Controls(t_end=1.0, dt0=1e-2, tol=None))
    assert len(calls) == len(report.energy_trace) - 1 == 100


@pytest.mark.parametrize("nonlinear", [False, True])
def test_a_marched_step_writes_in_place(nonlinear):
    # the kernel writes the new row over its factors: only dt * src, with a
    # source, is a new coefficient array
    g = Grid(3, 32, 6.0)
    u, v = _row(bump_data(g, 1.0, radius=2.0), bump_data(g, 0.5, radius=1.5))
    src = u.copy() if nonlinear else None
    row = np.empty((2,) + u.shape, u.dtype)
    stepper._factors([1e-2], [1e-2], half_k_squared(g), row[np.newaxis])
    tracemalloc.start()
    try:
        stepper._imex(u, v, src, row[1], row[0], 1e-2, *row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1.1 if nonlinear else 0.1) * u.nbytes


def _full_grid_only(monkeypatch):
    """March even 2-D and 3-D data on their full grid, as data that are
    not even do, rather than on the even grid of `stepper._solver_grid`."""
    monkeypatch.setattr(stepper, "_solver_grid", lambda init: init.u0.grid)


def _fixed_run_peak(dim, points):
    """The traced peak of a linear fixed-step run of centred bumps, in
    coefficient arrays of the full grid."""
    g = Grid(dim, points, 6.0)
    params = Params(n=dim, p=2.0, beta=0.0, nonlinear=False)
    init = make_initial_data(bump_data(g, 1.0, radius=2.0), bump_data(g, 0.5, radius=1.5))
    controls = Controls(t_end=0.1, dt0=1e-2, tol=None, boundary_check=False)
    simulate(params, init, controls)  # the grid's caches
    tracemalloc.start()
    try:
        simulate(params, init, controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * half_k_squared(g).size)


@pytest.mark.parametrize("dim, points, bound", [(3, 32, 2.6), (1, 4096, 18.5)])
def test_a_fixed_run_holds_no_spare_arrays(dim, points, bound):
    # neither the initial coefficients, once copied into the ring, nor the
    # samples the ledger builds for a linear block outlive their use; the
    # initial samples are not copied, the step factors live in the ring and
    # the ledger squares into one scratch: 18.17 coefficient arrays at
    # N = 4096, and the bound leaves about 0.3 of one; the 32^3 data are
    # even and march on the 17^3 even grid's float64 coefficients, 1.37
    # arrays, the final state on that grid among them (see the next test
    # for the full grid)
    assert _fixed_run_peak(dim, points) <= bound


def test_a_full_grid_3d_run_holds_no_spare_arrays(monkeypatch):
    # the 32^3 case above on its full grid, as data that are not even
    # march: 6.02 coefficient arrays
    _full_grid_only(monkeypatch)
    assert _fixed_run_peak(3, 32) <= 6.3


def test_a_large_even_block_is_squared_field_by_field(monkeypatch):
    # a 64^3 run's one-row blocks pass LEDGER_BLOCK_BYTES as complex rows,
    # so the ledger squares them a field at a time, into a scratch of one
    # column of its even grid's float64 coefficients, and agrees with the
    # run of the same data on the full grid
    g = Grid(3, 64, 8.0)
    params = Params(n=3, p=2.0, beta=0.0, nonlinear=False)
    init = make_initial_data(mode_data(g, 0.5, 3), mode_data(g, 0.2, 1))
    controls = Controls(t_end=4 / 64, dt0=1 / 64, tol=None, boundary_check=False)
    squared = []
    columns = stepper._columns

    def spy(coeffs):
        squared.append((coeffs.shape, coeffs.dtype))
        return columns(coeffs)

    with monkeypatch.context() as m:
        m.setattr(stepper, "_columns", spy)
        even = simulate(params, init, controls)
    assert even.solver_points == (33, 33, 33) and even.accepted == 4
    assert ((33, 33, 33), np.float64) in squared
    _full_grid_only(monkeypatch)
    full = simulate(params, init, controls)
    assert len(even.energy_trace) == len(full.energy_trace) == 5
    for column in stepper.ENERGY_CSV_COLUMNS:
        got = np.array([getattr(r, column) for r in even.energy_trace])
        want = np.array([getattr(r, column) for r in full.energy_trace])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), column
    for a, b in ((even.final_state.u, full.final_state.u), (even.final_state.v, full.final_state.v)):
        a = to_full_grid(a)
        assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()


def test_a_hooked_fixed_run_holds_no_snapshot():
    # a hook that reads u and v and keeps nothing: no snapshot outlives its
    # hook, so the peak does not grow with their number (6.9 coefficient
    # arrays for 6 or 31 snapshots on the full grid, 1.5 on the even grid
    # these data march on, where the snapshots stay)
    g = Grid(3, 32, 6.0)
    params = Params(n=3, p=2.0, beta=0.0, nonlinear=False)
    init = make_initial_data(bump_data(g, 1.0, radius=2.0), bump_data(g, 0.5, radius=1.5))
    seen = []

    def read(state):
        seen.append(linf_norm(state.u) + linf_norm(state.v))

    peaks = []
    for t_end in (0.05, 0.3):
        controls = Controls(t_end=t_end, dt0=1e-2, tol=None, boundary_check=False,
                            snapshot_every=1, on_snapshot=read)
        simulate(params, init, controls)  # the grid's caches
        tracemalloc.start()
        try:
            simulate(params, init, controls)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(seen) == 2 * (6 + 31)
    array = 16 * half_k_squared(g).size
    assert peaks[1] <= peaks[0] + 0.1 * array
    assert max(peaks) <= 7.2 * array


def _rejecting_case():
    # constant data does not see the box; the first attempts, at dt0 = 1,
    # fail the tight tolerance
    g = Grid(1, 8, 100.0)
    params = Params(n=1, p=2.0, beta=0.0)
    init = make_initial_data(constant_data(g, 1.0), constant_data(g, math.sqrt(2.0 / 3.0)))
    return params, init, Controls(t_end=1.0, dt0=1.0, tol=1e-8, boundary_check=False)


def _mode_flows(k2, d, b):
    """The 2 x 2 flow over d of (u, v)' = (v, -k^2 u - b k^2 v) for each k^2
    in k2, by scipy's expm, apart from the solver's closed form."""
    a = np.zeros((k2.size, 2, 2))
    a[:, 0, 1] = 1.0
    a[:, 1, 0] = -k2
    a[:, 1, 1] = -b * k2
    return expm(d * a)


def test_half_flows_hold_at_k_zero_and_critical_damping():
    # at b k = 2 the damping is critical, and there and at k = 0 the closed
    # form's r vanishes; next to them it is small
    k2 = np.array([0.0, 1e-12, 4.0 * (1 - 1e-9), 4.0, 4.0 * (1 + 1e-9), 2.5, 100.0, 1e4])
    for d in (1e-3, 0.1):
        m11, m22, m12, m21 = stepper._half_flows([d], [1.0], k2)[0]
        got = np.stack([np.stack([m11, m12], -1), np.stack([m21, m22], -1)], -2)
        want = _mode_flows(k2, d, 1.0)
        # expm itself is off by 1e-14 on the stiffest mode, d b k^2 = 1000
        assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * np.abs(want).max(axis=(1, 2))).all()


def _reference_attempt(t, row, grid, params, dt):
    """An adaptive attempt as the module docstring defines it: Strang chains
    of 1, 2 and 3 substeps from the state at time t of coefficients
    row = (u_hat, v_hat), each a half-step of the linear flow with b at its
    midpoint, a kick by the source and another half-step; Aitken-Neville in
    h^2 on their coefficients; and the relative sup-norm gap between T[3,3]
    and T[3,2].  Returns T[3,3] as (u_hat, v_hat) and the gap."""
    shape = row[0].shape
    k2 = half_k_squared(grid).ravel()
    table = []
    for j, n in enumerate((1, 2, 3)):
        h = dt / n
        y = np.stack((row[0].ravel(), row[1].ravel()), axis=-1)
        for i in range(n):
            for at in (0.25, 0.75):
                flow = _mode_flows(k2, 0.5 * h, stepper.damping_coeff(t + (i + at) * h, params))
                y = np.einsum("mij,mj->mi", flow, y)
                if at == 0.25 and params.nonlinear:
                    u = from_half_spectrum(y[:, 0].reshape(shape), grid)
                    y[:, 1] += h * half_spectrum(np.abs(u) ** params.p, grid).ravel()
        entries = [np.stack((y[:, 0].reshape(shape), y[:, 1].reshape(shape)))]
        for k in range(1, j + 1):
            ratio = (n / (j - k + 1)) ** 2 - 1.0
            entries.append(entries[k - 1] + (entries[k - 1] - table[j - 1][k - 1]) / ratio)
        table.append(entries)
    high, low = table[2][2], table[2][1]
    hu, hv, lu, lv = from_half_spectrum(np.concatenate((high, low)), grid)
    scale = max(np.abs(hu).max(), np.abs(hv).max(), 1e-30)
    return high, max(np.abs(hu - lu).max(), np.abs(hv - lv).max()) / scale


def _row(*fields):
    """The `half_spectrum` coefficients of sample fields, as a ledger row
    holds them."""
    return tuple(half_spectrum(f.values, f.grid) for f in fields)


def _assert_attempt_is_the_reference(t, row, grid, params, dt, attempt):
    (u_hat, v_hat), u, err = attempt
    high, gap = _reference_attempt(t, row, grid, params, dt)
    scale = np.abs(high).max()
    assert np.abs(u_hat - high[0]).max() <= 1e-12 * scale
    assert np.abs(v_hat - high[1]).max() <= 1e-12 * scale
    # a gap between orders six and four, of nearly equal results
    assert err == pytest.approx(gap, rel=1e-6, abs=1e-13)
    # the samples the monitors read are those of the coefficients
    assert u.tobytes() == from_half_spectrum(u_hat, grid).tobytes()


def _attempt_cases():
    cases = []
    for dim, points, half in ((1, 64, 8.0), (2, 32, 6.0), (3, 16, 4.0)):
        g = Grid(dim, points, half)
        u0, u1 = bump_data(g, 1.5, 0.2, 1.5), mode_data(g, 0.4, 1)
        for nonlinear in (False, True):
            # beta = -1: b grows inside an attempt, so each half-step's b counts
            params = Params(n=dim, p=3.0 if dim == 2 else 2.0, beta=-1.0, b0=0.8,
                            nonlinear=nonlinear)
            cases.append(pytest.param(params, g, 0.3, _row(u0, u1), id=f"{dim}d-{nonlinear}"))
    return cases


@pytest.mark.parametrize("params, grid, t, row", _attempt_cases())
def test_attempt_equals_aitken_neville_of_public_step_chains(params, grid, t, row):
    for dt in (0.05, 1e-2 / 3):
        attempt = stepper._extrapolated_step(t, row, grid, params, dt)
        _assert_attempt_is_the_reference(t, row, grid, params, dt, attempt)
    # and again from the accepted state, whose coefficients view its stack
    t, new = t + dt, attempt[0]
    again = stepper._extrapolated_step(t, new, grid, params, 0.02)
    _assert_attempt_is_the_reference(t, new, grid, params, 0.02, again)


def test_adaptive_attempt_extrapolates_three_chains_of_step(monkeypatch):
    calls = _count_calls(monkeypatch, "_extrapolated_step")
    params, init, controls = _rejecting_case()
    report = simulate(params, init, controls)
    assert report.outcome is Outcome.COMPLETED_HORIZON
    starts = []
    for (t, row, grid, _, dt), attempt in calls:
        # each attempt is Aitken-Neville over Strang chains
        _assert_attempt_is_the_reference(t, row, grid, params, dt, attempt)
        starts.append((t, row))
    # a rejected attempt is retried from the same row and adds no ledger row
    rejected = sum(a is b for (_, a), (_, b) in zip(starts, starts[1:]))
    assert rejected == report.rejected > 0
    assert len(report.energy_trace) - 1 == report.accepted == len(starts) - rejected
    assert [r.t for r in report.energy_trace[:-1]] == list(dict.fromkeys(t for t, _ in starts))
    # the step statistics cover the accepted steps only
    steps = np.diff([r.t for r in report.energy_trace])
    assert report.dt_min == pytest.approx(steps.min(), rel=1e-12)
    assert report.dt_max == pytest.approx(steps.max(), rel=1e-12)
    assert report.dt_min < report.dt_max < controls.dt0


@pytest.mark.parametrize("nonlinear", [False, True])
def test_an_adaptive_attempt_holds_at_most_26_coefficient_arrays(nonlinear):
    g = Grid(3, 32, 6.0)
    params = Params(n=3, p=2.0, beta=0.0, nonlinear=nonlinear)
    row = _row(bump_data(g, 1.0, radius=2.0), bump_data(g, 0.5, radius=1.5))
    stepper._extrapolated_step(0.0, row, g, params, 1e-2)  # the grid's caches
    tracemalloc.start()
    try:
        stepper._extrapolated_step(0.0, row, g, params, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26.0 * row[0].nbytes


def test_extrapolated_attempt_is_sixth_order():
    # the space-free reduction u'' = u^2, from a state on its exact solution
    g = Grid(1, 8, 1.0)
    params = Params(n=1, p=2.0, beta=0.0)

    def exact(t):
        return 6.0 / (math.sqrt(6.0) - t) ** 2, 12.0 / (math.sqrt(6.0) - t) ** 3

    t0 = 1.0
    errors = []
    for dt in (0.1, 0.05, 0.025):
        u, v = exact(t0)
        start = _row(constant_field(g, u), constant_field(g, v))
        (_, v_hat), u, _ = stepper._extrapolated_step(t0, start, g, params, dt)
        u_end, v_end = exact(t0 + dt)
        v = from_half_spectrum(v_hat, g)
        errors.append(max(np.abs(u - u_end).max(), np.abs(v - v_end).max()))
    # the local error of a sixth-order step shrinks as dt^7
    for coarse, fine in zip(errors, errors[1:]):
        assert 6.5 <= math.log2(coarse / fine) <= 7.5


def test_adaptive_space_free_run_takes_few_steps():
    g = Grid(1, 32, 1.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    init = make_initial_data(constant_data(g, 1.0), constant_data(g, math.sqrt(2.0 / 3.0)))
    report = simulate(params, init, Controls(t_end=10.0, dt0=1e-2, tol=1e-6))
    assert report.outcome is Outcome.BLOWUP_DETECTED
    assert report.accepted < 300
    assert abs(report.estimate.t_star - math.sqrt(6.0)) < 1e-5


def _top_third_energy_share(state):
    g = state.grid
    k2 = half_k_squared(g)
    density = parseval_weights(g) * (
        np.abs(half_spectrum(state.v.values, g)) ** 2
        + k2 * np.abs(half_spectrum(state.u.values, g)) ** 2
    )
    return density[k2 > (2.0 / 3.0) ** 2 * k2.max()].sum() / density.sum()


def test_weakly_damped_adaptive_run_stays_stable():
    # b k^2 is small at the top of the spectrum, and tol alone sizes the
    # steps, up to hundreds of times the spacing in the 39 this run takes;
    # the exact flows amplify no mode, so the top modes must still decay
    g = Grid(1, 256, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1e-3, nonlinear=False)
    init = make_initial_data(constant_field(g, 0.0), bump_data(g, 1.0, 0.0, 2.0))
    controls = Controls(t_end=200.0, boundary_check=False, snapshot_every=1)
    report = simulate(params, init, controls)
    assert report.outcome is Outcome.COMPLETED_HORIZON
    totals = np.array([r.total for r in report.energy_trace])
    assert (np.diff(totals) <= 0.0).all()
    for snap in report.snapshots + [report.final_state]:
        if snap.t >= 10.0:
            assert _top_third_energy_share(snap) < 1e-10


@pytest.mark.parametrize("b0", [1e-8, 1e-5, 1e-3, 1e-1])
def test_stable_step_keeps_every_mode_from_growing(b0):
    # a linear attempt amplifies no mode, however long, however weak the
    # damping, and whether b is constant or grows inside the attempt: its
    # chains are the exact flows
    g = Grid(1, 64, 8.0)
    k2 = half_k_squared(g)
    # the attempt is linear and mode-wise: two unit starts give each
    # mode's 2 x 2 amplification matrix
    ones = np.ones(k2.shape, dtype=complex)
    zeros = np.zeros_like(ones)
    for beta in (0.0, -1.0, -3.0):
        params = Params(n=1, p=2.0, beta=beta, b0=b0, nonlinear=False)
        for t in (0.0, 5.0):
            for spacings in (0.5, 4.0, 64.0):
                dt = spacings * g.spacing
                from_u = stepper._extrapolated_step(t, (ones, zeros), g, params, dt)[0]
                from_v = stepper._extrapolated_step(t, (zeros, ones), g, params, dt)[0]
                amp = np.moveaxis(np.array([[from_u[0], from_v[0]], [from_u[1], from_v[1]]]), -1, 0)
                assert np.abs(np.linalg.eigvals(amp)).max() <= 1.0 + 1e-12


def test_tol_alone_sizes_the_steps_of_a_fine_grid():
    # 1-D, L = 16, a bump of amplitude 10 on u1, p = 2: at N = 8192 a step
    # cap of half the spacing took 1,140 steps, where tol takes 155, the
    # count it takes at N = 2048
    g = Grid(1, 8192, 16.0)
    init = make_initial_data(constant_field(g, 0.0), bump_data(g, 10.0), compact_support=True)
    params = Params(n=1, p=2.0, beta=0.0)
    report = simulate(params, init, Controls(t_end=10.0, tol=1e-6, boundary_check=False))
    assert report.outcome is Outcome.BLOWUP_DETECTED
    assert report.accepted <= 200
    assert report.estimate.t_star == pytest.approx(2.1127521, rel=1e-7)


def test_step_statistics_of_a_fixed_run():
    g = Grid(1, 8, 1.0)
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    report = simulate(params, zero_init(g), Controls(t_end=1.0, dt0=0.125, tol=None))
    assert (report.accepted, report.rejected) == (8, 0)
    assert report.dt_min == report.dt_max == 0.125


def _rows(report):
    return [
        (r.t, r.kinetic, r.potential, r.dissipated_cum, r.work_cum, r.linf, r.l2)
        for r in report.energy_trace
    ]


def _one_row_blocks(monkeypatch):
    # a budget below one row: every step's ledger is computed on its own, as
    # a per-step check would
    monkeypatch.setattr(stepper, "LEDGER_BLOCK_BYTES", 1)


def _block_cases():
    g = Grid(1, 256, 100.0)
    linear = make_initial_data(
        constant_field(g, 0.0), bump_data(g, 1.0, 0.0, 5.0), compact_support=True
    )
    g1 = Grid(1, 128, 8.0)
    bumps = make_initial_data(bump_data(g1, 0.5, 0.3, 2.0), bump_data(g1, 1.0, -0.2, 1.5))
    return [
        (Params(n=1, p=2.0, beta=1.0, nonlinear=False), linear,
         Controls(t_end=0.25, dt0=5e-4, tol=None, snapshot_every=7)),
        (Params(n=1, p=3.0, beta=0.5), bumps,
         Controls(t_end=0.5, dt0=2e-3, tol=None, snapshot_every=7)),
    ]


@pytest.mark.parametrize("params, init, controls", _block_cases())
def test_ledger_does_not_depend_on_the_block_size(monkeypatch, tmp_path, params, init, controls):
    blocked = simulate(params, init, controls)
    write_energy_csv(blocked, tmp_path / "blocked.csv")
    _one_row_blocks(monkeypatch)
    single = simulate(params, init, controls)
    write_energy_csv(single, tmp_path / "single.csv")
    assert blocked.outcome is single.outcome is Outcome.COMPLETED_HORIZON
    assert _rows(blocked) == _rows(single)
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()
    assert len(blocked.snapshots) == len(single.snapshots) > 2
    kept = zip(blocked.snapshots + [blocked.final_state], single.snapshots + [single.final_state])
    for a, b in kept:
        assert a.t == b.t
        assert np.array_equal(a.u.values, b.u.values) and np.array_equal(a.v.values, b.v.values)


def _trip_cases():
    # each run stops inside a block of the default size
    g = Grid(1, 32, 1.0)
    flat = make_initial_data(constant_data(g, 1.0), constant_data(g, math.sqrt(2.0 / 3.0)))
    g_shell = Grid(1, 128, 2.5)
    spreading = make_initial_data(
        constant_field(g_shell, 0.0), bump_data(g_shell, 1.0, 0.0, 1.0), compact_support=True
    )
    g_wild = Grid(1, 256, 8.0)
    unstable = make_initial_data(constant_field(g_wild, 0.0), bump_data(g_wild, 1.0))
    return [
        ("u_max", Params(n=1, p=2.0, beta=0.0), flat,
         Controls(t_end=10.0, dt0=1e-3, tol=None, u_max=1e6, boundary_check=False,
                  snapshot_every=100),
         Outcome.BLOWUP_DETECTED),
        # a stride of one snapshots the tripping row
        ("shell", Params(n=1, p=2.0, beta=0.0, nonlinear=False), spreading,
         Controls(t_end=5.0, dt0=1e-3, tol=None, snapshot_every=1),
         Outcome.BOUNDARY_CONTAMINATED),
        ("non-finite", Params(n=1, p=2.0, beta=0.0, b0=1e-6, nonlinear=False), unstable,
         Controls(t_end=1000.0, dt0=0.2, tol=None, boundary_check=False, u_max=math.inf,
                  snapshot_every=7),
         Outcome.NUMERICAL_INSTABILITY),
    ]


@pytest.mark.parametrize("trip, params, init, controls, outcome", _trip_cases())
def test_monitor_trip_inside_a_block(monkeypatch, trip, params, init, controls, outcome):
    calls = _count_calls(monkeypatch, "_imex")
    blocked = simulate(params, init, controls)
    taken = len(calls)
    rows = stepper._block_rows(init.u0.grid)
    assert blocked.accepted % rows not in (0, rows - 1)
    streamed, seen = _streamed_run(params, init, controls)
    _assert_same_run(streamed, blocked)
    _assert_same_snapshots(seen, blocked.snapshots)
    if controls.snapshot_every == 1:
        assert seen[-1].t == blocked.t_stop  # the tripping row, and none after it
    _one_row_blocks(monkeypatch)
    single = simulate(params, init, controls)
    for report in (blocked, single):
        assert report.outcome is outcome
        assert len(report.energy_trace) == report.accepted + 1
        assert report.t_stop == report.energy_trace[-1].t == report.final_state.t
    assert blocked.t_stop == single.t_stop and blocked.accepted == single.accepted
    assert (blocked.dt_min, blocked.dt_max) == (single.dt_min, single.dt_max)
    assert _rows(blocked) == _rows(single)
    assert [s.t for s in blocked.snapshots or ()] == [s.t for s in single.snapshots or ()]
    assert np.array_equal(blocked.final_state.u.values, single.final_state.u.values)
    assert np.array_equal(blocked.final_state.v.values, single.final_state.v.values)
    last = blocked.energy_trace[-1]
    if trip == "u_max":
        # the tripping row is kept, and it is the first one above u_max
        assert last.linf > controls.u_max
        assert max(r.linf for r in blocked.energy_trace[:-1]) <= controls.u_max
        # the state's samples, built for its source, end the block at once
        assert taken <= blocked.accepted + 1
    elif trip == "shell":
        u = blocked.final_state.u.values
        shell = stepper.boundary_shell_mask(init.u0.grid)
        assert np.abs(u[shell]).max() > 1e-6 * last.linf
    else:
        # the last finite state is final; the next step is the dropped row
        final = blocked.final_state
        assert np.isfinite(final.u.values).all() and np.isfinite(final.v.values).all()
        restart = make_initial_data(final.u, final.v)
        after = simulate(params, restart, replace(controls, t_end=controls.dt0, snapshot_every=None))
        assert (after.outcome, after.accepted) == (Outcome.NUMERICAL_INSTABILITY, 0)


def _streamed_run(params, init, controls):
    """A run whose snapshots go to a hook, and the snapshots it was given."""
    seen = []
    report = simulate(params, init, replace(controls, on_snapshot=seen.append))
    assert report.snapshots is None
    return report, seen


def _assert_same_run(a, b):
    assert (a.outcome, a.t_stop, a.accepted, a.rejected) == (b.outcome, b.t_stop, b.accepted, b.rejected)
    assert _rows(a) == _rows(b)
    _assert_same_snapshots([a.final_state], [b.final_state])


def _assert_same_snapshots(seen, kept):
    assert len(seen) == len(kept)
    for a, b in zip(seen, kept):
        assert a.t == b.t
        assert a.u.values.tobytes() == b.u.values.tobytes()
        assert a.v.values.tobytes() == b.v.values.tobytes()


def test_on_snapshot_hook_sees_the_snapshots_of_an_adaptive_run():
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    init = make_initial_data(bump_data(g, 2.0, 0.0, 2.0), bump_data(g, 1.0, 0.5, 1.5))
    # a first trial step of 0.1 fails the tolerance, so that rejected
    # attempts fall between the snapshots
    controls = Controls(t_end=10.0, dt0=0.1, tol=1e-6, u_max=1e5, snapshot_every=3)
    kept = simulate(params, init, controls)
    assert kept.outcome is Outcome.BLOWUP_DETECTED and kept.rejected > 0
    assert len(kept.snapshots) > 10
    streamed, seen = _streamed_run(params, init, controls)
    _assert_same_run(streamed, kept)
    _assert_same_snapshots(seen, kept.snapshots)
    assert seen[0].t == 0.0


def test_ledger_of_a_criterion_2_run_matches_energy_of_the_final_state():
    g = Grid(1, 256, 100.0)
    init = make_initial_data(
        constant_field(g, 0.0), bump_data(g, 1.0, 0.0, 5.0), compact_support=True
    )
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0, nonlinear=False)
    report = simulate(params, init, Controls(t_end=1.0, dt0=5e-4, tol=None))
    last = report.energy_trace[-1]
    final = report.final_state
    again = _energy(final.t, final.u, _row(final.u, final.v), params)
    for name, value in zip(("t", "kinetic", "potential", "linf", "l2"), again):
        assert getattr(last, name) == pytest.approx(value, rel=1e-12, abs=0.0)


def _energy(t, u, row, params):
    """(t, kinetic, potential, linf, l2) of the state at time t of u samples
    u and coefficients row = (u_hat, v_hat), as the ledger computes a block
    of that one row."""
    if params.nonlinear:
        row = (*row, stepper._source(u.values, u.grid, params.p))
    table, _ = stepper._ledger_rows([t], [row], u.grid, params, u.values[np.newaxis])
    return table[0][:5]


def _reference_step(t, row, u, params, dt):
    """One IMEX step of size dt from the state at time t of coefficients
    row = (u_hat, v_hat) and u samples u, written out in numpy apart from
    the solver's kernel: v' = (v - dt k^2 u + dt F[|u|^p]) / (1 + dt b k^2),
    with b at the step's end, and u' = u + dt v'.  Returns (u', v')."""
    grid = u.grid
    k2 = half_k_squared(grid)
    b = stepper.damping_coeff(t + dt, params)
    u_hat, v_hat = row
    rhs = v_hat - dt * k2 * u_hat
    if params.nonlinear:
        rhs = rhs + dt * half_spectrum(np.abs(u.values) ** params.p, grid)
    v_hat = rhs / (1.0 + (dt * b) * k2)
    return u_hat + dt * v_hat, v_hat


def _reference_states(params, init, controls):
    """The states of a fixed-step run as a loop of `_reference_step` on
    the run's time grid, the initial state and then one per step: each a
    `State`, u samples and v coefficients after the first, with its
    (u_hat, v_hat)."""
    grid = init.u0.grid
    u, v = init.u0.copy(), init.u1.copy()
    states = [(State(0.0, u, v), _row(u, v))]
    steps = max(1, math.ceil(controls.t_end / controls.dt0 - 1e-9))
    for n in range(1, steps + 1):
        t_new = controls.t_end if n == steps else n * controls.dt0
        state, row = states[-1]
        row = _reference_step(state.t, row, state.u, params, t_new - state.t)
        states.append((State(t_new, Field(grid, from_half_spectrum(row[0], grid)), row[1]), row))
    return states


def _reference_cases():
    g1 = Grid(1, 256, 100.0)
    bump1 = make_initial_data(
        bump_data(g1, 0.8, 0.0, 5.0), bump_data(g1, 1.0, 0.78125, 5.0), compact_support=True
    )
    g3 = Grid(3, 32, 6.0)
    init3 = make_initial_data(bump_data(g3, 0.5, 0.0, 2.5), mode_data(g3, 0.3, 1))
    cases = []
    for nonlinear in (False, True):
        # 100 steps: one full ledger block of 63 rows and a partial one
        cases.append((Params(n=1, p=2.0, beta=0.5, nonlinear=nonlinear), bump1,
                      Controls(t_end=0.1, dt0=1e-3, tol=None, snapshot_every=9)))
        # one row per block, so the ring has two rows
        cases.append((Params(n=3, p=2.0, beta=-1.0, nonlinear=nonlinear), init3,
                      Controls(t_end=0.06, dt0=1e-2, tol=None, snapshot_every=2)))
    return cases


@pytest.mark.parametrize("params, init, controls", _reference_cases())
def test_fixed_run_equals_a_loop_of_public_steps(monkeypatch, params, init, controls):
    # each step's reference is `_reference_step`, written apart from the
    # solver's kernel; the 3-D data are even, so the pins hold on the full
    # grid's march
    _full_grid_only(monkeypatch)
    grid = init.u0.grid
    assert stepper._block_rows(grid) == (63 if grid.dim == 1 else 1)
    # a hook that keeps every snapshot and reads its fields only after the run
    report, seen = _streamed_run(params, init, controls)
    states = _reference_states(params, init, controls)
    assert report.outcome is Outcome.COMPLETED_HORIZON
    assert len(report.energy_trace) == len(states) == report.accepted + 1
    rates = []
    for row, (state, coeffs) in zip(report.energy_trace, states):
        assert (row.t, row.kinetic, row.potential, row.linf, row.l2) == _energy(
            state.t, state.u, coeffs, params
        )
        source = np.abs(state.u.values) ** params.p if params.nonlinear else 0.0
        rates.append((
            stepper.damping_coeff(state.t, params) * grad_sq_integral(state.v),
            integrate(Field(grid, source * state.v.values)),
        ))
    # the cumulative columns are trapezoid sums of Parseval sums, which no
    # public function returns; the sample-space quadratures agree closely
    states = [state for state, _ in states]
    dissipated = work = 0.0
    for row, state, prev, (g, w), (g0, w0) in zip(
        report.energy_trace[1:], states[1:], states, rates[1:], rates
    ):
        dissipated += 0.5 * (state.t - prev.t) * (g0 + g)
        work += 0.5 * (state.t - prev.t) * (w0 + w)
        assert row.dissipated_cum == pytest.approx(dissipated, rel=1e-10, abs=1e-300)
        assert row.work_cum == pytest.approx(work, rel=1e-10, abs=1e-300)
    kept = states[:: controls.snapshot_every]
    assert len(kept) > 2
    _assert_same_snapshots(seen, kept)
    _assert_same_snapshots([report.final_state], [states[-1]])


@pytest.mark.parametrize("tol, every", [(None, 1), (None, 7), (1e-6, 3)])
def test_kept_snapshots_build_v_when_read(tol, every):
    # fixed runs keep their snapshots' coefficients from the ring, adaptive
    # ones from the attempt's stack; both are recycled or dropped
    g = Grid(1, 128, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    init = make_initial_data(bump_data(g, 0.5, 0.0, 1.0), constant_data(g, 0.0), compact_support=True)
    controls = Controls(t_end=1.0, dt0=1e-2, tol=tol, snapshot_every=every, boundary_check=False)
    kept = simulate(params, init, controls).snapshots
    assert len(kept) > 5
    later = kept[1:-1]  # the initial state has v samples; the last is the final state's
    assert not any(isinstance(s._v, Field) for s in later)
    for s in kept:
        assert s.u.values.flags.owndata
        assert isinstance(s._v, Field) or s._v.flags.owndata
    handed = []  # v as a hook reads it while the solver runs
    simulate(params, init, replace(controls, on_snapshot=lambda s: handed.append(s.v)))
    assert [v.values.tobytes() for v in handed] == [s.v.values.tobytes() for s in kept]
    assert all(isinstance(s._v, Field) for s in later)
    # a hook that reads v only after the run gets the same bytes
    _, seen = _streamed_run(params, init, controls)
    _assert_same_snapshots(seen, kept)


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_a_run_that_keeps_snapshots_leaves_no_ledger_in_a_cycle(tol):
    # a keeping hook bound to the ledger would make a cycle, so that each
    # finished run's coefficient ring lived until the cyclic collector ran
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    init = make_initial_data(bump_data(g, 0.5, 0.0, 1.0), constant_data(g, 0.0))
    controls = Controls(t_end=0.1, dt0=1e-2, tol=tol, snapshot_every=2, boundary_check=False)
    gc.collect()
    gc.disable()
    try:
        report = simulate(params, init, controls)
        left = [o for o in gc.get_objects() if isinstance(o, stepper._Ledger)]
    finally:
        gc.enable()
    assert len(report.snapshots) > 2
    assert left == []


def test_a_kept_snapshot_copies_each_field_once():
    # the ledger keeps the snapshot it hands on, which owns one copy of u
    # and one of the v coefficients, and no second state holds another
    g = Grid(3, 32, 6.0)
    params = Params(n=3, p=2.0, beta=0.0, nonlinear=False)
    u0, u1 = bump_data(g, 1.0, radius=2.0), bump_data(g, 0.5, radius=1.5)
    controls = Controls(t_end=1.0, tol=None, snapshot_every=1, boundary_check=False)
    ledger = stepper._Ledger(u0, u1, params, controls, None)
    u, v_hat = np.zeros(g.shape), np.zeros(half_k_squared(g).shape, complex)
    tracemalloc.start()
    try:
        ledger.snapshot(0.5, u, v_hat)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (u.nbytes + v_hat.nbytes)
    assert held <= 1.1 * (u.nbytes + v_hat.nbytes)
    kept = ledger.snapshots[-1]
    assert kept is ledger.last and kept.t == 0.5
    assert not np.shares_memory(kept.u.values, u) and not np.shares_memory(kept._v, v_hat)
    # the final state, of the last snapshot's row, is that snapshot
    assert ledger.final_state() is kept


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_a_snapshot_the_hook_lets_go_copies_nothing(monkeypatch, tol):
    # a hook that keeps every third state and reads no v: only the states
    # it keeps copy their v coefficients out of the solver's rows
    g = Grid(1, 128, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    init = make_initial_data(bump_data(g, 0.5, 0.0, 1.0), constant_data(g, 0.0))
    controls = Controls(t_end=0.5, dt0=1e-2, tol=tol, snapshot_every=1, boundary_check=False)
    every = simulate(params, init, controls).snapshots
    settled = []
    settle = State._settle_v

    def counted(state):
        settled.append(state)
        settle(state)

    handed, kept = [], []

    def keep_every_third(state):
        if len(handed) % 3 == 0:
            kept.append(state)
        handed.append(state.t)

    monkeypatch.setattr(State, "_settle_v", counted)
    simulate(params, init, replace(controls, on_snapshot=keep_every_third))
    assert len(handed) == len(every) > 10 and len(kept) == len(every[::3])
    assert [id(s) for s in settled] == [id(s) for s in kept]
    assert all(isinstance(s._v, Field) or s._v.flags.owndata for s in kept)
    _assert_same_snapshots(kept, every[::3])


def test_a_non_finite_attempt_is_retried_at_half_the_size(monkeypatch):
    # every attempt from u = 1e60 overflows, so its error is inf and the
    # next one is half its size, until the step falls below DT_MIN
    g = Grid(1, 32, 1.0)
    init = make_initial_data(constant_data(g, 1e60), constant_data(g, 0.0))
    controls = Controls(t_end=1.0, tol=1e-6, u_max=math.inf)
    calls = _count_calls(monkeypatch, "_extrapolated_step")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulate(Params(n=1, p=2.0, beta=0.0), init, controls)
    assert [args[4] for args, _ in calls] == [1e-2 * 0.5**k for k in range(34)]
    assert all(u is None and err == math.inf for _, (_, u, err) in calls)
    assert report.outcome is Outcome.STEP_FLOOR_REACHED
    assert (report.t_stop, report.accepted, report.rejected) == (0.0, 0, 34)
    assert len(report.energy_trace) == 1
    final = report.final_state
    assert final.u.values.tobytes() == init.u0.values.tobytes()
    assert final.v.values.tobytes() == init.u1.values.tobytes()


def test_a_final_v_never_read_is_never_transformed(monkeypatch):
    # a linear fixed run without snapshots holds no samples of its last
    # row: the final state transforms u and keeps a copy of the v
    # coefficients, which its first read transforms to the bytes that a
    # hook reading v from the ring gets
    g = Grid(1, 256, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    init = make_initial_data(bump_data(g, 1.0), bump_data(g, 0.5, 0.3, 1.5))
    controls = Controls(t_end=0.1, dt0=1e-2, tol=None, boundary_check=False)
    read = []
    hooked = replace(controls, snapshot_every=1, on_snapshot=lambda s: read.append(s.v))
    simulate(params, init, hooked)
    calls = _count_calls(monkeypatch, "from_half_spectrum")
    final = simulate(params, init, controls).final_state
    # one stacked transform for the ledger's one block, one for the final u
    assert len(calls) == 2
    assert not isinstance(final._v, Field) and final._v.flags.owndata
    assert final.v.values.tobytes() == read[-1].values.tobytes()
    assert len(calls) == 3 and isinstance(final._v, Field)


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_a_run_that_ends_on_a_kept_snapshot_returns_it(tol):
    g = Grid(1, 128, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    init = make_initial_data(bump_data(g, 0.5, 0.0, 1.0), constant_data(g, 0.0))
    controls = Controls(t_end=0.1, dt0=1e-2, tol=tol, snapshot_every=1, boundary_check=False)
    report = simulate(params, init, controls)
    assert report.final_state is report.snapshots[-1]
    assert report.final_state.t == report.t_stop == 0.1


def test_state_refuses_fields_on_different_grids():
    u = constant_field(Grid(1, 16, 1.0), 0.0)
    with pytest.raises(ValueError, match="different grids"):
        State(0.0, u, constant_field(Grid(1, 16, 2.0), 0.0))
    assert State(0.0, u, u.copy()).grid == u.grid
