import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from blowuplab import stepper
from blowuplab.grids import (
    Field,
    Grid,
    constant_field,
    grad_sq_integral,
    half_k_squared,
    half_spectrum,
    integrate,
    l2_norm,
    linf_norm,
    parseval_weights,
)
from blowuplab.model import Params, bump_data, constant_data, make_initial_data, mode_data
from blowuplab.oracles import linear_mode_trajectory
from blowuplab.stepper import (
    Controls,
    Outcome,
    State,
    detect_blowup,
    energy,
    simulate,
    step,
    write_energy_csv,
)


def zero_init(grid):
    z = constant_field(grid, 0.0)
    return make_initial_data(z, z.copy())


def test_zero_state_is_fixed_point():
    g = Grid(1, 64, 4.0)
    params = Params(n=1, p=2.0, beta=0.0)
    s = State(0.0, constant_field(g, 0.0), constant_field(g, 0.0))
    out = step(s, params, 1e-2)
    assert linf_norm(out.u) == 0.0
    assert linf_norm(out.v) == 0.0


def test_constant_state_reduces_to_scalar_update():
    g = Grid(1, 64, 4.0)
    a, b, dt = -1.3, 0.4, 1e-2
    # a negative base: without the absolute value, p = 1.7 would give NaN
    for p in (3.0, 1.7):
        params = Params(n=1, p=p, beta=0.5, b0=2.0)
        out = step(State(0.0, constant_field(g, a), constant_field(g, b)), params, dt)
        # flat fields kill every Laplacian, including the implicit solve
        v_expect = b + dt * abs(a) ** p
        u_expect = a + dt * v_expect
        assert np.abs(out.v.values - v_expect).max() < 1e-13
        assert np.abs(out.u.values - u_expect).max() < 1e-13


def test_constant_data_stays_spatially_flat():
    g = Grid(1, 128, 4.0)
    params = Params(n=1, p=2.0, beta=0.0)
    s = State(0.0, constant_field(g, 1.0), constant_field(g, 0.5))
    for _ in range(100):
        s = step(s, params, 1e-3)
    assert s.u.values.max() - s.u.values.min() < 1e-10 * abs(s.u.values.max())


def test_step_rejects_bad_dt():
    g = Grid(1, 32, 1.0)
    params = Params(n=1, p=2.0, beta=0.0)
    s = State(0.0, constant_field(g, 0.0), constant_field(g, 0.0))
    with pytest.raises(ValueError):
        step(s, params, 0.0)


def test_single_mode_matches_scalar_oracle_at_first_order():
    L = math.pi
    g = Grid(1, 32, L)
    k = math.pi / L
    params = Params(n=1, p=2.0, beta=0.0, nonlinear=False)
    oracle = linear_mode_trajectory(k, 0.0, 1.0, 1.0, 0.0, [0.0, 5.0])
    profile = np.cos(k * g.axis())
    errs = []
    for dt in (1e-2, 5e-3):
        s = State(0.0, Field(g, profile.copy()), constant_field(g, 0.0))
        for _ in range(round(5.0 / dt)):
            s = step(s, params, dt)
        errs.append(np.abs(s.u.values - oracle.u[-1] * profile).max())
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
    s = State(0.0, Field(g, np.cos(k * g.axis())), constant_field(g, 0.0))
    rec = energy(s, params)
    assert rec.kinetic == 0.0
    assert rec.potential == pytest.approx(0.5 * k * k * g.half_width, rel=1e-12)
    assert rec.linf == pytest.approx(1.0)


def test_step_floor_outcome():
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    init = make_initial_data(bump_data(g, 1.0), constant_field(g, 0.0), compact_support=True)
    controls = Controls(t_end=1.0, dt0=1e-2, dt_min=1e-4, tol=1e-30)
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
        Controls(t_end=1.0, dt0=1e-13, dt_min=1e-12)
    with pytest.raises(ValueError):
        Controls(t_end=0.0)
    with pytest.raises(ValueError):
        Controls(t_end=1.0, tol=0.0)
    with pytest.raises(ValueError, match="snapshot_every"):
        Controls(t_end=1.0, on_snapshot=print)


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
    assert detect_blowup(ts, linf, 2.0, rise_factor=0.01) is None


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
    g = Grid(1, 32, 1.0)
    params = Params(n=1, p=2.0, beta=0.0)
    report = simulate(params, zero_init(g), Controls(t_end=0.2, dt0=1e-2))
    path = tmp_path / "trace.csv"
    write_energy_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,kinetic,potential,dissipated_cum,work_cum,linf,l2"
    assert len(lines) == len(report.energy_trace) + 1


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
    assert final.is_finite()
    assert final.t == report.t_stop == report.energy_trace[-1].t
    assert linf_norm(final.u) == report.energy_trace[-1].linf


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
    again = energy(final, params, last.dissipated_cum, last.work_cum)
    for name in ("t", "kinetic", "potential", "linf", "l2"):
        assert getattr(last, name) == pytest.approx(getattr(again, name), rel=1e-12, abs=0.0)
    # and against the sample-space quadratures
    kinetic = 0.5 * integrate(Field(final.grid, final.v.values**2))
    assert last.kinetic == pytest.approx(kinetic, rel=1e-12)
    assert last.potential == pytest.approx(0.5 * grad_sq_integral(final.u), rel=1e-12)
    assert last.l2 == pytest.approx(l2_norm(final.u), rel=1e-12)
    assert last.linf == linf_norm(final.u)


def _count_step_calls(monkeypatch):
    calls = []
    real_step = stepper.step

    def counted(state, params, dt):
        out = real_step(state, params, dt)
        calls.append((state, dt, out))
        return out

    monkeypatch.setattr(stepper, "step", counted)
    return calls


def test_fixed_mode_calls_step_once_per_step(monkeypatch):
    calls = _count_step_calls(monkeypatch)
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    init = make_initial_data(bump_data(g, 1.0), constant_field(g, 0.0))
    report = simulate(params, init, Controls(t_end=1.0, dt0=1e-2, tol=None))
    assert len(calls) == len(report.energy_trace) - 1 == 100


@pytest.mark.parametrize("nonlinear", [False, True])
def test_a_step_holds_two_new_coefficient_arrays(nonlinear):
    g = Grid(3, 32, 6.0)
    params = Params(n=3, p=2.0, beta=0.0, nonlinear=nonlinear)
    state = State(0.0, bump_data(g, 1.0, radius=2.0), bump_data(g, 0.5, radius=1.5))
    step(state, params, 1e-2)  # the state's coefficients, its source and the k^2 cache
    tracemalloc.start()
    try:
        step(state, params, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * state.u_hat.nbytes


def _rejecting_case():
    # constant data does not see the box, so a wide box lifts the CFL cap
    # above dt0, and the first attempts fail the tight tolerance
    g = Grid(1, 8, 100.0)
    params = Params(n=1, p=2.0, beta=0.0)
    init = make_initial_data(constant_data(g, 1.0), constant_data(g, math.sqrt(2.0 / 3.0)))
    return params, init, Controls(t_end=1.0, dt0=1.0, tol=1e-8, boundary_check=False)


def test_adaptive_attempt_extrapolates_three_chains_of_step(monkeypatch):
    calls = _count_step_calls(monkeypatch)
    params, init, controls = _rejecting_case()
    report = simulate(params, init, controls)
    assert report.outcome is Outcome.COMPLETED_HORIZON
    assert len(calls) % 6 == 0
    starts = []
    for i in range(0, len(calls), 6):
        (s0, h, _), (s1, h2, m1), (s2, h2b, _), (s3, h3, m2), (s4, h3b, m3), (s5, h3c, _) = (
            calls[i : i + 6]
        )
        # chains of 1 x H, 2 x H/2 and 3 x H/3, all from the attempt's state
        assert s1 is s0 and s3 is s0
        assert s2 is m1 and s4 is m2 and s5 is m3
        assert h2 == h2b == h / 2 and h3 == h3b == h3c == h / 3
        starts.append(s0)
    # a rejected attempt is retried from the same state and adds no ledger row
    rejected = sum(a is b for a, b in zip(starts, starts[1:]))
    assert rejected == report.rejected > 0
    assert len(report.energy_trace) - 1 == report.accepted == len(starts) - rejected
    assert [r.t for r in report.energy_trace[:-1]] == [s.t for s in dict.fromkeys(starts)]
    # the step statistics cover the accepted steps only
    steps = np.diff([r.t for r in report.energy_trace])
    assert report.dt_min == pytest.approx(steps.min(), rel=1e-12)
    assert report.dt_max == pytest.approx(steps.max(), rel=1e-12)
    assert report.dt_min < report.dt_max < controls.dt0


def test_extrapolated_attempt_is_third_order():
    # the space-free reduction u'' = u^2, from a state on its exact solution
    g = Grid(1, 8, 1.0)
    params = Params(n=1, p=2.0, beta=0.0)

    def exact(t):
        return 6.0 / (math.sqrt(6.0) - t) ** 2, 12.0 / (math.sqrt(6.0) - t) ** 3

    t0 = 1.0
    errors = []
    for dt in (0.1, 0.05, 0.025):
        u, v = exact(t0)
        start = State(t0, constant_field(g, u), constant_field(g, v))
        new, _ = stepper._extrapolated_step(start, params, dt)
        assert new.t == t0 + dt
        u_end, v_end = exact(t0 + dt)
        errors.append(max(np.abs(new.u.values - u_end).max(), np.abs(new.v.values - v_end).max()))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= math.log2(coarse / fine) <= 4.5


def test_adaptive_space_free_run_takes_few_steps():
    g = Grid(1, 32, 1.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1.0)
    init = make_initial_data(constant_data(g, 1.0), constant_data(g, math.sqrt(2.0 / 3.0)))
    report = simulate(params, init, Controls(t_end=10.0, dt0=1e-2, tol=1e-6))
    assert report.outcome is Outcome.BLOWUP_DETECTED
    assert report.accepted < 5000
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
    # b k^2 is small at the top of the spectrum, where the extrapolated
    # wave step is unstable at the CFL cap; the top modes must still decay
    g = Grid(1, 256, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=1e-3, nonlinear=False)
    init = make_initial_data(constant_field(g, 0.0), bump_data(g, 1.0, 0.0, 2.0))
    controls = Controls(t_end=200.0, boundary_check=False, snapshot_every=500)
    report = simulate(params, init, controls)
    assert report.outcome is Outcome.COMPLETED_HORIZON
    totals = np.array([r.total for r in report.energy_trace])
    assert (np.diff(totals) <= 0.0).all()
    for snap in report.snapshots + [report.final_state]:
        if snap.t >= 10.0:
            assert _top_third_energy_share(snap) < 1e-10


@pytest.mark.parametrize("b0", [1e-8, 1e-5, 1e-3, 1e-1])
def test_stable_step_keeps_every_mode_from_growing(b0):
    g = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0, b0=b0, nonlinear=False)
    k2 = half_k_squared(g)
    dt = min(stepper._stable_step(0.0, 1.0, params, math.sqrt(k2.max())), 0.5 * g.spacing)
    # the attempt is linear and mode-wise: two unit starts give each
    # mode's 2 x 2 amplification matrix
    ones = np.ones(k2.shape, dtype=complex)
    zeros = np.zeros_like(ones)
    from_u, _ = stepper._extrapolated_step(State.from_spectrum(0.0, g, ones, zeros), params, dt)
    from_v, _ = stepper._extrapolated_step(State.from_spectrum(0.0, g, zeros, ones), params, dt)
    for m in range(k2.size):
        amp = np.array([[from_u.u_hat[m], from_v.u_hat[m]], [from_u.v_hat[m], from_v.v_hat[m]]])
        assert np.abs(np.linalg.eigvals(amp)).max() <= 1.0 + 1e-12


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
    calls = _count_step_calls(monkeypatch)
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
        assert blocked.final_state.is_finite()
        with np.errstate(over="ignore", invalid="ignore"):
            assert not step(blocked.final_state, params, controls.dt0).is_finite()


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
    controls = Controls(t_end=10.0, dt0=1e-2, tol=1e-6, u_max=1e5, snapshot_every=3)
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
    again = energy(report.final_state, params, last.dissipated_cum, last.work_cum)
    for name in ("t", "kinetic", "potential", "linf", "l2"):
        assert getattr(last, name) == pytest.approx(getattr(again, name), rel=1e-12, abs=0.0)
