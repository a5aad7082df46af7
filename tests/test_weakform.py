import math
import tracemalloc

import numpy as np
import pytest

from blowuplab.exponents import beta_threshold, conjugate_exponent, scaling_d
from blowuplab.grids import Field, Grid, laplacian, to_even_grid, to_full_grid
from blowuplab.model import Params, bump_data, constant_data, damping_coeff
from blowuplab.stepper import Controls, simulate
from blowuplab.model import make_initial_data
from blowuplab.weakform import (
    TERM_NAMES,
    CutoffSpec,
    cutoff,
    cutoff_d1,
    cutoff_d2,
    manufactured_crosscheck,
    measure_term_slopes,
    predicted_exponents,
    slope_fit,
    term_bundle,
    weak_identity_terms,
    weak_residual,
    _midpoint,
    _refine_midpoint,
    _space_window,
    _time_window,
)


# ---------------------------------------------------------------------------
# cutoff profile


def test_cutoff_plateau_and_tail():
    assert cutoff(0.0) == 1.0
    assert cutoff(0.3) == 1.0
    assert cutoff(0.5) == 1.0
    assert cutoff(1.0) == 0.0
    assert cutoff(2.0) == 0.0


def test_cutoff_midpoint_symmetry():
    assert cutoff(0.75) == pytest.approx(0.5, abs=1e-14)
    assert cutoff(0.6) > cutoff(0.9)


def test_cutoff_monotone_nonincreasing():
    r = np.linspace(0.0, 1.2, 500)
    values = cutoff(r)
    assert np.all(np.diff(values) <= 1e-15)
    assert np.all(cutoff_d1(r) <= 1e-15)


@pytest.mark.parametrize("r", [0.55, 0.6, 0.75, 0.9, 0.97])
def test_cutoff_derivatives_match_finite_differences(r):
    h = 1e-5
    fd1 = (cutoff(r + h) - cutoff(r - h)) / (2 * h)
    fd2 = (cutoff(r + h) - 2 * cutoff(r) + cutoff(r - h)) / h**2
    # near the support edges the higher derivatives grow, so the finite
    # differences themselves carry noticeable truncation error
    assert cutoff_d1(r) == pytest.approx(fd1, rel=1e-4, abs=1e-8)
    assert cutoff_d2(r) == pytest.approx(fd2, rel=1e-4, abs=1e-6)


def test_cutoff_derivatives_vanish_at_transition_edges():
    for r in (0.5 + 1e-9, 1.0 - 1e-9, 0.4, 1.1):
        assert abs(cutoff_d1(r)) < 1e-8
        assert abs(cutoff_d2(r)) < 1e-6


def _separate_profiles(r):
    """cutoff, cutoff' and cutoff'' as three separate closed forms."""
    arr = np.asarray(r, dtype=float)
    mid = (arr > 0.5) & (arr < 1.0)
    s = np.where(mid, 2.0 * (1.0 - arr), 0.5)
    fs = np.exp(-1.0 / s)
    f1 = np.where(s >= 1.0, 0.0, np.exp(-1.0 / (1.0 - s + 1e-300)))
    g = fs + f1
    num = fs * f1 * (s**-2 + (1.0 - s) ** -2)
    gp = fs * s**-2 - f1 * (1.0 - s) ** -2
    hpp = fs * f1 * (1.0 - 2.0 * s) * (s**-4 + (1.0 - s) ** -4) / g**2 - 2.0 * num * gp / g**3
    return (
        np.where(mid, fs / (fs + f1), np.where(arr <= 0.5, 1.0, 0.0)),
        np.where(mid, -2.0 * (num / g**2), 0.0),
        np.where(mid, 4.0 * hpp, 0.0),
    )


def test_cutoff_profiles_equal_their_separate_closed_forms():
    # the three profiles share one evaluation of the exponentials
    r = np.concatenate([np.linspace(0.0, 1.2, 4801), 0.5 + np.geomspace(1e-9, 0.5, 200)])
    for got, want in zip((cutoff(r), cutoff_d1(r), cutoff_d2(r)), _separate_profiles(r)):
        assert got.tobytes() == want.tobytes()
    for x in (0.0, 0.5, 0.61, 0.75, 0.999, 1.0, 1.5):
        assert (cutoff(x), cutoff_d1(x), cutoff_d2(x)) == tuple(float(a) for a in _separate_profiles(x))


def test_cutoff_rejects_negative_radius():
    with pytest.raises(ValueError):
        cutoff(-0.1)


# ---------------------------------------------------------------------------
# window spec and psi parts


def test_cutoff_spec_validation():
    with pytest.raises(ValueError):
        CutoffSpec(ell=2, eta=6, d=1.0, T=4.0)
    with pytest.raises(ValueError):
        CutoffSpec(ell=6, eta=6, d=0.0, T=4.0)
    with pytest.raises(ValueError):
        CutoffSpec(ell=6, eta=6, d=1.0, T=1.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    spec.check_exponents(2.0)
    with pytest.raises(ValueError):
        # p -> 1+ makes the conjugate exponent blow past the window powers
        spec.check_exponents(1.2)


def test_default_cutoff_spec():
    # the default powers are ceil(2 p') + 2, which is 6 at p = 2
    params = Params(n=1, p=2.0, beta=0.0)
    horizons = [8.0, 16.0, 32.0, 64.0]
    assert math.ceil(2 * conjugate_exponent(2.0)) + 2 == 6
    assert measure_term_slopes(params, 1.0, horizons) == measure_term_slopes(
        params, 1.0, horizons, ell=6, eta=6
    )


def test_psi_parts_supports():
    # psi is the space window times the time window
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    r = np.linspace(0.0, 6.0, 100)

    assert _time_window(spec, 4.5) == (0.0, 0.0, 0.0)  # t > T

    val, vel, acc = _time_window(spec, 1.0)  # t < T/2: time window is flat
    assert (val, vel, acc) == (1.0, 0.0, 0.0)

    psi, lap = _space_window(spec, 1, r)
    inner = r < 2.0  # |x| < T^d / 2: space window is flat
    assert np.all(psi[inner] == 1.0)
    assert np.all(lap[inner] == 0.0)
    outside_space = r >= 4.0
    assert np.all(psi[outside_space] == 0.0)


def test_time_window_on_an_array_matches_per_sample_calls():
    # the weak identity evaluates the window once on all sample times; the
    # per-sample scalar calls are the reference
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    times = np.linspace(0.0, 4.0, 2001)
    stacked = _time_window(spec, times)
    for j in range(3):
        reference = np.array([_time_window(spec, t)[j] for t in times])
        np.testing.assert_allclose(stacked[j], reference, rtol=1e-13, atol=0.0)


def test_psi_parts_time_derivatives_match_finite_differences():
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    h = 1e-4
    for t in (2.3, 3.1, 3.7):
        minus = _time_window(spec, t - h)[0]
        plus = _time_window(spec, t + h)[0]
        mid, vel, acc = _time_window(spec, t)
        fd_t = (plus - minus) / (2 * h)
        fd_tt = (plus - 2 * mid + minus) / h**2
        assert abs(fd_t - vel) < 1e-6
        assert abs(fd_tt - acc) < 1e-5


@pytest.mark.parametrize("dim,points,rel_tol", [(1, 512, 1e-6), (2, 256, 2e-4)])
def test_window_laplacian_matches_spectral(dim, points, rel_tol):
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    grid = Grid(dim, points, 6.0)
    val, lap = _space_window(spec, dim, grid.radii())[:2]
    lap_spectral = laplacian(Field(grid, val)).values
    assert np.abs(lap_spectral - lap).max() < rel_tol * np.abs(lap).max()


# ---------------------------------------------------------------------------
# weak identity


def _bump_traj(grid, T, nt, amplitude=0.5, freq=1.0):
    times = np.linspace(0.0, T, nt + 1)
    bump = bump_data(grid, amplitude, radius=1.0)
    return [Field(grid, math.cos(freq * math.pi * t / T) * bump.values) for t in times]


def test_weak_residual_zero_for_zero_trajectory():
    grid = Grid(1, 64, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    zero = constant_data(grid, 0.0)
    traj = [zero.copy() for _ in range(11)]
    assert weak_residual(traj, zero, zero, spec, params, 4.0) == 0.0


def test_weak_identity_bilinear_part_is_additive():
    grid = Grid(1, 128, 8.0)
    params = Params(n=1, p=2.0, beta=0.5, b0=1.3)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    traj_a = _bump_traj(grid, 4.0, 60, amplitude=0.4)
    traj_b = _bump_traj(grid, 4.0, 60, amplitude=0.3, freq=2.0)
    traj_ab = [Field(grid, a.values + b.values) for a, b in zip(traj_a, traj_b)]

    def parts(traj):
        zero = constant_data(grid, 0.0)
        return weak_identity_terms(traj, traj[0], zero, spec, params, 4.0)

    ta, tb, tab = parts(traj_a), parts(traj_b), parts(traj_ab)
    # every term except the absolute-power source is linear in the trajectory
    for key in ("data_u1", "data_u0_lap", "data_u0_psit", "int_psitt", "int_damping", "int_lap", "int_beta"):
        assert tab[key] == pytest.approx(ta[key] + tb[key], rel=1e-12, abs=1e-13)


def test_weak_residual_validates_inputs():
    grid = Grid(1, 64, 8.0)
    other = Grid(1, 128, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    zero = constant_data(grid, 0.0)
    traj = [zero.copy() for _ in range(5)]
    with pytest.raises(ValueError, match="horizon"):
        weak_residual(traj, zero, zero, spec, params, 5.0)
    with pytest.raises(ValueError, match="grid"):
        weak_residual(traj, constant_data(other, 0.0), zero, spec, params, 4.0)
    big = CutoffSpec(ell=6, eta=6, d=1.0, T=16.0)
    with pytest.raises(ValueError, match="radius"):
        weak_residual(traj, zero, zero, big, params, 16.0)


def test_manufactured_crosscheck_agrees_with_strong_form():
    grid = Grid(1, 256, 8.0)
    params = Params(n=1, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    result = manufactured_crosscheck(grid, params, spec, nt=2000)
    assert result["rel_diff"] < 1e-6


def test_manufactured_crosscheck_with_damping_history():
    grid = Grid(1, 256, 8.0)
    params = Params(n=1, p=2.5, beta=1.0, b0=0.7)
    spec = CutoffSpec(ell=8, eta=8, d=1.0, T=4.0)
    result = manufactured_crosscheck(grid, params, spec, nt=2000)
    assert result["rel_diff"] < 1e-6


def test_weak_residual_shrinks_for_simulated_solution():
    T = 4.0
    params = Params(n=1, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=T)
    residuals = []
    for points, nt in ((128, 1000), (256, 2000)):
        grid = Grid(1, points, 8.0)
        init = make_initial_data(
            bump_data(grid, 0.5, 0.0, 1.0), constant_data(grid, 0.0), compact_support=True
        )
        controls = Controls(t_end=T, dt0=T / nt, tol=None, snapshot_every=1, boundary_check=False)
        report = simulate(params, init, controls)
        traj = [s.u for s in report.snapshots]
        residuals.append(abs(weak_residual(traj, init.u0, init.u1, spec, params, T)))
    assert residuals[1] < 0.8 * residuals[0]


# ---------------------------------------------------------------------------
# term bundle, slopes, predicted exponents


def test_term_bundle_nonnegative():
    params = Params(n=2, p=2.0, beta=-0.5)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=16.0)
    bundle = term_bundle(spec, params)
    assert tuple(bundle) == TERM_NAMES
    for name, value in bundle.items():
        assert value >= 0.0, name


def test_term_bundle_exponent_guard():
    params = Params(n=1, p=1.1, beta=0.0)  # conjugate exponent 11
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=16.0)
    with pytest.raises(ValueError):
        term_bundle(spec, params)


def test_doubling_window_powers_keeps_slopes():
    params = Params(n=1, p=2.0, beta=0.0)
    horizons = [8.0, 16.0, 32.0, 64.0]
    small = measure_term_slopes(params, 1.0, horizons, ell=6, eta=6)
    large = measure_term_slopes(params, 1.0, horizons, ell=12, eta=12)
    for name in TERM_NAMES:
        assert abs(small[name]["slope"] - large[name]["slope"]) < 0.05


def test_slope_fit_exact_power_law():
    ts = [8.0, 16.0, 32.0, 64.0]
    slope, r2 = slope_fit([(t, t**-2.0) for t in ts])
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)
    slope, _ = slope_fit([(t, 3.0 * t**1.5) for t in ts])
    assert slope == pytest.approx(1.5, abs=1e-12)


def test_slope_fit_with_noise():
    rng = np.random.default_rng(4)
    ts = [float(t) for t in (8, 16, 32, 64, 128, 256, 512)]
    vals = [t**-1.7 * (1.0 + 0.01 * rng.normal()) for t in ts]
    slope, _ = slope_fit(zip(ts, vals))
    assert abs(slope + 1.7) < 0.02


def test_slope_fit_validation():
    with pytest.raises(ValueError):
        slope_fit([(8.0, 1.0), (16.0, 0.5), (32.0, 0.25)])
    with pytest.raises(ValueError):
        slope_fit([(8.0, 1.0), (16.0, -0.5), (32.0, 0.25), (64.0, 0.1)])


def test_predicted_exponents_reference_values():
    # p = 2, n = 1, beta = 0, d = 1: conjugate exponent 2
    table = predicted_exponents(Params(n=1, p=2.0, beta=0.0), 1.0)
    assert table["B_tt"] == -2.0
    assert table["B_dx1"] == -2.0
    assert table["B_mix1"] == -4.0
    assert table["B_beta1"] == -3.0  # bounded damping-decay integral adds nothing
    assert table["D_data"] == -2.0

    # beta = -1: the decay weight is flat and the time integral adds one
    table = predicted_exponents(Params(n=1, p=2.0, beta=-1.0), 1.0)
    assert table["B_beta1"] == -2.0 * 2.0 + 1.0 + 1.0

    # p = 2, n = 1, beta = -3, d = 2: growing case
    table = predicted_exponents(Params(n=1, p=2.0, beta=-3.0), 2.0)
    assert table["B_dx1"] == -5.0
    assert table["B_tt"] == -1.0
    assert table["B_beta1"] == -8.0 + 2.0 + 5.0


@pytest.mark.parametrize(
    "n,beta",
    [(1, 0.0), (2, 0.0), (3, 0.0), (2, -1.0), (1, -3.0), (2, -3.0), (1, -5.0)],
)
def test_predicted_exponents_negative_below_threshold_zero_at_it(n, beta):
    thr = beta_threshold(n, beta)
    d = scaling_d(beta)
    if math.isfinite(thr):
        at = predicted_exponents(Params(n=n, p=thr, beta=beta), d)
        window_terms = [v for k, v in at.items() if k != "D_data"]
        assert max(window_terms) == 0.0
    for p in (1.5, 2.0, thr * 0.9 if math.isfinite(thr) else 40.0):
        if not 1.0 < p < thr:
            continue
        below = predicted_exponents(Params(n=n, p=p, beta=beta), d)
        for name, value in below.items():
            assert value < 0.0, (name, value)


def test_measured_slopes_match_prediction_single_case():
    params = Params(n=1, p=2.0, beta=0.0)
    table = measure_term_slopes(params, 1.0, [8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
    for name in TERM_NAMES:
        assert table[name]["abs_error"] < 0.05, name


def test_measure_term_slopes_refuses_a_zero_window_power():
    params = Params(n=1, p=2.0, beta=0.0)
    for powers in ({"ell": 0}, {"eta": 0}, {"ell": 0, "eta": 6}):
        with pytest.raises(ValueError, match="ell and eta must be >= 3"):
            measure_term_slopes(params, 1.0, [8.0, 16.0, 32.0, 64.0], **powers)


# ---------------------------------------------------------------------------
# the batched sums against per-sample and per-integrand references


def _per_sample_terms(u_traj, u0, u1, spec, params, T):
    """weak_identity_terms as one loop over the samples, three sums each."""
    grid = u0.grid
    times = np.linspace(0.0, T, len(u_traj))
    meas = grid.spacing**grid.dim
    val_x, lap_x = _space_window(spec, params.n, grid.radii())
    b0, beta = params.b0, params.beta
    src, m_win, m_lap = np.zeros(len(times)), np.zeros(len(times)), np.zeros(len(times))
    for j, f in enumerate(u_traj):
        v = f.values
        if params.nonlinear:
            src[j] = (np.abs(v) ** params.p * val_x).sum() * meas
        m_win[j] = (v * val_x).sum() * meas
        m_lap[j] = (v * lap_x).sum() * meas
    w_val, w_vel, w_acc = _time_window(spec, times)
    terms = {
        "source": float(np.trapezoid(src * w_val, times)),
        "data_u1": (u1.values * val_x).sum() * meas,
        "data_u0_lap": b0 * (u0.values * lap_x).sum() * meas,
        "data_u0_psit": (u0.values * val_x).sum() * meas * _time_window(spec, 0.0)[1],
        "int_psitt": float(np.trapezoid(m_win * w_acc, times)),
        "int_damping": float(np.trapezoid(b0 * (1.0 + times) ** (-beta) * m_lap * w_vel, times)),
        "int_lap": float(np.trapezoid(m_lap * w_val, times)),
        "int_beta": float(
            np.trapezoid(b0 * beta * (1.0 + times) ** (-beta - 1.0) * m_lap * w_val, times)
        ),
    }
    lhs = terms["source"] + terms["data_u1"] - terms["data_u0_lap"] - terms["data_u0_psit"]
    rhs = terms["int_psitt"] + terms["int_damping"] - terms["int_lap"] - terms["int_beta"]
    terms["residual"] = lhs - rhs
    return terms


def _trapezoid_inputs(monkeypatch, fn, *args):
    """fn(*args) and the arrays it passes to np.trapezoid, which hold one
    windowed sum per time sample."""
    seen = []
    trapezoid = np.trapezoid

    def record(y, x):
        seen.append(np.array(y, dtype=float).tobytes())
        return trapezoid(y, x)

    with monkeypatch.context() as patch:
        patch.setattr(np, "trapezoid", record)
        return fn(*args), seen


@pytest.mark.parametrize("dim, points, samples, p, nonlinear", [
    (1, 256, 2001, 2.0, True),
    (1, 256, 101, 2.0, False),
    (1, 64, 77, 3.0, True),
    (2, 32, 61, 2.0, True),
    (2, 64, 23, 2.5, True),
    (2, 32, 41, 2.0, False),
])
def test_weak_identity_terms_equal_a_per_sample_loop(monkeypatch, dim, points, samples, p, nonlinear):
    # several stacks, the last one partial; random fields of both signs
    grid = Grid(dim, points, 8.0)
    params = Params(n=dim, p=p, beta=0.4, b0=1.3, nonlinear=nonlinear)
    spec = CutoffSpec(ell=7, eta=7, d=1.0, T=4.0)
    rng = np.random.default_rng(dim * points + samples)
    traj = [Field(grid, rng.standard_normal(grid.shape)) for _ in range(samples)]
    u1 = Field(grid, rng.standard_normal(grid.shape))
    args = (traj, traj[0], u1, spec, params, 4.0)
    got = _trapezoid_inputs(monkeypatch, weak_identity_terms, *args)
    assert got == _trapezoid_inputs(monkeypatch, _per_sample_terms, *args)


@pytest.mark.parametrize("dim, points, nt, p, nonlinear", [
    (1, 256, 2000, 2.0, True),
    (1, 128, 300, 3.0, False),
    (2, 32, 120, 3.0, True),
])
def test_manufactured_crosscheck_equals_a_per_sample_loop(monkeypatch, dim, points, nt, p, nonlinear):
    grid = Grid(dim, points, 8.0)
    params = Params(n=dim, p=p, beta=0.7, b0=0.9, nonlinear=nonlinear)
    spec = CutoffSpec(ell=7, eta=7, d=1.0, T=4.0)
    result, integrands = _trapezoid_inputs(
        monkeypatch, manufactured_crosscheck, grid, params, spec, nt, 0.45
    )
    T = spec.T
    bump = bump_data(grid, 0.45, radius=1.0)
    lap_bump = laplacian(bump)
    times = np.linspace(0.0, T, nt + 1)
    traj = [Field(grid, c * bump.values) for c in np.cos(np.pi * times / T)]
    zero = Field(grid, np.zeros(grid.shape))
    weak, expected = _trapezoid_inputs(monkeypatch, _per_sample_terms, traj, traj[0], zero, spec, params, T)
    assert result["weak"] == weak["residual"]
    meas = grid.spacing**grid.dim
    val_x = _space_window(spec, dim, grid.radii())[0]
    omega = np.pi / T
    w_val = _time_window(spec, times)[0]
    vals = np.zeros(len(times))
    for j, t in enumerate(times):
        c = math.cos(omega * t)
        s = math.sin(omega * t)
        strong = (
            -(omega**2) * c * bump.values
            - c * lap_bump.values
            + damping_coeff(t, params) * omega * s * lap_bump.values
        )
        if nonlinear:
            strong = strong - np.abs(c * bump.values) ** p
        vals[j] = (strong * val_x).sum() * meas * w_val[j]
    assert result["strong"] == -float(np.trapezoid(vals, times))
    assert integrands == expected + [vals.tobytes()]


def _per_integrand_bundle(spec, params):
    """term_bundle with each integrand refined on its own, from the public
    cutoff functions."""
    pp = conjugate_exponent(params.p)
    eta, ell, n, beta, T = spec.eta, spec.ell, params.n, params.beta, spec.T
    td = spec.space_radius
    sigma = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]

    def refine(f, a, b):
        return _refine_midpoint(lambda x: (f(x),), a, b)[0]

    def shell(r):
        rho = r / td  # at least 1/2 on the shell
        d1 = cutoff_d1(rho)
        return cutoff(rho), (cutoff_d2(rho) + (n - 1) * (d1 / rho)) / td**2, (d1 / td) ** 2

    decay = (beta + 1.0) * pp

    def t_betaw(t):
        if decay < 1.0:
            with np.errstate(divide="ignore"):
                w = np.where(t > 0, t, 1.0) ** (-decay)
            w = np.where(t > 0, w, 0.0 if decay < 0 else 1.0)
        else:
            w = (1.0 + t) ** (-decay)
        return w * cutoff(t / T) ** eta

    def s_lap(r):
        p1, lap1, _ = shell(r)
        return p1 ** (ell - pp) * np.abs(lap1) ** pp * sigma * r ** (n - 1)

    def s_grad(r):
        p1, _, grad_sq = shell(r)
        return p1 ** (ell - 2 * pp) * grad_sq**pp * sigma * r ** (n - 1)

    i_tt = refine(lambda t: cutoff(t / T) ** (eta - pp) * np.abs(cutoff_d2(t / T) / T**2) ** pp, T / 2, T)
    i_t2 = refine(lambda t: cutoff(t / T) ** (eta - 2 * pp) * np.abs(cutoff_d1(t / T) / T) ** (2 * pp), T / 2, T)
    i_eta = refine(lambda t: cutoff(t / T) ** eta, 0.0, T)
    i_mix = refine(lambda t: cutoff(t / T) ** (eta - pp) * np.abs(cutoff_d1(t / T) / T) ** pp, T / 2, T)
    i_betaw = refine(t_betaw, 0.0, T)
    s_ell_i = refine(lambda r: cutoff(r / td) ** ell * sigma * r ** (n - 1), 0.0, td)
    s_lap_i = refine(s_lap, td / 2, td)
    s_grad_i = refine(s_grad, td / 2, td)
    rs = td / 2 + (np.arange(1 << 14) + 0.5) * (td / 2) / (1 << 14)
    p1s, lap1s, gss = shell(rs)
    d_data = float(
        (p1s ** (ell - 1) * np.abs(lap1s)).max() + (p1s ** (ell - 2) * gss).max() + abs(cutoff_d1(0.0) / T)
    )
    return {
        "B_tt": i_tt * s_ell_i,
        "B_t2": i_t2 * s_ell_i,
        "B_dx1": i_eta * s_lap_i,
        "B_dx2": i_eta * s_grad_i,
        "B_mix1": T ** (-beta * pp) * i_mix * s_lap_i,
        "B_mix2": T ** (-beta * pp) * i_mix * s_grad_i,
        "B_beta1": i_betaw * s_lap_i,
        "B_beta2": i_betaw * s_grad_i,
        "D_data": d_data,
    }


@pytest.mark.parametrize("p, n, beta, d", [
    (2.0, 1, 0.0, 1.0),  # t_betaw refines further than the other time integrand
    (2.0, 2, 0.0, 1.0),
    (2.0, 1, -3.0, 2.0),  # the growing t_betaw weight
    (1.5, 2, -3.0, 0.5),
    (3.0, 3, 0.0, 1.0),
    (2.0, 3, 0.5, 1.0),
])
@pytest.mark.parametrize("T", [8.0, 10.0, 37.3, 128.0])
def test_term_bundle_equals_per_integrand_refinement(p, n, beta, d, T):
    params = Params(n=n, p=p, beta=beta)
    k = math.ceil(2.0 * conjugate_exponent(p)) + 2
    spec = CutoffSpec(ell=k, eta=k, d=d, T=T)
    assert term_bundle(spec, params) == _per_integrand_bundle(spec, params)


def test_refine_midpoint_stops_each_integrand_at_its_own_level():
    # x^2 agrees to rtol at 512 cells, exp(200 x) only at 4096, and the
    # midpoint sums of x^2 differ between those levels
    def square(x):
        return (x * x,)

    def steep(x):
        return (np.exp(200.0 * x),)

    mild, sharp = _refine_midpoint(lambda x: square(x) + steep(x), 0.0, 1.0)
    assert mild == _refine_midpoint(square, 0.0, 1.0)[0] == _midpoint(square, 0.0, 1.0, 512)[0]
    assert sharp == _refine_midpoint(steep, 0.0, 1.0)[0] == _midpoint(steep, 0.0, 1.0, 4096)[0]
    assert mild != _midpoint(square, 0.0, 1.0, 4096)[0]


# ---------------------------------------------------------------------------
# memory of the batched sums


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_crosscheck_stacks_stay_small():
    # the 2001-sample trajectory takes 4.7 MiB; the stacks add little to it
    params = Params(n=1, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    peak = _traced_peak(manufactured_crosscheck, Grid(1, 256, 8.0), params, spec, 2000)
    assert peak <= 5.0 * 2**20


def test_weak_residual_reads_the_snapshots_of_an_even_run():
    # a centred 2-D bump marches on the even grid, where its snapshots stay;
    # the residual mirrors them, and is that of the mirrored trajectory
    params = Params(n=2, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=2.0)
    grid = Grid(2, 32, 8.0)
    init = make_initial_data(
        bump_data(grid, 0.5, 0.0, 1.0), constant_data(grid, 0.0), compact_support=True
    )
    controls = Controls(t_end=2.0, dt0=0.05, tol=None, snapshot_every=1, boundary_check=False)
    traj = [s.u for s in simulate(params, init, controls).snapshots]
    assert traj[0].grid.even and len(traj) == 41
    mirrored = [to_full_grid(f) for f in traj]
    want = weak_residual(mirrored, init.u0, init.u1, spec, params, 2.0)
    assert weak_residual(traj, init.u0, init.u1, spec, params, 2.0) == want
    assert weak_residual(traj, to_even_grid(init.u0), init.u1, spec, params, 2.0) == want


def test_weak_residual_of_2001_snapshots_stays_small():
    params = Params(n=1, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    grid = Grid(1, 256, 8.0)
    init = make_initial_data(
        bump_data(grid, 0.5, 0.0, 1.0), constant_data(grid, 0.0), compact_support=True
    )
    controls = Controls(t_end=4.0, dt0=4.0 / 2000, tol=None, snapshot_every=1, boundary_check=False)
    traj = [s.u for s in simulate(params, init, controls).snapshots]
    assert len(traj) == 2001
    peak = _traced_peak(weak_residual, traj, init.u0, init.u1, spec, params, 4.0)
    assert peak <= 5.0 * 2**20
