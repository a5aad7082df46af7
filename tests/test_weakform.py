import math

import numpy as np
import pytest

from blowuplab.exponents import beta_threshold, conjugate_exponent, scaling_d
from blowuplab.grids import Field, Grid, laplacian
from blowuplab.model import Params, bump_data, constant_data
from blowuplab.stepper import Controls, simulate
from blowuplab.model import make_initial_data
from blowuplab.weakform import (
    TERM_NAMES,
    CutoffSpec,
    cutoff,
    cutoff_d1,
    cutoff_d2,
    default_cutoff_spec,
    manufactured_crosscheck,
    measure_term_slopes,
    predicted_exponents,
    psi_parts,
    slope_fit,
    term_bundle,
    weak_identity_terms,
    weak_residual,
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
    spec = default_cutoff_spec(2.0, 1.0, 8.0)
    assert spec.ell == spec.eta == math.ceil(2 * conjugate_exponent(2.0)) + 2 == 6


def test_psi_parts_supports():
    params = Params(n=1, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    r = np.linspace(0.0, 6.0, 100)

    outside_time = psi_parts(spec, params, 4.5, r)
    assert all(np.all(v == 0.0) for v in outside_time.values())

    early = psi_parts(spec, params, 1.0, r)  # t < T/2: time window is flat
    assert np.all(early["psi_t"] == 0.0)
    assert np.all(early["psi_tt"] == 0.0)
    assert np.all(early["psi"][r < 2.0] == 1.0)

    inner = r < 2.0  # |x| < T^d / 2: space window is flat
    assert np.all(early["lap_psi"][inner] == 0.0)
    outside_space = r >= 4.0
    assert np.all(early["psi"][outside_space] == 0.0)


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
    params = Params(n=1, p=2.0, beta=0.0)
    spec = CutoffSpec(ell=6, eta=6, d=1.0, T=4.0)
    r = np.linspace(0.0, 5.0, 50)
    h = 1e-4
    for t in (2.3, 3.1, 3.7):
        minus = psi_parts(spec, params, t - h, r)
        plus = psi_parts(spec, params, t + h, r)
        mid = psi_parts(spec, params, t, r)
        fd_t = (plus["psi"] - minus["psi"]) / (2 * h)
        fd_tt = (plus["psi"] - 2 * mid["psi"] + minus["psi"]) / h**2
        assert np.abs(fd_t - mid["psi_t"]).max() < 1e-6
        assert np.abs(fd_tt - mid["psi_tt"]).max() < 1e-5


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
    for name, value in bundle.as_dict().items():
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
    fit = slope_fit([(t, t**-2.0) for t in ts])
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)
    fit = slope_fit([(t, 3.0 * t**1.5) for t in ts])
    assert fit.slope == pytest.approx(1.5, abs=1e-12)


def test_slope_fit_with_noise():
    rng = np.random.default_rng(4)
    ts = [float(t) for t in (8, 16, 32, 64, 128, 256, 512)]
    vals = [t**-1.7 * (1.0 + 0.01 * rng.normal()) for t in ts]
    fit = slope_fit(zip(ts, vals))
    assert abs(fit.slope + 1.7) < 0.02


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
    thr = float(beta_threshold(n, beta))
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
