import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from blowuplab import oracles
from blowuplab.oracles import (
    OdeProblem,
    blowup_time_from_trajectory,
    linear_mode_trajectory,
    ode_blowup_time,
    ode_energy,
    ode_trajectory,
)

# escape integral from rest at u0 = 1 with p = 2; pinned by the adaptive
# quadrature and cross-checked against trajectory extrapolation below
T_STAR_FROM_REST = 2.97447742540213


def test_zero_energy_closed_form():
    # with E0 = 0 and p = 2 the escape obeys u' = sqrt(2/3) u^(3/2), which
    # integrates to T* = 2 sqrt(3/2) / sqrt(u0) = sqrt(6) at u0 = 1
    prob = OdeProblem(1.0, math.sqrt(2.0 / 3.0), 2.0)
    assert ode_energy(prob.u0, prob.v0, prob.p) == pytest.approx(0.0, abs=1e-15)
    assert ode_blowup_time(prob) == pytest.approx(math.sqrt(6.0), rel=1e-12)


def test_rest_start_regression_value():
    assert ode_blowup_time(OdeProblem(1.0, 0.0, 2.0)) == pytest.approx(
        T_STAR_FROM_REST, rel=1e-9
    )


def test_equilibrium_never_escapes():
    assert math.isinf(ode_blowup_time(OdeProblem(0.0, 0.0, 2.0)))


def test_blowup_time_decreases_with_larger_data():
    base = ode_blowup_time(OdeProblem(1.0, 0.5, 2.0))
    assert ode_blowup_time(OdeProblem(2.0, 0.5, 2.0)) < base
    assert ode_blowup_time(OdeProblem(1.0, 1.0, 2.0)) < base


SIGN_PATTERNS = [
    OdeProblem(1.0, math.sqrt(2.0 / 3.0), 2.0),
    OdeProblem(1.0, 0.0, 2.0),
    OdeProblem(0.5, 0.3, 3.0),
    # the other sign patterns, with turning points above and below 0
    OdeProblem(-0.5, 0.0, 2.0),
    OdeProblem(-0.5, 0.3, 3.0),
    OdeProblem(-1.5, 0.2, 2.0),
    OdeProblem(1.0, -0.5, 2.0),
    OdeProblem(0.5, -2.0, 2.0),
    OdeProblem(0.0, -0.5, 2.0),
    OdeProblem(-0.5, -0.3, 3.0),
    # at p = 4 the default thresholds come down with p
    OdeProblem(1.0, 0.0, 4.0),
    OdeProblem(2.0, 1.0, 4.0),
    OdeProblem(2.0, -1.0, 4.0),
]


@pytest.mark.parametrize("prob", SIGN_PATTERNS)
def test_quadrature_matches_trajectory_extrapolation(prob):
    t_quad = ode_blowup_time(prob)
    t_traj = blowup_time_from_trajectory(prob)
    assert abs(t_traj - t_quad) < 1e-6 * t_quad


@pytest.mark.parametrize("p", [1.0001, 1.03])
def test_trajectory_extrapolation_refuses_p_near_one(p):
    # 10^(10/(p-1)) raised OverflowError below p = 1.0325
    with pytest.raises(ValueError, match="30/29"):
        blowup_time_from_trajectory(OdeProblem(1.0, 0.0, p))


def test_negative_velocity_falls_back_to_trajectory():
    # the state first dips, turns at the potential barrier, then escapes
    t = ode_blowup_time(OdeProblem(1.0, -0.5, 2.0))
    assert t > ode_blowup_time(OdeProblem(1.0, 0.5, 2.0))
    assert math.isfinite(t)


def test_a_late_escape_obeys_the_scaling():
    # u -> lam^(2/(p-1)) u(lam t) maps solutions to solutions, so at p = 3
    # T*(u0 / 100) = 100 T*(u0); this escape lies beyond the trajectory
    # search horizon
    late = ode_blowup_time(OdeProblem(-1e-4, 0.0, 3.0))
    assert late > 1e4
    assert late == pytest.approx(100.0 * ode_blowup_time(OdeProblem(-1e-2, 0.0, 3.0)), rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_zero_energy_closed_form_from_small_to_large_data(p):
    # E0 = 0 gives u' = sqrt(2/(p+1)) u^((p+1)/2), which escapes at
    # T* = 2 / ((p-1) sqrt(2/(p+1)) u0^((p-1)/2))
    c = math.sqrt(2.0 / (p + 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u0 in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12):
            t = ode_blowup_time(OdeProblem(u0, c * u0 ** (0.5 * (p + 1.0)), p))
            assert t == pytest.approx(2.0 / ((p - 1.0) * c * u0 ** (0.5 * (p - 1.0))), rel=1e-13)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("lam", [1e-4, 1e2, 1e4, 1e8])
def test_the_quadrature_obeys_the_scaling_at_every_size(p, lam):
    # u -> lam^(2/(p-1)) u(lam t) maps solutions to solutions, so scaled
    # data escape lam times sooner; every sign pattern of (u0, v0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u0 in (0.7, -0.7, 0.0):
            for v0 in (0.4, -0.4, 0.0):
                if u0 == v0 == 0.0:
                    continue
                scaled = OdeProblem(
                    lam ** (2.0 / (p - 1.0)) * u0, lam ** ((p + 1.0) / (p - 1.0)) * v0, p
                )
                t = ode_blowup_time(OdeProblem(u0, v0, p))
                assert math.isfinite(t)
                assert ode_blowup_time(scaled) == pytest.approx(t / lam, rel=1e-12)


def test_a_large_start_escapes_at_the_scaled_time():
    # at u0 = 1e4 the unscaled escape integral overflowed and gave inf
    assert ode_blowup_time(OdeProblem(1e4, 0.0, 2.0)) == pytest.approx(
        T_STAR_FROM_REST / 100.0, rel=1e-12
    )


def test_a_fall_onto_the_rest_state_never_escapes():
    # zero energy with u0 > 0 and v0 < 0: u decays to 0 and never turns
    assert math.isinf(ode_blowup_time(OdeProblem(1.0, -math.sqrt(2.0 / 3.0), 2.0)))


def test_free_particle_trajectory():
    res = linear_mode_trajectory(0.0, 0.0, 1.0, 2.0, 3.0, np.linspace(0.0, 4.0, 9))
    assert not res.diverged
    assert np.allclose(res.u, 2.0 + 3.0 * res.t, atol=1e-12)
    assert np.allclose(res.v, 3.0, atol=1e-12)


def test_damped_oscillator_closed_form():
    # y'' + y' + y = 0 from (1, 0): roots (-1 +/- i sqrt(3)) / 2
    t_grid = np.linspace(0.0, 5.0, 26)
    res = linear_mode_trajectory(1.0, 0.0, 1.0, 1.0, 0.0, t_grid)
    w = math.sqrt(3.0) / 2.0
    exact = np.exp(-t_grid / 2.0) * (np.cos(w * t_grid) + np.sin(w * t_grid) / (2 * w))
    assert np.abs(res.u - exact).max() < 1e-8


@pytest.mark.parametrize("beta,k", [(0.0, 1.0), (1.0, 2.0), (-1.0, 0.5)])
def test_linear_mode_energy_never_increases(beta, k):
    t_grid = np.linspace(0.0, 6.0, 61)
    res = linear_mode_trajectory(k, beta, 1.0, 1.0, 0.3, t_grid)
    e = 0.5 * (res.v**2 + k * k * res.u**2)
    assert np.all(np.diff(e) <= 1e-12)


def test_nonlinear_trajectory_conserves_energy():
    prob = OdeProblem(1.0, 0.2, 2.0)
    e0 = ode_energy(prob.u0, prob.v0, prob.p)
    res = ode_trajectory(prob, np.linspace(0.0, 2.0, 21), divergence_threshold=1e6)
    kept = np.abs(res.u) < 1e6
    drift = [
        abs(ode_energy(u, v, prob.p) - e0) for u, v in zip(res.u[kept], res.v[kept])
    ]
    assert max(drift) < 1e-8


def test_trajectory_reports_divergence():
    prob = OdeProblem(1.0, math.sqrt(2.0 / 3.0), 2.0)
    res = ode_trajectory(prob, np.linspace(0.0, 3.0, 31), divergence_threshold=1e10)
    assert res.diverged
    # everything reported is finite and the cut happens just before sqrt(6)
    assert np.all(np.isfinite(res.u))
    assert res.t[-1] < math.sqrt(6.0) < 3.0


def test_trajectory_reports_divergence_without_a_finite_threshold():
    # with no threshold to reach, the run still ends at the blow-up: the
    # integrator cannot follow u past sqrt(6), and that counts as divergence
    prob = OdeProblem(1.0, math.sqrt(2.0 / 3.0), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ode_trajectory(
            prob, np.linspace(0.0, 3.0, 31), divergence_threshold=math.inf
        )
    assert res.diverged
    assert np.all(np.isfinite(res.u)) and np.all(np.isfinite(res.v))
    assert res.t[-1] < math.sqrt(6.0)


def test_trajectory_that_cannot_start_reports_the_initial_state():
    # |u0|^p overflows, so the integrator fails on its first step
    t_grid = np.linspace(0.0, 1.0, 5)
    res = ode_trajectory(OdeProblem(1e200, 0.0, 2.0), t_grid)
    assert res.diverged
    assert res.t.tolist() == [0.0]
    assert res.u.tolist() == [1e200] and res.v.tolist() == [0.0]
    assert res.t[-1] == 0.0


def test_package_import_leaves_scipy_unloaded():
    import blowuplab

    src = os.path.dirname(os.path.dirname(blowuplab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = "import sys, blowuplab, blowuplab.cli; print('scipy' in sys.modules)"
    # every oracle, and the oracle command, run on numpy alone
    calls = (
        "import sys, numpy as np\n"
        "from blowuplab import cli, oracles as o\n"
        "prob = o.OdeProblem(1.0, 0.5, 2.0)\n"
        "o.ode_blowup_time(prob)\n"
        "o.ode_trajectory(prob, np.linspace(0.0, 1.0, 5))\n"
        "o.linear_mode_trajectory(1.0, 0.0, 1.0, 1.0, 0.0, np.linspace(0.0, 1.0, 5))\n"
        "o.blowup_time_from_trajectory(prob)\n"
        "assert cli.main(['oracle', '--u0', '-0.5', '--v0', '-0.3', '--p', '3']) == 0\n"
        "print('scipy' in sys.modules)"
    )
    for code in (probe, calls):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


def test_trajectory_grid_validation():
    with pytest.raises(ValueError):
        ode_trajectory(OdeProblem(1.0, 0.0, 2.0), [0.0])
    with pytest.raises(ValueError):
        ode_trajectory(OdeProblem(1.0, 0.0, 2.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        linear_mode_trajectory(1.0, 0.0, 1.0, 1.0, 0.0, [-1.0, 2.0])


def _scipy_escape_time(prob):
    """The escape integral by scipy's quad in the plain variables: at unit
    scale, u = a + s^2 next to each start, and [u0 + 1, inf) in u, with no
    substitution for the tail."""
    u0, v0, p = prob.u0, prob.v0, prob.p
    a = max(abs(u0), abs(v0) ** (2.0 / (p + 1.0)))
    u0, v0 = u0 / a, v0 / a ** (0.5 * (p + 1.0))
    e0 = ode_energy(u0, v0, p)

    def speed_sq(u):
        return 2.0 * e0 + 2.0 * math.copysign(abs(u) ** (p + 1.0), u) / (p + 1.0)

    def rise(a, s_max):
        near = lambda s: 2.0 * s / math.sqrt(speed_sq(a + s * s))
        return quad(near, 0.0, s_max, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    t_turn = 0.0
    if v0 < 0.0:
        level = -(p + 1.0) * e0
        m = math.copysign(abs(level) ** (1.0 / (p + 1.0)), level)
        t_turn = 2.0 * rise(m, math.sqrt(u0 - m))
    far = quad(lambda u: 1.0 / math.sqrt(speed_sq(u)), u0 + 1.0, np.inf, epsabs=0.0, epsrel=1e-12,
               limit=200)[0]
    return (t_turn + rise(u0, 1.0) + far) * a ** (-0.5 * (p - 1.0))


@pytest.mark.parametrize("prob", SIGN_PATTERNS + [
    OdeProblem(1e4, 0.0, 2.0),
    OdeProblem(-1e-4, 0.0, 3.0),
    # near p = 1 the tail's energy term rises within (p - 1)/4 of x = 1
    OdeProblem(1.0, 0.0, 1.001),
    OdeProblem(-0.5, 0.2, 1.01),
])
def test_quadrature_matches_scipy_quad(prob):
    assert ode_blowup_time(prob) == pytest.approx(_scipy_escape_time(prob), rel=1e-11)


def test_gauss_kronrod_rule_is_exact_to_its_degrees():
    # the 15 Kronrod nodes integrate polynomials of degree 22 exactly, the
    # 7 Gauss nodes among them those of degree 13, and no more
    x, (kronrod, gauss) = oracles._GK_NODES, oracles._GK_WEIGHTS.T
    for degree in range(24):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert kronrod @ x**degree == pytest.approx(exact, abs=1e-15)
        if degree <= 13:
            assert gauss @ x**degree == pytest.approx(exact, abs=1e-15)
    assert abs(gauss @ x**14 - 2.0 / 15.0) > 1e-5


def _dop853(rhs, y0, t_grid):
    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), y0, method="DOP853", t_eval=t_grid,
                    rtol=1e-13, atol=1e-14)
    assert sol.success
    return sol.y


def test_source_trajectory_matches_dop853():
    prob = OdeProblem(1.0, 0.2, 2.0)
    t_grid = np.linspace(0.0, 2.5, 26)
    res = ode_trajectory(prob, t_grid)
    assert not res.diverged
    # every step lands on the samples: no interpolation
    assert res.t.tolist() == t_grid.tolist()
    u, v = _dop853(lambda t, y: (y[1], abs(y[0]) ** prob.p), [prob.u0, prob.v0], t_grid)
    assert np.abs(res.u / u - 1.0).max() < 1e-10
    assert np.abs(res.v / v - 1.0).max() < 1e-10


@pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("k, b0", [(1.0, 1.0), (2.5, 0.3), (0.7, 3.0)])
def test_linear_mode_trajectory_matches_dop853(beta, k, b0):
    t_grid = np.linspace(0.0, 6.0, 31)
    res = linear_mode_trajectory(k, beta, b0, 1.0, -0.4, t_grid)
    assert not res.diverged and res.t.tolist() == t_grid.tolist()

    def rhs(t, y):
        return y[1], -k * k * y[0] - b0 * (1.0 + t) ** (-beta) * k * k * y[1]

    u, v = _dop853(rhs, [1.0, -0.4], t_grid)
    # relative to the size of each component over the run, which decays
    assert np.abs(res.u - u).max() < 1e-10 * np.abs(u).max()
    assert np.abs(res.v - v).max() < 1e-10 * np.abs(v).max()


def test_trajectory_extrapolation_is_exact_on_the_zero_energy_escape():
    # u = 6 / (sqrt(6) - t)^2 makes u^(-1/2) linear in t, so the two
    # crossings extrapolate to sqrt(6) up to how well each is located
    t_star = blowup_time_from_trajectory(OdeProblem(1.0, math.sqrt(2.0 / 3.0), 2.0))
    assert t_star == pytest.approx(math.sqrt(6.0), rel=1e-12)
