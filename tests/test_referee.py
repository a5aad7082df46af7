"""An independent referee for the adaptive solver on nonlinear, spatially
varying runs: scipy's DOP853 at rtol = atol = 1e-13 on the solver's
semi-discrete system in half-spectrum coefficients,

    u_hat' = v_hat,    v_hat' = -k^2 u_hat - b(t) k^2 v_hat + F[|u|^p],

to a fixed time before blow-up.  It shares only the transforms and |k|^2
with the solver, so it checks the time integration alone.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blowuplab.grids import Grid, constant_field, from_half_spectrum, half_k_squared, half_spectrum
from blowuplab.model import Params, bump_data, damping_coeff, make_initial_data
from blowuplab.stepper import Controls, Outcome, simulate


def _referee(params, init, t_end):
    """u and v samples at t_end of the semi-discrete system, by DOP853."""
    grid = init.u0.grid
    k2 = half_k_squared(grid)
    n = k2.size

    def rhs(t, y):
        u, v = y[:n], y[n:]
        source = half_spectrum(np.abs(from_half_spectrum(u, grid)) ** params.p, grid)
        return np.concatenate((v, -k2 * u - damping_coeff(t, params) * k2 * v + source))

    y0 = np.concatenate((half_spectrum(init.u0.values, grid), half_spectrum(init.u1.values, grid)))
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success
    return from_half_spectrum(sol.y[:n, -1], grid), from_half_spectrum(sol.y[n:, -1], grid)


# (b0, beta, t_end, the bound on the relative sup-norm error of u at
# t_end at tol 1e-6; v's is bounded by tol itself in every case, where
# 3.9e-7, 2.9e-7, 1.2e-7, 9.4e-8 and 2.7e-7 were measured).  The first four bounds are the error the third-order
# extrapolated IMEX attempt gave, rounded up: those runs blow up at
# t* = 2.024, 2.113, 2.242 and 2.700, where sup |u| at t_end is 415, 519,
# 347 and 197, and the Strang attempt measured 1.9e-7, 1.6e-7, 5.4e-8 and
# 2.8e-9.  The last run is all but undamped, so its top modes oscillate at
# nearly |k| and only the error estimate keeps the steps clear of the
# splitting's resonances; it blows up at t* = 1.6955, tol alone sizes steps
# up to H max|k| = 2.2, and its bound is tol itself (1.5e-7 measured).
CASES = [
    (1.0, 1.0, 1.9, 7.8e-6),
    (1.0, 0.0, 2.0, 8.3e-6),
    (1.0, -1.0, 2.1, 4.7e-6),
    (1.0, -3.0, 2.5, 1.5e-6),
    (1e-6, 0.0, 1.5, 1e-6),
]


# the ids name b0 only where it is not the default 1
@pytest.mark.parametrize("b0, beta, t_end, bound", CASES, ids=[
    ("" if b0 == 1.0 else f"b0={b0}-") + f"{beta}-{t_end}-{bound}" for b0, beta, t_end, bound in CASES
])
def test_adaptive_end_state_is_no_worse_than_the_imex_extrapolation(b0, beta, t_end, bound):
    # 1-D, N = 256, L = 16, a bump of amplitude 10 on u1, p = 2
    grid = Grid(1, 256, 16.0)
    init = make_initial_data(constant_field(grid, 0.0), bump_data(grid, 10.0), compact_support=True)
    params = Params(n=1, p=2.0, beta=beta, b0=b0)
    report = simulate(params, init, Controls(t_end=t_end, tol=1e-6, boundary_check=False))
    assert report.outcome is Outcome.COMPLETED_HORIZON
    u, v = _referee(params, init, t_end)
    final = report.final_state
    assert np.abs(final.u.values - u).max() / np.abs(u).max() <= bound
    assert np.abs(final.v.values - v).max() / np.abs(v).max() <= 1e-6
