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
    """u samples at t_end of the semi-discrete system, by DOP853."""
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
    return from_half_spectrum(sol.y[:n, -1], grid)


# (beta, t_end, the relative sup-norm error of u at t_end at tol 1e-6 that
# the third-order extrapolated IMEX attempt gave, rounded up).  The runs
# blow up at t* = 2.024, 2.113, 2.242 and 2.700, where sup |u| at t_end is
# 415, 519, 347 and 197; the Strang attempt measured 1.9e-7, 1.6e-7, 5.4e-8
# and 2.8e-9.
CASES = [(1.0, 1.9, 7.8e-6), (0.0, 2.0, 8.3e-6), (-1.0, 2.1, 4.7e-6), (-3.0, 2.5, 1.5e-6)]


@pytest.mark.parametrize("beta, t_end, before", CASES)
def test_adaptive_end_state_is_no_worse_than_the_imex_extrapolation(beta, t_end, before):
    # 1-D, N = 256, L = 16, a bump of amplitude 10 on u1, p = 2
    grid = Grid(1, 256, 16.0)
    init = make_initial_data(constant_field(grid, 0.0), bump_data(grid, 10.0), compact_support=True)
    params = Params(n=1, p=2.0, beta=beta)
    report = simulate(params, init, Controls(t_end=t_end, tol=1e-6, boundary_check=False))
    assert report.outcome is Outcome.COMPLETED_HORIZON
    reference = _referee(params, init, t_end)
    error = np.abs(report.final_state.u.values - reference).max() / np.abs(reference).max()
    assert error <= before
