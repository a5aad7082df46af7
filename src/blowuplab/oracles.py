"""Independent ground-truth generators for the spatially homogeneous limits.

Two problem shapes are covered:

* the space-free source equation u'' = |u|^p, whose conserved energy
  E = v^2/2 - V(u), V(u) = sign(u)|u|^(p+1)/(p+1), turns the blow-up time
  into the quadrature T* = integral over [u0, inf) of du / sqrt(2 E0 + 2 V(u)),
  plus, when v0 < 0, twice the time from the turning point up to u0;
* the per-mode linear equation y'' + b0 (1+t)^(-beta) k^2 y' + k^2 y = 0.

Trajectories come from one integrator, scipy's embedded Dormand-Prince
8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, 1993) at rtol = 1e-13 and atol = 1e-14.  Threshold crossings
are located as integrator events on its dense output.  scipy is imported by
the functions that use it, so importing the package does not load it.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OdeProblem",
    "OdeResult",
    "ode_energy",
    "ode_blowup_time",
    "ode_trajectory",
    "linear_mode_trajectory",
    "blowup_time_from_trajectory",
]

RTOL = 1e-13
ATOL = 1e-14
# relative tolerance of the escape-time quadrature in ode_blowup_time
QUAD_RTOL = 1e-9
# the horizon within which blowup_time_from_trajectory looks for the escape
T_CAP = 1e4


@dataclass(frozen=True)
class OdeProblem:
    u0: float
    v0: float
    p: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")


@dataclass
class OdeResult:
    """Trajectory samples; truncated at the last finite time when the run
    diverged before the end of the requested grid."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    diverged: bool


def ode_energy(u: float, v: float, p: float) -> float:
    """Conserved energy of u'' = |u|^p (the potential is odd in u because the
    force |u|^p is even)."""
    potential = math.copysign(abs(u) ** (p + 1.0) / (p + 1.0), u)
    return 0.5 * v * v - potential


def ode_blowup_time(prob: OdeProblem) -> float:
    """Blow-up time of u'' = |u|^p by adaptive quadrature of the escape
    integral, for every sign pattern of (u0, v0).

    Since u'' >= 0 the velocity never decreases.  With v0 >= 0 the state
    rises from u0 for good.  With v0 < 0 it first falls to the turning point
    m, where V(m) = V(u0) - v0^2/2, and the fall takes as long as the rise
    back to u0, so twice that rise is added.  The rest position (0, 0), and
    a fall that only approaches it (m = 0), return inf.

    The integrals are taken at unit scale: with a = max(|u0|, |v0|^(2/(p+1)))
    the escape of (u0 / a, v0 / a^((p+1)/2)) is integrated and its time
    multiplied by a^(-(p-1)/2).  Unscaled, large data overflowed the
    integrands: u0 = 1e4 at p = 2 gave inf.
    """
    u0, v0, p = prob.u0, prob.v0, prob.p
    if u0 == 0.0 and v0 == 0.0:
        return math.inf
    # u -> a u(a^((p-1)/2) t) maps solutions to solutions
    a = max(abs(u0), abs(v0) ** (2.0 / (p + 1.0)))
    u0, v0 = u0 / a, v0 / a ** (0.5 * (p + 1.0))

    from scipy.integrate import quad

    e0 = ode_energy(u0, v0, p)

    def speed_sq(u):  # u is one point: quad calls the integrands point by point
        signed_power = u ** (p + 1.0) if u >= 0 else -((-u) ** (p + 1.0))
        return 2.0 * e0 + 2.0 * signed_power / (p + 1.0)

    # the time from a up to a + s_max^2, substituting u = a + s^2; removes
    # the inverse-square-root singularity where the speed vanishes at a
    def rise(a, s_max):
        def near(s):
            s = np.asarray(s)
            return 2.0 * s / np.sqrt(speed_sq(a + s * s))

        return quad(near, 0.0, s_max, epsabs=0.0, epsrel=QUAD_RTOL / 4, limit=200)[0]

    def far(u):
        return 1.0 / np.sqrt(speed_sq(np.asarray(u)))

    t_turn = 0.0
    if v0 < 0.0:
        level = -(p + 1.0) * e0  # sign(m)|m|^(p+1)
        m = math.copysign(abs(level) ** (1.0 / (p + 1.0)), level)
        if m == 0.0:
            return math.inf
        t_turn = 2.0 * rise(m, math.sqrt(u0 - m))
    t_far, _ = quad(far, u0 + 1.0, np.inf, epsabs=0.0, epsrel=QUAD_RTOL / 4, limit=200)
    return (t_turn + rise(u0, 1.0) + t_far) * a ** (-0.5 * (p - 1.0))


def _solve(rhs, y0, t_span, t_eval=None, events=None):
    """The oracles' one integrator.  Overflow near a blow-up only makes the
    step fail, so numpy's warnings about it are silenced."""
    from scipy.integrate import solve_ivp

    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(
            rhs, t_span, y0, method="DOP853", t_eval=t_eval, events=events,
            rtol=RTOL, atol=ATOL,
        )


def _check_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two entries")
    return t_grid


def _source_rhs(p):
    return lambda t, y: (y[1], abs(y[0]) ** p)


def ode_trajectory(
    prob: OdeProblem, t_grid, divergence_threshold: float = 1e10
) -> OdeResult:
    """Integrate u'' = |u|^p on the given increasing time grid.

    Stops once |u| reaches the divergence threshold, or the integrator can
    no longer advance, and then reports the samples collected before that;
    when the integrator cannot take even its first step, that is the
    initial state alone.
    """
    t_grid = _check_grid(t_grid)

    def escaped(t, y):
        return abs(y[0]) - divergence_threshold

    escaped.terminal = True
    sol = _solve(
        _source_rhs(prob.p), [prob.u0, prob.v0], (t_grid[0], t_grid[-1]),
        t_eval=t_grid, events=escaped,
    )
    if len(sol.t) == 0:
        start = np.array([[prob.u0], [prob.v0]], dtype=float)
        return OdeResult(t_grid[:1], start[0], start[1], diverged=True)
    return OdeResult(sol.t, sol.y[0], sol.y[1], diverged=len(sol.t) < len(t_grid))


def linear_mode_trajectory(k, beta, b0, u0, v0, t_grid) -> OdeResult:
    """Integrate y'' + b0 (1+t)^(-beta) k^2 y' + k^2 y = 0 on t_grid."""
    t_grid = _check_grid(t_grid)
    if t_grid[0] < 0:
        raise ValueError("damping coefficient is defined for t >= 0 only")
    k2 = float(k) * float(k)

    def rhs(t, y):
        return y[1], -k2 * y[0] - b0 * (1.0 + t) ** (-beta) * k2 * y[1]

    sol = _solve(rhs, [float(u0), float(v0)], (t_grid[0], t_grid[-1]), t_eval=t_grid)
    return OdeResult(sol.t, sol.y[0], sol.y[1], diverged=False)


def blowup_time_from_trajectory(prob: OdeProblem) -> float:
    """Estimate the blow-up time from threshold-crossing times.

    The upward crossings of the thresholds M = 10^(9/(p-1)) and
    10^(10/(p-1)) (1e9 and 1e10 at p = 2) are integrator events.  Near
    blow-up u^(-(p-1)/2) decays linearly, so the crossing time of M lags T*
    by C * M^(-(p-1)/2); extrapolating over the two crossings removes that
    bias.  Thresholds that come down with p sit at the same distances
    M^(-(p-1)/2) from T* for every p; fixed ones as large as 1e10 lie beyond
    what the integrator reaches at p = 4.  A p below 30/29 is refused: there
    |u|^p at the top threshold, 10^(10p/(p-1)), would pass 1e300.
    """
    if 10.0 * prob.p / (prob.p - 1.0) > 300.0:
        raise ValueError(f"p = {prob.p:g} is below 30/29; its thresholds leave float range")
    m1, m2 = 10.0 ** (9 / (prob.p - 1.0)), 10.0 ** (10 / (prob.p - 1.0))
    alpha = 0.5 * (prob.p - 1.0)

    def crossing(m, terminal):
        def event(t, y):
            return y[0] - m

        event.direction = 1.0
        event.terminal = terminal
        return event

    sol = _solve(
        _source_rhs(prob.p), [prob.u0, prob.v0], (0.0, T_CAP),
        events=[crossing(m1, False), crossing(m2, True)],
    )
    if any(len(times) == 0 for times in sol.t_events):
        raise RuntimeError(
            f"no blow-up beyond {m2:g} before t = {T_CAP:g}; "
            "the trajectory does not escape on this horizon"
        )
    t1, t2 = sol.t_events[0][0], sol.t_events[1][0]
    a1, a2 = m1**alpha, m2**alpha
    return float((t2 * a2 - t1 * a1) / (a2 - a1))
