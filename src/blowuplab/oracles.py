"""Independent ground-truth generators for the spatially homogeneous limits.

Two problem shapes are covered:

* the space-free source equation u'' = |u|^p, whose conserved energy
  E = v^2/2 - V(u), V(u) = sign(u)|u|^(p+1)/(p+1), turns the blow-up time
  into the quadrature T* = integral over [u0, inf) of du / sqrt(2 E0 + 2 V(u)),
  plus, when v0 < 0, twice the time from the turning point up to u0;
* the per-mode linear equation y'' + b0 (1+t)^(-beta) k^2 y' + k^2 y = 0.

Everything here is numpy and the standard library, so no oracle loads
scipy.  The escape integral is taken by adaptive Gauss-Kronrod 7/15
quadrature (Piessens et al., QUADPACK, 1983).  Trajectories come from one
integrator, Gragg-Bulirsch-Stoer extrapolation of the modified midpoint rule
(Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I, 1993,
section II.9) at rtol = 1e-13 and atol = 1e-14, on states (u, v) held as
one Python complex u + iv.  Its steps land on every requested sample, so it
needs no dense output, and a threshold crossing is found inside the step
that makes it by Henon's swap of the independent variable to u (Physica D
5, 1982).
"""

import cmath
import heapq
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

# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK's qk15), from the centre out: the
# Kronrod nodes, their weights, and the Gauss weights of every other node
_GK_HALF = np.array([
    (0.0, 0.209482141084727828, 0.417959183673469388),
    (0.207784955007898468, 0.204432940075298892, 0.0),
    (0.405845151377397167, 0.190350578064785410, 0.381830050505118945),
    (0.586087235467691130, 0.169004726639267903, 0.0),
    (0.741531185599394440, 0.140653259715525919, 0.279705391489276668),
    (0.864864423359769073, 0.104790010322250184, 0.0),
    (0.949107912342758525, 0.063092092629978553, 0.129484966168869693),
    (0.991455371120812639, 0.022935322010529225, 0.0),
])
_GK_NODES = np.concatenate((-_GK_HALF[:0:-1, 0], _GK_HALF[:, 0]))
_GK_WEIGHTS = np.concatenate((_GK_HALF[:0:-1, 1:], _GK_HALF[:, 1:]))

# substeps of the modified midpoint rule in the rows of the extrapolation tableau
_SUBSTEPS = (2, 4, 6, 8, 10, 12, 14, 16)
# Aitken-Neville in h^2: row j's i-th column divides by (n_j / n_(j-i))^2 - 1
_NEVILLE = [
    [1.0 / ((n / _SUBSTEPS[j - i]) ** 2 - 1.0) for i in range(1, j + 1)]
    for j, n in enumerate(_SUBSTEPS)
]


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


def _integrate(f, a: float, b: float) -> float:
    """The integral of f over [a, b] by adaptive Gauss-Kronrod 7/15: the
    piece whose |K15 - G7| is largest is halved until those estimates sum to
    at most QUAD_RTOL / 4 of the total, or there are 200 pieces.  f takes an
    array of points."""

    def pieces(lo, hi):  # (-error, value, lo, hi) of the pieces [lo, hi]
        lo, hi = np.array(lo), np.array(hi)
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, np.newaxis] + half[:, np.newaxis] * _GK_NODES
        kronrod, gauss = (f(x) @ _GK_WEIGHTS).T * half
        return list(zip((-abs(kronrod - gauss)).tolist(), kronrod.tolist(), lo.tolist(), hi.tolist()))

    heap = pieces([a], [b])
    while -sum(h[0] for h in heap) > QUAD_RTOL / 4 * abs(sum(h[1] for h in heap)) and len(heap) < 200:
        _, _, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for piece in pieces([lo, mid], [mid, hi]):
            heapq.heappush(heap, piece)
    return math.fsum(h[1] for h in heap)


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
    integrands: u0 = 1e4 at p = 2 gave inf.  Past c = max(u0 + 1, 1) the
    substitution u = c x^(-2/(p-1)) maps the tail [c, inf) onto (0, 1],
    where the integrand is bounded and smooth; a plain piece covers
    [u0 + 1, c] when u0 < 0.
    """
    u0, v0, p = prob.u0, prob.v0, prob.p
    if u0 == 0.0 and v0 == 0.0:
        return math.inf
    # u -> a u(a^((p-1)/2) t) maps solutions to solutions
    a = max(abs(u0), abs(v0) ** (2.0 / (p + 1.0)))
    u0, v0 = u0 / a, v0 / a ** (0.5 * (p + 1.0))
    e0 = ode_energy(u0, v0, p)

    def speed_sq(u):
        return 2.0 * e0 + 2.0 * np.copysign(np.abs(u) ** (p + 1.0), u) / (p + 1.0)

    # the time from a up to a + s_max^2, substituting u = a + s^2; removes
    # the inverse-square-root singularity where the speed vanishes at a
    def rise(a, s_max):
        return _integrate(lambda s: 2.0 * s / np.sqrt(speed_sq(a + s * s)), 0.0, s_max)

    t_turn = 0.0
    if v0 < 0.0:
        level = -(p + 1.0) * e0  # sign(m)|m|^(p+1)
        m = math.copysign(abs(level) ** (1.0 / (p + 1.0)), level)
        if m == 0.0:
            return math.inf
        t_turn = 2.0 * rise(m, math.sqrt(u0 - m))
    c = max(u0 + 1.0, 1.0)
    t_mid = _integrate(lambda u: 1.0 / np.sqrt(speed_sq(u)), u0 + 1.0, c) if c > u0 + 1.0 else 0.0
    # the tail in x, where u = c x^(-2/(p-1)) and du / sqrt(speed_sq(u)) is
    # (2/(p-1)) c dx / sqrt(2 E0 x^q + 2 c^(p+1)/(p+1)), q = 2(p+1)/(p-1);
    # below x_s = 2^(-52/q) the integrand is constant to roundoff, and past
    # it x^q rises within 1/q of x = 1 as p nears 1, where the quadrature
    # would see no rise among nodes spread over [0, 1]
    q, top = 2.0 * (p + 1.0) / (p - 1.0), 2.0 * c ** (p + 1.0) / (p + 1.0)

    def tail(x):
        return (2.0 / (p - 1.0)) * c / np.sqrt(2.0 * e0 * x**q + top)

    x_s = 2.0 ** (-52.0 / q)
    t_tail = x_s * float(tail(0.0)) + _integrate(tail, x_s, 1.0)
    return (t_turn + rise(u0, 1.0) + t_mid + t_tail) * a ** (-0.5 * (p - 1.0))


def _attempt(rhs, t, z, dz, H):
    """One extrapolated step of size H from the state z, whose derivative
    is dz: rows of the modified midpoint rule with 2, 4, 6, ... substeps,
    extrapolated in h^2 until the gap between the last two columns is
    within RTOL and ATOL in u and in v.  Returns the state there, or None
    when no column gets there, and the factor for the next step's size."""
    prev = ()
    for j, n in enumerate(_SUBSTEPS):
        h = H / n
        z0, z1 = z, z + h * dz
        try:
            for i in range(1, n):
                z0, z1 = z1, z0 + 2.0 * h * rhs(t + i * h, z1)
        except (OverflowError, ZeroDivisionError):  # shrink as far as a step may
            return None, 0.2
        prev = row = [z1, *prev]
        for i, c in enumerate(_NEVILLE[j], 1):
            row[i] = row[i - 1] + (row[i - 1] - row[i]) * c
        if j == 0:
            continue
        new, gap = row[j], row[j] - row[j - 1]
        err = max(
            abs(gap.real) / (ATOL + RTOL * max(abs(z.real), abs(new.real))),
            abs(gap.imag) / (ATOL + RTOL * max(abs(z.imag), abs(new.imag))),
        )
        if not math.isfinite(err):
            return None, 0.2
        # the gap of column j shrinks as H^(2j+1)
        factor = min(4.0, max(0.2, 0.94 * (0.65 / err) ** (1.0 / (2 * j + 1)))) if err else 4.0
        if err <= 1.0:
            return new, factor
    return None, factor


def _steps(rhs, t, z, stops):
    """The oracles' one integrator, for z' = rhs(t, z), where the state
    z = u + iv is a Python complex: yields (t, z) after every accepted
    step, toward the increasing stops, on each of which a step lands
    exactly, and returns after the last, or once a step underflows or the
    derivative at an accepted state is not finite.  A step cut short to
    land on a stop leaves the next step's size as it was."""
    stops = iter(stops)
    stop = next(stops)
    H = stop - t
    while True:
        try:
            dz = rhs(t, z)
        except (OverflowError, ZeroDivisionError):
            return
        if not cmath.isfinite(dz):
            return
        new = None
        while new is None:
            h = min(H, stop - t)
            if t + h == t:
                return
            new, factor = _attempt(rhs, t, z, dz, h)
            if new is None or h == H:
                H = h * factor
        t, z = (stop if h == stop - t else t + h), new
        yield t, z
        if t == stop:
            stop = next(stops, None)
            if stop is None:
                return


def _check_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two entries")
    return t_grid


def _sample(rhs, u0, v0, t_grid, threshold=math.inf) -> OdeResult:
    """The trajectory from (u0, v0) at the samples of t_grid, up to the
    first step that ends with |u| at or above threshold, or at which the
    integrator stops; diverged when that leaves samples out."""
    times = t_grid.tolist()
    kept = [complex(u0, v0)]
    for t, z in _steps(rhs, times[0], kept[0], times[1:]):
        if not abs(z.real) < threshold:
            break
        if t == times[len(kept)]:
            kept.append(z)
    z = np.array(kept)
    return OdeResult(t_grid[: len(kept)].copy(), z.real.copy(), z.imag.copy(), len(kept) < len(times))


def _source_rhs(p):
    p = float(p)
    return lambda t, z: complex(z.imag, abs(z.real) ** p)


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
    return _sample(_source_rhs(prob.p), prob.u0, prob.v0, t_grid, divergence_threshold)


def linear_mode_trajectory(k, beta, b0, u0, v0, t_grid) -> OdeResult:
    """Integrate y'' + b0 (1+t)^(-beta) k^2 y' + k^2 y = 0 on t_grid."""
    t_grid = _check_grid(t_grid)
    if t_grid[0] < 0:
        raise ValueError("damping coefficient is defined for t >= 0 only")
    k2, beta, b0 = float(k) * float(k), float(beta), float(b0)

    def rhs(t, z):
        return complex(z.imag, -k2 * z.real - b0 * (1.0 + t) ** (-beta) * k2 * z.imag)

    return _sample(rhs, u0, v0, t_grid)


def _crossing(rhs, t, z, m) -> float:
    """The time at which the trajectory through (t, z), rising, reaches
    u = m, integrated with u as the independent variable: the state t + iv
    has dt/du = 1/v and dv/du = u''/v."""

    def swapped(u, w):
        return complex(1.0, rhs(w.real, complex(u, w.imag)).imag) / w.imag

    end = (z.real, t)
    for end in _steps(swapped, z.real, complex(t, z.imag), [m]):
        pass
    if end[0] != m:
        raise RuntimeError(f"the integrator stopped before u reached {m:g}")
    return end[1].real


def blowup_time_from_trajectory(prob: OdeProblem) -> float:
    """Estimate the blow-up time from threshold-crossing times.

    The first upward crossings of the thresholds M = 10^(9/(p-1)) and
    10^(10/(p-1)) (1e9 and 1e10 at p = 2) are located in the steps that make
    them, and the run ends at the second.  Near blow-up u^(-(p-1)/2) decays
    linearly, so the crossing time of M lags T* by C * M^(-(p-1)/2);
    extrapolating over the two crossings removes that bias.  Thresholds that
    come down with p sit at the same distances M^(-(p-1)/2) from T* for
    every p; fixed ones as large as 1e10 lie beyond what the integrator
    reaches at p = 4.  A p below 30/29 is refused: there |u|^p at the top
    threshold, 10^(10p/(p-1)), would pass 1e300.
    """
    if 10.0 * prob.p / (prob.p - 1.0) > 300.0:
        raise ValueError(f"p = {prob.p:g} is below 30/29; its thresholds leave float range")
    m1, m2 = 10.0 ** (9 / (prob.p - 1.0)), 10.0 ** (10 / (prob.p - 1.0))
    alpha = 0.5 * (prob.p - 1.0)
    rhs = _source_rhs(prob.p)
    crossed = {}
    last = (0.0, complex(prob.u0, prob.v0))
    for step in _steps(rhs, *last, [T_CAP]):
        for m in (m1, m2):
            if m not in crossed and last[1].real < m <= step[1].real:
                crossed[m] = _crossing(rhs, *last, m)
        if m2 in crossed:
            break
        last = step
    if len(crossed) < 2:
        raise RuntimeError(
            f"no blow-up beyond {m2:g} before t = {T_CAP:g}; "
            "the trajectory does not escape on this horizon"
        )
    t1, t2 = crossed[m1], crossed[m2]
    a1, a2 = m1**alpha, m2**alpha
    return float((t2 * a2 - t1 * a1) / (a2 - a1))
