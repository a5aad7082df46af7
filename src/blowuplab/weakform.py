"""Compactly supported space-time windows and the weak-form bookkeeping.

The window is psi(x, t) = psi1(x)^ell * psi2(t)^eta with
psi1(x) = cutoff(|x| / T^d) and psi2(t) = cutoff(t / T), where `cutoff` is a
smooth non-increasing profile equal to 1 on [0, 1/2] and 0 on [1, inf).  Every
weak-form inequality term is an integral of powers of the window and its
derivatives, and each scales as a pure power of the horizon T; verifying the
fitted slopes against the predicted exponents is how the blow-up mechanism is
checked at desk scale: below the critical exponent every window term decays
while the velocity-mean data term does not.

The transition of the cutoff uses the standard smooth step built from
exp(-1/s), so the window really is infinitely differentiable and no corner
spikes pollute the slope fits.

Sums over time samples run on stacks of samples, and the window integrals
that share an interval are refined on shared points.  Each sample and each
integrand still meets the operations of a per-sample loop and of its own
refinement, so the numbers are theirs bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exponents import conjugate_exponent
from .grids import Field, Grid, laplacian, to_full_grid
from .model import Params, bump_data, damping_coeff

__all__ = [
    "CutoffSpec",
    "TERM_NAMES",
    "cutoff",
    "cutoff_d1",
    "cutoff_d2",
    "weak_residual",
    "weak_identity_terms",
    "term_bundle",
    "slope_fit",
    "predicted_exponents",
    "measure_term_slopes",
    "manufactured_crosscheck",
]

# bytes of one stack of time samples in the weak-form sums: a stack and its
# temporaries stay in cache and add little to a trajectory held in memory
STACK_BYTES = 2**16


# ---------------------------------------------------------------------------
# cutoff profile


def _profiles(r, order: int = 2) -> list:
    """`cutoff` and its first `order` derivatives at r."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("cutoff is defined for r >= 0")
    mid = (arr > 0.5) & (arr < 1.0)
    s = np.where(mid, 2.0 * (1.0 - arr), 0.5)  # placeholder outside the zone
    fs = np.exp(-1.0 / s)
    f1 = np.exp(-1.0 / (1.0 - s + 1e-300))
    # guard: at s exactly 1 the second factor is exp(-inf) = 0
    f1 = np.where(s >= 1.0, 0.0, f1)
    g = fs + f1
    out = [np.where(mid, fs / g, np.where(arr <= 0.5, 1.0, 0.0))]
    if order > 0:
        inv_s, inv_c, g2 = s**-2, (1.0 - s) ** -2, g**2
        num = fs * f1 * (inv_s + inv_c)
        out.append(np.where(mid, -2.0 * (num / g2), 0.0))
    if order > 1:
        inv4 = s**-4 + (1.0 - s) ** -4
        gp = fs * inv_s - f1 * inv_c
        nump = fs * f1 * (1.0 - 2.0 * s) * inv4
        hpp = nump / g2 - 2.0 * num * gp / g**3
        out.append(np.where(mid, 4.0 * hpp, 0.0))
    return [float(o) for o in out] if np.isscalar(r) else out


def cutoff(r):
    """Smooth non-increasing profile: 1 on [0, 1/2], 0 on [1, inf)."""
    return _profiles(r, 0)[0]


def cutoff_d1(r):
    """First derivative of `cutoff`; supported on (1/2, 1), nonpositive."""
    return _profiles(r, 1)[1]


def cutoff_d2(r):
    """Second derivative of `cutoff`; supported on (1/2, 1)."""
    return _profiles(r, 2)[2]


# ---------------------------------------------------------------------------
# window specification


@dataclass(frozen=True)
class CutoffSpec:
    """Parameters of the space-time window.

    ell, eta   integer powers on the space and time cutoffs, at least 3 and
               large enough that ell - 2p' and eta - 2p' stay positive for
               the exponent p in play (see check_exponents)
    d          space scale exponent: the spatial support has radius T^d
    T          horizon, > 1
    """

    ell: int
    eta: int
    d: float
    T: float

    def __post_init__(self):
        if self.ell < 3 or self.eta < 3:
            raise ValueError(f"ell and eta must be >= 3, got {self.ell}, {self.eta}")
        if not self.d > 0:
            raise ValueError(f"d must be positive, got {self.d}")
        if not self.T > 1:
            raise ValueError(f"T must exceed 1, got {self.T}")

    def check_exponents(self, p: float) -> None:
        pp = conjugate_exponent(p)
        if self.ell <= 2 * pp or self.eta <= 2 * pp:
            raise ValueError(
                f"window powers too small for p = {p}: need ell, eta > {2 * pp}, "
                f"got ell = {self.ell}, eta = {self.eta}"
            )

    @property
    def space_radius(self) -> float:
        return self.T**self.d


def _time_window(spec: CutoffSpec, t) -> tuple:
    """psi2^eta and its first two time derivatives at time t (scalar or
    array)."""
    T, eta = spec.T, spec.eta
    p2, d1, d2 = _profiles(t / T)
    d1, d2 = d1 / T, d2 / T**2
    val = p2**eta
    vel = eta * p2 ** (eta - 1) * d1
    acc = eta * p2 ** (eta - 1) * d2 + eta * (eta - 1) * p2 ** (eta - 2) * d1 * d1
    return val, vel, acc


def _radial(spec: CutoffSpec, n: int, r) -> tuple:
    """psi1, Lap(psi1) and |grad psi1|^2 at radii r, via the radial
    Laplacian cutoff'' + (n-1) cutoff'/rho; the origin limit is 0 because
    the profile is flat there."""
    rr = np.asarray(r, dtype=float)
    td = spec.space_radius
    rho = rr / td
    p1, d1, d2 = _profiles(rho)
    grad_sq = (d1 / td) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rho > 0, d1 / np.where(rho > 0, rho, 1.0), 0.0)
    lap1 = (d2 + (n - 1) * ratio) / td**2
    return p1, lap1, grad_sq


def _space_window(spec: CutoffSpec, n: int, r) -> tuple:
    """psi1^ell and Lap(psi1^ell) at radii r."""
    p1, lap1, grad_sq = _radial(spec, n, r)
    ell = spec.ell
    lap = ell * p1 ** (ell - 1) * lap1 + ell * (ell - 1) * p1 ** (ell - 2) * grad_sq
    return p1**ell, lap


def _chunks(count: int, grid: Grid) -> list:
    """Row slices that stack `count` fields on the grid STACK_BYTES at a time."""
    rows = max(1, STACK_BYTES // (8 * grid.num_points))
    return [slice(i, i + rows) for i in range(0, count, rows)]


# ---------------------------------------------------------------------------
# weak-form identity


def weak_identity_terms(u_traj, u0: Field, u1: Field, spec: CutoffSpec, params: Params, T: float) -> dict:
    """All named integrals of the weak identity for a trajectory sampled on a
    uniform time grid covering [0, T].

    The identity moves every derivative onto the window, so only u itself is
    integrated: for a true solution the combination in 'residual' vanishes,
    and for any smooth trajectory it equals minus the windowed integral of
    the strong-form defect.
    """
    if abs(T - spec.T) > 1e-12 * max(1.0, T):
        raise ValueError(f"horizon mismatch: T = {T} but window has T = {spec.T}")
    if len(u_traj) < 2:
        raise ValueError("need at least two time samples")
    # the rectangle rule below sums the full grid: fields on an even grid,
    # such as the snapshots of a run of even 2-D or 3-D data, are mirrored
    u0, u1, *u_traj = [to_full_grid(f) if f.grid.even else f for f in (u0, u1, *u_traj)]
    grid = u0.grid
    for f in (u1, *u_traj):
        if f.grid != grid:
            raise ValueError("all fields must share one grid")
    if grid.dim != params.n:
        raise ValueError(f"grid dim {grid.dim} does not match params.n = {params.n}")
    if spec.space_radius > grid.half_width:
        raise ValueError(
            f"window radius {spec.space_radius} exceeds box half-width {grid.half_width}"
        )
    spec.check_exponents(params.p)

    times = np.linspace(0.0, T, len(u_traj))
    meas = grid.spacing**grid.dim
    val_x, lap_x = _space_window(spec, params.n, grid.radii())

    b0 = params.b0
    beta = params.beta
    values = [f.values for f in u_traj]
    weights = val_x.ravel(), lap_x.ravel()
    sums = []
    for rows in _chunks(len(values), grid):
        block = np.stack(values[rows]).reshape(-1, grid.num_points)
        sums.append([(block * w).sum(axis=1) for w in weights])
        if params.nonlinear:
            sums[-1].append((np.abs(block) ** params.p * weights[0]).sum(axis=1))
    m_win, m_lap, *src = (np.concatenate(col) * meas for col in zip(*sums))
    src = src[0] if src else np.zeros(len(times))

    w_val, w_vel, w_acc = _time_window(spec, times)

    terms = {
        "source": float(np.trapezoid(src * w_val, times)),
        "data_u1": (u1.values * val_x).sum() * meas,
        "data_u0_lap": b0 * (u0.values * lap_x).sum() * meas,
        "data_u0_psit": (u0.values * val_x).sum() * meas * _time_window(spec, 0.0)[1],
        "int_psitt": float(np.trapezoid(m_win * w_acc, times)),
        "int_damping": float(
            np.trapezoid(b0 * (1.0 + times) ** (-beta) * m_lap * w_vel, times)
        ),
        "int_lap": float(np.trapezoid(m_lap * w_val, times)),
        "int_beta": float(
            np.trapezoid(b0 * beta * (1.0 + times) ** (-beta - 1.0) * m_lap * w_val, times)
        ),
    }
    lhs = terms["source"] + terms["data_u1"] - terms["data_u0_lap"] - terms["data_u0_psit"]
    rhs = terms["int_psitt"] + terms["int_damping"] - terms["int_lap"] - terms["int_beta"]
    terms["residual"] = lhs - rhs
    return terms


def weak_residual(u_traj, u0: Field, u1: Field, spec: CutoffSpec, params: Params, T: float) -> float:
    """Left minus right side of the weak identity; 0 for an exact solution."""
    return weak_identity_terms(u_traj, u0, u1, spec, params, T)["residual"]


# ---------------------------------------------------------------------------
# term bundle and slopes

TERM_NAMES = (
    "B_tt",
    "B_t2",
    "B_dx1",
    "B_dx2",
    "B_mix1",
    "B_mix2",
    "B_beta1",
    "B_beta2",
    "D_data",
)

_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _midpoint(fn, a: float, b: float, cells: int) -> list:
    x = a + (np.arange(cells) + 0.5) * (b - a) / cells
    return [float((b - a) / cells * f.sum()) for f in fn(x)]


def _refine_midpoint(fn, a: float, b: float, start: int = 256, rtol: float = 1e-3) -> list:
    """Midpoint sums on [a, b] of the integrands fn(x) returns as a tuple,
    each from the first of the levels start, 2 start, ... up to 2^22 cells
    that agrees with the level before it to rtol, else from the last.  The
    integrands share each level's points and one call of fn."""
    prev = _midpoint(fn, a, b, start)
    done = [None] * len(prev)
    cells = 2 * start
    while cells <= (1 << 22) and None in done:
        cur = _midpoint(fn, a, b, cells)
        for i, (c, q) in enumerate(zip(cur, prev)):
            if done[i] is None and abs(c - q) <= rtol * max(abs(c), 1e-300):
                done[i] = c
        prev = cur
        cells *= 2
    return [q if d is None else d for d, q in zip(done, prev)]


def term_bundle(spec: CutoffSpec, params: Params) -> dict:
    """The eight window integrals bounding the source integral, plus the
    displacement data factor, keyed by TERM_NAMES: all nonnegative, because
    every integrand is an absolute power.  They are evaluated at horizon T
    by tensor-product midpoint quadrature over the exact supports.

    Time-derivative factors live on (T/2, T) and space-derivative factors on
    the shell T^d/2 <= |x| <= T^d.  The damping-decay terms are integrated
    with their time weight rather than its horizon bound, so the fitted
    slopes measure whether the bound is attained in order; in the regime
    where that integral grows the weight's large-time principal part is used
    (see the inline note), which keeps finite-horizon slopes comparable to
    the asymptotic exponents.
    """
    spec.check_exponents(params.p)
    p = params.p
    pp = conjugate_exponent(p)
    eta, ell = spec.eta, spec.ell
    n, beta = params.n, params.beta
    T = spec.T
    td = spec.space_radius
    sigma = _SURFACE[n]

    # the integrands that share an interval are refined together
    def time_tail(t):
        p2, d1, d2 = _profiles(t / T)
        head = p2 ** (eta - pp)
        return (
            head * np.abs(d2 / T**2) ** pp,
            p2 ** (eta - 2 * pp) * np.abs(d1 / T) ** (2 * pp),
            head * np.abs(d1 / T) ** pp,
        )

    decay = (beta + 1.0) * pp

    def time_full(t):
        # When the weighted time integral grows (decay < 1) the +1 shift in
        # (1+t)^(-decay) pollutes finite-horizon slopes by a factor
        # ((1+T)/T)^(1-decay), so the growing case uses the large-time
        # principal part t^(-decay); the two weights agree at beta = -1 and
        # asymptotically everywhere.  The bounded case keeps the exact weight.
        if decay < 1.0:
            with np.errstate(divide="ignore"):
                w = np.where(t > 0, t, 1.0) ** (-decay)
            w = np.where(t > 0, w, 0.0 if decay < 0 else 1.0)
        else:
            w = (1.0 + t) ** (-decay)
        window = _profiles(t / T, 0)[0] ** eta
        return window, w * window

    def shell(r):
        p1, lap1, grad_sq = _radial(spec, n, r)
        return (
            p1 ** (ell - pp) * np.abs(lap1) ** pp * sigma * r ** (n - 1),
            p1 ** (ell - 2 * pp) * grad_sq**pp * sigma * r ** (n - 1),
        )

    def ball(r):
        return (cutoff(r / td) ** ell * sigma * r ** (n - 1),)

    i_tt, i_t2, i_mix = _refine_midpoint(time_tail, T / 2, T)
    i_eta, i_betaw = _refine_midpoint(time_full, 0.0, T)
    (s_ell_i,) = _refine_midpoint(ball, 0.0, td)
    s_lap_i, s_grad_i = _refine_midpoint(shell, td / 2, td)

    # data factor: sup-norm of the displacement-data bracket; it has no time
    # piece, because |d/dt cutoff(t/T)| at t = 0 vanishes identically for
    # this profile
    rs = td / 2 + (np.arange(1 << 14) + 0.5) * (td / 2) / (1 << 14)
    p1s, lap1s, gss = _radial(spec, n, rs)
    d_data = float((p1s ** (ell - 1) * np.abs(lap1s)).max() + (p1s ** (ell - 2) * gss).max())

    mix = T ** (-beta * pp) * i_mix
    values = (i_tt * s_ell_i, i_t2 * s_ell_i, i_eta * s_lap_i, i_eta * s_grad_i, mix * s_lap_i,
              mix * s_grad_i, i_betaw * s_lap_i, i_betaw * s_grad_i, d_data)
    return dict(zip(TERM_NAMES, values))


def slope_fit(points) -> tuple:
    """Least squares on (log T, log value) for positive values, >= 4 points:
    the slope and the r^2 of the fit."""
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points for a slope fit, got {len(pts)}")
    if any(v <= 0 for _, v in pts):
        raise ValueError("slope fit requires positive values")
    x = np.log([a for a, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), min(1.0, r2)


def predicted_exponents(params: Params, d: float) -> dict:
    """Horizon exponent of each bundle term.

    The damping-decay terms add the time-integral contribution
    max(0, 1 - (beta+1) p') to the space-shell exponent; at equality the
    integral grows like log T, which the pure power 0 deliberately caps.
    The data factor is a sup-norm bound, hence -2d with no volume factor.
    """
    p, n, beta = params.p, params.n, params.beta
    if not d > 0:
        raise ValueError(f"d must be positive, got {d}")
    pp = conjugate_exponent(p)
    e_time = -2.0 * pp + 1.0 + n * d
    e_space = -2.0 * d * pp + 1.0 + n * d
    e_mix = -beta * pp - pp - 2.0 * d * pp + 1.0 + n * d
    e_beta = -2.0 * d * pp + n * d + max(0.0, 1.0 - (beta + 1.0) * pp)
    e_data = -2.0 * d
    return {
        "B_tt": e_time,
        "B_t2": e_time,
        "B_dx1": e_space,
        "B_dx2": e_space,
        "B_mix1": e_mix,
        "B_mix2": e_mix,
        "B_beta1": e_beta,
        "B_beta2": e_beta,
        "D_data": e_data,
    }


def _windows(params: Params, d: float, horizons, ell=None, eta=None) -> list:
    """The window of each horizon that measure_term_slopes integrates,
    checked before any is: ell and eta default to ceil(2 p') + 2, each
    window's powers must suit p, and a slope fit takes 4 horizons."""
    k = math.ceil(2.0 * conjugate_exponent(params.p)) + 2
    ell, eta = (k if power is None else power for power in (ell, eta))
    specs = [CutoffSpec(ell=ell, eta=eta, d=d, T=float(T)) for T in horizons]
    for spec in specs:
        spec.check_exponents(params.p)
    if len(specs) < 4:
        raise ValueError(f"need at least 4 horizons for a slope fit, got {len(specs)}")
    return specs


def measure_term_slopes(params: Params, d: float, horizons, ell=None, eta=None) -> dict:
    """Bundle values over the given horizons plus fitted and predicted
    slopes, keyed by term name."""
    specs = _windows(params, d, horizons, ell, eta)
    horizons = [spec.T for spec in specs]
    bundles = [term_bundle(spec, params) for spec in specs]
    predicted = predicted_exponents(params, d)
    out = {}
    for name in TERM_NAMES:
        values = [b[name] for b in bundles]
        slope, r2 = slope_fit(zip(horizons, values))
        out[name] = {
            "horizons": horizons,
            "values": values,
            "slope": slope,
            "r2": r2,
            "predicted": predicted[name],
            "abs_error": abs(slope - predicted[name]),
        }
    return out


# ---------------------------------------------------------------------------
# manufactured cross-check


def manufactured_crosscheck(
    grid: Grid,
    params: Params,
    spec: CutoffSpec,
    nt: int,
    amplitude: float = 0.5,
) -> dict:
    """Compare the weak-form residual of the manufactured non-solution
    u(t, x) = cos(pi t / T) * bump(x), with a bump of radius 1, against the
    directly quadratured windowed strong-form defect.

    The two routes share only the basic quadrature rules: the weak side
    never differentiates u, the strong side uses the analytic time
    derivatives and the spectral Laplacian of the bump.
    """
    T = spec.T
    bump = bump_data(grid, amplitude)
    lap_bump = laplacian(bump)
    times = np.linspace(0.0, T, nt + 1)
    cos_t = np.cos(np.pi * times / T)
    traj = [Field(grid, c * bump.values) for c in cos_t]
    u0 = traj[0]
    u1 = Field(grid, np.zeros(grid.shape))

    weak = weak_residual(traj, u0, u1, spec, params, T)
    del traj, u0  # before the strong side's stacks

    meas = grid.spacing**grid.dim
    val_x = _space_window(spec, params.n, grid.radii())[0].ravel()
    bump_x, lap_x = bump.values.ravel(), lap_bump.values.ravel()
    omega = np.pi / T
    w_val = _time_window(spec, times)[0]
    # the defect -(omega^2) c bump - c lap + b(t) omega s lap, with each
    # sample's factors taken as Python floats, then stacked
    factors = []
    for t in times:
        c, s = math.cos(omega * t), math.sin(omega * t)
        factors.append((-(omega**2) * c, c, damping_coeff(t, params) * omega * s))
    factors = np.array(factors)
    vals = []
    for rows in _chunks(len(times), grid):
        a, c, d = factors[rows].T[:, :, np.newaxis]
        strong = a * bump_x - c * lap_x + d * lap_x
        if params.nonlinear:
            strong = strong - np.abs(c * bump_x) ** params.p
        vals.append((strong * val_x).sum(axis=1))
    vals = np.concatenate(vals) * meas * w_val
    strong_integral = -float(np.trapezoid(vals, times))
    rel = abs(weak - strong_integral) / max(abs(weak), abs(strong_integral), 1e-300)
    return {"weak": weak, "strong": strong_integral, "rel_diff": rel}
