"""Time integration with implicit damping, the energy ledger, and blow-up
detection.

One step advances (u, v) with the damping treated implicitly and everything
else explicitly:

    v* = v + dt * (Lap(u) + |u|^p)          evaluated at time t
    (Id - dt*b Lap) v_new = v*              with b = b0 (1 + t + dt)^(-beta)
    u_new = u + dt * v_new

The damping term has an unbounded stiffness b*k^2 in the mode number k, which
is why it is implicit; the wave and source parts are cheap and stay explicit
under a dt <= cfl * spacing cap.  The scheme is first order; a step-doubling
companion supplies the local error estimate that drives the adaptive step
size.

Every operator above is diagonal in Fourier space, so the solver state keeps
the real-FFT coefficients (u_hat, v_hat) between steps and one step is, mode
by mode,

    v_hat <- (v_hat - dt k^2 u_hat + dt F[|u|^p]) / (1 + dt b k^2)
    u_hat <- u_hat + dt v_hat

Physical u is built, by one inverse transform, only where a pointwise value
is needed: the source |u|^p, the sup norm, the boundary shell and the
step-doubling error.  A fixed linear step therefore costs one transform (the
inverse for the sup norm); a nonlinear one adds the forward transform of
|u|^p, which each state computes once and keeps for every step taken from
it.  An adaptive attempt shares that transform between its coarse step and
first half step, and brings the fine and coarse results back to samples in
one stacked inverse transform for the error check.

The energy ledger tracks, per accepted step,

    E(t) = (1/2) int v^2 + (1/2) int |grad u|^2
    dissipated(t) = int_0^t b(s) int |grad v|^2 ds
    work(t)       = int_0^t int |u|^p v ds

so that E + dissipated - work is conserved in the continuum; the discrete
drift shrinks at first order in dt.  All of these integrals are Parseval sums
on the coefficients.  Cumulative terms use the trapezoid rule over accepted
steps only.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import (
    Field,
    Grid,
    boundary_shell_mask,
    from_half_spectrum,
    half_k_squared,
    half_spectrum,
    linf_norm,
    parseval_weights,
)
from .model import InitialData, Params, damping_coeff

__all__ = [
    "State",
    "EnergyRecord",
    "BlowupEstimate",
    "Outcome",
    "RunReport",
    "Controls",
    "step",
    "energy",
    "simulate",
    "detect_blowup",
    "write_energy_csv",
]

ENERGY_CSV_COLUMNS = ("t", "kinetic", "potential", "dissipated_cum", "work_cum", "linf", "l2")

# exit codes used by the command-line front end
EXIT_CODES = {
    "CompletedHorizon": 0,
    "BlowupDetected": 10,
    "StepFloorReached": 20,
    "BoundaryContaminated": 30,
    "NumericalInstability": 40,
}


class State:
    """The solution (u, v) at time t.

    A state holds the fields as physical samples, as `half_spectrum`
    coefficients, or both: `u`, `v`, `u_hat` and `v_hat` each build their
    representation from the other on first use and keep it.  `State(t, u, v)`
    starts from samples; the solver makes its states from coefficients.
    """

    def __init__(self, t: float, u: Field, v: Field):
        if u.grid != v.grid:
            raise ValueError("u and v live on different grids")
        self.t = t
        self.grid = u.grid
        self._u, self._v = u, v
        self._u_hat = self._v_hat = None
        self._source = None  # (p, F[|u|^p]) once computed

    @classmethod
    def from_spectrum(cls, t: float, grid: Grid, u_hat: np.ndarray, v_hat: np.ndarray) -> "State":
        state = cls.__new__(cls)
        state.t = t
        state.grid = grid
        state._u = state._v = None
        state._u_hat, state._v_hat = u_hat, v_hat
        state._source = None
        return state

    @property
    def u(self) -> Field:
        if self._u is None:
            self._u = Field(self.grid, from_half_spectrum(self._u_hat, self.grid))
        return self._u

    @property
    def v(self) -> Field:
        if self._v is None:
            self._v = Field(self.grid, from_half_spectrum(self._v_hat, self.grid))
        return self._v

    @property
    def u_hat(self) -> np.ndarray:
        if self._u_hat is None:
            self._u_hat = half_spectrum(self._u.values, self.grid)
        return self._u_hat

    @property
    def v_hat(self) -> np.ndarray:
        if self._v_hat is None:
            self._v_hat = half_spectrum(self._v.values, self.grid)
        return self._v_hat

    def source_hat(self, p: float) -> np.ndarray:
        """F[|u|^p], computed once per state and exponent."""
        if self._source is None or self._source[0] != p:
            self._source = (p, half_spectrum(np.abs(self.u.values) ** p, self.grid))
        return self._source[1]

    def physical(self) -> "State":
        """The same state holding samples only, for results kept after the run."""
        return State(self.t, self.u, self.v)

    def is_finite(self) -> bool:
        u = self._u.values if self._u is not None else self._u_hat
        v = self._v.values if self._v is not None else self._v_hat
        return bool(np.isfinite(u).all() and np.isfinite(v).all())


@dataclass
class EnergyRecord:
    t: float
    kinetic: float
    potential: float
    dissipated_cum: float
    work_cum: float
    linf: float
    l2: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


@dataclass
class BlowupEstimate:
    t_star: float
    fit_quality: float
    samples_used: int


class Outcome(Enum):
    COMPLETED_HORIZON = "CompletedHorizon"
    BLOWUP_DETECTED = "BlowupDetected"
    STEP_FLOOR_REACHED = "StepFloorReached"
    BOUNDARY_CONTAMINATED = "BoundaryContaminated"
    NUMERICAL_INSTABILITY = "NumericalInstability"


@dataclass
class RunReport:
    outcome: Outcome
    t_stop: float
    energy_trace: list
    estimate: BlowupEstimate | None = None
    snapshots: list | None = None
    final_state: "State | None" = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.outcome.value]


@dataclass
class Controls:
    """Knobs for `simulate`.

    tol = None switches the error control off and marches with the fixed
    step dt0 (used by refinement and order studies).  boundary_check = None
    means: monitor the boundary shell exactly when the initial data is
    compactly supported.
    """

    t_end: float
    dt0: float = 1e-2
    dt_min: float = 1e-12
    u_max: float = 1e8
    tol: float | None = 1e-6
    snapshot_every: int | None = None
    fit_points: int = 12
    boundary_check: bool | None = None
    cfl: float = 0.5
    growth: float = 1.25

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.dt0 > 0:
            raise ValueError(f"dt0 must be positive, got {self.dt0}")
        if not self.dt_min > 0:
            raise ValueError(f"dt_min must be positive, got {self.dt_min}")
        if self.dt0 < self.dt_min:
            raise ValueError(f"dt0 = {self.dt0} is below dt_min = {self.dt_min}")
        if not self.u_max > 0:
            raise ValueError(f"u_max must be positive, got {self.u_max}")
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tol must be positive or None, got {self.tol}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be a positive stride or None")


def step(state: State, params: Params, dt: float) -> State:
    """One IMEX step of size dt from the given state."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k2 = half_k_squared(state.grid)
    b = damping_coeff(state.t + dt, params)
    rhs = state.v_hat - dt * k2 * state.u_hat
    if params.nonlinear:
        rhs += dt * state.source_hat(params.p)
    v_hat = rhs / (1.0 + (dt * b) * k2)
    return State.from_spectrum(state.t + dt, state.grid, state.u_hat + dt * v_hat, v_hat)


def _inner(a_hat: np.ndarray, b_hat: np.ndarray, weights: np.ndarray) -> float:
    """sum weights * Re(a_hat * conj(b_hat)): a box integral under Parseval."""
    return float(np.vdot(a_hat, weights * b_hat).real)


def _ledger_rates(state: State, params: Params) -> tuple:
    """Dissipation rate b int |grad v|^2 and source work int |u|^p v."""
    w = parseval_weights(state.grid)
    grad_v_sq = _inner(state.v_hat, state.v_hat, w * half_k_squared(state.grid))
    work = _inner(state.source_hat(params.p), state.v_hat, w) if params.nonlinear else 0.0
    return damping_coeff(state.t, params) * grad_v_sq, work


def energy(state: State, params: Params, dissipated_cum: float = 0.0, work_cum: float = 0.0) -> EnergyRecord:
    """Energy-ledger row for one state; the cumulative columns are passed in
    because they belong to the run, not to the snapshot."""
    w = parseval_weights(state.grid)
    return EnergyRecord(
        t=state.t,
        kinetic=0.5 * _inner(state.v_hat, state.v_hat, w),
        potential=0.5 * _inner(state.u_hat, state.u_hat, w * half_k_squared(state.grid)),
        dissipated_cum=dissipated_cum,
        work_cum=work_cum,
        linf=linf_norm(state.u),
        l2=math.sqrt(_inner(state.u_hat, state.u_hat, w)),
    )


def _step_error(fine: State, coarse: State) -> float:
    """Relative sup-norm gap between the fine and coarse results, or inf when
    either is not finite.  One stacked inverse transform gives all four
    fields; the fine state keeps its samples for the monitors."""
    coeffs = np.stack((fine.u_hat, fine.v_hat, coarse.u_hat, coarse.v_hat))
    stack = from_half_spectrum(coeffs, fine.grid)
    if not np.isfinite(stack).all():
        return math.inf
    fu, fv, cu, cv = stack
    # copies, so that a kept state does not hold on to the whole stack
    fine._u, fine._v = Field(fine.grid, fu.copy()), Field(fine.grid, fv.copy())
    scale = max(float(np.abs(fu).max()), float(np.abs(fv).max()), 1e-30)
    du = float(np.abs(fu - cu).max())
    dv = float(np.abs(fv - cv).max())
    return max(du, dv) / scale


def simulate(params: Params, init: InitialData, controls: Controls) -> RunReport:
    """Advance the problem from the given data until the horizon, blow-up,
    a step-size floor, or boundary contamination.

    Adaptive mode (tol set) steps once with dt and twice with dt/2, accepts
    the finer result when the difference passes tol, halves on failure and
    grows the step by the configured factor when the error is comfortably
    small.  Rejected trial steps never touch the energy ledger.

    Fixed mode takes the step dt0; the time after step n is n * dt0, except
    that the last step ends exactly at t_end, and a remainder below
    1e-9 * dt0 is no step at all.

    A linear run cannot blow up: its energy never grows.  When one turns
    non-finite or exceeds u_max, the outcome is NumericalInstability.
    """
    grid = init.u0.grid
    if init.u1.grid != grid:
        raise ValueError("initial displacement and velocity live on different grids")
    if params.n != grid.dim:
        raise ValueError(f"params.n = {params.n} does not match grid dim {grid.dim}")

    check_boundary = (
        controls.boundary_check
        if controls.boundary_check is not None
        else init.compact_support
    )
    shell = boundary_shell_mask(grid) if check_boundary else None
    adaptive = controls.tol is not None
    cfl_cap = controls.cfl * grid.spacing
    dt = min(controls.dt0, cfl_cap) if adaptive else controls.dt0
    t_end = controls.t_end
    fixed_steps = max(1, math.ceil(t_end / controls.dt0 - 1e-9))
    diverged = Outcome.BLOWUP_DETECTED if params.nonlinear else Outcome.NUMERICAL_INSTABILITY

    state = State(0.0, init.u0.copy(), init.u1.copy())
    g_prev, w_prev = _ledger_rates(state, params)
    dissipated = 0.0
    work = 0.0
    trace = [energy(state, params, dissipated, work)]
    snapshots = [state.physical()] if controls.snapshot_every else None

    outcome = None
    accepted = 0
    while (state.t < t_end * (1.0 - 1e-14)) if adaptive else (accepted < fixed_steps):
        if adaptive:
            dt_step = min(dt, t_end - state.t)
            if dt_step < controls.dt_min:
                outcome = Outcome.STEP_FLOOR_REACHED
                break
            coarse = step(state, params, dt_step)
            fine = step(step(state, params, 0.5 * dt_step), params, 0.5 * dt_step)
            err = _step_error(fine, coarse)
            if err > controls.tol:
                dt = 0.5 * dt_step
                continue
            new = fine
            if err < 0.25 * controls.tol:
                dt = min(dt_step * controls.growth, cfl_cap)
            else:
                dt = dt_step
        else:
            t_new = t_end if accepted + 1 == fixed_steps else (accepted + 1) * controls.dt0
            dt_step = t_new - state.t
            new = step(state, params, dt_step)
            new.t = t_new
            if not new.is_finite():
                outcome = diverged
                break
        g_new, w_new = _ledger_rates(new, params)
        dissipated += 0.5 * dt_step * (g_prev + g_new)
        work += 0.5 * dt_step * (w_prev + w_new)
        g_prev, w_prev = g_new, w_new
        state = new
        accepted += 1
        record = energy(state, params, dissipated, work)
        trace.append(record)
        if snapshots is not None and accepted % controls.snapshot_every == 0:
            snapshots.append(state.physical())
        if record.linf > controls.u_max:
            outcome = diverged
            break
        if shell is not None and record.linf > 0:
            if float(np.abs(state.u.values[shell]).max()) > 1e-6 * record.linf:
                outcome = Outcome.BOUNDARY_CONTAMINATED
                break
    if outcome is None:
        outcome = Outcome.COMPLETED_HORIZON
    estimate = None
    if outcome is Outcome.BLOWUP_DETECTED:
        estimate = _estimate_from_trace(trace, params, controls)
    return RunReport(
        outcome=outcome,
        t_stop=state.t,
        energy_trace=trace,
        estimate=estimate,
        snapshots=snapshots,
        final_state=state.physical(),
    )


def _estimate_from_trace(trace, params: Params, controls: Controls):
    ts = np.array([r.t for r in trace])
    linfs = np.array([r.linf for r in trace])
    try:
        return detect_blowup(ts, linfs, params.p, fit_points=controls.fit_points)
    except ValueError:
        return None


def detect_blowup(
    times,
    linfs,
    p: float,
    fit_points: int = 12,
    rise_factor: float = 10.0,
    min_samples: int = 8,
):
    """Extrapolate a blow-up time from a sup-norm history.

    Near blow-up the source equation forces u ~ C (t* - t)^(-2/(p-1)), so
    w = linf^(-(p-1)/2) decays linearly; a least-squares line through the
    last fit_points samples (restricted to linf above rise_factor times the
    initial value) crosses zero at the estimate.  Returns None when w is not
    decreasing, i.e. no blow-up trend.  Raises ValueError with fewer than
    min_samples qualifying samples.
    """
    times = np.asarray(times, dtype=float)
    linfs = np.asarray(linfs, dtype=float)
    if times.shape != linfs.shape or times.ndim != 1:
        raise ValueError("times and linfs must be 1d arrays of equal length")
    diverged = not np.isfinite(linfs).all()
    if diverged:
        cut = int(np.argmax(~np.isfinite(linfs)))
        times, linfs = times[:cut], linfs[:cut]
    if len(times) == 0:
        raise ValueError("no finite samples to fit")
    base = max(linfs[0], 1e-300)
    eligible = np.nonzero(linfs > rise_factor * base)[0]
    if len(eligible) < min_samples:
        if diverged:
            return BlowupEstimate(t_star=float(times[-1]), fit_quality=0.0, samples_used=0)
        raise ValueError(
            f"need at least {min_samples} samples above {rise_factor} times the "
            f"initial amplitude, found {len(eligible)}"
        )
    sel = eligible[-fit_points:]
    t_fit = times[sel]
    w = linfs[sel] ** (-0.5 * (p - 1.0))
    if w[-1] >= w[0]:
        if diverged:
            return BlowupEstimate(t_star=float(times[-1]), fit_quality=0.0, samples_used=0)
        return None
    slope, intercept = np.polyfit(t_fit, w, 1)
    if slope >= 0:
        if diverged:
            return BlowupEstimate(t_star=float(times[-1]), fit_quality=0.0, samples_used=0)
        return None
    fitted = slope * t_fit + intercept
    ss_res = float(((w - fitted) ** 2).sum())
    ss_tot = float(((w - w.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return BlowupEstimate(
        t_star=float(-intercept / slope),
        fit_quality=min(1.0, r2),
        samples_used=int(len(sel)),
    )


def write_energy_csv(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(ENERGY_CSV_COLUMNS) + "\n")
        for r in report.energy_trace:
            fh.write(
                f"{r.t!r},{r.kinetic!r},{r.potential!r},{r.dissipated_cum!r},"
                f"{r.work_cum!r},{r.linf!r},{r.l2!r}\n"
            )
