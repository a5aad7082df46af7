"""Time integration with implicit damping, the energy ledger, and blow-up
detection.

One step advances (u, v) with the damping treated implicitly and everything
else explicitly:

    v* = v + dt * (Lap(u) + |u|^p)          evaluated at time t
    (Id - dt*b Lap) v_new = v*              with b = b0 (1 + t + dt)^(-beta)
    u_new = u + dt * v_new

The damping term has an unbounded stiffness b*k^2 in the mode number k, which
is why it is implicit; the wave and source parts are cheap and stay explicit
under a dt <= cfl * spacing cap.  This IMEX Euler step is first order, and it
is the only stepping kernel: fixed-step runs march with it, and the adaptive
driver extrapolates it to third order.

Every operator above is diagonal in Fourier space, so the solver state keeps
the real-FFT coefficients (u_hat, v_hat) between steps and one step is, mode
by mode,

    v_hat <- (v_hat - dt k^2 u_hat + dt F[|u|^p]) / (1 + dt b k^2)
    u_hat <- u_hat + dt v_hat

Physical u is built, by one inverse transform, only where a pointwise value
is needed: the source |u|^p, the sup norm, the boundary shell and the
adaptive error.  A fixed linear step therefore costs one inverse transform
for the sup norm, made for a block of steps at once (see below); a
nonlinear one makes the inverse and the forward transform of |u|^p, which
each state computes once and keeps for every step taken from it.

An adaptive attempt of size H runs three chains of the step from the same
state, 1 step of H, 2 of H/2 and 3 of H/3, and combines their coefficients by
Aitken-Neville extrapolation (Constantinescu & Sandu, "Extrapolated
implicit-explicit time stepping", SIAM J. Sci. Comput. 31, 2010):

    T[j,1] = result of n_j substeps,             n = (1, 2, 3)
    T[j,k] = T[j,k-1] + (T[j,k-1] - T[j-1,k-1]) / (n_j / n_(j-k+1) - 1)

T[3,3] is third order and is the accepted result; its relative sup-norm gap
to the second-order T[3,2] is the error estimate.  Unlike the step itself,
the extrapolation amplifies weakly damped high modes slightly, so with weak
damping the adaptive step also stays below a mode-wise stability bound.  One stacked inverse
transform brings both back to samples for that check, and the accepted state
keeps its samples for the monitors.

The energy ledger tracks, per accepted step,

    E(t) = (1/2) int v^2 + (1/2) int |grad u|^2
    dissipated(t) = int_0^t b(s) int |grad v|^2 ds
    work(t)       = int_0^t int |u|^p v ds

so that E + dissipated - work is conserved in the continuum; in a fixed-step
run the discrete drift shrinks at first order in dt.  All of these integrals
are Parseval sums on the coefficients, and the cumulative terms use the
trapezoid rule over accepted steps only.

The ledger is columnar.  `_ledger_rows` computes the rows of a block of
states with array operations: the quadratic sums row by row, finiteness
from those sums, and the sup norm and boundary shell from one stacked
inverse transform, or from the samples the states already hold (a nonlinear
state builds them for its source, an adaptive one for its error estimate).
A fixed-step run keeps its new states until a block of about
LEDGER_BLOCK_BYTES is full, or the run ends, and then computes the block;
a nonlinear run computes it at once when the samples a state built for its
source pass u_max or are not finite, so that no step is taken past a trip.
The rows are walked in order to extend the trapezoid sums and check the
monitors, and the run ends at the first row that trips one.  A non-finite row is dropped, a row above u_max
or with a contaminated shell is kept, and later rows are discarded, so the
outcome, the ledger and the final state are those of checking every step.
An adaptive run, and `energy`, use blocks of one row.

Snapshots (every `snapshot_every` accepted steps, and the initial state)
pass through one function, `_Ledger.snapshot`.  Without a hook they are kept
in `RunReport.snapshots`; with `Controls.on_snapshot` each is handed to the
hook as the run goes and none is kept, so a run's memory does not grow with
its history.  The hook's state is short-lived: its u is a view of the ledger
block's samples, and its v is transformed only if the hook reads it.  Either
way nothing is cached on the solver's own states, and the final state reuses
the samples of the last snapshot when that snapshot is of the final state.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .grids import (
    Field,
    Grid,
    boundary_shell_mask,
    from_half_spectrum,
    half_k_squared,
    half_spectrum,
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

# memory for one ledger block of a fixed-step run; see _block_rows
LEDGER_BLOCK_BYTES = 2**20

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
    """How a run ended, its ledger, and its step statistics: `accepted`
    and `rejected` count steps and rejected adaptive attempts, and
    `dt_min` / `dt_max` span the accepted step sizes (None without one)."""

    outcome: Outcome
    t_stop: float
    energy_trace: list
    estimate: BlowupEstimate | None = None
    snapshots: list | None = None
    final_state: "State | None" = None
    accepted: int = 0
    rejected: int = 0
    dt_min: float | None = None
    dt_max: float | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.outcome.value]


@dataclass
class Controls:
    """Knobs for `simulate`.

    tol = None switches the error control off and marches with the fixed
    step dt0 (used by refinement and order studies).  With tol set, dt0 is
    the first trial step, tol bounds the relative sup-norm error estimate of
    each accepted step, and growth caps the factor by which one step may
    exceed the last; cfl * spacing caps every step.  An attempt that
    fails is retried smaller, and dt_min is the floor below which the run
    stops.  boundary_check = None means: monitor the boundary shell exactly
    when the initial data is compactly supported.

    snapshot_every = k keeps the initial state and every k-th accepted
    state in `RunReport.snapshots`.  With on_snapshot set, each of these
    states is passed to on_snapshot(state) as soon as the ledger has
    checked it, in order, and `RunReport.snapshots` is None; the state's u
    views solver memory, so a hook that keeps a snapshot copies its u.
    Neither sees a state after one that tripped a monitor, nor a
    non-finite one.
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
    on_snapshot: Callable[[State], None] | None = None

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
        if self.on_snapshot is not None and self.snapshot_every is None:
            raise ValueError("on_snapshot needs a snapshot_every stride")


def step(state: State, params: Params, dt: float) -> State:
    """One IMEX step of size dt from the given state."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k2 = half_k_squared(state.grid)
    b = damping_coeff(state.t + dt, params)
    # in place, so that a step holds at most two new arrays of the
    # coefficients' size at once; v - x, not v + (-x), keeps signed zeros
    v_hat = (dt * k2) * state.u_hat
    np.subtract(state.v_hat, v_hat, out=v_hat)
    if params.nonlinear:
        v_hat += dt * state.source_hat(params.p)
    v_hat /= 1.0 + (dt * b) * k2
    u_hat = dt * v_hat
    u_hat += state.u_hat
    return State.from_spectrum(state.t + dt, state.grid, u_hat, v_hat)


def _block_rows(grid: Grid) -> int:
    """Rows per ledger block in a fixed-step run: a row holds and builds
    about eight complex arrays of the coefficients' size, so at
    LEDGER_BLOCK_BYTES a 1-D run at N = 256 takes 63 rows and a 3-D run at
    64^3 one."""
    return max(1, LEDGER_BLOCK_BYTES // (8 * 16 * half_k_squared(grid).size))


@lru_cache(maxsize=64)
def _ledger_weights(grid: Grid) -> np.ndarray:
    """Columns w and w |k|^2 of Parseval weights, one row per float of the
    coefficients viewed as (re, im) pairs: int f^2 = sum w * pairs(f)^2."""
    w = parseval_weights(grid).ravel()
    weights = np.repeat(np.stack((w, w * half_k_squared(grid).ravel()), axis=1), 2, axis=0)
    weights.flags.writeable = False
    return weights


def _sup(x: np.ndarray) -> np.ndarray:
    """max |x| along the last axis, without a temporary |x|; the abs turns
    the -0.0 of an all-zero row into 0.0."""
    return np.abs(np.maximum(x.max(axis=-1), -x.min(axis=-1)))


def _stack(arrays: list) -> np.ndarray:
    """The arrays along a new first axis; a single one is viewed, not copied."""
    return arrays[0][np.newaxis] if len(arrays) == 1 else np.array(arrays)


def _ledger_rows(states, params: Params, shell: np.ndarray | None = None) -> tuple:
    """The ledger of a block of states, computed with array operations.

    Returns one row per state, (t, kinetic, potential, linf, l2, dissipation
    rate b int |grad v|^2, work rate int |u|^p v, whether the coefficients
    are finite, sup of |u| on the shell mask or None without one), and the
    samples of u, taken from the states when they hold them and else from
    one stacked inverse transform.  A row's values do not depend on the
    other rows of the block.
    """
    grid = states[0].grid
    rows = len(states)
    if params.nonlinear:
        # the source builds each state's samples, so the sup norm reuses them
        fields = [(s.u_hat, s.v_hat, s.source_hat(params.p)) for s in states]
    else:
        fields = [(s.u_hat, s.v_hat) for s in states]
    pairs = np.array(fields, dtype=complex).reshape(rows, len(fields[0]), -1).view(np.float64)
    # F[|u|^p] v, u u and v v in place, so that a large grid holds one copy
    if params.nonlinear:
        pairs[:, 2] *= pairs[:, 1]
    pairs[:, :2] *= pairs[:, :2]
    sums = (pairs @ _ledger_weights(grid)).reshape(rows, -1).tolist()
    del pairs  # before the samples are built
    if all(s._u is not None for s in states):
        samples = _stack([s._u.values for s in states])
    else:
        samples = from_half_spectrum(_stack([s.u_hat for s in states]), grid)
    linf = _sup(samples.reshape(rows, -1)).tolist()
    if shell is None:
        shell_sup = [None] * rows
    else:
        shell_sup = _sup(samples[:, shell]).tolist()
    table = []
    # int u^2, int |grad u|^2, int v^2, int |grad v|^2 and, with a source,
    # int |u|^p v (and its unused |k|^2-weighted twin)
    for s, (u2, du2, v2, dv2, *fv), top, sup in zip(states, sums, linf, shell_sup):
        # the weights of u2 and v2 are positive, so a non-finite coefficient
        # makes its sum non-finite; a finite one can overflow its square
        ok = math.isfinite(u2 + v2) or bool(
            np.isfinite(s.u_hat).all() and np.isfinite(s.v_hat).all()
        )
        dissipation = damping_coeff(s.t, params) * dv2
        work = fv[0] if fv else 0.0
        table.append((s.t, 0.5 * v2, 0.5 * du2, top, math.sqrt(u2), dissipation, work, ok, sup))
    return table, samples


def energy(state: State, params: Params, dissipated_cum: float = 0.0, work_cum: float = 0.0) -> EnergyRecord:
    """Energy-ledger row for one state; the cumulative columns are passed in
    because they belong to the run, not to the snapshot."""
    t, kinetic, potential, linf, l2 = _ledger_rows([state], params)[0][0][:5]
    return EnergyRecord(t, kinetic, potential, dissipated_cum, work_cum, linf, l2)


class _Ledger:
    """The energy ledger and monitors of one run.

    Accepted states wait in `pending` with their step sizes.  `flush`
    computes them as one block with `_ledger_rows`, then walks the rows in
    order as a per-step check would: it extends the trapezoid sums, records
    the row, its step size and its snapshot, and stops at the first row
    that trips a monitor.  `state` is the last state kept.  Every snapshot
    goes through `snapshot`.
    """

    def __init__(self, state: State, params: Params, controls: Controls, shell):
        self.params, self.controls, self.shell = params, controls, shell
        # a linear run cannot blow up, so its divergence is numerical
        self.diverged = (
            Outcome.BLOWUP_DETECTED if params.nonlinear else Outcome.NUMERICAL_INSTABILITY
        )
        table, samples = _ledger_rows([state], params)
        t, kinetic, potential, linf, l2, g, w = table[0][:7]
        self.trace = [EnergyRecord(t, kinetic, potential, 0.0, 0.0, linf, l2)]
        self.rates = g, w
        self.state = state
        self.pending = []
        self.accepted = 0
        self.dt_lo, self.dt_hi = math.inf, 0.0
        self.hook = controls.on_snapshot
        keep = controls.snapshot_every and self.hook is None
        self.snapshots = [] if keep else None
        self.last = None  # the snapshot of `state`, if it has one
        if controls.snapshot_every:
            self.snapshot(state, samples[0])

    def flush(self) -> "Outcome | None":
        """Compute and check the pending rows; the outcome of the first row
        that trips a monitor, or None when every row passes."""
        states, dts = zip(*self.pending)
        self.pending = []
        table, samples = _ledger_rows(states, self.params, self.shell)
        u_max, every = self.controls.u_max, self.controls.snapshot_every
        last = self.trace[-1]
        dissipated, work = last.dissipated_cum, last.work_cum
        g_prev, w_prev = self.rates
        outcome = None
        for j, (row, dt) in enumerate(zip(table, dts)):
            t, kinetic, potential, linf, l2, g, w, finite, shell_sup = row
            if not finite:
                outcome = self.diverged  # the non-finite row is dropped
                break
            dissipated += 0.5 * dt * (g_prev + g)
            work += 0.5 * dt * (w_prev + w)
            g_prev, w_prev = g, w
            self.trace.append(EnergyRecord(t, kinetic, potential, dissipated, work, linf, l2))
            self.accepted += 1
            self.dt_lo, self.dt_hi = min(self.dt_lo, dt), max(self.dt_hi, dt)
            self.state, self.last = states[j], None
            if every and self.accepted % every == 0:
                self.snapshot(self.state, samples[j])
            if linf > u_max:
                outcome = self.diverged
                break
            if shell_sup is not None and linf > 0 and shell_sup > 1e-6 * linf:
                outcome = Outcome.BOUNDARY_CONTAMINATED
                break
        self.rates = g_prev, w_prev
        return outcome

    def snapshot(self, state: State, u_samples: np.ndarray) -> None:
        """Hand the snapshot of a checked state, whose u samples are
        u_samples, to the hook, or keep it in the list.  The snapshot is a
        new state sharing the coefficients, so nothing is cached on the
        solver's state.  A hook's snapshot builds v only if the hook reads
        it; a kept one holds samples only and owns its u, so that it does
        not keep the ledger block alive."""
        snap = State.from_spectrum(state.t, state.grid, state._u_hat, state._v_hat)
        snap._u, snap._v = state._u, state._v
        if snap._u is None:
            snap._u = Field(state.grid, u_samples if self.hook else u_samples.copy())
        self.last = snap
        if self.hook:
            self.hook(snap)
        else:
            self.snapshots.append(snap.physical())

    def final_state(self) -> State:
        """The last state kept, holding samples only; those of its snapshot
        are reused when it has one."""
        if self.last is None:
            return self.state.physical()
        u, v = self.last.u, self.last.v
        # a hook's u views the ledger block
        return State(self.state.t, u.copy() if self.hook else u, v)


SUBSTEPS = (1, 2, 3)


def _extrapolated_step(state: State, params: Params, dt: float) -> tuple:
    """One adaptive attempt of size dt: the third-order extrapolation of
    `step` over SUBSTEPS, and its error estimate (see the module docstring).
    Returns the state at t + dt and the relative error, inf when the
    attempt is not finite."""
    table = []
    for j, n in enumerate(SUBSTEPS):
        end = state
        for _ in range(n):
            end = step(end, params, dt / n)
        row = [np.stack((end.u_hat, end.v_hat))]
        for k in range(1, j + 1):
            ratio = n / SUBSTEPS[j - k]
            row.append(row[k - 1] + (row[k - 1] - table[j - 1][k - 1]) / (ratio - 1.0))
        table.append(row)
    high, low = table[-1][-1], table[-1][-2]
    new = State.from_spectrum(state.t + dt, state.grid, high[0], high[1])
    return new, _step_error(new, np.concatenate((high, low)))


def _step_error(new: State, coeffs: np.ndarray) -> float:
    """Relative sup-norm gap between new and a lower-order result, given
    coeffs = (u_hat, v_hat) of new followed by those of the other, or inf
    when either is not finite.  One stacked inverse transform gives all four
    fields; new keeps its samples for the monitors."""
    stack = from_half_spectrum(coeffs, new.grid)
    if not np.isfinite(stack).all():
        return math.inf
    hu, hv, lu, lv = stack
    # copies, so that a kept state does not hold on to the whole stack
    new._u, new._v = Field(new.grid, hu.copy()), Field(new.grid, hv.copy())
    scale = max(float(np.abs(hu).max()), float(np.abs(hv).max()), 1e-30)
    du = float(np.abs(hu - lu).max())
    dv = float(np.abs(hv - lv).max())
    return max(du, dv) / scale


def _stable_step(t: float, dt: float, params: Params, k_top: float) -> float:
    """Largest attempt size at which the extrapolated step amplifies no
    mode, for an attempt from t of size about dt.

    Undamped, the extrapolated step multiplies mode k by about
    1 + (dt k)^6 / 118 per step, while the damping takes dt b k^2 / 2 away.
    Keeping the first below the second at the top mode k_top, with the
    smallest b over the step, bounds dt by (59 b / k_top^4)^(1/5); the
    constant 50 leaves a margin for the higher-order terms.  Mode-wise
    spectral radii stay at most 1 with it for b k_top from 1e-8 to 1e2.
    """
    b = min(damping_coeff(t, params), damping_coeff(t + dt, params))
    return (50.0 * b / k_top**4) ** 0.2


def _step_factor(err: float, controls: Controls) -> float:
    """Elementary controller for a third-order error estimate: the next step
    over the one just tried, for an accepted and a rejected attempt alike."""
    if math.isinf(err):
        return 0.5
    ratio = controls.tol / err if err > 0 else math.inf
    return min(controls.growth, max(0.2, 0.9 * ratio ** (1.0 / 3.0)))


def simulate(params: Params, init: InitialData, controls: Controls) -> RunReport:
    """Advance the problem from the given data until the horizon, blow-up,
    a step-size floor, or boundary contamination.

    Adaptive mode (tol set) makes each attempt by extrapolating the step
    to third order (see the module docstring) and accepts it when its error
    estimate err is at most tol.  Accepted or not, the next attempt has the
    size dt * min(growth, max(0.2, 0.9 (tol/err)^(1/3))), capped at
    cfl * spacing; an attempt that turned non-finite is retried at half the
    size.  Where the damping is too weak to hold the top modes of the
    extrapolated wave step, a second cap keeps every mode from growing (see
    `_stable_step`).  Rejected attempts never touch the energy ledger.

    Fixed mode takes the step dt0; the time after step n is n * dt0, except
    that the last step ends exactly at t_end, and a remainder below
    1e-9 * dt0 is no step at all.  It computes the ledger and the monitors
    a block of steps at a time (see the module docstring); the outcome, the
    ledger and the final state are those of checking every step.

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
    k_top = math.sqrt(float(half_k_squared(grid).max()))
    dt = min(controls.dt0, cfl_cap) if adaptive else controls.dt0
    t_end = controls.t_end
    fixed_steps = max(1, math.ceil(t_end / controls.dt0 - 1e-9))
    block_rows = 1 if adaptive else _block_rows(grid)

    state = State(0.0, init.u0.copy(), init.u1.copy())
    ledger = _Ledger(state, params, controls, shell)
    outcome = None
    taken = rejected = 0
    # a diverging step overflows on its way to the outcome below
    with np.errstate(over="ignore", invalid="ignore"):
        while (state.t < t_end * (1.0 - 1e-14)) if adaptive else (taken < fixed_steps):
            if adaptive:
                dt_step = min(dt, t_end - state.t)
                dt_step = min(dt_step, _stable_step(state.t, dt_step, params, k_top))
                if dt_step < controls.dt_min:
                    outcome = Outcome.STEP_FLOOR_REACHED
                    break
                new, err = _extrapolated_step(state, params, dt_step)
                dt = min(dt_step * _step_factor(err, controls), cfl_cap)
                if err > controls.tol:
                    rejected += 1
                    continue
            else:
                t_new = t_end if taken + 1 == fixed_steps else (taken + 1) * controls.dt0
                dt_step = t_new - state.t
                # a nonlinear state builds its samples for the source; when
                # they pass u_max, or are not finite, the block ends here
                sup = _sup(state.u.values.ravel()) if params.nonlinear and ledger.pending else 0.0
                if not sup <= controls.u_max:
                    outcome = ledger.flush()
                    if outcome is not None:
                        break
                new = step(state, params, dt_step)
                new.t = t_new
            state = new
            taken += 1
            ledger.pending.append((state, dt_step))
            if len(ledger.pending) == block_rows:
                outcome = ledger.flush()
                if outcome is not None:
                    break
        if outcome is None and ledger.pending:
            outcome = ledger.flush()
    if outcome is None:
        outcome = Outcome.COMPLETED_HORIZON
    estimate = None
    if outcome is Outcome.BLOWUP_DETECTED:
        estimate = _estimate_from_trace(ledger.trace, params, controls)
    return RunReport(
        outcome=outcome,
        t_stop=ledger.state.t,
        energy_trace=ledger.trace,
        estimate=estimate,
        snapshots=ledger.snapshots,
        final_state=ledger.final_state(),
        accepted=ledger.accepted,
        rejected=rejected,
        dt_min=ledger.dt_lo if ledger.accepted else None,
        dt_max=ledger.dt_hi if ledger.accepted else None,
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
