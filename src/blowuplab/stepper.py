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
each state computes once and keeps for every step taken from it.  `step`,
the fixed-step marcher and the adaptive attempt share one kernel, `_imex`,
that does this arithmetic.

An adaptive attempt of size H runs three chains of the step from the same
state, 1 step of H, 2 of H/2 and 3 of H/3, and combines their coefficients by
Aitken-Neville extrapolation (Constantinescu & Sandu, "Extrapolated
implicit-explicit time stepping", SIAM J. Sci. Comput. 31, 2010):

    T[j,1] = result of n_j substeps,             n = (1, 2, 3)
    T[j,k] = T[j,k-1] + (T[j,k-1] - T[j-1,k-1]) / (n_j / n_(j-k+1) - 1)

T[3,3] is third order and is the accepted result; its relative sup-norm gap
to the second-order T[3,2] is the error estimate.  Unlike the step itself,
the extrapolation amplifies weakly damped high modes slightly, so with weak
damping the adaptive step also stays below a mode-wise stability bound.

The chains advance in lockstep as stacked rows, one kernel call per
substep: all three chains, then the two longer, then the longest.  The
sources of the chains that go on take one stacked transform each way per
substep, four per attempt where separate chains of `step` would take six,
and every row is bit for bit the chain of `step` calls it stands for.
T[3,3] and T[3,2] share one stack, which one inverse transform brings back
to samples for the error estimate; the accepted state keeps its samples for
the monitors.

The energy ledger tracks, per accepted step,

    E(t) = (1/2) int v^2 + (1/2) int |grad u|^2
    dissipated(t) = int_0^t b(s) int |grad v|^2 ds
    work(t)       = int_0^t int |u|^p v ds

so that E + dissipated - work is conserved in the continuum; in a fixed-step
run the discrete drift shrinks at first order in dt.  All of these integrals
are Parseval sums on the coefficients, and the cumulative terms use the
trapezoid rule over accepted steps only.

The ledger is columnar.  `_ledger_rows` computes the rows of a block with
array operations: the quadratic sums row by row, finiteness from those
sums, and the sup norm and boundary shell from one stacked inverse
transform, or from samples already built (a nonlinear step builds them for
its source, an adaptive one for its error estimate).  The rows are walked
in order to extend the trapezoid sums and check the monitors, and the run
ends at the first row that trips one.  A non-finite row is dropped, a row
above u_max or with a contaminated shell is kept, and later rows are
discarded, so the outcome, the ledger and the final state are those of
checking every step.  An adaptive run, and `energy`, use blocks of one row.

A fixed-step run makes no `State` per step: `_march` runs `_imex` through a
ring of coefficient rows allocated once per run, a block of about
LEDGER_BLOCK_BYTES at a time, and the ledger reads each block in place.  A
nonlinear step builds its new state's samples and source at once, and
samples that pass u_max, or are not finite, end the block there, so that
no step is taken past a trip.

Snapshots (every `snapshot_every` accepted steps, and the initial state)
pass through one function, `_Ledger.snapshot`.  Without a hook they are kept
in `RunReport.snapshots`; with `Controls.on_snapshot` each is handed to the
hook as the run goes and none is kept, so a run's memory does not grow with
its history.  A hook's snapshot may be kept: its u is a view of its block's
samples, which no later step writes, and its v is built, only if the hook
reads it, from v coefficients that view the ring while the hook runs and
are copied when it returns with v unread.  Either way nothing is cached on
the solver's own states, and the final state reuses the samples of the last
snapshot when that snapshot is of the final state.
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
    checked it, in order, and `RunReport.snapshots` is None.  The hook may
    keep the state: its u is a view of the samples of its ledger block,
    which no later step writes (a hook that keeps many copies u, so as not
    to keep whole blocks alive), and its v, built only if read, comes from
    coefficients that view the solver's ring until the hook returns and are
    then the state's own.  Neither sees a state after one that tripped a
    monitor, nor a non-finite one.
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
        # each of these would end or label a run for the wrong reason
        if self.fit_points < 2:
            raise ValueError(f"fit_points must be at least 2, got {self.fit_points}")
        if not self.cfl > 0:
            raise ValueError(f"cfl must be positive, got {self.cfl}")
        if not self.growth >= 1:
            raise ValueError(f"growth must be at least 1, got {self.growth}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be a positive stride or None")
        if self.on_snapshot is not None and self.snapshot_every is None:
            raise ValueError("on_snapshot needs a snapshot_every stride")


def _imex(u, v, src, dtk2, den, dt, u_out=None, v_out=None) -> tuple:
    """The step, mode by mode: v_out = (v - dtk2 u + dt src) / den and
    u_out = u + dt v_out, with dtk2 = dt |k|^2, den = 1 + dt b |k|^2 and
    src = F[|u|^p] or None.  The marcher passes one row, and an adaptive
    attempt the rows of its chains with dt as a column, of factors built
    by `_factors`.  `step` passes functions that build them when needed:
    it holds at most two new arrays at once, and dt * src takes the second
    while the first holds v_out, so den cannot exist before it.
    v - x, not v + (-x), keeps signed zeros.
    """
    # outputs passed by position, which numpy parses faster than out=
    v_out = np.multiply(dtk2() if callable(dtk2) else dtk2, u, v_out)
    np.subtract(v, v_out, v_out)
    if src is not None:
        np.add(v_out, dt * src, v_out)
    np.divide(v_out, den() if callable(den) else den, v_out)
    u_out = np.multiply(dt, v_out, u_out)
    np.add(u_out, u, u_out)
    return u_out, v_out


def _factors(dts: list, dtb: list, k2: np.ndarray) -> tuple:
    """The kernel's dtk2 for steps of sizes dts and den for steps whose
    dt * b are dtb, one row per entry, built by one np.multiply.outer:
    complex, as the kernel's mixed real-complex products would cast them,
    but once."""
    both = np.empty((len(dts) + len(dtb),) + k2.shape, complex)
    np.multiply.outer(dts + dtb, k2, out=both)
    den = both[len(dts):]
    den += 1.0
    return both[: len(dts)], den


def step(state: State, params: Params, dt: float) -> State:
    """One IMEX step of size dt from the given state."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k2 = half_k_squared(state.grid)
    b = damping_coeff(state.t + dt, params)
    src = state.source_hat(params.p) if params.nonlinear else None
    u_hat, v_hat = _imex(
        state.u_hat, state.v_hat, src, lambda: dt * k2, lambda: 1.0 + (dt * b) * k2, dt
    )
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


def _fields(state: State, params: Params) -> tuple:
    """A state's coefficients as a ledger row holds them: (u_hat, v_hat),
    and F[|u|^p] with a source."""
    if params.nonlinear:
        return state.u_hat, state.v_hat, state.source_hat(params.p)
    return state.u_hat, state.v_hat


def _ledger_rows(t, block, grid: Grid, params: Params, samples=None, shell=None) -> tuple:
    """The ledger of a block of rows, computed with array operations.

    Row j is the state at time t[j] whose `_fields` are block[j] and whose u
    samples are samples[j]; without samples, they come from one stacked
    inverse transform of block[:, 0].  Returns one tuple per row, (t,
    kinetic, potential, linf, l2, dissipation rate b int |grad v|^2, work
    rate int |u|^p v, whether the coefficients are finite, sup of |u| on the
    shell mask or None without one), and the samples.  A row's values do not
    depend on the other rows of the block.
    """
    rows = len(t)
    pairs = np.array(block, dtype=complex).reshape(rows, len(block[0]), -1).view(np.float64)
    # F[|u|^p] v, u u and v v in place, so that a large grid holds one copy
    if params.nonlinear:
        pairs[:, 2] *= pairs[:, 1]
    pairs[:, :2] *= pairs[:, :2]
    sums = (pairs @ _ledger_weights(grid)).reshape(rows, -1).tolist()
    del pairs  # before the samples are built
    if samples is None:
        samples = from_half_spectrum(block[:, 0], grid)
    linf = _sup(samples.reshape(rows, -1)).tolist()
    if shell is None:
        shell_sup = [None] * rows
    else:
        shell_sup = _sup(samples[:, shell]).tolist()
    table = []
    # int u^2, int |grad u|^2, int v^2, int |grad v|^2 and, with a source,
    # int |u|^p v (and its unused |k|^2-weighted twin)
    for j, (tj, (u2, du2, v2, dv2, *fv), top, sup) in enumerate(zip(t, sums, linf, shell_sup)):
        # the weights of u2 and v2 are positive, so a non-finite coefficient
        # makes its sum non-finite; a finite one can overflow its square
        ok = math.isfinite(u2 + v2) or bool(
            np.isfinite(block[j][0]).all() and np.isfinite(block[j][1]).all()
        )
        dissipation = damping_coeff(tj, params) * dv2
        work = fv[0] if fv else 0.0
        table.append((tj, 0.5 * v2, 0.5 * du2, top, math.sqrt(u2), dissipation, work, ok, sup))
    return table, samples


def _state_row(state: State, params: Params) -> tuple:
    """`_ledger_rows` of the one-row block of a state.  u's samples are the
    state's when it holds them, which F[|u|^p] builds, or else come from a
    transform that is not cached on the state."""
    block = [_fields(state, params)]
    u = state._u.values if state._u is not None else from_half_spectrum(state.u_hat, state.grid)
    return _ledger_rows([state.t], block, state.grid, params, u[np.newaxis])


def energy(state: State, params: Params, dissipated_cum: float = 0.0, work_cum: float = 0.0) -> EnergyRecord:
    """Energy-ledger row for one state; the cumulative columns are passed in
    because they belong to the run, not to the snapshot."""
    t, kinetic, potential, linf, l2 = _state_row(state, params)[0][0][:5]
    return EnergyRecord(t, kinetic, potential, dissipated_cum, work_cum, linf, l2)


class _Ledger:
    """The energy ledger and monitors of one run.

    `flush` computes a block of accepted rows with `_ledger_rows`, then walks
    them in order as a per-step check would: it extends the trapezoid sums,
    records the row, its step size and its snapshot, and stops at the first
    row that trips a monitor.  `state` is the last state kept.  Every
    snapshot goes through `snapshot`.
    """

    def __init__(self, state: State, params: Params, controls: Controls, shell):
        self.params, self.controls, self.shell = params, controls, shell
        self.grid = state.grid
        # a linear run cannot blow up, so its divergence is numerical
        self.diverged = (
            Outcome.BLOWUP_DETECTED if params.nonlinear else Outcome.NUMERICAL_INSTABILITY
        )
        table, samples = _state_row(state, params)
        t, kinetic, potential, linf, l2, g, w = table[0][:7]
        self.trace = [EnergyRecord(t, kinetic, potential, 0.0, 0.0, linf, l2)]
        self.rates = g, w
        self.state = state
        self.accepted = 0
        self.dt_lo, self.dt_hi = math.inf, 0.0
        self.hook = controls.on_snapshot
        keep = controls.snapshot_every and self.hook is None
        self.snapshots = [] if keep else None
        self.last = None  # the snapshot of `state`, if it has one
        if controls.snapshot_every:
            self.snapshot(state, samples[0])

    def flush(self, t, dts, block, samples=None) -> "Outcome | None":
        """Compute and check the rows of a block, as `_ledger_rows` takes
        them, reached by steps of sizes dts; the outcome of the first row
        that trips a monitor, or None when every row passes.  A row's state
        is built from the block only where needed: for a snapshot, and for
        the last kept row, whose state views the block."""
        grid = self.grid
        table, samples = _ledger_rows(t, block, grid, self.params, samples, self.shell)
        u_max, every = self.controls.u_max, self.controls.snapshot_every
        last, trace = self.trace[-1], self.trace
        dissipated, work = last.dissipated_cum, last.work_cum
        g_prev, w_prev = self.rates
        # the block's first row whose accepted-step count is a multiple of every
        snap_row = every - 1 - self.accepted % every if every else -1
        outcome = kept = None
        for j, (row, dt) in enumerate(zip(table, dts)):
            t_j, kinetic, potential, linf, l2, g, w, finite, shell_sup = row
            if not finite:
                outcome = self.diverged  # the non-finite row is dropped
                break
            dissipated += 0.5 * dt * (g_prev + g)
            work += 0.5 * dt * (w_prev + w)
            g_prev, w_prev = g, w
            trace.append(EnergyRecord(t_j, kinetic, potential, dissipated, work, linf, l2))
            kept, self.last = j, None
            if j == snap_row:
                snap_row += every
                self.snapshot(State.from_spectrum(t_j, grid, None, block[j][1]), samples[j])
            if linf > u_max:
                outcome = self.diverged
                break
            if shell_sup is not None and linf > 0 and shell_sup > 1e-6 * linf:
                outcome = Outcome.BOUNDARY_CONTAMINATED
                break
        if kept is None:
            return outcome
        self.rates = g_prev, w_prev
        self.accepted += kept + 1
        steps = dts[: kept + 1]
        self.dt_lo, self.dt_hi = min(self.dt_lo, *steps), max(self.dt_hi, *steps)
        self.state = State.from_spectrum(t[kept], grid, block[kept][0], block[kept][1])
        if self.params.nonlinear:
            self.state._u = Field(grid, samples[kept])
        return outcome

    def snapshot(self, state: State, u_samples: np.ndarray) -> None:
        """Hand the snapshot of a checked state, whose u samples are
        u_samples, to the hook, or keep it in the list.  The snapshot is a
        new state sharing the state's fields, so nothing is cached on the
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
            # the solver recycles its coefficients: keep a copy of v's only
            # while v is unread
            snap._u_hat = None
            snap._v_hat = None if snap._v is not None else snap._v_hat.copy()
        else:
            self.snapshots.append(snap.physical())

    def final_state(self) -> State:
        """The last state kept, holding samples only; those of its snapshot
        are reused when it has one.  Samples that view a ledger block are
        copied, so that the result does not keep the block alive."""
        state = self.last or self.state
        u, v = state.u, state.v
        return State(self.state.t, u if u.values.flags.owndata else u.copy(), v)


SUBSTEPS = (1, 2, 3)


def _extrapolated_step(state: State, params: Params, dt: float) -> tuple:
    """One adaptive attempt of size dt: the third-order extrapolation of
    the step over SUBSTEPS, and its error estimate (see the module
    docstring).  Returns the state at t + dt and the relative error, inf
    when the attempt is not finite.

    The factors of all three substeps are built at once.  Two buffers hold
    the chains, so that an attempt holds little more than them, the factors
    and one substep's temporaries: `first` the rows after substep 1, then
    T[2,2] and the longest chain's end; `second` the rows after substep 2,
    then T[3,3] and T[3,2], the stack that `_step_error` transforms.
    """
    grid = state.grid
    k2 = half_k_squared(grid)
    hs = [dt / n for n in SUBSTEPS]
    # each substep's rows: the steps of the chains that take it and the
    # times they end at, accumulated as (t + h) + h, where b is taken
    ts = [state.t] * len(SUBSTEPS)
    steps, ends = [], []
    for i in range(len(SUBSTEPS)):
        ts[i:] = [a + b for a, b in zip(ts[i:], hs[i:])]
        steps += hs[i:]
        ends += ts[i:]
    dtk2, den = _factors(hs, [h * damping_coeff(t, params) for h, t in zip(steps, ends)], k2)
    # a column of each chain's step, which broadcasts as step's scalar dt
    cols = np.array(hs, complex).reshape((-1,) + (1,) * k2.ndim)
    # all three chains from the state, then the two longer, then the longest
    first = np.empty((3, 2) + k2.shape, complex)
    src = state.source_hat(params.p) if params.nonlinear else None
    _imex(state.u_hat, state.v_hat, src, dtk2, den[:3], cols, first[:, 0], first[:, 1])
    src = _sources(first[1:, 0], grid, params)
    second = np.empty((2, 2) + k2.shape, complex)
    _imex(first[1:, 0], first[1:, 1], src, dtk2[1:], den[3:5], cols[1:],
          second[:, 0], second[:, 1])
    del src  # before the next source's transforms
    src = _sources(second[1:, 0], grid, params)
    _imex(second[1:, 0], second[1:, 1], src, dtk2[2:], den[5:], cols[2:],
          first[2:, 0], first[2:, 1])
    del dtk2, den, src
    # Aitken-Neville in place, T[j,k] = a + (a - b) / (n_j / n_(j-k+1) - 1)
    t11, t21, t31 = first[0], second[0], first[2]
    t22, t32, t33 = first[0], second[1], second[0]
    np.add(t21, np.divide(np.subtract(t21, t11, t22), 1.0, t22), t22)
    np.add(t31, np.divide(np.subtract(t31, t21, t32), 0.5, t32), t32)
    np.add(t32, np.divide(np.subtract(t32, t22, t33), 2.0, t33), t33)
    stack = second.reshape((4,) + k2.shape)
    new = State.from_spectrum(state.t + dt, grid, stack[0], stack[1])
    return new, _step_error(new, stack)


def _sources(u_hat: np.ndarray, grid: Grid, params: Params) -> "np.ndarray | None":
    """F[|u|^p] of each row of u_hat, by one stacked transform each way, or
    None without a source."""
    if not params.nonlinear:
        return None
    samples = from_half_spectrum(u_hat, grid)
    np.abs(samples, samples)
    samples **= params.p
    return half_spectrum(samples, grid)


def _step_error(new: State, coeffs: np.ndarray) -> float:
    """Relative sup-norm gap between new and a lower-order result, given
    coeffs = (u_hat, v_hat) of new followed by those of the other, or inf
    when either is not finite.  One stacked inverse transform gives all four
    fields; new keeps its samples for the monitors."""
    stack = from_half_spectrum(coeffs, new.grid)
    high, low = stack[:2], stack[2:]
    scale = float(np.abs(high).max())
    # a sup over both fields; nan or inf in any field reaches scale or gap
    gap = float(np.abs(np.subtract(high, low, low), low).max())
    if not (math.isfinite(scale) and math.isfinite(gap)):
        return math.inf
    # copies, so that a kept state does not hold on to the whole stack
    new._u, new._v = Field(new.grid, high[0].copy()), Field(new.grid, high[1].copy())
    return gap / max(scale, 1e-30)


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


def _adapt(ledger: _Ledger, params: Params, controls: Controls) -> tuple:
    """The adaptive run from the ledger's state (see `simulate`): its
    outcome, or None at the horizon, and the number of rejected attempts."""
    state = ledger.state
    cfl_cap = controls.cfl * state.grid.spacing
    k_top = math.sqrt(float(half_k_squared(state.grid).max()))
    dt = min(controls.dt0, cfl_cap)
    t_end = controls.t_end
    rejected = 0
    while state.t < t_end * (1.0 - 1e-14):
        dt_step = min(dt, t_end - state.t)
        dt_step = min(dt_step, _stable_step(state.t, dt_step, params, k_top))
        if dt_step < controls.dt_min:
            return Outcome.STEP_FLOOR_REACHED, rejected
        new, err = _extrapolated_step(state, params, dt_step)
        dt = min(dt_step * _step_factor(err, controls), cfl_cap)
        if err > controls.tol:
            rejected += 1
            continue
        state = new
        row = [_fields(state, params)]
        outcome = ledger.flush([state.t], [dt_step], row, state.u.values[np.newaxis])
        ledger.state = state  # every row it flushes is finite, so kept
        if outcome is not None:
            return outcome, rejected
    return None, rejected


def _march(ledger: _Ledger, params: Params, controls: Controls) -> "Outcome | None":
    """The fixed-step run from the ledger's state: its outcome, or None at
    the horizon.  The ring is two halves of `_block_rows` rows of `_fields`;
    a block fills the half its start row is not in, so that the ledger
    reads it as one array and a dropped first row leaves the last finite
    state intact."""
    grid = ledger.grid
    k2 = half_k_squared(grid)
    block_rows = _block_rows(grid)
    shape = (block_rows, 3 if params.nonlinear else 2) + k2.shape
    halves = [np.empty(shape, dtype=complex) for _ in range(2)]
    halves[0][0] = _fields(ledger.state, params)
    ledger.state = ledger.state.physical()  # its coefficients are in the ring now
    # (u_hat, v_hat, source or None) of every row, as views made once
    rows = [(*row, None)[:3] for half in halves for row in half]
    t_end, dt0 = controls.t_end, controls.dt0
    steps = max(1, math.ceil(t_end / dt0 - 1e-9))
    taken = start = 0
    t = 0.0
    fill = 1  # the half that the next block fills
    while taken < steps:
        last = min(taken + block_rows, steps)
        ts = [t_end if i == steps else i * dt0 for i in range(taken + 1, last + 1)]
        dts = [b - a for a, b in zip([t] + ts, ts)]
        dtb = [dt * damping_coeff(a + dt, params) for a, dt in zip([t] + ts, dts)]
        dtk2, den = _factors(dts, dtb, k2)
        samples = np.empty((len(ts),) + grid.shape) if params.nonlinear else None
        n, prev = len(ts), start
        for i in range(n):
            u, v, src = rows[prev]
            prev = fill * block_rows + i
            _imex(u, v, src, dtk2[i], den[i], dts[i], *rows[prev][:2])
            if params.nonlinear:
                values = from_half_spectrum(rows[prev][0], grid, out=samples[i])
                half_spectrum(np.abs(values) ** params.p, grid, out=rows[prev][2])
                if not _sup(values.ravel()) <= controls.u_max:
                    n = i + 1
                    break
        del dtk2, den  # before the ledger copies the block
        block = halves[fill][:n]
        outcome = ledger.flush(ts[:n], dts[:n], block, None if samples is None else samples[:n])
        if outcome is not None:
            return outcome
        taken, start, t, fill = taken + n, prev, ts[n - 1], 1 - fill
    return None


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
    1e-9 * dt0 is no step at all.  It marches a block of steps at a time
    through a coefficient ring allocated once per run, and computes the
    ledger and the monitors on the block (see the module docstring); the
    outcome, the ledger and the final state are those of checking every
    step.  The returned final state and kept snapshots own their samples
    and view neither the ring nor a block.

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
    ledger = _Ledger(State(0.0, init.u0.copy(), init.u1.copy()), params, controls, shell)
    # a diverging step overflows on its way to the outcome below
    with np.errstate(over="ignore", invalid="ignore"):
        if controls.tol is None:
            outcome, rejected = _march(ledger, params, controls), 0
        else:
            outcome, rejected = _adapt(ledger, params, controls)
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
    min_samples qualifying samples, or with fit_points below 2, which fit no
    line.
    """
    if fit_points < 2:
        raise ValueError(f"fit_points must be at least 2, got {fit_points}")
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
