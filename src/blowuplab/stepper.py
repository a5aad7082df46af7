"""Time integration with implicit damping, the energy ledger, and blow-up
detection.

Every operator but the source is diagonal in Fourier space, so the state
between steps is the real-FFT coefficients (u_hat, v_hat), complex, or the
cosine coefficients on an even grid (see below), float64; physical u is
built only for the source |u|^p, the sup norm, the boundary shell and the
adaptive error.

Fixed-step runs march with the first-order IMEX Euler step, explicit in the
wave and source terms and implicit in the damping, whose stiffness b k^2 is
unbounded in k.  Mode by mode, with b = b0 (1 + t + dt)^(-beta), `_imex` does

    v_hat <- (v_hat - dt k^2 u_hat + dt F[|u|^p]) / (1 + dt b k^2)
    u_hat <- u_hat + dt v_hat

in the marcher, whose linear steps cost a share of one inverse transform
(see below) and nonlinear ones the transform pair of |u|^p.

An adaptive attempt of size H runs chains of 1, 2 and 3 Strang substeps from
one state.  A substep of size h is half a step of each mode's exact damped
oscillator flow, b frozen at the half-step's midpoint (`_half_flows`), a
kick v_hat += h F[|u|^p] and the other half-step.  It is symmetric, so its
error expands in h^2 and Aitken-Neville in h^2 (Hairer, Lubich & Wanner,
"Geometric Numerical Integration", 2006; Hochbruck & Ostermann, Acta
Numerica 19, 2010),

    T[j,1] = result of n_j substeps,             n = (1, 2, 3)
    T[j,k] = T[j,k-1] + (T[j,k-1] - T[j-1,k-1]) / ((n_j / n_(j-k+1))^2 - 1)

gives the accepted sixth-order T[3,3]; its relative sup-norm gap to the
fourth-order T[3,2] is the error estimate.  A linear attempt is all but the
exact flow, which amplifies no mode however weak the damping, so the step
needs no stability cap: tol alone sizes it, and GROWTH times the step
before caps it.  Nor does it need a cap tied to the grid: the estimate sees
the splitting's error, near its resonances at h |k| = m pi too.  The chains
advance in lockstep as stacked rows, all three through a substep, then the
two longer, then the longest: one stacked transform each way per substep
for the kicks, and one stacked inverse transform of T[3,3] and T[3,2] for
the error, whose u samples are kept.

The energy ledger tracks, per accepted step,

    E(t) = (1/2) int v^2 + (1/2) int |grad u|^2
    dissipated(t) = int_0^t b(s) int |grad v|^2 ds
    work(t)       = int_0^t int |u|^p v ds

so that E + dissipated - work is conserved in the continuum; in a fixed-step
run the discrete drift shrinks at first order in dt.  All of these integrals
are Parseval sums on the coefficients, and the cumulative terms use the
trapezoid rule over accepted steps only.

The ledger is columnar.  `_ledger_rows` computes the rows of a block with
array operations: the quadratic sums row by row, squared into one scratch
and contracted with the Parseval columns of `_ledger_weights` (one column
of float64 coefficients, the (re, im) pairs of complex ones), finiteness
from those sums, and the sup norm and boundary shell from one stacked
inverse transform, or from samples already built (for a source or an
adaptive error estimate).  The rows are walked in order to extend the
trapezoid sums and check the monitors, and the run ends at the first row
that trips one.  A non-finite row is dropped, a row above u_max or with a
contaminated shell is kept, and later rows are discarded, so the outcome,
the ledger and the final state are those of checking every step.  An
adaptive run uses blocks of one row.

No run makes a `State` per step: the state between steps is one ledger
row, (u_hat, v_hat) and F[|u|^p] with a source, plus its u samples.
`_Ledger` builds the first from the data, which it refuses when that row
is not finite, and both drivers continue from the last row it kept.
`_march` runs `_imex` through a ring of coefficient rows allocated once
per run, a block of about LEDGER_BLOCK_BYTES at a time, and the ledger
reads each block in place.  A nonlinear step builds its new row's samples and source at once,
and samples that pass u_max, or are not finite, end the block there, so
that no step is taken past a trip.  A block's step factors are built in
the ring rows its steps then overwrite.  So a fixed-step run holds its
ring, |k|^2, the Parseval columns and one scratch, of at most
LEDGER_BLOCK_BYTES or one field; besides, the samples of the block it
checks, and the initial samples until it keeps a step.

Every operator of the equation keeps a field even in each axis, so 2-D
and 3-D data that are even march on the even grid of their samples on
[0, L]^dim when they are given on it (`grids.Grid.even`), about 2^-dim of
the full grid: the transforms (there a DCT-I as a matrix product along
each axis), |k|^2, the Parseval columns and the shell mask follow the
grid, and the kernels above, mode-wise or pointwise, run on its float64
coefficients unchanged: the ring, the step factors, the adaptive chains
and the ledger take the dtype of the rows, which halves their memory and
work there.  The solver makes no choice of grid: it marches on its data's,
and its snapshots and final state stay there.  The builders choose it:
`config.build_grid` gives every 2-D and 3-D config the even grid, and a
library caller opts in with an even `Grid` or `grids.to_even_grid`.  A
consumer that needs the full grid's samples mirrors them
(`grids.to_full_grid`), and a field file streams them in mirrored slabs
(`grids.save_field_binary`).

Snapshots (every `snapshot_every` accepted steps, and the initial state)
take one path on every grid: `_Ledger.snapshot` makes one `State` of u
samples and v coefficients for each, which builds v only when read, and
hands it to `Controls.on_snapshot` as the run goes, or else keeps it in
`RunReport.snapshots` with a copy of u.  A hook may keep its snapshot: u
views its block's samples (or the initial data), which no later step
writes, and the v coefficients view the ring while the hook runs and are
copied when it returns with v unread and the snapshot still referenced.
The solver does not hold a hooked snapshot: one the hook lets go is freed
when it returns.  The final state is the last snapshot when the run keeps
its snapshots and that one is of the last row kept; else it is built from
that row, u's samples and a copy of v's coefficients, again transformed
only when read.
"""

import math
import weakref
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
    "simulate",
    "detect_blowup",
    "write_energy_csv",
    "format_cell",
]

ENERGY_CSV_COLUMNS = ("t", "kinetic", "potential", "dissipated_cum", "work_cum", "linf", "l2")

# memory for one ledger block of a fixed-step run; see _block_rows
LEDGER_BLOCK_BYTES = 2**20

# an adaptive step is at most GROWTH times the one before; below DT_MIN a run stops
GROWTH = 1.25
DT_MIN = 1e-12

# detect_blowup fits a line through the last FIT_POINTS samples above
# RISE_FACTOR times the initial sup norm, and needs at least MIN_SAMPLES of
# them
FIT_POINTS = 12
RISE_FACTOR = 10.0
MIN_SAMPLES = 8

# exit codes used by the command-line front end
EXIT_CODES = {
    "CompletedHorizon": 0,
    "BlowupDetected": 10,
    "StepFloorReached": 20,
    "BoundaryContaminated": 30,
    "NumericalInstability": 40,
}


class State:
    """The solution (u, v) at time t, on u's grid: u a `Field` of samples,
    v a `Field` or its `half_spectrum` coefficients, which the first read
    of `v` transforms and drops."""

    def __init__(self, t: float, u: Field, v):
        if isinstance(v, Field) and v.grid != u.grid:
            raise ValueError("u and v live on different grids")
        self.t, self.u, self.grid = t, u, u.grid
        self._v = v

    @property
    def v(self) -> Field:
        if not isinstance(self._v, Field):
            self._v = Field(self.grid, from_half_spectrum(self._v, self.grid))
        return self._v

    def _settle_v(self) -> None:
        """Own v apart from the solver's ring: copy its coefficients if
        they were never read."""
        if not isinstance(self._v, Field):
            self._v = self._v.copy()


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
    """A blow-up time from `detect_blowup`.  fit_quality is the R^2 of the
    line fitted to linf^(-(p-1)/2) over the last FIT_POINTS eligible
    samples: how straight that curve is, not how accurate t_star is (at
    N = 512 t_star is 0.2-0.4 % low while fit_quality >= 1 - 1.1e-7, on the
    samples of sixth-order adaptive steps, about 150 to blow-up at tol
    1e-6)."""

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
    `dt_min` / `dt_max` span the accepted step sizes (None without one).
    The snapshots and the final state are on the grid of the data, which
    the solver marched on: for data on an even grid, their samples on
    [0, L]^dim, which `grids.to_full_grid` mirrors.
    `imex_margin` is a fixed-step run's `_imex_margin`, above 0 where its
    step amplifies a mode of the linear part, and None for an adaptive run."""

    outcome: Outcome
    t_stop: float
    energy_trace: list
    final_state: State
    estimate: BlowupEstimate | None = None
    snapshots: list | None = None
    accepted: int = 0
    rejected: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    imex_margin: float | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.outcome.value]


@dataclass
class Controls:
    """Knobs for `simulate`.

    tol = None switches the error control off and marches with the fixed
    step dt0 (used by refinement and order studies).  With tol set, dt0 is
    the first trial step, tol bounds the relative sup-norm error estimate of
    each accepted step, and GROWTH caps the factor by which one step may
    exceed the last, and no cap depends on the grid, as the estimate sees
    the splitting's error at any step.  An attempt that fails is retried
    smaller, and DT_MIN is the floor below which the run stops.
    boundary_check = None means: monitor the boundary shell exactly when
    the initial data is compactly supported.

    snapshot_every = k passes the initial state and every k-th accepted
    state to on_snapshot(state) as soon as the ledger has checked it, in
    order, and `RunReport.snapshots` is None; without on_snapshot,
    `RunReport.snapshots` keeps them.  A state is on the data's grid, and v
    is transformed only when read.  The hook may keep the state (see the
    module docstring; one that keeps many copies u, a view of its ledger
    block).  No hook sees a state after one that tripped a monitor, nor a
    non-finite one.
    """

    t_end: float
    dt0: float = 1e-2
    u_max: float = 1e8
    tol: float | None = 1e-6
    snapshot_every: int | None = None
    boundary_check: bool | None = None
    on_snapshot: Callable[[State], None] | None = None

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not self.dt0 >= DT_MIN:
            raise ValueError(f"dt0 must be at least the step floor DT_MIN = {DT_MIN}, got {self.dt0}")
        if not self.u_max > 0:
            raise ValueError(f"u_max must be positive, got {self.u_max}")
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tol must be positive or None, got {self.tol}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be a positive stride or None")
        if self.on_snapshot is not None and self.snapshot_every is None:
            raise ValueError("on_snapshot needs a snapshot_every stride")


def _imex(u, v, src, dtk2, den, dt, u_out=None, v_out=None) -> tuple:
    """The step, mode by mode: v_out = (v - dtk2 u + dt src) / den and
    u_out = u + dt v_out, with dtk2 = dt |k|^2, den = 1 + dt b |k|^2 and
    src = F[|u|^p] or None.  The marcher passes factors that `_factors`
    built in the step's own outputs, den in u_out and dtk2 in v_out, which
    the kernel reads before it overwrites them.  v - x, not v + (-x),
    keeps signed zeros.
    """
    # outputs passed by position, which numpy parses faster than out=
    v_out = np.multiply(dtk2, u, v_out)
    np.subtract(v, v_out, v_out)
    if src is not None:
        np.add(v_out, dt * src, v_out)
    np.divide(v_out, den, v_out)
    u_out = np.multiply(dt, v_out, u_out)
    np.add(u_out, u, u_out)
    return u_out, v_out


def _factors(dts: list, dtb: list, k2: np.ndarray, block: np.ndarray) -> None:
    """The kernel's dtk2 for steps of sizes dts and den for steps whose
    dt * b are dtb, built by np.multiply.outer into the (u_hat, v_hat) rows
    of the block those steps fill: den in the u rows, dtk2 in the v rows.
    In the rows' dtype: complex on a real-FFT grid, as the kernel's mixed
    real-complex products would cast them, but once, and float64 on an even
    grid; in no array of their own."""
    np.multiply.outer(dts, k2, out=block[:, 1])
    np.multiply.outer(dtb, k2, out=block[:, 0])
    block[:, 0] += 1.0


def _block_rows(grid: Grid) -> int:
    """Rows per ledger block in a fixed-step run: LEDGER_BLOCK_BYTES over
    eight complex arrays of the coefficients' size per row, so that a 1-D
    run at N = 256 takes 63 rows and a 3-D run at 64^3 one (whose even
    grid's float64 rows take half of that)."""
    return max(1, LEDGER_BLOCK_BYTES // (8 * 16 * half_k_squared(grid).size))


@lru_cache(maxsize=64)
def _ledger_weights(grid: Grid) -> np.ndarray:
    """The Parseval columns, rows w and w |k|^2 of one weight per
    coefficient: int f^2 = sum w * (re^2 + im^2) over f's coefficients
    (sum w * f_hat^2 for the float64 ones of an even grid).
    Besides its ring, a fixed-step run holds these, |k|^2 and the ledger's
    one scratch."""
    w = parseval_weights(grid).ravel()
    weights = np.stack((w, w * half_k_squared(grid).ravel()))
    weights.flags.writeable = False
    return weights


def _sup(x: np.ndarray) -> np.ndarray:
    """max |x| along the last axis, without a temporary |x|; the abs turns
    the -0.0 of an all-zero row into 0.0."""
    return np.abs(np.maximum(x.max(axis=-1), -x.min(axis=-1)))


def _columns(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients as a (size, 1) column of float64, or complex ones as a
    (size, 2) array of (re, im) pairs."""
    return coeffs.reshape(-1, 1).view(np.float64)


def _ledger_rows(t, block, grid: Grid, params: Params, samples=None, shell=None) -> tuple:
    """The ledger of a block of rows, computed with array operations.

    Row j is the state at time t[j] whose coefficients are block[j],
    (u_hat, v_hat) and F[|u|^p] with a source, and whose u samples are
    samples[j]; without samples, they come from one stacked inverse
    transform of block[:, 0].  The quadratic sums read a block
    array in place and hold one scratch of at most LEDGER_BLOCK_BYTES or
    one field.  Returns one tuple per row, (t, kinetic, potential, linf,
    l2, dissipation rate b int |grad v|^2, work rate int |u|^p v, whether
    the coefficients are finite, sup of |u| on the shell mask or None
    without one), and the samples.  A row's values do not depend on the
    other rows of the block.
    """
    rows, fields = len(t), len(block[0])
    cols = _ledger_weights(grid)
    size = cols.shape[1]
    # u u, v v and, with a source, F[|u|^p] v, squared as `_columns` into
    # the scratch and contracted with the Parseval columns a field at a
    # time, the same product whatever the block's size: a block of at most
    # LEDGER_BLOCK_BYTES as complex rows in one call, so that one-row
    # blocks stay cheap, a larger one field by field
    if rows * fields * size * 16 <= LEDGER_BLOCK_BYTES:
        pairs = _columns(np.asarray(block)).reshape(rows, fields, size, -1)
        scratch = np.empty(pairs.shape)
        np.multiply(pairs[:, :2], pairs[:, :2], scratch[:, :2])
        if params.nonlinear:
            np.multiply(pairs[:, 2], pairs[:, 1], scratch[:, 2])
        sums = cols @ scratch
    else:
        scratch = np.empty(_columns(block[0][0]).shape)
        sums = np.empty((rows, fields, 2, scratch.shape[1]))
        for j, f in np.ndindex(rows, fields):
            pair = (_columns(block[j][f]), _columns(block[j][min(f, 1)]))
            np.matmul(cols, np.multiply(*pair, scratch), sums[j, f])
    # the real parts' sums plus the imaginary parts', if any
    sums = sums.sum(axis=-1).reshape(rows, -1).tolist()
    del scratch  # before the samples are built
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


class _Ledger:
    """The energy ledger and monitors of one run.

    `flush` computes a block of accepted rows with `_ledger_rows`, then walks
    them in order as a per-step check would: it extends the trapezoid sums,
    records the row, its step size and its snapshot, and stops at the first
    row that trips a monitor.  The run continues from the last row kept: its
    time `t`, its `row` of coefficients as `_ledger_rows` takes them, and
    its u samples `u` where the driver built them, else None; `v` holds the
    initial v samples until a step is kept.  The initial row, at t = 0, is
    the `half_spectrum` of the data u and v, and their source with one.
    Every snapshot goes through `snapshot`, and the snapshots and the final
    state are on the grid the run marches on, u's.
    """

    def __init__(self, u: Field, v: Field, params: Params, controls: Controls, shell):
        self.params, self.controls, self.shell = params, controls, shell
        grid = self.grid = u.grid
        # a linear run cannot blow up, so its divergence is numerical
        self.diverged = (
            Outcome.BLOWUP_DETECTED if params.nonlinear else Outcome.NUMERICAL_INSTABILITY
        )
        values = u.values
        self.row = (half_spectrum(values, grid), half_spectrum(v.values, grid))
        if params.nonlinear:
            self.row += (_source(values, grid, params.p),)
        table, samples = _ledger_rows([0.0], [self.row], grid, params, values[np.newaxis])
        t, kinetic, potential, linf, l2, g, w, finite = table[0][:8]
        if not finite:
            raise ValueError("the initial data, or their coefficients, are not finite")
        self.trace = [EnergyRecord(t, kinetic, potential, 0.0, 0.0, linf, l2)]
        self.rates = g, w
        # views of the initial samples, which `final_state` copies
        self.t = t
        self.u, self.v = values[...], v.values[...]
        self.accepted = 0
        self.dt_lo, self.dt_hi = math.inf, 0.0
        self.hook, self.snapshots = controls.on_snapshot, None
        if controls.snapshot_every and self.hook is None:
            # not bound to the ledger, which would keep the ring in a cycle
            self.snapshots = []
            self.hook = self.snapshots.append
        self.last = None  # the kept snapshot of the last row kept, if it has one
        if controls.snapshot_every:
            self.snapshot(t, samples[0], v)

    def flush(self, t, dts, block, samples=None) -> "Outcome | None":
        """Compute and check the rows of a block, as `_ledger_rows` takes
        them, reached by steps of sizes dts; the outcome of the first row
        that trips a monitor, or None when every row passes.  The last kept
        row views the block, and so do its samples when they were passed."""
        table, built = _ledger_rows(t, block, self.grid, self.params, samples, self.shell)
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
                self.snapshot(t_j, built[j], block[j][1])
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
        # samples built here for a linear block would keep the block alive
        self.t, self.row, self.v = t[kept], block[kept], None
        self.u = None if samples is None else samples[kept]
        return outcome

    def snapshot(self, t: float, u: np.ndarray, v) -> None:
        """Hand the hook the state at time t of a checked row, of samples u
        and of v as a `Field` or as coefficients.  A state the ledger keeps
        gets a copy of u, and of v's samples; one that is still referenced
        once the hook has returned, with v unread, gets a copy of its v
        coefficients from `State._settle_v`.  So a kept snapshot copies each
        field once, and one the hook let go copies nothing.  The state is
        on the data's grid."""
        if self.snapshots is not None:
            u, v = u.copy(), v.copy() if isinstance(v, Field) else v
        snap = State(t, Field(self.grid, u), v)
        held = weakref.ref(snap)
        self.hook(snap)
        del snap
        if held() is not None:
            held()._settle_v()
        if self.snapshots is not None:
            self.last = self.snapshots[-1]

    def final_state(self) -> State:
        """The last row kept as a state: its snapshot when the ledger keeps
        one of that row (a hooked run's snapshots are the hook's), else a
        copy of the u samples the ledger holds or, failing them, those
        built from the row, and a copy of the initial v samples or of the
        row's v coefficients, transformed when read.  So the result views
        neither a ledger block nor the initial data, and a v never read is
        never transformed.  The state is on the data's grid."""
        if self.last is not None:
            return self.last
        grid = self.grid
        u = from_half_spectrum(self.row[0], grid) if self.u is None else self.u.copy()
        v = self.row[1].copy() if self.v is None else Field(grid, self.v.copy())
        return State(self.t, Field(grid, u), v)


def _half_flows(halves: list, bs: list, k2: np.ndarray) -> np.ndarray:
    """The flow over d of each mode's (u, v)' = A (u, v) = (v, -k^2 u - b k^2 v)
    for each (d, b) in zip(halves, bs): a row of its real entries (M11, M22,
    M12, M21).  With tau = -b k^2 and s^2 = tau^2/4 - k^2, the flow is
    e^{d tau/2} [cosh(ds) I + sinh(ds)/s (A - tau/2)] = C I + d S (A - tau/2).
    In x = d tau/2 and r = |ds|, (C, S) is e^x (cos r, sin r / r) where the
    mode is underdamped and e^{x+r} (1 + q/2, -q / 2r), q = expm1(-2r), where
    it is overdamped, with x + r = -d^2 k^2 / (r - x).  So a large b k^2
    underflows, nothing cancels at small r, and r = 0 (k = 0 or critical
    damping), floored at 1e-300, gives the limit e^x (1, 1).
    """
    d = np.array(halves).reshape((-1,) + (1,) * k2.ndim)
    flows = np.empty((len(d), 4) + k2.shape)
    c, x, s, w = (flows[:, j] for j in range(4))  # scratch until the end
    np.multiply(-0.5 * d * np.array(bs).reshape(d.shape), k2, x)
    np.multiply(d * d, k2, w)  # d^2 k^2
    r = x * x - w
    under = r <= 0
    np.maximum(np.sqrt(np.abs(r, r), r), 1e-300, out=r)
    # the overdamped form everywhere, where it is e^x cosh r and finite
    e = np.exp(w / (x - r))  # e^{x+r}
    r2 = -2.0 * r
    q = np.expm1(r2)
    np.divide(e * q, r2, s)
    np.multiply(e, 0.5 * q + 1.0, c)
    # then the underdamped modes, the only ones that need cos and sin
    np.exp(x, e)
    np.multiply(np.cos(r, c, where=under), e, c, where=under)
    np.multiply(np.sin(r, s, where=under) / r, e, s, where=under)
    xs = x * s
    np.add(c, xs, x)  # M22, over x after its last read
    np.subtract(c, xs, c)  # M11
    np.multiply(s, d, s)  # M12
    np.multiply(s, -k2, w)  # M21
    return flows


def _flow(flows: np.ndarray, y: np.ndarray) -> None:
    """Apply a stack of `_half_flows` in place to the (u_hat, v_hat) rows of
    y, one flow per row: the diagonal entries times (u, v), plus the
    off-diagonal ones times (v, u)."""
    swapped = np.multiply(flows[:, 2:], y[:, ::-1])
    np.multiply(flows[:, :2], y, y)
    np.add(y, swapped, y)


def _extrapolated_step(t: float, row, grid: Grid, params: Params, dt: float) -> tuple:
    """One adaptive attempt of size dt from the state at time t whose
    ledger row is row, of which it reads (u_hat, v_hat): the (u_hat, v_hat)
    stack at t + dt, its u samples and the relative error, or None and inf
    when the attempt is not finite.  The chains advance in place in one buffer.
    With constant damping each chain's half-steps share one flow, built
    once; else each half-step's flows are built as it starts, so that an
    attempt holds one set at a time.  T[2,2] overwrites T[1,1], T[3,2]
    T[2,1] and T[3,3] T[2,2], leaving the stack that `_step_error` reads.
    """
    k2 = half_k_squared(grid)
    hs = [dt, dt / 2, dt / 3]
    if params.beta == 0:
        shared = _half_flows([0.5 * h for h in hs], [params.b0] * len(hs), k2)

    def flows(i: int, at: float) -> np.ndarray:
        # substep i's half-steps, whose midpoints lie a fraction at into it
        if params.beta == 0:
            return shared[i:]
        bs = [damping_coeff(t + (i + at) * h, params) for h in hs[i:]]
        return _half_flows([0.5 * h for h in hs[i:]], bs, k2)

    chains = np.empty((len(hs), 2) + k2.shape, row[0].dtype)
    chains[:, 0], chains[:, 1] = row[0], row[1]
    # a column of each chain's step, which scales its rows' kicks
    cols = np.array(hs).reshape((-1,) + (1,) * k2.ndim)
    for i in range(len(hs)):
        y = chains[i:]
        _flow(flows(i, 0.25), y)
        if params.nonlinear:  # one stacked transform each way
            y[:, 1] += _source(from_half_spectrum(y[:, 0], grid), grid, params.p) * cols[i:]
        _flow(flows(i, 0.75), y)
    # Aitken-Neville in h^2 in place, T[j,k] = a + (a - b) / ((n_j / n_(j-k+1))^2 - 1)
    t11, t21, t31 = chains
    t22, t32, t33 = chains[0], chains[1], chains[0]
    np.add(t21, np.divide(np.subtract(t21, t11, t22), 3.0, t22), t22)
    np.add(t31, np.divide(np.subtract(t31, t21, t32), 1.25, t32), t32)
    np.add(t32, np.divide(np.subtract(t32, t22, t33), 8.0, t33), t33)
    return chains[0], *_step_error(chains[:2].reshape((4,) + k2.shape), grid)


def _source(u: np.ndarray, grid: Grid, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """The source F[|u|^p] of samples u (leading axes stack fields), into out if given."""
    power = np.abs(u)
    power **= p
    return half_spectrum(power, grid, out=out)


def _step_error(coeffs: np.ndarray, grid: Grid) -> tuple:
    """The u samples of a result and its relative sup-norm gap to a
    lower-order one, given coeffs = (u_hat, v_hat) of the result followed
    by those of the other; None and inf when either is not finite.  One
    stacked inverse transform gives all four fields."""
    stack = from_half_spectrum(coeffs, grid)
    high, low = stack[:2], stack[2:]
    scale = float(np.abs(high).max())
    # a sup over both fields; nan or inf in any field reaches scale or gap
    gap = float(np.abs(np.subtract(high, low, low), low).max())
    if not (math.isfinite(scale) and math.isfinite(gap)):
        return None, math.inf
    # a copy, so that the kept samples do not hold on to the whole stack
    return high[0].copy(), gap / max(scale, 1e-30)


def _step_factor(err: float, controls: Controls) -> float:
    """Elementary controller for the error estimate, the gap between orders
    six and four, which shrinks as dt^5: the next step over the one just
    tried, for an accepted and a rejected attempt alike."""
    if math.isinf(err):
        return 0.5
    ratio = controls.tol / err if err > 0 else math.inf
    return min(GROWTH, max(0.2, 0.9 * ratio**0.2))


def _adapt(ledger: _Ledger, params: Params, controls: Controls) -> tuple:
    """The adaptive run from the ledger's last row (see `simulate`): its
    outcome, or None at the horizon, and the number of rejected attempts.
    Every row it flushes is finite, so the ledger keeps it."""
    grid = ledger.grid
    dt, t_end = controls.dt0, controls.t_end
    rejected = 0
    while ledger.t < t_end * (1.0 - 1e-14):
        t = ledger.t
        dt_step = min(dt, t_end - t)
        if dt_step < DT_MIN:
            return Outcome.STEP_FLOOR_REACHED, rejected
        new, u, err = _extrapolated_step(t, ledger.row, grid, params, dt_step)
        dt = dt_step * _step_factor(err, controls)
        if err > controls.tol:
            rejected += 1
            continue
        if params.nonlinear:
            new = (*new, _source(u, grid, params.p))
        outcome = ledger.flush([t + dt_step], [dt_step], [new], u[np.newaxis])
        if outcome is not None:
            return outcome, rejected
    return None, rejected


def _march(ledger: _Ledger, params: Params, controls: Controls) -> "Outcome | None":
    """The fixed-step run from the ledger's last row: its outcome, or None
    at the horizon.  The ring is two halves of `_block_rows` ledger rows;
    a block fills the half its start row is not in, so that the ledger
    reads it as one array and a dropped first row leaves the last row kept
    intact."""
    grid = ledger.grid
    k2 = half_k_squared(grid)
    block_rows = _block_rows(grid)
    shape = (block_rows, 3 if params.nonlinear else 2) + k2.shape
    halves = [np.empty(shape, ledger.row[0].dtype) for _ in range(2)]
    halves[0][0] = ledger.row
    ledger.row = halves[0][0]  # so that the initial coefficients are freed
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
        _factors(dts, dtb, k2, halves[fill][: len(ts)])
        samples = np.empty((len(ts),) + grid.shape) if params.nonlinear else None
        n, prev = len(ts), start
        for i in range(n):
            u, v, src = rows[prev]
            prev = fill * block_rows + i
            _imex(u, v, src, rows[prev][1], rows[prev][0], dts[i], *rows[prev][:2])
            if params.nonlinear:
                values = from_half_spectrum(rows[prev][0], grid, out=samples[i])
                _source(values, grid, params.p, out=rows[prev][2])
                if not _sup(values.ravel()) <= controls.u_max:
                    n = i + 1
                    break
        block = halves[fill][:n]
        outcome = ledger.flush(ts[:n], dts[:n], block, None if samples is None else samples[:n])
        if outcome is not None:
            return outcome
        taken, start, t, fill = taken + n, prev, ts[n - 1], 1 - fill
    return None


def _imex_margin(grid: Grid, params: Params, controls: Controls) -> float:
    """The fixed step's stability margin dt^2 K - 2 dt b K - 4, with K the
    largest |k|^2, dt the first step and b the least damping at the end of
    a step: at dt or at t_end, as b is monotone.  Mode by mode the IMEX
    step's matrix has det 1/D and trace 1 + (1 - dt^2 k^2)/D, with
    D = 1 + dt b k^2, so it amplifies no mode when the margin is at most 0
    (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995); the margin is
    convex in dt, so a shorter last step keeps it."""
    k2_max = float(half_k_squared(grid).max())
    dt = min(controls.dt0, controls.t_end)
    b_min = min(damping_coeff(dt, params), damping_coeff(controls.t_end, params))
    return dt * dt * k2_max - 2.0 * dt * b_min * k2_max - 4.0


def simulate(params: Params, init: InitialData, controls: Controls) -> RunReport:
    """Advance the problem from the given data until the horizon, blow-up,
    a step-size floor, or boundary contamination.

    Adaptive mode (tol set) makes each attempt by extrapolating Strang
    chains to sixth order (see the module docstring) and accepts it when
    its error estimate err is at most tol.  Accepted or not, the next
    attempt has the size dt * min(GROWTH, max(0.2, 0.9 (tol/err)^(1/5))),
    and no cap tied to the grid: the estimate sees the splitting's error,
    near its resonances too.  An attempt that turned non-finite is retried
    at half the size.  Rejected attempts never touch the energy ledger.

    Fixed mode takes the step dt0; the time after step n is n * dt0, except
    that the last step ends exactly at t_end, and a remainder below
    1e-9 * dt0 is no step at all.  It marches a block of steps at a time
    through a coefficient ring allocated once per run, and computes the
    ledger and the monitors on the block (see the module docstring); the
    outcome, the ledger and the final state are those of checking every
    step.  The returned final state and kept snapshots own their samples
    and view neither the ring nor a block.

    A linear run cannot blow up: its energy never grows.  When one turns
    non-finite or exceeds u_max, the outcome is NumericalInstability.  So
    is that of a nonlinear fixed-step run whose step amplifies a mode of
    the linear part (`_imex_margin` above 0): its sup norm grows, but not
    at the rate of a blow-up.

    The run marches on the data's grid, and its snapshots and final state
    are on it: data on an even grid march there, with the same steps,
    ledger and monitors as their mirror on the full grid.  A caller that
    hands init over, as `blwp simulate` does, lets the data go once the
    run has kept a step.

    Data with a sample, or a coefficient, that is not finite raise
    ValueError before any step.
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
    fields = [init.u0, init.u1]
    # so that data a caller hands over go once the ledger, which marches
    # from their samples, keeps a step
    del init
    margin = _imex_margin(grid, params, controls) if controls.tol is None else None
    # data or a diverging step overflow on their way to the outcome below
    with np.errstate(over="ignore", invalid="ignore"):
        ledger = _Ledger(*fields, params, controls, shell)
        del fields
        if controls.tol is None:
            outcome, rejected = _march(ledger, params, controls), 0
        else:
            outcome, rejected = _adapt(ledger, params, controls)
    if outcome is None:
        outcome = Outcome.COMPLETED_HORIZON
    # a fixed step that amplifies a mode of the linear part blows up no run
    if outcome is Outcome.BLOWUP_DETECTED and margin is not None and margin > 0:
        outcome = Outcome.NUMERICAL_INSTABILITY
    estimate = None
    if outcome is Outcome.BLOWUP_DETECTED:
        estimate = _estimate_from_trace(ledger.trace, params)
    return RunReport(
        outcome=outcome,
        t_stop=ledger.t,
        energy_trace=ledger.trace,
        estimate=estimate,
        snapshots=ledger.snapshots,
        final_state=ledger.final_state(),
        accepted=ledger.accepted,
        rejected=rejected,
        dt_min=ledger.dt_lo if ledger.accepted else None,
        dt_max=ledger.dt_hi if ledger.accepted else None,
        imex_margin=margin,
    )


def _estimate_from_trace(trace, params: Params):
    ts = np.array([r.t for r in trace])
    linfs = np.array([r.linf for r in trace])
    try:
        return detect_blowup(ts, linfs, params.p)
    except ValueError:
        return None


def detect_blowup(times, linfs, p: float):
    """Extrapolate a blow-up time from a sup-norm history.

    Near blow-up the source equation forces u ~ C (t* - t)^(-2/(p-1)), so
    w = linf^(-(p-1)/2) decays linearly; a least-squares line through the
    last FIT_POINTS samples (restricted to linf above RISE_FACTOR times the
    initial value) crosses zero at the estimate.  Returns None when w is not
    decreasing, i.e. no blow-up trend.  Raises ValueError with fewer than
    MIN_SAMPLES qualifying samples.  A history that turns non-finite has
    diverged, so where it gives no estimate its last finite time is
    returned, with fit_quality 0.
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
    eligible = np.nonzero(linfs > RISE_FACTOR * base)[0]
    slope = 0.0  # too few samples, or a w that does not fall: no blow-up trend
    if len(eligible) >= MIN_SAMPLES:
        sel = eligible[-FIT_POINTS:]
        t_fit = times[sel]
        w = linfs[sel] ** (-0.5 * (p - 1.0))
        if w[-1] < w[0]:
            slope, intercept = np.polyfit(t_fit, w, 1)
    if slope >= 0:
        if diverged:
            return BlowupEstimate(t_star=float(times[-1]), fit_quality=0.0, samples_used=0)
        if len(eligible) < MIN_SAMPLES:
            raise ValueError(
                f"need at least {MIN_SAMPLES} samples above {RISE_FACTOR} times the "
                f"initial amplitude, found {len(eligible)}"
            )
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


def format_cell(value) -> str:
    """The one number formatter of CSV cells and CLI output: repr for
    floats (so inf, -inf and nan read back), empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_energy_csv(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(ENERGY_CSV_COLUMNS) + "\n")
        for r in report.energy_trace:
            row = (getattr(r, column) for column in ENERGY_CSV_COLUMNS)
            fh.write(",".join(map(format_cell, row)) + "\n")
