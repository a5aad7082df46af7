"""Rescaling experiments for the linear equation.

The map v(t, x) = u(lam*(1+t) - 1, lam*x) sends solutions of the linear
problem with damping power beta to solutions of the same problem with the
damping strength multiplied by lam^(-(beta+1)).  At beta = -1 the factor is 1
and the equation is exactly invariant; for beta > -1 large lam weakens the
damping toward the free wave equation.  For beta < -1 the relevant map
stretches time by lam^(2/(1-beta)) instead.

`invariance_error` turns this into a commuting-diagram test: evolve then
rescale versus rescale the state then evolve, compared in relative L2 at a
common time.  In the invariant case the discrepancy is pure discretization
error and shrinks at first order with the step size.

Rescaling is one pass: `rescale_trajectory` sends every target time's u and
v through the same Fourier evaluation together.  So `invariance_error`
rescales its source run once, for both routes, and it keeps only the source
snapshots near the two times it pulls back to.

The evaluation matrix of an axis has one row per target coordinate and one
column per source mode, so at 1024 target points on 2048 source points it
would take 32 MiB.  `_sample_stack` builds and applies it a chunk of rows at
a time, about EVAL_CHUNK_BYTES each, and no target row needs another.  The
chunk is a fixed constant: BLAS blocks a product by its shape, so another
chunk size moves the samples by rounding (about 1e-12 relative), and a
fixed one keeps reruns byte-identical.  The matrix keeps the full spectrum
rather than the n/2 + 1 non-negative frequencies: that half is exact only in
1-D, because in 2-D and 3-D the Nyquist rows of the other axes have no
conjugate partner at off-grid points.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import Field, Grid, l2_norm
from .model import InitialData, Params, bump_data, make_initial_data
from .stepper import Controls, simulate

__all__ = [
    "ScaleKind",
    "ScaleMap",
    "Trajectory",
    "fourier_sample",
    "rescale_trajectory",
    "invariance_error",
]

# bytes of one row chunk of an evaluation matrix; see _sample_stack
EVAL_CHUNK_BYTES = 2**21


class ScaleKind(Enum):
    STANDARD = "standard"  # beta >= -1
    SUB = "sub"  # beta < -1


@dataclass(frozen=True)
class ScaleMap:
    lam: float
    kind: ScaleKind = ScaleKind.STANDARD
    beta: float | None = None

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.kind is ScaleKind.SUB:
            if self.beta is None or self.beta >= -1:
                raise ValueError("the sub map needs beta < -1")

    @property
    def time_factor(self) -> float:
        if self.kind is ScaleKind.STANDARD:
            return self.lam
        return self.lam ** (2.0 / (1.0 - self.beta))

    def pullback_time(self, t: float) -> float:
        """Source time sampled by the rescaled solution at target time t."""
        return self.time_factor * (1.0 + t) - 1.0

    @staticmethod
    def for_beta(lam: float, beta: float) -> "ScaleMap":
        if beta >= -1:
            return ScaleMap(lam, ScaleKind.STANDARD)
        return ScaleMap(lam, ScaleKind.SUB, beta)


@dataclass
class Trajectory:
    """Uniformly sampled run history: displacement and velocity snapshots."""

    times: np.ndarray
    u: list
    v: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.u) or len(self.times) != len(self.v):
            raise ValueError("times, u, v must have equal length")

    @property
    def grid(self) -> Grid:
        return self.u[0].grid

    @staticmethod
    def from_report(report) -> "Trajectory":
        if not report.snapshots:
            raise ValueError("run report carries no snapshots")
        times = np.array([s.t for s in report.snapshots])
        return Trajectory(times, [s.u for s in report.snapshots], [s.v for s in report.snapshots])


def _axis_eval_matrix(grid: Grid, targets: np.ndarray) -> np.ndarray:
    """Fourier evaluation matrix for one axis at arbitrary coordinates."""
    n = grid.points_per_axis
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    wrapped = np.mod(targets + grid.half_width, 2.0 * grid.half_width)
    mat = np.empty((len(wrapped), n), dtype=complex)
    # k[-j] = -k[j]: the negative frequencies' columns conjugate the positive ones
    np.exp(np.multiply.outer(1j * wrapped, k[: n // 2 + 1]), out=mat[:, : n // 2 + 1])
    np.conjugate(mat[:, n // 2 - 1 : 0 : -1], out=mat[:, n // 2 + 1 :])
    return mat


def _sample_stack(grid: Grid, values: np.ndarray, coords) -> np.ndarray:
    """Interpolants of the fields stacked on the leading axes of `values`,
    on the tensor grid of the per-axis target coordinates `coords`.  Each
    axis's evaluation matrix is built and applied EVAL_CHUNK_BYTES of rows
    at a time (64 rows at 2048 source points), and each field meets the
    BLAS product a one-field call makes.  The matrix keeps the full
    spectrum: a half spectrum is exact only in 1-D (see the module
    docstring)."""
    lead = values.ndim - grid.dim
    out = np.fft.fftn(values, axes=tuple(range(lead, values.ndim)))
    rows = max(1, EVAL_CHUNK_BYTES // (16 * grid.points_per_axis))
    for axis, targets in enumerate(coords, start=lead):
        moved = np.moveaxis(out, axis, lead)
        flat = moved.reshape(moved.shape[: lead + 1] + (-1,))
        chunks = [
            np.matmul(_axis_eval_matrix(grid, targets[i : i + rows]), flat)
            for i in range(0, len(targets) or 1, rows)
        ]
        prod = np.concatenate(chunks, axis=lead)
        prod = prod.reshape(moved.shape[:lead] + (len(targets),) + moved.shape[lead + 1 :])
        out = np.moveaxis(prod, lead, axis)
    return out.real / grid.num_points


def fourier_sample(field: Field, axes_coords) -> np.ndarray:
    """Evaluate the band-limited interpolant of a field on the tensor grid
    spanned by the given per-axis coordinate arrays."""
    grid = field.grid
    if len(axes_coords) != grid.dim:
        raise ValueError(f"need {grid.dim} coordinate arrays")
    return _sample_stack(grid, field.values, [np.asarray(c, dtype=float) for c in axes_coords])


def _time_interp(times: np.ndarray, snaps: list, s: float):
    """Cubic Lagrange interpolation in time on the four nearest snapshots;
    degrades to the available stencil near the ends."""
    if s < times[0] - 1e-12 or s > times[-1] + 1e-12:
        raise ValueError(f"pullback time {s} outside stored range [{times[0]}, {times[-1]}]")
    j = int(np.searchsorted(times, s))
    lo = max(0, min(j - 2, len(times) - 4))
    hi = min(len(times), lo + 4)
    idx = range(lo, hi)
    total = np.zeros_like(snaps[0].values)
    for a in idx:
        w = 1.0
        for b in idx:
            if a != b:
                w *= (s - times[b]) / (times[a] - times[b])
        total = total + w * snaps[a].values
    return total


def rescale_trajectory(
    traj: Trajectory, mapping: ScaleMap, target_grid: Grid, target_times
) -> Trajectory:
    """Sample v(t, x) = u(pullback(t), lam*x) on the target grid and times.

    Space uses spectral interpolation, time a cubic stencil.  The chain rule
    multiplies the stored velocity by the time stretch factor.  The scaled
    target box lam*[-L, L) must sit inside the source box.  All target times
    go through one evaluation together.
    """
    lam = mapping.lam
    src = traj.grid
    if lam * target_grid.half_width > src.half_width * (1 + 1e-12):
        raise ValueError(
            f"scaled target box {lam * target_grid.half_width} exceeds source box {src.half_width}"
        )
    times = np.asarray(target_times, dtype=float)
    pulled = [mapping.pullback_time(t) for t in times]
    stack = np.stack([_time_interp(traj.times, fs, s) for fs in (traj.u, traj.v) for s in pulled])
    sampled = _sample_stack(src, stack, [lam * target_grid.axis()] * src.dim)
    us = [Field(target_grid, a) for a in sampled[: len(times)]]
    vs = [Field(target_grid, mapping.time_factor * a) for a in sampled[len(times) :]]
    return Trajectory(times, us, vs)


def _fixed_run(params: Params, init: InitialData, t_end: float, dt: float, on_snapshot=None):
    controls = Controls(
        t_end=t_end,
        dt0=dt,
        tol=None,
        snapshot_every=1 if on_snapshot else None,
        boundary_check=False,
        on_snapshot=on_snapshot,
    )
    return simulate(params, init, controls)


def _windowed_run(params: Params, init: InitialData, t_end: float, dt: float, centres) -> Trajectory:
    """The snapshots of a fixed-step run that lie within four steps of one
    of the given times.  They hold every cubic stencil `_time_interp` picks
    for those times from the whole run, so interpolating on them gives the
    same numbers."""
    kept = []
    reach = 4.0 * dt

    def keep(state):
        t = state.t
        if any(abs(t - c) <= reach for c in centres):
            kept.append((t, state.u.copy(), state.v))

    _fixed_run(params, init, t_end, dt, on_snapshot=keep)
    times, us, vs = zip(*kept)
    return Trajectory(times, list(us), list(vs))


def invariance_error(
    params: Params,
    lam: float,
    resolution: int,
    t_compare: float = 1.0,
    amplitude: float = 1.0,
    radius: float = 1.0,
    target_half_width: float | None = None,
    courant: float = 0.1,
    restart_params: Params | None = None,
) -> float:
    """Relative L2 distance between evolve-then-rescale and
    rescale-state-then-evolve for a linear bump run.

    At beta = -1 (with b0 = 1) the two routes agree in the continuum, so the
    returned number is discretization error; at other beta the equation is
    not invariant and the number saturates at an order-one level.  lam = 1
    makes the routes identical by construction; lam < 1 is rejected.

    The rescaled solution solves the equation with the damping strength
    multiplied by lam^(-(beta+1)); pass `restart_params` with that factor
    applied to b0 to run the second route against the explicitly rescaled
    equation, which restores agreement for every beta.
    """
    if params.nonlinear:
        raise ValueError("invariance experiments are defined for linear runs")
    if not lam >= 1.0:
        raise ValueError(f"lam must be >= 1, got {lam}: lambda < 1 pulls t = 0 before the run starts")
    if restart_params is None:
        restart_params = params
    mapping = ScaleMap.for_beta(lam, params.beta)

    if target_half_width is None:
        target_half_width = 4.0 * (radius + t_compare)
    target_grid = Grid(params.n, resolution, target_half_width)
    n_src = resolution
    while n_src < lam * resolution:
        n_src *= 2
    src_grid = Grid(params.n, n_src, lam * target_half_width)

    dt_src = courant * src_grid.spacing
    init = make_initial_data(
        Field(src_grid, np.zeros(src_grid.shape)),
        bump_data(src_grid, amplitude, radius=radius),
        compact_support=True,
    )
    pulled = [mapping.pullback_time(0.0), mapping.pullback_time(t_compare)]
    source = _windowed_run(params, init, pulled[1] * (1 + 1e-9), dt_src, pulled)

    # one rescale serves both routes: route one compares at t_compare, route
    # two evolves the rescaled state at t = 0 up to it
    rescaled = rescale_trajectory(source, mapping, target_grid, [0.0, t_compare])
    restart = make_initial_data(rescaled.u[0], rescaled.v[0], compact_support=True)
    dt_tgt = courant * target_grid.spacing
    evolved = _fixed_run(restart_params, restart, t_compare, dt_tgt)

    a = rescaled.u[1]
    b = evolved.final_state.u
    denom = l2_norm(a)
    if denom == 0.0:
        return 0.0
    return l2_norm(Field(target_grid, a.values - b.values)) / denom
