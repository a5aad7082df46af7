"""Rescaling experiments for the linear equation.

The map v(t, x) = u(lam*(1+t) - 1, lam*x) sends solutions of the linear
problem with damping power beta to solutions of the same problem with the
damping strength multiplied by lam^(-(beta+1)).  At beta = -1 the factor is 1
and the equation is exactly invariant; for beta > -1 large lam weakens the
damping toward the free wave equation.  For beta < -1 the relevant map
stretches time by lam^(2/(1-beta)) instead, so a `ScaleMap` is given lam and
beta and works out its time factor from beta.

`invariance_error` turns this into a commuting-diagram test: evolve then
rescale versus rescale the state then evolve, compared in relative L2 at a
common time.  In the invariant case the discrepancy is pure discretization
error and shrinks at first order with the step size.  Its data is a velocity
bump of radius 1, in the box that `model.bump_box_half_width` sizes for the
comparison time.  In 2-D and 3-D both routes' runs march on the even grid,
and both step at COURANT times their grid spacing.

Rescaling is one pass: `rescale_trajectory` sends every target time's u and
v through one transform together, so `invariance_error` rescales its source
run once, for both routes, and keeps only the source snapshots near the two
times it pulls back to.  The source box is lam times the target box, so the
scaled target nodes are a lattice of period 2L/resolution on the source box,
where source mode j takes the values of target mode j modulo the resolution.
Sampling there is a fold of the source spectrum onto the target's modes (a
zero pad when the target is finer) and one inverse FFT of the target size.

`fourier_sample` evaluates the interpolant at arbitrary points through
per-axis evaluation matrices, one row per point and one column per source
mode, each built whole; no program path calls it, and the tests use it as the
reference for the fold.  The matrix keeps the full spectrum: the n/2 + 1
non-negative frequencies are exact only in 1-D, because in 2-D and 3-D the
Nyquist rows of the other axes have no conjugate partner at off-grid points.
"""

from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid, l2_norm, to_even_grid, to_full_grid
from .model import InitialData, Params, bump_box_half_width, bump_data, make_initial_data
from .stepper import Controls, simulate

__all__ = [
    "ScaleMap",
    "Trajectory",
    "fourier_sample",
    "rescale_trajectory",
    "invariance_error",
]

# the time step of invariance_error's runs, in units of their grid spacing
COURANT = 0.1


@dataclass(frozen=True)
class ScaleMap:
    """The rescaling by lam of the problem with damping power beta."""

    lam: float
    beta: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")

    @property
    def time_factor(self) -> float:
        """lam for beta >= -1, and lam^(2/(1-beta)) below."""
        if self.beta >= -1:
            return self.lam
        return self.lam ** (2.0 / (1.0 - self.beta))

    def pullback_time(self, t: float) -> float:
        """Source time sampled by the rescaled solution at target time t."""
        return self.time_factor * (1.0 + t) - 1.0


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


def fourier_sample(field: Field, axes_coords) -> np.ndarray:
    """Evaluate the band-limited interpolant of a field on the tensor grid
    spanned by the given per-axis coordinate arrays (see the module docstring)."""
    grid = field.grid
    if len(axes_coords) != grid.dim:
        raise ValueError(f"need {grid.dim} coordinate arrays")
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    out = np.fft.fftn(field.values)
    for axis, targets in enumerate(axes_coords):
        wrapped = np.mod(np.asarray(targets, dtype=float) + grid.half_width, 2.0 * grid.half_width)
        matrix = np.exp(1j * np.multiply.outer(wrapped, k))
        out = np.moveaxis(np.tensordot(matrix, np.moveaxis(out, axis, 0), axes=1), 0, axis)
    return out.real / grid.num_points


def _fold(spec: np.ndarray, axis: int, res: int) -> np.ndarray:
    """One axis of an FFT-ordered spectrum on `res` modes: the modes congruent
    modulo res summed, or zero-padded when res is larger (both powers of two)."""
    n = spec.shape[axis]
    moved = np.moveaxis(spec, axis, 0)
    if res <= n:
        folded = moved.reshape((n // res, res) + moved.shape[1:]).sum(axis=0)
    else:
        folded = np.zeros((res,) + moved.shape[1:], dtype=complex)
        folded[: n // 2], folded[res - n // 2 :] = moved[: n // 2], moved[n // 2 :]
    return np.moveaxis(folded, 0, axis)


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
    target box lam*[-L, L) must be the source box, and the grids must share
    their dimension; snapshots on an even grid are mirrored to the full
    grid after the time stencil.  All target times go through one fold of
    the source spectrum together (see the module docstring).
    """
    lam = mapping.lam
    src = traj.grid
    if target_grid.dim != src.dim:
        raise ValueError(f"target grid is {target_grid.dim}-D but the source grid is {src.dim}-D")
    if abs(lam * target_grid.half_width - src.half_width) > 1e-12 * src.half_width:
        raise ValueError(
            f"scaled target box {lam} * {target_grid.half_width} is not the source box {src.half_width}"
        )
    times = np.asarray(target_times, dtype=float)
    pulled = [mapping.pullback_time(t) for t in times]
    stack = [_time_interp(traj.times, fs, s) for fs in (traj.u, traj.v) for s in pulled]
    if src.even:  # the snapshots of a run on the even grid, mirrored for the FFT
        stack = [to_full_grid(Field(src, a)).values for a in stack]
    stack = np.stack(stack)
    axes = tuple(range(1, stack.ndim))
    spec = np.fft.fftn(stack, axes=axes)
    res = target_grid.points_per_axis
    for axis in axes:
        spec = _fold(spec, axis, res)
    sampled = np.fft.ifftn(spec, axes=axes).real * (res / src.points_per_axis) ** src.dim
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
    restart_params: Params | None = None,
) -> float:
    """Relative L2 distance between evolve-then-rescale and
    rescale-state-then-evolve for a linear bump run.

    At beta = -1 (with b0 = 1) the two routes agree in the continuum, so the
    returned number is discretization error; at other beta the equation is
    not invariant and the number saturates at an order-one level.  lam = 1
    makes the routes identical by construction; lam < 1 is rejected, and so
    is an infinite lam, whose source grid would never be fine enough.

    The rescaled solution solves the equation with the damping strength
    multiplied by lam^(-(beta+1)); pass `restart_params` with that factor
    applied to b0 to run the second route against the explicitly rescaled
    equation, which restores agreement for every beta.
    """
    if params.nonlinear:
        raise ValueError("invariance experiments are defined for linear runs")
    if not 1.0 <= lam < np.inf:
        raise ValueError(
            f"lam must be finite and >= 1, got {lam}: lambda < 1 pulls t = 0 before the run starts"
        )
    if restart_params is None:
        restart_params = params
    mapping = ScaleMap(lam, params.beta)

    target_half_width = bump_box_half_width(1.0, t_compare)
    target_grid = Grid(params.n, resolution, target_half_width)
    n_src = resolution
    while n_src < lam * resolution:
        n_src *= 2
    src_grid = Grid(params.n, n_src, lam * target_half_width, even=params.n > 1)

    dt_src = COURANT * src_grid.spacing
    init = make_initial_data(
        Field(src_grid, np.zeros(src_grid.shape)),
        bump_data(src_grid, amplitude, radius=1.0),
        compact_support=True,
    )
    pulled = [mapping.pullback_time(0.0), mapping.pullback_time(t_compare)]
    source = _windowed_run(params, init, pulled[1] * (1 + 1e-9), dt_src, pulled)

    # one rescale serves both routes: route one compares at t_compare, route
    # two evolves the rescaled state at t = 0 up to it
    rescaled = rescale_trajectory(source, mapping, target_grid, [0.0, t_compare])
    u0, v0 = rescaled.u[0], rescaled.v[0]
    if src_grid.even:  # the rescales of even fields, even up to roundoff
        u0, v0 = to_even_grid(u0), to_even_grid(v0)
    restart = make_initial_data(u0, v0, compact_support=True)
    dt_tgt = COURANT * target_grid.spacing
    evolved = _fixed_run(restart_params, restart, t_compare, dt_tgt)

    a = rescaled.u[1]
    b = to_full_grid(evolved.final_state.u) if src_grid.even else evolved.final_state.u
    denom = l2_norm(a)
    if denom == 0.0:
        return 0.0
    return l2_norm(Field(target_grid, a.values - b.values)) / denom
