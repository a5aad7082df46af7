import tracemalloc

import numpy as np
import pytest

from blowuplab.grids import Field, Grid, l2_norm, laplacian, to_full_grid
from blowuplab.model import Params, bump_data, make_initial_data
from blowuplab.scaling import (
    ScaleMap,
    Trajectory,
    fourier_sample,
    invariance_error,
    rescale_trajectory,
)
from blowuplab.stepper import Controls, simulate


def test_scale_map_pullback():
    std = ScaleMap(2.0, -1.0)
    assert std.pullback_time(0.0) == 1.0
    assert std.pullback_time(1.0) == 3.0
    sub = ScaleMap(4.0, -3.0)
    # time stretch lam^(2 / (1 - beta)) = 4^(1/2) = 2
    assert sub.time_factor == pytest.approx(2.0)
    assert ScaleMap(2.0, 0.0).time_factor == 2.0


def test_scale_map_validation():
    with pytest.raises(ValueError):
        ScaleMap(0.0, -1.0)


def test_fourier_sample_reproduces_grid_nodes():
    g = Grid(1, 64, 2.0)
    rng = np.random.default_rng(1)
    f = Field(g, rng.normal(size=g.shape))
    resampled = fourier_sample(f, [g.axis()])
    assert np.abs(resampled - f.values).max() < 1e-11


def test_fourier_sample_exact_for_band_limited():
    g = Grid(1, 64, 2.0)
    k = 2.0 * np.pi / (2.0 * g.half_width) * 3
    f = Field(g, np.sin(k * g.axis()))
    targets = np.linspace(-2.0, 2.0, 37, endpoint=False)
    sampled = fourier_sample(f, [targets])
    assert np.abs(sampled - np.sin(k * targets)).max() < 1e-10


def _identity_traj(grid, times, profile, velocity=None):
    u = [Field(grid, profile.copy()) for _ in times]
    v = [Field(grid, (velocity if velocity is not None else np.zeros_like(profile)).copy()) for _ in times]
    return Trajectory(np.asarray(times), u, v)


def test_rescale_identity_map():
    g = Grid(1, 128, 4.0)
    rng = np.random.default_rng(3)
    profile = rng.normal(size=g.shape)
    traj = _identity_traj(g, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5], profile)
    out = rescale_trajectory(traj, ScaleMap(1.0, -1.0), g, [0.4])
    assert np.abs(out.u[0].values - profile).max() < 1e-10


def test_rescale_linear_profile_doubles():
    # u(t, x) = x sampled where lam * target nodes land exactly on source
    # nodes, so no interpolation error hides the factor
    lam = 2.0
    target = Grid(1, 64, 2.0)
    source = Grid(1, 64, 4.0)
    x_src = source.axis()
    traj = _identity_traj(source, [0.0, 1.0, 2.0, 3.0, 4.0], x_src)
    out = rescale_trajectory(traj, ScaleMap(lam, -1.0), target, [0.5])
    assert np.abs(out.u[0].values - lam * target.axis()).max() < 1e-10


def test_rescale_traveling_wave_still_solves_wave_equation():
    # u(t, x) = cos(k (x - t)) solves the undamped equation; so does its
    # rescaling.  Checked via spectral Laplacian and time differences of the
    # rescaled trajectory.
    lam = 2.0
    target = Grid(1, 128, 2.0)
    source = Grid(1, 256, 4.0)
    k = 2.0 * np.pi / (2.0 * source.half_width) * 2
    dt_src = 0.01
    times = np.arange(0.0, 3.6, dt_src)
    u = [Field(source, np.cos(k * (source.axis() - t))) for t in times]
    v = [Field(source, k * np.sin(k * (source.axis() - t))) for t in times]
    traj = Trajectory(times, u, v)

    delta = 0.02
    out = rescale_trajectory(traj, ScaleMap(lam, -1.0), target, [1.0 - delta, 1.0, 1.0 + delta])
    u_tt = (out.u[2].values - 2.0 * out.u[1].values + out.u[0].values) / delta**2
    residual = u_tt - laplacian(out.u[1]).values
    assert np.abs(residual).max() < 5e-3 * (lam * k) ** 2 * 1.0


def test_rescale_requires_containment():
    target = Grid(1, 64, 4.0)
    source = Grid(1, 64, 4.0)
    traj = _identity_traj(source, [0.0, 1.0, 2.0, 3.0], np.zeros(source.shape))
    # the scaled target box must be the source box, neither larger nor smaller
    for lam in (2.0, 0.5):
        with pytest.raises(ValueError, match=r"box .*4\.0.* source box 4\.0"):
            rescale_trajectory(traj, ScaleMap(lam, -1.0), target, [0.1])
    with pytest.raises(ValueError, match="2-D but the source grid is 1-D"):
        rescale_trajectory(traj, ScaleMap(1.0, -1.0), Grid(2, 64, 4.0), [0.1])
    with pytest.raises(ValueError, match="outside"):
        rescale_trajectory(traj, ScaleMap(1.0, -1.0), target, [5.0])


def test_invariance_error_identity_scale():
    params = Params(n=1, p=2.0, beta=-1.0, nonlinear=False)
    err = invariance_error(params, lam=1.0, resolution=128, t_compare=0.5)
    assert err < 1e-10


def test_invariance_error_requires_linear_run():
    with pytest.raises(ValueError):
        invariance_error(Params(n=1, p=2.0, beta=-1.0), lam=2.0, resolution=64)


def test_invariant_damping_beats_control():
    invariant = invariance_error(
        Params(n=1, p=2.0, beta=-1.0, nonlinear=False), lam=2.0, resolution=128
    )
    control = invariance_error(
        Params(n=1, p=2.0, beta=0.0, nonlinear=False), lam=2.0, resolution=128
    )
    assert invariant < 2e-3
    assert control > 1e-2


def test_group_composition_consistency():
    # one jump by lam^2 lands where two jumps by lam do, up to the
    # interpolation and stepping tolerances of each route
    params = Params(n=1, p=2.0, beta=-1.0, nonlinear=False)
    one_jump = invariance_error(params, lam=4.0, resolution=128, t_compare=0.25)
    assert one_jump < 5e-3


def test_rescaled_damping_factor_restores_invariance():
    # the rescaled solution obeys the equation with b0 scaled by
    # lam^(-(beta+1)); rerunning the second route with that factor turns the
    # order-one mismatch into discretization error that shrinks on refinement
    from dataclasses import replace

    lam = 2.0
    for beta in (0.0, 1.0):
        params = Params(n=1, p=2.0, beta=beta, b0=1.0, nonlinear=False)
        corrected = replace(params, b0=params.b0 * lam ** (-(beta + 1.0)))
        raw = invariance_error(params, lam=lam, resolution=128)
        fixed = invariance_error(params, lam=lam, resolution=128, restart_params=corrected)
        finer = invariance_error(params, lam=lam, resolution=256, restart_params=corrected)
        assert fixed < raw / 20.0
        assert finer < 0.8 * fixed


def test_invariance_error_rejects_lambda_below_one():
    params = Params(n=1, p=2.0, beta=-1.0, nonlinear=False)
    # an infinite lam would double the source grid forever
    for lam in (0.5, 0.75, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam"):
            invariance_error(params, lam=lam, resolution=64)


def _mode_sum(values, grid, points):
    # the interpolant as a direct sum over every fftfreq mode, Nyquist included
    spec = np.fft.fftn(values)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    kk = np.meshgrid(*([k] * grid.dim), indexing="ij")
    out = np.empty(len(points))
    for i, x in enumerate(points):
        phase = sum(ka * (xa + grid.half_width) for ka, xa in zip(kk, x))
        out[i] = (spec * np.exp(1j * phase)).sum().real / grid.num_points
    return out


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_fourier_sample_matches_mode_sum(dim, n):
    g = Grid(dim, n, 2.0)
    rng = np.random.default_rng(7 + dim)
    f = Field(g, rng.normal(size=g.shape))
    coords = [rng.uniform(-2.0, 2.0, size=3 + a) for a in range(dim)]
    sampled = fourier_sample(f, coords)
    points = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1).reshape(-1, dim)
    direct = _mode_sum(f.values, g, points).reshape(sampled.shape)
    assert np.abs(sampled - direct).max() < 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("dim,n_src,n_tgt", [(1, 256, 128), (2, 32, 16), (3, 16, 8)])
def test_rescale_many_times_matches_one_time_calls(dim, n_src, n_tgt):
    source = Grid(dim, n_src, 4.0)
    target = Grid(dim, n_tgt, 2.0)
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 4.0, 9)
    u = [Field(source, rng.normal(size=source.shape)) for _ in times]
    v = [Field(source, rng.normal(size=source.shape)) for _ in times]
    traj = Trajectory(times, u, v)
    mapping = ScaleMap(2.0, -1.0)
    targets = [0.1, 0.55, 1.0]
    together = rescale_trajectory(traj, mapping, target, targets)
    for j, t in enumerate(targets):
        alone = rescale_trajectory(traj, mapping, target, [t])
        for a, b in ((together.u[j], alone.u[0]), (together.v[j], alone.v[0])):
            assert np.abs(a.values - b.values).max() <= 1e-13 * np.abs(b.values).max()


@pytest.mark.parametrize(
    "dim,n_src,n_tgt", [(1, 256, 128), (2, 32, 16), (3, 16, 8), (1, 32, 128), (2, 8, 32), (3, 4, 8)]
)
@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 4.0])
def test_rescale_fold_matches_fourier_sample(dim, n_src, n_tgt, lam):
    # the fold of the source spectrum samples the interpolant at lam times
    # the target nodes, as the evaluation matrices do; the last three
    # targets are finer than their sources
    target = Grid(dim, n_tgt, 2.0)
    source = Grid(dim, n_src, lam * 2.0)
    rng = np.random.default_rng(17 + dim)
    u, v = rng.normal(size=source.shape), rng.normal(size=source.shape)
    traj = _identity_traj(source, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], u, v)
    mapping = ScaleMap(lam, -1.0)
    out = rescale_trajectory(traj, mapping, target, [0.3])
    points = [lam * target.axis()] * dim
    for got, field, factor in ((out.u[0], u, 1.0), (out.v[0], v, mapping.time_factor)):
        expected = factor * fourier_sample(Field(source, field), points)
        assert np.abs(got.values - expected).max() <= 1e-13 * np.abs(expected).max()


def test_criterion_7_values_pinned():
    # criterion 7's three runs at amplitude 1, as computed by the
    # per-target-time rescale that preceded the shared evaluation matrix
    invariant = Params(n=1, p=2.0, beta=-1.0, b0=1.0, nonlinear=False)
    control = Params(n=1, p=2.0, beta=0.0, b0=1.0, nonlinear=False)
    pins = [
        (invariant, 512, 0.00021970369993223779),
        (invariant, 1024, 0.00010991879471406521),
        (control, 512, 0.06578662437529889),
    ]
    for params, res, expected in pins:
        err = invariance_error(params, lam=2.0, resolution=res, amplitude=1.0)
        assert err == pytest.approx(expected, rel=1e-10, abs=0.0)


def _invariance_error_from_every_step(params, lam, resolution):
    """invariance_error's two routes at its defaults, with the source run
    keeping every step in its report."""
    mapping = ScaleMap(lam, params.beta)
    target = Grid(params.n, resolution, 8.0)
    n_src = resolution
    while n_src < lam * resolution:
        n_src *= 2
    src = Grid(params.n, n_src, lam * 8.0)
    init = make_initial_data(
        Field(src, np.zeros(src.shape)), bump_data(src, 1.0, radius=1.0), compact_support=True
    )
    t_src = mapping.pullback_time(1.0) * (1 + 1e-9)
    controls = Controls(
        t_end=t_src, dt0=0.1 * src.spacing, tol=None, snapshot_every=1, boundary_check=False
    )
    snaps = simulate(params, init, controls).snapshots
    source = Trajectory([s.t for s in snaps], [s.u for s in snaps], [s.v for s in snaps])
    rescaled = rescale_trajectory(source, mapping, target, [0.0, 1.0])
    restart = make_initial_data(rescaled.u[0], rescaled.v[0], compact_support=True)
    controls = Controls(t_end=1.0, dt0=0.1 * target.spacing, tol=None, boundary_check=False)
    evolved = simulate(params, restart, controls).final_state.u
    if evolved.grid.even:
        evolved = to_full_grid(evolved)
    a = rescaled.u[1]
    return l2_norm(Field(target, a.values - evolved.values)) / l2_norm(a)


@pytest.mark.parametrize("dim, resolution", [(1, 64), (2, 16)])
@pytest.mark.parametrize("beta", [-1.0, 0.0])
@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 4.0])
def test_invariance_error_matches_the_whole_source_trajectory(dim, resolution, beta, lam):
    # the source run keeps only the snapshots near its two pullback times;
    # every cubic stencil it reads must be the one the whole run gives
    params = Params(n=dim, p=2.0, beta=beta, b0=1.0, nonlinear=False)
    expected = _invariance_error_from_every_step(params, lam, resolution)
    assert invariance_error(params, lam=lam, resolution=resolution) == expected


def test_invariance_error_memory_does_not_grow_with_the_source_run():
    # a source run of 1,921 steps on 2,048 points: its whole history of
    # (u, v) pairs alone would take 60 MiB
    params = Params(n=1, p=2.0, beta=-1.0, b0=1.0, nonlinear=False)
    tracemalloc.start()
    try:
        invariance_error(params, lam=2.0, resolution=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
