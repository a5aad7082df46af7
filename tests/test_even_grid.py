"""2-D and 3-D data given on the even grid of their samples on [0, L]^dim,
as the config builders give them, march there, with the steps and ledger
of their mirror on the full grid; data on the full grid march there, even
or not."""

import json
import os
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from blowuplab import stepper
from blowuplab.cli import main
from blowuplab.config import (
    apply_overrides,
    build_controls,
    build_grid,
    build_initial_data,
    build_params,
    default_config,
)
from blowuplab.grids import (
    Field,
    Grid,
    boundary_shell_mask,
    constant_field,
    from_half_spectrum,
    grad_sq_integral,
    half_k_squared,
    half_spectrum,
    integrate,
    l2_norm,
    laplacian,
    load_field_binary,
    parseval_weights,
    save_field_binary,
    to_even_grid,
    to_full_grid,
)
from blowuplab.model import Params, bump_data, make_initial_data, mode_data
from blowuplab.stepper import Controls, Outcome, simulate

from conftest import on_even_grid


def _even_noise(dim, points=16, half_width=3.0, seed=0):
    """A random field on the full grid that is even in every axis."""
    even = Grid(dim, points, half_width, even=True)
    values = np.random.default_rng(seed).standard_normal(even.shape)
    return to_full_grid(Field(even, values))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_even_and_full_grids_hold_the_same_field(dim):
    f = _even_noise(dim)
    half = to_even_grid(f)
    assert half.grid == replace(f.grid, even=True) and half.grid.shape == (9,) * dim
    assert not np.shares_memory(half.values, f.values)
    for axis in range(dim):
        along = np.moveaxis(f.values, axis, 0)
        assert np.array_equal(along[1:], along[:0:-1])
    back = to_full_grid(half)
    assert back.grid == f.grid and back.values.tobytes() == f.values.tobytes()
    # the even grid's coordinates are the full grid's at the indices it
    # keeps, 8 down to 0, whose mirrors run from the origin to L
    assert half.grid.axis().tobytes() == f.grid.axis()[8::-1].tobytes()
    assert np.array_equal(-half.grid.axis(), f.grid.axis()[8:].tolist() + [f.grid.half_width])
    # the functions of fields read either grid
    assert integrate(half) == integrate(f) and l2_norm(half) == l2_norm(f)
    assert grad_sq_integral(half) == pytest.approx(grad_sq_integral(f), rel=1e-13)
    lap = laplacian(f).values
    assert np.abs(to_full_grid(laplacian(half)).values - lap).max() <= 1e-13 * np.abs(lap).max()
    assert np.array_equal(to_full_grid(Field(half.grid, boundary_shell_mask(half.grid) * 1.0)).values,
                          boundary_shell_mask(f.grid) * 1.0)


def test_a_field_on_an_even_grid_is_written_as_the_full_grid(tmp_path):
    f = _even_noise(2)
    save_field_binary(f, tmp_path / "full.blwp")
    save_field_binary(to_even_grid(f), tmp_path / "half.blwp")
    assert (tmp_path / "half.blwp").read_bytes() == (tmp_path / "full.blwp").read_bytes()
    assert load_field_binary(tmp_path / "half.blwp").grid == f.grid


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cosine_coefficients_are_the_full_grids_up_to_sign(dim):
    # the full grid's origin sits at index N/2, so its mode m carries the
    # sign (-1)^m against the cosine coefficients of the samples on [0, L]
    f = _even_noise(dim, seed=dim)
    half = to_even_grid(f)
    coeffs = half_spectrum(half.values, half.grid)
    assert coeffs.dtype == np.float64
    m = np.arange(9)
    sign = sum(np.ix_(*[m] * dim)) % 2 * -2 + 1
    full = half_spectrum(f.values, f.grid)[(slice(0, 9),) * dim]
    assert np.abs(coeffs - sign * full).max() <= 1e-13 * np.abs(full).max()
    k2 = half_k_squared(half.grid)
    assert np.array_equal(k2, half_k_squared(f.grid)[(slice(0, 9),) * dim])
    # Parseval on either grid, a stacked transform and writes into out
    square = (parseval_weights(half.grid) * abs(coeffs) ** 2).sum()
    assert square == pytest.approx(integrate(Field(f.grid, f.values**2)), rel=1e-13)
    stack = np.stack([half.values, 2.0 * half.values])
    out = np.empty(stack.shape)
    assert half_spectrum(stack, half.grid, out=out) is out
    assert out[0].tobytes() == coeffs.tobytes()
    samples = np.empty(stack.shape)
    assert from_half_spectrum(out, half.grid, out=samples) is samples
    assert np.abs(samples[0] - half.values).max() <= 1e-14 * np.abs(half.values).max()
    assert from_half_spectrum(out[1], half.grid).tobytes() == samples[1].tobytes()


@pytest.mark.parametrize("dim, points", [(2, 2), (2, 4), (2, 8), (2, 16), (3, 2), (3, 4), (3, 16)])
def test_a_field_file_streams_the_mirror(tmp_path, dim, points):
    # slabs of whole rows of the first axis, as many as an even field's
    # samples fill: at 2-D N = 8 and 16 a slab spans the origin's row, and
    # the last slab is short
    half = to_even_grid(_even_noise(dim, points, seed=points))
    save_field_binary(half, tmp_path / "streamed.blwp")
    save_field_binary(to_full_grid(half), tmp_path / "whole.blwp")
    assert (tmp_path / "streamed.blwp").read_bytes() == (tmp_path / "whole.blwp").read_bytes()
    with pytest.raises(ValueError, match="even grid"):
        to_full_grid(to_full_grid(half))


def test_a_field_file_holds_no_more_than_an_even_field(tmp_path):
    # at 64^3 the slab is 8 of the full grid's 64 planes, 256 KiB, where
    # the even field's 33^3 samples take 281 KiB and the full grid's 2 MiB
    half = to_even_grid(_even_noise(3, 64))
    save_field_binary(half, tmp_path / "f.blwp")
    tracemalloc.start()
    try:
        save_field_binary(half, tmp_path / "f.blwp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= half.values.nbytes


def _irfft_cosine(a, grid, scale):
    """The reference for the matrix products: scale times numpy's irfft of
    length N of the N/2 + 1 values along each of an even grid's axes of a,
    cut to N/2 + 1, which is 1/N times the DCT-I per axis."""
    n = grid.points_per_axis
    for axis in range(a.ndim - grid.dim, a.ndim):
        a = np.fft.irfft(a, n, axis)[(slice(None),) * axis + (slice(n // 2 + 1),)]
    return a * scale


@pytest.mark.parametrize("dim, points", [
    (1, 2), (1, 4), (1, 64), (1, 1024), (2, 2), (2, 8), (2, 256), (2, 1024),
    (3, 2), (3, 4), (3, 32), (3, 128),
])
def test_the_cosine_transform_matches_irfft(dim, points):
    grid = Grid(dim, points, 3.0, even=True)
    stack = np.random.default_rng(points + dim).standard_normal((2,) + grid.shape)
    for transform, scale in ((half_spectrum, float(points) ** dim), (from_half_spectrum, 1.0)):
        for values in (stack[0], stack):
            want = _irfft_cosine(values, grid, scale)
            got = transform(values, grid)
            assert got.dtype == np.float64 and got.shape == values.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            # into out: a new array, the input itself, or a strided view
            out = np.empty(values.shape)
            assert transform(values, grid, out=out) is out
            assert out.tobytes() == got.tobytes()
            out = values.copy()
            assert transform(out, grid, out=out) is out
            assert out.tobytes() == got.tobytes()
            out = np.empty(values.shape + (2,))[..., 0]
            assert transform(values, grid, out=out) is out
            assert out.tobytes() == got.tobytes()
        # a field of the stack is transformed as it is alone
        assert transform(stack, grid)[1].tobytes() == transform(stack[1], grid).tobytes()


def _compact_bump_init(grid, amplitude, radius):
    return make_initial_data(constant_field(grid, 0.0), bump_data(grid, amplitude, 0.0, radius),
                             compact_support=True)


def _config(entries):
    cfg = default_config()
    apply_overrides(cfg, [pair.split("=") for pair in entries.split()])
    return cfg


def _config_case(name, entries, outcome, rel):
    cfg = _config(entries)
    full = build_initial_data(cfg, replace(build_grid(cfg), even=False))
    return name, build_params(cfg), full, build_controls(cfg), outcome, rel


def _even_cases():
    """(name, params, full-grid data, controls, outcome, relative
    tolerance).  Fixed steps and linear runs agree to about 1e-15.  A
    nonlinear adaptive run's step sizes follow its error estimate, the gap
    between two results that agree to about tol, so the roundoff of either
    grid's transforms moves it by about 1e-16 / tol relative, and the run's
    times and fields drift apart by a few 1e-12 (4.6e-12 measured); near
    blow-up that drift grows with the solution's rate (2.3e-10 measured at
    u = 1e6).  At L = 8.3, whose coordinates do not mirror exactly
    (-L + h j is not -(-L + h (N - j)) for some j), the full grid's data
    are even only up to roundoff, and the config's even build is their
    samples at the indices N/2 down to 0: there the adaptive run drifts
    further (2.2e-11 measured), the fixed one does not (2.2e-15)."""
    g2, g3 = Grid(2, 32, 4.0), Grid(3, 16, 3.0)
    modes2 = make_initial_data(mode_data(g2, 0.5, 1), mode_data(g2, 0.5, 2))
    mixed3 = make_initial_data(bump_data(g3, 0.5, 0.0, 1.2), mode_data(g3, 0.3, 1))
    fixed = dict(tol=None, snapshot_every=3)
    return [
        # the CI mode2d run's shape: nonlinear, growing damping, adaptive
        ("2d-adaptive-nonlinear", Params(n=2, p=2.0, beta=-1.0), modes2,
         Controls(t_end=2.0, tol=1e-6, snapshot_every=5), Outcome.COMPLETED_HORIZON, 1e-11),
        ("2d-fixed-linear", Params(n=2, p=2.0, beta=0.0, nonlinear=False), modes2,
         Controls(t_end=0.5, dt0=1e-2, **fixed), Outcome.COMPLETED_HORIZON, 1e-12),
        ("3d-fixed-nonlinear", Params(n=3, p=2.0, beta=-1.0), mixed3,
         Controls(t_end=0.2, dt0=1e-2, **fixed), Outcome.COMPLETED_HORIZON, 1e-12),
        ("3d-adaptive-linear", Params(n=3, p=2.0, beta=0.0, nonlinear=False), mixed3,
         Controls(t_end=0.5, tol=1e-6, snapshot_every=4), Outcome.COMPLETED_HORIZON, 1e-12),
        # a centred bump with the boundary monitor on, which it trips
        ("2d-shell", Params(n=2, p=2.0, beta=0.0, nonlinear=False),
         _compact_bump_init(Grid(2, 64, 4.0), 1.0, 1.9),
         Controls(t_end=20.0, dt0=1e-2, **fixed), Outcome.BOUNDARY_CONTAMINATED, 1e-12),
        ("3d-blowup", Params(n=3, p=2.0, beta=0.0), _compact_bump_init(Grid(3, 16, 6.0), 20.0, 2.5),
         Controls(t_end=5.0, tol=1e-6, u_max=1e6, snapshot_every=10, boundary_check=False),
         Outcome.BLOWUP_DETECTED, 1e-9),
        # the CI mode2d run at L = 8.3
        _config_case("2d-adaptive-mode-8.3",
                     "grid.dim=2 grid.points=32 grid.half_width=8.3 init.kind=mode init.on=both"
                     " init.amplitude=0.5 model.beta=-1 time.t_end=2 output.every=5",
                     Outcome.COMPLETED_HORIZON, 1e-10),
        # a nonlinear 3-D mode at L = 8.3, fixed steps
        _config_case("3d-fixed-mode-8.3",
                     "grid.dim=3 grid.points=32 grid.half_width=8.3 init.kind=mode init.mode=3"
                     " init.on=both time.tol=0 time.dt0=0.02 time.t_end=0.3 output.every=3",
                     Outcome.COMPLETED_HORIZON, 1e-12),
    ]


def _relative_gap(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.parametrize("case, params, init, controls, outcome, rel", _even_cases(),
                         ids=[c[0] for c in _even_cases()])
def test_an_even_run_matches_its_full_grid_run(case, params, init, controls, outcome, rel):
    grid = init.u0.grid
    even = simulate(params, on_even_grid(init), controls)
    full = simulate(params, init, controls)
    assert even.final_state.grid.shape == (grid.points_per_axis // 2 + 1,) * grid.dim
    assert full.final_state.grid.shape == grid.shape
    assert even.outcome is full.outcome is outcome
    assert (even.accepted, even.rejected) == (full.accepted, full.rejected)
    assert even.accepted >= 10
    assert len(even.energy_trace) == len(full.energy_trace)
    for column in stepper.ENERGY_CSV_COLUMNS:
        got = [getattr(r, column) for r in even.energy_trace]
        want = [getattr(r, column) for r in full.energy_trace]
        assert _relative_gap(got, want) <= rel, column
    assert _relative_gap(even.t_stop, full.t_stop) <= rel
    if outcome is Outcome.BLOWUP_DETECTED:
        assert _relative_gap(even.estimate.t_star, full.estimate.t_star) <= rel
    assert len(even.snapshots) == len(full.snapshots) > 2
    # the even run's states stay on its grid, and mirror to the full grid's
    for a, b in zip(even.snapshots + [even.final_state], full.snapshots + [full.final_state]):
        assert a.grid == replace(grid, even=True) and b.grid == grid
        assert a.t == pytest.approx(b.t, rel=rel)
        assert _relative_gap(to_full_grid(a.u).values, b.u.values) <= rel
        assert _relative_gap(to_full_grid(a.v).values, b.v.values) <= rel
    # the first snapshot is the even data, bit for bit
    assert even.snapshots[0].u.values.tobytes() == to_even_grid(init.u0).values.tobytes()
    assert even.snapshots[0].v.values.tobytes() == to_even_grid(init.u1).values.tobytes()


def _hook_cases():
    g2, g3 = Grid(2, 32, 4.0), Grid(3, 16, 3.0)
    return [
        ("2d-fixed-linear", Params(n=2, p=2.0, beta=0.0, nonlinear=False),
         make_initial_data(mode_data(g2, 0.5, 1), mode_data(g2, 0.5, 2)),
         Controls(t_end=0.2, dt0=1e-2, tol=None)),
        ("3d-adaptive-nonlinear", Params(n=3, p=2.0, beta=-1.0),
         make_initial_data(bump_data(g3, 0.5, 0.0, 1.2), mode_data(g3, 0.3, 1)),
         Controls(t_end=0.2, tol=1e-6)),
    ]


@pytest.mark.parametrize("case, params, init, controls", _hook_cases(),
                         ids=[c[0] for c in _hook_cases()])
def test_an_even_snapshot_transforms_v_only_when_read(monkeypatch, case, params, init, controls):
    # a hook that reads only u makes the inverse transforms of a run without
    # snapshots, and reading v adds one for each snapshot but the initial
    # one, whose v is the data's samples
    calls = []
    inverse = stepper.from_half_spectrum

    def spy(*args, **kwargs):
        calls.append(1)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(stepper, "from_half_spectrum", spy)

    even = on_even_grid(init)

    def transforms(read):
        hooked = controls if read is None else replace(controls, snapshot_every=1, on_snapshot=read)
        calls.clear()
        report = simulate(params, even, hooked)
        return len(calls), report.accepted

    seen = []
    plain, accepted = transforms(None)
    assert transforms(lambda state: seen.append(state.u.grid)) == (plain, accepted)
    assert accepted >= 5 and seen == [replace(init.u0.grid, even=True)] * (accepted + 1)
    assert transforms(lambda state: (state.u, state.v)) == (plain + accepted, accepted)


def _full_grid_cases():
    g2, g3 = Grid(2, 32, 4.0), Grid(3, 16, 3.0)
    # 2.2 / 16 is not a binary fraction: -L + h j is not -(-L + h (N - j))
    g_inexact = Grid(2, 32, 1.1)
    g1 = Grid(1, 128, 8.0)
    return [
        ("off-centre", make_initial_data(constant_field(g2, 0.0), bump_data(g2, 1.0, [0.25, 0.0], 1.0))),
        ("inexact-grid", make_initial_data(constant_field(g_inexact, 0.0), bump_data(g_inexact, 1.0, 0.0, 0.5))),
        ("1-d", make_initial_data(constant_field(g1, 0.0), bump_data(g1, 1.0))),
        # even bit for bit, but handed over on the full grid
        ("even-2-d", make_initial_data(mode_data(g2, 0.5, 1), bump_data(g2, 1.0, 0.0, 1.0))),
        ("even-3-d", make_initial_data(mode_data(g3, 0.3, 2), constant_field(g3, 0.5))),
    ]


@pytest.mark.parametrize("case, init", _full_grid_cases(), ids=[c[0] for c in _full_grid_cases()])
def test_data_on_the_full_grid_march_there(case, init):
    # the solver makes no choice of grid: data on the full grid march
    # there, even ones too, and the run's states stay there
    grid = init.u0.grid
    params = Params(n=grid.dim, p=2.0, beta=0.0)
    controls = Controls(t_end=0.1, dt0=1e-2, tol=None, snapshot_every=3, boundary_check=False)
    report = simulate(params, init, controls)
    assert report.accepted == 10 and len(report.snapshots) == 4
    for state in report.snapshots + [report.final_state]:
        assert state.grid == state.u.grid == state.v.grid == grid
    assert report.snapshots[0].u.values.tobytes() == init.u0.values.tobytes()


def test_a_run_lets_its_data_go_once_it_keeps_a_step():
    # handed over, as the CLI hands its data: the ledger holds the samples
    # it marches from until it has kept its first block of steps, one step
    # at 64^3, and no longer
    g = Grid(3, 64, 8.0, even=True)
    params = Params(n=3, p=2.0, beta=0.0, nonlinear=False)
    init = [make_initial_data(bump_data(g, 1.0, radius=1.2), mode_data(g, 0.5, 1))]
    data = [weakref.ref(init[0].u0.values), weakref.ref(init[0].u1.values)]
    alive = []

    def look(state):
        alive.append([ref() is not None for ref in data])

    controls = Controls(t_end=0.03, dt0=1e-2, tol=None, snapshot_every=1, on_snapshot=look)
    report = simulate(params, init.pop(), controls)
    assert report.final_state.grid == g
    # the first two snapshots are seen while the first block is checked
    assert alive == [[True, True]] * 2 + [[False, False]] * 2


@pytest.mark.parametrize("build", [
    lambda g: bump_data(g, 1.0),
    lambda g: mode_data(g, 0.7, 3),
], ids=["bump_data", "mode_data"])
def test_data_builders_hold_about_one_field(build):
    # built on open axes: 1.13 and 1.00 fields of traced peak, where every
    # axis's meshgrid took 5.1 and 3.0
    g = Grid(3, 64, 8.0)
    build(g)
    tracemalloc.start()
    try:
        build(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * g.num_points


def _data_cases():
    """Configs of every builder kind: the data of CI's 3-D mode, mode2d,
    fixed2d and centred 3-D bump runs and of the benchmark's 64^3 run, and
    boxes whose coordinates do not mirror exactly (-L + h j is not
    -(-L + h (N - j)) for some j), where a bump's mismatches at 5.2 fall
    outside its support and at 8.3 inside it; and a 1-D config."""
    ci = [
        "grid.dim=3 grid.points=16 grid.half_width=4 init.kind=mode init.on=u0",
        "grid.dim=2 grid.points=32 grid.half_width=4 init.kind=mode init.on=both init.amplitude=0.5",
        "grid.dim=2 grid.points=64 grid.half_width=8 init.kind=mode init.on=both",
        "grid.dim=3 grid.points=32 grid.half_width=4 init.kind=bump init.on=u0 init.radius=1.5",
        "grid.dim=3 grid.points=64 grid.half_width=8 init.kind=mode init.mode=3 init.on=u1",
    ]
    inexact = [
        f"grid.dim={dim} grid.points=32 grid.half_width={half} init.kind={kind} init.mode=3"
        for kind in ("bump", "mode", "constant") for dim in (2, 3) for half in (5.2, 8.3)
    ]
    return ci + inexact + ["grid.dim=1 grid.points=64 grid.half_width=8.3 init.kind=bump"]


@pytest.mark.parametrize("entries", _data_cases())
def test_data_are_built_on_the_grid_their_run_marches_on(entries):
    # every 2-D and 3-D config on its even grid, whose coordinates are the
    # full grid's at the indices it keeps, so that the data are the full
    # grid's cut down, bit for bit, whether or not those mirror exactly
    cfg = _config(entries)
    grid = build_grid(cfg)
    assert grid.even == (grid.dim > 1)
    built = build_initial_data(cfg, grid)
    full = build_initial_data(cfg, replace(grid, even=False))
    assert built.u0.grid == built.u1.grid == grid
    pairs = ((built.u0, full.u0), (built.u1, full.u1))
    for a, b in pairs:
        want = to_even_grid(b) if grid.even else b
        assert a.values.tobytes() == want.values.tobytes()
    # where the full grid's data mirror bit for bit, as in every box whose
    # coordinates do, the velocity means agree bit for bit; elsewhere the
    # full grid's sum takes the unmirrored samples, which differ at roundoff
    mirrored = not grid.even or all(
        to_full_grid(a).values.tobytes() == b.values.tobytes() for a, b in pairs
    )
    assert mirrored or cfg["grid.half_width"] in (5.2, 8.3)
    if mirrored:
        assert repr(built.mean_u1) == repr(full.mean_u1)
    else:
        scale = (2 * grid.half_width) ** grid.dim
        assert built.mean_u1 == pytest.approx(full.mean_u1, rel=1e-14, abs=1e-14 * scale)


def test_a_bump_off_the_origin_is_refused_on_an_even_grid():
    # its mirror images would be further bumps, not the one asked for
    even = Grid(2, 16, 4.0, even=True)
    with pytest.raises(ValueError, match="centred at the origin"):
        bump_data(even, 1.0, center=[1.0, 0.0])
    full = bump_data(Grid(2, 16, 4.0), 1.0)
    assert bump_data(even, 1.0).values.tobytes() == to_even_grid(full).values.tobytes()


def _largest_rise(run, skip) -> int:
    """The largest rise of traced memory over its level at the profiler
    event before, over the events of run() outside calls of the function
    skip: an array allocated between two calls, or inside one call,
    shows whole (less what was freed in between)."""
    state = {"rise": 0, "base": 0, "inside": 0}

    def profile(frame, event, arg):
        current, peak = tracemalloc.get_traced_memory()
        if not state["inside"]:
            state["rise"] = max(state["rise"], peak - state["base"])
        if event in ("call", "return") and frame.f_code is skip.__code__:
            state["inside"] += 1 if event == "call" else -1
        tracemalloc.reset_peak()
        state["base"] = current

    tracemalloc.start()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return state["rise"]


def test_an_even_simulate_makes_no_full_grid_allocation(tmp_path):
    # blwp simulate in this process, a 3-D mode on u0 at 64^3: 4 steps of
    # 2^-6, a snapshot every 2.  The data are built on the 33^3 grid and
    # every file streams in slabs, so no array of the full grid's 2 MiB is
    # made, but the mirror of u1 in `integrate`, whose full grid's sum
    # gives mean_u1 its bits
    out = tmp_path / "run"
    argv = [
        "simulate", "--grid.dim", "3", "--grid.points", "64", "--grid.half_width", "8",
        "--model.nonlinear", "false", "--init.kind", "mode", "--init.on", "u0",
        "--time.tol", "0", "--time.dt0", "0.015625", "--time.t_end", "0.0625",
        "--output.every", "2", "--output.dir", str(out),
    ]
    codes = []
    rise = _largest_rise(lambda: codes.append(main(argv)), integrate)
    assert codes == [0]
    assert json.loads((out / "report.json").read_text())["solver_points"] == [33, 33, 33]
    assert len(os.listdir(out / "snapshots")) == 2 * 3
    assert rise < 8 * 64**3
