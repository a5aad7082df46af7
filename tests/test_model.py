import numpy as np
import pytest

from blowuplab.grids import Grid, integrate, linf_norm
from blowuplab.model import (
    InitialData,
    Params,
    bump_data,
    constant_data,
    damping_coeff,
    make_initial_data,
    mode_data,
)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(n=0, p=2.0, beta=0.0)
    with pytest.raises(ValueError):
        Params(n=1, p=1.0, beta=0.0)
    with pytest.raises(ValueError):
        Params(n=1, p=2.0, beta=0.0, b0=0.0)


def test_damping_coeff_examples():
    assert damping_coeff(0.0, Params(n=1, p=2.0, beta=7.3, b0=1.0)) == 1.0
    p0 = Params(n=1, p=2.0, beta=0.0, b0=2.5)
    assert damping_coeff(0.0, p0) == damping_coeff(9.0, p0) == 2.5
    assert damping_coeff(1.0, Params(n=1, p=2.0, beta=2.0)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        damping_coeff(-0.5, p0)


def test_damping_coeff_monotonicity():
    decaying = Params(n=1, p=2.0, beta=1.5)
    growing = Params(n=1, p=2.0, beta=-1.5)
    ts = np.linspace(0.0, 20.0, 50)
    dec = [damping_coeff(t, decaying) for t in ts]
    grow = [damping_coeff(t, growing) for t in ts]
    assert all(b > 0 for b in dec + grow)
    assert all(a > b for a, b in zip(dec, dec[1:]))
    assert all(a < b for a, b in zip(grow, grow[1:]))


def test_bump_peak_and_support():
    g = Grid(1, 256, 8.0)
    b = bump_data(g, 1.0, 0.0, 1.0)
    x = g.axis()
    at_center = b.values[np.where(x == 0.0)][0]
    assert at_center == 1.0
    outside = np.abs(x) >= 1.0
    assert np.all(b.values[outside] == 0.0)
    assert np.all(b.values >= 0.0)


def test_bump_zero_amplitude_and_sign():
    g = Grid(1, 128, 8.0)
    assert linf_norm(bump_data(g, 0.0)) == 0.0
    assert integrate(bump_data(g, -2.0)) < 0.0


def test_bump_rejects_oversized_radius():
    g = Grid(1, 64, 4.0)
    with pytest.raises(ValueError):
        bump_data(g, 1.0, 0.0, 2.5)


def test_bump_2d_center_broadcast():
    g = Grid(2, 64, 4.0)
    b = bump_data(g, 2.0, 0.0, 1.0)
    assert b.values.max() == pytest.approx(2.0)
    r = g.radii()
    assert np.all(b.values[r >= 1.0] == 0.0)


def test_mode_data_periodicity():
    g = Grid(1, 64, 2.0)
    f = mode_data(g, 1.0, 2)
    # two full periods across the box; endpoint values match by periodicity
    assert f.values[0] == pytest.approx(1.0)


def test_mode_data_refuses_a_mode_the_grid_aliases():
    g = Grid(1, 16, 2.0)
    nyquist = mode_data(g, 1.0, 8)
    assert nyquist.values == pytest.approx([(-1.0) ** j for j in range(16)], abs=1e-12)
    with pytest.raises(ValueError, match="mode index 9 exceeds the grid's Nyquist mode 8"):
        mode_data(g, 1.0, 9)
    with pytest.raises(ValueError, match="mode index 40 exceeds"):
        mode_data(g, 1.0, 40)


def test_initial_data_mean_cached():
    g = Grid(1, 256, 8.0)
    u1 = bump_data(g, 3.0, 0.0, 1.0)
    data = make_initial_data(constant_data(g, 0.0), u1, compact_support=True)
    assert data.mean_u1 == integrate(u1)
    assert data.compact_support


def test_theorem_data_requires_positive_velocity_mean():
    g = Grid(1, 256, 8.0)
    zero = constant_data(g, 0.0)
    good = make_initial_data(zero, bump_data(g, 1.0), theorem_data=True)
    assert good.mean_u1 > 0.0
    with pytest.raises(ValueError):
        make_initial_data(zero, bump_data(g, -1.0), theorem_data=True)


def test_initial_data_grid_mismatch():
    g1 = Grid(1, 64, 4.0)
    g2 = Grid(1, 128, 4.0)
    with pytest.raises(ValueError):
        InitialData(constant_data(g1, 0.0), constant_data(g2, 1.0), mean_u1=0.0)
