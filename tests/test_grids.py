import math

import numpy as np
import pytest
from scipy.integrate import quad

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
    laplacian,
    linf_norm,
    load_field_binary,
    save_field_binary,
)
from blowuplab.model import bump_data


def grid1d(n=256, half=8.0):
    return Grid(1, n, half)


def cosine_mode(grid, m=1):
    k = m * np.pi / grid.half_width
    return Field(grid, np.cos(k * grid.axis())), k


def band_limited_noise(grid, modes=6, seed=0):
    rng = np.random.default_rng(seed)
    x = grid.axis()
    values = np.zeros(grid.shape)
    for m in range(1, modes + 1):
        k = m * np.pi / grid.half_width
        values = values + rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
    return Field(grid, values)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 64, 1.0)
    with pytest.raises(ValueError):
        Grid(1, 100, 1.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 64, -1.0)
    g = Grid(2, 64, 3.0)
    assert g.spacing * g.points_per_axis == pytest.approx(2 * g.half_width)
    assert g.num_points == 64 * 64


def test_laplacian_of_zero_and_constant():
    g = grid1d()
    zero = constant_field(g, 0.0)
    assert np.all(laplacian(zero).values == 0.0)
    const = constant_field(g, 3.7)
    assert linf_norm(laplacian(const)) < 1e-12


def test_laplacian_eigenfunction():
    g = grid1d()
    f, k = cosine_mode(g)
    lap = laplacian(f)
    assert np.abs(lap.values + k * k * f.values).max() < 1e-11


def test_laplacian_linearity_two_modes():
    g = grid1d()
    f1, k1 = cosine_mode(g, 1)
    f2, k2 = cosine_mode(g, 2)
    combined = Field(g, f1.values + f2.values)
    expected = -k1 * k1 * f1.values - k2 * k2 * f2.values
    assert np.abs(laplacian(combined).values - expected).max() < 1e-10


def test_laplacian_integrates_to_zero():
    g = grid1d()
    f = band_limited_noise(g)
    assert abs(integrate(laplacian(f))) < 1e-10


def test_integrate_constant():
    g = grid1d(half=5.0)
    assert integrate(constant_field(g, 1.5)) == pytest.approx(2 * 5.0 * 1.5)


def test_integrate_full_period_cosine_vanishes():
    g = grid1d()
    f, _ = cosine_mode(g)
    assert abs(integrate(f)) < 1e-12


# profile integral of exp(1 - 1/(1 - s^2)) over [-1, 1], fixed by adaptive
# quadrature of the 1d bump profile
BUMP_PROFILE_INTEGRAL = 1.2069003224378763


def test_bump_integral_against_adaptive_quadrature():
    live, err = quad(lambda s: math.exp(1.0 - 1.0 / (1.0 - s * s)), -1.0, 1.0)
    assert live == pytest.approx(BUMP_PROFILE_INTEGRAL, abs=1e-10)
    assert err < 1e-8
    g = Grid(1, 1024, 8.0)
    b = bump_data(g, 1.0, 0.0, 1.0)
    assert abs(integrate(b) - live) < 1e-8


def test_grad_sq_zero_for_constant():
    g = grid1d()
    assert grad_sq_integral(constant_field(g, 4.0)) < 1e-12


def test_grad_sq_single_mode_analytic():
    g = grid1d()
    f, k = cosine_mode(g)
    # integral of k^2 sin^2 over a full period of length 2L is k^2 L
    assert grad_sq_integral(f) == pytest.approx(k * k * g.half_width, rel=1e-12)


def test_grad_sq_mode_orthogonality():
    g = grid1d()
    f1, _ = cosine_mode(g, 1)
    f2, _ = cosine_mode(g, 3)
    total = grad_sq_integral(Field(g, f1.values + f2.values))
    assert total == pytest.approx(grad_sq_integral(f1) + grad_sq_integral(f2), rel=1e-12)


def test_grad_sq_2d():
    g = Grid(2, 64, 4.0)
    k = np.pi / g.half_width
    x, y = g.open_axes()
    f = Field(g, np.cos(k * x) * np.cos(2 * k * y))
    # separable integrals: (k^2 + 4 k^2) * L^2 / ... compute analytically
    # int cos^2(kx) dx = L, int sin^2 = L over [-L, L)
    expected = k * k * g.half_width**2 + (2 * k) ** 2 * g.half_width**2
    assert grad_sq_integral(f) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_the_transforms_give_the_bytes_of_rfftn_and_irfftn(dim):
    # one field and a stack of two, with and without out, at 64 points a side
    g = Grid(dim, 64, 3.0)
    rng = np.random.default_rng(dim)
    shape = (2,) + half_k_squared(g).shape
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    before = stack.tobytes()
    for coeffs in (stack[0], stack):
        axes = tuple(range(coeffs.ndim - dim, coeffs.ndim))
        samples = np.fft.irfftn(coeffs, s=g.shape, axes=axes)
        assert from_half_spectrum(coeffs, g).tobytes() == samples.tobytes()
        out = np.empty(samples.shape)
        assert from_half_spectrum(coeffs, g, out=out) is out
        assert out.tobytes() == samples.tobytes()
        want = np.fft.rfftn(samples, axes=axes)
        assert half_spectrum(samples, g).tobytes() == want.tobytes()
        out = np.empty(want.shape, complex)
        assert half_spectrum(samples, g, out=out) is out
        assert out.tobytes() == want.tobytes()
    assert stack.tobytes() == before


def test_boundary_shell_mask():
    g = grid1d(n=64, half=10.0)
    mask = boundary_shell_mask(g)
    x = g.axis()
    assert np.array_equal(mask, np.abs(x) > 9.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_shell_mask_in_several_dimensions(dim):
    # the shell is where the largest coordinate passes 0.9 L
    g = Grid(dim, 16, 5.0)
    biggest = np.max(np.abs(np.stack(np.meshgrid(*[g.axis()] * dim, indexing="ij"))), axis=0)
    assert np.array_equal(boundary_shell_mask(g), biggest > 4.5)
    assert 0 < boundary_shell_mask(g).sum() < g.num_points


def test_binary_roundtrip(tmp_path):
    g = Grid(2, 32, 3.0)
    rng = np.random.default_rng(7)
    f = Field(g, rng.normal(size=g.shape))
    path = tmp_path / "field.blwp"
    save_field_binary(f, path)
    assert path.stat().st_size == 32 + 8 * g.num_points
    back = load_field_binary(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_binary_header_magic(tmp_path):
    path = tmp_path / "bad.blwp"
    path.write_bytes(b"NOPE" + b"\0" * 60)
    with pytest.raises(ValueError, match="magic"):
        load_field_binary(path)

