"""Problem definition: parameters, damping coefficient, initial data.

The source is the absolute power |u|^p (`stepper._source`), not the
odd extension sign(u)|u|^p.  Its pointwise nonnegativity is what drives the
mean of u upward and makes the positive-mean velocity condition on the data
meaningful.
"""

from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid, constant_field, integrate

__all__ = [
    "Params",
    "InitialData",
    "damping_coeff",
    "bump_data",
    "bump_box_half_width",
    "constant_data",
    "mode_data",
    "make_initial_data",
]


@dataclass(frozen=True)
class Params:
    """One instance of the damped wave problem.

    n        spatial dimension
    p        source exponent, > 1
    beta     damping power: coefficient is b0 * (1+t)^(-beta)
    b0       damping strength, > 0
    nonlinear  when False the source term is dropped (linear runs)
    """

    n: int
    p: float
    beta: float
    b0: float = 1.0
    nonlinear: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.b0 > 0.0:
            raise ValueError(f"b0 must be positive, got {self.b0}")


def damping_coeff(t: float, params: Params) -> float:
    """b0 * (1+t)^(-beta); strictly positive for t >= 0."""
    if t < 0:
        raise ValueError(f"damping_coeff needs t >= 0, got {t}")
    return params.b0 * (1.0 + t) ** (-params.beta)


def bump_data(grid: Grid, amplitude: float, center=0.0, radius: float = 1.0) -> Field:
    """Smooth compactly supported bump A * exp(1 - 1/(1 - |x-c|^2/r^2)).

    Peak value is A at the center; support is the open ball of the given
    radius, which must fit well inside the box (r < half_width / 2).
    """
    if not radius > 0:
        raise ValueError(f"bump radius must be positive, got {radius}")
    if radius >= grid.half_width / 2:
        raise ValueError(
            f"bump radius {radius} too large for box half-width {grid.half_width}"
        )
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size == 1 and grid.dim > 1:
        center = np.full(grid.dim, center[0])
    if center.size != grid.dim:
        raise ValueError(f"center has {center.size} components for dim {grid.dim}")
    if grid.even and center.any():
        # an even grid's samples stand for a field even in every axis
        raise ValueError(f"a bump on an even grid is centred at the origin, got {center}")
    # on open axes, so that s2 is the one array of the grid's size, and the
    # values overwrite it
    s2 = sum((x - c) ** 2 for x, c in zip(grid.open_axes(), center))
    s2 /= radius**2
    inside = s2 < 1.0
    s2_inside = s2[inside]
    values = s2
    values.fill(0.0)
    with np.errstate(divide="ignore"):
        values[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2_inside))
    return Field(grid, values)


def bump_box_half_width(radius: float, t_end: float) -> float:
    """Half-width of a box that a bump of the given radius outruns neither
    with its waves nor with its parabolic tails until t_end."""
    return 4.0 * (radius + t_end)


def constant_data(grid: Grid, value: float) -> Field:
    return constant_field(grid, value)


def mode_data(grid: Grid, amplitude: float, mode: int = 1) -> Field:
    """Single cosine mode along the first axis, cos(mode * pi * x / L).

    The grid resolves modes up to its Nyquist mode, points_per_axis / 2;
    a higher one would alias to a lower mode on the samples.
    """
    if mode < 1:
        raise ValueError(f"mode index must be >= 1, got {mode}")
    if mode > grid.points_per_axis // 2:
        raise ValueError(
            f"mode index {mode} exceeds the grid's Nyquist mode {grid.points_per_axis // 2}"
        )
    k = mode * np.pi / grid.half_width
    values = np.empty(grid.shape)
    values[...] = amplitude * np.cos(k * grid.open_axes()[0])
    return Field(grid, values)


@dataclass
class InitialData:
    """Initial displacement and velocity with the cached velocity mean.

    `theorem_data` marks configurations claimed to satisfy the positive-mean
    velocity hypothesis; constructing one with mean_u1 <= 0 is an error.
    `compact_support` drives the default boundary-contamination monitor.
    """

    u0: Field
    u1: Field
    mean_u1: float
    compact_support: bool = False
    theorem_data: bool = False

    def __post_init__(self):
        if self.u0.grid != self.u1.grid:
            raise ValueError("u0 and u1 must live on the same grid")
        if self.theorem_data and not self.mean_u1 > 0.0:
            raise ValueError(
                f"theorem data requires a positive velocity mean, got {self.mean_u1}"
            )


def make_initial_data(
    u0: Field, u1: Field, compact_support: bool = False, theorem_data: bool = False
) -> InitialData:
    return InitialData(
        u0=u0,
        u1=u1,
        mean_u1=integrate(u1),
        compact_support=compact_support,
        theorem_data=theorem_data,
    )
