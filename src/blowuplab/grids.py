"""Periodic lattices in 1 to 3 dimensions with pseudo-spectral operators.

The box is [-L, L)^dim sampled on a uniform grid.  Differential operators act
mode-wise on the discrete Fourier transform, so the Laplacian is exact for
band-limited fields.  The rectangle rule is the natural quadrature here and is
spectrally accurate for smooth periodic integrands.

Fields are real, so the transforms are numpy's real FFTs (`rfftn`): the last
axis keeps only its N/2 + 1 non-negative modes.  `half_spectrum` and
`from_half_spectrum` convert samples to and from these coefficients,
`half_k_squared` is |k|^2 on them, and `parseval_weights` turns them into
box integrals, so the solver can work on coefficients alone and every
transform it makes runs here.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "constant_field",
    "laplacian",
    "integrate",
    "grad_sq_integral",
    "half_spectrum",
    "from_half_spectrum",
    "half_k_squared",
    "parseval_weights",
    "l2_norm",
    "linf_norm",
    "boundary_shell_mask",
    "save_field_binary",
    "load_field_binary",
]

_MAGIC = b"BLWP"
_VERSION = 1
# 4s magic + u32 version + u32 dim + u32 points + f64 half_width + 8 pad = 32 bytes
_HEADER = struct.Struct("<4sIII8xd")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-half_width, half_width)^dim."""

    dim: int
    points_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.points_per_axis
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 2, got {n}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def num_points(self) -> int:
        return self.points_per_axis**self.dim

    def axis(self) -> np.ndarray:
        """Coordinates along one axis."""
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    def coords(self) -> list:
        """Meshgrid coordinate arrays, one per axis, each of shape `shape`."""
        return list(np.meshgrid(*([self.axis()] * self.dim), indexing="ij"))

    def radii(self) -> np.ndarray:
        """Euclidean distance from the origin at every grid point."""
        return np.sqrt(sum(c**2 for c in self.coords()))


@lru_cache(maxsize=64)
def half_k_squared(grid: Grid) -> np.ndarray:
    """|k|^2 on the real-FFT coefficient grid of `half_spectrum`."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    k_last = 2.0 * np.pi * np.fft.rfftfreq(grid.points_per_axis, d=grid.spacing)
    axes = [k1] * (grid.dim - 1) + [k_last]
    k2 = sum(km**2 for km in np.meshgrid(*axes, indexing="ij"))
    k2.flags.writeable = False  # one cached array is shared by every caller
    return k2


@lru_cache(maxsize=64)
def parseval_weights(grid: Grid) -> np.ndarray:
    """Weights w with  int f g dx = sum w * Re(f_hat * conj(g_hat))  for real
    f, g and their `half_spectrum` coefficients.

    A coefficient off the zero and Nyquist columns of the last axis stands
    for itself and its dropped complex conjugate, so it counts twice; the
    factor spacing^dim / num_points is the rectangle rule under Parseval.
    """
    w = np.full(half_k_squared(grid).shape, 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0
    w *= grid.spacing**grid.dim / grid.num_points
    w.flags.writeable = False
    return w


def _grid_axes(a: np.ndarray, grid: Grid) -> tuple:
    return tuple(range(a.ndim - grid.dim, a.ndim))


def half_spectrum(values: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Real-FFT coefficients (numpy.fft.rfftn) of samples on the grid,
    written to out when it is given.

    The grid's axes are the trailing grid.dim axes of values; leading axes
    stack independent fields, which are transformed in one call.
    """
    if grid.dim == 1:
        # the same coefficients as rfftn, without the n-D wrapper's per-call
        # axis handling, which at N = 256 costs as much as the transform
        return np.fft.rfft(values, out=out)
    return np.fft.rfftn(values, axes=_grid_axes(values, grid), out=out)


def from_half_spectrum(coeffs: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Samples on the grid from `half_spectrum` coefficients (irfftn), written
    to out when it is given; leading axes stack independent fields as in
    `half_spectrum`."""
    if grid.dim == 1:  # see half_spectrum
        return np.fft.irfft(coeffs, grid.points_per_axis, out=out)
    return np.fft.irfftn(coeffs, s=grid.shape, axes=_grid_axes(coeffs, grid), out=out)


@dataclass
class Field:
    """A real scalar sampled on a grid.  Treated as immutable by all
    operations here; none of them modify `values` in place."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", v)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def laplacian(f: Field) -> Field:
    """Spectral Laplacian: each Fourier mode is scaled by -|k|^2."""
    fhat = half_spectrum(f.values, f.grid)
    return Field(f.grid, from_half_spectrum(-half_k_squared(f.grid) * fhat, f.grid))


def integrate(f: Field) -> float:
    """Box integral by the rectangle rule (exact trapezoid on periodic grids)."""
    return float(f.grid.spacing**f.grid.dim * f.values.sum())


def grad_sq_integral(f: Field) -> float:
    """Integral of |grad f|^2 evaluated in Fourier space (Parseval)."""
    fhat = half_spectrum(f.values, f.grid)
    weights = parseval_weights(f.grid) * half_k_squared(f.grid)
    return float(np.vdot(fhat, weights * fhat).real)


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.spacing**f.grid.dim * (f.values**2).sum()))


def linf_norm(f: Field) -> float:
    return float(np.abs(f.values).max())


@lru_cache(maxsize=64)
def boundary_shell_mask(grid: Grid, fraction: float = 0.9) -> np.ndarray:
    """Mask of points whose sup-norm coordinate exceeds fraction*half_width.

    Used to watch for energy leaking into the periodic wrap-around; the
    strong damping propagates at infinite speed, so truncation error shows
    up there first.
    """
    limit = fraction * grid.half_width
    coords = grid.coords()
    mask = np.abs(coords[0]) > limit
    for c in coords[1:]:
        mask |= np.abs(c) > limit
    return mask


def save_field_binary(f: Field, path) -> None:
    """Raw little-endian dump: 32-byte header then float64 values, C order."""
    header = _HEADER.pack(
        _MAGIC, _VERSION, f.grid.dim, f.grid.points_per_axis, f.grid.half_width
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").data)


def load_field_binary(path) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        magic, version, dim, n, half_width = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        if version != _VERSION:
            raise ValueError(f"unsupported field-file version {version}")
        grid = Grid(dim, n, half_width)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != grid.num_points:
        raise ValueError(f"field file {path} truncated")
    return Field(grid, data.reshape(grid.shape).copy())

