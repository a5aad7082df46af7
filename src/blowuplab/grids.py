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

A grid with `even` set holds fields that are even in every axis, by their
N/2 + 1 samples per axis on [0, L]: `to_even_grid` and `to_full_grid` move
a field between the two.  Its coefficients are the cosine (DCT-I)
coefficients of those samples, which carry the wavenumbers pi m / L of the
full grid's modes, and the same four functions (and `boundary_shell_mask`)
follow the flag, so that the solver runs on either grid unchanged (Boyd,
"Chebyshev and Fourier Spectral Methods", 2001, on parity-reduced bases).
numpy's irfft of length N of N/2 + 1 real values is 1/N times their DCT-I,
so the transform along each axis is one irfft, cut to N/2 + 1 samples.
"""

import itertools
import struct
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

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
    "to_even_grid",
    "to_full_grid",
    "save_field_binary",
    "load_field_binary",
]

_MAGIC = b"BLWP"
_VERSION = 1
# 4s magic + u32 version + u32 dim + u32 points + f64 half_width + 8 pad = 32 bytes
_HEADER = struct.Struct("<4sIII8xd")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-half_width, half_width)^dim, or with
    `even` set its samples on [0, half_width]^dim, which hold a field that
    is even in every axis."""

    dim: int
    points_per_axis: int
    half_width: float
    even: bool = False

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
        n = self.points_per_axis
        return (n // 2 + 1 if self.even else n,) * self.dim

    @property
    def num_points(self) -> int:
        return self.shape[0] ** self.dim

    def axis(self) -> np.ndarray:
        """Coordinates along one axis."""
        if self.even:
            return self.spacing * np.arange(self.shape[0])
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    def open_axes(self) -> tuple:
        """The coordinates along each axis, shaped to broadcast against the
        others (np.ix_): a sum over them is the only array of `shape`."""
        return np.ix_(*[self.axis()] * self.dim)

    def radii(self) -> np.ndarray:
        """Euclidean distance from the origin at every grid point."""
        r2 = sum(x**2 for x in self.open_axes())
        return np.sqrt(r2, out=r2)


@lru_cache(maxsize=64)
def half_k_squared(grid: Grid) -> np.ndarray:
    """|k|^2 on the coefficient grid of `half_spectrum`: every axis holds the
    non-negative wavenumbers pi m / L of the last on an even grid."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    k_last = 2.0 * np.pi * np.fft.rfftfreq(grid.points_per_axis, d=grid.spacing)
    axes = [k_last if grid.even else k1] * (grid.dim - 1) + [k_last]
    # open axes, so that the sum is the only array of the grid's size
    k2 = sum(km**2 for km in np.ix_(*axes))
    k2.flags.writeable = False  # one cached array is shared by every caller
    return k2


def parseval_weights(grid: Grid) -> np.ndarray:
    """Weights w with  int f g dx = sum w * Re(f_hat * conj(g_hat))  for real
    f, g and their `half_spectrum` coefficients.

    A coefficient off the zero and Nyquist columns of the last axis stands
    for itself and its dropped complex conjugate, so it counts twice, and
    on an even grid so does one off them on any axis, for its dropped
    mirror; the factor spacing^dim / N^dim is the full grid's rectangle
    rule under Parseval.
    """
    halved = np.full(grid.points_per_axis // 2 + 1, 2.0)
    halved[0] = halved[-1] = 1.0
    whole = np.ones(grid.points_per_axis)
    per_axis = [halved if grid.even else whole] * (grid.dim - 1) + [halved]
    w = reduce(np.multiply, np.ix_(*per_axis))
    return w * (grid.spacing**grid.dim / grid.points_per_axis**grid.dim)


def _grid_axes(a: np.ndarray, grid: Grid) -> tuple:
    return tuple(range(a.ndim - grid.dim, a.ndim))


def _cosine(a: np.ndarray, grid: Grid, out: np.ndarray | None, scale: float = 1.0) -> np.ndarray:
    """scale times numpy's irfft of length N of the N/2 + 1 values along each
    of an even grid's axes of a, cut to N/2 + 1: 1/N times the DCT-I per
    axis, which takes cosine coefficients to samples and, with scale N^dim,
    samples to coefficients.  Written to out, or a new array."""
    n = grid.points_per_axis
    for axis in _grid_axes(a, grid):
        a = np.fft.irfft(a, n, axis)[(slice(None),) * axis + (slice(n // 2 + 1),)]
    return np.multiply(a, scale, out=out)


def half_spectrum(values: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Real-FFT coefficients (numpy.fft.rfftn) of samples on the grid,
    written to out when it is given; on an even grid, the cosine
    coefficients of the samples, as a complex array with zero imaginary
    parts, which are the full grid's coefficients up to the sign (-1)^m of
    its shifted origin.

    The grid's axes are the trailing grid.dim axes of values; leading axes
    stack independent fields, which are transformed in one call.
    """
    if grid.even:
        out = np.empty(values.shape, complex) if out is None else out
        return _cosine(values, grid, out, float(grid.points_per_axis) ** grid.dim)
    if grid.dim == 1:
        # the same coefficients as rfftn, without the n-D wrapper's per-call
        # axis handling, which at N = 256 costs as much as the transform
        return np.fft.rfft(values, out=out)
    if out is None:
        # rfftn transforms each axis into out when given, else into a new
        # array per axis
        out = np.empty(values.shape[:-1] + (grid.points_per_axis // 2 + 1,), complex)
    return np.fft.rfftn(values, axes=_grid_axes(values, grid), out=out)


def from_half_spectrum(coeffs: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Samples on the grid from `half_spectrum` coefficients (irfftn), written
    to out when it is given; leading axes stack independent fields as in
    `half_spectrum`.

    In 2-D and 3-D these are irfftn's per-axis transforms in irfftn's order,
    so its bytes, but through one complex temporary, where irfftn makes a
    new one for each axis but the last."""
    n = grid.points_per_axis
    if grid.even:
        return _cosine(coeffs, grid, out)
    if grid.dim == 1:  # see half_spectrum
        return np.fft.irfft(coeffs, n, out=out)
    *axes, last = _grid_axes(coeffs, grid)
    scratch = np.fft.ifft(coeffs, n, axes[0])
    for axis in axes[1:]:
        np.fft.ifft(scratch, n, axis, out=scratch)
    return np.fft.irfft(scratch, n, last, out=out)


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


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def laplacian(f: Field) -> Field:
    """Spectral Laplacian: each Fourier mode is scaled by -|k|^2."""
    fhat = half_spectrum(f.values, f.grid)
    return Field(f.grid, from_half_spectrum(-half_k_squared(f.grid) * fhat, f.grid))


def integrate(f: Field) -> float:
    """Box integral by the rectangle rule (exact trapezoid on periodic grids)."""
    if f.grid.even:
        f = to_full_grid(f)
    return float(f.grid.spacing**f.grid.dim * f.values.sum())


def grad_sq_integral(f: Field) -> float:
    """Integral of |grad f|^2 evaluated in Fourier space (Parseval)."""
    fhat = half_spectrum(f.values, f.grid)
    weights = parseval_weights(f.grid) * half_k_squared(f.grid)
    return float(np.vdot(fhat, weights * fhat).real)


def l2_norm(f: Field) -> float:
    if f.grid.even:
        f = to_full_grid(f)
    return float(np.sqrt(f.grid.spacing**f.grid.dim * (f.values**2).sum()))


def linf_norm(f: Field) -> float:
    return float(np.abs(f.values).max())


@lru_cache(maxsize=64)
def boundary_shell_mask(grid: Grid) -> np.ndarray:
    """Mask of points whose sup-norm coordinate exceeds 0.9 * half_width.

    Used to watch for energy leaking into the periodic wrap-around; the
    strong damping propagates at infinite speed, so truncation error shows
    up there first.
    """
    mask = np.zeros(grid.shape, bool)
    for x in grid.open_axes():
        mask |= np.abs(x) > 0.9 * grid.half_width
    mask.flags.writeable = False  # one cached array is shared by every caller
    return mask


def to_even_grid(f: Field) -> Field:
    """A field that is even in every axis as its samples on [0, L]^dim, a
    copy that shares nothing with f: sample i of an axis is f's at the
    origin's index N/2 minus i, which equals the one at N/2 + i."""
    m = f.grid.points_per_axis // 2
    return Field(replace(f.grid, even=True), f.values[(slice(m, None, -1),) * f.grid.dim].copy())


def to_full_grid(f: Field) -> Field:
    """The full grid's samples of a field on an even grid: index j of an
    axis takes sample |j - N/2|, copied block by block, 2^dim blocks."""
    n = f.grid.points_per_axis
    m = n // 2
    full = np.empty((n,) * f.grid.dim)
    # the index blocks below and above the origin, and their source samples
    blocks = ((slice(0, m), slice(m, 0, -1)), (slice(m, n), slice(0, m)))
    for parts in itertools.product(blocks, repeat=f.grid.dim):
        full[tuple(dst for dst, _ in parts)] = f.values[tuple(src for _, src in parts)]
    return Field(replace(f.grid, even=False), full)


def save_field_binary(f: Field, path) -> None:
    """Raw little-endian dump: 32-byte header then float64 values, C order;
    a field on an even grid is written as its full grid's samples."""
    if f.grid.even:
        f = to_full_grid(f)
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

