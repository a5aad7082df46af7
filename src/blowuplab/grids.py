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
a field between the two.  Its coordinates are the full grid's at the
indices the even grid keeps, N/2 down to 0, so that data built on it are
bit for bit the full grid's data cut down.  A solver run on the even grid
keeps its snapshots and final state there, and only a consumer of the
full grid mirrors them: a rescale's FFT whole, a field file in slabs of
at most an even field's size.  Its coefficients are the
cosine (DCT-I) coefficients of those samples, float64, which carry the
wavenumbers pi m / L of the full grid's modes, and the same four functions
(and `boundary_shell_mask`) follow the flag, so that the solver runs on
either grid unchanged (Boyd, "Chebyshev and Fourier Spectral Methods", 2001, on
parity-reduced bases).  The DCT-I along an axis is a product with one
cached matrix of its (N/2 + 1)^2 values, split at one even/odd level
(`_dct_halves`), which halves its flops: up to 513^2 and 65^3 points these
BLAS products beat numpy's FFT, whose irfft would cast the real values to
complex (Boyd, ch. 10, on matrix-multiplication transforms).
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
        """Coordinates along one axis; on an even grid the full grid's at
        indices N/2 down to 0, those of the samples `to_even_grid` keeps,
        which are at most 0 (their mirrors span [0, L])."""
        full = -self.half_width + self.spacing * np.arange(self.points_per_axis)
        # a copy, as a reversed view may take other ufunc loops than the full axis
        return full[self.points_per_axis // 2 :: -1].copy() if self.even else full

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


@lru_cache(maxsize=16)
def _dct_halves(points: int, scale: float) -> tuple:
    """The DCT-I of M + 1 = points/2 + 1 values c_m times scale,
    x_j = scale * sum_m w_m cos(pi j m / M) c_m with w = 1 at m = 0 and M and
    2 between, split one even/odd level: as cos(pi j (M - m) / M) is
    (-1)^j cos(pi j m / M), an even j's x_j is its row of the first matrix
    times s_m = c_m + c_(M-m), m <= M/2 (the middle m's column halved, as
    s holds its value twice), and an odd j's its row of the second times
    d_m = c_m - c_(M-m), m < M/2."""
    m = points // 2
    j = np.arange(m + 1)
    c = np.cos(np.pi / m * (np.outer(j, j) % (2 * m)))
    c[:, 1:m] *= 2.0
    c *= scale
    even, odd = c[0::2, : m // 2 + 1].copy(), c[1::2, : (m + 1) // 2].copy()
    if m % 2 == 0:
        even[:, m // 2] *= 0.5
    even.flags.writeable = odd.flags.writeable = False  # shared by every caller
    return even, odd


def _cosine(a: np.ndarray, grid: Grid, out: np.ndarray | None, scale: float) -> np.ndarray:
    """scale times the DCT-I along each of an even grid's axes of a (see
    `_dct_halves`), field by field over its leading axes, written to out,
    or a new array.  A pass folds the first axis of a field's
    (M + 1, rest) view into s and d and writes their products to the even
    and odd columns of a (rest, M + 1) view: the axes rotate, and after
    dim passes stand as they were.  A pass has read its input before it
    writes, so out may be a."""
    if out is not None and not out.flags.c_contiguous:
        out[...] = _cosine(a, grid, None, scale)
        return out
    even, odd = _dct_halves(grid.points_per_axis, scale)
    m = grid.points_per_axis // 2
    rest = grid.num_points // (m + 1)
    folded = np.empty(grid.num_points)
    s = folded[: len(even) * rest].reshape(len(even), rest)
    d = folded[len(even) * rest :].reshape(len(odd), rest)
    out = np.empty(a.shape) if out is None else out
    scratch = np.empty(grid.shape)
    for field in np.ndindex(a.shape[: a.ndim - grid.dim]):
        x = a[field]
        for i in range(grid.dim):
            rows = x.reshape(m + 1, rest)
            np.add(rows[: len(even)], rows[m : m - len(even) : -1], s)
            np.subtract(rows[: len(odd)], rows[m : m - len(odd) : -1], d)
            # the passes alternate between out and scratch, the last into out
            x = out[field] if (grid.dim - i) % 2 else scratch
            cols = x.reshape(rest, m + 1)
            np.matmul(s.T, even.T, cols[:, 0::2])
            np.matmul(d.T, odd.T, cols[:, 1::2])
    return out


def half_spectrum(values: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Real-FFT coefficients (numpy.fft.rfftn) of samples on the grid,
    written to out when it is given; on an even grid, the cosine (DCT-I)
    coefficients of the samples, a float64 array of the grid's shape made
    by a matrix product along each axis, which are the full grid's
    coefficients up to the sign (-1)^m of its shifted origin.

    The grid's axes are the trailing grid.dim axes of values; leading axes
    stack independent fields, which are transformed in one call (on an even
    grid, one field at a time, so that a field's bits do not depend on the
    stack).
    """
    if grid.even:
        return _cosine(values, grid, out, 1.0)
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
    `half_spectrum`.  On an even grid the coefficients are float64 and the
    inverse is 1/N times the DCT-I, as a matrix product along each axis.

    In 2-D and 3-D these are irfftn's per-axis transforms in irfftn's order,
    so its bytes, but through one complex temporary, where irfftn makes a
    new one for each axis but the last."""
    n = grid.points_per_axis
    if grid.even:
        return _cosine(coeffs, grid, out, 1.0 / n)
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


def _mirror(values: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
    """Rows start to stop of the first axis of the full grid's samples of
    the even grid's values, into out: index j of an axis takes sample
    |j - N/2|, copied block by block, 2^dim blocks (a block of rows that
    spans the origin's row in two)."""
    m = len(values) - 1
    # the index blocks below and above the origin, and their source samples
    blocks = ((slice(0, m), slice(m, 0, -1)), (slice(m, 2 * m), slice(0, m)))
    for lo, hi, step in ((start, min(stop, m), -1), (max(start, m), stop, 1)):
        if lo < hi:
            rows = (slice(lo - start, hi - start), slice(abs(lo - m), abs(hi - m), step))
            for parts in itertools.product(blocks, repeat=values.ndim - 1):
                parts = (rows, *parts)
                out[tuple(dst for dst, _ in parts)] = values[tuple(src for _, src in parts)]


def to_full_grid(f: Field) -> Field:
    """The full grid's samples of a field on an even grid: index j of an
    axis takes sample |j - N/2|, copied block by block, 2^dim blocks."""
    if not f.grid.even:
        raise ValueError("to_full_grid takes a field on an even grid")
    n = f.grid.points_per_axis
    full = np.empty((n,) * f.grid.dim)
    _mirror(f.values, 0, n, full)
    return Field(replace(f.grid, even=False), full)


def save_field_binary(f: Field, path) -> None:
    """Raw little-endian dump: 32-byte header then float64 values, C order;
    a field on an even grid is written as its full grid's samples, streamed
    as slabs of whole rows of the first axis through one buffer of at most
    the even field's size, each slab mirrored as `to_full_grid` mirrors."""
    n = f.grid.points_per_axis
    header = _HEADER.pack(_MAGIC, _VERSION, f.grid.dim, n, f.grid.half_width)
    with open(path, "wb") as fh:
        fh.write(header)
        if not f.grid.even:
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").data)
            return
        plane = n ** (f.grid.dim - 1)
        slab = np.empty((max(1, f.values.size // plane),) + (n,) * (f.grid.dim - 1), "<f8")
        for start in range(0, n, len(slab)):
            stop = min(start + len(slab), n)
            _mirror(f.values, start, stop, slab)
            fh.write(slab[: stop - start].data)


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

