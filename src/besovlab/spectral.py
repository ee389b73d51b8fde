"""Spectral fields on the periodic torus [0, 2pi)^N.

Coefficients are normalized so that the coefficient of the mode e^{i k.x}
is 1.  Every array holds the coefficients of real fields, c(-k) =
conj(c(k)), so the modes with k_last >= 0 determine it, and that half is
all any array holds: shape (..., M, ..., M//2+1) (`GridSpec.coeff_shape`),
the wraparound layout on every axis but the last, which runs over
k_last = 0..M/2.  It is what `rfftn` gives and all that `irfftn` reads.
The k_last = 0 and k_last = M/2 planes each hold both k and -k, so their
Hermitian symmetry is a constraint within the plane (`hermitize` projects
onto it); every other plane stands for itself and for the modes -k,
which it determines, and a Parseval sum (`energy`) counts it twice.  All operators in this module
are Fourier multipliers acting on those coefficients and keep that
symmetry; they are pure functions and deterministic.  The multiplier
tables of `grid_wavenumbers` are built on the same half.

A field, or a stack of them, is one array of coefficients passed with
its grid: shape (*components, *grid.coeff_shape).  A scalar has no
component axes, a vector has shape (dim, *grid), a tensor (dim, dim,
*grid), a state (1 + n + n^2, *grid), a trajectory a leading time axis on
top; no function here takes a list of fields or a class around an array.

`samples` and `gradient_samples` sample coefficients on the grid;
`dealiased`, the one forward transform of the integration core, applies
the two-thirds rule, and `forward_transform` is the plain transform of
one field's samples.  Each operator has one form, on stacked arrays, whose
leading axes index components and whose last `dim` axes are the grid:
`gradient`, `divergence` and `leray_project` take `(grid, coeffs)`, as do
`samples`, `gradient_samples`, `hermitize` and `rescale`; `dealiased` and `advect` take grid
samples, and `lambda_multiplier` and the `grid_wavenumbers` tables are
multipliers to apply.  A quadratic term is formed by sampling its
factors on the grid, multiplying and contracting there, and one
`dealiased` call for all its output components; `product(grid, f, g)`
is the case of one factor's coefficients and the other's samples.

The two-thirds rule leaves the arrays of the integration core without
content in the columns k_last > M/3, which the complex passes along the
wraparound axes skip (`_band_width`, `dealiased`).  The transforms write
their result into `out=` when given; `samples` and `gradient_samples` run
their passes in a work array kept per shape (`_scratch`), so no transform
is safe across threads.  The largest arrays a right side holds are those
of the one `gradient_samples` call over its whole stack: the samples and
the gradient samples, `dim` + 1 reals per component and grid point
(13 x 4 x 32^3 float64 = 13.6 MB in 3D at M 32), filled from a work array
of `dim` + 1 coefficient branches per component on the 11 band columns
(9.4 MB; 14.5 MB on all 17), which stays kept after the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `dim` axes, `points_per_axis` points each.

    The domain length is fixed at 2pi per axis, so frequency indices are
    integers in [-M/2, M/2).
    """

    dim: int
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GridError(f"dim must be 2 or 3, got {self.dim}")
        m = self.points_per_axis
        if m < 16 or (m & (m - 1)) != 0:
            raise GridError(f"points_per_axis must be a power of two >= 16, got {m}")
        n = self.dim  # the largest array: a state's samples and gradient samples
        if 8 * (1 + n + n * n) * (n + 1) * m ** n > np.iinfo(np.intp).max:
            raise GridError(f"points_per_axis {m} is too large: a state's samples and "
                            f"gradient samples would exceed numpy's largest array")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def coeff_shape(self) -> tuple[int, ...]:
        """Shape of one field's coefficients: the k_last >= 0 half."""
        m = self.points_per_axis
        return (m,) * (self.dim - 1) + (m // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return (TWO_PI / self.points_per_axis) ** self.dim

    @property
    def dealias_radius(self) -> float:
        """Two-thirds-rule cutoff per axis."""
        return self.points_per_axis / 3.0

    @property
    def q_max(self) -> int:
        """Largest q with the shell 3/4*2^q <= |k| <= 8/3*2^q below M/3."""
        q = 0
        while (8.0 / 3.0) * 2 ** (q + 1) <= self.dealias_radius + 1e-12:
            q += 1
        return q

    def axes(self) -> np.ndarray:
        """Physical sample coordinates along one axis."""
        return np.arange(self.points_per_axis) * (TWO_PI / self.points_per_axis)

    def meshgrid(self) -> list[np.ndarray]:
        x = self.axes()
        return list(np.meshgrid(*([x] * self.dim), indexing="ij"))


@lru_cache(maxsize=32)
def _grid_arrays(dim: int, m: int) -> dict:
    """Cached wavenumber arrays for a (dim, M) grid, on the coefficient
    shape: k_axis wraps around on every axis but the last, which holds
    k_last = 0..M/2."""
    shape = GridSpec(dim, m).coeff_shape
    k1 = np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)
    kaxes = [k1.reshape([-1 if i == ax else 1 for i in range(dim)]) for ax in range(dim - 1)]
    kaxes.append(np.arange(shape[-1]).reshape((1,) * (dim - 1) + (-1,)))
    k2 = sum((k.astype(np.float64) ** 2 for k in kaxes), np.zeros((1,) * dim))
    k2 = np.broadcast_to(k2, shape).copy()
    kmag = np.sqrt(k2)
    limit = m / 3.0
    keep = np.ones(shape, dtype=bool)
    for k in kaxes:
        keep &= np.abs(k) <= limit
    # i k_axis per axis, the Nyquist line zeroed (`gradient`); `ik_axes` keeps
    # each as the 1D multiplier it is, broadcastable along the other axes
    ik_axes = [np.where(np.abs(k) == m // 2, 0.0, 1j * k) for k in kaxes]
    ik = np.stack([np.broadcast_to(k, shape) for k in ik_axes])
    return {"k2": k2, "kmag": kmag, "dealias_mask": keep, "ik": ik, "ik_axes": ik_axes}


def grid_wavenumbers(grid: GridSpec) -> dict:
    return _grid_arrays(grid.dim, grid.points_per_axis)


def hermitize(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Project stacked coefficients onto the Hermitian-symmetric
    (real-field) subspace: a copy with the k_last = 0 and M/2 planes
    replaced by their Hermitian part (c(k) + conj(c(-k))) / 2, the only
    modes that can leave it.

    Rounding noise in long evaluation chains drifts off that subspace;
    the anti-Hermitian part is invisible to any operator that works on
    real physical samples, so it is pure garbage to discard.
    """
    m = grid.points_per_axis
    planes = coeffs[..., [0, m // 2]]  # a copy, and below the same planes at -k
    at_minus_k = planes
    for ax in range(-grid.dim, -1):
        at_minus_k = np.take(at_minus_k, -np.arange(m) % m, axis=ax)
    out = coeffs.copy()
    out[..., [0, m // 2]] = 0.5 * (planes + at_minus_k.conj())
    return out


def energy(coeffs: np.ndarray, axis=None):
    """sum_k |c_k|^2 over every mode k of the real fields with stacked
    coefficients `coeffs`, reduced over `axis` (default: all axes): the
    k_last = 0 and M/2 planes count once, every other plane stands for
    itself and for the modes -k and counts twice.  By discrete Parseval,
    (2pi)^N times this is the rectangle-rule sum of the squared samples;
    every L2 norm and residual of the package is this one sum."""
    sq = np.abs(coeffs) ** 2
    sq[..., 1:-1] *= 2.0
    return sq.sum(axis=axis)


# -- transforms -------------------------------------------------------------


def forward_transform(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Real samples -> complex128 coefficients, unit amplitude per plane wave."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise GridError(f"sample shape {samples.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(samples):
        raise GridError("samples must be real-valued")
    return np.fft.rfftn(samples, norm="forward").astype(np.complex128, copy=False)


def samples(grid: GridSpec, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real grid samples of every component of a stacked coefficient
    array, written into `out` when given: `irfftn`'s passes, those along
    the wraparound axes on the `_band_width` columns in a `_scratch` array.
    norm="forward" is the unit-amplitude convention (the 1/M^dim sits on
    the forward transform)."""
    a = coeffs[..., :_band_width(grid, coeffs)]
    work = _scratch(a.shape)
    for ax in range(-grid.dim, -1):
        a = np.fft.ifft(a, axis=ax, norm="forward", out=work)
    return np.fft.irfft(a, n=grid.points_per_axis, axis=-1, norm="forward", out=out)


@lru_cache(maxsize=4)
def _scratch(shape: tuple[int, ...]) -> np.ndarray:
    """A complex work array of `shape`, kept across calls.  A transform asks
    for one, makes no other transform call before it returns and never
    returns it: so an eviction never frees an array in use, and no caller
    holds one.  The transforms are therefore not safe across threads."""
    return np.empty(shape, np.complex128)


def _band_width(grid: GridSpec, coeffs: np.ndarray) -> int:
    """The k_last columns the passes of an inverse transform along the
    wraparound axes must run on: the M//3 + 1 of the two-thirds band when
    every later column of `coeffs` is zero (`irfft` pads them so), else
    all.  A 1D pass acts column by column, so the kept columns see the
    arithmetic of the full pass."""
    band = grid.points_per_axis // 3 + 1
    return coeffs.shape[-1] if coeffs[..., band:].any() else band


def dealiased(grid: GridSpec, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of every component of stacked real samples, with the
    two-thirds rule applied: the values of `rfftn` times the mask, written
    into `out` when given.  The passes along the wraparound axes run on
    the columns k_last <= M/3 alone, and the mask zeroes the rest and the
    rows |k_axis| > M/3."""
    m = grid.points_per_axis
    band = m // 3 + 1
    coeffs = np.fft.rfft(values, axis=-1, norm="forward", out=out)
    kept = coeffs[..., :band]
    for ax in range(-2, -grid.dim - 1, -1):
        np.fft.fft(kept, axis=ax, norm="forward", out=kept)
        kept[(..., slice(band, m - band + 1)) + (slice(None),) * (-1 - ax)] = 0.0
    coeffs[..., band:] = 0.0
    return coeffs


# -- multiplier operators -------------------------------------------------


def gradient(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """d_l of every component of a stacked array, the multiplier i k_l
    with the unmatched Nyquist line |k_l| = M/2 zeroed so that odd
    derivatives of real fields stay real; the new axis l sits just before
    the grid axes."""
    ik = grid_wavenumbers(grid)["ik"]
    return np.expand_dims(coeffs, -grid.dim - 1) * ik


def divergence(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """d_l of component l, summed over the axis just before the grid axes
    (`coeffs` holds vectors of `dim` components)."""
    ik = grid_wavenumbers(grid)["ik_axes"]
    parts = np.moveaxis(coeffs, -grid.dim - 1, 0)
    out = parts[0] * ik[0]
    for k, c in zip(ik[1:], parts[1:], strict=True):
        out += c * k
    return out


def lambda_multiplier(grid: GridSpec, exponent: float) -> np.ndarray:
    """|k|^exponent, zero mode 0: the multiplier of (-Laplacian)^(exponent/2)."""
    kmag = grid_wavenumbers(grid)["kmag"]
    with np.errstate(divide="ignore"):
        mult = np.where(kmag > 0, kmag, 1.0) ** float(exponent)
    return np.where(kmag > 0, mult, 0.0)


def leray_project(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """L2-orthogonal projection onto divergence-free vector fields of the
    vectors in `coeffs` (the axis just before the grid axes indexes the
    `dim` components).

    Uses the same odd-multiplier convention as `gradient` (unmatched
    Nyquist lines count as frequency zero), so the projected field is
    annihilated by the artifact's own divergence.  The zero mode (mean
    flow) passes through unchanged.
    """
    kaxes = grid_wavenumbers(grid)["ik"].imag
    k2 = sum(k ** 2 for k in kaxes)
    kdotv = sum(k * c for k, c in zip(kaxes, np.moveaxis(coeffs, -grid.dim - 1, 0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(k2 > 0, kdotv / np.where(k2 > 0, k2, 1.0), 0.0)
    return coeffs - kaxes * np.expand_dims(scale, -grid.dim - 1)


def product(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Dealiased pointwise product of the coefficients `f` with the stacked
    real grid samples `g`: the stacked coefficients of f times each
    component of g, `f` sampled once (a stack of g's shape multiplies
    component by component).  A caller holding coefficients of g passes
    `samples(grid, g)`.  Exact convolution on the retained band when both
    factors are supported below M/3."""
    return dealiased(grid, samples(grid, f) * g)


def gradient_samples(grid: GridSpec, coeffs: np.ndarray, *, with_samples: bool = False,
                     out: np.ndarray | None = None):
    """Real grid samples of d_l of every component of a stacked array,
    laid out as `gradient` (axis l just before the grid
    axes) and written into `out` when given; with `with_samples`,
    (samples, gradient samples), and no `out`.

    i k_l acts on axis l alone, so it commutes with the 1D passes along the
    other axes: the passes run in `irfftn`'s axis order over every branch at
    once (the field, then d_0, d_1, ..., in one `_scratch` array), and the
    branch d_l splits off the field's own (whose samples are bitwise
    `samples`') just before its pass along axis l.  A field and its
    gradient take 5 one-dimensional passes in 2D and 9 in 3D (the gradient
    alone 4 and 8), against 6 and 12 as one `irfftn` each, and the passes
    along the wraparound axes run on the `_band_width` columns only: 3D
    M 16, 13 band-limited fields, 2.9 ms, against 3.0 ms for the same
    passes over every column and 6.3 ms as one `irfftn` each (median of 60
    alternations, 2-vCPU Xeon VM)."""
    n = grid.dim
    width = _band_width(grid, coeffs)
    work = _scratch((n + 1,) + coeffs.shape[:-1] + (width,))
    ik = grid_wavenumbers(grid)["ik_axes"]
    work[0] = coeffs[..., :width]
    for ax in range(n - 1):
        np.multiply(work[0], ik[ax], out=work[1 + ax])
        np.fft.ifft(work[:ax + 2], axis=ax - n, norm="forward", out=work[:ax + 2])
    np.multiply(work[0], ik[n - 1][..., :width], out=work[n])
    stacked = coeffs.ndim > n  # a scalar's branches are in `gradient` layout already
    branches = np.moveaxis(out, -n - 1, 0) if stacked and out is not None else out
    res = np.fft.irfft(work[0 if with_samples else 1:], n=grid.points_per_axis, axis=-1,
                       norm="forward", out=branches)
    if out is not None:
        return out
    grad = res[1:] if with_samples else res
    grad = np.moveaxis(grad, 0, -n - 1) if stacked else grad
    return (res[0], grad) if with_samples else grad


def advect(grid: GridSpec, v: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Grid samples of the advection term (v . grad) u = v^l d_l u of every
    component u, from the samples `v` (dim, *grid) of the velocity and the
    gradient samples `du` (components, dim, *grid) of the stack.  The
    caller dealiases, together with whatever else it forms on the grid."""
    return np.einsum("l...,cl...->c...", v, du)


# -- dyadic rescaling ------------------------------------------------------


def rescale(grid: GridSpec, coeffs: np.ndarray, m: int) -> np.ndarray:
    """Spatial dilation x -> 2^m x of every component of stacked
    coefficients: move the coefficient at k to 2^m * k (k_last, the index
    on the last axis, stays in 0..M/2).

    For m > 0 every populated mode must stay inside the grid; for m < 0
    every populated mode must sit on the 2^|m| sub-lattice.  Coefficients
    at rounding level (1e-13 of the component's peak) are exempt from these
    checks, so transform noise in sampled fields does not trip them: they
    move with the rest where the dilation places them, and are dropped
    where it cannot.  Amplitude prefactors of the critical-scaling
    transformation are left to the caller.
    """
    if m == 0:
        return coeffs.copy()
    mm = grid.points_per_axis
    factor = 2 ** abs(m)
    mag = np.abs(coeffs)
    nz = np.argwhere(mag > 0)
    peak = mag.max(axis=tuple(range(-grid.dim, 0)), keepdims=True)
    significant = (mag > 1e-13 * peak)[tuple(nz.T)]
    idx = nz[:, -grid.dim:]
    k = np.where(idx >= mm // 2, idx - mm, idx)  # the wraparound frequency
    k[:, -1] = idx[:, -1]
    if m > 0:
        bad, moved = np.any(np.abs(k) * factor >= mm // 2, axis=1), k * factor
        message = f"rescale by m={m} overflows the grid at mode"
    else:
        bad, moved = np.any(k % factor != 0, axis=1), k // factor
        message = f"rescale by m={m} needs modes on the 2^{abs(m)} sub-lattice, found"
    if (bad & significant).any():
        raise GridError(f"{message} {tuple(k[bad & significant][0])}")
    nz, moved = nz[~bad], moved[~bad]
    out = np.zeros_like(coeffs)
    out[tuple(nz[:, :-grid.dim].T) + tuple((moved % mm).T)] = coeffs[tuple(nz.T)]
    return out
