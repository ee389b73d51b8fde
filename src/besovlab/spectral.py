"""Spectral fields on the periodic torus [0, 2pi)^N.

Coefficients use the usual wraparound frequency layout, normalized so
that the coefficient of the mode e^{i k.x} is 1.  Every array holds the
coefficients of a real field, so it is Hermitian: c(-k) = conj(c(k)).
All operators in this module are Fourier multipliers acting on those
coefficients and keep that symmetry; they are pure functions and
deterministic.

A `SpectralField` is one field or a stack of them: its coefficients have
shape (*components, *grid.shape), and indexing or iterating it gives
views of its components.  A vector is a field of shape (dim, *grid), a
tensor (dim, dim, *grid), a state (1 + n + n^2, *grid), a trajectory a
leading time axis on top; no operator here takes a list of fields.

Two layouts carry the same coefficients.  The full layout, shape
(..., M, ..., M), lives at the API boundary: `SpectralField`, the saved
states of the steppers, snapshots, norms, the verifier and the random
draws.  The half layout, shape (..., M, ..., M//2+1), holds only the
k_last >= 0 modes; it is what `rfftn` gives and all that `irfftn` reads,
and the integration core (the steppers, the linear solvers and their
trajectories, the stage kernel and the pressure solve) carries nothing
else.  `to_half` (a slice) and `to_full` (the one mirror fill, k_last < 0
from the conjugate of -k) are the only conversions.  Inside the half, the
k_last = 0 and k_last = M/2 planes each hold both k and -k, so their
Hermitian symmetry is a constraint within the plane (`hermitian_planes`
projects onto it); every other plane stands for itself and its mirror,
and a Parseval sum counts it twice.  The multiplier tables of
`grid_wavenumbers` are full; each operator slices them to the last axis
of the array it acts on (`ik[..., :c.shape[-1]]`), so it serves both
layouts without a branch.

`samples` and `gradient_samples` read either layout; `dealiased`, the
core's one forward transform, returns the half, and `forward_transform`
returns the full layout.  The `stacked_*` operators, `samples`,
`gradient_samples`, `dealiased`, `product` and `advect` act on stacked
arrays: any leading axes index components, the last `dim` axes are the
grid; `gradient`, `divergence` and `leray_project` are their forms on a
field.  A quadratic term is formed by sampling its factors on the grid,
multiplying and contracting there, and one `dealiased` call for all its
output components; `product` is the case of one scalar factor, at the
API boundary.  The largest arrays a right side holds are those of the one
`gradient_samples` call over its whole stack: the samples and the
gradient samples, `dim` + 1 reals per component and grid point
(13 x 4 x 32^3 float64 = 13.6 MB in 3D at M 32), filled from a work array
of `dim` + 1 half-layout branches per component (14.5 MB) that is freed
when the call returns.
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

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

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
    """Cached wavenumber arrays for a (dim, M) grid."""
    k1 = np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)
    kaxes = []
    for ax in range(dim):
        shape = [1] * dim
        shape[ax] = m
        kaxes.append(k1.reshape(shape))
    k2 = sum((k.astype(np.float64) ** 2 for k in kaxes), np.zeros((1,) * dim))
    k2 = np.broadcast_to(k2, (m,) * dim).copy()
    kmag = np.sqrt(k2)
    limit = m / 3.0
    keep = np.ones((m,) * dim, dtype=bool)
    for k in kaxes:
        keep &= np.abs(k) <= limit
    # i k_axis per axis, the unmatched Nyquist line zeroed so that odd
    # derivatives of real fields stay real; `ik_axes` keeps each as the
    # 1D multiplier it is, broadcastable along the other axes
    ik_axes = [np.where(k == -(m // 2), 0.0, 1j * k) for k in kaxes]
    ik = np.stack([np.broadcast_to(k, (m,) * dim) for k in ik_axes])
    # flat index into the k_last >= 0 half (last axis 0..M/2) of the mode
    # -k, for every k with k_last < 0 (last axis M/2+1..M-1)
    half = m // 2 + 1
    idx = np.indices((m,) * (dim - 1) + (m - half,))
    mirror = np.ravel_multi_index(tuple((-i) % m for i in idx[:-1]) + (m - half - idx[-1],),
                                  (m,) * (dim - 1) + (half,))
    return {"kaxes": kaxes, "k2": k2, "kmag": kmag, "dealias_mask": keep, "ik": ik,
            "ik_axes": ik_axes, "mirror": mirror}


def grid_wavenumbers(grid: GridSpec) -> dict:
    return _grid_arrays(grid.dim, grid.points_per_axis)


@dataclass
class SpectralField:
    """Complex Fourier coefficients of a real field on `grid`, or of a stack
    of them: shape (*components, *grid.shape).  `f[i]` and iteration give
    views of the components along the first axis; a scalar field has none
    (`len` raises TypeError), and no field supports item assignment."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape[-self.grid.dim:] != self.grid.shape:
            raise GridError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    # -- basic structure ------------------------------------------------
    def __len__(self) -> int:
        if self.coeffs.ndim == self.grid.dim:
            raise TypeError("a scalar field has no components")
        return self.coeffs.shape[0]

    def __getitem__(self, i) -> "SpectralField":
        len(self)  # a scalar field has no components to index
        return SpectralField(self.grid, self.coeffs[i])

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    @property
    def mean(self) -> float:
        return float(self.coeffs[(0,) * self.grid.dim].real)

    def hermitian_defect(self) -> float:
        """Max |c(-k) - conj(c(k))| relative to the largest coefficient."""
        flipped = _reverse_modes(self.grid, self.coeffs)
        scale = np.max(np.abs(self.coeffs))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(flipped.conj() - self.coeffs)) / scale)

    # -- arithmetic -----------------------------------------------------
    def _check(self, other: "SpectralField"):
        if other.grid != self.grid:
            raise GridError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


def _reverse_modes(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Coefficient array at -k (mod M) for every k, per component."""
    out = coeffs
    for ax in range(-grid.dim, 0):
        out = np.flip(np.roll(out, -1, axis=ax), axis=ax)
    return out


def hermitize(field: "SpectralField") -> "SpectralField":
    """Project onto the Hermitian-symmetric (real-field) subspace.

    Rounding noise in long evaluation chains drifts off that subspace;
    the anti-Hermitian part is invisible to any operator that works on
    real physical samples, so it is pure garbage to discard.
    """
    sym = 0.5 * (field.coeffs + _reverse_modes(field.grid, field.coeffs).conj())
    return SpectralField(field.grid, sym)


def hermitian_planes(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """A copy of the half-layout `half` with its k_last = 0 and k_last = M/2
    planes projected onto their Hermitian part, as `hermitize` does there.
    On a mirror-filled array those planes are all that `hermitize`
    changes: every other mode's -k already holds its conjugate."""
    m = grid.points_per_axis
    planes = half[..., [0, m // 2]]
    at_minus_k = planes
    for ax in range(-grid.dim, -1):
        at_minus_k = np.take(at_minus_k, -np.arange(m) % m, axis=ax)
    out = half.copy()
    out[..., [0, m // 2]] = 0.5 * (planes + at_minus_k.conj())
    return out


# -- layouts and transforms -----------------------------------------------


def to_half(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """The k_last >= 0 half of stacked coefficients of either layout (a
    view; the identity on the half layout)."""
    return coeffs[..., :grid.points_per_axis // 2 + 1]


def to_full(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Full-layout coefficients of the stacked half-layout `half`: the
    k_last < 0 half is the conjugate of the mode -k, which the half holds."""
    m, width = grid.points_per_axis, grid.points_per_axis // 2 + 1
    full = np.empty(half.shape[:-1] + (m,), dtype=np.complex128)
    full[..., :width] = half
    flat = half.reshape(half.shape[:-grid.dim] + (-1,))
    np.conjugate(np.take(flat, grid_wavenumbers(grid)["mirror"], axis=-1),
                 out=full[..., width:])
    return full


def make_grid(dim: int, points_per_axis: int) -> GridSpec:
    return GridSpec(dim, points_per_axis)


def forward_transform(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Real samples -> coefficients with unit amplitude per plane wave."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise GridError(f"sample shape {samples.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(samples):
        raise GridError("samples must be real-valued")
    return SpectralField(grid, to_full(grid, _rfftn(grid, samples)))


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Coefficients -> real physical samples."""
    return samples(field.grid, field.coeffs)


def samples(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Real grid samples of every component of a stacked coefficient array
    of either layout.

    The coefficients must be Hermitian (those of real fields): only the
    k_last >= 0 half is read, by `irfftn`.  norm="forward" is the
    unit-amplitude convention (the 1/M^dim sits on the forward transform).
    """
    half = grid.points_per_axis // 2 + 1
    return np.fft.irfftn(coeffs[..., :half], s=grid.shape,
                         axes=tuple(range(-grid.dim, 0)), norm="forward")


def _rfftn(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Half-layout coefficients of stacked real samples."""
    return np.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)), norm="forward")


def dealiased(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Half-layout coefficients of every component of stacked real samples,
    with the two-thirds rule applied."""
    coeffs = _rfftn(grid, values)
    coeffs *= grid_wavenumbers(grid)["dealias_mask"][..., :coeffs.shape[-1]]
    return coeffs


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


# -- multiplier operators -------------------------------------------------


def derivative(field: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis as the multiplier i*k_axis, with the unmatched Nyquist
    mode zeroed to keep odd derivatives real."""
    grid = field.grid
    if not 0 <= axis < grid.dim:
        raise GridError(f"axis {axis} out of range for dim {grid.dim}")
    return SpectralField(grid, field.coeffs * grid_wavenumbers(grid)["ik"][axis])


def gradient(field: SpectralField) -> SpectralField:
    """`stacked_gradient` of a field: [..., l] = d_l of each component."""
    return SpectralField(field.grid, stacked_gradient(field.grid, field.coeffs))


def stacked_gradient(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """d_l of every component of a stacked array, as `derivative` takes it;
    the new axis l sits just before the grid axes."""
    ik = grid_wavenumbers(grid)["ik"]
    return np.expand_dims(coeffs, -grid.dim - 1) * ik[..., :coeffs.shape[-1]]


def stacked_divergence(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """d_l of component l, summed over the axis just before the grid axes
    (`coeffs` holds vectors of `dim` components)."""
    ik = grid_wavenumbers(grid)["ik"][..., :coeffs.shape[-1]]
    return sum(k * c for k, c in zip(ik, np.moveaxis(coeffs, -grid.dim - 1, 0), strict=True))


def _lambda_multiplier(grid: GridSpec, exponent: float, width: int) -> np.ndarray:
    """|k|^exponent with the zero mode set to 0, on the first `width`
    modes of the last axis."""
    kmag = grid_wavenumbers(grid)["kmag"][..., :width]
    with np.errstate(divide="ignore"):
        mult = np.where(kmag > 0, kmag, 1.0) ** float(exponent)
    return np.where(kmag > 0, mult, 0.0)


def lambda_power(field: SpectralField, exponent: float) -> SpectralField:
    """(-Laplacian)^(exponent/2): multiplier |k|^exponent, zero mode -> 0
    for any nonzero exponent."""
    if exponent == 0:
        return field.copy()
    grid = field.grid
    return SpectralField(grid, field.coeffs
                         * _lambda_multiplier(grid, exponent, grid.points_per_axis))


def divergence(field: SpectralField) -> SpectralField:
    """`stacked_divergence` of a field of vectors."""
    return SpectralField(field.grid, stacked_divergence(field.grid, field.coeffs))


def stacked_leray(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """L2-orthogonal projection onto divergence-free vector fields of the
    vectors in `coeffs` (the axis just before the grid axes indexes the
    `dim` components), in either layout.

    Uses the same odd-multiplier convention as `derivative` (unmatched
    Nyquist lines count as frequency zero), so the projected field is
    annihilated by the artifact's own divergence.  The zero mode (mean
    flow) passes through unchanged.
    """
    kaxes = grid_wavenumbers(grid)["ik"][..., :coeffs.shape[-1]].imag
    k2 = sum(k ** 2 for k in kaxes)
    kdotv = sum(k * c for k, c in zip(kaxes, np.moveaxis(coeffs, -grid.dim - 1, 0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(k2 > 0, kdotv / np.where(k2 > 0, k2, 1.0), 0.0)
    return coeffs - kaxes * np.expand_dims(scale, -grid.dim - 1)


def leray_project(field: SpectralField) -> SpectralField:
    """`stacked_leray` of a field of vectors."""
    return SpectralField(field.grid, stacked_leray(field.grid, field.coeffs))


def dealias(field: SpectralField) -> SpectralField:
    """Two-thirds rule: zero every coefficient with any |k_axis| > M/3."""
    mask = grid_wavenumbers(field.grid)["dealias_mask"]
    return SpectralField(field.grid, field.coeffs * mask)


def product(f: SpectralField, g: SpectralField | np.ndarray):
    """Dealiased pointwise product of the scalar field `f` with `g`: a
    field (returns a field), or stacked coefficients of either layout or
    stacked real grid samples the caller holds (returns the full-layout
    stacked coefficients of f times each component; `f` is sampled once).
    Exact convolution on the retained band when both factors are
    supported below M/3."""
    grid = f.grid
    if isinstance(g, SpectralField):
        f._check(g)
        return SpectralField(grid, to_full(grid, dealiased(grid, inverse_transform(f)
                                                           * inverse_transform(g))))
    g_s = samples(grid, g) if np.iscomplexobj(g) else g
    return to_full(grid, dealiased(grid, inverse_transform(f) * g_s))


def gradient_samples(grid: GridSpec, coeffs: np.ndarray, *, with_samples: bool = False):
    """Real grid samples of d_l of every component of a stacked array of
    either layout, laid out as `stacked_gradient` (axis l just before the
    grid axes); with `with_samples`, (samples, gradient samples).

    i k_l acts on axis l alone, so it commutes with the 1D passes along the
    other axes: the passes run in `irfftn`'s axis order over every branch at
    once, and the branch d_l splits off the field's own (whose samples are
    bitwise `samples`') just before its pass along axis l.  A field and its
    gradient take 5 one-dimensional passes in 2D and 9 in 3D (the gradient
    alone 4 and 8), against 6 and 12 as one `irfftn` each: 3D M 16, 13
    fields, 2.8 vs 4.0 ms (median of 60 alternations, 2-vCPU Xeon VM)."""
    n, m = grid.dim, grid.points_per_axis
    coeffs = to_half(grid, coeffs)
    width = coeffs.shape[-1]
    ik = grid_wavenumbers(grid)["ik_axes"]
    # branch b: the field (b = 0) or its derivative d_{b-1}, half-transformed
    work = np.empty((n + 1,) + coeffs.shape, dtype=np.complex128)
    work[0] = coeffs
    for ax in range(n - 1):
        np.multiply(work[0], ik[ax][..., :width], out=work[1 + ax])
        np.fft.ifft(work[:ax + 2], axis=ax - n, norm="forward", out=work[:ax + 2])
    np.multiply(work[0], ik[n - 1][..., :width], out=work[n])
    out = np.fft.irfft(work[0 if with_samples else 1:], n=m, axis=-1, norm="forward")
    grad = np.moveaxis(out[1:] if with_samples else out, 0, -n - 1)
    return (out[0], grad) if with_samples else grad


def advect(grid: GridSpec, v: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Grid samples of the advection term (v . grad) u = v^l d_l u of every
    component u, from the samples `v` (dim, *grid) of the velocity and the
    gradient samples `du` (components, dim, *grid) of the stack.  The
    caller dealiases, together with whatever else it forms on the grid."""
    return np.einsum("l...,cl...->c...", v, du)


# -- dyadic rescaling ------------------------------------------------------


def rescale(field: SpectralField, m: int) -> SpectralField:
    """Spatial dilation x -> 2^m x of every component: move the coefficient
    at k to 2^m * k.

    For m > 0 every populated mode must stay inside the grid; for m < 0
    every populated mode must sit on the 2^|m| sub-lattice.  Coefficients
    at rounding level (1e-13 of the component's peak) count as unpopulated,
    so transform noise in sampled fields does not trip the band checks.
    Amplitude prefactors of the critical-scaling transformation are left
    to the caller.
    """
    if m == 0:
        return field.copy()
    grid, coeffs = field.grid, field.coeffs
    mm = grid.points_per_axis
    factor = 2 ** abs(m)
    mag = np.abs(coeffs)
    nz = np.argwhere(mag > 1e-13 * mag.max(axis=tuple(range(-grid.dim, 0)), keepdims=True))
    k = np.fft.fftfreq(mm, d=1.0 / mm).astype(np.int64)[nz[:, -grid.dim:]]
    if m > 0:
        bad, moved = np.any(np.abs(k) * factor >= mm // 2, axis=1), k * factor
        message = f"rescale by m={m} overflows the grid at mode"
    else:
        bad, moved = np.any(k % factor != 0, axis=1), k // factor
        message = f"rescale by m={m} needs modes on the 2^{abs(m)} sub-lattice, found"
    if bad.any():
        raise GridError(f"{message} {tuple(k[bad][0])}")
    out = np.zeros_like(coeffs)
    out[tuple(nz[:, :-grid.dim].T) + tuple((moved % mm).T)] = coeffs[tuple(nz.T)]
    return SpectralField(grid, out)
