"""Spectral fields on the periodic torus [0, 2pi)^N.

Fields are carried as full complex DFT coefficient arrays in the usual
wraparound frequency layout, normalized so that the coefficient of the
mode e^{i k.x} is 1.  All operators in this module are Fourier
multipliers acting on those coefficients; they are pure functions and
deterministic.
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
    domain_length: float = TWO_PI

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GridError(f"dim must be 2 or 3, got {self.dim}")
        m = self.points_per_axis
        if m < 16 or (m & (m - 1)) != 0:
            raise GridError(f"points_per_axis must be a power of two >= 16, got {m}")
        if self.domain_length != TWO_PI:
            raise GridError("domain_length is fixed at 2*pi")

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
    def q_min(self) -> int:
        """Lowest dyadic band; its shell [3/4, 8/3] contains |k| = 1."""
        return 0

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
    return {"kaxes": kaxes, "k2": k2, "kmag": kmag, "dealias_mask": keep}


def grid_wavenumbers(grid: GridSpec) -> dict:
    return _grid_arrays(grid.dim, grid.points_per_axis)


@dataclass
class SpectralField:
    """Complex Fourier coefficients of a real scalar field on `grid`."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise GridError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    # -- basic structure ------------------------------------------------
    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    @property
    def mean(self) -> float:
        return float(self.coeffs[(0,) * self.grid.dim].real)

    def hermitian_defect(self) -> float:
        """Max |c(-k) - conj(c(k))| relative to the largest coefficient."""
        flipped = _reverse_modes(self.coeffs)
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


def _reverse_modes(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient array at -k (mod M) for every k."""
    out = coeffs
    for ax in range(coeffs.ndim):
        out = np.flip(np.roll(out, -1, axis=ax), axis=ax)
    return out


def hermitize(field: "SpectralField") -> "SpectralField":
    """Project onto the Hermitian-symmetric (real-field) subspace.

    Rounding noise in long evaluation chains drifts off that subspace;
    the anti-Hermitian part is invisible to any operator that works on
    real physical samples, so it is pure garbage to discard.
    """
    sym = 0.5 * (field.coeffs + _reverse_modes(field.coeffs).conj())
    return SpectralField(field.grid, sym)


# -- transforms ----------------------------------------------------------


def make_grid(dim: int, points_per_axis: int) -> GridSpec:
    return GridSpec(dim, points_per_axis)


def forward_transform(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Real samples -> coefficients with unit amplitude per plane wave."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise GridError(f"sample shape {samples.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(samples):
        raise GridError("samples must be real-valued")
    n = grid.points_per_axis ** grid.dim
    return SpectralField(grid, np.fft.fftn(samples) / n)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Coefficients -> real physical samples."""
    n = field.grid.points_per_axis ** field.grid.dim
    return np.fft.ifftn(field.coeffs * n).real


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


# -- multiplier operators -------------------------------------------------


def derivative(field: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis as the multiplier i*k_axis, with the unmatched Nyquist
    mode zeroed to keep odd derivatives real."""
    grid = field.grid
    if not 0 <= axis < grid.dim:
        raise GridError(f"axis {axis} out of range for dim {grid.dim}")
    k = grid_wavenumbers(grid)["kaxes"][axis]
    mult = 1j * k.astype(np.float64)
    mult = np.where(k == -grid.points_per_axis // 2, 0.0, mult)
    return SpectralField(grid, field.coeffs * mult)


def gradient(field: SpectralField) -> list[SpectralField]:
    return [derivative(field, ax) for ax in range(field.grid.dim)]


def laplacian(field: SpectralField) -> SpectralField:
    k2 = grid_wavenumbers(field.grid)["k2"]
    return SpectralField(field.grid, -k2 * field.coeffs)


def lambda_power(field: SpectralField, exponent: float) -> SpectralField:
    """(-Laplacian)^(exponent/2): multiplier |k|^exponent, zero mode -> 0
    for any nonzero exponent."""
    if exponent == 0:
        return field.copy()
    grid = field.grid
    kmag = grid_wavenumbers(grid)["kmag"]
    with np.errstate(divide="ignore"):
        mult = np.where(kmag > 0, kmag, 1.0) ** float(exponent)
    mult = np.where(kmag > 0, mult, 0.0)
    return SpectralField(grid, field.coeffs * mult)


def divergence(fields: list[SpectralField]) -> SpectralField:
    grid = fields[0].grid
    if len(fields) != grid.dim:
        raise GridError("component count does not match grid dimension")
    out = np.zeros(grid.shape, dtype=np.complex128)
    for ax, f in enumerate(fields):
        out += derivative(f, ax).coeffs
    return SpectralField(grid, out)


def leray_project(fields: list[SpectralField]) -> list[SpectralField]:
    """L2-orthogonal projection onto divergence-free vector fields.

    Uses the same odd-multiplier convention as `derivative` (unmatched
    Nyquist lines count as frequency zero), so the projected field is
    annihilated by the artifact's own divergence.  The zero mode (mean
    flow) passes through unchanged.
    """
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridError("fields live on different grids")
    if len(fields) != grid.dim:
        raise GridError("component count does not match grid dimension")
    arrs = grid_wavenumbers(grid)
    nyq = -grid.points_per_axis // 2
    kaxes = [np.where(k == nyq, 0.0, k.astype(np.float64)) for k in arrs["kaxes"]]
    k2 = sum(np.broadcast_to(k ** 2, grid.shape) for k in kaxes)
    kdotv = np.zeros(grid.shape, dtype=np.complex128)
    for ax, f in enumerate(fields):
        kdotv += kaxes[ax] * f.coeffs
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(k2 > 0, kdotv / np.where(k2 > 0, k2, 1.0), 0.0)
    return [
        SpectralField(grid, f.coeffs - kaxes[ax] * scale) for ax, f in enumerate(fields)
    ]


def dealias(field: SpectralField) -> SpectralField:
    """Two-thirds rule: zero every coefficient with any |k_axis| > M/3."""
    mask = grid_wavenumbers(field.grid)["dealias_mask"]
    return SpectralField(field.grid, field.coeffs * mask)


def product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pointwise product; exact convolution on the retained band
    when both inputs are supported below M/3."""
    f._check(g)
    fg = inverse_transform(f) * inverse_transform(g)
    return dealias(forward_transform(f.grid, fg))


def advect(velocity: list[SpectralField], scalar: SpectralField) -> SpectralField:
    """Dealiased advection term (v . grad) u."""
    grid = scalar.grid
    out = np.zeros(grid.shape, dtype=np.complex128)
    for ax, v in enumerate(velocity):
        term = inverse_transform(v) * inverse_transform(derivative(scalar, ax))
        out += np.fft.fftn(term) / grid.points_per_axis ** grid.dim
    mask = grid_wavenumbers(grid)["dealias_mask"]
    return SpectralField(grid, out * mask)


# -- dyadic rescaling ------------------------------------------------------


def rescale(field: SpectralField, m: int) -> SpectralField:
    """Spatial dilation x -> 2^m x: move the coefficient at k to 2^m * k.

    For m > 0 every populated mode must stay inside the grid; for m < 0
    every populated mode must sit on the 2^|m| sub-lattice.  Coefficients
    at rounding level (1e-13 of the peak) count as unpopulated, so
    transform noise in sampled fields does not trip the band checks.
    Amplitude prefactors of the critical-scaling transformation are left
    to the caller.
    """
    if m == 0:
        return field.copy()
    grid = field.grid
    mm = grid.points_per_axis
    half = mm // 2
    k1 = np.fft.fftfreq(mm, d=1.0 / mm).astype(np.int64)
    out = np.zeros(grid.shape, dtype=np.complex128)
    factor = 2 ** abs(m)
    floor = 1e-13 * float(np.max(np.abs(field.coeffs)))
    nz = np.argwhere(np.abs(field.coeffs) > floor)
    if m > 0:
        for idx in nz:
            k = k1[list(idx)]
            if np.any(np.abs(k) * factor >= half):
                raise GridError(
                    f"rescale by m={m} overflows the grid at mode {tuple(k)}"
                )
            new_idx = tuple((k * factor) % mm)
            out[new_idx] = field.coeffs[tuple(idx)]
    else:
        for idx in nz:
            k = k1[list(idx)]
            if np.any(k % factor != 0):
                raise GridError(
                    f"rescale by m={m} needs modes on the 2^{abs(m)} sub-lattice, "
                    f"found {tuple(k)}"
                )
            new_idx = tuple((k // factor) % mm)
            out[new_idx] = field.coeffs[tuple(idx)]
    return SpectralField(grid, out)
