"""Dyadic (Littlewood-Paley) frequency decomposition on the torus grid.

A smooth radial bump supported in the shell [3/4, 8/3] is normalized so
that its dyadic dilates sum to one at every positive radius.  Band q
then carries the frequencies with |k| ~ 2^q.  Because the torus has a
smallest nonzero frequency, the ladder is truncated to q in
[0, q_max]: the whole low-frequency tail (q <= 0) is absorbed into band
0, which on integer frequencies |k| >= 1 is still supported inside the
band-0 shell.  The zero mode (mean) is excluded from every band and
tracked separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np

from .spectral import GridSpec, SpectralField, grid_wavenumbers

SHELL_LO = 0.75
SHELL_HI = 8.0 / 3.0


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t<=0, 1 for t>=1."""
    t = np.asarray(t, dtype=np.float64)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(t)
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class PartitionProfile:
    """Radial bump phi with sum_{q in Z} phi(2^-q rho) = 1 for rho > 0.

    Built as a mollified plateau on [1, 2] with smooth edges down to the
    shell bounds, then normalized pointwise by its own dyadic sum; the
    sum is invariant under rho -> 2 rho, so the partition identity holds
    to machine precision by construction.
    """

    shell_lo: float = SHELL_LO
    shell_hi: float = SHELL_HI

    def _raw(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        rising = _smooth_step((rho - self.shell_lo) / (1.0 - self.shell_lo))
        falling = _smooth_step((self.shell_hi - rho) / (self.shell_hi - 2.0))
        return rising * falling

    def _dyadic_sum(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        out = np.zeros_like(rho)
        pos = rho > 0.0
        if not np.any(pos):
            return out
        r = rho[pos]
        base = np.floor(np.log2(r)).astype(np.int64)
        acc = np.zeros_like(r)
        for off in (-2, -1, 0, 1, 2):
            acc += self._raw(r * np.exp2(-(base + off)))
        out[pos] = acc
        return out

    def value(self, rho) -> np.ndarray:
        """phi(rho); zero at rho = 0 and outside the shell."""
        rho = np.asarray(rho, dtype=np.float64)
        raw = self._raw(rho)
        denom = self._dyadic_sum(rho)
        return np.where(raw > 0.0, raw / np.where(denom > 0.0, denom, 1.0), 0.0)

    def __call__(self, rho) -> np.ndarray:
        return self.value(rho)


_DEFAULT_PROFILE = PartitionProfile()


def default_profile() -> PartitionProfile:
    return _DEFAULT_PROFILE


@dataclass
class DyadicBlocks:
    """Band-limited pieces Delta_q u of a field, q in [q_min, q_max]."""

    blocks: dict[int, SpectralField]
    q_min: int
    q_max: int
    mean: float
    profile: PartitionProfile = field(default_factory=default_profile)

    def reconstruct(self) -> SpectralField:
        """Sum of all bands plus the mean."""
        grid = next(iter(self.blocks.values())).grid
        out = np.zeros(grid.shape, dtype=np.complex128)
        for b in self.blocks.values():
            out += b.coeffs
        out[(0,) * grid.dim] += self.mean
        return SpectralField(grid, out)


_MULT_CACHE: "WeakKeyDictionary[PartitionProfile, dict]" = WeakKeyDictionary()


def block_multipliers(grid: GridSpec, profile: PartitionProfile | None = None) -> np.ndarray:
    """Stack of band multipliers, shape (q_max+1, *grid.shape).

    Band q >= 1 is phi(2^-q |k|); band 0 additionally absorbs the whole
    q <= 0 tail of the partition so that bands sum to one on the
    retained radii.
    """
    profile = profile or _DEFAULT_PROFILE
    per_profile = _MULT_CACHE.setdefault(profile, {})
    key = (grid.dim, grid.points_per_axis)
    if key in per_profile:
        return per_profile[key]
    kmag = grid_wavenumbers(grid)["kmag"]
    nq = grid.q_max + 1
    stack = np.zeros((nq,) + grid.shape)
    for q in range(1, nq):
        stack[q] = profile.value(np.exp2(-q) * kmag)
    low = np.zeros(grid.shape)
    for j in range(0, 4):  # phi(2^j rho) vanishes for rho >= 1 once 2^j > 8/3
        low += profile.value(np.exp2(j) * kmag)
    stack[0] = low
    per_profile[key] = stack
    return stack


def coverage(grid: GridSpec, profile: PartitionProfile | None = None) -> np.ndarray:
    """Pointwise sum of the truncated ladder's multipliers."""
    return block_multipliers(grid, profile).sum(axis=0)


def retained_mask(grid: GridSpec, profile: PartitionProfile | None = None) -> np.ndarray:
    """Nonzero frequencies fully covered by the truncated ladder."""
    kmag = grid_wavenumbers(grid)["kmag"]
    return (kmag > 0) & (kmag <= retained_radius(grid) * (1 + 1e-12))


def retained_radius(grid: GridSpec) -> float:
    """Largest |k| with complete band coverage: 3/4 * 2^(q_max+1)."""
    return SHELL_LO * 2.0 ** (grid.q_max + 1)


def dyadic_decompose(field: SpectralField, profile: PartitionProfile | None = None) -> DyadicBlocks:
    grid = field.grid
    profile = profile or _DEFAULT_PROFILE
    stack = block_multipliers(grid, profile)
    blocks = {
        q: SpectralField(grid, field.coeffs * stack[q]) for q in range(stack.shape[0])
    }
    return DyadicBlocks(blocks=blocks, q_min=0, q_max=grid.q_max, mean=field.mean,
                        profile=profile)


def low_freq_cutoff(field: SpectralField, q: int,
                    profile: PartitionProfile | None = None) -> SpectralField:
    """S_q u: mean plus all bands strictly below q."""
    grid = field.grid
    stack = block_multipliers(grid, profile)
    mult = np.zeros(grid.shape)
    for j in range(0, min(q, stack.shape[0])):
        mult += stack[j]
    out = field.coeffs * mult
    out[(0,) * grid.dim] = field.coeffs[(0,) * grid.dim]
    return SpectralField(grid, out)
