"""Dyadic (Littlewood-Paley) frequency decomposition on the torus grid.

A smooth radial bump supported in the shell [3/4, 8/3] is normalized so
that its dyadic dilates sum to one at every positive radius.  Band q
then carries the frequencies with |k| ~ 2^q.  Because the torus has a
smallest nonzero frequency, the ladder is truncated to q in
[0, q_max]: the whole low-frequency tail (q <= 0) is absorbed into band
0, which on integer frequencies |k| >= 1 is still supported inside the
band-0 shell.  The zero mode (mean) is excluded from every band and
tracked separately.

The partition is fixed: every band multiplier, hence every dyadic norm,
comes from `profile`.  Band weights and summation exponents
live on the norm specs in `norms`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spectral import GridSpec, grid_wavenumbers

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


def _raw(rho: np.ndarray) -> np.ndarray:
    """The unnormalized bump: a plateau on [1, 2] with smooth edges down to
    the shell bounds."""
    rising = _smooth_step((rho - SHELL_LO) / (1.0 - SHELL_LO))
    falling = _smooth_step((SHELL_HI - rho) / (SHELL_HI - 2.0))
    return rising * falling


def _dyadic_sum(rho: np.ndarray) -> np.ndarray:
    """sum over q of `_raw`(2^-q rho), zero at rho = 0."""
    out = np.zeros_like(rho)
    pos = rho > 0.0
    if not np.any(pos):
        return out
    r = rho[pos]
    base = np.floor(np.log2(r)).astype(np.int64)
    acc = np.zeros_like(r)
    for off in (-2, -1, 0, 1, 2):
        acc += _raw(r * np.exp2(-(base + off)))
    out[pos] = acc
    return out


def profile(rho) -> np.ndarray:
    """The radial bump phi(rho), with sum_{q in Z} phi(2^-q rho) = 1 for
    rho > 0; zero at rho = 0 and outside the shell.

    The bump is normalized pointwise by its own dyadic sum; the sum is
    invariant under rho -> 2 rho, so the partition identity holds to
    machine precision by construction.
    """
    rho = np.asarray(rho, dtype=np.float64)
    raw = _raw(rho)
    denom = _dyadic_sum(rho)
    return np.where(raw > 0.0, raw / np.where(denom > 0.0, denom, 1.0), 0.0)


def block_multipliers(grid: GridSpec) -> np.ndarray:
    """Stack of band multipliers, shape (q_max+1, *grid.coeff_shape).

    Band q >= 1 is phi(2^-q |k|); band 0 additionally absorbs the whole
    q <= 0 tail of the partition so that bands sum to one on the
    retained radii.
    """
    return _block_multipliers(grid.dim, grid.points_per_axis)


@lru_cache(maxsize=32)
def _block_multipliers(dim: int, m: int) -> np.ndarray:
    grid = GridSpec(dim, m)
    kmag = grid_wavenumbers(grid)["kmag"]
    nq = grid.q_max + 1
    stack = np.zeros((nq,) + grid.coeff_shape)
    for q in range(1, nq):
        stack[q] = profile(np.exp2(-q) * kmag)
    low = np.zeros(grid.coeff_shape)
    for j in range(0, 4):  # phi(2^j rho) vanishes for rho >= 1 once 2^j > 8/3
        low += profile(np.exp2(j) * kmag)
    stack[0] = low
    return stack


def retained_mask(grid: GridSpec) -> np.ndarray:
    """Nonzero frequencies fully covered by the truncated ladder."""
    kmag = grid_wavenumbers(grid)["kmag"]
    return (kmag > 0) & (kmag <= retained_radius(grid) * (1 + 1e-12))


def retained_radius(grid: GridSpec) -> float:
    """Largest |k| with complete band coverage: 3/4 * 2^(q_max+1)."""
    return SHELL_LO * 2.0 ** (grid.q_max + 1)
