"""Grid L^p norms, dyadic-sum (Besov-type) norms, their time-integrated
variants, and the hybrid frequency-weighted norm.

Every dyadic norm weights the per-band norms ||Delta_q u||_p over the
fixed partition of `paley` and sums them over bands.  Each spec states
its block exponent `p`, band weights `weights` and band-sum exponent
`sum_r` once; all norms here go through that one weighted band sum.

For p = 2 the block norms take no transform: by discrete Parseval the
rectangle-rule ||Delta_q u||_2^2 is (2pi)^N sum_k phi_q(k)^2 |c_k|^2 over
every mode k, exactly, because the coefficients are those of real fields;
`spectral.energy` weights the half the coefficients hold.  Other p sample
each band.

Integrability and summation exponents are floats in [1, inf]; infinity
is encoded as Python's IEEE ``math.inf``, never by a magic number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paley import block_multipliers, retained_mask
from .spectral import TWO_PI, GridError, GridSpec, energy, samples

INF = math.inf


def _check_exponent(name: str, value: float):
    if not (value >= 1.0):
        raise ValueError(f"{name} must lie in [1, inf], got {value}")


@dataclass(frozen=True)
class BesovSpec:
    """Smoothness s, integrability p, dyadic summation exponent r:
    l^r over bands of 2^(qs) ||Delta_q u||_p."""

    s: float
    p: float = 2.0
    r: float = 1.0

    def __post_init__(self):
        _check_exponent("p", self.p)
        _check_exponent("r", self.r)

    @property
    def name(self) -> str:
        p = "inf" if self.p == INF else f"{self.p:g}"
        r = "inf" if self.r == INF else f"{self.r:g}"
        return f"B^{self.s:g}_{{{p},{r}}}"

    @property
    def sum_r(self) -> float:
        return self.r

    def weights(self, n_bands: int) -> np.ndarray:
        return np.exp2(np.arange(n_bands) * self.s)


@dataclass(frozen=True)
class HybridSpec:
    """l^1 over bands of 2^(qs) max(mu, 2^-q)^(1-2/r) ||Delta_q u||_L2,
    with mu the `weight`."""

    s: float
    r: float = INF
    weight: float = 1.0

    p = 2.0
    sum_r = 1.0

    def __post_init__(self):
        _check_exponent("r", self.r)
        if not self.weight > 0:
            raise ValueError(f"weight must be positive, got {self.weight}")

    @property
    def name(self) -> str:
        r = "inf" if self.r == INF else f"{self.r:g}"
        return f"Bh^{{{self.s:g},{r}}}_mu={self.weight:g}"

    def weights(self, n_bands: int) -> np.ndarray:
        qs = np.arange(n_bands)
        expo = 1.0 if self.r == INF else 1.0 - 2.0 / self.r
        return np.exp2(qs * self.s) * np.maximum(self.weight, np.exp2(-qs.astype(float))) ** expo


def _check_shape(grid: GridSpec, coeffs: np.ndarray):
    """Raise GridError unless the last `grid.dim` axes of `coeffs` are the
    grid's coefficient shape: every norm here reshapes over it."""
    if coeffs.shape[-grid.dim:] != grid.coeff_shape:
        raise GridError(f"coefficient shape {coeffs.shape} does not match grid {grid.shape}: "
                        f"the k_last >= 0 half has shape {grid.coeff_shape}")


# -- plain grid norms -------------------------------------------------------


def _grid_lp(values: np.ndarray, p: float, cell_volume: float, axis=None):
    """Rectangle-rule L^p norm of grid samples over `axis` (default: all);
    p = inf is the max.  The one grid reduction of every L^p norm here."""
    if p == INF:
        return np.max(np.abs(values), axis=axis)
    return (np.sum(np.abs(values) ** p, axis=axis) * cell_volume) ** (1.0 / p)


def lp_norm(grid: GridSpec, coeffs: np.ndarray, p: float) -> float:
    """Rectangle-rule L^p norm of the physical samples of the coefficients
    `coeffs`, scalar or stacked; p = inf is the max."""
    _check_exponent("p", p)
    _check_shape(grid, coeffs)
    return float(_grid_lp(samples(grid, coeffs), p, grid.cell_volume))


def l2_norm(grid: GridSpec, coeffs: np.ndarray) -> float:
    """L2 norm of the real fields with stacked coefficients `coeffs`: the
    Parseval `energy` for the unit-amplitude convention."""
    _check_shape(grid, coeffs)
    return float(np.sqrt(TWO_PI ** grid.dim * energy(coeffs)))


def stacked_lp(grid: GridSpec, coeffs: np.ndarray, p: float) -> np.ndarray:
    """`lp_norm` of every field of a stacked coefficient array: by Parseval
    (`energy`) for p = 2, else from one `samples` call."""
    _check_shape(grid, coeffs)
    axes = tuple(range(-grid.dim, 0))
    if p == 2.0:
        return np.sqrt(TWO_PI ** grid.dim * energy(coeffs, axis=axes))
    return _grid_lp(samples(grid, coeffs), p, grid.cell_volume, axes)


def _band_sum(spec, blocks: np.ndarray):
    """The spec's l^r sum (max for r = inf) over the last axis of its
    weighted block norms: the instantaneous value of every dyadic norm."""
    terms = spec.weights(blocks.shape[-1]) * blocks
    if spec.sum_r == INF:
        return terms.max(axis=-1)
    return np.sum(terms ** spec.sum_r, axis=-1) ** (1.0 / spec.sum_r)


@lru_cache(maxsize=32)
def _parseval(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(2pi)^N phi_q^2 as a (q_max+1, modes) matrix over the flattened
    coefficient shape, and the flat mask of the modes beyond the retained
    radius (not the zero mode, entry 0)."""
    grid = GridSpec(dim, m)
    outside = ~retained_mask(grid).ravel()
    outside[0] = False
    return TWO_PI ** dim * block_multipliers(grid).reshape(grid.q_max + 1, -1) ** 2, outside


def _energy(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """The Parseval `energy` of the coefficients `u` per mode, summed over
    their components and flattened over the coefficient shape."""
    return energy(u.reshape((-1,) + grid.coeff_shape), axis=0).ravel()


def block_lp(grid: GridSpec, u: np.ndarray, p: float,
             energy: np.ndarray | None = None) -> np.ndarray:
    """Per-band L^p norms of the coefficients `u`, scalar or stacked.

    Components combine inside each band as an l^p sum (the max for
    p = inf), so for p = 2 this is the usual L2 norm of the stacked
    object.  For p = 2 it is (2pi)^N sum_k phi_q^2 |c_k|^2, by Parseval
    the sampled sum exactly; a caller that holds `_energy(grid, u)` passes
    it as `energy`.
    Other p sample every band.
    """
    _check_shape(grid, u)
    if p == 2.0:
        energy = _energy(grid, u) if energy is None else energy
        return np.sqrt(_parseval(grid.dim, grid.points_per_axis)[0] @ energy)
    return np.array([_grid_lp(samples(grid, u * band), p, grid.cell_volume)
                     for band in block_multipliers(grid)])


@dataclass
class NormBreakdown:
    """A dyadic-sum norm with its per-band terms and truncation report."""

    value: float
    block_lp: np.ndarray
    outside_energy_fraction: float
    truncation_flag: bool  # > 1% of L2 energy beyond the retained band


def besov_norm(grid: GridSpec, u: np.ndarray, spec: BesovSpec | HybridSpec) -> NormBreakdown:
    """Dyadic-sum norm: l^r over bands of 2^(qs) * ||band||_p (a HybridSpec
    gives the hybrid norm), with the truncation report; both read one
    energy array.

    The zero mode is excluded; the components of stacked coefficients `u`
    (vector, tensor) combine per band as in `block_lp`.
    """
    _check_shape(grid, u)
    energy = _energy(grid, u)
    blocks = block_lp(grid, u, spec.p, energy)
    total = float(energy[1:].sum())
    outside = float(energy[_parseval(grid.dim, grid.points_per_axis)[1]].sum())
    frac = outside / total if total else 0.0
    return NormBreakdown(float(_band_sum(spec, blocks)), blocks, frac, frac > 0.01)


def ensemble_norms(grid: GridSpec, coeffs: np.ndarray, *specs) -> np.ndarray:
    """`besov_norm(grid, c, spec).value`, bitwise, of every draw c along the
    first axis of `coeffs` (each draw scalar or stacked) for every spec:
    shape (len(specs), draws).  For p = 2 the block norms are one
    `np.matmul` with a column per draw, which sums as `block_lp` does."""
    _check_shape(grid, coeffs)
    blocks = {}
    for p in {spec.p for spec in specs}:
        if p == 2.0:
            e = energy(coeffs.reshape((len(coeffs), -1) + grid.coeff_shape), axis=1)
            e = e.reshape(len(coeffs), -1, 1)
            blocks[p] = np.sqrt(np.matmul(_parseval(grid.dim, grid.points_per_axis)[0], e))[..., 0]
        else:
            blocks[p] = np.array([block_lp(grid, c, p) for c in coeffs])
    return np.array([_band_sum(spec, blocks[spec.p]) for spec in specs])


# -- time-sampled series ----------------------------------------------------


@dataclass
class NormSeries:
    """Per-band L^p norms sampled on an increasing time grid.

    `values[i, q]` is the band-q L^p norm at `times[i]`.
    """

    times: np.ndarray
    values: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.values.shape[0] != self.times.size:
            raise ValueError("times and values are inconsistent")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("per-band norms must be nonnegative")

    def besov_at(self, i: int, spec: BesovSpec) -> float:
        _check_series_p(self, spec)
        return float(_band_sum(spec, self.values[i]))


def _check_series_p(series: NormSeries, spec):
    """A series holds L^p block norms for its own p; a spec with another
    block exponent cannot be evaluated from it."""
    if spec.p != series.p:
        raise ValueError(f"spec block exponent p = {spec.p:g} does not match "
                         f"the series' p = {series.p:g}")


def norm_series(grid: GridSpec, times, coeffs_per_time, p: float = 2.0) -> NormSeries:
    """Build a NormSeries by decomposing the coefficients at each time: an
    iterable of coefficient arrays, or one array whose first axis is time."""
    rows = [block_lp(grid, u, p) for u in coeffs_per_time]
    return NormSeries(np.asarray(times, dtype=float), np.vstack(rows), p)


def _time_lk(values: np.ndarray, times: np.ndarray, k: float):
    """L^k in time along the first axis: trapezoid quadrature of
    values^k, or the supremum over samples for k = inf."""
    if k == INF:
        return values.max(axis=0)
    return np.trapezoid(values ** k, times, axis=0) ** (1.0 / k)


def _slice_to(series: NormSeries, T: float) -> tuple[np.ndarray, np.ndarray]:
    if T > series.times[-1] + 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"T={T} lies beyond the last sample t={series.times[-1]}")
    keep = series.times <= T + 1e-12 * max(1.0, abs(T))
    return series.times[keep], series.values[keep]


def chemin_lerner_norm(series: NormSeries, k: float, spec: BesovSpec, T: float) -> float:
    """Time-inside-the-dyadic-sum norm.

    Per band: L^k over [0, T] of t -> ||band(t)||_p (see `_time_lk`),
    then the spec's weighted band sum of the results.
    """
    _check_exponent("k", k)
    _check_series_p(series, spec)
    times, values = _slice_to(series, T)
    return float(_band_sum(spec, _time_lk(values, times, k)))


def lebesgue_time_norm(series: NormSeries, k: float, spec: BesovSpec | HybridSpec,
                       T: float) -> float:
    """Time-outside norm: L^k over [0, T] of the instantaneous dyadic norm,
    hybrid for a HybridSpec (whose series must be p = 2)."""
    _check_exponent("k", k)
    _check_series_p(series, spec)
    times, values = _slice_to(series, T)
    return float(_time_lk(_band_sum(spec, values), times, k))
