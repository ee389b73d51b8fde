"""Grid L^p norms, dyadic-sum (Besov-type) norms, their time-integrated
variants, and the hybrid frequency-weighted norm.

Integrability and summation exponents are floats in [1, inf]; infinity
is encoded as Python's IEEE ``math.inf``, never by a magic number.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .paley import PartitionProfile, block_multipliers, retained_mask
from .spectral import SpectralField, inverse_transform

INF = math.inf


def _check_exponent(name: str, value: float):
    if not (value >= 1.0):
        raise ValueError(f"{name} must lie in [1, inf], got {value}")


@dataclass(frozen=True)
class BesovSpec:
    """Smoothness s, integrability p, dyadic summation exponent r."""

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


@dataclass(frozen=True)
class HybridSpec:
    """Dyadic sum with weight max(mu, 2^-q)^(1-2/r) on L2 block norms."""

    s: float
    r: float = INF
    weight: float = 1.0

    def __post_init__(self):
        _check_exponent("r", self.r)
        if not self.weight > 0:
            raise ValueError(f"weight must be positive, got {self.weight}")

    @property
    def name(self) -> str:
        r = "inf" if self.r == INF else f"{self.r:g}"
        return f"Bh^{{{self.s:g},{r}}}_mu={self.weight:g}"


# -- plain grid norms -------------------------------------------------------


def lp_norm(f: SpectralField | np.ndarray, p: float, cell_volume: float | None = None) -> float:
    """Rectangle-rule L^p norm of the physical samples; p = inf is the max."""
    _check_exponent("p", p)
    if isinstance(f, SpectralField):
        samples = inverse_transform(f)
        vol = f.grid.cell_volume
    else:
        samples = np.asarray(f)
        if cell_volume is None:
            raise ValueError("cell_volume required for raw sample arrays")
        vol = cell_volume
    if p == INF:
        return float(np.max(np.abs(samples)))
    return float((np.sum(np.abs(samples) ** p) * vol) ** (1.0 / p))


def _lr_sum(terms: np.ndarray, r: float) -> float:
    if r == INF:
        return float(np.max(terms)) if terms.size else 0.0
    return float(np.sum(terms ** r) ** (1.0 / r))


def _components(u) -> list[SpectralField]:
    """Flatten a field / vector / tensor of fields into components."""
    if isinstance(u, SpectralField):
        return [u]
    out = []
    for item in u:
        out.extend(_components(item))
    return out


def block_lp(u, p: float, profile: PartitionProfile | None = None) -> np.ndarray:
    """Per-band L^p norms of a (possibly multi-component) field.

    Components combine inside each band as an l^p sum, so for p = 2 this
    is the usual L2 norm of the stacked object.
    """
    comps = _components(u)
    grid = comps[0].grid
    stack = block_multipliers(grid, profile)
    nq = stack.shape[0]
    out = np.zeros(nq)
    if p == INF:
        for q in range(nq):
            out[q] = max(
                lp_norm(SpectralField(grid, c.coeffs * stack[q]), INF) for c in comps
            )
        return out
    for q in range(nq):
        acc = 0.0
        for c in comps:
            acc += lp_norm(SpectralField(grid, c.coeffs * stack[q]), p) ** p
        out[q] = acc ** (1.0 / p)
    return out


@dataclass
class NormBreakdown:
    """A dyadic-sum norm with its per-band terms and truncation report."""

    value: float
    qs: np.ndarray
    block_lp: np.ndarray
    weighted: np.ndarray
    outside_energy_fraction: float
    truncation_flag: bool  # > 1% of L2 energy beyond the retained band


def _outside_energy(u, profile) -> float:
    comps = _components(u)
    grid = comps[0].grid
    mask = retained_mask(grid, profile)
    zero = (0,) * grid.dim
    total = 0.0
    outside = 0.0
    for c in comps:
        e = np.abs(c.coeffs) ** 2
        e[zero] = 0.0
        total += float(e.sum())
        outside += float(e[~mask].sum())
    if total == 0.0:
        return 0.0
    return outside / total


def besov_norm(u, spec: BesovSpec, profile: PartitionProfile | None = None) -> NormBreakdown:
    """Dyadic-sum norm: l^r over bands of 2^(qs) * ||band||_p.

    The zero mode is excluded; `u` may be a single field or any nesting
    of fields (vector, tensor), combined per band as in `block_lp`.
    """
    blocks = block_lp(u, spec.p, profile)
    qs = np.arange(blocks.size)
    weighted = np.exp2(qs * spec.s) * blocks
    value = _lr_sum(weighted, spec.r)
    frac = _outside_energy(u, profile)
    return NormBreakdown(value, qs, blocks, weighted, frac, frac > 0.01)


def hybrid_norm(u, spec: HybridSpec, profile: PartitionProfile | None = None) -> NormBreakdown:
    """Sum over bands of 2^(qs) * max(mu, 2^-q)^(1-2/r) * ||band||_L2."""
    blocks = block_lp(u, 2.0, profile)
    qs = np.arange(blocks.size)
    expo = 1.0 if spec.r == INF else 1.0 - 2.0 / spec.r
    weights = np.maximum(spec.weight, np.exp2(-qs.astype(float))) ** expo
    weighted = np.exp2(qs * spec.s) * weights * blocks
    value = float(weighted.sum())
    frac = _outside_energy(u, profile)
    return NormBreakdown(value, qs, blocks, weighted, frac, frac > 0.01)


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

    @property
    def n_bands(self) -> int:
        return self.values.shape[1]

    def besov_at(self, i: int, spec: BesovSpec) -> float:
        qs = np.arange(self.n_bands)
        return _lr_sum(np.exp2(qs * spec.s) * self.values[i], spec.r)


def norm_series(times, fields_per_time, p: float = 2.0,
                profile: PartitionProfile | None = None) -> NormSeries:
    """Build a NormSeries by decomposing each sampled field."""
    rows = [block_lp(u, p, profile) for u in fields_per_time]
    return NormSeries(np.asarray(times, dtype=float), np.vstack(rows), p)


def _slice_to(series: NormSeries, T: float) -> tuple[np.ndarray, np.ndarray]:
    if T > series.times[-1] + 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"T={T} lies beyond the last sample t={series.times[-1]}")
    keep = series.times <= T + 1e-12 * max(1.0, abs(T))
    return series.times[keep], series.values[keep]


def chemin_lerner_norm(series: NormSeries, k: float, spec: BesovSpec, T: float) -> float:
    """Time-inside-the-dyadic-sum norm.

    Per band: trapezoid quadrature of t -> ||band(t)||_p^k over [0, T]
    (supremum over samples for k = inf), then the outer l^r sum of
    2^(qs) weighted results.
    """
    _check_exponent("k", k)
    times, values = _slice_to(series, T)
    qs = np.arange(series.n_bands)
    if k == INF:
        inner = values.max(axis=0)
    else:
        inner = np.trapezoid(values ** k, times, axis=0) ** (1.0 / k)
    return _lr_sum(np.exp2(qs * spec.s) * inner, spec.r)


def lebesgue_time_norm(series: NormSeries, k: float, spec: BesovSpec, T: float) -> float:
    """Time-outside norm: L^k over [0, T] of the instantaneous dyadic norm."""
    _check_exponent("k", k)
    times, values = _slice_to(series, T)
    qs = np.arange(series.n_bands)
    inst = np.array([_lr_sum(np.exp2(qs * spec.s) * row, spec.r) for row in values])
    if k == INF:
        return float(inst.max())
    return float(np.trapezoid(inst ** k, times) ** (1.0 / k))


def hybrid_series_norm(series: NormSeries, k: float, spec: HybridSpec, T: float) -> float:
    """L^k in time of the instantaneous hybrid norm (series must be p=2)."""
    if series.p != 2.0:
        raise ValueError("hybrid norms are L2-based; series must carry p=2")
    times, values = _slice_to(series, T)
    qs = np.arange(series.n_bands)
    expo = 1.0 if spec.r == INF else 1.0 - 2.0 / spec.r
    weights = np.exp2(qs * spec.s) * np.maximum(spec.weight, np.exp2(-qs.astype(float))) ** expo
    inst = values @ weights
    if k == INF:
        return float(inst.max())
    return float(np.trapezoid(inst ** k, times) ** (1.0 / k))


# -- CSV reports ------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_norm_rows(path, rows):
    """Rows: dicts with keys time, norm_name, s, p, r, value."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "norm_name", "s", "p", "r", "value"])
        for row in rows:
            w.writerow([_fmt(row[key]) for key in ("time", "norm_name", "s", "p", "r", "value")])


def write_block_breakdown(path, breakdown: NormBreakdown):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "block_lp", "weighted_term"])
        for q, b, t in zip(breakdown.qs, breakdown.block_lp, breakdown.weighted):
            w.writerow([int(q), _fmt(float(b)), _fmt(float(t))])
