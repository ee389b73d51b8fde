"""Reproducible random band-limited fields for ensembles and initial data.

Coefficients come from transforming real white noise (so Hermitian
symmetry is exact), then shaping with a radial envelope |k|^-decay and a
band cutoff.  Fields are mean-zero and normalized to unit L2 norm.
"""

from __future__ import annotations

import numpy as np

from .paley import retained_radius
from .spectral import GridSpec, SpectralField, grid_wavenumbers, leray_project


def random_scalar(grid: GridSpec, rng: np.random.Generator, *,
                  radius: float | None = None, radius_lo: float = 0.5,
                  decay: float = 1.0) -> SpectralField:
    """Unit-L2 mean-zero random field supported in radius_lo < |k| <= radius;
    the default radius is the one fully covered by the dyadic ladder."""
    radius = radius if radius is not None else retained_radius(grid)
    kmag = grid_wavenumbers(grid)["kmag"]
    noise = rng.standard_normal(grid.shape)
    coeffs = np.fft.fftn(noise) / grid.points_per_axis ** grid.dim
    keep = (kmag > radius_lo) & (kmag <= radius)
    envelope = np.where(keep, np.where(kmag > 0, kmag, 1.0) ** (-decay), 0.0)
    coeffs = coeffs * envelope
    scale = np.sqrt(np.sum(np.abs(coeffs) ** 2)) * (2 * np.pi) ** (grid.dim / 2.0)
    if scale == 0.0:
        raise ValueError("empty spectral band requested")
    return SpectralField(grid, coeffs / scale)


def random_vector(grid: GridSpec, rng: np.random.Generator, *,
                  radius: float | None = None, radius_lo: float = 0.5,
                  decay: float = 1.0) -> list[SpectralField]:
    return [random_scalar(grid, rng, radius=radius, radius_lo=radius_lo, decay=decay)
            for _ in range(grid.dim)]


def random_solenoidal(grid: GridSpec, rng: np.random.Generator, *,
                      radius: float | None = None, radius_lo: float = 0.5,
                      decay: float = 1.0) -> list[SpectralField]:
    """Divergence-free unit-scale random vector field supported in
    radius_lo < |k| <= radius."""
    fields = leray_project(random_vector(grid, rng, radius=radius,
                                         radius_lo=radius_lo, decay=decay))
    scale = np.sqrt(sum(np.sum(np.abs(f.coeffs) ** 2) for f in fields)) \
        * (2 * np.pi) ** (grid.dim / 2.0)
    return [SpectralField(grid, f.coeffs / scale) for f in fields]
