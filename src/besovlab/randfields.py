"""Reproducible random band-limited fields for ensembles and initial data.

Coefficients come from transforming real white noise (so Hermitian
symmetry is exact), then shaping with a radial envelope |k|^-decay and a
band cutoff.  Fields are mean-zero and normalized to unit L2 norm.
"""

from __future__ import annotations

import numpy as np

from .paley import retained_radius
from .spectral import (
    TWO_PI,
    GridSpec,
    SpectralField,
    energy,
    forward_transform,
    grid_wavenumbers,
    stacked_leray,
)


def _unit_l2(grid: GridSpec, coeffs: np.ndarray) -> SpectralField:
    """The field with coefficients `coeffs` scaled to unit L2 norm (over all
    its components)."""
    scale = np.sqrt(TWO_PI ** grid.dim * energy(coeffs))
    if scale == 0.0:
        raise ValueError("empty spectral band requested")
    return SpectralField(grid, coeffs / scale)


def random_scalar(grid: GridSpec, rng: np.random.Generator, *,
                  radius: float | None = None, radius_lo: float = 0.5,
                  decay: float = 1.0) -> SpectralField:
    """Unit-L2 mean-zero random field supported in radius_lo < |k| <= radius;
    the default radius is the one fully covered by the dyadic ladder."""
    radius = radius if radius is not None else retained_radius(grid)
    kmag = grid_wavenumbers(grid)["kmag"]
    noise = rng.standard_normal(grid.shape)
    coeffs = forward_transform(grid, noise).coeffs
    keep = (kmag > radius_lo) & (kmag <= radius)
    envelope = np.where(keep, np.where(kmag > 0, kmag, 1.0) ** (-decay), 0.0)
    return _unit_l2(grid, coeffs * envelope)


def random_solenoidal(grid: GridSpec, rng: np.random.Generator, *,
                      radius: float | None = None, radius_lo: float = 0.5,
                      decay: float = 1.0) -> SpectralField:
    """Divergence-free unit-scale random vector field (dim, *grid)
    supported in radius_lo < |k| <= radius: the Leray projection of `dim`
    independent `random_scalar` draws."""
    draws = np.stack([random_scalar(grid, rng, radius=radius, radius_lo=radius_lo,
                                    decay=decay).coeffs for _ in range(grid.dim)])
    return _unit_l2(grid, stacked_leray(grid, draws))
