"""Reproducible random band-limited fields for ensembles and initial data.

Coefficients come from transforming real white noise (so Hermitian
symmetry is exact), then shaping with a radial envelope |k|^-decay and a
band cutoff.  Fields are mean-zero and normalized to unit L2 norm.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .paley import retained_radius
from .spectral import (
    TWO_PI,
    GridSpec,
    energy,
    grid_wavenumbers,
    leray_project,
)


def _unit_l2(grid: GridSpec, coeffs: np.ndarray, lead: int = 0) -> np.ndarray:
    """`coeffs` with each of its fields over the first `lead` axes scaled
    to unit L2 norm (over all its components)."""
    axes = tuple(range(lead, coeffs.ndim))
    scale = np.sqrt(TWO_PI ** grid.dim * energy(coeffs, axis=axes))
    if np.any(scale == 0.0):
        raise ValueError("empty spectral band requested")
    return coeffs / np.expand_dims(scale, axes)


@lru_cache(maxsize=32)
def _envelope(grid: GridSpec, radius: float, radius_lo: float,
              decay: float) -> tuple[np.ndarray, int]:
    """|k|^-decay on radius_lo < |k| <= radius, zero elsewhere, and the
    number of k_last columns it populates (at least one)."""
    kmag = grid_wavenumbers(grid)["kmag"]
    keep = (kmag > radius_lo) & (kmag <= radius)
    envelope = np.where(keep, np.where(kmag > 0, kmag, 1.0) ** (-decay), 0.0)
    columns = np.flatnonzero(keep.any(axis=tuple(range(grid.dim - 1))))
    return envelope, int(columns.max(initial=0)) + 1


def random_scalar(grid: GridSpec, rng: np.random.Generator, *,
                  radius: float | None = None, radius_lo: float = 0.5,
                  decay: float = 1.0, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Coefficients of a unit-L2 mean-zero random field supported in
    radius_lo < |k| <= radius (by default the radius the dyadic ladder
    fully covers), or a stack of `shape` of them: one `standard_normal`
    call, which fills them in order, so bitwise as many draws in turn.
    The passes along the wraparound axes run on the columns the envelope
    populates: `rfftn`'s, column by column."""
    radius = radius if radius is not None else retained_radius(grid)
    envelope, width = _envelope(grid, radius, radius_lo, decay)
    coeffs = np.fft.rfft(rng.standard_normal(tuple(shape) + grid.shape), axis=-1, norm="forward")
    kept = coeffs[..., :width]
    for ax in range(-2, -grid.dim - 1, -1):
        np.fft.fft(kept, axis=ax, norm="forward", out=kept)
    kept *= envelope[..., :width]
    coeffs[..., width:] = 0.0
    return _unit_l2(grid, coeffs, len(shape))


def random_solenoidal(grid: GridSpec, rng: np.random.Generator, *,
                      radius: float | None = None, radius_lo: float = 0.5,
                      decay: float = 1.0) -> np.ndarray:
    """Coefficients (dim, *grid) of a divergence-free unit-scale random
    vector field supported in radius_lo < |k| <= radius: the Leray
    projection of `dim` independent `random_scalar` draws."""
    draws = random_scalar(grid, rng, radius=radius, radius_lo=radius_lo, decay=decay,
                          shape=(grid.dim,))
    return _unit_l2(grid, leray_project(grid, draws))
