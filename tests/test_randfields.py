"""Stacked random draws against one draw at a time and against the
per-field construction written out here (rfftn of the noise, envelope,
unit L2 norm)."""

import numpy as np
import pytest

from besovlab.paley import retained_radius
from besovlab.randfields import random_scalar, random_solenoidal
from besovlab.spectral import TWO_PI, GridSpec, energy, grid_wavenumbers, leray_project

GRIDS = [GridSpec(2, 32), GridSpec(2, 64), GridSpec(3, 16), GridSpec(3, 32)]
# (radius as a fraction of M, radius_lo, decay): the ladder's default,
# below and above M/3, and a band with a nonzero inner radius
BANDS = {"default": (None, 0.5, 1.0), "below_third": (0.2, 0.5, 1.0),
         "above_third": (0.45, 0.5, 0.0), "annulus": (0.2, 2.5, 2.0)}


def band(grid, name):
    radius, lo, decay = BANDS[name]
    return {"radius": None if radius is None else radius * grid.points_per_axis,
            "radius_lo": lo, "decay": decay}


def one_draw(grid, rng, radius=None, radius_lo=0.5, decay=1.0):
    """One field the per-field way: numpy's rfftn of the noise, times the
    envelope, scaled to unit L2 norm."""
    radius = retained_radius(grid) if radius is None else radius
    kmag = grid_wavenumbers(grid)["kmag"]
    keep = (kmag > radius_lo) & (kmag <= radius)
    envelope = np.where(keep, np.where(kmag > 0, kmag, 1.0) ** (-decay), 0.0)
    coeffs = np.fft.rfftn(rng.standard_normal(grid.shape), norm="forward") * envelope
    return coeffs / np.sqrt(TWO_PI ** grid.dim * energy(coeffs))


@pytest.mark.parametrize("name", list(BANDS))
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d_m{g.points_per_axis}")
def test_stack_equals_draws_in_turn(grid, name):
    kwargs = band(grid, name)
    stacked = random_scalar(grid, np.random.default_rng(3), shape=(5,), **kwargs)
    rng = np.random.default_rng(3)
    in_turn = np.stack([random_scalar(grid, rng, **kwargs) for _ in range(5)])
    assert stacked.shape == (5,) + grid.coeff_shape
    assert stacked.tobytes() == in_turn.tobytes()
    rng = np.random.default_rng(3)
    # the pruned passes leave +0.0 where the full ones left -0.0 times the
    # envelope's zeros: equal values, not equal bytes
    assert np.array_equal(stacked, np.stack([one_draw(grid, rng, **kwargs) for _ in range(5)]))


@pytest.mark.parametrize("grid", GRIDS[:3], ids=lambda g: f"{g.dim}d_m{g.points_per_axis}")
def test_leading_shape_of_pairs(grid):
    """A (chunk, 2) draw is the pairs (u, v) drawn in turn."""
    pairs = random_scalar(grid, np.random.default_rng(8), radius=5.0, shape=(3, 2))
    rng = np.random.default_rng(8)
    want = [[one_draw(grid, rng, radius=5.0) for _ in range(2)] for _ in range(3)]
    assert np.array_equal(pairs, np.array(want))


@pytest.mark.parametrize("name", list(BANDS))
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d_m{g.points_per_axis}")
def test_solenoidal_equals_component_loop(grid, name):
    kwargs = band(grid, name)
    got = random_solenoidal(grid, np.random.default_rng(4), **kwargs)
    rng = np.random.default_rng(4)
    draws = np.stack([one_draw(grid, rng, **kwargs) for _ in range(grid.dim)])
    want = leray_project(grid, draws)
    want = want / np.sqrt(TWO_PI ** grid.dim * energy(want))
    assert np.array_equal(got, want)
    assert np.max(np.abs(np.einsum("a...,a...->...", grid_wavenumbers(grid)["ik"], got))) \
        <= 1e-14 * np.max(np.abs(got))


@pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
def test_empty_band_raises(shape):
    grid = GridSpec(2, 32)
    with pytest.raises(ValueError, match="empty spectral band requested"):
        random_scalar(grid, np.random.default_rng(0), radius=2.0, radius_lo=3.0, shape=shape)
    with pytest.raises(ValueError, match="empty spectral band requested"):
        random_solenoidal(grid, np.random.default_rng(0), radius=0.5)
