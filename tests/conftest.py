import numpy as np
import pytest

from besovlab.spectral import GridSpec, SpectralField, forward_transform


@pytest.fixture(scope="session")
def grid2_32():
    return GridSpec(2, 32)


@pytest.fixture(scope="session")
def grid2_64():
    return GridSpec(2, 64)


@pytest.fixture(scope="session")
def grid3_16():
    return GridSpec(3, 16)


def field_of(grid, fn):
    return forward_transform(grid, fn(*grid.meshgrid()))


def l2_of_samples(grid, samples):
    return float(np.sqrt(np.sum(samples ** 2) * grid.cell_volume))


def stack(fields):
    """One stacked field from a list (or a list of lists) of fields on one
    grid."""
    parts = [f if isinstance(f, SpectralField) else stack(f) for f in fields]
    return SpectralField(parts[0].grid, np.stack([f.coeffs for f in parts]))
