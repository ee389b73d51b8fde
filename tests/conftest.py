import numpy as np
import pytest

from besovlab.spectral import GridSpec, forward_transform, product, samples


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


def full_spectrum(grid, half):
    """The coefficients of every mode k, shape (..., M, ..., M), of stacked
    coefficients that hold k_last >= 0: k_last < 0 is filled from
    c(k) = conj(c(-k)).  An oracle for numpy's complex transforms."""
    m = grid.points_per_axis
    full = np.empty(half.shape[:-1] + (m,), dtype=np.complex128)
    full[..., :m // 2 + 1] = half
    minus = np.ix_(*[-np.arange(m) % m] * (grid.dim - 1), m - np.arange(m // 2 + 1, m))
    full[..., m // 2 + 1:] = half[(Ellipsis,) + minus].conj()
    return full


def full_spectrum_norm(grid, f):
    """sqrt(sum |c_k|^2) over every mode k of a scalar field, from numpy's
    complex transform of its samples."""
    return np.sqrt(np.sum(np.abs(np.fft.fftn(samples(grid, f), norm="forward")) ** 2))


def l2_of_samples(grid, samples):
    return float(np.sqrt(np.sum(samples ** 2) * grid.cell_volume))


def field_product(grid, f, g):
    """`product` of the coefficients f and g (stacks of one shape multiply
    component by component), as coefficients."""
    return product(grid, f, samples(grid, g))
