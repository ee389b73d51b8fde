import numpy as np
import pytest

from besovlab.paley import block_multipliers, profile, retained_mask, retained_radius
from besovlab.randfields import random_scalar
from besovlab.spectral import gradient, grid_wavenumbers

from conftest import field_of


def reconstruct(grid, u):
    """The sum of the dyadic blocks of the coefficients `u` plus its mean."""
    out = (u * block_multipliers(grid)).sum(axis=0)
    out[(0,) * grid.dim] += u[(0,) * grid.dim].real
    return out


class TestPartitionProfile:
    def test_supported_in_shell(self):
        rho = np.array([0.0, 0.5, 0.74, 8 / 3 + 1e-9, 5.0, 100.0])
        assert np.all(profile(rho) == 0.0)
        assert np.all(profile(np.array([1.0, 1.5, 2.0])) > 0.0)

    def test_partition_of_unity_on_grid(self, grid2_64):
        kmag = grid_wavenumbers(grid2_64)["kmag"]
        rho = kmag[kmag > 0]
        total = np.zeros_like(rho)
        for q in range(-10, 12):
            total += profile(np.exp2(-q) * rho)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_partition_of_unity_dense_radii(self):
        rho = np.geomspace(1e-3, 1e3, 4001)
        total = np.zeros_like(rho)
        for q in range(-16, 18):
            total += profile(np.exp2(-q) * rho)
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestDyadicBlocks:
    def test_support_discipline(self, grid2_64):
        stack = block_multipliers(grid2_64)
        kmag = grid_wavenumbers(grid2_64)["kmag"]
        for q in range(stack.shape[0]):
            outside = (kmag < 0.75 * 2 ** q - 1e-12) | (kmag > 8 / 3 * 2 ** q + 1e-12)
            if q == 0:
                # band 0 absorbs the low tail; on integer radii it still
                # sits inside [3/4, 8/3]
                outside = (kmag < 0.999) | (kmag > 8 / 3 + 1e-12)
            assert np.max(np.abs(stack[q] * outside)) == 0.0

    def test_near_orthogonality(self, grid2_64):
        stack = block_multipliers(grid2_64)
        for q in range(stack.shape[0]):
            for k in range(stack.shape[0]):
                overlap = np.max(stack[q] * stack[k])
                if abs(q - k) >= 2:
                    assert overlap == 0.0

    def test_second_harmonic_blocks(self, grid2_64):
        # radius 2 meets only the shells of bands 0 and 1
        u = field_of(grid2_64, lambda x, y: np.cos(2 * x))
        blocks = u * block_multipliers(grid2_64)
        active = [q for q, b in enumerate(blocks) if np.max(np.abs(b)) > 1e-14]
        assert active == [0, 1]
        total = sum(b[2, 0].real for b in blocks)
        assert total == pytest.approx(0.5, rel=1e-12)

    def test_reconstruction(self, grid2_64):
        rng = np.random.default_rng(6)
        u = random_scalar(grid2_64, rng)  # supported on the retained band
        defect = reconstruct(grid2_64, u) - u
        assert np.max(np.abs(defect)) < 1e-10 * np.max(np.abs(u))

    def test_multipliers_commute_with_derivative(self, grid2_64):
        rng = np.random.default_rng(8)
        u = random_scalar(grid2_64, rng)
        band = block_multipliers(grid2_64)[1]
        left = gradient(grid2_64, u)[..., 0, :, :] * band
        right = gradient(grid2_64, u * band)[..., 0, :, :]
        assert np.max(np.abs(left - right)) < 1e-15

    def test_retained_band(self, grid2_64):
        assert retained_radius(grid2_64) == pytest.approx(12.0)
        kmag = grid_wavenumbers(grid2_64)["kmag"]
        cov = block_multipliers(grid2_64).sum(axis=0)
        inside = (kmag > 0) & (kmag <= 12.0)
        assert np.max(np.abs(cov[inside] - 1.0)) < 1e-12
        mask = retained_mask(grid2_64)
        assert np.array_equal(mask, inside)

    def test_multiplier_cache_identity(self, grid2_64):
        assert block_multipliers(grid2_64) is block_multipliers(grid2_64)

    def test_grid3_decomposition(self, grid3_16):
        rng = np.random.default_rng(9)
        u = random_scalar(grid3_16, rng)
        assert len(block_multipliers(grid3_16)) == grid3_16.q_max + 1 == 2
        defect = reconstruct(grid3_16, u) - u
        assert np.max(np.abs(defect)) < 1e-10
