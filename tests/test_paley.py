import numpy as np
import pytest

from besovlab.paley import (
    PartitionProfile,
    block_multipliers,
    coverage,
    default_profile,
    dyadic_decompose,
    low_freq_cutoff,
    retained_mask,
    retained_radius,
)
from besovlab.randfields import random_scalar
from besovlab.spectral import (
    derivative,
    forward_transform,
    grid_wavenumbers,
    zero_field,
)

from conftest import field_of


class TestPartitionProfile:
    def test_supported_in_shell(self):
        prof = default_profile()
        rho = np.array([0.0, 0.5, 0.74, 8 / 3 + 1e-9, 5.0, 100.0])
        assert np.all(prof.value(rho) == 0.0)
        assert np.all(prof.value(np.array([1.0, 1.5, 2.0])) > 0.0)

    def test_partition_of_unity_on_grid(self, grid2_64):
        kmag = grid_wavenumbers(grid2_64)["kmag"]
        rho = kmag[kmag > 0]
        prof = default_profile()
        total = np.zeros_like(rho)
        for q in range(-10, 12):
            total += prof.value(np.exp2(-q) * rho)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_partition_of_unity_dense_radii(self):
        prof = PartitionProfile()
        rho = np.geomspace(1e-3, 1e3, 4001)
        total = np.zeros_like(rho)
        for q in range(-16, 18):
            total += prof.value(np.exp2(-q) * rho)
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
        blocks = dyadic_decompose(u)
        active = [q for q, b in enumerate(blocks.blocks)
                  if np.max(np.abs(b.coeffs)) > 1e-14]
        assert active == [0, 1]
        total = sum(b.coeffs[2, 0].real for b in blocks.blocks)
        assert total == pytest.approx(0.5, rel=1e-12)

    def test_reconstruction(self, grid2_64):
        rng = np.random.default_rng(6)
        u = random_scalar(grid2_64, rng)  # supported on the retained band
        blocks = dyadic_decompose(u)
        defect = blocks.reconstruct().coeffs - u.coeffs
        assert np.max(np.abs(defect)) < 1e-10 * np.max(np.abs(u.coeffs))

    def test_reconstruction_keeps_mean(self, grid2_64):
        u = forward_transform(grid2_64, np.full(grid2_64.shape, 1.5))
        blocks = dyadic_decompose(u)
        assert blocks.mean == pytest.approx(1.5)
        assert blocks.reconstruct().coeffs[0, 0] == pytest.approx(1.5)

    def test_low_freq_cutoff(self, grid2_64):
        rng = np.random.default_rng(7)
        u = random_scalar(grid2_64, rng)
        u.coeffs[0, 0] = 0.7
        blocks = dyadic_decompose(u)
        for q in range(blocks.q_max + 2):
            sq = low_freq_cutoff(u, q)
            expect = zero_field(grid2_64).coeffs
            for j in range(min(q, blocks.q_max + 1)):
                expect = expect + blocks.blocks[j].coeffs
            expect[0, 0] = 0.7
            assert np.max(np.abs(sq.coeffs - expect)) < 1e-13

    def test_multipliers_commute_with_derivative(self, grid2_64):
        rng = np.random.default_rng(8)
        u = random_scalar(grid2_64, rng)
        left = dyadic_decompose(derivative(u, 0)).blocks[1]
        right = derivative(dyadic_decompose(u).blocks[1], 0)
        assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-15

    def test_retained_band(self, grid2_64):
        assert retained_radius(grid2_64) == pytest.approx(12.0)
        kmag = grid_wavenumbers(grid2_64)["kmag"]
        cov = coverage(grid2_64)
        inside = (kmag > 0) & (kmag <= 12.0)
        assert np.max(np.abs(cov[inside] - 1.0)) < 1e-12
        mask = retained_mask(grid2_64)
        assert np.array_equal(mask, inside)

    def test_multiplier_cache_identity(self, grid2_64):
        assert block_multipliers(grid2_64) is block_multipliers(grid2_64)

    def test_grid3_decomposition(self, grid3_16):
        rng = np.random.default_rng(9)
        u = random_scalar(grid3_16, rng)
        blocks = dyadic_decompose(u)
        assert blocks.q_max == grid3_16.q_max == 1
        defect = blocks.reconstruct().coeffs - u.coeffs
        assert np.max(np.abs(defect)) < 1e-10
