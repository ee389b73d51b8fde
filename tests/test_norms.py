import math

import numpy as np
import pytest

from besovlab.cli import NORM_COLUMNS, _write_csv
from besovlab.norms import (
    INF,
    BesovSpec,
    HybridSpec,
    NormSeries,
    besov_norm,
    block_lp,
    chemin_lerner_norm,
    ensemble_norms,
    lebesgue_time_norm,
    l2_norm,
    lp_norm,
    norm_series,
    stacked_lp,
)
from besovlab.paley import block_multipliers, retained_mask
from besovlab.randfields import random_scalar, random_solenoidal
from besovlab.spectral import GridError, GridSpec, forward_transform, gradient, samples

from conftest import field_of, field_product, l2_of_samples


class TestLpNorm:
    def test_constant_two_dim(self, grid2_32):
        one = forward_transform(grid2_32, np.ones(grid2_32.shape))
        # ((2 pi)^2 * 1)^(1/2)
        assert lp_norm(grid2_32, one, 2) == pytest.approx(2 * np.pi, rel=1e-13)

    def test_zero_field(self, grid2_32):
        for p in (1, 2, 3.5, INF):
            assert lp_norm(grid2_32, np.zeros(grid2_32.coeff_shape, complex), p) == 0.0

    def test_cosine_sup(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(x))
        assert lp_norm(grid2_32, f, INF) == pytest.approx(1.0, rel=1e-13)

    def test_invalid_exponent(self, grid2_32):
        with pytest.raises(ValueError):
            lp_norm(grid2_32, np.zeros(grid2_32.coeff_shape, complex), 0.5)


class TestBesovNorm:
    def test_zero_field(self, grid2_32):
        out = besov_norm(grid2_32, np.zeros(grid2_32.coeff_shape, complex),
                         BesovSpec(1.0, 2.0, 1.0))
        assert out.value == 0.0

    def test_unit_mode_frozen_value(self, grid2_64):
        # cos(x) occupies band 0 with full partition weight; its L2 norm
        # over the 2-torus is pi * sqrt(2), independently of s
        f = field_of(grid2_64, lambda x, y: np.cos(x))
        for s in (0.0, 1.0, -0.5):
            out = besov_norm(grid2_64, f, BesovSpec(s, 2.0, 1.0))
            assert out.value == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)

    def test_weak_sum_dominated(self, grid2_64):
        rng = np.random.default_rng(10)
        u = random_scalar(grid2_64, rng)
        strong = besov_norm(grid2_64, u, BesovSpec(0.5, 2.0, 1.0)).value
        weak = besov_norm(grid2_64, u, BesovSpec(0.5, 2.0, INF)).value
        assert weak <= strong + 1e-15

    def test_homogeneity(self, grid2_64):
        rng = np.random.default_rng(11)
        u = random_scalar(grid2_64, rng)
        spec = BesovSpec(1.0, 2.0, 1.0)
        base = besov_norm(grid2_64, u, spec).value
        for c in (-3.0, 0.25, 7.5):
            assert besov_norm(grid2_64, c * u, spec).value == pytest.approx(
                abs(c) * base, rel=1e-12)

    def test_triangle_inequality(self, grid2_64):
        rng = np.random.default_rng(12)
        spec = BesovSpec(1.0, 2.0, 1.0)
        for _ in range(25):
            u = random_scalar(grid2_64, rng)
            v = random_scalar(grid2_64, rng)
            lhs = besov_norm(grid2_64, u + v, spec).value
            rhs = besov_norm(grid2_64, u, spec).value + besov_norm(grid2_64, v, spec).value
            assert lhs <= rhs * (1 + 1e-12)

    def test_gradient_bracket(self, grid2_64):
        # each mode of band q carries |k| in [3/4, 8/3] * 2^q, so for p=2
        # the gradient-to-field ratio of dyadic norms sits in that shell
        rng = np.random.default_rng(13)
        for s in (0.0, 1.0):
            for _ in range(10):
                u = random_scalar(grid2_64, rng)
                hi = besov_norm(grid2_64, u, BesovSpec(s, 2.0, 1.0)).value
                lo = besov_norm(grid2_64, gradient(grid2_64, u),
                                BesovSpec(s - 1.0, 2.0, 1.0)).value
                assert 0.75 - 1e-9 <= lo / hi <= 8.0 / 3.0 + 1e-9

    def test_mean_excluded(self, grid2_32):
        f = forward_transform(grid2_32, np.full(grid2_32.shape, 5.0))
        assert besov_norm(grid2_32, f, BesovSpec(1.0)).value == 0.0

    def test_truncation_flag(self, grid2_64):
        inside = field_of(grid2_64, lambda x, y: np.cos(3 * x))
        outside = field_of(grid2_64, lambda x, y: np.cos(20 * x))
        assert not besov_norm(grid2_64, inside, BesovSpec(0.0)).truncation_flag
        rep = besov_norm(grid2_64, inside + outside, BesovSpec(0.0))
        assert rep.truncation_flag
        assert rep.outside_energy_fraction == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("amplitude, fraction", [(0.5, 0.2), (0.05, 0.0025 / 1.0025)],
                             ids=["flagged", "below_1pct"])
    def test_truncation_of_vector_components(self, grid2_64, amplitude, fraction):
        # one component inside the retained radius (12 at M 64), one outside:
        # |c|^2 sums to 1/2 and amplitude^2 / 2, so fraction = a^2 / (1 + a^2)
        inside = field_of(grid2_64, lambda x, y: np.cos(3 * x))
        outside = field_of(grid2_64, lambda x, y: amplitude * np.cos(20 * y))
        rep = besov_norm(grid2_64, np.stack([inside, outside]), BesovSpec(0.0))
        assert rep.outside_energy_fraction == pytest.approx(fraction, rel=1e-12)
        assert rep.truncation_flag == (fraction > 0.01)
        np.testing.assert_allclose(rep.block_lp,
                                   block_lp(grid2_64, np.stack([inside, outside]), 2.0),
                                   rtol=1e-15, atol=0)

    def test_vector_combination(self, grid2_64):
        f = field_of(grid2_64, lambda x, y: np.cos(2 * x))
        zero = np.zeros(grid2_64.coeff_shape, complex)
        single = block_lp(grid2_64, f, 2.0)
        stacked = block_lp(grid2_64, np.stack([f, zero]), 2.0)
        assert np.allclose(single, stacked)
        both = block_lp(grid2_64, np.stack([f, f]), 2.0)
        assert np.allclose(both, math.sqrt(2.0) * single)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BesovSpec(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            BesovSpec(1.0, 2.0, 0.0)


class TestShapeCheck:
    """Every norm that takes coefficients refuses an array whose last axes
    are not the grid's coefficient shape, naming both shapes: reshaped over
    `grid.coeff_shape`, np.ones((2, 16, 17)) on a 32-grid read as one
    scalar field with a B^1_{2,1} norm of 355.4."""

    @pytest.mark.parametrize("norm", [
        lambda g, c: besov_norm(g, c, BesovSpec(1.0)),
        lambda g, c: block_lp(g, c, 2.0),
        lambda g, c: lp_norm(g, c, 2.0),
        lambda g, c: l2_norm(g, c),
        lambda g, c: stacked_lp(g, c, 2.0),
        lambda g, c: ensemble_norms(g, c[None], BesovSpec(1.0)),
        lambda g, c: norm_series(g, [0.0], [c]),
    ], ids=["besov_norm", "block_lp", "lp_norm", "l2_norm", "stacked_lp", "ensemble_norms",
            "norm_series"])
    def test_wrong_shape_raises(self, grid2_32, norm):
        with pytest.raises(GridError, match=r"2, 16, 17\).*\(32, 17\)"):
            norm(grid2_32, np.ones((2, 16, 17), complex))


class TestBlockLpReduction:
    # |k| = sqrt(8) lies in (8/3, 3), a pure band-1 radius
    def band_one(self, grid):
        return field_of(grid, lambda x, y: np.cos(2 * x + 2 * y))

    def test_single_band_sup_and_l1(self, grid2_64):
        f = self.band_one(grid2_64)
        np.testing.assert_allclose(block_lp(grid2_64, f, INF), [0.0, 1.0, 0.0, 0.0],
                                   rtol=0, atol=1e-12)
        # rectangle rule on the 64^2 grid: f samples cos(pi m / 16), period 32 in m
        want = 4 * np.pi ** 2 * np.mean(np.abs(np.cos(np.pi * np.arange(32) / 16)))
        assert want == pytest.approx(25.0519, abs=1e-4)
        assert block_lp(grid2_64, f, 1.0)[1] == pytest.approx(want, rel=1e-12)

    def test_vector_components_combine(self, grid2_64):
        f = self.band_one(grid2_64)
        vec = np.stack([f, 2.0 * f])
        np.testing.assert_allclose(block_lp(grid2_64, vec, INF), [0.0, 2.0, 0.0, 0.0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(block_lp(grid2_64, vec, 1.0), 3.0 * block_lp(grid2_64, f, 1.0),
                                   rtol=1e-12, atol=1e-12)


def _sampled_l2_blocks(grid, u):
    """Per-band L2 norms from sampled bands: the rectangle rule of `lp_norm`
    on each band of the coefficients u, over all their components."""
    return np.array([lp_norm(grid, u * band, 2.0) for band in block_multipliers(grid)])


def _parseval_cases():
    """name -> (grid, coefficients)."""
    rng = np.random.default_rng(17)
    cases = {}
    for m in (32, 64):
        grid = GridSpec(2, m)
        u, v = random_scalar(grid, rng), random_scalar(grid, rng)
        cases[f"scalar_2d_m{m}"] = grid, u
        cases[f"product_2d_m{m}"] = grid, field_product(grid, u, v)
    cases["solenoidal_2d_m64"] = GridSpec(2, 64), random_solenoidal(GridSpec(2, 64), rng)
    grid = GridSpec(3, 16)
    w = random_solenoidal(grid, rng)
    cases["tensor_3d_m16"] = grid, np.stack([[gradient(grid, w[i])[..., j, :, :, :]
                                              for j in range(3)] for i in range(3)])
    # every mode populated, the k_last = M/2 plane too
    for dim, m in ((2, 32), (3, 16)):
        grid = GridSpec(dim, m)
        cases[f"white_noise_{dim}d_m{m}"] = grid, forward_transform(
            grid, rng.standard_normal(grid.shape))
    return cases


PARSEVAL_CASES = _parseval_cases()


class TestParsevalBlocks:
    """For p = 2, `block_lp`, `stacked_lp` and the truncation fraction sum
    |c_k|^2 over the k_last >= 0 half without a transform, each mode off the
    k_last = 0 and M/2 planes counted twice; they must equal the sampled
    rectangle rule."""

    @pytest.mark.parametrize("name", sorted(PARSEVAL_CASES))
    def test_matches_sampled_bands(self, name):
        grid, u = PARSEVAL_CASES[name]
        want = _sampled_l2_blocks(grid, u)
        assert want.max() > 0
        np.testing.assert_allclose(block_lp(grid, u, 2.0), want, rtol=0, atol=1e-14 * want.max())

    @pytest.mark.parametrize("name", sorted(PARSEVAL_CASES))
    def test_stacked_lp_matches_samples(self, name):
        grid, u = PARSEVAL_CASES[name]
        coeffs = u.reshape((-1,) + grid.coeff_shape)
        want = [l2_of_samples(grid, samples(grid, c)) for c in coeffs]
        np.testing.assert_allclose(stacked_lp(grid, coeffs, 2.0), want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("name", sorted(PARSEVAL_CASES))
    def test_outside_fraction_matches_samples(self, name):
        """The energy beyond the retained radius over the energy of the
        mean-free field, both sampled."""
        grid, u = PARSEVAL_CASES[name]
        zero = (Ellipsis,) + (0,) * grid.dim
        outside, mean_free = u * ~retained_mask(grid), u.copy()
        outside[zero] = mean_free[zero] = 0.0
        want = l2_of_samples(grid, samples(grid, outside)) ** 2 \
            / l2_of_samples(grid, samples(grid, mean_free)) ** 2
        got = besov_norm(grid, u, BesovSpec(0.0)).outside_energy_fraction
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", sorted(PARSEVAL_CASES))
def test_ensemble_norms_equal_per_draw(name):
    """`ensemble_norms` of a stack of draws (each a field of the case's
    shape) is `besov_norm` of each draw, bitwise, for every block exponent."""
    grid, u = PARSEVAL_CASES[name]
    draws = np.stack([u, -2.5 * u, np.roll(u, 1, axis=-2)])
    specs = [BesovSpec(1.0, 2.0, 1.0), BesovSpec(-0.5, 2.0, INF), BesovSpec(0.5, 1.0, 2.0),
             HybridSpec(1.0, INF, 0.3), BesovSpec(0.0, INF, 1.0)]
    want = [[besov_norm(grid, d, spec).value for d in draws] for spec in specs]
    assert np.array_equal(ensemble_norms(grid, draws, *specs), want)


class TestRescaleCriticality:
    def test_per_block_shift(self, grid2_64):
        # content above the absorbed octave shifts by exactly one band
        from besovlab.spectral import rescale

        rng = np.random.default_rng(14)
        u = random_scalar(grid2_64, rng, radius=6.0, radius_lo=1.4)
        before = block_lp(grid2_64, u, 2.0)
        after = block_lp(grid2_64, rescale(grid2_64, u, 1), 2.0)
        assert np.allclose(after[1:], before[:-1], rtol=1e-12, atol=1e-15)
        assert after[0] == pytest.approx(0.0, abs=1e-13)


class TestCheminLerner:
    def test_constant_series(self, grid2_64):
        f = field_of(grid2_64, lambda x, y: np.cos(2 * x) + np.sin(5 * y))
        times = np.linspace(0.0, 2.0, 21)
        series = norm_series(grid2_64, times, [f] * 21)
        spec = BesovSpec(1.0, 2.0, 1.0)
        want = 2.0 * besov_norm(grid2_64, f, spec).value
        assert chemin_lerner_norm(series, 1.0, spec, 2.0) == pytest.approx(
            want, rel=1e-12)

    def test_sup_in_time(self, grid2_64):
        f = field_of(grid2_64, lambda x, y: np.cos(2 * x))
        times = np.linspace(0.0, 1.0, 11)
        scaled = [float(1.0 + np.sin(3 * t)) * f for t in times]
        series = norm_series(grid2_64, times, scaled)
        spec = BesovSpec(0.5, 2.0, 1.0)
        want = max((1.0 + np.sin(3 * t)) for t in times) * besov_norm(grid2_64, f, spec).value
        assert chemin_lerner_norm(series, INF, spec, 1.0) == pytest.approx(
            want, rel=1e-12)

    def test_minkowski_ordering(self, grid2_64):
        rng = np.random.default_rng(15)
        times = np.linspace(0.0, 1.0, 33)
        fields = []
        base = [random_scalar(grid2_64, rng) for _ in range(3)]
        for t in times:
            w = [1 + 0.5 * np.sin(2 * np.pi * t + i) for i in range(3)]
            fields.append(w[0] * base[0] + w[1] * base[1] + w[2] * base[2])
        series = norm_series(grid2_64, times, fields)
        for k, r in ((1.0, 2.0), (1.0, INF)):
            spec = BesovSpec(0.5, 2.0, r)
            assert chemin_lerner_norm(series, k, spec, 1.0) <= \
                lebesgue_time_norm(series, k, spec, 1.0) * (1 + 1e-10)
        for k, r in ((2.0, 1.0), (INF, 1.0)):
            spec = BesovSpec(0.5, 2.0, r)
            assert chemin_lerner_norm(series, k, spec, 1.0) >= \
                lebesgue_time_norm(series, k, spec, 1.0) * (1 - 1e-10)

    def test_quadrature_refinement(self, grid2_64):
        # trapezoid error drops by ~4 per halving of the sampling step
        f = field_of(grid2_64, lambda x, y: np.cos(2 * x))
        spec = BesovSpec(0.0, 2.0, 1.0)
        base = besov_norm(grid2_64, f, spec).value
        exact = base * 2.0 * (1.0 - np.cos(1.0))  # integral of 2 sin(t) on [0,1]

        def value(n):
            times = np.linspace(0.0, 1.0, n + 1)
            series = norm_series(grid2_64, times, [2.0 * float(np.sin(t)) * f for t in times])
            return chemin_lerner_norm(series, 1.0, spec, 1.0)

        errs = [abs(value(n) - exact) for n in (8, 16, 32)]
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_horizon_beyond_samples(self, grid2_64):
        f = field_of(grid2_64, lambda x, y: np.cos(x))
        series = norm_series(grid2_64, [0.0, 0.5], [f, f])
        with pytest.raises(ValueError):
            chemin_lerner_norm(series, 1.0, BesovSpec(0.0), 1.0)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            NormSeries(np.array([0.0, 0.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            NormSeries(np.array([0.0, 1.0]), -np.ones((2, 3)))


class TestHybridNorm:
    def test_r_two_matches_dyadic(self, grid2_64):
        rng = np.random.default_rng(16)
        u = random_scalar(grid2_64, rng)
        for s in (0.5, 1.0):
            for mu in (0.1, 1.0, 10.0):
                hyb = besov_norm(grid2_64, u, HybridSpec(s, 2.0, mu)).value
                bes = besov_norm(grid2_64, u, BesovSpec(s, 2.0, 1.0)).value
                assert hyb == pytest.approx(bes, rel=1e-12)

    def test_single_block_weight(self, grid2_64):
        # |k| = sqrt(8) lies in (8/3, 3), a pure band-1 radius; with
        # 2^-q < mu the weight resolves to mu
        f = field_of(grid2_64, lambda x, y: np.cos(2 * x + 2 * y))
        mu = 3.0
        q = 1
        got = besov_norm(grid2_64, f, HybridSpec(1.0, INF, mu)).value
        want = mu * 2.0 ** q * lp_norm(grid2_64, f, 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_comparable_to_norm_pair(self, grid2_64):
        # hybrid with r=inf behaves like the sum of the s-1 and s norms,
        # up to mu-dependent constants; record the observed bracket
        rng = np.random.default_rng(17)
        mu = 0.3
        spec = HybridSpec(1.0, INF, mu)
        ratios = []
        for _ in range(20):
            u = random_scalar(grid2_64, rng)
            hyb = besov_norm(grid2_64, u, spec).value
            pair = besov_norm(grid2_64, u, BesovSpec(0.0)).value \
                + besov_norm(grid2_64, u, BesovSpec(1.0)).value
            ratios.append(hyb / pair)
        lo, hi = min(ratios), max(ratios)
        assert 0 < lo <= hi < np.inf
        assert hi / lo < 10.0
        print(f"hybrid/pair ratio bracket: [{lo:.4f}, {hi:.4f}] at mu={mu}")

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            HybridSpec(1.0, 2.0, 0.0)

    def test_series_norm(self, grid2_64):
        f = field_of(grid2_64, lambda x, y: np.cos(4 * x))
        times = np.linspace(0.0, 1.0, 9)
        series = norm_series(grid2_64, times, [f] * 9)
        spec = HybridSpec(1.0, INF, 3.0)
        static = besov_norm(grid2_64, f, spec).value
        assert lebesgue_time_norm(series, 1.0, spec, 1.0) == pytest.approx(
            static, rel=1e-12)
        assert lebesgue_time_norm(series, INF, spec, 1.0) == pytest.approx(
            static, rel=1e-12)

    def test_series_norm_needs_l2_series(self, grid2_64):
        f = field_of(grid2_64, lambda x, y: np.cos(4 * x))
        series = norm_series(grid2_64, np.linspace(0.0, 1.0, 3), [f] * 3, p=1.0)
        with pytest.raises(ValueError):
            lebesgue_time_norm(series, 1.0, HybridSpec(1.0, INF, 3.0), 1.0)

    def test_series_norms_check_spec_p(self, grid2_64):
        # an L2 series evaluated with an L^inf spec used to return the
        # B^0_{2,1} value 4.443 instead of refusing; the true B^0_{inf,1}
        # norm of this band-1 wave is 1
        f = field_of(grid2_64, lambda x, y: np.cos(2 * x + 2 * y))
        series = norm_series(grid2_64, [0.0, 1.0], [f, f])
        spec = BesovSpec(0.0, INF, 1.0)
        assert besov_norm(grid2_64, f, spec).value == pytest.approx(1.0, rel=1e-12)
        for evaluate in (lambda: chemin_lerner_norm(series, 1.0, spec, 1.0),
                         lambda: lebesgue_time_norm(series, 1.0, spec, 1.0),
                         lambda: series.besov_at(0, spec)):
            with pytest.raises(ValueError, match=r"p = inf .* p = 2"):
                evaluate()


class TestReports:
    def test_csv_writers(self, grid2_64, tmp_path):
        f = field_of(grid2_64, lambda x, y: np.cos(2 * x))
        rep = besov_norm(grid2_64, f, BesovSpec(1.0, 2.0, 1.0))
        rows = [{"time": 0.0, "norm_name": "u:test", "s": 1.0, "p": 2.0,
                 "r": 1.0, "value": rep.value}]
        _write_csv(tmp_path / "norms.csv", NORM_COLUMNS, rows)
        norms_text = (tmp_path / "norms.csv").read_text().splitlines()
        assert norms_text[0] == "time,norm_name,s,p,r,value"
        assert len(norms_text) == 2
