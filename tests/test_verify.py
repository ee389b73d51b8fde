import math

import numpy as np
import pytest

import besovlab.verify as verify
from besovlab.norms import INF, BesovSpec, besov_norm, lp_norm, stacked_lp
from besovlab.oldroyd import PhysicalParams
from besovlab.paley import block_multipliers, retained_radius
from besovlab.randfields import random_scalar
from besovlab.spectral import (
    GridSpec,
    forward_transform,
    gradient,
    grid_wavenumbers,
    product,
    samples,
)
from besovlab.verify import (
    EnsembleSpec,
    RatioReport,
    band_safe_tuple,
    pressure_slope,
    smallness_experiment,
    verify_bernstein,
    verify_commutator,
    verify_log_interpolation,
    verify_product_laws,
    verify_scaling,
)

from conftest import field_of, field_product

ENS = EnsembleSpec(count=16, seed=7)


class TestBernstein:
    def test_bracket_holds(self, grid2_32):
        rep = verify_bernstein(BesovSpec(1.0, 2.0, 1.0), ENS, grid2_32)
        assert 0.75 <= rep.min_ratio <= rep.max_ratio <= 8.0 / 3.0
        assert rep.stable

    def test_single_mode_ratio_one(self, grid2_64):
        f = field_of(grid2_64, lambda x, y: np.cos(x))
        num = besov_norm(grid2_64, gradient(grid2_64, f), BesovSpec(0.0, 2.0, 1.0)).value
        den = besov_norm(grid2_64, f, BesovSpec(1.0, 2.0, 1.0)).value
        assert num / den == pytest.approx(1.0, rel=1e-12)

    def test_determinism(self, grid2_32):
        a = verify_bernstein(BesovSpec(1.0, 2.0, 1.0), ENS, grid2_32)
        b = verify_bernstein(BesovSpec(1.0, 2.0, 1.0), ENS, grid2_32)
        assert a.max_ratio == b.max_ratio and a.min_ratio == b.min_ratio


class TestProductLaws:
    def test_index_validation(self, grid2_64):
        with pytest.raises(ValueError):
            verify_product_laws(2.0, 1.0, 2.0, ENS, grid2_64)  # s1 > N/p
        with pytest.raises(ValueError):
            verify_product_laws(0.0, 0.0, 4.0, ENS, grid2_64)  # sum at floor

    def test_reports(self, grid2_64):
        reports = verify_product_laws(1.0, 1.0, 2.0, ENS, grid2_64)
        names = [r.name for r in reports]
        assert names == ["product_strong", "product_weak",
                         "product_strong_time", "product_weak_time"]
        for rep in reports:
            assert 0 < rep.max_ratio < np.inf
            assert rep.stable

    def test_one_product_per_pair(self, grid2_64, monkeypatch):
        """Every pair's product and norms are formed once for all four
        reports (the products of a chunk of pairs are one stacked
        `product`, a row per pair); each report equals its ratio written
        out per pair."""
        rows = []
        monkeypatch.setattr(verify, "product",
                            lambda grid, u, v: rows.append(len(u)) or product(grid, u, v))
        ens = EnsembleSpec(count=4, seed=3)
        reports = verify_product_laws(1.0, 1.0, 2.0, ens, grid2_64)
        assert sum(rows) == 2 * ens.count
        rng = np.random.default_rng(ens.seed)
        radius = retained_radius(grid2_64) / 2.0
        pairs = [(random_scalar(grid2_64, rng, radius=radius),
                  random_scalar(grid2_64, rng, radius=radius))
                 for _ in range(2 * ens.count)]
        # s1 = s2 = 1 and p = 2 in 2D: the product's index is s1 + s2 - N/p = 1
        for rep, r in zip(reports[:2], (1.0, INF)):
            ratios = [besov_norm(grid2_64, field_product(grid2_64, u, v),
                                 BesovSpec(1.0, 2.0, r)).value
                      / (besov_norm(grid2_64, u, BesovSpec(1.0, 2.0, 1.0)).value
                         * besov_norm(grid2_64, v, BesovSpec(1.0, 2.0, r)).value)
                      for u, v in pairs]
            assert rep.max_ratio == max(ratios[:ens.count])
            assert rep.max_ratio_doubled == max(ratios)
            assert rep.min_ratio == min(ratios[:ens.count])

    def test_square_ratio_recorded(self, grid2_64):
        # v = u: the ratio is the squared-field norm over the norm squared
        rng = np.random.default_rng(30)
        u = random_scalar(grid2_64, rng, radius=5.0)
        spec = BesovSpec(1.0, 2.0, 1.0)
        ratio = besov_norm(grid2_64, field_product(grid2_64, u, u), spec).value \
            / besov_norm(grid2_64, u, spec).value ** 2
        assert np.isfinite(ratio) and ratio > 0

    def test_disjoint_shells_finite(self, grid2_64):
        u = field_of(grid2_64, lambda x, y: np.cos(x))        # band 0
        v = field_of(grid2_64, lambda x, y: np.cos(8 * x))    # band 2/3
        spec = BesovSpec(1.0, 2.0, 1.0)
        ratio = besov_norm(grid2_64, field_product(grid2_64, u, v), spec).value / (
            besov_norm(grid2_64, u, spec).value * besov_norm(grid2_64, v, spec).value)
        assert np.isfinite(ratio)


class TestLogInterpolation:
    def test_report(self, grid2_64):
        rep = verify_log_interpolation(ENS, 1.0, 0.5, 2.0, grid2_64)
        assert rep.stable
        assert 0 < rep.max_ratio < np.inf

    def test_single_block_value(self, grid2_64):
        # pure band-1 radius: r=1 and r=inf norms coincide, so the ratio
        # is 1/((1/eps) log(e + lo+hi over mid))
        f = field_of(grid2_64, lambda x, y: np.cos(2 * x + 2 * y))
        s, eps = 1.0, 0.5
        n_inf = besov_norm(grid2_64, f, BesovSpec(s, 2.0, INF)).value
        n_lo = besov_norm(grid2_64, f, BesovSpec(s - eps, 2.0, INF)).value
        n_hi = besov_norm(grid2_64, f, BesovSpec(s + eps, 2.0, INF)).value
        got = besov_norm(grid2_64, f, BesovSpec(s, 2.0, 1.0)).value / (
            (n_inf / eps) * math.log(math.e + (n_lo + n_hi) / n_inf))
        want = eps / math.log(math.e + 2.0 ** (-eps) + 2.0 ** eps)
        assert got == pytest.approx(want, rel=1e-12)

    def test_eps_validation(self, grid2_64):
        with pytest.raises(ValueError):
            verify_log_interpolation(ENS, 1.0, 1.5, 2.0, grid2_64)


def kernel_band_norms(grid, a, b, p):
    """The per-band commutator norms of the one pair (a, b)."""
    return verify._commutator_bands(grid, a[None], b[None], p, [])[0]


class TestCommutator:
    def test_constant_multiplier_commutes(self, grid2_64):
        a = forward_transform(grid2_64, np.full(grid2_64.shape, 2.5))
        rng = np.random.default_rng(31)
        b = random_scalar(grid2_64, rng, radius=5.0)
        norms = kernel_band_norms(grid2_64, a, b, 2.0)
        assert np.max(norms) <= 1e-12

    @staticmethod
    def looped_band_norms(grid, a, b, p):
        """The commutator one band and one axis at a time, each band's
        field sampled for the L^p norm."""
        grad_b = gradient(grid, b)
        a_grad_b = [field_product(grid, a, g) for g in grad_b]
        out = []
        for band in block_multipliers(grid):
            acc = np.zeros(grid.coeff_shape, dtype=np.complex128)
            for ax in range(grid.dim):
                first = field_product(grid, a, grad_b[ax] * band)
                second = a_grad_b[ax] * band
                acc += gradient(grid, first)[..., ax, :, :] \
                    - gradient(grid, second)[..., ax, :, :]
            out.append(lp_norm(grid, acc, p))
        return np.array(out)

    @pytest.mark.parametrize("p", [2.0, 1.0, INF])
    @pytest.mark.parametrize("dim, m", [(2, 64), (3, 16)])
    def test_equals_one_pair_formula(self, dim, m, p):
        """The kept-buffer kernel gives, bitwise, both products of the
        (band, axis) stack formed the way `product` forms them."""
        grid = GridSpec(dim, m)
        rng = np.random.default_rng(43)
        a, b = (random_scalar(grid, rng, radius=retained_radius(grid) / 2.0) for _ in "ab")
        assert np.array_equal(kernel_band_norms(grid, a, b, p),
                              one_pair_commutator(grid, a, b, p))

    @pytest.mark.parametrize("p", [2.0, 1.0, INF])
    def test_stacked_matches_band_loop(self, grid2_64, p):
        rng = np.random.default_rng(41)
        radius = retained_radius(grid2_64) / 2.0
        a = random_scalar(grid2_64, rng, radius=radius)
        b = random_scalar(grid2_64, rng, radius=radius)
        want = self.looped_band_norms(grid2_64, a, b, p)
        assert want.max() > 0
        np.testing.assert_allclose(kernel_band_norms(grid2_64, a, b, p), want,
                                   rtol=0, atol=1e-14 * want.max())

    def test_window_validation(self, grid2_64):
        with pytest.raises(ValueError):
            verify_commutator(ENS, 0.5, 1.0, 2.0, grid2_64)  # s < 1
        with pytest.raises(ValueError):
            verify_commutator(ENS, 1.0, 3.0, 2.0, grid2_64)  # t > N/p + 1

    def test_report(self, grid2_64):
        rep = verify_commutator(ENS, 1.0, 1.0, 2.0, grid2_64)
        assert rep.stable
        assert rep.max_ratio > 0


def one_pair_commutator(grid, a, b, p):
    """||div(A (band_q grad B)) - band_q div(A grad B)||_p per band, one
    pair at a time through `product`."""
    bands = block_multipliers(grid)[:, None]
    grad_b = gradient(grid, b)
    terms = product(grid, a, samples(grid, bands * grad_b)) \
        - bands * product(grid, a, samples(grid, grad_b))
    return stacked_lp(grid, np.einsum("qa...,a...->q...", terms, grid_wavenumbers(grid)["ik"]), p)


def drawn(grid, ens, n, radius=None):
    """n fields drawn one at a time from the ensemble's seed."""
    rng = np.random.default_rng(ens.seed)
    return [random_scalar(grid, rng, radius=radius) for _ in range(n)]


def extremes(ratios, count):
    """(max, min) over the first `count` ratios and the max over all."""
    base = [r for r in ratios[:count] if r is not None]
    return max(base), min(base), max(r for r in ratios if r is not None)


@pytest.fixture(params=[None, 1 << 20], ids=["default_budget", "wide_budget"])
def budget(request, monkeypatch):
    """The default chunk budget, and one wide enough for several commutator
    pairs a chunk."""
    if request.param is not None:
        monkeypatch.setattr(verify, "CHUNK_BYTES", request.param)


@pytest.mark.parametrize("count", [3, 13])
class TestChunkedEnsembles:
    """Every suite's report equals the one drawn and evaluated one field at
    a time, with counts that are not multiples of the chunk sizes."""

    def test_bernstein(self, grid2_32, count, budget):
        ens, spec = EnsembleSpec(count=count, seed=21), BesovSpec(1.0, 2.0, 1.0)
        rep = verify_bernstein(spec, ens, grid2_32)
        ratios = [besov_norm(grid2_32, gradient(grid2_32, u), BesovSpec(0.0, 2.0, 1.0)).value
                  / besov_norm(grid2_32, u, spec).value for u in drawn(grid2_32, ens, 2 * count)]
        assert (rep.max_ratio, rep.min_ratio, rep.max_ratio_doubled) == extremes(ratios, count)

    def test_products(self, grid2_64, count, budget):
        ens = EnsembleSpec(count=count, seed=22)
        reports = verify_product_laws(1.0, 1.0, 2.0, ens, grid2_64)
        fields = drawn(grid2_64, ens, 4 * count, retained_radius(grid2_64) / 2.0)
        tgrid = np.linspace(0.0, 1.0, 65)
        env_a = 1.0 + 0.5 * np.cos(2 * np.pi * tgrid)
        env_b = 1.0 + 0.5 * np.sin(2 * np.pi * tgrid)
        envelopes = float(np.trapezoid(env_a * env_b, tgrid)) / (
            float(np.trapezoid(env_a ** 2, tgrid) ** 0.5)
            * float(np.trapezoid(env_b ** 2, tgrid) ** 0.5))
        for i, rep in enumerate(reports):
            r, factor = (1.0, INF)[i % 2], (1.0, envelopes)[i // 2]
            ratios = [factor * besov_norm(grid2_64, field_product(grid2_64, u, v),
                                          BesovSpec(1.0, 2.0, r)).value
                      / (besov_norm(grid2_64, u, BesovSpec(1.0, 2.0, 1.0)).value
                         * besov_norm(grid2_64, v, BesovSpec(1.0, 2.0, r)).value)
                      for u, v in zip(fields[::2], fields[1::2])]
            assert (rep.max_ratio, rep.min_ratio, rep.max_ratio_doubled) == \
                extremes(ratios, count)

    def test_loginterp(self, grid2_64, count, budget):
        ens, s, eps = EnsembleSpec(count=count, seed=23), 1.0, 0.5
        rep = verify_log_interpolation(ens, s, eps, 2.0, grid2_64)
        ratios = []
        for u in drawn(grid2_64, ens, 2 * count):
            n_inf, n_lo, n_hi = (besov_norm(grid2_64, u, BesovSpec(t, 2.0, INF)).value
                                 for t in (s, s - eps, s + eps))
            ratios.append(besov_norm(grid2_64, u, BesovSpec(s, 2.0, 1.0)).value
                          / ((n_inf / eps) * math.log(math.e + (n_lo + n_hi) / n_inf)))
        assert (rep.max_ratio, rep.min_ratio, rep.max_ratio_doubled) == extremes(ratios, count)

    def test_commutator(self, grid2_64, count, budget):
        ens = EnsembleSpec(count=count, seed=24)
        rep = verify_commutator(ens, 1.0, 1.0, 2.0, grid2_64)
        fields = drawn(grid2_64, ens, 4 * count, retained_radius(grid2_64) / 2.0)
        spec = BesovSpec(0.0, 2.0, 1.0)
        ratios = []
        for a, b in zip(fields[::2], fields[1::2]):
            band = one_pair_commutator(grid2_64, a, b, 2.0)
            cq = np.exp2(np.arange(band.size) * -1.0) * band / (
                besov_norm(grid2_64, gradient(grid2_64, a), spec).value
                * besov_norm(grid2_64, gradient(grid2_64, b), spec).value)
            ratios.append(float(cq.sum()))
        assert (rep.max_ratio, rep.min_ratio, rep.max_ratio_doubled) == extremes(ratios, count)


class TestScaling:
    def test_invariance_m1(self, grid2_64):
        sig, vel, h = band_safe_tuple(grid2_64, 5, m=1)
        info = verify_scaling(grid2_64, sig, vel, h, m=1)
        assert all(d <= 1e-10 for d in info["defects"].values())

    def test_identity_m0(self, grid2_64):
        sig, vel, h = band_safe_tuple(grid2_64, 5, m=1)
        info = verify_scaling(grid2_64, sig, vel, h, m=0)
        assert all(d == 0.0 for d in info["defects"].values())

    def test_band_guard(self):
        with pytest.raises(ValueError):
            band_safe_tuple(GridSpec(2, 16), 5, m=2)


class TestRatioReport:
    def test_invariants(self):
        with pytest.raises(ValueError):
            RatioReport("x", {}, 1.0, 2.0, 4, True, 1.0)
        with pytest.raises(ValueError):
            RatioReport("x", {}, 1.0, -0.5, 4, True, 1.0)
        rep = RatioReport("x", {"s": 1}, 2.0, 1.0, 4, True, 2.1)
        assert rep.as_dict()["experiment"] == "x"

    def test_degenerate_samples_skipped(self):
        from besovlab.verify import _ratio_report

        # 0/0 cases arrive as None and are excluded; the base maximum is
        # over the first `count` draws, the doubled one over all of them
        rep = _ratio_report("x", {}, [None, 1.0, None, 1.1], 2)
        assert rep.min_ratio == 1.0 and rep.max_ratio == 1.0
        assert rep.max_ratio_doubled == 1.1
        assert rep.stable
        with pytest.raises(ValueError):
            _ratio_report("x", {}, [None] * 4, 2)


class TestSmallness:
    def test_zero_alpha_row(self, grid2_32):
        rows = smallness_experiment([0.0], 0.05, grid2_32, PhysicalParams(mu=1.0),
                                    dt=0.01, save_stride=1)
        assert rows[0]["ok"]
        assert rows[0]["energy_over_alpha"] == 0.0

    def test_short_horizon_table(self, grid2_32):
        rows = smallness_experiment([1e-3, 1e-2], 0.1, grid2_32,
                                    PhysicalParams(mu=1.0), dt=0.01,
                                    save_stride=2, seed=11)
        assert all(r["ok"] for r in rows)
        for r in rows:
            assert abs(r["initial_norm"] - r["alpha"]) <= 0.011 * r["alpha"]
        slope = pressure_slope(rows)
        assert 1.7 <= slope <= 2.3

    def test_failures_recorded_not_fatal(self, grid2_32):
        # a CFL-hostile dt shows up as a recorded failure row
        rows = smallness_experiment([10.0], 0.5, grid2_32, PhysicalParams(mu=1.0),
                                    dt=0.5, save_stride=1, seed=11)
        assert not rows[0]["ok"]
        assert "error" in rows[0]
