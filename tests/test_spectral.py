import numpy as np
import pytest

from besovlab.spectral import (
    GridSpec,
    GridError,
    dealiased,
    divergence,
    forward_transform,
    gradient,
    gradient_samples,
    hermitize,
    lambda_multiplier,
    leray_project,
    grid_wavenumbers,
    product,
    rescale,
    samples,
    _scratch,
)
from besovlab.norms import BesovSpec, besov_norm, block_lp, l2_norm, lp_norm
from besovlab.randfields import random_scalar

from conftest import field_of, field_product, full_spectrum


def hermitian_defect(grid, f) -> float:
    """Max |c(k) - conj(c(-k))| relative to the largest coefficient: twice
    the largest change `hermitize` makes to the coefficients `f`."""
    change = np.max(np.abs(hermitize(grid, f) - f))
    return float(2.0 * change / np.max(np.abs(f)))


class TestGridSpec:
    def test_q_max_64(self):
        # largest q with 8/3 * 2^q <= 64/3: q = 3
        assert GridSpec(2, 64).q_max == 3

    def test_minimal_size_accepted(self):
        g = GridSpec(2, 16)
        assert g.shape == (16, 16)

    @pytest.mark.parametrize("dim,m", [(3, 15), (1, 32), (4, 32), (2, 24), (2, 8)])
    def test_rejects_bad_construction(self, dim, m):
        with pytest.raises(GridError):
            GridSpec(dim, m)

    @pytest.mark.parametrize("dim, largest", [(2, 2 ** 27), (3, 2 ** 18)])
    def test_rejects_grid_numpy_cannot_size(self, dim, largest):
        """A state's samples and gradient samples, (1 + n + n^2)(n + 1) M^n
        float64 values, must fit numpy's largest array: the next grid after
        `largest` is refused, as numpy refuses to size that array (a size
        check, nothing is allocated)."""
        n = dim
        GridSpec(n, largest)
        with pytest.raises(GridError, match="too large"):
            GridSpec(n, 2 * largest)
        with pytest.raises(ValueError, match="array is too big"):
            np.empty(((1 + n + n * n) * (n + 1),) + (2 * largest,) * n)

    def test_cell_volume(self, grid2_32):
        assert grid2_32.cell_volume == pytest.approx((2 * np.pi / 32) ** 2, rel=1e-15)


class TestTransforms:
    def test_constant_field(self, grid2_32):
        f = forward_transform(grid2_32, np.full(grid2_32.shape, 3.25))
        assert f[0, 0] == pytest.approx(3.25, rel=1e-14)
        off = f.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-14

    def test_cosine_single_mode(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(x))
        assert f[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert f[-1, 0] == pytest.approx(0.5, abs=1e-14)

    def test_round_trip(self, grid2_32):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(grid2_32.shape)
        back = samples(grid2_32, forward_transform(grid2_32, values))
        assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))

    def test_shape_mismatch(self, grid2_32):
        with pytest.raises(GridError):
            forward_transform(grid2_32, np.zeros((16, 16)))
        with pytest.raises(GridError):
            besov_norm(grid2_32, np.zeros((16, 16), complex), BesovSpec(1.0))

    def test_coefficients_are_complex128(self, grid2_32):
        for dtype in (np.float32, np.float64, int):
            f = forward_transform(grid2_32, np.ones(grid2_32.shape, dtype))
            assert f.dtype == np.complex128 and f[0, 0] == 1.0

    def test_complex_samples_rejected(self, grid2_32):
        with pytest.raises(GridError):
            forward_transform(grid2_32, np.zeros(grid2_32.shape, complex))

    def test_hermitian_symmetry_of_real_field(self, grid2_32):
        rng = np.random.default_rng(1)
        f = forward_transform(grid2_32, rng.standard_normal(grid2_32.shape))
        assert hermitian_defect(grid2_32, f) < 1e-12

    def test_hermitize_projects(self, grid2_32):
        f = np.zeros(grid2_32.coeff_shape, complex)
        f[1, 0] = 1.0j  # no matching conjugate at -k
        h = hermitize(grid2_32, f)
        assert hermitian_defect(grid2_32, h) < 1e-15


class TestStackedField:
    """Coefficients with leading component axes: the norms check the grid
    axes, and the per-field operations act on each component."""

    @staticmethod
    def random_stack(grid, shape, seed):
        rng = np.random.default_rng(seed)
        return np.stack(
            [forward_transform(grid, rng.standard_normal(grid.shape))
             for _ in range(int(np.prod(shape)))]).reshape(shape + grid.coeff_shape)

    def test_grid_mismatch(self, grid2_32):
        with pytest.raises(GridError):
            block_lp(grid2_32, np.zeros((2, 16, 16), complex), 2.0)
        with pytest.raises(GridError):
            l2_norm(grid2_32, np.zeros((2, 16, 9), complex))

    @pytest.mark.parametrize("dim,m", [(2, 32), (3, 16)])
    def test_hermitian_per_component(self, dim, m):
        grid = GridSpec(dim, m)
        u = self.random_stack(grid, (2, 3), 8)
        # no matching conjugate at -k, which the k_last = 0 plane holds
        u[1, 2][(1,) * (dim - 1) + (0,)] += 1.0j
        parts = [u[i][j] for i in range(2) for j in range(3)]
        want = [hermitize(grid, f) for f in parts]
        assert np.array_equal(hermitize(grid, u).reshape((6,) + grid.coeff_shape), np.stack(want))
        scale = np.max(np.abs(u))
        defect = max(hermitian_defect(grid, f) * np.max(np.abs(f)) for f in parts)
        assert hermitian_defect(grid, u) == pytest.approx(defect / scale, rel=1e-15)
        assert hermitian_defect(grid, u) > 0.1
        assert hermitian_defect(grid, hermitize(grid, u)) < 1e-15


class TestDerivative:
    def test_sin_to_cos(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.sin(x))
        xx, _ = grid2_32.meshgrid()
        assert np.allclose(samples(grid2_32, gradient(grid2_32, f)[..., 0, :, :]),
                           np.cos(xx), atol=1e-12)

    def test_constant_derivative_zero(self, grid2_32):
        f = forward_transform(grid2_32, np.ones(grid2_32.shape))
        assert np.max(np.abs(gradient(grid2_32, f)[..., 0, :, :])) == 0.0

    def test_second_harmonic(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(2 * y))
        _, yy = grid2_32.meshgrid()
        assert np.allclose(samples(grid2_32, gradient(grid2_32, f)[..., 1, :, :]),
                           -2 * np.sin(2 * yy), atol=1e-12)

    def test_nyquist_zeroed(self, grid2_32):
        f = np.zeros(grid2_32.coeff_shape, complex)
        f[16, 0] = 1.0  # unmatched Nyquist line
        assert np.max(np.abs(gradient(grid2_32, f)[..., 0, :, :])) == 0.0


class TestLambdaPower:
    def test_unit_mode_squared(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(x))
        out = f * lambda_multiplier(grid2_32, 2.0)
        assert np.allclose(out, f, atol=1e-14)

    def test_inverse_composition(self, grid2_32):
        rng = np.random.default_rng(2)
        f = forward_transform(grid2_32, rng.standard_normal(grid2_32.shape))
        f[0, 0] = 0.0
        back = f * lambda_multiplier(grid2_32, -1.0) * lambda_multiplier(grid2_32, 1.0)
        assert np.max(np.abs(back - f)) < 1e-12

    def test_single_mode_value(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(2 * x))
        xx, _ = grid2_32.meshgrid()
        assert np.allclose(samples(grid2_32, f * lambda_multiplier(grid2_32, 1.0)),
                           2 * np.cos(2 * xx), atol=1e-12)

    def test_zero_mode_dropped(self, grid2_32):
        f = forward_transform(grid2_32, np.ones(grid2_32.shape))
        assert np.max(np.abs(f * lambda_multiplier(grid2_32, -1.0))) == 0.0
        assert np.max(np.abs(f * lambda_multiplier(grid2_32, 2.0))) == 0.0


class TestLeray:
    def test_annihilates_gradient(self, grid2_32):
        psi = field_of(grid2_32, lambda x, y: np.cos(x) * np.sin(y))
        out = leray_project(grid2_32, gradient(grid2_32, psi))
        assert all(np.max(np.abs(f)) < 1e-13 for f in out)

    def test_fixes_solenoidal(self, grid2_32):
        v = np.stack([field_of(grid2_32, lambda x, y: np.sin(y)),
                      field_of(grid2_32, lambda x, y: np.sin(x))])
        out = leray_project(grid2_32, v)
        for a, b in zip(out, v):
            assert np.max(np.abs(a - b)) < 1e-13

    def test_hand_decomposition(self, grid2_32):
        # v = (sin y + d1 psi, d2 psi) with psi = cos(x+y) projects to (sin y, 0)
        psi = field_of(grid2_32, lambda x, y: np.cos(x + y))
        g = gradient(grid2_32, psi)
        v = np.stack([field_of(grid2_32, lambda x, y: np.sin(y)) + g[0], g[1]])
        out = leray_project(grid2_32, v)
        xx, yy = grid2_32.meshgrid()
        assert np.max(np.abs(samples(grid2_32, out[0]) - np.sin(yy))) < 1e-12
        assert np.max(np.abs(samples(grid2_32, out[1]))) < 1e-12

    def test_output_divergence_free(self, grid2_32):
        rng = np.random.default_rng(3)
        v = np.stack([forward_transform(grid2_32, rng.standard_normal(grid2_32.shape))
                      for _ in range(2)])
        out = leray_project(grid2_32, v)
        scale = max(np.max(np.abs(f)) for f in v)
        assert np.max(np.abs(divergence(grid2_32, out))) < 1e-12 * scale

    def test_idempotent(self, grid2_32):
        rng = np.random.default_rng(4)
        v = np.stack([forward_transform(grid2_32, rng.standard_normal(grid2_32.shape))
                      for _ in range(2)])
        once = leray_project(grid2_32, v)
        twice = leray_project(grid2_32, once)
        for a, b in zip(once, twice):
            assert np.max(np.abs(a - b)) < 1e-13

    def test_zero_mode_untouched(self, grid2_32):
        v = np.stack([forward_transform(grid2_32, np.full(grid2_32.shape, 2.0)),
                      forward_transform(grid2_32, np.full(grid2_32.shape, -1.0))])
        out = leray_project(grid2_32, v)
        assert out[0][0, 0] == pytest.approx(2.0)
        assert out[1][0, 0] == pytest.approx(-1.0)


class TestDealias:
    def test_low_band_unchanged(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(3 * x + 2 * y))
        out = f * grid_wavenumbers(grid2_32)["dealias_mask"]
        # sampled transcendentals leave rounding junk outside the band,
        # which is all the mask may remove
        assert np.max(np.abs(out - f)) < 1e-14

    def test_high_mode_zeroed(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(15 * x))
        assert np.max(np.abs(f * grid_wavenumbers(grid2_32)["dealias_mask"])) < 1e-14
        assert (f * grid_wavenumbers(grid2_32)["dealias_mask"])[15, 0] == 0.0

    def test_product_matches_convolution_oracle(self):
        # exact convolution on the retained band for inputs below M/3
        grid = GridSpec(2, 16)
        rng = np.random.default_rng(5)

        k1 = np.fft.fftfreq(16, d=1 / 16).astype(int)

        def band_limited():
            # the full spectrum (every k) of a real field, then its k_last >= 0 half
            c = np.fft.fftn(rng.standard_normal(grid.shape)) / 16 ** 2
            mask = (np.abs(k1[:, None]) <= 2) & (np.abs(k1[None, :]) <= 2)
            return c * mask, (c * mask)[:, :9]

        (u_full, u), (v_full, v) = band_limited(), band_limited()
        got = field_product(grid, u, v)

        oracle = np.zeros(grid.shape, complex)
        nz_u = np.argwhere(np.abs(u_full) > 0)
        nz_v = np.argwhere(np.abs(v_full) > 0)
        for iu in nz_u:
            for iv in nz_v:
                ka = k1[iu[0]] + k1[iv[0]]
                kb = k1[iu[1]] + k1[iv[1]]
                oracle[ka % 16, kb % 16] += u_full[tuple(iu)] * v_full[tuple(iv)]
        keep = (np.abs(k1[:, None]) <= 16 / 3) & (np.abs(k1[None, :]) <= 16 / 3)
        assert np.max(np.abs(got - (oracle * keep)[:, :9])) < 1e-14


REAL_TRANSFORM_GRIDS = [(2, 32), (2, 64), (3, 16)]


@pytest.mark.parametrize("dim,m", REAL_TRANSFORM_GRIDS)
class TestRealTransforms:
    """The real-to-complex transforms against numpy's full complex ones."""

    def test_dealiased_matches_complex_fft(self, dim, m):
        grid = GridSpec(dim, m)
        values = np.random.default_rng(7).standard_normal((3,) + grid.shape)
        want = np.fft.fftn(values, axes=tuple(range(-dim, 0)), norm="forward")[..., :m // 2 + 1] \
            * grid_wavenumbers(grid)["dealias_mask"]
        got = dealiased(grid, values)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        for c in got:
            assert hermitian_defect(grid, c) <= 1e-15

    def test_samples_match_complex_ifft(self, dim, m):
        grid = GridSpec(dim, m)
        u = random_scalar(grid, np.random.default_rng(8))
        coeffs = np.concatenate([u[None], gradient(grid, u)])
        want = np.fft.ifftn(full_spectrum(grid, coeffs), axes=tuple(range(-dim, 0)),
                            norm="forward").real
        got = samples(grid, coeffs)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))

    def test_stacked_equals_per_component(self, dim, m):
        grid = GridSpec(dim, m)
        rng = np.random.default_rng(9)
        values = rng.standard_normal((2, 2) + grid.shape)
        coeffs = dealiased(grid, values)
        got = samples(grid, coeffs)
        for idx in np.ndindex(2, 2):
            assert np.array_equal(coeffs[idx], dealiased(grid, values[idx]))
            assert np.array_equal(got[idx], samples(grid, coeffs[idx]))
        f = random_scalar(grid, rng)
        stacked = product(grid, f, samples(grid, coeffs[0]))
        for i in range(2):
            assert np.array_equal(stacked[i], field_product(grid, f, coeffs[0, i]))


@pytest.mark.parametrize("dim,m", REAL_TRANSFORM_GRIDS)
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["field", "stack", "two_axes"])
class TestGradientSamples:
    """The shared 1D passes of `gradient_samples` against the plain formula:
    multiply the coefficients by i k_l, then one `irfftn` per component and
    axis l."""

    def test_matches_multiply_then_irfftn(self, dim, m, lead):
        grid = GridSpec(dim, m)
        rng = np.random.default_rng(10)
        coeffs = np.empty(lead + grid.coeff_shape, dtype=np.complex128)
        for idx in np.ndindex(lead):
            coeffs[idx] = random_scalar(grid, rng)
        ik = grid_wavenumbers(grid)["ik"]
        want = np.empty(lead + (dim,) + grid.shape)
        for idx in np.ndindex(lead):
            for ax in range(dim):
                want[idx + (ax,)] = np.fft.irfftn(coeffs[idx] * ik[ax], s=grid.shape,
                                                  axes=tuple(range(dim)), norm="forward")
        s, ds = gradient_samples(grid, coeffs, with_samples=True)
        assert ds.shape == want.shape
        assert np.max(np.abs(ds - want)) <= 1e-15 * np.max(np.abs(want))
        # the field's own branch is irfftn's arithmetic; the gradient alone
        # is the same passes without it
        assert np.array_equal(s, samples(grid, coeffs))
        assert np.array_equal(ds, gradient_samples(grid, coeffs))


def passes_oracle(grid, coeffs, l):
    """Samples of d_l of stacked coefficients by 1D passes over every k_last
    column in `irfftn`'s axis order, the multiplier i k_l applied just
    before the pass along axis l: `gradient_samples`' arithmetic, unpruned."""
    n = grid.dim
    x = coeffs
    for ax in range(n):
        if ax == l:
            x = x * grid_wavenumbers(grid)["ik_axes"][l]
        if ax < n - 1:
            x = np.fft.ifft(x, axis=ax - n, norm="forward")
    return np.fft.irfft(x, n=grid.points_per_axis, axis=-1, norm="forward")


@pytest.mark.parametrize("dim,m", REAL_TRANSFORM_GRIDS + [(3, 32)])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["field", "stack"])
@pytest.mark.parametrize("band", [True, False], ids=["band", "white"])
class TestBandPasses:
    """The passes along the wraparound axes run on the k_last <= M/3
    columns alone: `dealiased` always, `samples` and `gradient_samples` when
    the input is zero beyond them.  Either way the results are numpy's
    full transforms, bitwise."""

    @staticmethod
    def coeffs(grid, lead, band):
        axes = tuple(range(-grid.dim, 0))
        white = np.fft.rfftn(np.random.default_rng(11).standard_normal(lead + grid.shape),
                             axes=axes, norm="forward")
        return white * grid_wavenumbers(grid)["dealias_mask"] if band else white

    def test_dealiased_is_rfftn_times_mask(self, dim, m, lead, band):
        grid = GridSpec(dim, m)
        values = np.random.default_rng(12).standard_normal(lead + grid.shape)
        want = np.fft.rfftn(values, axes=tuple(range(-dim, 0)), norm="forward") \
            * grid_wavenumbers(grid)["dealias_mask"]
        assert np.array_equal(dealiased(grid, values), want)

    def test_samples_is_irfftn(self, dim, m, lead, band):
        grid = GridSpec(dim, m)
        c = self.coeffs(grid, lead, band)
        want = np.fft.irfftn(c, s=grid.shape, axes=tuple(range(-dim, 0)), norm="forward")
        assert np.array_equal(samples(grid, c), want)

    def test_gradient_samples_are_the_full_passes(self, dim, m, lead, band):
        grid = GridSpec(dim, m)
        c = self.coeffs(grid, lead, band)
        s, ds = gradient_samples(grid, c, with_samples=True)
        assert np.array_equal(s, np.fft.irfftn(c, s=grid.shape, axes=tuple(range(-dim, 0)),
                                               norm="forward"))
        assert np.array_equal(ds, gradient_samples(grid, c))
        by_axis = np.moveaxis(ds, -dim - 1, 0)
        for l in range(dim):
            assert np.array_equal(by_axis[l], passes_oracle(grid, c, l))
        # d_0 is multiply-then-irfftn bitwise; the later axes' multipliers
        # act after some passes, which moves the result by rounding only
        want = np.fft.irfftn(gradient(grid, c), s=grid.shape,
                             axes=tuple(range(-dim, 0)), norm="forward")
        assert np.array_equal(by_axis[0], np.moveaxis(want, -dim - 1, 0)[0])
        assert np.max(np.abs(ds - want)) <= 1e-15 * np.max(np.abs(want))

    def test_passes_read_band_columns(self, dim, m, lead, band, monkeypatch):
        """The `fft`/`ifft` passes (every pass along a wraparound axis) read
        M//3 + 1 k_last columns, for `dealiased` always and for the inverse
        transforms of a band-limited input; a white-noise input's inverse
        passes read all M//2 + 1."""
        grid = GridSpec(dim, m)
        widths = []
        for name in ("fft", "ifft"):
            def counting(x, *args, _fft=getattr(np.fft, name), **kwargs):
                assert kwargs["axis"] < -1
                widths.append(np.shape(x)[-1])
                return _fft(x, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counting)
        c = self.coeffs(grid, lead, band)
        inverse = m // 3 + 1 if band else m // 2 + 1
        samples(grid, c)
        gradient_samples(grid, c, with_samples=True)
        assert widths == [inverse] * (2 * (dim - 1))
        widths.clear()
        dealiased(grid, np.zeros(lead + grid.shape))
        assert widths == [m // 3 + 1] * (dim - 1)


@pytest.mark.parametrize("dim,m", REAL_TRANSFORM_GRIDS)
@pytest.mark.parametrize("lead", [(), (3,)], ids=["field", "stack"])
@pytest.mark.parametrize("band", [True, False], ids=["band", "white"])
class TestTransformBuffers:
    """The buffer contract of the three transforms: `out=` receives the
    allocating call's values, the work arrays `spectral` keeps never reach a
    caller, and `_scratch.cache_clear()` empties their pool."""

    @staticmethod
    def calls(grid, lead, band, seed):
        """(name, call with an optional `out`, the shape of its result) of
        each transform, on inputs drawn from `seed`."""
        c = TestBandPasses.coeffs(grid, lead, band) * (1.0 + seed)
        values = np.random.default_rng(seed).standard_normal(lead + grid.shape)
        return [
            ("samples", lambda out=None: samples(grid, c, out), lead + grid.shape),
            ("dealiased", lambda out=None: dealiased(grid, values, out),
             lead + grid.coeff_shape),
            ("gradient_samples", lambda out=None: gradient_samples(grid, c, out=out),
             lead + (grid.dim,) + grid.shape),
        ]

    def test_out_is_returned_bitwise(self, dim, m, lead, band):
        for name, call, shape in self.calls(GridSpec(dim, m), lead, band, 0):
            want = call()
            out = np.full(shape, np.nan, dtype=want.dtype)
            assert call(out) is out, name
            assert np.array_equal(out, want), name

    def test_successive_results_share_no_memory(self, dim, m, lead, band):
        grid = GridSpec(dim, m)
        for (name, first, _), (_, second, _) in zip(self.calls(grid, lead, band, 0),
                                                     self.calls(grid, lead, band, 1)):
            a = first()
            kept = a.copy()
            b = second()
            assert not np.shares_memory(a, b), name
            assert np.array_equal(a, kept), name
        c = TestBandPasses.coeffs(grid, lead, band)
        s, ds = gradient_samples(grid, c, with_samples=True)
        kept = s.copy(), ds.copy()
        s2, ds2 = gradient_samples(grid, 2.0 * c, with_samples=True)
        assert not any(np.shares_memory(x, y) for x in (s, ds) for y in (s2, ds2))
        assert np.array_equal(s, kept[0]) and np.array_equal(ds, kept[1])

    def test_cache_clear_empties_the_pool(self, dim, m, lead, band):
        grid = GridSpec(dim, m)
        samples(grid, TestBandPasses.coeffs(grid, lead, band))
        assert _scratch.cache_info().currsize > 0
        _scratch.cache_clear()
        assert _scratch.cache_info().currsize == 0


@pytest.mark.parametrize("dim,m", REAL_TRANSFORM_GRIDS)
class TestHalfLayout:
    """The k_last >= 0 half, the one coefficient layout: it determines the
    real fields, and `hermitize` projects its k_last = 0 and M/2 planes."""

    def test_round_trip(self, dim, m):
        """Stacked coefficients of real fields come back from their samples
        through numpy's real transform."""
        grid = GridSpec(dim, m)
        rng = np.random.default_rng(10)
        c = np.stack([random_scalar(grid, rng) for _ in range(3)])
        c = np.concatenate([c, gradient(grid, c[0])])
        assert c.shape == (3 + dim,) + grid.shape[:-1] + (m // 2 + 1,)
        back = np.fft.rfftn(samples(grid, c), axes=tuple(range(-dim, 0)), norm="forward")
        assert np.max(np.abs(back - c)) <= 1e-15 * np.max(np.abs(c))

    def test_plane_projection_is_hermitize(self, dim, m):
        """On a half whose k_last = 0 and M/2 planes are not Hermitian,
        `hermitize` equals the real round trip rfftn(irfftn(x)), which keeps
        only the real field that x stands for."""
        grid = GridSpec(dim, m)
        rng = np.random.default_rng(11)
        shape = grid.coeff_shape
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(dim))
        want = np.fft.rfftn(np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward"),
                            axes=axes, norm="forward")
        got = hermitize(grid, half)
        assert hermitian_defect(grid, half) > 0.1
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert hermitian_defect(grid, got) <= 1e-15


class TestRescale:
    def test_doubles_frequency(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(x))
        out = rescale(grid2_32, f, 1)
        xx, _ = grid2_32.meshgrid()
        assert np.allclose(samples(grid2_32, out), np.cos(2 * xx), atol=1e-13)

    def test_identity(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.sin(3 * x + y))
        out = rescale(grid2_32, f, 0)
        assert np.array_equal(out, f)

    def test_round_trip(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(2 * x) * np.sin(y))
        back = rescale(grid2_32, rescale(grid2_32, f, 1), -1)
        assert np.max(np.abs(back - f)) < 1e-14

    def test_overflow_rejected(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(10 * x))
        with pytest.raises(GridError):
            rescale(grid2_32, f, 1)

    def test_off_lattice_contraction_rejected(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(3 * x))
        with pytest.raises(GridError):
            rescale(grid2_32, f, -1)

    @pytest.mark.parametrize("m, peak, small, lost", [
        (1, (1, 1), (2, 3), (0, 10)),  # (0, 10) would land on k_last 20 > M/2
        (-1, (2, 2), (4, 6), (1, 1)),  # (1, 1) is off the 2-sub-lattice
    ], ids=["m1", "m-1"])
    def test_rounding_level_content_moves(self, grid2_32, m, peak, small, lost):
        """A coefficient below 1e-13 of its component's peak is exempt from
        the band checks, not deleted: it moves with the rest where the
        dilation places it, and is dropped only where it cannot."""
        f = np.zeros(grid2_32.coeff_shape, complex)
        f[peak], f[small], f[lost] = 1.0, 5e-14, 1e-15
        out = rescale(grid2_32, f, m)

        def moved(idx):
            return tuple(int(i * 2.0 ** m) for i in idx)

        assert np.count_nonzero(out) == 2
        assert out[moved(peak)] == 1.0 and out[moved(small)] == 5e-14


class TestOperatorAlgebra:
    def test_field_arithmetic(self, grid2_32):
        f = field_of(grid2_32, lambda x, y: np.cos(x))
        g = field_of(grid2_32, lambda x, y: np.sin(y))
        combo = 2.0 * f + g - f
        xx, yy = grid2_32.meshgrid()
        assert np.allclose(samples(grid2_32, combo), np.cos(xx) + np.sin(yy),
                           atol=1e-12)

    def test_grid_mismatch_rejected(self, grid2_32):
        other = GridSpec(2, 16)
        with pytest.raises(GridError):
            lp_norm(grid2_32, np.zeros(other.coeff_shape, complex), 2.0)
