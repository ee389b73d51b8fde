import re

import numpy as np
import pytest
import scipy.linalg

from besovlab import oldroyd
from besovlab.linsolve import (
    NonPositiveCoefficientError,
    TimeGrid,
    solve_coupled,
    solve_heat,
    solve_transport,
    solve_variable_poisson,
)
from besovlab.norms import INF, BesovSpec, besov_norm, block_lp, l2_norm, norm_series
from besovlab.oldroyd import (
    AdmissibleSetSpec,
    DensityFloorError,
    PhysicalParams,
    compute_pressure,
    constraint_residuals,
    deformation_identity_residual,
    make_initial_data,
    momentum_forcing,
    phi_iteration,
    run,
    run_coupled,
    split_state,
    stacked_tensor_to_velocity,
    stacked_velocity_to_tensor,
    _DirectStepper,
    _Stepper,
    _identity_quadratic,
)
from besovlab.randfields import random_scalar, random_solenoidal
from besovlab.spectral import (
    GridSpec,
    GridError,
    advect,
    dealiased,
    divergence,
    forward_transform,
    gradient,
    gradient_samples,
    grid_wavenumbers,
    lambda_multiplier,
    leray_project,
    samples,
)

from conftest import field_of, field_product, full_spectrum, full_spectrum_norm, l2_of_samples

PARAMS = PhysicalParams(mu=1.0, sigma_floor=0.1)


def blank_state(grid):
    """The stacked array (1 + n + n^2, *grid) of the zero state."""
    n = grid.dim
    return np.zeros((1 + n + n * n,) + grid.coeff_shape, dtype=complex)


def state_l2(grid, a, b) -> float:
    """Rectangle-rule L2 distance of every sampled field of two states."""
    return l2_of_samples(grid, samples(grid, a - b))


SHAPE_CHECKED = pytest.mark.parametrize("call", [
    lambda grid, st: run(grid, st, PARAMS, TimeGrid(0.01, 5e-3)),
    lambda grid, st: run_coupled(grid, st, PARAMS, TimeGrid(0.01, 5e-3)),
    lambda grid, st: phi_iteration(grid, st, PARAMS, TimeGrid(0.01, 5e-3)),
    lambda grid, st: constraint_residuals(grid, st),
], ids=["run", "run_coupled", "phi_iteration", "constraint_residuals"])


class TestStateArray:
    """A state is one stacked array, passed with its grid; `split_state`
    gives its fields as views into it."""

    @SHAPE_CHECKED
    @pytest.mark.parametrize("dim, m", [(2, 32), (3, 16)], ids=["2d", "3d"])
    @pytest.mark.parametrize("layout", ["full", "components"])
    def test_wrong_shape_raises(self, call, dim, m, layout):
        """A full-layout array (every mode k, shape (..., M, ..., M)) or one
        with a wrong component count is not a state: the error names the
        shape given and the shape expected."""
        grid = GridSpec(dim, m)
        want = (1 + dim + dim * dim,) + grid.coeff_shape
        given = want[:1] + grid.shape if layout == "full" else (dim,) + grid.coeff_shape
        with pytest.raises(GridError, match=re.escape(str(given)) + ".*" + re.escape(str(want))):
            call(grid, np.zeros(given, dtype=complex))

    def test_split_state_views_write_the_state(self, grid2_32):
        st = blank_state(grid2_32)
        sigma, vel, h = split_state(grid2_32, st)
        vel[1][1, 0] = 2.0
        h[1][0][0, 1] = 3.0
        assert st[2, 1, 0] == 2.0 and st[5, 0, 1] == 3.0
        sigma[...] = field_of(grid2_32, lambda x, y: np.cos(x))
        assert st[0, 1, 0] == pytest.approx(0.5, abs=1e-15)
        h[...] = np.stack([[sigma, np.zeros(grid2_32.coeff_shape, complex)],
                           [np.zeros(grid2_32.coeff_shape, complex), sigma]])
        assert np.array_equal(st[3], st[0]) and not st[4].any()
        h[0][0] = np.zeros(grid2_32.coeff_shape, complex)
        assert not st[3].any()

    @pytest.mark.parametrize("dim, m", [(2, 32), (3, 16)], ids=["2d", "3d"])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF], ids=["p1", "p2", "pinf"])
    def test_h_norms_match_the_flat_rows(self, dim, m, p):
        """The norms of h (n, n, *grid) are those of the same rows as one
        (n^2, *grid) stack, bitwise: the components combine in one order."""
        grid = GridSpec(dim, m)
        st, _ = make_initial_data("general", 0.05, 5, grid)
        h, flat = split_state(grid, st)[2], st[1 + dim:]
        spec = BesovSpec(dim / 2.0, p, 1.0)
        assert besov_norm(grid, h, spec).value == besov_norm(grid, flat, spec).value
        assert np.array_equal(block_lp(grid, h, p), block_lp(grid, flat, p))
        times = [0.0, 1.0]
        assert np.array_equal(norm_series(grid, times, [h, 2.0 * h], p).values,
                              norm_series(grid, times, [flat, 2.0 * flat], p).values)

    @pytest.mark.parametrize("evolve", [
        lambda grid, st, tg: run(grid, st, PARAMS, tg),
        lambda grid, st, tg: phi_iteration(grid, st, PARAMS, tg, max_outer=1, tol=1.0),
    ], ids=["run", "phi_iteration"])
    def test_evolution_leaves_initial_state_alone(self, grid2_32, evolve):
        st, _ = make_initial_data("general", 1e-2, 5, grid2_32)
        before = st.copy()
        res = evolve(grid2_32, st, TimeGrid(0.02, 5e-3, save_stride=2))
        assert np.array_equal(st, before)
        assert not np.shares_memory(res.coeffs, st)
        assert not np.array_equal(res.coeffs[-1], before)


class TestInitialData:
    def test_zero_amplitude(self, grid2_32):
        st, rep = make_initial_data("exact_gradient", 0.0, 1, grid2_32)
        assert np.max(np.abs(st)) == 0.0
        assert rep.div_velocity == 0.0
        assert rep.deformation_identity == 0.0

    def test_exact_gradient_constraints(self, grid2_32):
        st, rep = make_initial_data("exact_gradient", 1e-2, 3, grid2_32)
        assert rep.div_velocity <= 1e-12
        assert rep.weighted_div <= 1e-12
        assert rep.deformation_identity > 0.0

    def test_quadratic_residual_scaling(self, grid2_32):
        _, rep1 = make_initial_data("exact_gradient", 1e-2, 3, grid2_32)
        _, rep2 = make_initial_data("exact_gradient", 5e-3, 3, grid2_32)
        ratio = rep1.deformation_identity / rep2.deformation_identity
        assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2

    def test_general_family_restores_weighted_div(self, grid2_32):
        st, rep = make_initial_data("general", 1e-2, 3, grid2_32)
        assert np.max(np.abs(st[0])) > 0.0
        assert rep.div_velocity <= 1e-12
        assert rep.weighted_div <= 1e-10

    def test_unknown_family(self, grid2_32):
        with pytest.raises(ValueError):
            make_initial_data("other", 1e-2, 3, grid2_32)

    def test_restore_rejects_non_finite_sigma(self, grid2_32):
        st, _ = make_initial_data("general", 1e-2, 3, grid2_32)
        st[0, 1, 0] = np.nan  # every sample of sigma0 is NaN
        with pytest.raises(NonPositiveCoefficientError,
                           match=re.escape("min(1+sigma0) = nan is not finite")):
            oldroyd._restore_weighted_div(grid2_32, st)


def forcing_and_pressure(grid, st):
    """The momentum forcing G of a stacked state and its pressure solve."""
    terms, s, _ = momentum_forcing(grid, st, PARAMS.mu)
    g = terms[1:1 + grid.dim]
    return g, compute_pressure(grid, s[0], g)


class TestPressure:
    def test_zero_data(self, grid2_32):
        _, res = forcing_and_pressure(grid2_32, blank_state(grid2_32))
        assert all(np.max(np.abs(g)) == 0.0 for g in gradient(grid2_32, res.u))

    def test_constant_density_matches_leray_pressure(self, grid2_32):
        # sigma = 0 reduces to P = inv-Lap div G, i.e. grad P is the
        # multiplier -grad Lam^{-2} applied to div G
        st, _ = make_initial_data("exact_gradient", 1e-2, 5, grid2_32)
        g, res = forcing_and_pressure(grid2_32, st)
        grad = gradient(grid2_32, res.u)
        div_g = divergence(grid2_32, g)
        grad_p = gradient(grid2_32, div_g * lambda_multiplier(grid2_32, -2.0))
        explicit = [-1.0 * grad_p[..., ax, :, :] for ax in range(2)]
        scale = max(np.max(np.abs(f)) for f in explicit)
        for got, want in zip(grad, explicit):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(scale, 1e-30)

    def test_manufactured_residual(self, grid2_32):
        st, _ = make_initial_data("general", 5e-2, 7, grid2_32)
        g, res = forcing_and_pressure(grid2_32, st)
        div_g = divergence(grid2_32, g)
        fnorm = full_spectrum_norm(grid2_32, div_g)
        assert res.residuals[-1] <= 1e-10 * fnorm


class TestStep:
    def test_zero_data_fixed(self, grid2_32):
        out = run(grid2_32, blank_state(grid2_32), PARAMS, TimeGrid(1e-2, 1e-2)).coeffs[-1]
        sigma, vel, _ = split_state(grid2_32, out)
        assert np.max(np.abs(sigma)) == 0.0
        assert all(np.max(np.abs(v)) == 0.0 for v in vel)

    def test_isotropic_tensor_is_steady(self, grid2_32):
        # h = c I has zero divergence, zero stress coupling, and no
        # velocity to stretch it: a fixed point to roundoff
        st = blank_state(grid2_32)
        c = 0.3
        for i in range(2):
            split_state(grid2_32, st)[2][i][i][...] = forward_transform(
                grid2_32, np.full(grid2_32.shape, c))
        out = run(grid2_32, st, PARAMS, TimeGrid(1e-2, 1e-2)).coeffs[-1]
        assert state_l2(grid2_32, out, st) <= 1e-13

    def test_density_floor_abort(self, grid2_32):
        st = blank_state(grid2_32)
        st[0] = field_of(grid2_32, lambda x, y: -0.95 + 0.0 * x)
        with pytest.raises(DensityFloorError):
            run(grid2_32, st, PARAMS, TimeGrid(1e-2, 1e-2))

    def test_density_floor_rejects_a_nan_sample(self, grid2_32):
        sig_s = np.zeros(grid2_32.shape)
        sig_s[3, 5] = np.nan
        with pytest.raises(DensityFloorError, match=r"min\(sigma\+1\) = nan is not finite"):
            oldroyd._check_floor(sig_s, PARAMS)

    def test_transport_conserves_means(self, grid2_32):
        # advection by a solenoidal field is mean-free, so sigma's mean is
        # conserved by the full step and h's by pure transport (stretch
        # source switched off)
        from besovlab.linsolve import solve_transport

        st, _ = make_initial_data("general", 1e-2, 11, grid2_32)
        mean_sigma = st[0, 0, 0].real
        out = st
        for _ in range(10):
            out = run(grid2_32, out, PARAMS, TimeGrid(5e-3, 5e-3)).coeffs[-1]
        assert out[0, 0, 0].real == pytest.approx(mean_sigma, abs=1e-12)

        rng = np.random.default_rng(11)
        vel = 0.05 * random_solenoidal(grid2_32, rng)
        h_rows = st[3:]  # h^{00}, h^{01}, ...
        means_h = [f[0, 0].real for f in h_rows]
        res = solve_transport(grid2_32, h_rows, lambda t: vel, None,
                              TimeGrid(1.0, 5e-3))
        for f, m in zip(res.coeffs[-1], means_h):
            assert abs(f[0, 0].real - m) <= 1e-10

    def test_self_convergence_taylor_green(self):
        # sigma = 0, h = 0, single-mode solenoidal start; compare against
        # a doubled-resolution, quartered-step reference
        coarse = GridSpec(2, 16)
        fine = GridSpec(2, 32)
        amp = 0.1

        def tg_state(grid):
            st = blank_state(grid)
            st[1:3] = np.stack([
                amp * field_of(grid, lambda x, y: np.sin(x) * np.cos(y)),
                amp * field_of(grid, lambda x, y: -np.cos(x) * np.sin(y)),
            ])
            return st

        T = 0.25
        res_c = run(coarse, tg_state(coarse), PARAMS, TimeGrid(T, 5e-3, save_stride=100))
        res_f = run(fine, tg_state(fine), PARAMS, TimeGrid(T, 1.25e-3, save_stride=1000))
        # compare on the coarse grid's retained modes
        err = 0.0
        norm = 0.0
        # k_last = 1..7 also stand for -k; k_last = 8 stands for -8
        weight = np.r_[1.0, np.full(7, 2.0), 1.0]
        for vc, vf in zip(res_c.coeffs[-1, 1:3], res_f.coeffs[-1, 1:3]):
            cc = np.fft.fftshift(vc, axes=0)
            ff = np.fft.fftshift(vf, axes=0)[8:24, :9]
            err += np.sum(weight * np.abs(cc - ff) ** 2)
            norm += np.sum(weight * np.abs(ff) ** 2)
        assert np.sqrt(err / norm) <= 1e-6

    def test_twin_run_convergence(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-2, 9, grid2_32)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            finals[dt] = run(grid2_32, st, PARAMS,
                             TimeGrid(0.5, dt, save_stride=10 ** 6)).coeffs[-1]
        d1 = state_l2(grid2_32, finals[4e-3], finals[2e-3])
        d2 = state_l2(grid2_32, finals[2e-3], finals[1e-3])
        assert d1 / d2 >= 3.0


class TestConstraints:
    def test_trivial_state(self, grid2_32):
        st = blank_state(grid2_32)
        st[1:3] = np.stack([amp * f for amp, f in
                            zip([1e-2, 1e-2], random_solenoidal(
                                grid2_32, np.random.default_rng(1)))])
        res = constraint_residuals(grid2_32, st)
        assert res.div_velocity <= 1e-12
        assert res.weighted_div <= 1e-12
        assert res.deformation_identity == 0.0
        assert res.perturbation_identity == 0.0

    def test_gradient_h_quadratic_scaling(self, grid2_32):
        vals = {}
        for eps in (1e-2, 5e-3):
            st, _ = make_initial_data("exact_gradient", eps, 13, grid2_32)
            vals[eps] = constraint_residuals(grid2_32, st).perturbation_identity
        ratio = vals[1e-2] / vals[5e-3]
        assert 3.2 <= ratio <= 4.8

    def test_identities_coincide_for_perturbation(self, grid2_32):
        # expanding U = I + h makes the two tensor identities literally
        # the same expression
        st, _ = make_initial_data("general", 2e-2, 15, grid2_32)
        res = constraint_residuals(grid2_32, st)
        assert res.deformation_identity == pytest.approx(
            res.perturbation_identity, rel=1e-12)

    def test_both_div_conventions_reported(self, grid2_32):
        st, _ = make_initial_data("general", 1e-2, 17, grid2_32)
        res = constraint_residuals(grid2_32, st)
        # the row convention is enforced by construction; the transposed
        # contraction is informative only
        assert res.weighted_div <= 1e-10
        assert res.weighted_div_transposed >= 0.0

    def test_residual_refinement_convergence(self, grid2_32):
        # the dt-dependent part of the constraint residuals shrinks at
        # the scheme's order; the data-induced floor is common to all
        # runs and cancels in differences against the finest run
        st, _ = make_initial_data("exact_gradient", 1e-2, 3, grid2_32)
        fields = {}
        for dt in (8e-3, 4e-3, 2e-3):
            final = run(grid2_32, st, PARAMS, TimeGrid(1.0, dt, save_stride=10 ** 6)).coeffs[-1]
            fields[dt] = deformation_identity_residual(grid2_32, split_state(grid2_32, final)[2])
        ref = fields[2e-3]
        d1 = l2_norm(grid2_32, fields[8e-3] - ref)
        d2 = l2_norm(grid2_32, fields[4e-3] - ref)
        assert d1 / d2 >= 3.0


def _trig_field(rng, grid):
    """A few modes with |k_axis| <= 2: samples, analytic gradient and
    Laplacian."""
    x = grid.meshgrid()
    val, lap = np.zeros(grid.shape), np.zeros(grid.shape)
    grad = [np.zeros(grid.shape) for _ in range(grid.dim)]
    for _ in range(3):
        k = rng.integers(-2, 3, size=grid.dim)
        a, b = rng.standard_normal(2)
        phase = sum(k[ax] * x[ax] for ax in range(grid.dim))
        wave = a * np.cos(phase) + b * np.sin(phase)
        val += wave
        lap -= float(k @ k) * wave
        for ax in range(grid.dim):
            grad[ax] += k[ax] * (b * np.cos(phase) - a * np.sin(phase))
    return val, grad, lap


class TestQuadraticTermsOracle:
    """3D closed forms of the momentum forcing and the deformation identity.
    Every factor has |k_axis| <= 2, so each product stays below M/3, the
    two-thirds rule cuts nothing and the spectral terms equal the pointwise
    ones up to rounding; index-order slips in the contractions would not."""

    @pytest.fixture(scope="class")
    def data(self, grid3_16):
        rng = np.random.default_rng(21)
        n = 3
        sig = _trig_field(rng, grid3_16)
        vel = [_trig_field(rng, grid3_16) for _ in range(n)]
        h = [[_trig_field(rng, grid3_16) for _ in range(n)] for _ in range(n)]
        arr = np.stack([forward_transform(grid3_16, f[0])
                        for f in [sig] + vel + [f for row in h for f in row]])
        return sig, vel, h, arr

    @staticmethod
    def assert_matches(grid, got, want_samples):
        want = [forward_transform(grid, w) for w in want_samples]
        scale = max(np.max(np.abs(w)) for w in want)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * scale

    def test_momentum_forcing(self, grid3_16, data):
        sig, vel, h, arr = data
        n, mu = 3, 0.7
        want = []
        for i in range(n):
            acc = mu * sig[0] * vel[i][2]
            for l in range(n):
                acc = acc - vel[l][0] * vel[i][1][l] + h[i][l][1][l]
                for k in range(n):
                    acc = acc + h[l][k][0] * h[i][k][1][l]
            want.append(acc)
        got = momentum_forcing(grid3_16, arr, mu)[0][1:1 + n]
        self.assert_matches(grid3_16, got, want)

    def test_deformation_identity(self, grid3_16, data):
        _, _, h, arr = data
        n = 3
        want = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = h[i][j][1][k] - h[i][k][1][j]
                    for l in range(n):
                        acc = acc + h[l][k][0] * h[i][j][1][l] - h[l][j][0] * h[i][k][1][l]
                    want.append(acc)
        self.assert_matches(grid3_16, deformation_identity_residual(
            grid3_16, split_state(grid3_16, arr)[2]), want)


class TestRun:
    def test_zero_data(self, grid2_32):
        res = run(grid2_32, blank_state(grid2_32), PARAMS, TimeGrid(0.1, 0.01, save_stride=2))
        fields = [[split_state(grid2_32, st)[i] for st in res.coeffs] for i in range(3)]
        assert all(v == 0.0 for per_time in fields + [res.pressure_grad]
                   for v in norm_series(grid2_32, res.times, per_time).values.ravel())
        assert all(besov_norm(grid2_32, st[1:3], BesovSpec(0.0)).value == 0.0
                   for st in res.coeffs)

    def test_small_data_completes(self, grid2_32):
        st, _ = make_initial_data("general", 1e-3, 19, grid2_32)
        res = run(grid2_32, st, PARAMS, TimeGrid(0.2, 5e-3, save_stride=8))
        assert np.isfinite(norm_series(grid2_32, res.times, res.coeffs[:, 1:3]).values).all()
        assert max(r["div_velocity"] for r in res.residual_rows) <= 1e-10


def plane_shear_wave(grid, k, e, sigma, modes, mu, t):
    """The exact plane shear wave at time t: v = e f(xi), h = e (x) k g(xi)
    with xi = k.x, e a unit vector orthogonal to the integer wave vector k,
    and sigma constant.  Transport, the quadratic terms and the pressure
    vanish, and each profile mode m, f = a sin(m xi) and g = A cos(m xi),
    follows a' = -mu (1 + sigma) |k|^2 m^2 a - |k|^2 m A, A' = m a, the
    2x2 linear system solved here by its matrix exponential.  `modes` maps
    m to (a, A) at t = 0.  The coefficients are set directly on the modes
    m k, so the wave is band-limited when m |k_axis| <= M/3."""
    assert k[-1] > 0, f"wave vector {k} needs k_last > 0: the modes are set on that half"
    kk = float(np.dot(k, k))
    arr = blank_state(grid)
    _, vel, h = arr[0], arr[1:1 + grid.dim], arr[1 + grid.dim:]
    arr[0][(0,) * grid.dim] = sigma
    for m, y0 in modes.items():
        mat = np.array([[-mu * (1.0 + sigma) * kk * m * m, -kk * m], [m, 0.0]])
        a, big_a = scipy.linalg.expm(mat * t) @ np.array(y0)
        idx = tuple(m * kj % grid.points_per_axis for kj in k)  # k_last = m k_last > 0
        for i in range(grid.dim):
            vel[i][idx] += -0.5j * a * e[i]
            for j in range(grid.dim):
                h[i * grid.dim + j][idx] += 0.5 * big_a * e[i] * k[j]
    return arr


ENFORCED_RESIDUALS = ("div_velocity", "weighted_div", "deformation_identity",
                      "perturbation_identity")


class TestPlaneShearWave:
    """`run` (2D M 32 and 3D M 16) and `run_coupled` (2D M 32) against the
    exact plane shear wave, mu 0.5, T 0.4, two profile modes.  The bands
    were fixed before the first run: the error ratio per dt halving in
    [14.5, 17.5] (fourth order), and at every save max |grad P| <= 1e-14
    and each enforced residual <= 1e-13.  `phi_iteration` is second order
    (`test_phi_is_second_order`)."""

    MODES = {1: (0.3, 0.1), 2: (0.1, -0.2)}
    WAVE_2D = (1, 2), np.array([2.0, -1.0]) / np.sqrt(5.0)
    WAVE_3D = (1, 1, 1), np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)

    @pytest.mark.parametrize("m, wave, sigma, runner, dts", [
        pytest.param(32, WAVE_2D, 0.0, run, (0.02, 0.01, 0.005, 0.0025), id="0.0"),
        pytest.param(32, WAVE_2D, 0.25, run, (0.02, 0.01, 0.005, 0.0025), id="0.25"),
        pytest.param(16, WAVE_3D, 0.25, run, (0.02, 0.01), id="3d-0.25"),
        pytest.param(32, WAVE_2D, 0.25, run_coupled, (0.02, 0.01, 0.005), id="coupled-0.25"),
    ])
    def test_run_is_fourth_order(self, m, wave, sigma, runner, dts):
        k, e = wave
        grid = GridSpec(len(k), m)
        params, t_end = PhysicalParams(mu=0.5), 0.4
        state0 = plane_shear_wave(grid, k, e, sigma, self.MODES, params.mu, 0.0)
        exact = plane_shear_wave(grid, k, e, sigma, self.MODES, params.mu, t_end)
        errors = []
        for dt in dts:
            res = runner(grid, state0, params, TimeGrid(t_end, dt))
            for grad_p, row in zip(res.pressure_grad, res.residual_rows):
                assert np.max(np.abs(grad_p)) <= 1e-14
                assert max(row[name] for name in ENFORCED_RESIDUALS) <= 1e-13
            errors.append(l2_norm(grid, res.coeffs[-1] - exact))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((14.5 <= ratios) & (ratios <= 17.5)), ratios

    def test_phi_is_second_order(self):
        """`phi_iteration` against the wave: 2D M 32, mu 0.5, sigma 0, the
        profile modes scaled by 1e-2, T 0.2, tol 1e-10, dt 0.02 to 0.005.
        The map reads its frozen trajectory at the half-step stage times by
        linear interpolation, so the fixed point is second order: the band,
        fixed before the first run, is [3.5, 4.5] per dt halving.  The
        enforced residuals stay at rounding, as for `run`."""
        k, e = self.WAVE_2D
        grid = GridSpec(2, 32)
        params, t_end = PhysicalParams(mu=0.5), 0.2
        modes = {m: (1e-2 * a, 1e-2 * big_a) for m, (a, big_a) in self.MODES.items()}
        state0 = plane_shear_wave(grid, k, e, 0.0, modes, params.mu, 0.0)
        exact = plane_shear_wave(grid, k, e, 0.0, modes, params.mu, t_end)
        errors = []
        for dt in (0.02, 0.01, 0.005):
            res = phi_iteration(grid, state0, params, TimeGrid(t_end, dt), tol=1e-10)
            assert res.report.converged and res.pressure_grad is None
            assert max(row[name] for row in res.residual_rows
                       for name in ENFORCED_RESIDUALS) <= 1e-13
            errors.append(l2_norm(grid, res.coeffs[-1] - exact))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


class TestSharedIntegration:
    @pytest.mark.parametrize("evolve", [
        lambda grid, st, tg: solve_transport(grid, st[0], lambda t: st[1:3], None, tg),
        lambda grid, st, tg: solve_heat(grid, st[1:3], None, 1.0, tg),
        lambda grid, st, tg: solve_coupled(grid, st[1:3], st[1:3], None, None, None, 1.0, tg),
        lambda grid, st, tg: run(grid, st, PARAMS, tg),
        lambda grid, st, tg: run_coupled(grid, st, PARAMS, tg),
        lambda grid, st, tg: phi_iteration(grid, st, PARAMS, tg, max_outer=1, tol=1.0),
    ], ids=["solve_transport", "solve_heat", "solve_coupled", "run", "run_coupled",
            "phi_iteration"])
    def test_save_schedule_stride_not_dividing_steps(self, grid2_32, evolve):
        # 7 steps, stride 3: saves at steps 0, 3, 6 and the last one, 7
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        tg = TimeGrid(7e-3, 1e-3, save_stride=3)
        assert tg.save_steps() == [0, 3, 6, 7]
        res = evolve(grid2_32, st, tg)
        assert list(res.times) == pytest.approx([0.0, 3e-3, 6e-3, 7e-3], abs=1e-15)
        assert len(res.coeffs) == 4

    def test_density_floor_in_both_formulations(self, grid2_32):
        st, _ = make_initial_data("general", 0.2, 5, grid2_32)
        floor = float(samples(grid2_32, st[0]).min()) + 1.0 + 0.01
        params = PhysicalParams(mu=1.0, sigma_floor=floor)
        for evolve in (run, run_coupled):
            with pytest.raises(DensityFloorError):
                evolve(grid2_32, st, params, TimeGrid(0.01, 5e-3))


class TestCoupledFormulation:
    def test_tensor_map_zero(self, grid2_32):
        v = np.zeros((2,) + grid2_32.coeff_shape, complex)
        d = stacked_velocity_to_tensor(grid2_32, v)
        assert d.shape[:2] == (2, 2) and np.max(np.abs(d)) == 0.0

    def test_round_trip(self, grid2_32):
        rng = np.random.default_rng(25)
        v = random_solenoidal(grid2_32, rng)
        back = stacked_tensor_to_velocity(grid2_32,
                                          stacked_velocity_to_tensor(grid2_32, v))
        for a, b in zip(back, v):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_hand_multiplier_single_mode(self, grid2_32):
        # v = (0, e^{ix}) projected solenoidal stays (0, e^{ix});
        # d^{ij} = -i k_j / |k| v^i at k = (1, 0)
        v = np.zeros((2,) + grid2_32.coeff_shape, complex)
        v[1][1, 0] = 1.0
        v[1][-1, 0] = 1.0  # keep it a real field
        v = leray_project(grid2_32, v)
        d = stacked_velocity_to_tensor(grid2_32, v)
        assert d[1, 0][1, 0] == pytest.approx(-1.0j, abs=1e-13)
        assert np.max(np.abs(d[0, 0])) < 1e-13
        assert np.max(np.abs(d[1, 1])) < 1e-13

    def test_rejects_nonzero_mean(self, grid2_32):
        v = np.stack([forward_transform(grid2_32, np.full(grid2_32.shape, 1.0)),
                      np.zeros(grid2_32.coeff_shape, complex)])
        with pytest.raises(ValueError):
            stacked_velocity_to_tensor(grid2_32, v)

    @pytest.mark.parametrize("dim, m, t_end", [(2, 32, 0.2), (3, 16, 0.02)],
                             ids=["2d", "3d"])
    def test_cross_formulation_agreement(self, dim, m, t_end):
        grid = GridSpec(dim, m)
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid)
        tg = TimeGrid(t_end, 2.5e-3, save_stride=80)
        direct = run(grid, st, PARAMS, tg)
        coupled = run_coupled(grid, st, PARAMS, tg)
        assert state_l2(grid, direct.coeffs[-1], coupled.coeffs[-1]) <= 1e-6


class TestPhiIteration:
    def test_zero_data(self, grid2_32):
        res = phi_iteration(grid2_32, blank_state(grid2_32), PARAMS, TimeGrid(0.1, 0.01))
        assert res.report.converged
        assert res.report.iterations == 1
        assert res.report.distances == [0.0]

    def test_small_data_contracts_and_matches_direct(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        tg = TimeGrid(0.25, 2.5e-3, save_stride=10)
        res = phi_iteration(grid2_32, st, PARAMS, tg, max_outer=10, tol=1e-8)
        assert res.report.converged
        d = res.report.distances
        assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
        direct = run(grid2_32, st, PARAMS, tg)
        assert state_l2(grid2_32, res.coeffs[-1], direct.coeffs[-1]) <= 1e-6

    def test_admissible_monitor_flags(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        spec = AdmissibleSetSpec(R=0.5, eta=0.5, c0e0=1.0, T=0.1)
        res = phi_iteration(grid2_32, st, PARAMS, TimeGrid(0.1, 5e-3), max_outer=4,
                            tol=1e-7, admissible=spec)
        assert all("in_admissible_set" in m for m in res.report.monitors)
        assert res.report.monitors[-1]["in_admissible_set"]

    def test_pressure_reads_forcing_samples(self, grid2_32, monkeypatch):
        """Each velocity forcing of the map is one `momentum_forcing` and
        one `compute_pressure` whose coefficient is the sigma samples that
        forcing formed, so sigma is sampled once per call."""
        calls = []
        forcing, pressure = oldroyd.momentum_forcing, oldroyd.compute_pressure

        def forcing_spy(*args, **kwargs):
            out = forcing(*args, **kwargs)
            calls.append(("forcing", out[1]))
            return out

        def pressure_spy(grid, sig_s, g, **kwargs):
            calls.append(("pressure", sig_s))
            return pressure(grid, sig_s, g, **kwargs)

        monkeypatch.setattr(oldroyd, "momentum_forcing", forcing_spy)
        monkeypatch.setattr(oldroyd, "compute_pressure", pressure_spy)
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        phi_iteration(grid2_32, st, PARAMS, TimeGrid(0.02, 0.01), max_outer=1, tol=1.0)
        # two applications of the map, each 1 + 2 * 2 forcing evaluations
        assert [kind for kind, _ in calls] == ["forcing", "pressure"] * 10
        for (_, s), (_, sig_s) in zip(calls[::2], calls[1::2]):
            assert np.shares_memory(sig_s, s) and np.array_equal(sig_s, s[0])

    def test_one_stacked_transport(self, grid2_32):
        """One application transports the stacked (sigma, h) rows at once
        (zero forcing on sigma), as the two separate transports written out
        here do, and reads the frozen trajectory once per distinct stage
        time in each of its three callables."""
        grid, n = grid2_32, grid2_32.dim
        st, _ = make_initial_data("exact_gradient", 1e-2, 5, grid)
        tg = TimeGrid(0.05, 2.5e-3)
        times = np.arange(tg.n_steps + 1) * tg.dt
        constant = np.repeat(st[None], len(times), axis=0)
        first = oldroyd._phi_apply(oldroyd._TrajectoryInterpolant(times, constant),
                                   grid, st, PARAMS, tg)
        reads = []

        class Counting(oldroyd._TrajectoryInterpolant):
            def __call__(self, t, rows=slice(None)):
                reads.append(t)
                return super().__call__(t, rows)

        prev = Counting(times, first)
        got = oldroyd._phi_apply(prev, grid, st, PARAMS, tg)
        # u_at, the transport forcing and the heat forcing
        assert len(reads) == 3 * (2 * tg.n_steps + 1)

        def u_at(t):
            return prev(t)[1:1 + n]

        def h_forcing(t):
            _, u, xi = split_state(grid, prev(t))
            src = gradient(grid, u) + dealiased(
                grid, oldroyd._stretch(gradient_samples(grid, u), samples(grid, xi)))
            return src.reshape((n * n,) + u.shape[1:])

        sig = solve_transport(grid, st[0], u_at, None, tg, check_divergence=False)
        h = solve_transport(grid, st[1 + n:], u_at, h_forcing, tg, check_divergence=False)
        want = np.concatenate([sig.coeffs[:, None], h.coeffs], axis=1)
        have = np.concatenate([got[:, :1], got[:, 1 + n:]], axis=1)
        assert np.max(np.abs(have - want)) <= 1e-14 * np.max(np.abs(want))

    def test_warns_on_large_sigma(self, grid2_32):
        st, _ = make_initial_data("general", 0.5, 5, grid2_32)
        with pytest.warns(UserWarning):
            phi_iteration(grid2_32, st, PARAMS, TimeGrid(0.02, 0.01), max_outer=1, tol=1e-3)


class TestAdmissibleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissibleSetSpec(R=1.5, eta=0.5, c0e0=1.0, T=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(mu=-1.0)


# -- the stage kernel ----------------------------------------------------------


def per_component_advect(grid, velocity, coeffs):
    """Dealiased (v . grad) u, the gradient of one component sampled at a time."""
    v = samples(grid, velocity)
    terms = np.empty(coeffs.shape[:-grid.dim] + grid.shape)
    for idx in np.ndindex(coeffs.shape[:-grid.dim]):
        du = samples(grid, gradient(grid, coeffs[idx]))
        terms[idx] = np.einsum("l...,l...->...", v, du)
    return dealiased(grid, terms)


def per_row_fluid_terms(grid, arr, mu):
    """The explicit right side with each quadratic term sampled per row:
    d h^{i.} per momentum row, grad v sampled again for the stretching."""
    n = grid.dim
    ik, k2 = (grid_wavenumbers(grid)[name] for name in ("ik", "k2"))
    sigma, vel, h = arr[0], arr[1:1 + n], arr[1 + n:].reshape((n, n) + arr.shape[1:])
    sig_s, h_s = samples(grid, sigma), samples(grid, h)
    lap_v = samples(grid, -k2 * vel)
    stress = np.empty(lap_v.shape)
    for i in range(n):
        dh_i = samples(grid, gradient(grid, h[i]))  # [k, j] = d_j h^{ik}
        stress[i] = mu * sig_s * lap_v[i] + np.einsum("jk...,kj...->...", h_s, dh_i)
    out = -per_component_advect(grid, vel, arr)
    out[1:1 + n] += dealiased(grid, stress)
    out[1:1 + n] += np.einsum("k...,ik...->i...", ik, h)
    dv = gradient(grid, vel)
    stretch = dv + dealiased(grid, np.einsum("ik...,kj...->ij...", samples(grid, dv), h_s))
    out[1 + n:] += stretch.reshape((n * n,) + arr.shape[1:])
    return out


def per_row_identity_quadratic(grid, h):
    n = grid.dim
    h_s = samples(grid, h)
    q = np.empty((n,) + h.shape, dtype=np.complex128)
    for i in range(n):
        dh_i = samples(grid, gradient(grid, h[i]))  # [j, l] = d_l h^{ij}
        a = np.einsum("lk...,jl...->jk...", h_s, dh_i)
        q[i] = dealiased(grid, a - a.swapaxes(0, 1))
    return q


def random_stack(grid, seed, shape):
    rng = np.random.default_rng(seed)
    out = np.empty(shape + grid.coeff_shape, dtype=np.complex128)
    for idx in np.ndindex(shape):
        out[idx] = random_scalar(grid, rng)
    return out


def assert_close(got, want, tol):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


KERNEL_GRIDS = pytest.mark.parametrize("dim,m", [(2, 32), (3, 16)], ids=["2d_m32", "3d_m16"])


class TestStageKernel:
    """The stage kernel, which samples a stacked state and its whole
    gradient once, against the per-row formulas written out above.  Only
    the order of sums and of the dealiasing differs, so the two agree to
    rounding; a swapped contraction index would not."""

    @KERNEL_GRIDS
    def test_fluid_terms_match_per_row(self, dim, m):
        grid = GridSpec(dim, m)
        arr = random_stack(grid, 31, (1 + dim + dim * dim,))
        got, s, ds = momentum_forcing(grid, arr, 0.7)
        assert_close(got, per_row_fluid_terms(grid, arr, 0.7), 1e-13)
        assert np.array_equal(s, samples(grid, arr))
        assert np.array_equal(ds, gradient_samples(grid, arr))

    @KERNEL_GRIDS
    def test_batched_advect_matches_loop(self, dim, m):
        grid = GridSpec(dim, m)
        vel = random_stack(grid, 32, (dim,))
        coeffs = random_stack(grid, 33, (2 * dim,))
        got = dealiased(grid, advect(grid, samples(grid, vel), gradient_samples(grid, coeffs)))
        assert got.shape == coeffs.shape
        assert_close(got, per_component_advect(grid, vel, coeffs), 1e-13)

    @KERNEL_GRIDS
    def test_identity_quadratic_matches_per_row(self, dim, m):
        grid = GridSpec(dim, m)
        h = random_stack(grid, 34, (dim, dim))
        got = _identity_quadratic(grid, samples(grid, h), gradient_samples(grid, h))
        assert_close(got, per_row_identity_quadratic(grid, h), 1e-13)

    def test_pressure_from_sigma_samples(self, grid3_16):
        """The stage hands the Poisson solve sigma + 1 from its own batched
        samples, and the solve keeps the flux of its potential."""
        grid = grid3_16
        arr = random_stack(grid, 35, (1 + 3 + 9,))
        arr[0] *= 2.0
        a = arr[0].copy()
        a[0, 0, 0] += 1.0
        assert 0.5 < samples(grid3_16, a).min()
        f = -1.0 * divergence(grid, arr[1:4])
        by_samples = solve_variable_poisson(grid, samples(grid, arr)[0] + 1.0, f)
        # the kept flux is a grad u of the returned potential
        want = np.stack([field_product(grid, a, g) for g in gradient(grid, by_samples.u)])
        assert_close(by_samples.flux, want, 1e-14)
        with pytest.raises(NonPositiveCoefficientError):
            solve_variable_poisson(grid, samples(grid, arr)[0] - 1.0, f)

    def test_transform_count(self, grid3_16, monkeypatch):
        """One-dimensional passes over one field, by every `numpy.fft`
        entry point, of one right side of the 3D direct stepper.  The stage
        outside the Poisson solve: the samples and the whole gradient of
        the 13-row state in shared passes (13 x 9), the samples of Lap v
        (3 x 3) and one dealiased call for all rows (13 x 3): 165; each
        Poisson residual: grad u in shared passes (8) and the flux (3 x 3):
        17.  With one `irfftn` for the samples and one per gradient axis,
        the stage took 204 and each residual 18."""
        n = grid3_16.dim
        passes = [0]
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            def counting(x, *args, _fft=getattr(np.fft, name), _nd=name.endswith("n"),
                         **kwargs):
                passes[0] += int(np.prod(np.shape(x)[:-n])) * (n if _nd else 1)
                return _fft(x, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counting)
        in_poisson = []

        def poisson(*args, **kwargs):
            before = passes[0]
            res = solve_variable_poisson(*args, **kwargs)
            in_poisson.append((passes[0] - before, len(res.residuals)))
            return res

        monkeypatch.setattr(oldroyd, "solve_variable_poisson", poisson)
        st, _ = make_initial_data("general", 0.05, 5, grid3_16)
        stepper = _DirectStepper(grid3_16, PARAMS, 5e-3)
        passes[0] = 0
        in_poisson.clear()
        stepper.rhs(0.0, st)
        [(solve, residuals)] = in_poisson
        assert solve == 17 * residuals
        assert passes[0] - solve == 165

    @KERNEL_GRIDS
    def test_momentum_rows_match_all_rows(self, dim, m):
        """The momentum-only kernel (the linearization map's) forms the
        momentum rows from the same arithmetic as the whole right side."""
        grid = GridSpec(dim, m)
        arr = random_stack(grid, 36, (1 + dim + dim * dim,))
        terms, s, ds = momentum_forcing(grid, arr, 0.7)
        rows, s_m, ds_m = momentum_forcing(grid, arr, 0.7, momentum_only=True)
        assert np.array_equal(rows, terms[1:1 + dim])
        assert np.array_equal(s_m, s) and np.array_equal(ds_m, ds)


def full_layout_residuals(grid, st) -> dict:
    """The constraint residuals of a stacked state written on the full
    layout one field at a time: L2 sums over every mode, rho = 1/(sigma + 1)
    dealiased, each flux entry and each quadratic identity term by `product`."""
    n = grid.dim
    sigma, vel, h = split_state(grid, st)

    def l2(fields):
        return float(np.sqrt(sum(np.sum(np.abs(full_spectrum(grid, f)) ** 2)
                                 for f in fields)) * (2 * np.pi) ** (n / 2.0))

    def dx(f, ax):  # d/dx_ax of one field's coefficients
        return gradient(grid, f)[(..., ax) + (slice(None),) * n]

    rho = forward_transform(grid, 1.0 / (samples(grid, sigma) + 1.0))
    rho = rho * grid_wavenumbers(grid)["dealias_mask"]
    flux = [[field_product(grid, rho, h[j][i]) for i in range(n)] for j in range(n)]
    zero = np.zeros(grid.coeff_shape, complex)
    weighted = [[dx(rho, i) + sum((dx(f[i], j) for j, f in enumerate(rows)), zero)
                 for i in range(n)]
                for rows in (flux, [list(r) for r in zip(*flux)])]
    identity = []
    for i, j, k in np.ndindex(n, n, n):
        acc = dx(h[i][j], k) - dx(h[i][k], j)
        for l in range(n):
            acc = acc + field_product(grid, h[l][k], dx(h[i][j], l)) \
                - field_product(grid, h[l][j], dx(h[i][k], l))
        identity.append(acc)
    return {"div_velocity": l2([divergence(grid, vel)]),
            "weighted_div": l2(weighted[0]), "weighted_div_transposed": l2(weighted[1]),
            "deformation_identity": l2(identity), "perturbation_identity": l2(identity)}


class TestSampledMonitors:
    """A save's monitors read the samples of its state's first stage; the
    call without them samples the state itself.  Both agree with the
    residuals written on the full layout."""

    @KERNEL_GRIDS
    @pytest.mark.parametrize("runner", [run, run_coupled], ids=["direct", "coupled"])
    def test_save_residuals(self, dim, m, runner):
        grid = GridSpec(dim, m)
        st, _ = make_initial_data("general", 0.05, 5, grid)
        res = runner(grid, st, PARAMS, TimeGrid(0.01, 5e-3))
        assert len(res.residual_rows) == 3
        for row, saved in zip(res.residual_rows, res.coeffs):
            row = {k: v for k, v in row.items() if k != "time"}
            assert row == constraint_residuals(grid, saved).as_dict()
            for name, want in full_layout_residuals(grid, saved).items():
                assert abs(row[name] - want) <= 1e-14 * max(1.0, want), name

    def test_samples_are_the_first_stage(self, grid2_32, monkeypatch):
        """Each save hands the monitors the (s, ds) its first stage formed,
        and the result keeps none of them."""
        st, _ = make_initial_data("general", 0.05, 5, grid2_32)
        seen = []
        monitors = oldroyd.constraint_residuals
        monkeypatch.setattr(oldroyd, "constraint_residuals",
                            lambda grid, st, sampled=None: seen.append(sampled)
                            or monitors(grid, st, sampled))
        res = run(grid2_32, st, PARAMS, TimeGrid(0.01, 5e-3))
        assert len(seen) == len(res.coeffs) == 3
        for (s, ds), saved in zip(seen, res.coeffs):
            want_s, want_ds = gradient_samples(grid2_32, saved, with_samples=True)
            assert np.array_equal(s, want_s) and np.array_equal(ds, want_ds)
        assert vars(res).keys() == {"times", "coeffs", "pressure_grad", "residual_rows"}


class TestSaveReusesFirstStage:
    """A save needs the pressure of the state the next step starts from;
    that step's first stage solves the same problem with the same warm
    start, so it is solved once."""

    def test_stage_count(self, grid2_32, monkeypatch):
        stages, pressures, forcings = [], [], []
        stage, pressure = _Stepper.stage, oldroyd.compute_pressure
        forcing = oldroyd.momentum_forcing
        monkeypatch.setattr(_Stepper, "stage",
                            lambda self, arr, floor=False: stages.append(1)
                            or stage(self, arr, floor))
        monkeypatch.setattr(oldroyd, "compute_pressure",
                            lambda *a, **k: pressures.append(1) or pressure(*a, **k))
        monkeypatch.setattr(oldroyd, "momentum_forcing",
                            lambda *a, **k: forcings.append(1) or forcing(*a, **k))
        st, _ = make_initial_data("general", 0.05, 5, grid2_32)
        res = run(grid2_32, st, PARAMS, TimeGrid(0.02, 5e-3, save_stride=2))
        assert len(res.coeffs) == 3
        # 4 steps of 4 stages, and the first stage of the last save, which
        # no step follows: every pressure solve is a stage's
        assert len(stages) == 17 and len(pressures) == 17 and len(forcings) == 17
        want = gradient(grid2_32, forcing_and_pressure(grid2_32, st)[1].u)
        for g, w in zip(res.pressure_grad[0], want):
            assert_close(g, w, 1e-12)

    def test_coupled_save_converts_once(self, grid2_32, monkeypatch):
        """A coupled save converts its array to the direct state once: the
        first stage it runs reads that state.  Over n steps saved at every
        step: one projection of the initial velocity, one per save, and one
        per stage that no save ran (3 a step)."""
        calls = []
        project = oldroyd.leray_project
        monkeypatch.setattr(oldroyd, "leray_project",
                            lambda grid, v: calls.append(1) or project(grid, v))
        st, _ = make_initial_data("general", 0.05, 5, grid2_32)
        tg = TimeGrid(0.01, 5e-3)
        res = run_coupled(grid2_32, st, PARAMS, tg)
        n = tg.n_steps
        assert len(res.coeffs) == n + 1
        assert len(calls) == 1 + (n + 1) + 3 * n

    @pytest.mark.parametrize("runner", [run, run_coupled], ids=["direct", "coupled"])
    def test_save_stride_leaves_trajectory_unchanged(self, grid2_32, runner):
        st, _ = make_initial_data("general", 0.05, 5, grid2_32)
        every = runner(grid2_32, st, PARAMS, TimeGrid(0.02, 5e-3, save_stride=1))
        ends = runner(grid2_32, st, PARAMS, TimeGrid(0.02, 5e-3, save_stride=4))
        assert np.array_equal(every.coeffs[-1], ends.coeffs[-1])
        assert np.array_equal(every.pressure_grad[-1], ends.pressure_grad[-1])
