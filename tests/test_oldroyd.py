import re

import numpy as np
import pytest

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
    FluidState,
    PhysicalParams,
    compute_pressure,
    constraint_residuals,
    deformation_identity_residual,
    make_initial_data,
    momentum_forcing,
    phi_iteration,
    run,
    run_coupled,
    stacked_tensor_to_velocity,
    stacked_velocity_to_tensor,
    step,
    zero_state,
    _DirectStepper,
    _Stepper,
    _identity_quadratic,
)
from besovlab.randfields import random_scalar, random_solenoidal
from besovlab.spectral import (
    GridSpec,
    GridError,
    SpectralField,
    advect,
    dealias,
    dealiased,
    derivative,
    divergence,
    forward_transform,
    gradient_samples,
    grid_wavenumbers,
    inverse_transform,
    lambda_power,
    leray_project,
    product,
    samples,
    stacked_divergence,
    stacked_gradient,
    zero_field,
)

from conftest import field_of, full_spectrum, full_spectrum_norm, l2_of_samples, stack

PARAMS = PhysicalParams(mu=1.0, sigma_floor=0.1)


def state_l2(a: FluidState, b: FluidState) -> float:
    """Rectangle-rule L2 distance of every sampled field of two states."""
    return l2_of_samples(a.grid, samples(a.grid, a.coeffs - b.coeffs))


class TestFluidState:
    """A state is one stacked array; its fields are views into it."""

    def test_wrong_shape_raises(self, grid2_32):
        with pytest.raises(GridError):
            FluidState(grid2_32, np.zeros((6,) + grid2_32.coeff_shape, dtype=complex))

    @pytest.mark.parametrize("dim, m, half", [(2, 32, "(32, 17)"), (3, 16, "(16, 16, 9)")],
                             ids=["2d", "3d"])
    def test_full_layout_rejected(self, dim, m, half):
        """Coefficients over every mode k, shape (..., M, ..., M), are not a
        field: the error names the k_last >= 0 half it expects."""
        grid = GridSpec(dim, m)
        full = (2,) + grid.shape
        with pytest.raises(GridError, match=re.escape(half)):
            SpectralField(grid, np.zeros(full, dtype=complex))
        with pytest.raises(GridError, match=re.escape(half)):
            FluidState(grid, np.zeros((1 + dim + dim * dim,) + grid.shape, dtype=complex))

    def test_field_views_write_the_state(self, grid2_32):
        st = zero_state(grid2_32)
        st.velocity[1].coeffs[1, 0] = 2.0
        st.h[1][0].coeffs[0, 1] = 3.0
        assert st.coeffs[2, 1, 0] == 2.0 and st.coeffs[5, 0, 1] == 3.0
        st.sigma = field_of(grid2_32, lambda x, y: np.cos(x))
        assert st.coeffs[0, 1, 0] == pytest.approx(0.5, abs=1e-15)
        st.h = stack([[st.sigma, zero_field(grid2_32)], [zero_field(grid2_32), st.sigma]])
        assert np.array_equal(st.coeffs[3], st.coeffs[0]) and not st.coeffs[4].any()
        with pytest.raises(TypeError):
            st.h[0][0] = zero_field(grid2_32)

    @pytest.mark.parametrize("dim, m", [(2, 32), (3, 16)], ids=["2d", "3d"])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF], ids=["p1", "p2", "pinf"])
    def test_h_norms_match_the_flat_rows(self, dim, m, p):
        """The norms of `st.h` (n, n, *grid) are those of the same rows as one
        (n^2, *grid) stack, bitwise: the components combine in one order."""
        grid = GridSpec(dim, m)
        st, _ = make_initial_data("general", 0.05, 5, grid)
        flat = SpectralField(grid, st.coeffs[1 + dim:])
        spec = BesovSpec(dim / 2.0, p, 1.0)
        assert besov_norm(st.h, spec).value == besov_norm(flat, spec).value
        assert np.array_equal(block_lp(st.h, p), block_lp(flat, p))
        times = [0.0, 1.0]
        assert np.array_equal(norm_series(times, [st.h, 2.0 * st.h], p).values,
                              norm_series(times, [flat, 2.0 * flat], p).values)

    @pytest.mark.parametrize("evolve", [
        lambda st, tg: run(st, PARAMS, tg),
        lambda st, tg: phi_iteration(st, PARAMS, tg, max_outer=1, tol=1.0),
    ], ids=["run", "phi_iteration"])
    def test_evolution_leaves_initial_state_alone(self, grid2_32, evolve):
        st, _ = make_initial_data("general", 1e-2, 5, grid2_32)
        before = st.coeffs.copy()
        res = evolve(st, TimeGrid(0.02, 5e-3, save_stride=2))
        assert np.array_equal(st.coeffs, before)
        assert not any(np.shares_memory(s.coeffs, st.coeffs) for s in res.states)
        assert not np.array_equal(res.states[-1].coeffs, before)


class TestInitialData:
    def test_zero_amplitude(self, grid2_32):
        st, rep = make_initial_data("exact_gradient", 0.0, 1, grid2_32)
        assert np.max(np.abs(st.sigma.coeffs)) == 0.0
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
        assert np.max(np.abs(st.sigma.coeffs)) > 0.0
        assert rep.div_velocity <= 1e-12
        assert rep.weighted_div <= 1e-10

    def test_unknown_family(self, grid2_32):
        with pytest.raises(ValueError):
            make_initial_data("other", 1e-2, 3, grid2_32)


def forcing_and_pressure(st):
    """The momentum forcing G of a state (stacked) and its pressure solve."""
    n = st.grid.dim
    terms, s, _ = momentum_forcing(st.grid, st.coeffs, PARAMS.mu)
    g = terms[1:1 + n]
    return g, compute_pressure(st.grid, s[0], g)


class TestPressure:
    def test_zero_state(self, grid2_32):
        _, res = forcing_and_pressure(zero_state(grid2_32))
        assert all(np.max(np.abs(g.coeffs)) == 0.0 for g in res.gradient)

    def test_constant_density_matches_leray_pressure(self, grid2_32):
        # sigma = 0 reduces to P = inv-Lap div G, i.e. grad P is the
        # multiplier -grad Lam^{-2} applied to div G
        st, _ = make_initial_data("exact_gradient", 1e-2, 5, grid2_32)
        g, res = forcing_and_pressure(st)
        grad = res.gradient
        div_g = divergence(SpectralField(grid2_32, g))
        explicit = [-1.0 * derivative(lambda_power(div_g, -2.0), ax)
                    for ax in range(2)]
        scale = max(np.max(np.abs(f.coeffs)) for f in explicit)
        for got, want in zip(grad, explicit):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * max(scale, 1e-30)

    def test_manufactured_residual(self, grid2_32):
        st, _ = make_initial_data("general", 5e-2, 7, grid2_32)
        g, res = forcing_and_pressure(st)
        div_g = divergence(SpectralField(grid2_32, g))
        fnorm = full_spectrum_norm(div_g)
        assert res.residuals[-1] <= 1e-10 * fnorm


class TestStep:
    def test_zero_state_fixed(self, grid2_32):
        out = step(zero_state(grid2_32), PARAMS, 1e-2)
        assert np.max(np.abs(out.sigma.coeffs)) == 0.0
        assert all(np.max(np.abs(v.coeffs)) == 0.0 for v in out.velocity)

    def test_isotropic_tensor_is_steady(self, grid2_32):
        # h = c I has zero divergence, zero stress coupling, and no
        # velocity to stretch it: a fixed point to roundoff
        st = zero_state(grid2_32)
        c = 0.3
        for i in range(2):
            st.h[i][i].coeffs[...] = forward_transform(grid2_32, np.full(grid2_32.shape, c)).coeffs
        out = step(st, PARAMS, 1e-2)
        assert state_l2(out, st) <= 1e-13

    def test_density_floor_abort(self, grid2_32):
        st = zero_state(grid2_32)
        st.sigma = field_of(grid2_32, lambda x, y: -0.95 + 0.0 * x)
        with pytest.raises(DensityFloorError):
            step(st, PARAMS, 1e-2)

    def test_transport_conserves_means(self, grid2_32):
        # advection by a solenoidal field is mean-free, so sigma's mean is
        # conserved by the full step and h's by pure transport (stretch
        # source switched off)
        from besovlab.linsolve import solve_transport

        st, _ = make_initial_data("general", 1e-2, 11, grid2_32)
        mean_sigma = st.sigma.mean
        out = st
        for _ in range(10):
            out = step(out, PARAMS, 5e-3)
        assert out.sigma.mean == pytest.approx(mean_sigma, abs=1e-12)

        rng = np.random.default_rng(11)
        vel = 0.05 * random_solenoidal(grid2_32, rng)
        h_rows = SpectralField(grid2_32, st.coeffs[3:])  # h^{00}, h^{01}, ...
        means_h = [f.mean for f in h_rows]
        res = solve_transport(h_rows, vel, None, TimeGrid(1.0, 5e-3))
        for f, m in zip(res.states[-1], means_h):
            assert abs(f.mean - m) <= 1e-10

    def test_self_convergence_taylor_green(self):
        # sigma = 0, h = 0, single-mode solenoidal start; compare against
        # a doubled-resolution, quartered-step reference
        coarse = GridSpec(2, 16)
        fine = GridSpec(2, 32)
        amp = 0.1

        def tg_state(grid):
            st = zero_state(grid)
            st.velocity = stack([
                amp * field_of(grid, lambda x, y: np.sin(x) * np.cos(y)),
                amp * field_of(grid, lambda x, y: -np.cos(x) * np.sin(y)),
            ])
            return st

        T = 0.25
        res_c = run(tg_state(coarse), PARAMS, TimeGrid(T, 5e-3, save_stride=100))
        res_f = run(tg_state(fine), PARAMS, TimeGrid(T, 1.25e-3, save_stride=1000))
        # compare on the coarse grid's retained modes
        err = 0.0
        norm = 0.0
        # k_last = 1..7 also stand for -k; k_last = 8 stands for -8
        weight = np.r_[1.0, np.full(7, 2.0), 1.0]
        for vc, vf in zip(res_c.states[-1].velocity, res_f.states[-1].velocity):
            cc = np.fft.fftshift(vc.coeffs, axes=0)
            ff = np.fft.fftshift(vf.coeffs, axes=0)[8:24, :9]
            err += np.sum(weight * np.abs(cc - ff) ** 2)
            norm += np.sum(weight * np.abs(ff) ** 2)
        assert np.sqrt(err / norm) <= 1e-6

    def test_twin_run_convergence(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-2, 9, grid2_32)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            finals[dt] = run(st, PARAMS, TimeGrid(0.5, dt, save_stride=10 ** 6)).states[-1]
        d1 = state_l2(finals[4e-3], finals[2e-3])
        d2 = state_l2(finals[2e-3], finals[1e-3])
        assert d1 / d2 >= 3.0


class TestConstraints:
    def test_trivial_state(self, grid2_32):
        st = zero_state(grid2_32)
        st.velocity = stack([amp * f for amp, f in
                             zip([1e-2, 1e-2], random_solenoidal(
                                 grid2_32, np.random.default_rng(1)))])
        res = constraint_residuals(st)
        assert res.div_velocity <= 1e-12
        assert res.weighted_div <= 1e-12
        assert res.deformation_identity == 0.0
        assert res.perturbation_identity == 0.0

    def test_gradient_h_quadratic_scaling(self, grid2_32):
        vals = {}
        for eps in (1e-2, 5e-3):
            st, _ = make_initial_data("exact_gradient", eps, 13, grid2_32)
            vals[eps] = constraint_residuals(st).perturbation_identity
        ratio = vals[1e-2] / vals[5e-3]
        assert 3.2 <= ratio <= 4.8

    def test_identities_coincide_for_perturbation(self, grid2_32):
        # expanding U = I + h makes the two tensor identities literally
        # the same expression
        st, _ = make_initial_data("general", 2e-2, 15, grid2_32)
        res = constraint_residuals(st)
        assert res.deformation_identity == pytest.approx(
            res.perturbation_identity, rel=1e-12)

    def test_both_div_conventions_reported(self, grid2_32):
        st, _ = make_initial_data("general", 1e-2, 17, grid2_32)
        res = constraint_residuals(st)
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
            final = run(st, PARAMS, TimeGrid(1.0, dt, save_stride=10 ** 6)).states[-1]
            fields[dt] = deformation_identity_residual(final.h)
        ref = fields[2e-3]
        d1 = l2_norm((fields[8e-3] - ref).coeffs, grid2_32)
        d2 = l2_norm((fields[4e-3] - ref).coeffs, grid2_32)
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
        fields = FluidState(grid3_16, np.stack(
            [forward_transform(grid3_16, f[0]).coeffs
             for f in [sig] + vel + [f for row in h for f in row]]))
        return sig, vel, h, fields

    @staticmethod
    def assert_matches(grid, got, want_samples):
        want = [forward_transform(grid, w).coeffs for w in want_samples]
        scale = max(np.max(np.abs(w)) for w in want)
        for g, w in zip(got, want):
            assert np.max(np.abs(g.coeffs - w)) <= 1e-12 * scale

    def test_momentum_forcing(self, grid3_16, data):
        sig, vel, h, fields = data
        n, mu = 3, 0.7
        want = []
        for i in range(n):
            acc = mu * sig[0] * vel[i][2]
            for l in range(n):
                acc = acc - vel[l][0] * vel[i][1][l] + h[i][l][1][l]
                for k in range(n):
                    acc = acc + h[l][k][0] * h[i][k][1][l]
            want.append(acc)
        got = SpectralField(grid3_16, momentum_forcing(grid3_16, fields.coeffs, mu)[0][1:1 + n])
        self.assert_matches(grid3_16, got, want)

    def test_deformation_identity(self, grid3_16, data):
        _, _, h, fields = data
        n = 3
        want = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = h[i][j][1][k] - h[i][k][1][j]
                    for l in range(n):
                        acc = acc + h[l][k][0] * h[i][j][1][l] - h[l][j][0] * h[i][k][1][l]
                    want.append(acc)
        self.assert_matches(grid3_16, deformation_identity_residual(fields.h), want)


class TestRun:
    def test_zero_data(self, grid2_32):
        res = run(zero_state(grid2_32), PARAMS, TimeGrid(0.1, 0.01, save_stride=2))
        assert all(v == 0.0 for name in ("sigma", "velocity", "h", "pressure_grad")
                   for v in norm_series(res.times, [getattr(st, name) for st in res.states])
                   .values.ravel())
        assert all(besov_norm(st.velocity, BesovSpec(0.0)).value == 0.0 for st in res.states)

    def test_small_data_completes(self, grid2_32):
        st, _ = make_initial_data("general", 1e-3, 19, grid2_32)
        res = run(st, PARAMS, TimeGrid(0.2, 5e-3, save_stride=8))
        assert np.isfinite(norm_series(res.times, [st.velocity for st in res.states]).values).all()
        assert max(r["div_velocity"] for r in res.residual_rows) <= 1e-10


class TestSharedIntegration:
    @pytest.mark.parametrize("evolve", [
        lambda st, tg: solve_transport(st.sigma, st.velocity, None, tg),
        lambda st, tg: solve_heat(st.velocity, None, 1.0, tg),
        lambda st, tg: solve_coupled(st.velocity, st.velocity, None, None, None,
                                     1.0, tg),
        lambda st, tg: run(st, PARAMS, tg),
        lambda st, tg: run_coupled(st, PARAMS, tg),
        lambda st, tg: phi_iteration(st, PARAMS, tg, max_outer=1, tol=1.0),
    ], ids=["solve_transport", "solve_heat", "solve_coupled", "run", "run_coupled",
            "phi_iteration"])
    def test_save_schedule_stride_not_dividing_steps(self, grid2_32, evolve):
        # 7 steps, stride 3: saves at steps 0, 3, 6 and the last one, 7
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        tg = TimeGrid(7e-3, 1e-3, save_stride=3)
        assert tg.save_steps() == [0, 3, 6, 7]
        res = evolve(st, tg)
        assert list(res.times) == pytest.approx([0.0, 3e-3, 6e-3, 7e-3], abs=1e-15)
        assert len(res.states) == 4

    def test_density_floor_in_both_formulations(self, grid2_32):
        st, _ = make_initial_data("general", 0.2, 5, grid2_32)
        floor = float(inverse_transform(st.sigma).min()) + 1.0 + 0.01
        params = PhysicalParams(mu=1.0, sigma_floor=floor)
        for evolve in (run, run_coupled):
            with pytest.raises(DensityFloorError):
                evolve(st, params, TimeGrid(0.01, 5e-3))


class TestCoupledFormulation:
    def test_tensor_map_zero(self, grid2_32):
        v = stack([zero_field(grid2_32), zero_field(grid2_32)])
        d = stacked_velocity_to_tensor(grid2_32, v.coeffs)
        assert d.shape[:2] == (2, 2) and np.max(np.abs(d)) == 0.0

    def test_round_trip(self, grid2_32):
        rng = np.random.default_rng(25)
        v = random_solenoidal(grid2_32, rng)
        back = stacked_tensor_to_velocity(grid2_32,
                                          stacked_velocity_to_tensor(grid2_32, v.coeffs))
        for a, b in zip(back, v):
            assert np.max(np.abs(a - b.coeffs)) <= 1e-12

    def test_hand_multiplier_single_mode(self, grid2_32):
        # v = (0, e^{ix}) projected solenoidal stays (0, e^{ix});
        # d^{ij} = -i k_j / |k| v^i at k = (1, 0)
        v = stack([zero_field(grid2_32), zero_field(grid2_32)])
        v[1].coeffs[1, 0] = 1.0
        v[1].coeffs[-1, 0] = 1.0  # keep it a real field
        v = leray_project(v)
        d = stacked_velocity_to_tensor(grid2_32, v.coeffs)
        assert d[1, 0][1, 0] == pytest.approx(-1.0j, abs=1e-13)
        assert np.max(np.abs(d[0, 0])) < 1e-13
        assert np.max(np.abs(d[1, 1])) < 1e-13

    def test_rejects_nonzero_mean(self, grid2_32):
        v = stack([forward_transform(grid2_32, np.full(grid2_32.shape, 1.0)),
                   zero_field(grid2_32)])
        with pytest.raises(ValueError):
            stacked_velocity_to_tensor(grid2_32, v.coeffs)

    @pytest.mark.parametrize("dim, m, t_end", [(2, 32, 0.2), (3, 16, 0.02)],
                             ids=["2d", "3d"])
    def test_cross_formulation_agreement(self, dim, m, t_end):
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, GridSpec(dim, m))
        tg = TimeGrid(t_end, 2.5e-3, save_stride=80)
        direct = run(st, PARAMS, tg)
        coupled = run_coupled(st, PARAMS, tg)
        assert state_l2(direct.states[-1], coupled.states[-1]) <= 1e-6


class TestPhiIteration:
    def test_zero_data(self, grid2_32):
        res = phi_iteration(zero_state(grid2_32), PARAMS, TimeGrid(0.1, 0.01))
        assert res.report.converged
        assert res.report.iterations == 1
        assert res.report.distances == [0.0]

    def test_small_data_contracts_and_matches_direct(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        tg = TimeGrid(0.25, 2.5e-3, save_stride=10)
        res = phi_iteration(st, PARAMS, tg, max_outer=10, tol=1e-8)
        assert res.report.converged
        d = res.report.distances
        assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
        direct = run(st, PARAMS, tg)
        assert state_l2(res.states[-1], direct.states[-1]) <= 1e-6

    def test_admissible_monitor_flags(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        spec = AdmissibleSetSpec(R=0.5, eta=0.5, c0e0=1.0, T=0.1)
        res = phi_iteration(st, PARAMS, TimeGrid(0.1, 5e-3), max_outer=4,
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
        phi_iteration(st, PARAMS, TimeGrid(0.02, 0.01), max_outer=1, tol=1.0)
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
        constant = np.repeat(st.coeffs[None], len(times), axis=0)
        first = oldroyd._phi_apply(oldroyd._TrajectoryInterpolant(times, constant),
                                   st, PARAMS, tg)
        reads = []

        class Counting(oldroyd._TrajectoryInterpolant):
            def __call__(self, t, rows=slice(None)):
                reads.append(t)
                return super().__call__(t, rows)

        prev = Counting(times, first)
        got = oldroyd._phi_apply(prev, st, PARAMS, tg)
        # u_at, the transport forcing and the heat forcing
        assert len(reads) == 3 * (2 * tg.n_steps + 1)

        def u_at(t):
            return prev(t)[1:1 + n]

        def h_forcing(t):
            _, u, xi = oldroyd._split(grid, prev(t))
            src = stacked_gradient(grid, u) + dealiased(
                grid, oldroyd._stretch(gradient_samples(grid, u), samples(grid, xi)))
            return src.reshape((n * n,) + u.shape[1:])

        sig = solve_transport(st.sigma, u_at, None, tg, check_divergence=False)
        h_rows = SpectralField(grid, st.coeffs[1 + n:])
        h = solve_transport(h_rows, u_at, h_forcing, tg, check_divergence=False)
        want = np.concatenate([sig.coeffs[:, None], h.coeffs], axis=1)
        have = np.concatenate([got[:, :1], got[:, 1 + n:]], axis=1)
        assert np.max(np.abs(have - want)) <= 1e-14 * np.max(np.abs(want))

    def test_warns_on_large_sigma(self, grid2_32):
        st, _ = make_initial_data("general", 0.5, 5, grid2_32)
        with pytest.warns(UserWarning):
            phi_iteration(st, PARAMS, TimeGrid(0.02, 0.01), max_outer=1, tol=1e-3)


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
        du = samples(grid, stacked_gradient(grid, coeffs[idx]))
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
        dh_i = samples(grid, stacked_gradient(grid, h[i]))  # [k, j] = d_j h^{ik}
        stress[i] = mu * sig_s * lap_v[i] + np.einsum("jk...,kj...->...", h_s, dh_i)
    out = -per_component_advect(grid, vel, arr)
    out[1:1 + n] += dealiased(grid, stress)
    out[1:1 + n] += np.einsum("k...,ik...->i...", ik, h)
    dv = stacked_gradient(grid, vel)
    stretch = dv + dealiased(grid, np.einsum("ik...,kj...->ij...", samples(grid, dv), h_s))
    out[1 + n:] += stretch.reshape((n * n,) + arr.shape[1:])
    return out


def per_row_identity_quadratic(grid, h):
    n = grid.dim
    h_s = samples(grid, h)
    q = np.empty((n,) + h.shape, dtype=np.complex128)
    for i in range(n):
        dh_i = samples(grid, stacked_gradient(grid, h[i]))  # [j, l] = d_l h^{ij}
        a = np.einsum("lk...,jl...->jk...", h_s, dh_i)
        q[i] = dealiased(grid, a - a.swapaxes(0, 1))
    return q


def random_stack(grid, seed, shape):
    rng = np.random.default_rng(seed)
    out = np.empty(shape + grid.coeff_shape, dtype=np.complex128)
    for idx in np.ndindex(shape):
        out[idx] = random_scalar(grid, rng).coeffs
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
        samples; sampling the coefficient field itself gives the same
        potential."""
        grid = grid3_16
        arr = random_stack(grid, 35, (1 + 3 + 9,))
        arr[0] *= 2.0
        a = SpectralField(grid, arr[0].copy())
        a.coeffs[0, 0, 0] += 1.0
        assert 0.5 < inverse_transform(a).min()
        f = -1.0 * divergence(SpectralField(grid, arr[1:4]))
        by_field = solve_variable_poisson(a, f)
        by_samples = solve_variable_poisson(samples(grid, arr)[0] + 1.0, f)
        assert by_samples.iterations == by_field.iterations
        assert_close(by_samples.u, by_field.u, 1e-14)
        # the kept flux is a grad u of the returned potential
        want = np.stack([product(a, g).coeffs for g in by_field.gradient])
        assert_close(by_field.flux, want, 1e-14)
        with pytest.raises(NonPositiveCoefficientError):
            solve_variable_poisson(samples(grid, arr)[0] - 1.0, f)

    @KERNEL_GRIDS
    def test_field_and_array_solves_agree(self, dim, m):
        """The public call on fields and the call a stage makes (coefficient
        samples, the right side of `compute_pressure` as an array) stop at
        the same iterate."""
        grid = GridSpec(dim, m)
        st, _ = make_initial_data("general", 0.05, 5, grid)
        terms, s, _ = momentum_forcing(grid, st.coeffs, PARAMS.mu)
        f = -stacked_divergence(grid, terms[1:1 + dim])
        a = SpectralField(grid, st.coeffs[0].copy())
        a.coeffs[(0,) * dim] += 1.0
        by_field = solve_variable_poisson(a, SpectralField(grid, f))
        by_array = solve_variable_poisson(inverse_transform(a), f)
        assert by_field.iterations == by_array.iterations > 1
        assert np.array_equal(by_field.flux, by_array.flux)
        assert np.array_equal(by_field.u, by_array.u)
        # warm-started from the same potential as a field or as an array
        warm_field = solve_variable_poisson(a, SpectralField(grid, f), tol=1e-13,
                                            warm_start=SpectralField(grid, by_field.u))
        warm_array = solve_variable_poisson(inverse_transform(a), f, tol=1e-13,
                                            warm_start=by_array.u)
        assert warm_field.iterations == warm_array.iterations
        assert np.array_equal(warm_field.flux, warm_array.flux)

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
        stepper.rhs(0.0, st.coeffs)
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


def full_layout_residuals(st: FluidState) -> dict:
    """The constraint residuals written on the full layout one field at a
    time: L2 sums over every mode, rho = 1/(sigma + 1) dealiased, each flux
    entry and each quadratic identity term by `product`."""
    grid, n = st.grid, st.grid.dim
    h = st.h

    def l2(fields):
        return float(np.sqrt(sum(np.sum(np.abs(full_spectrum(grid, f.coeffs)) ** 2)
                                 for f in fields)) * (2 * np.pi) ** (n / 2.0))

    rho = dealias(forward_transform(grid, 1.0 / (inverse_transform(st.sigma) + 1.0)))
    flux = [[product(rho, h[j][i]) for i in range(n)] for j in range(n)]
    weighted = [[derivative(rho, i) + sum((derivative(f[i], j) for j, f in enumerate(rows)),
                                          zero_field(grid)) for i in range(n)]
                for rows in (flux, [list(r) for r in zip(*flux)])]
    identity = []
    for i, j, k in np.ndindex(n, n, n):
        acc = derivative(h[i][j], k) - derivative(h[i][k], j)
        for l in range(n):
            acc = acc + product(h[l][k], derivative(h[i][j], l)) \
                - product(h[l][j], derivative(h[i][k], l))
        identity.append(acc)
    return {"div_velocity": l2([divergence(st.velocity)]),
            "weighted_div": l2(weighted[0]), "weighted_div_transposed": l2(weighted[1]),
            "deformation_identity": l2(identity), "perturbation_identity": l2(identity)}


class TestSampledMonitors:
    """A save's monitors read the samples of its state's first stage; the
    call without them samples the state itself.  Both agree with the
    residuals written on the full layout."""

    @KERNEL_GRIDS
    @pytest.mark.parametrize("runner", [run, run_coupled], ids=["direct", "coupled"])
    def test_save_residuals(self, dim, m, runner):
        st, _ = make_initial_data("general", 0.05, 5, GridSpec(dim, m))
        res = runner(st, PARAMS, TimeGrid(0.01, 5e-3))
        assert len(res.residual_rows) == 3
        for row, saved in zip(res.residual_rows, res.states):
            row = {k: v for k, v in row.items() if k != "time"}
            assert row == constraint_residuals(saved).as_dict()
            for name, want in full_layout_residuals(saved).items():
                assert abs(row[name] - want) <= 1e-14 * max(1.0, want), name

    def test_samples_are_the_first_stage(self, grid2_32, monkeypatch):
        """Each save hands the monitors the (s, ds) its first stage formed,
        and no saved state keeps them."""
        st, _ = make_initial_data("general", 0.05, 5, grid2_32)
        seen = []
        monitors = oldroyd.constraint_residuals
        monkeypatch.setattr(oldroyd, "constraint_residuals",
                            lambda st, sampled=None: seen.append(sampled)
                            or monitors(st, sampled))
        res = run(st, PARAMS, TimeGrid(0.01, 5e-3))
        assert len(seen) == len(res.states) == 3
        for (s, ds), saved in zip(seen, res.states):
            want_s, want_ds = gradient_samples(grid2_32, saved.coeffs, with_samples=True)
            assert np.array_equal(s, want_s) and np.array_equal(ds, want_ds)
            assert vars(saved).keys() == {"grid", "coeffs", "pressure_grad"}


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
        res = run(st, PARAMS, TimeGrid(0.02, 5e-3, save_stride=2))
        assert len(res.states) == 3
        # 4 steps of 4 stages, and the first stage of the last save, which
        # no step follows: every pressure solve is a stage's
        assert len(stages) == 17 and len(pressures) == 17 and len(forcings) == 17
        want = forcing_and_pressure(st)[1].gradient
        for g, w in zip(res.states[0].pressure_grad, want):
            assert_close(g.coeffs, w.coeffs, 1e-12)

    def test_coupled_save_converts_once(self, grid2_32, monkeypatch):
        """A coupled save converts its array to the direct state once: the
        first stage it runs reads that state.  Over n steps saved at every
        step: one projection of the initial velocity, one per save, and one
        per stage that no save ran (3 a step)."""
        calls = []
        project = oldroyd.stacked_leray
        monkeypatch.setattr(oldroyd, "stacked_leray",
                            lambda grid, v: calls.append(1) or project(grid, v))
        st, _ = make_initial_data("general", 0.05, 5, grid2_32)
        tg = TimeGrid(0.01, 5e-3)
        res = run_coupled(st, PARAMS, tg)
        n = tg.n_steps
        assert len(res.states) == n + 1
        assert len(calls) == 1 + (n + 1) + 3 * n

    @pytest.mark.parametrize("runner", [run, run_coupled], ids=["direct", "coupled"])
    def test_save_stride_leaves_trajectory_unchanged(self, grid2_32, runner):
        st, _ = make_initial_data("general", 0.05, 5, grid2_32)
        every = runner(st, PARAMS, TimeGrid(0.02, 5e-3, save_stride=1))
        ends = runner(st, PARAMS, TimeGrid(0.02, 5e-3, save_stride=4))
        a, b = every.states[-1], ends.states[-1]
        for x, y in zip([a.sigma, a.velocity, a.h, a.pressure_grad],
                        [b.sigma, b.velocity, b.h, b.pressure_grad]):
            assert np.array_equal(x.coeffs, y.coeffs)
