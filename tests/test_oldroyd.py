import numpy as np
import pytest

from besovlab.linsolve import TimeGrid, solve_coupled, solve_heat, solve_transport
from besovlab.norms import BesovSpec
from besovlab.oldroyd import (
    AdmissibleSetSpec,
    CompatibilityReport,
    DensityFloorError,
    FluidState,
    PhysicalParams,
    compute_pressure,
    constraint_residuals,
    deformation_identity_residual,
    make_initial_data,
    momentum_forcing,
    perturbation_identity_residual,
    phi_iteration,
    run,
    run_coupled,
    step,
    tensor_to_velocity,
    transform_to_coupled,
    velocity_to_tensor,
    zero_state,
    _l2_fields,
)
from besovlab.randfields import random_solenoidal
from besovlab.spectral import (
    SpectralField,
    derivative,
    divergence,
    forward_transform,
    inverse_transform,
    lambda_power,
    leray_project,
    make_grid,
    zero_field,
)

from conftest import field_of

PARAMS = PhysicalParams(mu=1.0, sigma_floor=0.1)


def state_l2(a: FluidState, b: FluidState) -> float:
    acc = float(np.sum(np.abs(a.sigma.coeffs - b.sigma.coeffs) ** 2))
    for x, y in zip(a.velocity, b.velocity):
        acc += float(np.sum(np.abs(x.coeffs - y.coeffs) ** 2))
    for x, y in zip(a.h_flat(), b.h_flat()):
        acc += float(np.sum(np.abs(x.coeffs - y.coeffs) ** 2))
    return float(np.sqrt(acc) * (2 * np.pi) ** (a.grid.dim / 2.0))


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

    def test_rejects_sigma_without_h(self, grid2_32):
        with pytest.raises(ValueError):
            make_initial_data("general", 1e-2, 3, grid2_32, h_amplitude=0.0)

    def test_unknown_family(self, grid2_32):
        with pytest.raises(ValueError):
            make_initial_data("other", 1e-2, 3, grid2_32)


class TestPressure:
    def test_zero_state(self, grid2_32):
        grad, res = compute_pressure(zero_state(grid2_32), PARAMS)
        assert all(np.max(np.abs(g.coeffs)) == 0.0 for g in grad)

    def test_constant_density_matches_leray_pressure(self, grid2_32):
        # sigma = 0 reduces to P = inv-Lap div G, i.e. grad P is the
        # multiplier -grad Lam^{-2} applied to div G
        st, _ = make_initial_data("exact_gradient", 1e-2, 5, grid2_32)
        g = momentum_forcing(st.sigma, st.velocity, st.h, PARAMS.mu)
        grad, _ = compute_pressure(st, PARAMS, forcing=g, tol=1e-13)
        div_g = divergence(g)
        explicit = [-1.0 * derivative(lambda_power(div_g, -2.0), ax)
                    for ax in range(2)]
        scale = max(np.max(np.abs(f.coeffs)) for f in explicit)
        for got, want in zip(grad, explicit):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * max(scale, 1e-30)

    def test_manufactured_residual(self, grid2_32):
        st, _ = make_initial_data("general", 5e-2, 7, grid2_32)
        g = momentum_forcing(st.sigma, st.velocity, st.h, PARAMS.mu)
        grad, res = compute_pressure(st, PARAMS, forcing=g, tol=1e-12)
        div_g = divergence(g)
        fnorm = np.sqrt(np.sum(np.abs(div_g.coeffs) ** 2))
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
            st.h[i][i] = forward_transform(grid2_32, np.full(grid2_32.shape, c))
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
        vel = [0.05 * f for f in random_solenoidal(grid2_32, rng)]
        means_h = [f.mean for f in st.h_flat()]
        res = solve_transport(st.h_flat(), vel, None, TimeGrid(1.0, 5e-3))
        for f, m in zip(res.final, means_h):
            assert abs(f.mean - m) <= 1e-10

    def test_self_convergence_taylor_green(self):
        # sigma = 0, h = 0, single-mode solenoidal start; compare against
        # a doubled-resolution, quartered-step reference
        coarse = make_grid(2, 16)
        fine = make_grid(2, 32)
        amp = 0.1

        def tg_state(grid):
            st = zero_state(grid)
            st.velocity = [
                amp * field_of(grid, lambda x, y: np.sin(x) * np.cos(y)),
                amp * field_of(grid, lambda x, y: -np.cos(x) * np.sin(y)),
            ]
            return st

        T = 0.25
        res_c = run(tg_state(coarse), PARAMS, TimeGrid(T, 5e-3, save_stride=100))
        res_f = run(tg_state(fine), PARAMS, TimeGrid(T, 1.25e-3, save_stride=1000))
        # compare on the coarse grid's retained modes
        err = 0.0
        norm = 0.0
        for vc, vf in zip(res_c.final.velocity, res_f.final.velocity):
            half = 8
            cc = np.fft.fftshift(vc.coeffs)
            ff = np.fft.fftshift(vf.coeffs)[8:24, 8:24]
            err += np.sum(np.abs(cc - ff) ** 2)
            norm += np.sum(np.abs(ff) ** 2)
        assert np.sqrt(err / norm) <= 1e-6

    def test_twin_run_convergence(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-2, 9, grid2_32)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            finals[dt] = run(st, PARAMS, TimeGrid(0.5, dt, save_stride=10 ** 6)).final
        d1 = state_l2(finals[4e-3], finals[2e-3])
        d2 = state_l2(finals[2e-3], finals[1e-3])
        assert d1 / d2 >= 3.0


class TestConstraints:
    def test_trivial_state(self, grid2_32):
        st = zero_state(grid2_32)
        st.velocity = [amp * f for amp, f in
                       zip([1e-2, 1e-2], random_solenoidal(
                           grid2_32, np.random.default_rng(1)))]
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
            final = run(st, PARAMS, TimeGrid(1.0, dt, save_stride=10 ** 6)).final
            fields[dt] = perturbation_identity_residual(final.h)
        ref = fields[2e-3]
        d1 = _l2_fields([a - b for a, b in zip(fields[8e-3], ref)], grid2_32)
        d2 = _l2_fields([a - b for a, b in zip(fields[4e-3], ref)], grid2_32)
        assert d1 / d2 >= 3.0


class TestRun:
    def test_zero_data(self, grid2_32):
        res = run(zero_state(grid2_32), PARAMS, TimeGrid(0.1, 0.01, save_stride=2),
                  norm_specs=[("velocity", BesovSpec(0.0))])
        assert all(v == 0.0 for series in res.series.values()
                   for v in series.values.ravel())
        assert all(row["value"] == 0.0 for row in res.norm_rows)

    def test_small_data_completes(self, grid2_32):
        st, _ = make_initial_data("general", 1e-3, 19, grid2_32)
        res = run(st, PARAMS, TimeGrid(0.2, 5e-3, save_stride=8))
        assert np.isfinite(res.series["velocity"].values).all()
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
        d = velocity_to_tensor([zero_field(grid2_32), zero_field(grid2_32)])
        assert all(np.max(np.abs(f.coeffs)) == 0.0 for row in d for f in row)

    def test_round_trip(self, grid2_32):
        rng = np.random.default_rng(25)
        v = random_solenoidal(grid2_32, rng)
        back = tensor_to_velocity(velocity_to_tensor(v))
        for a, b in zip(back, v):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12

    def test_hand_multiplier_single_mode(self, grid2_32):
        # v = (0, e^{ix}) projected solenoidal stays (0, e^{ix});
        # d^{ij} = -i k_j / |k| v^i at k = (1, 0)
        v = [zero_field(grid2_32), zero_field(grid2_32)]
        v[1].coeffs[1, 0] = 1.0
        v[1].coeffs[-1, 0] = 1.0  # keep it a real field
        v = leray_project(v)
        d = velocity_to_tensor(v)
        assert d[1][0].coeffs[1, 0] == pytest.approx(-1.0j, abs=1e-13)
        assert np.max(np.abs(d[0][0].coeffs)) < 1e-13
        assert np.max(np.abs(d[1][1].coeffs)) < 1e-13

    def test_rejects_nonzero_mean(self, grid2_32):
        v = [forward_transform(grid2_32, np.full(grid2_32.shape, 1.0)),
             zero_field(grid2_32)]
        with pytest.raises(ValueError):
            velocity_to_tensor(v)

    def test_transform_to_coupled_surface(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-2, 7, grid2_32)
        sigma, d, h = transform_to_coupled(st)
        assert sigma is st.sigma and h is st.h
        assert len(d) == 2 and len(d[0]) == 2

    def test_cross_formulation_agreement(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        tg = TimeGrid(0.2, 2.5e-3, save_stride=80)
        direct = run(st, PARAMS, tg)
        coupled = run_coupled(st, PARAMS, tg)
        assert state_l2(direct.final, coupled.final) <= 1e-6


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
        assert state_l2(res.final, direct.final) <= 1e-6

    def test_admissible_monitor_flags(self, grid2_32):
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid2_32)
        spec = AdmissibleSetSpec(R=0.5, eta=0.5, c0e0=1.0, T=0.1)
        res = phi_iteration(st, PARAMS, TimeGrid(0.1, 5e-3), max_outer=4,
                            tol=1e-7, admissible=spec)
        assert all("in_admissible_set" in m for m in res.report.monitors)
        assert res.report.monitors[-1]["in_admissible_set"]

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
