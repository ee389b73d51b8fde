"""Acceptance suite: one test per shipped criterion, each printing one
pass/fail line.  Tolerances are pinned here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
per-criterion timing.
"""

import time

import numpy as np
import scipy.linalg

from besovlab.linsolve import TimeGrid, solve_coupled, solve_heat, solve_transport, \
    solve_variable_poisson
from besovlab.norms import BesovSpec, l2_norm
from besovlab.oldroyd import (
    PhysicalParams,
    make_initial_data,
    deformation_identity_residual,
    phi_iteration,
    run,
    split_state,
)
from besovlab.paley import profile
from besovlab.randfields import random_scalar
from besovlab.spectral import (
    GridSpec,
    divergence,
    forward_transform,
    gradient,
    grid_wavenumbers,
    product,
    samples,
)
from besovlab.verify import (
    EnsembleSpec,
    band_safe_tuple,
    pressure_slope,
    smallness_experiment,
    verify_bernstein,
    verify_commutator,
    verify_log_interpolation,
    verify_product_laws,
    verify_scaling,
)

from conftest import field_of

PARAMS = PhysicalParams(mu=1.0, sigma_floor=0.1)


class _Clock:
    def __init__(self, name):
        self.name = name
        self.start = time.perf_counter()

    def report(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        tail = f"  [{detail}]" if detail else ""
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f}s){tail}", flush=True)
        assert ok, f"{self.name}: {detail}"


def state_l2(grid, a, b) -> float:
    """The coefficient-sum L2 distance of two stacked states."""
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)) * (2 * np.pi) ** (grid.dim / 2.0))


def test_01_partition_of_unity():
    clock = _Clock("01 partition-of-unity")
    grid = GridSpec(2, 64)
    kmag = grid_wavenumbers(grid)["kmag"]
    rho = kmag[kmag > 0]
    total = np.zeros_like(rho)
    for q in range(-12, 14):
        total += profile(np.exp2(-q) * rho)
    defect = float(np.max(np.abs(total - 1.0)))
    clock.report(defect <= 1e-12, f"max defect {defect:.3g}")


def test_02_heat_oracle():
    clock = _Clock("02 heat-oracle")
    grid = GridSpec(2, 32)
    rng = np.random.default_rng(42)
    u0 = random_scalar(grid, rng, radius=15.0)
    k2 = grid_wavenumbers(grid)["k2"]
    worst = 0.0
    for mu in (0.1, 1.0, 10.0):
        res = solve_heat(grid, u0, None, mu, TimeGrid(1.0, 0.01))
        want = u0 * np.exp(-mu * k2 * 1.0)
        defect = np.abs(res.coeffs[-1] - want)
        bound = 1e-12 * np.abs(u0)
        mask = np.abs(u0) > 0
        worst = max(worst, float(np.max(defect[mask] / np.abs(u0)[mask])))
        if not np.all(defect[mask] <= bound[mask]):
            clock.report(False, f"mu={mu}: per-mode defect up to {worst:.3g}")
    clock.report(True, f"worst per-mode relative defect {worst:.3g}")


def test_03_bernstein_bracket():
    clock = _Clock("03 bernstein-bracket")
    grid = GridSpec(2, 32)
    ens = EnsembleSpec(count=50, seed=7)  # doubling inside gives 100 fields
    lo, hi = np.inf, 0.0
    for s in (0.0, 1.0, grid.dim / 2.0):
        rep = verify_bernstein(BesovSpec(s, 2.0, 1.0), ens, grid)
        lo, hi = min(lo, rep.min_ratio), max(hi, rep.max_ratio_doubled)
    ok = 0.75 - 1e-9 <= lo and hi <= 8.0 / 3.0 + 1e-9
    clock.report(ok, f"ratios within [{lo:.4f}, {hi:.4f}]")


def test_04_transport_translation():
    clock = _Clock("04 transport-translation")
    grid = GridSpec(2, 64)
    u0 = field_of(grid, lambda x, y: np.cos(x))
    v = np.stack([forward_transform(grid, np.ones(grid.shape)),
                  np.zeros(grid.coeff_shape, complex)])
    # pi is not an integer multiple of 1e-3; use the nearest uniform step
    n = round(np.pi / 1e-3)
    res = solve_transport(grid, u0, lambda t: v, None, TimeGrid(np.pi, np.pi / n))
    xx, _ = grid.meshgrid()
    err = samples(grid, res.coeffs[-1]) - np.cos(xx - np.pi)
    l2 = float(np.sqrt(np.sum(err ** 2) * grid.cell_volume))
    clock.report(l2 <= 1e-8, f"L2 error {l2:.3g} over {n} steps")


def test_05_variable_coefficient_pressure():
    clock = _Clock("05 variable-coefficient-pressure")
    grid = GridSpec(2, 32)
    a = field_of(grid, lambda x, y: 1.0 + 0.2 * np.sin(x))
    u_star = field_of(grid, lambda x, y: np.sin(y))
    flux = np.stack([product(grid, a, samples(grid, g))
                     for g in gradient(grid, u_star)])
    f = -1.0 * divergence(grid, flux)
    res = solve_variable_poisson(grid, samples(grid, a), f, tol=1e-12, max_iter=50)
    err = max(float(np.max(np.abs(gradient(grid, res.u)[ax]
                                  - gradient(grid, u_star)[..., ax, :, :])))
              for ax in range(2))
    monotone = bool(np.all(np.diff(res.residuals) < 0))
    ok = err <= 1e-10 and res.iterations <= 50 and monotone
    clock.report(ok, f"gradient error {err:.3g} in {res.iterations} iterations, "
                     f"monotone={monotone}")


def test_06_coupled_matrix_exponential():
    clock = _Clock("06 coupled-oracle")
    # data occupies the two lowest bands: the stated step size bounds the
    # skew rotation rate the stage scheme can track at this tolerance
    grid = GridSpec(2, 32)
    rng = np.random.default_rng(6)
    c0 = random_scalar(grid, rng, radius=3.0)
    d0 = random_scalar(grid, rng, radius=3.0)
    mu, T = 1.0, 1.0
    res = solve_coupled(grid, c0, d0, None, None, None, mu, TimeGrid(T, 1e-3))
    k = np.fft.fftfreq(32, d=1 / 32).astype(int)
    worst = 0.0
    for idx in np.argwhere(np.abs(c0) + np.abs(d0) > 1e-13):
        kk = float(np.hypot(k[idx[0]], k[idx[1]]))
        y0 = np.array([c0[tuple(idx)], d0[tuple(idx)]])
        want = scipy.linalg.expm(np.array([[0.0, -kk], [kk, -mu * kk ** 2]]) * T) @ y0
        got = np.array([res.coeffs[-1, 0][tuple(idx)],
                        res.coeffs[-1, 1][tuple(idx)]])
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(y0))))
    clock.report(worst <= 1e-10, f"worst per-mode relative defect {worst:.3g}")


def test_07_constraint_propagation():
    clock = _Clock("07 constraint-propagation")
    grid = GridSpec(2, 32)
    st, _ = make_initial_data("exact_gradient", 1e-2, 3, grid)
    finals, div_worst = {}, 0.0
    for dt in (8e-3, 4e-3, 2e-3):
        res = run(grid, st, PARAMS, TimeGrid(1.0, dt, save_stride=25))
        finals[dt] = res.coeffs[-1]
        div_worst = max(div_worst, max(r["div_velocity"] for r in res.residual_rows))
    fields = {dt: deformation_identity_residual(grid, split_state(grid, finals[dt])[2])
              for dt in finals}
    ref = fields[2e-3]
    ratio = l2_norm(grid, fields[8e-3] - ref) / l2_norm(grid, fields[4e-3] - ref)
    ok = ratio >= 3.0 and div_worst <= 1e-10
    clock.report(ok, f"halving ratio {ratio:.1f}, max div v {div_worst:.3g}")


def test_08_scaling_criticality():
    clock = _Clock("08 scaling-criticality")
    grid = GridSpec(2, 64)
    worst = 0.0
    for seed in (5, 11, 17):
        sig, vel, h = band_safe_tuple(grid, seed, m=1)
        info = verify_scaling(grid, sig, vel, h, m=1, tol=1e-10)
        worst = max(worst, max(info["defects"].values()))
    clock.report(worst <= 1e-10, f"worst norm defect {worst:.3g}")


def test_09_phi_fixed_point():
    clock = _Clock("09 phi-fixed-point")
    grid = GridSpec(2, 32)
    st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid)
    tg = TimeGrid(0.5, 2.5e-3, save_stride=10)
    res = phi_iteration(grid, st, PARAMS, tg, max_outer=10, tol=1e-8)
    d = res.report.distances
    monotone = all(b < a for a, b in zip(d, d[1:]))
    direct = run(grid, st, PARAMS, tg)
    agree = state_l2(grid, res.coeffs[-1], direct.coeffs[-1])
    ok = (res.report.converged and res.report.applications <= 10 and monotone
          and d[-1] < 1e-8 and agree <= 1e-6)
    clock.report(ok, f"{res.report.applications} applications, final distance "
                     f"{d[-1]:.2g}, direct-run gap {agree:.2g}")


def test_10_small_data_boundedness():
    clock = _Clock("10 small-data-boundedness")
    grid = GridSpec(2, 32)
    rows = smallness_experiment([1e-3, 3e-3, 1e-2], 10.0, grid, PARAMS,
                                dt=0.01, save_stride=20, seed=11)
    ok_rows = [r for r in rows if r.get("ok")]
    if len(ok_rows) != 3:
        clock.report(False, f"failed runs: {[r.get('error') for r in rows]}")
    ratios = [r["energy_over_alpha"] for r in ok_rows]
    spread = max(ratios) / min(ratios)
    slope = pressure_slope(rows)
    ok = spread <= 2.0 and abs(slope - 2.0) <= 0.3
    clock.report(ok, f"energy ratio spread x{spread:.3f}, pressure slope {slope:.3f}")


def test_11_twin_run_uniqueness():
    clock = _Clock("11 twin-run-uniqueness")
    grid = GridSpec(2, 32)
    st, _ = make_initial_data("exact_gradient", 1e-2, 9, grid)
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        finals[dt] = run(grid, st, PARAMS, TimeGrid(0.5, dt, save_stride=10 ** 6)).coeffs[-1]
    d1 = state_l2(grid, finals[4e-3], finals[2e-3])
    d2 = state_l2(grid, finals[2e-3], finals[1e-3])
    ratio = d1 / d2
    clock.report(ratio >= 3.0, f"discrepancy ratio {ratio:.1f}")


def test_12_ensemble_stability():
    clock = _Clock("12 ensemble-stability")
    grid32 = GridSpec(2, 32)
    grid64 = GridSpec(2, 64)
    ens = EnsembleSpec(count=48, seed=7)
    reports = []
    for s in (0.0, 1.0, grid32.dim / 2.0):
        reports.append(verify_bernstein(BesovSpec(s, 2.0, 1.0), ens, grid32))
    reports.extend(verify_product_laws(1.0, 1.0, 2.0, ens, grid64))
    reports.append(verify_log_interpolation(ens, 1.0, 0.5, 2.0, grid64))
    reports.append(verify_commutator(ens, 1.0, 1.0, 2.0, grid64))
    unstable = [r.name for r in reports if not r.stable]
    clock.report(not unstable,
                 f"{len(reports)} ratio reports, unstable: {unstable or 'none'}")
