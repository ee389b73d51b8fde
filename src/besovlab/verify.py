"""Batch experiments measuring the empirical constants of the dyadic-norm
inequalities and the small-data boundedness of the nonlinear system.

Inequalities with unspecified constants are verified as bounded ratios
whose maxima must be stable (within 20%) under doubling the ensemble;
the two statements with exact shell-determined constants (the gradient
bracket and the critical-scaling invariance) are hard assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import randfields
from .linsolve import TimeGrid
from .norms import INF, BesovSpec, HybridSpec, besov_norm, hybrid_norm
from .oldroyd import PhysicalParams, make_initial_data, run
from .paley import SHELL_HI, SHELL_LO, block_multipliers, retained_radius
from .spectral import (
    GridSpec,
    SpectralField,
    derivative,
    gradient,
    make_grid,
    product,
    rescale,
)

STABILITY_MARGIN = 0.2


@dataclass(frozen=True)
class EnsembleSpec:
    """Random-field ensemble: count, seed, and spectral band/decay."""

    count: int = 48
    seed: int = 7
    radius: float | None = None
    decay: float = 1.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class RatioReport:
    """Empirical bounded-ratio record for one inequality."""

    name: str
    params: dict
    max_ratio: float
    min_ratio: float
    count: int
    stable: bool
    max_ratio_doubled: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.min_ratio > self.max_ratio:
            raise ValueError("min_ratio exceeds max_ratio")
        if self.min_ratio < 0:
            raise ValueError("ratios must be nonnegative")

    def as_dict(self) -> dict:
        return {
            "experiment": self.name,
            "params": self.params,
            "max_ratio": self.max_ratio,
            "min_ratio": self.min_ratio,
            "count": self.count,
            "stable": self.stable,
            "max_ratio_doubled": self.max_ratio_doubled,
            **self.extras,
        }


def _ratio_report(name: str, params: dict, ratios_fn, count: int) -> RatioReport:
    """Evaluate per-sample ratios for count and 2*count nested draws."""
    ratios = ratios_fn(2 * count)
    base = [r for r in ratios[:count] if r is not None]
    full = [r for r in ratios if r is not None]
    if not base:
        raise ValueError("ensemble produced no valid ratios")
    max1, max2 = max(base), max(full)
    stable = abs(max2 - max1) <= STABILITY_MARGIN * max(max1, 1e-300)
    return RatioReport(name, params, max1, min(base), count, stable, max2)


# -- gradient-norm bracket -----------------------------------------------------


def verify_bernstein(spec: BesovSpec, ensemble: EnsembleSpec,
                     grid: GridSpec | None = None, *, hard: bool | None = None) -> RatioReport:
    """Ratio of the gradient's dyadic norm at smoothness s-1 to the field's
    at s.  For p = 2 every mode in band q carries |k| in the band shell,
    so the ratio lies in [3/4, 8/3] exactly; asserted for p = 2.
    """
    grid = grid or make_grid(2, 32)
    hard = (spec.p == 2.0) if hard is None else hard
    rng = np.random.default_rng(ensemble.seed)
    lo = BesovSpec(spec.s - 1.0, spec.p, spec.r)

    def ratios(n):
        out = []
        for _ in range(n):
            u = randfields.random_scalar(grid, rng, radius=ensemble.radius,
                                         decay=ensemble.decay)
            denom = besov_norm(u, spec).value
            if denom == 0.0:
                out.append(None)
                continue
            out.append(besov_norm(gradient(u), lo).value / denom)
        return out

    rep = _ratio_report("bernstein", {"s": spec.s, "p": spec.p, "r": spec.r},
                        ratios, ensemble.count)
    if hard:
        tol = 1e-9
        if not (SHELL_LO - tol <= rep.min_ratio and rep.max_ratio_doubled <= SHELL_HI + tol):
            raise AssertionError(
                f"gradient bracket violated: ratios in "
                f"[{rep.min_ratio}, {rep.max_ratio_doubled}] not in "
                f"[{SHELL_LO}, {SHELL_HI}]")
        rep.extras["bracket"] = [SHELL_LO, SHELL_HI]
    return rep


# -- product laws ----------------------------------------------------------------


def _check_product_indices(s1: float, s2: float, p: float, n: int, strict: bool):
    npp = n / p
    if s1 > npp + 1e-12 or s2 > npp + 1e-12:
        raise ValueError(f"product law needs s1, s2 <= N/p = {npp}")
    floor = n * max(0.0, 2.0 / p - 1.0)
    total = s1 + s2
    if strict and not total > floor:
        raise ValueError(f"product law needs s1 + s2 > {floor}")
    if not strict and not total >= floor:
        raise ValueError(f"product law needs s1 + s2 >= {floor}")


def verify_product_laws(s1: float, s2: float, p: float, ensemble: EnsembleSpec,
                        grid: GridSpec | None = None) -> list[RatioReport]:
    """Bounded-ratio checks of the four product estimates: the two static
    ones and their time-integrated versions (with separable synthetic
    time envelopes, for which the mixed-exponent time norms factor)."""
    grid = grid or make_grid(2, 64)
    n = grid.dim
    _check_product_indices(s1, s2, p, n, strict=True)
    s12 = s1 + s2 - n / p
    rng = np.random.default_rng(ensemble.seed)
    radius = ensemble.radius if ensemble.radius is not None \
        else retained_radius(grid) / 2.0

    spec1 = BesovSpec(s1, p, 1.0)
    spec2_one = BesovSpec(s2, p, 1.0)
    spec2_inf = BesovSpec(s2, p, INF)
    spec12_one = BesovSpec(s12, p, 1.0)
    spec12_inf = BesovSpec(s12, p, INF)

    pairs: list[tuple[SpectralField, SpectralField]] = []

    def draw(k):
        while len(pairs) < k:
            u = randfields.random_scalar(grid, rng, radius=radius, decay=ensemble.decay)
            v = randfields.random_scalar(grid, rng, radius=radius, decay=ensemble.decay)
            pairs.append((u, v))

    def ratios_static(spec_v, spec_uv):
        def fn(k):
            draw(k)
            out = []
            for u, v in pairs[:k]:
                nu, nv = besov_norm(u, spec1).value, besov_norm(v, spec_v).value
                if nu == 0.0 or nv == 0.0:
                    out.append(None)
                    continue
                out.append(besov_norm(product(u, v), spec_uv).value / (nu * nv))
            return out
        return fn

    reports = [
        _ratio_report("product_strong", {"s1": s1, "s2": s2, "p": p},
                      ratios_static(spec2_one, spec12_one), ensemble.count),
        _ratio_report("product_weak", {"s1": s1, "s2": s2, "p": p},
                      ratios_static(spec2_inf, spec12_inf), ensemble.count),
    ]

    # time-integrated versions: f = a(t) u, g = b(t) v on [0, 1] with
    # shifted cosine envelopes; Hoelder exponents (q1, q2, q) = (2, 2, 1).
    tgrid = np.linspace(0.0, 1.0, 65)
    env_a = 1.0 + 0.5 * np.cos(2 * np.pi * tgrid)
    env_b = 1.0 + 0.5 * np.sin(2 * np.pi * tgrid)

    def time_norm(env, k):
        return float(np.trapezoid(env ** k, tgrid) ** (1.0 / k))

    fac_u = time_norm(env_a, 2.0)
    fac_v = time_norm(env_b, 2.0)
    fac_uv = time_norm(env_a * env_b, 1.0)

    def ratios_time(spec_v, spec_uv):
        def fn(k):
            draw(k)
            out = []
            for u, v in pairs[:k]:
                nu = besov_norm(u, spec1).value * fac_u
                nv = besov_norm(v, spec_v).value * fac_v
                if nu == 0.0 or nv == 0.0:
                    out.append(None)
                    continue
                nuv = besov_norm(product(u, v), spec_uv).value * fac_uv
                out.append(nuv / (nu * nv))
            return out
        return fn

    reports.append(_ratio_report(
        "product_strong_time", {"s1": s1, "s2": s2, "p": p, "q": 1, "q1": 2, "q2": 2},
        ratios_time(spec2_one, spec12_one), ensemble.count))
    reports.append(_ratio_report(
        "product_weak_time", {"s1": s1, "s2": s2, "p": p, "q": 1, "q1": 2, "q2": 2},
        ratios_time(spec2_inf, spec12_inf), ensemble.count))
    return reports


# -- logarithmic interpolation ----------------------------------------------------


def verify_log_interpolation(ensemble: EnsembleSpec, s: float, eps: float,
                             p: float = 2.0, grid: GridSpec | None = None) -> RatioReport:
    """Ratio of the r=1 dyadic norm to its log-interpolation majorant built
    from r=inf norms at s and s -/+ eps."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    grid = grid or make_grid(2, 64)
    rng = np.random.default_rng(ensemble.seed)
    spec_one = BesovSpec(s, p, 1.0)
    spec_inf = BesovSpec(s, p, INF)
    spec_lo = BesovSpec(s - eps, p, INF)
    spec_hi = BesovSpec(s + eps, p, INF)

    def ratios(n):
        out = []
        for _ in range(n):
            u = randfields.random_scalar(grid, rng, radius=ensemble.radius,
                                         decay=ensemble.decay)
            n_inf = besov_norm(u, spec_inf).value
            if n_inf == 0.0:
                out.append(None)
                continue
            n_one = besov_norm(u, spec_one).value
            n_lo = besov_norm(u, spec_lo).value
            n_hi = besov_norm(u, spec_hi).value
            majorant = (n_inf / eps) * math.log(math.e + (n_lo + n_hi) / n_inf)
            out.append(n_one / majorant)
        return out

    return _ratio_report("log_interpolation", {"s": s, "eps": eps, "p": p},
                         ratios, ensemble.count)


# -- commutator with a dyadic block ------------------------------------------------


def commutator_band_norms(a: SpectralField, b: SpectralField, p: float) -> np.ndarray:
    """||div(A (band_q grad B)) - band_q div(A grad B)||_p for every band."""
    from .norms import lp_norm

    grid = a.grid
    n = grid.dim
    stack = block_multipliers(grid)
    grad_b = gradient(b)
    a_grad_b = [product(a, g) for g in grad_b]
    out = np.empty(stack.shape[0])
    for q in range(stack.shape[0]):
        acc = np.zeros(grid.shape, dtype=np.complex128)
        for ax in range(n):
            band_grad = SpectralField(grid, grad_b[ax].coeffs * stack[q])
            first = derivative(product(a, band_grad), ax)
            second = derivative(SpectralField(grid, a_grad_b[ax].coeffs * stack[q]), ax)
            acc += first.coeffs - second.coeffs
        out[q] = lp_norm(SpectralField(grid, acc), p)
    return out


def verify_commutator(ensemble: EnsembleSpec, s: float, t: float, p: float = 2.0,
                      grid: GridSpec | None = None) -> RatioReport:
    """Weighted per-band commutator sums against the gradient norms.

    The per-band sequence c_q = 2^{q(s+t-2-N/p)} ||div[A, band_q] grad B||_p
    normalized by ||grad A|| ||grad B|| is summed over q; the ensemble
    maximum of the sum is the recorded constant.
    """
    grid = grid or make_grid(2, 64)
    n = grid.dim
    npp = n / p
    if not (t <= npp + 1.0 + 1e-12 and 1.0 <= s <= npp + 1.0 + 1e-12 and s + t > 1.0):
        raise ValueError("commutator index window violated")
    rng = np.random.default_rng(ensemble.seed)
    radius = ensemble.radius if ensemble.radius is not None \
        else retained_radius(grid) / 2.0
    spec_a = BesovSpec(s - 1.0, p, 1.0)
    spec_b = BesovSpec(t - 1.0, p, 1.0)
    expo = s + t - 2.0 - npp

    def ratios(count):
        out = []
        for _ in range(count):
            a = randfields.random_scalar(grid, rng, radius=radius, decay=ensemble.decay)
            b = randfields.random_scalar(grid, rng, radius=radius, decay=ensemble.decay)
            na = besov_norm(gradient(a), spec_a).value
            nb = besov_norm(gradient(b), spec_b).value
            if na == 0.0 or nb == 0.0:
                out.append(None)
                continue
            band = commutator_band_norms(a, b, p)
            qs = np.arange(band.size)
            cq = np.exp2(qs * expo) * band / (na * nb)
            out.append(float(cq.sum()))
        return out

    return _ratio_report("commutator", {"s": s, "t": t, "p": p}, ratios,
                         ensemble.count)


# -- critical-scaling invariance ----------------------------------------------------


def band_safe_tuple(grid: GridSpec, seed: int, m: int = 1):
    """Random (sigma, velocity, h) supported where the dyadic ladder is
    pure and a 2^m dilation stays inside it.

    The lowest octave (|k| < 4/3) absorbs the truncated low-frequency
    tail, so bands there do not shift cleanly; band-safe content lives
    in 3/2 <= |k| <= retained_radius / 2^m.
    """
    rng = np.random.default_rng(seed)
    hi = retained_radius(grid) / 2.0 ** m
    lo = 1.4
    if hi <= lo:
        raise ValueError(f"grid too coarse for a 2^{m} dilation band")
    sigma = randfields.random_scalar(grid, rng, radius=hi, radius_lo=lo)
    velocity = randfields.random_solenoidal(grid, rng, radius=hi, radius_lo=lo)
    w = randfields.random_solenoidal(grid, rng, radius=hi, radius_lo=lo)
    h = [[derivative(w[i], j) for j in range(grid.dim)] for i in range(grid.dim)]
    return sigma, velocity, h


def verify_scaling(sigma, velocity, h, m: int, p: float = 2.0, *,
                   tol: float = 1e-10) -> dict:
    """Assert invariance of the critical norms under the dyadic rescaling.

    The transformation dilates x by l = 2^m and multiplies amplitudes by
    the covariance prefactors (1 for sigma and h, l for v) times the
    fixed-measure torus factor l^{-N/p}, which on the whole space is
    supplied by the Lebesgue measure.  Critical norms (s = N/p for sigma
    and h, N/p - 1 for v) are then preserved exactly for p = 2.
    """
    grid = sigma.grid
    n = grid.dim
    l = 2.0 ** m
    measure = l ** (-n / p)
    spec_crit = BesovSpec(n / p, p, 1.0)
    spec_vel = BesovSpec(n / p - 1.0, p, 1.0)

    sig_l = measure * rescale(sigma, m)
    vel_l = [l * measure * rescale(f, m) for f in velocity]
    h_l = [[measure * rescale(f, m) for f in row] for row in h]

    before = {
        "sigma": besov_norm(sigma, spec_crit).value,
        "velocity": besov_norm(velocity, spec_vel).value,
        "h": besov_norm([f for row in h for f in row], spec_crit).value,
    }
    after = {
        "sigma": besov_norm(sig_l, spec_crit).value,
        "velocity": besov_norm(vel_l, spec_vel).value,
        "h": besov_norm([f for row in h_l for f in row], spec_crit).value,
    }
    defects = {}
    for key in before:
        scale = max(before[key], 1e-300)
        defects[key] = abs(after[key] - before[key]) / scale
        if before[key] > 0 and defects[key] > tol:
            raise AssertionError(
                f"critical norm of {key} not invariant: defect {defects[key]:.3g}")
    return {"m": m, "p": p, "before": before, "after": after, "defects": defects}


# -- small-data boundedness of the nonlinear system ----------------------------------


def aggregate_energy_norm(result, mu: float, s: float) -> float:
    """Sup-in-time hybrid/critical norms plus mu-weighted time integrals."""
    from .norms import hybrid_series_norm, lebesgue_time_norm

    T = result.times[-1]
    hyb_inf = HybridSpec(s, INF, mu)
    hyb_one = HybridSpec(s, 1.0, mu)
    sup_sig_h = hybrid_series_norm(result.series["sigma"], INF, hyb_inf, T) \
        + hybrid_series_norm(result.series["h"], INF, hyb_inf, T)
    sup_v = lebesgue_time_norm(result.series["velocity"], INF, BesovSpec(s - 1.0), T)
    int_sig_h = hybrid_series_norm(result.series["sigma"], 1.0, hyb_one, T) \
        + hybrid_series_norm(result.series["h"], 1.0, hyb_one, T)
    int_v = lebesgue_time_norm(result.series["velocity"], 1.0, BesovSpec(s + 1.0), T)
    return sup_sig_h + sup_v + mu * (int_sig_h + int_v)


def initial_hybrid_size(state, mu: float, s: float) -> float:
    hyb = HybridSpec(s, INF, mu)
    return (hybrid_norm(state.sigma, hyb).value
            + besov_norm(state.velocity, BesovSpec(s - 1.0)).value
            + hybrid_norm(state.h_flat(), hyb).value)


def smallness_experiment(alpha_list, T: float, grid: GridSpec,
                         params: PhysicalParams, *, dt: float = 0.01,
                         save_stride: int = 10, seed: int = 11,
                         family: str = "exact_gradient",
                         bisect_rtol: float = 0.01) -> list[dict]:
    """For each target size alpha, build compatible data whose initial
    hybrid norm equals alpha (amplitude bisection to 1%), run to T, and
    record the energy-aggregate/alpha ratio and the pressure/alpha^2
    ratio.

    Run failures are recorded per row, not raised.  The default family
    keeps sigma0 = 0, for which the pressure source is genuinely
    quadratic in the data size.
    """
    s = grid.dim / 2.0
    rows = []
    for alpha in alpha_list:
        row: dict = {"alpha": alpha}
        try:
            if alpha == 0.0:
                state = make_initial_data(family, 0.0, seed, grid)[0]
            else:
                state = _bisect_amplitude(alpha, family, seed, grid, params.mu, s,
                                          rtol=bisect_rtol)
            achieved = initial_hybrid_size(state, params.mu, s)
            row["initial_norm"] = achieved
            result = run(state, params, TimeGrid(T, dt, save_stride))
            agg = aggregate_energy_norm(result, params.mu, s)
            from .norms import lebesgue_time_norm

            press = lebesgue_time_norm(result.series["grad_p"], 1.0,
                                       BesovSpec(s - 1.0), result.times[-1])
            row["energy_aggregate"] = agg
            row["pressure_l1"] = press
            row["energy_over_alpha"] = agg / alpha if alpha > 0 else 0.0
            row["pressure_over_alpha_sq"] = press / alpha ** 2 if alpha > 0 else 0.0
            row["ok"] = True
        except Exception as exc:  # recorded, not fatal to the table
            row["ok"] = False
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _bisect_amplitude(alpha: float, family: str, seed: int, grid: GridSpec,
                      mu: float, s: float, rtol: float):
    def size(amp):
        st = make_initial_data(family, amp, seed, grid)[0]
        return st, initial_hybrid_size(st, mu, s)

    amp = alpha
    st, val = size(amp)
    # initial-data norms are near-linear in amplitude: rescale then bisect
    amp *= alpha / val
    lo, hi = 0.5 * amp, 2.0 * amp
    st, val = size(amp)
    for _ in range(60):
        if abs(val - alpha) <= rtol * alpha:
            return st
        if val < alpha:
            lo = amp
        else:
            hi = amp
        amp = 0.5 * (lo + hi)
        st, val = size(amp)
    raise RuntimeError(f"amplitude bisection failed for alpha={alpha}")


def pressure_slope(rows: list[dict]) -> float:
    """Log-log slope of the pressure integral against alpha."""
    pts = [(r["alpha"], r["pressure_l1"]) for r in rows
           if r.get("ok") and r["alpha"] > 0 and r.get("pressure_l1", 0.0) > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two successful runs for a slope")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])
