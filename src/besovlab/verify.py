"""Batch experiments measuring the empirical constants of the dyadic-norm
inequalities and the small-data boundedness of the nonlinear system.

Inequalities with unspecified constants are verified as bounded ratios
whose maxima must be stable (within 20%) under doubling the ensemble;
the two statements with exact shell-determined constants (the gradient
bracket and the critical-scaling invariance) are hard assertions.

An ensemble is drawn and evaluated in chunks that fit `CHUNK_BYTES`, each
one stacked `random_scalar` draw whose norms are one `ensemble_norms` call;
every value is bitwise that of drawing and evaluating one field at a time.

`STABILITY_MARGIN` bounds the relative growth of the ensemble maximum
when the ensemble doubles.  A maximum over random draws keeps growing
with the count when the ratio's distribution has a heavy tail, so a
seeded ensemble trips the margin on a fraction of seeds: about 1 in 20
for `products` at count 128.  That verdict is statistical, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import randfields
from .linsolve import TimeGrid
from .norms import (INF, BesovSpec, HybridSpec, besov_norm, ensemble_norms, lebesgue_time_norm,
                    norm_series, stacked_lp)
from .oldroyd import PhysicalParams, make_initial_data, run, split_state
from .paley import SHELL_HI, SHELL_LO, block_multipliers, retained_radius
from .spectral import (
    GridSpec,
    dealiased,
    gradient,
    grid_wavenumbers,
    product,
    rescale,
    samples,
)

STABILITY_MARGIN = 0.2
# memory budget of one ensemble chunk: the coefficient arrays of its
# widest stack (a draw's gradient, a pair and its product, a pair's
# commutator band stack)
CHUNK_BYTES = 1 << 18


def _draw_chunks(grid: GridSpec, ensemble, fields: int, radius, shape=()):
    """The 2 * count draws of an ensemble, `shape` fields each, in
    consecutive chunks that are each one stacked `random_scalar` draw, sized
    so that `fields` coefficient arrays per draw fit CHUNK_BYTES (at least
    one draw a chunk)."""
    rng, n = np.random.default_rng(ensemble.seed), 2 * ensemble.count
    size = max(1, CHUNK_BYTES // (fields * 16 * math.prod(grid.coeff_shape)))
    for i in range(0, n, size):
        yield randfields.random_scalar(grid, rng, radius=radius,
                                       shape=(min(size, n - i),) + shape)


@dataclass(frozen=True)
class EnsembleSpec:
    """Random-field ensemble: count and seed."""

    count: int = 48
    seed: int = 7

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


def _ratio_report(name: str, params: dict, ratios: list, count: int) -> RatioReport:
    """Report the ratios of 2*count nested draws (None where a draw is
    degenerate): the first count are the ensemble, all of them its double."""
    base = [r for r in ratios[:count] if r is not None]
    full = [r for r in ratios if r is not None]
    if not base:
        raise ValueError("ensemble produced no valid ratios")
    max1, max2 = max(base), max(full)
    stable = abs(max2 - max1) <= STABILITY_MARGIN * max(max1, 1e-300)
    return RatioReport(name, params, max1, min(base), count, stable, max2)


# -- gradient-norm bracket -----------------------------------------------------


def verify_bernstein(spec: BesovSpec, ensemble: EnsembleSpec, grid: GridSpec) -> RatioReport:
    """Ratio of the gradient's dyadic norm at smoothness s-1 to the field's
    at s.  For p = 2 every mode in band q carries |k| in the band shell,
    so the ratio lies in [3/4, 8/3] exactly; asserted for p = 2.
    """
    lo = BesovSpec(spec.s - 1.0, spec.p, spec.r)
    ratios = []
    for u in _draw_chunks(grid, ensemble, grid.dim, None):
        denom, = ensemble_norms(grid, u, spec).tolist()
        num, = ensemble_norms(grid, gradient(grid, u), lo).tolist()
        ratios += [None if d == 0.0 else g / d for g, d in zip(num, denom)]
    rep = _ratio_report("bernstein", {"s": spec.s, "p": spec.p, "r": spec.r},
                        ratios, ensemble.count)
    if spec.p == 2.0:
        tol = 1e-9
        if not (SHELL_LO - tol <= rep.min_ratio and rep.max_ratio_doubled <= SHELL_HI + tol):
            raise AssertionError(
                f"gradient bracket violated: ratios in "
                f"[{rep.min_ratio}, {rep.max_ratio_doubled}] not in "
                f"[{SHELL_LO}, {SHELL_HI}]")
        rep.extras["bracket"] = [SHELL_LO, SHELL_HI]
    return rep


# -- product laws ----------------------------------------------------------------


def _check_product_indices(s1: float, s2: float, p: float, n: int):
    npp = n / p
    if s1 > npp + 1e-12 or s2 > npp + 1e-12:
        raise ValueError(f"product law needs s1, s2 <= N/p = {npp}")
    floor = n * max(0.0, 2.0 / p - 1.0)
    if not s1 + s2 > floor:
        raise ValueError(f"product law needs s1 + s2 > {floor}")


def verify_product_laws(s1: float, s2: float, p: float, ensemble: EnsembleSpec,
                        grid: GridSpec) -> list[RatioReport]:
    """Bounded-ratio checks of the four product estimates: the two static
    ones and their time-integrated versions (with separable synthetic
    time envelopes, for which the mixed-exponent time norms factor).
    Each pair's product and norms are formed once and read by all four
    reports."""
    n = grid.dim
    _check_product_indices(s1, s2, p, n)
    s12 = s1 + s2 - n / p
    radius = retained_radius(grid) / 2.0

    spec1 = BesovSpec(s1, p, 1.0)
    # index 0: r = 1 (the strong law), index 1: r = inf (the weak law)
    specs_v = [BesovSpec(s2, p, r) for r in (1.0, INF)]
    specs_uv = [BesovSpec(s12, p, r) for r in (1.0, INF)]
    rows = []  # per chunk, each pair's norms formed once: |u|, |v| and |uv| per law
    for pairs in _draw_chunks(grid, ensemble, 3, radius, (2,)):
        u, v = pairs[:, 0], pairs[:, 1]
        rows.append(np.concatenate([ensemble_norms(grid, u, spec1),
                                    ensemble_norms(grid, v, *specs_v),
                                    ensemble_norms(grid, product(grid, u, samples(grid, v)),
                                                   *specs_uv)]))
    nu, *laws = np.concatenate(rows, axis=1).tolist()

    def ratios(r, factor=1.0):
        return [None if a == 0.0 or b == 0.0 else factor * c / (a * b)
                for a, b, c in zip(nu, laws[r], laws[2 + r])]

    # time-integrated versions: f = a(t) u, g = b(t) v on [0, 1] with
    # shifted cosine envelopes; Hoelder exponents (q1, q2, q) = (2, 2, 1).
    # The time norms factor, so each ratio is the static one times `envelopes`.
    tgrid = np.linspace(0.0, 1.0, 65)
    env_a = 1.0 + 0.5 * np.cos(2 * np.pi * tgrid)
    env_b = 1.0 + 0.5 * np.sin(2 * np.pi * tgrid)

    def time_norm(env, k):
        return float(np.trapezoid(env ** k, tgrid) ** (1.0 / k))

    envelopes = time_norm(env_a * env_b, 1.0) / (time_norm(env_a, 2.0) * time_norm(env_b, 2.0))
    static = {"s1": s1, "s2": s2, "p": p}
    timed = {**static, "q": 1, "q1": 2, "q2": 2}
    return [
        _ratio_report("product_strong", static, ratios(0), ensemble.count),
        _ratio_report("product_weak", static, ratios(1), ensemble.count),
        _ratio_report("product_strong_time", timed, ratios(0, envelopes), ensemble.count),
        _ratio_report("product_weak_time", timed, ratios(1, envelopes), ensemble.count),
    ]


# -- logarithmic interpolation ----------------------------------------------------


def verify_log_interpolation(ensemble: EnsembleSpec, s: float, eps: float,
                             p: float, grid: GridSpec) -> RatioReport:
    """Ratio of the r=1 dyadic norm to its log-interpolation majorant built
    from r=inf norms at s and s -/+ eps."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    specs = [BesovSpec(s, p, INF), BesovSpec(s, p, 1.0), BesovSpec(s - eps, p, INF),
             BesovSpec(s + eps, p, INF)]
    ratios = []
    for u in _draw_chunks(grid, ensemble, 1, None):
        for n_inf, n_one, n_lo, n_hi in ensemble_norms(grid, u, *specs).T.tolist():
            ratios.append(None if n_inf == 0.0 else n_one / (
                (n_inf / eps) * math.log(math.e + (n_lo + n_hi) / n_inf)))
    return _ratio_report("log_interpolation", {"s": s, "eps": eps, "p": p},
                         ratios, ensemble.count)


# -- commutator with a dyadic block ------------------------------------------------


def _commutator_bands(grid: GridSpec, a: np.ndarray, b: np.ndarray, p: float,
                      kept: list) -> np.ndarray:
    """||div(A (band_q grad B)) - band_q div(A grad B)||_p for every band q
    and every pair (a[i], b[i]) of stacked scalar coefficients, shape
    (pairs, bands), with `product`'s arithmetic: `a` is sampled once, and
    the (pair, band, axis) stack band_q grad b is formed, sampled and
    dealiased into `kept` (the transforms' output arrays: its coefficients
    and samples), made on the first call and kept by the caller across
    chunks of no more pairs; each band's terms are contracted with i k to
    one field."""
    if not kept:
        shape = (len(a), grid.q_max + 1, grid.dim)
        kept += [np.empty(shape + grid.coeff_shape, np.complex128), np.empty(shape + grid.shape)]
    stack, stack_s = (w[:len(a)] for w in kept)
    bands = block_multipliers(grid)[:, None]
    a_s = samples(grid, a)
    grad_b = gradient(grid, b)
    np.multiply(bands, grad_b[:, None], out=stack)
    first = samples(grid, stack, stack_s)
    first *= a_s[:, None, None]
    first = dealiased(grid, first, stack)
    second = dealiased(grid, samples(grid, grad_b) * a_s[:, None])
    for q, band in enumerate(bands):
        first[:, q] -= band * second
    comm = np.einsum("cqa...,a...->cq...", first, grid_wavenumbers(grid)["ik"])
    return stacked_lp(grid, comm, p)


def verify_commutator(ensemble: EnsembleSpec, s: float, t: float, p: float,
                      grid: GridSpec) -> RatioReport:
    """Weighted per-band commutator sums against the gradient norms.

    The per-band sequence c_q = 2^{q(s+t-2-N/p)} ||div[A, band_q] grad B||_p
    normalized by ||grad A|| ||grad B|| is summed over q; the ensemble
    maximum of the sum is the recorded constant.
    """
    n = grid.dim
    npp = n / p
    if not (t <= npp + 1.0 + 1e-12 and 1.0 <= s <= npp + 1.0 + 1e-12 and s + t > 1.0):
        raise ValueError("commutator index window violated")
    radius = retained_radius(grid) / 2.0
    spec_a = BesovSpec(s - 1.0, p, 1.0)
    spec_b = BesovSpec(t - 1.0, p, 1.0)
    weights = np.exp2(np.arange(grid.q_max + 1) * (s + t - 2.0 - npp))
    ratios, kept = [], []  # the output arrays are made for the first chunk, the largest
    for pairs in _draw_chunks(grid, ensemble, (grid.q_max + 1) * n, radius, (2,)):
        a, b = pairs[:, 0], pairs[:, 1]
        na, = ensemble_norms(grid, gradient(grid, a), spec_a).tolist()
        nb, = ensemble_norms(grid, gradient(grid, b), spec_b).tolist()
        for x, y, band in zip(na, nb, _commutator_bands(grid, a, b, p, kept)):
            ratios.append(None if x == 0.0 or y == 0.0
                          else float((weights * band / (x * y)).sum()))
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
    h = gradient(grid, w)
    return sigma, velocity, h


def verify_scaling(grid: GridSpec, sigma, velocity, h, m: int, *, tol: float = 1e-10) -> dict:
    """Assert invariance of the critical norms under the dyadic rescaling,
    with L^2 block norms (p = 2), the one exponent where it is exact.

    The transformation dilates x by l = 2^m and multiplies amplitudes by
    the covariance prefactors (1 for sigma and h, l for v) times the
    fixed-measure torus factor l^{-N/p}, which on the whole space is
    supplied by the Lebesgue measure.  Critical norms (s = N/p for sigma
    and h, N/p - 1 for v) are then preserved; the three are coefficients.
    """
    n = grid.dim
    p = 2.0
    l = 2.0 ** m
    measure = l ** (-n / p)
    spec_crit = BesovSpec(n / p, p, 1.0)
    spec_vel = BesovSpec(n / p - 1.0, p, 1.0)

    # per field: itself, its amplitude prefactor and its critical norm
    parts = {"sigma": (sigma, measure, spec_crit), "velocity": (velocity, l * measure, spec_vel),
             "h": (h, measure, spec_crit)}
    before = {key: besov_norm(grid, f, spec).value for key, (f, _, spec) in parts.items()}
    after = {key: besov_norm(grid, c * rescale(grid, f, m), spec).value
             for key, (f, c, spec) in parts.items()}
    defects = {}
    for key in before:
        scale = max(before[key], 1e-300)
        defects[key] = abs(after[key] - before[key]) / scale
        if before[key] > 0 and defects[key] > tol:
            raise AssertionError(
                f"critical norm of {key} not invariant: defect {defects[key]:.3g}")
    return {"m": m, "p": p, "before": before, "after": after, "defects": defects}


# -- small-data boundedness of the nonlinear system ----------------------------------


def aggregate_energy_norm(series: dict, T: float, mu: float, s: float) -> float:
    """Sup-in-time hybrid/critical norms plus mu-weighted time integrals
    over [0, T] of the norm `series` of sigma, velocity and h."""
    hyb_inf = HybridSpec(s, INF, mu)
    hyb_one = HybridSpec(s, 1.0, mu)
    sup_sig_h = lebesgue_time_norm(series["sigma"], INF, hyb_inf, T) \
        + lebesgue_time_norm(series["h"], INF, hyb_inf, T)
    sup_v = lebesgue_time_norm(series["velocity"], INF, BesovSpec(s - 1.0), T)
    int_sig_h = lebesgue_time_norm(series["sigma"], 1.0, hyb_one, T) \
        + lebesgue_time_norm(series["h"], 1.0, hyb_one, T)
    int_v = lebesgue_time_norm(series["velocity"], 1.0, BesovSpec(s + 1.0), T)
    return sup_sig_h + sup_v + mu * (int_sig_h + int_v)


def initial_hybrid_size(grid: GridSpec, state: np.ndarray, mu: float, s: float) -> float:
    hyb = HybridSpec(s, INF, mu)
    sigma, velocity, h = split_state(grid, state)
    return (besov_norm(grid, sigma, hyb).value
            + besov_norm(grid, velocity, BesovSpec(s - 1.0)).value
            + besov_norm(grid, h, hyb).value)


# the keys of a `smallness_experiment` row; the row of a failed run lacks
# the quantities the run did not reach and holds its `error`
SMALLNESS_COLUMNS = ["alpha", "initial_norm", "energy_aggregate", "pressure_l1",
                     "energy_over_alpha", "pressure_over_alpha_sq", "ok", "error"]


def smallness_experiment(alpha_list, T: float, grid: GridSpec,
                         params: PhysicalParams, *, dt: float = 0.01,
                         save_stride: int = 10, seed: int = 11) -> list[dict]:
    """For each target size alpha, build compatible data whose initial
    hybrid norm equals alpha (amplitude bisection to 1%), run to T, and
    record the energy-aggregate/alpha ratio and the pressure/alpha^2
    ratio.

    Run failures are recorded per row, not raised.  The data are of the
    "exact_gradient" family, whose sigma0 = 0 makes the pressure source
    genuinely quadratic in the data size.
    """
    s = grid.dim / 2.0
    rows = []
    for alpha in alpha_list:
        row: dict = {"alpha": alpha}
        try:
            if alpha == 0.0:
                state = make_initial_data("exact_gradient", 0.0, seed, grid)[0]
            else:
                state = _bisect_amplitude(alpha, seed, grid, params.mu, s)
            achieved = initial_hybrid_size(grid, state, params.mu, s)
            row["initial_norm"] = achieved
            result = run(grid, state, params, TimeGrid(T, dt, save_stride))
            series = {name: norm_series(grid, result.times,
                                        [split_state(grid, st)[i] for st in result.coeffs])
                      for i, name in enumerate(("sigma", "velocity", "h"))}
            series["pressure_grad"] = norm_series(grid, result.times, result.pressure_grad)
            agg = aggregate_energy_norm(series, result.times[-1], params.mu, s)
            press = lebesgue_time_norm(series["pressure_grad"], 1.0,
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


def _bisect_amplitude(alpha: float, seed: int, grid: GridSpec, mu: float, s: float):
    def size(amp):
        st = make_initial_data("exact_gradient", amp, seed, grid)[0]
        return st, initial_hybrid_size(grid, st, mu, s)

    amp = alpha
    st, val = size(amp)
    # initial-data norms are near-linear in amplitude: rescale then bisect
    amp *= alpha / val
    lo, hi = 0.5 * amp, 2.0 * amp
    st, val = size(amp)
    for _ in range(60):
        if abs(val - alpha) <= 0.01 * alpha:
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
