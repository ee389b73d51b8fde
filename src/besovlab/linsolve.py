"""Time steppers for the linear building blocks: advection (transport),
diffusion (heat), the variable-coefficient elliptic problem, and the
skew-coupled hyperbolic-parabolic pair.

One 4-stage Runge-Kutta core (`_evolve`) advances the three evolutions,
with an exact integrating factor on every diffusive mode (pure heat is
exact per Fourier mode); callbacks of t run once per distinct stage time.

Every solver takes `(grid, arrays)`: its fields are stacked coefficient
arrays (the k_last >= 0 half of `spectral`), scalar or stacked, its
velocity and forcing are None or callables t -> such arrays, the
elliptic coefficient is grid samples, and a `TrajectoryResult` keeps the
array its solver integrated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .spectral import (
    GridSpec,
    advect,
    dealiased,
    divergence,
    energy,
    gradient_samples,
    grid_wavenumbers,
    hermitize,
    samples,
)

CFL_LIMIT = 1.0
GROWTH_LIMIT = 1e3  # a residual above this times max(|f|, first residual) diverges


class CflViolationError(RuntimeError):
    """dt * |v|_inf * (M/3) exceeded the stability limit."""


class NonSolenoidalError(ValueError):
    """Advecting velocity failed the divergence-free check."""


class NonPositiveCoefficientError(ValueError):
    """The elliptic coefficient (sigma + 1 for the pressure) is not positive
    and finite on the grid."""


class EllipticConvergenceError(RuntimeError):
    """Richardson iteration did not reach the requested residual."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class TimeGrid:
    """Uniform step layout over [0, t_end] with snapshot stride."""

    t_end: float
    dt: float
    save_stride: int = 1

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be positive and finite")
        n = self.t_end / self.dt
        if not n <= sys.maxsize:
            raise ValueError(f"t_end/dt = {n:g} steps exceed the largest step index {sys.maxsize}")
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError(f"t_end/dt = {n} is not an integer")
        if self.n_steps < 1:
            raise ValueError(f"t_end/dt = {n} gives no time step")
        stride = self.save_stride
        if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
            raise ValueError(f"save_stride must be a positive integer, got {stride!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def save_steps(self) -> list[int]:
        """Saved step indices: 0, every save_stride-th step, and the last."""
        steps = list(range(0, self.n_steps + 1, self.save_stride))
        if steps[-1] != self.n_steps:
            steps.append(self.n_steps)
        return steps


def integrate(y, step, tg: TimeGrid, save):
    """Advance y <- step(y, t) over the time grid, calling save(t, y) at
    t = 0 and after every saved step; returns (times, save results).

    Each save runs as soon as its step completes, so whatever `save`
    writes survives an abort in a later step.
    """
    saved_at = set(tg.save_steps())
    times, saved = [0.0], [save(0.0, y)]
    for n in range(tg.n_steps):
        y = step(y, n * tg.dt)
        if n + 1 in saved_at:
            times.append((n + 1) * tg.dt)
            saved.append(save(times[-1], y))
    return np.asarray(times), saved


# -- helpers ---------------------------------------------------------------


def _rows(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """`coeffs` with its component axes flattened to one (a scalar field is
    one row): the array a solver integrates."""
    return coeffs.reshape((-1,) + grid.coeff_shape)


def _per_stage_time(fn, dt: float):
    """t -> fn(t), evaluated once per distinct stage time: keyed by the
    half-step index round(2t/dt), since n dt + dt and (n + 1) dt may differ
    by an ulp.  Only the latest stage time is kept."""
    memo = {}

    def at(t):
        key = round(2.0 * t / dt)
        if key not in memo:
            memo.clear()
            memo[key] = fn(t)
        return memo[key]

    return at


def velocity_max(v_samples: np.ndarray) -> float:
    """Max pointwise speed sqrt(sum v_i^2), from the velocity's samples."""
    speed2 = sum(v ** 2 for v in v_samples)
    return float(np.sqrt(np.max(speed2)))


def check_cfl(grid: GridSpec, dt: float, vmax: float):
    cfl = dt * vmax * grid.dealias_radius
    if not cfl <= CFL_LIMIT * (1 + 1e-12):  # a NaN speed fails too
        problem = f"exceeds {CFL_LIMIT}" if math.isfinite(cfl) else "is not finite"
        raise CflViolationError(
            f"CFL number {cfl:.3g} {problem} (dt={dt}, |v|max={vmax:.3g})"
        )


def check_solenoidal(grid: GridSpec, velocity: np.ndarray):
    """Raise NonSolenoidalError unless the stacked velocity coefficients are
    divergence-free to 1e-10 of their largest."""
    div = divergence(grid, velocity)
    scale = max(np.max(np.abs(velocity)), 1e-300)
    defect = np.max(np.abs(div)) / scale
    if defect > 1e-10:
        raise NonSolenoidalError(f"velocity divergence {defect:.3g} exceeds 1e-10")


def heat_decay(grid: GridSpec, mu: float, dt: float) -> np.ndarray:
    k2 = grid_wavenumbers(grid)["k2"]
    return np.exp(-mu * k2 * dt)


def if_factors(grid: GridSpec, mu: float, dt: float, diffusing) -> tuple:
    """Integrating factors (exp(mu Lap dt), exp(mu Lap dt/2)) stacked per
    component; components with diffusing[i] false get the factor 1 (one
    flag serves every component)."""
    mask = np.asarray(diffusing, dtype=bool).reshape((-1,) + (1,) * grid.dim)
    return tuple(np.where(mask, heat_decay(grid, mu, h), 1.0)
                 for h in (dt, 0.5 * dt))


def if_rk4_step(y: np.ndarray, t: float, dt: float, e_full: np.ndarray,
                e_half: np.ndarray, rhs, k1: np.ndarray | None = None) -> np.ndarray:
    """One Lawson (integrating-factor) RK4 step of y' = L y + N(t, y),
    where exp(L dt) = e_full acts diagonally; `k1` is N(t, y) when the
    caller has it already."""
    if k1 is None:
        k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, e_half * (y + 0.5 * dt * k1))
    k3 = rhs(t + 0.5 * dt, e_half * y + 0.5 * dt * k2)
    k4 = rhs(t + dt, e_full * y + dt * e_half * k3)
    return e_full * y + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


# -- linear evolutions -----------------------------------------------------


@dataclass
class TrajectoryResult:
    """Saved slices of a stacked coefficient array in time: coeffs[it]
    holds the coefficients saved at times[it]."""

    times: np.ndarray
    coeffs: np.ndarray  # (nt, *components, *grid.coeff_shape)


def _evolve(grid: GridSpec, u0: np.ndarray, tg: TimeGrid, mu: float, diffusing,
            velocity=None, forcing=None, linear=None,
            check_divergence: bool = False) -> TrajectoryResult:
    """Integrate the rows y of the coefficients `u0` (`_rows`) under
    y' = mu Lap y (on the rows `diffusing` marks, as in `if_factors`) +
    linear(y) - (v . grad) y + g(t)  by IF-RK4 steps, keeping every saved
    array.

    `velocity` is None or a callable t -> the stacked velocity
    coefficients (dim, *grid); `forcing` is None or a callable t ->
    coefficients shaped like `u0`; `linear` is None or a map of the rows.
    The callables must be functions of t only: each is evaluated once per
    distinct stage time (t, t + dt/2; t + dt is the next step's t), and one
    velocity sample serves the CFL guard dt * |v|_inf * (M/3) <= 1, the
    divergence check when `check_divergence` and the stages at that time.
    The advection product is dealiased.
    """
    dt = tg.dt

    def sample(t):  # the stacked velocity and its samples
        v = velocity(t)
        return v, samples(grid, v)

    vel = None if velocity is None else _per_stage_time(sample, dt)
    force = None if forcing is None else _per_stage_time(
        lambda t: _rows(grid, forcing(t)), dt)
    e_full, e_half = if_factors(grid, mu, dt, diffusing)

    def rhs(t, arr):  # a stage never writes into its k, so a kept forcing serves as one
        out = None if linear is None else linear(arr)
        if vel is not None:
            adv = dealiased(grid, advect(grid, vel(t)[1], gradient_samples(grid, arr)))
            out = -adv if out is None else out - adv
        if force is not None:
            out = force(t) if out is None else np.add(out, force(t), out=out)
        return np.zeros_like(arr) if out is None else out

    def step(y, t):
        if vel is not None:
            v_now, v_s = vel(t)
            check_cfl(grid, dt, velocity_max(v_s))
            if check_divergence:
                check_solenoidal(grid, v_now)
        return if_rk4_step(y, t, dt, e_full, e_half, rhs)

    times, saved = integrate(_rows(grid, u0), step, tg, lambda t, y: y)
    return TrajectoryResult(times, np.stack(saved).reshape((len(times),) + u0.shape))


def solve_transport(grid: GridSpec, u0: np.ndarray, velocity, forcing, tg: TimeGrid, *,
                    check_divergence: bool = True) -> TrajectoryResult:
    """Advance du/dt + (v . grad) u = g pseudo-spectrally with RK4.

    `u0` holds coefficients, scalar or stacked, whose components are
    advected together; `velocity` is None or a callable t -> the stacked
    velocity coefficients (a constant v is passed as lambda t: v), and
    `forcing` None or a callable t -> coefficients shaped like `u0`, both
    of t only (`_evolve` gives the stage times and the CFL guard).
    """
    return _evolve(grid, u0, tg, 0.0, False, velocity, forcing,
                   check_divergence=check_divergence)


def solve_heat(grid: GridSpec, u0: np.ndarray, forcing, mu: float,
               tg: TimeGrid) -> TrajectoryResult:
    """Advance du/dt - mu Lap(u) = f with an exact per-mode integrating
    factor; `u0` and `forcing` are as in `solve_transport`.

    The IF-RK4 step is exact for f = 0: every mode decays by
    exp(-mu |k|^2 dt).  The forcing does not read the state, so the two
    midpoint stages agree and the step is Simpson's rule for the Duhamel
    integral of f.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    return _evolve(grid, u0, tg, mu, True, forcing=forcing)


# -- variable-coefficient elliptic solve -------------------------------------


@dataclass
class EllipticResult:
    """The solution's potential plus the Richardson iteration record; `u`
    and `flux` are coefficient arrays, and grad u is `gradient(grid, u)`."""

    u: np.ndarray  # the potential's coefficients
    residuals: np.ndarray
    iterations: int
    flux: np.ndarray  # dealiased a grad u, stacked: the last residual's flux
    stagnated: bool = False  # stopped at the rounding floor below target


def solve_variable_poisson(grid: GridSpec, a: np.ndarray, f: np.ndarray, *,
                           tol: float = 1e-12, max_iter: int = 200,
                           warm_start: np.ndarray | None = None) -> EllipticResult:
    """Solve -div(a grad u) = f on the torus by mean-preconditioned
    Richardson iteration: u <- u + (-abar Lap)^(-1) (f + div(a grad u)).

    Requires finite a > 0 on the grid (else NonPositiveCoefficientError)
    and mean-zero f (solvability); converges when the relative oscillation
    of `a` is below one.  `a` is the grid samples of the coefficient (a
    stage passes sigma + 1 from its own samples of sigma); the positivity
    check, abar (their mean) and every residual read them.  `f` and
    `warm_start` are coefficients; f is projected onto the real-field
    subspace (`hermitize`: its anti-Hermitian rounding content is
    unreachable by the real-sample operator).  Each residual samples the
    stacked gradient of u, multiplies by `a` and takes one dealiased
    transform of the flux, the arithmetic of `product` of a with each
    d_l u; the result keeps the flux of the returned potential.  Raises
    EllipticConvergenceError, with the residual history, when max_iter is
    hit or a residual is not at most GROWTH_LIMIT times the larger of |f|
    and the first residual (divergence: a_max/abar above 2, which the
    message names; the history ends in that residual).
    """
    if a.shape != grid.shape or f.shape != grid.coeff_shape:
        raise ValueError(f"coefficient samples {a.shape} and right side {f.shape} do not "
                         f"match the grid {grid.shape}")
    f = hermitize(grid, f)
    a_min, abar = float(a.min()), float(a.mean())
    if not (a_min > 0 and math.isfinite(abar)):  # NaN and inf samples fail too
        raise NonPositiveCoefficientError(
            f"elliptic coefficient min = {a_min:.3g} is not positive on the grid"
            if math.isfinite(abar) else
            f"elliptic coefficient mean = {abar:.3g} is not finite on the grid")
    fnorm = float(np.sqrt(energy(f)))
    f_mean = float(f[(0,) * grid.dim].real)
    if abs(f_mean) > 1e-10 * max(1.0, fnorm):
        raise ValueError(f"right side must be mean-zero, got mean {f_mean:.3g}")

    k2 = grid_wavenumbers(grid)["k2"]
    inv_lap = np.where(k2 > 0, 1.0 / (abar * np.where(k2 > 0, k2, 1.0)), 0.0)
    u = (np.array(warm_start, dtype=complex) if warm_start is not None
         else np.zeros(f.shape, complex))
    grad = np.empty((grid.dim,) + grid.shape)
    flux = np.empty((grid.dim,) + grid.coeff_shape, dtype=complex)

    def result(it, stagnated=False):
        return EllipticResult(u, np.asarray(residuals), it, flux, stagnated)

    residuals = []
    target = tol * max(fnorm, 1e-300)
    # the residual assembly has a rounding floor that can sit above a very
    # tight relative target; flat iterations deep below the data scale are
    # accepted as converged-at-floor rather than reported as failure
    floor_gate = np.sqrt(np.finfo(float).eps) * max(fnorm, 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging iterate overflows
        for it in range(max_iter + 1):
            gradient_samples(grid, u, out=grad)
            np.multiply(a, grad, out=grad)
            dealiased(grid, grad, flux)
            r = divergence(grid, flux)
            r += f
            rnorm = float(np.sqrt(energy(r)))
            residuals.append(rnorm)
            if not rnorm <= GROWTH_LIMIT * max(fnorm, residuals[0]):  # NaN and inf fail too
                raise EllipticConvergenceError(
                    f"Richardson iteration diverged at iteration {it}: residual {rnorm:.3g} "
                    f"exceeds {GROWTH_LIMIT:g} x max(|f|, first residual), |f| = {fnorm:.3g}; "
                    f"a_max/abar = {float(a.max()) / abar:.3g} (it converges below 2)",
                    np.asarray(residuals))
            if rnorm <= target or fnorm == 0.0:
                return result(it)
            if it >= 4 and rnorm <= floor_gate:
                recent = residuals[-4:]
                if recent[-1] > 0.99 * min(recent[:-1]):
                    return result(it, stagnated=True)
            if it == max_iter:
                break
            u += r * inv_lap
    raise EllipticConvergenceError(
        f"no convergence in {max_iter} iterations; final residual "
        f"{residuals[-1]:.3g} (target {target:.3g})",
        np.asarray(residuals),
    )


# -- coupled hyperbolic-parabolic pair ---------------------------------------


def solve_coupled(grid: GridSpec, c0: np.ndarray, d0: np.ndarray, velocity, forcing_c,
                  forcing_d, mu: float, tg: TimeGrid) -> TrajectoryResult:
    """Advance the pair  dc/dt + v.grad c + Lam d = f,
    dd/dt + v.grad d - mu Lap d - Lam c = g,  with Lam = (-Lap)^(1/2).

    `c0` and `d0` are coefficients of one shape; the result stacks c over
    d, so `coeffs[-1, 0]` is c and `coeffs[-1, 1]` is d.  The skew pair
    (Lam d, -Lam c) sits inside the Runge-Kutta stages; diffusion on d uses
    the exact integrating factor, so with v = 0 and zero forcing each mode
    follows the 2x2 linear system exactly up to RK4 truncation of the skew
    rotation.  `velocity` is as in `solve_transport`, and `forcing_c`,
    `forcing_d` as its `forcing`.
    """
    if c0.shape != d0.shape:
        raise ValueError("c0 and d0 must have matching component counts")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    c = _rows(grid, c0)
    nc, kmag = len(c), grid_wavenumbers(grid)["kmag"]

    def forcing(t):  # a missing half is zero
        return np.concatenate([np.zeros_like(c) if f is None else _rows(grid, f(t))
                               for f in (forcing_c, forcing_d)])

    return _evolve(grid, np.stack([c0, d0]), tg, mu, [False] * nc + [True] * nc, velocity,
                   None if forcing_c is None and forcing_d is None else forcing,
                   lambda y: np.concatenate([-kmag * y[nc:], kmag * y[:nc]]))
