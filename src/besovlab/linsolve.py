"""Time steppers for the linear building blocks: advection (transport),
diffusion (heat), the variable-coefficient elliptic problem, and the
skew-coupled hyperbolic-parabolic pair.

Time integration is 4-stage Runge-Kutta with an exact integrating
factor on every diffusive mode, so the pure heat evolution is exact per
Fourier mode.  Callbacks of t are evaluated once per distinct stage time.

Every input, output and callable value is one field, scalar or stacked
(or its coefficient array, the k_last >= 0 half of `spectral`), and a
`TrajectoryResult` keeps the array its solver integrated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .spectral import (
    GridSpec,
    SpectralField,
    advect,
    dealiased,
    energy,
    gradient_samples,
    grid_wavenumbers,
    hermitize,
    inverse_transform,
    samples,
    stacked_divergence,
    stacked_gradient,
)

CFL_LIMIT = 1.0


class CflViolationError(RuntimeError):
    """dt * |v|_inf * (M/3) exceeded the stability limit."""


class NonSolenoidalError(ValueError):
    """Advecting velocity failed the divergence-free check."""


class NonPositiveCoefficientError(ValueError):
    """The elliptic coefficient (sigma + 1 for the pressure) is not positive
    on the grid."""


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


def _coeffs(u) -> np.ndarray:
    """The coefficients of a field, or an array as it is."""
    return u.coeffs if isinstance(u, SpectralField) else u


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


def _velocity_samples(velocity, grid: GridSpec, dt: float):
    """None, or t -> (stacked velocity, its samples) once per stage time."""
    def sample(t):
        v = _coeffs(velocity(t) if callable(velocity) else velocity)
        return v, samples(grid, v)
    return None if velocity is None else _per_stage_time(sample, dt)


def _forcing_coeffs(forcing, grid: GridSpec, dt: float):
    """None, or t -> `_rows` of forcing(t) once per stage time."""
    return None if forcing is None else _per_stage_time(
        lambda t: _rows(grid, _coeffs(forcing(t))), dt)


def velocity_max(v_samples: np.ndarray) -> float:
    """Max pointwise speed sqrt(sum v_i^2), from the velocity's samples."""
    speed2 = sum(v ** 2 for v in v_samples)
    return float(np.sqrt(np.max(speed2)))


def check_cfl(grid: GridSpec, dt: float, vmax: float):
    cfl = dt * vmax * grid.dealias_radius
    if cfl > CFL_LIMIT * (1 + 1e-12):
        raise CflViolationError(
            f"CFL number {cfl:.3g} exceeds {CFL_LIMIT} (dt={dt}, |v|max={vmax:.3g})"
        )


def check_solenoidal(grid: GridSpec, velocity: np.ndarray):
    """Raise NonSolenoidalError unless the stacked velocity coefficients are
    divergence-free to 1e-10 of their largest."""
    div = stacked_divergence(grid, velocity)
    scale = max(np.max(np.abs(velocity)), 1e-300)
    defect = np.max(np.abs(div)) / scale
    if defect > 1e-10:
        raise NonSolenoidalError(f"velocity divergence {defect:.3g} exceeds 1e-10")


def heat_decay(grid: GridSpec, mu: float, dt: float) -> np.ndarray:
    k2 = grid_wavenumbers(grid)["k2"]
    return np.exp(-mu * k2 * dt)


def if_factors(grid: GridSpec, mu: float, dt: float, diffusing) -> tuple:
    """Integrating factors (exp(mu Lap dt), exp(mu Lap dt/2)) stacked per
    component; components with diffusing[i] false get the factor 1."""
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


# -- transport --------------------------------------------------------------


@dataclass
class TrajectoryResult:
    """Saved slices of a field, scalar or stacked, in time: coeffs[it] holds
    the coefficients saved at times[it]."""

    times: np.ndarray
    coeffs: np.ndarray  # (nt, *components, *grid.coeff_shape)
    grid: GridSpec

    @property
    def states(self) -> SpectralField:
        """The trajectory as one field; its first axis is time."""
        return SpectralField(self.grid, self.coeffs)


def _trajectory(grid: GridSpec, y0: np.ndarray, step, tg: TimeGrid,
                shape: tuple) -> TrajectoryResult:
    """Integrate the rows `y0` with `step`, keeping every saved array; the
    result's slices are coefficients of shape `shape`."""
    times, saved = integrate(y0, step, tg, lambda t, y: y)
    return TrajectoryResult(times, np.stack(saved).reshape((len(times),) + shape), grid)


def solve_transport(u0: SpectralField, velocity, forcing, tg: TimeGrid, *,
                    check_divergence: bool = True) -> TrajectoryResult:
    """Advance du/dt + (v . grad) u = g pseudo-spectrally with RK4.

    `u0` is a field, scalar or stacked, whose components are advected
    together; `velocity` is a vector field or a callable t -> one;
    `forcing` is None or a callable t -> a field shaped like `u0`.  Both
    callables must be functions of t only, evaluated once per distinct
    stage time (t, t + dt/2); one velocity sample serves the CFL guard and
    the stages at that time.  The callables may return fields or
    coefficient arrays.  The advection product is
    dealiased and a CFL guard dt * |v|_inf * (M/3) <= 1 is enforced each
    step.
    """
    grid = u0.grid
    vel = _velocity_samples(velocity, grid, tg.dt)
    force = _forcing_coeffs(forcing, grid, tg.dt)
    y0 = _rows(grid, u0.coeffs)
    e_full, e_half = if_factors(grid, 0.0, tg.dt, [False] * len(y0))

    def rhs(t, arr):
        out = np.zeros_like(arr) if vel is None else -dealiased(
            grid, advect(grid, vel(t)[1], gradient_samples(grid, arr)))
        if force is not None:
            out += force(t)
        return out

    def step(y, t):
        if vel is not None:
            v_now, v_s = vel(t)
            check_cfl(grid, tg.dt, velocity_max(v_s))
            if check_divergence:
                check_solenoidal(grid, v_now)
        return if_rk4_step(y, t, tg.dt, e_full, e_half, rhs)

    return _trajectory(grid, y0, step, tg, u0.coeffs.shape)


# -- heat -------------------------------------------------------------------


def solve_heat(u0: SpectralField, forcing, mu: float, tg: TimeGrid) -> TrajectoryResult:
    """Advance du/dt - mu Lap(u) = f with an exact per-mode integrating
    factor; for f = 0 every mode decays exactly by exp(-mu |k|^2 dt).
    `u0` and `forcing` are as in `solve_transport`.

    The forcing is state-independent, so the four Runge-Kutta stages
    collapse to a Simpson rule in the integrating-factor variable, with
    one evaluation per distinct stage time.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    grid = u0.grid
    dt = tg.dt
    y0 = _rows(grid, u0.coeffs)
    e_full, e_half = if_factors(grid, mu, dt, [True] * len(y0))
    force = _forcing_coeffs(forcing, grid, dt)

    def step(y, t):
        if force is None:
            return e_full * y
        return e_full * y + (dt / 6.0) * (
            e_full * force(t) + 4.0 * e_half * force(t + 0.5 * dt) + force(t + dt)
        )

    return _trajectory(grid, y0, step, tg, u0.coeffs.shape)


# -- variable-coefficient elliptic solve -------------------------------------


@dataclass
class EllipticResult:
    """The solution's potential plus the Richardson iteration record; `u`
    and `flux` are coefficient arrays, `gradient` a field."""

    grid: GridSpec
    u: np.ndarray  # the potential's coefficients
    residuals: np.ndarray
    iterations: int
    flux: np.ndarray  # dealiased a grad u, stacked: the last residual's flux
    stagnated: bool = False  # stopped at the rounding floor below target

    @property
    def gradient(self) -> SpectralField:
        return SpectralField(self.grid, stacked_gradient(self.grid, self.u))


def solve_variable_poisson(a: SpectralField | np.ndarray, f: SpectralField | np.ndarray, *,
                           tol: float = 1e-12, max_iter: int = 200,
                           warm_start: SpectralField | np.ndarray | None = None
                           ) -> EllipticResult:
    """Solve -div(a grad u) = f on the torus by mean-preconditioned
    Richardson iteration: u <- u + (-abar Lap)^(-1) (f + div(a grad u)).

    Requires a > 0 on the grid (else NonPositiveCoefficientError) and
    mean-zero f (solvability); converges when the relative oscillation of
    `a` is below one.  `a` is a field, sampled here once, or grid samples
    the caller holds (a stage passes sigma + 1 from its own samples of
    sigma); the positivity check, abar (their mean) and every residual
    read those samples.  `f` and `warm_start` are fields or coefficient
    arrays; f is projected onto the real-field subspace (`hermitize`: its
    anti-Hermitian rounding content is unreachable by the real-sample
    operator).  Each residual
    samples the stacked gradient of u, multiplies by them and takes one
    dealiased transform of the flux, the arithmetic of
    `product(a, derivative(u, ax))` per axis; the result keeps the flux of
    the returned potential.  Raises EllipticConvergenceError when max_iter
    is hit, with the residual history attached.
    """
    if isinstance(a, SpectralField):
        grid, a = a.grid, inverse_transform(a)
    else:
        grid = GridSpec(a.ndim, a.shape[0])
    if isinstance(f, SpectralField) and f.grid != grid:
        raise ValueError("coefficient and right side live on different grids")
    f = _coeffs(f)
    if a.shape != grid.shape or f.shape != grid.coeff_shape:
        raise ValueError(f"coefficient samples {a.shape} do not match the right "
                         f"side {f.shape}")
    f = hermitize(SpectralField(grid, f)).coeffs
    a_min = float(a.min())
    if a_min <= 0:
        raise NonPositiveCoefficientError(
            f"elliptic coefficient min = {a_min:.3g} is not positive on the grid")
    abar = float(a.mean())
    fnorm = float(np.sqrt(energy(f)))
    f_mean = float(f[(0,) * grid.dim].real)
    if abs(f_mean) > 1e-10 * max(1.0, fnorm):
        raise ValueError(f"right side must be mean-zero, got mean {f_mean:.3g}")

    k2 = grid_wavenumbers(grid)["k2"]
    inv_lap = np.where(k2 > 0, 1.0 / (abar * np.where(k2 > 0, k2, 1.0)), 0.0)
    u = (np.array(_coeffs(warm_start), dtype=complex) if warm_start is not None
         else np.zeros(f.shape, complex))
    grad = np.empty((grid.dim,) + grid.shape)
    flux = np.empty((grid.dim,) + grid.coeff_shape, dtype=complex)

    def result(it, stagnated=False):
        return EllipticResult(grid, u, np.asarray(residuals), it, flux, stagnated)

    residuals = []
    target = tol * max(fnorm, 1e-300)
    # the residual assembly has a rounding floor that can sit above a very
    # tight relative target; flat iterations deep below the data scale are
    # accepted as converged-at-floor rather than reported as failure
    floor_gate = np.sqrt(np.finfo(float).eps) * max(fnorm, 1e-300)
    for it in range(max_iter + 1):
        gradient_samples(grid, u, out=grad)
        np.multiply(a, grad, out=grad)
        dealiased(grid, grad, flux)
        r = stacked_divergence(grid, flux)
        r += f
        rnorm = float(np.sqrt(energy(r)))
        residuals.append(rnorm)
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


def solve_coupled(c0: SpectralField, d0: SpectralField, velocity, forcing_c, forcing_d,
                  mu: float, tg: TimeGrid) -> TrajectoryResult:
    """Advance the pair  dc/dt + v.grad c + Lam d = f,
    dd/dt + v.grad d - mu Lap d - Lam c = g,  with Lam = (-Lap)^(1/2).

    `c0` and `d0` are fields of one shape; the result stacks c over d, so
    `states[-1][0]` is c and `states[-1][1]` is d.  The skew pair
    (Lam d, -Lam c) sits inside the Runge-Kutta stages; diffusion on d uses
    the exact integrating factor, so with v = 0 and zero forcing each mode
    follows the 2x2 linear system exactly up to RK4 truncation of the skew
    rotation.  Callables of t are evaluated once per distinct stage time,
    as in `solve_transport`.
    """
    if c0.coeffs.shape != d0.coeffs.shape:
        raise ValueError("c0 and d0 must have matching component counts")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    grid = c0.grid
    c, d = _rows(grid, c0.coeffs), _rows(grid, d0.coeffs)
    nc = len(c)
    vel = _velocity_samples(velocity, grid, tg.dt)
    force_c = _forcing_coeffs(forcing_c, grid, tg.dt)
    force_d = _forcing_coeffs(forcing_d, grid, tg.dt)
    e_full, e_half = if_factors(grid, mu, tg.dt, [False] * nc + [True] * nc)
    kmag = grid_wavenumbers(grid)["kmag"]

    def rhs(t, arr):
        out = np.concatenate([-kmag * arr[nc:], kmag * arr[:nc]])
        if vel is not None:
            out -= dealiased(grid, advect(grid, vel(t)[1], gradient_samples(grid, arr)))
        if force_c is not None:
            out[:nc] += force_c(t)
        if force_d is not None:
            out[nc:] += force_d(t)
        return out

    def step(y, t):
        if vel is not None:
            check_cfl(grid, tg.dt, velocity_max(vel(t)[1]))
        return if_rk4_step(y, t, tg.dt, e_full, e_half, rhs)

    return _trajectory(grid, np.concatenate([c, d]), step, tg, (2,) + c0.coeffs.shape)
