"""Time steppers for the linear building blocks: advection (transport),
diffusion (heat), the variable-coefficient elliptic problem, and the
skew-coupled hyperbolic-parabolic pair.

Time integration is 4-stage Runge-Kutta with an exact integrating
factor on every diffusive mode, so the pure heat evolution is exact per
Fourier mode.  Forcings are callbacks evaluated at stage times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import NormSeries, norm_series
from .spectral import (
    GridSpec,
    SpectralField,
    advect,
    derivative,
    divergence,
    grid_wavenumbers,
    hermitize,
    inverse_transform,
    product,
)

CFL_LIMIT = 1.0


class CflViolationError(RuntimeError):
    """dt * |v|_inf * (M/3) exceeded the stability limit."""


class NonSolenoidalError(ValueError):
    """Advecting velocity failed the divergence-free check."""


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
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        n = self.t_end / self.dt
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError(f"t_end/dt = {n} is not an integer")
        if self.save_stride < 1:
            raise ValueError("save_stride must be >= 1")

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


def _as_list(u) -> list[SpectralField]:
    return [u] if isinstance(u, SpectralField) else list(u)


def _stack(fields: list[SpectralField]) -> np.ndarray:
    return np.stack([f.coeffs for f in fields])


def _unstack(grid: GridSpec, arr: np.ndarray) -> list[SpectralField]:
    return [SpectralField(grid, arr[i].copy()) for i in range(arr.shape[0])]


def _velocity_callable(velocity):
    if velocity is None:
        return None
    if callable(velocity):
        return velocity
    frozen = _as_list(velocity)
    return lambda t: frozen


def velocity_max(velocity: list[SpectralField]) -> float:
    """Max pointwise speed sqrt(sum v_i^2)."""
    speed2 = sum(inverse_transform(v) ** 2 for v in velocity)
    return float(np.sqrt(np.max(speed2)))


def check_cfl(grid: GridSpec, dt: float, vmax: float):
    cfl = dt * vmax * grid.dealias_radius
    if cfl > CFL_LIMIT * (1 + 1e-12):
        raise CflViolationError(
            f"CFL number {cfl:.3g} exceeds {CFL_LIMIT} (dt={dt}, |v|max={vmax:.3g})"
        )


def check_solenoidal(velocity: list[SpectralField], tol: float = 1e-10):
    div = divergence(velocity)
    scale = max(np.max(np.abs(_stack(velocity))), 1e-300)
    defect = np.max(np.abs(div.coeffs)) / scale
    if defect > tol:
        raise NonSolenoidalError(f"velocity divergence {defect:.3g} exceeds {tol}")


def heat_decay(grid: GridSpec, mu: float, dt: float) -> np.ndarray:
    k2 = grid_wavenumbers(grid)["k2"]
    return np.exp(-mu * k2 * dt)


def if_factors(grid: GridSpec, mu: float, dt: float, diffusing) -> tuple:
    """Integrating factors (exp(mu Lap dt), exp(mu Lap dt/2)) stacked per
    component; components with diffusing[i] false get the factor 1."""
    mask = np.asarray(diffusing, dtype=bool).reshape((-1,) + (1,) * grid.dim)
    return tuple(np.where(mask, heat_decay(grid, mu, h), 1.0) for h in (dt, 0.5 * dt))


def _if_rk4_step(y: np.ndarray, t: float, dt: float, e_full: np.ndarray,
                 e_half: np.ndarray, rhs) -> np.ndarray:
    """One Lawson (integrating-factor) RK4 step of y' = L y + N(t, y),
    where exp(L dt) = e_full acts diagonally."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, e_half * (y + 0.5 * dt * k1))
    k3 = rhs(t + 0.5 * dt, e_half * y + 0.5 * dt * k2)
    k4 = rhs(t + dt, e_full * y + dt * e_half * k3)
    return e_full * y + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


# -- transport --------------------------------------------------------------


@dataclass
class TrajectoryResult:
    """Saved snapshots of a (possibly multi-component) field in time."""

    times: np.ndarray
    states: list  # list over time of list[SpectralField]
    scalar_input: bool = False

    @property
    def final(self):
        last = self.states[-1]
        return last[0] if self.scalar_input else last

    def norm_series(self, p: float = 2.0, profile=None) -> NormSeries:
        return norm_series(self.times, self.states, p, profile)


def solve_transport(u0, velocity, forcing, tg: TimeGrid, *,
                    solenoidal_tol: float = 1e-10,
                    check_divergence: bool = True) -> TrajectoryResult:
    """Advance du/dt + (v . grad) u = g pseudo-spectrally with RK4.

    `u0` is a field or a sequence of fields advected together; `velocity`
    is a list of fields or a callable t -> list; `forcing` is None or a
    callable t -> matching field(s).  The advection product is dealiased
    and a CFL guard dt * |v|_inf * (M/3) <= 1 is enforced each step.
    """
    scalar_input = isinstance(u0, SpectralField)
    comps = _as_list(u0)
    grid = comps[0].grid
    vel = _velocity_callable(velocity)
    e_full, e_half = if_factors(grid, 0.0, tg.dt, [False] * len(comps))

    def rhs(t, arr):
        v = vel(t) if vel is not None else None
        out = np.empty_like(arr)
        for i in range(arr.shape[0]):
            u = SpectralField(grid, arr[i])
            acc = -advect(v, u).coeffs if v is not None else np.zeros(grid.shape, complex)
            out[i] = acc
        if forcing is not None:
            for i, g in enumerate(_as_list(forcing(t))):
                out[i] = out[i] + g.coeffs
        return out

    def step(y, t):
        if vel is not None:
            v_now = vel(t)
            check_cfl(grid, tg.dt, velocity_max(v_now))
            if check_divergence:
                check_solenoidal(v_now, solenoidal_tol)
        return _if_rk4_step(y, t, tg.dt, e_full, e_half, rhs)

    times, states = integrate(_stack(comps), step, tg,
                              lambda t, y: _unstack(grid, y))
    return TrajectoryResult(times, states, scalar_input)


# -- heat -------------------------------------------------------------------


def solve_heat(u0, forcing, mu: float, tg: TimeGrid) -> TrajectoryResult:
    """Advance du/dt - mu Lap(u) = f with an exact per-mode integrating
    factor; for f = 0 every mode decays exactly by exp(-mu |k|^2 dt).

    The forcing is state-independent, so the four Runge-Kutta stages
    collapse to a Simpson rule in the integrating-factor variable.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    scalar_input = isinstance(u0, SpectralField)
    comps = _as_list(u0)
    grid = comps[0].grid
    dt = tg.dt
    e_full, e_half = if_factors(grid, mu, dt, [True] * len(comps))

    def f_at(t):
        if forcing is None:
            return None
        return _stack(_as_list(forcing(t)))

    f_prev = f_at(0.0)

    def step(y, t):
        nonlocal f_prev
        if forcing is None:
            return e_full * y
        f_half = f_at(t + 0.5 * dt)
        f_next = f_at(t + dt)
        y = e_full * y + (dt / 6.0) * (
            e_full * f_prev + 4.0 * e_half * f_half + f_next
        )
        f_prev = f_next
        return y

    times, states = integrate(_stack(comps), step, tg,
                              lambda t, y: _unstack(grid, y))
    return TrajectoryResult(times, states, scalar_input)


# -- variable-coefficient elliptic solve -------------------------------------


@dataclass
class EllipticResult:
    """Gradient of the solution plus the Richardson iteration record."""

    gradient: list[SpectralField]
    potential: SpectralField
    residuals: np.ndarray
    iterations: int
    converged: bool
    stagnated: bool = False  # stopped at the rounding floor below target

    @property
    def contraction_factors(self) -> np.ndarray:
        r = self.residuals
        return r[1:] / np.where(r[:-1] > 0, r[:-1], 1.0)


def solve_variable_poisson(a: SpectralField, f: SpectralField, *,
                           tol: float = 1e-12, max_iter: int = 200,
                           warm_start: SpectralField | None = None) -> EllipticResult:
    """Solve -div(a grad u) = f on the torus by mean-preconditioned
    Richardson iteration: u <- u + (-abar Lap)^(-1) (f + div(a grad u)).

    Requires a > 0 on the grid and mean-zero f (solvability); converges
    when the relative oscillation of `a` is below one.  All products are
    dealiased.  Raises EllipticConvergenceError when max_iter is hit,
    with the residual history attached.
    """
    grid = a.grid
    if f.grid != grid:
        raise ValueError("coefficient and right side live on different grids")
    a_phys = inverse_transform(a)
    a_min = float(a_phys.min())
    if a_min <= 0:
        raise ValueError(f"coefficient must be positive on the grid, min = {a_min:.3g}")
    abar = a.mean
    # the right side represents a real field; its anti-Hermitian rounding
    # content is unreachable by the real-sample operator, so drop it
    f = hermitize(f)
    fnorm = float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))
    if abs(f.mean) > 1e-10 * max(1.0, fnorm):
        raise ValueError(f"right side must be mean-zero, got mean {f.mean:.3g}")

    k2 = grid_wavenumbers(grid)["k2"]
    inv_lap = np.where(k2 > 0, 1.0 / (abar * np.where(k2 > 0, k2, 1.0)), 0.0)
    u = warm_start.copy() if warm_start is not None else SpectralField(
        grid, np.zeros(grid.shape, complex))

    def residual(u_field):
        flux = [product(a, derivative(u_field, ax)) for ax in range(grid.dim)]
        return f + divergence(flux)

    residuals = []
    target = tol * max(fnorm, 1e-300)
    # the residual assembly has a rounding floor that can sit above a very
    # tight relative target; flat iterations deep below the data scale are
    # accepted as converged-at-floor rather than reported as failure
    floor_gate = np.sqrt(np.finfo(float).eps) * max(fnorm, 1e-300)
    for it in range(max_iter + 1):
        r = residual(u)
        rnorm = float(np.sqrt(np.sum(np.abs(r.coeffs) ** 2)))
        residuals.append(rnorm)
        if rnorm <= target or fnorm == 0.0:
            grad = [derivative(u, ax) for ax in range(grid.dim)]
            return EllipticResult(grad, u, np.asarray(residuals), it, True)
        if it >= 4 and rnorm <= floor_gate:
            recent = residuals[-4:]
            if recent[-1] > 0.99 * min(recent[:-1]):
                grad = [derivative(u, ax) for ax in range(grid.dim)]
                return EllipticResult(grad, u, np.asarray(residuals), it, True,
                                      stagnated=True)
        if it == max_iter:
            break
        u = SpectralField(grid, u.coeffs + r.coeffs * inv_lap)
    raise EllipticConvergenceError(
        f"no convergence in {max_iter} iterations; final residual "
        f"{residuals[-1]:.3g} (target {target:.3g})",
        np.asarray(residuals),
    )


# -- coupled hyperbolic-parabolic pair ---------------------------------------


@dataclass
class CoupledState:
    """State (c, d) of the skew-coupled pair; d carries the diffusion."""

    c: list[SpectralField]
    d: list[SpectralField]

    def __post_init__(self):
        if len(self.c) != len(self.d):
            raise ValueError("c and d must have matching component counts")


@dataclass
class CoupledResult:
    times: np.ndarray
    states: list[CoupledState]

    @property
    def final(self) -> CoupledState:
        return self.states[-1]


def solve_coupled(c0, d0, velocity, forcing_c, forcing_d, mu: float,
                  tg: TimeGrid) -> CoupledResult:
    """Advance the pair  dc/dt + v.grad c + Lam d = f,
    dd/dt + v.grad d - mu Lap d - Lam c = g,  with Lam = (-Lap)^(1/2).

    The skew pair (Lam d, -Lam c) sits inside the Runge-Kutta stages;
    diffusion on d uses the exact integrating factor, so with v = 0 and
    zero forcing each mode follows the 2x2 linear system exactly up to
    RK4 truncation of the skew rotation.
    """
    c_list, d_list = _as_list(c0), _as_list(d0)
    if len(c_list) != len(d_list):
        raise ValueError("c0 and d0 must have matching component counts")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    nc = len(c_list)
    grid = c_list[0].grid
    vel = _velocity_callable(velocity)
    e_full, e_half = if_factors(grid, mu, tg.dt, [False] * nc + [True] * nc)
    kmag = grid_wavenumbers(grid)["kmag"]

    def rhs(t, arr):
        v = vel(t) if vel is not None else None
        out = np.empty_like(arr)
        for i in range(nc):
            ci, di = arr[i], arr[nc + i]
            dc = -kmag * di
            dd = kmag * ci
            if v is not None:
                dc = dc - advect(v, SpectralField(grid, ci)).coeffs
                dd = dd - advect(v, SpectralField(grid, di)).coeffs
            out[i], out[nc + i] = dc, dd
        if forcing_c is not None:
            for i, g in enumerate(_as_list(forcing_c(t))):
                out[i] = out[i] + g.coeffs
        if forcing_d is not None:
            for i, g in enumerate(_as_list(forcing_d(t))):
                out[nc + i] = out[nc + i] + g.coeffs
        return out

    def step(y, t):
        if vel is not None:
            check_cfl(grid, tg.dt, velocity_max(vel(t)))
        return _if_rk4_step(y, t, tg.dt, e_full, e_half, rhs)

    def snapshot(t, arr) -> CoupledState:
        return CoupledState(_unstack(grid, arr[:nc]), _unstack(grid, arr[nc:]))

    y = np.concatenate([_stack(c_list), _stack(d_list)])
    times, states = integrate(y, step, tg, snapshot)
    return CoupledResult(times, states)
