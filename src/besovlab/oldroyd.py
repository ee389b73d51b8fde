"""The density-dependent incompressible viscoelastic system on the torus.

State variables: sigma = 1/rho - 1 (specific-volume perturbation), the
solenoidal velocity v, and h = U - I (perturbation of the deformation
gradient U).  The momentum equation carries the elastic stress terms
div h and h-grad-h, a variable-coefficient pressure gradient, and
viscosity mu (sigma + 1) Lap v.

Conventions, fixed here once:
  * matrix divergence is taken over the second index: (div A)^i = d_j A^{ij};
  * the weighted-divergence constraint therefore reads d_j(rho U^{ji}) = 0;
  * h[i][j] stores the (i, j) entry, so the stretching source of h is
    (grad v (h + I))^{ij} = d_j v^i + d_k v^i h^{kj}.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import randfields
from .linsolve import (
    TimeGrid,
    check_cfl,
    if_factors,
    integrate,
    solve_heat,
    solve_transport,
    solve_variable_poisson,
    velocity_max,
    _if_rk4_step,
    _stack,
)
from .norms import INF, BesovSpec, NormSeries, besov_norm, norm_series
from .paley import retained_radius
from .spectral import (
    GridSpec,
    SpectralField,
    advect,
    dealiased,
    derivative,
    divergence,
    grid_wavenumbers,
    inverse_transform,
    lambda_power,
    leray_project,
    product,
    samples,
    stacked_gradient,
    zero_field,
)


class DensityFloorError(RuntimeError):
    """min(sigma + 1) fell below the configured positivity floor."""


@dataclass(frozen=True)
class PhysicalParams:
    mu: float = 1.0
    sigma_floor: float = 0.1

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.sigma_floor > 0:
            raise ValueError("sigma_floor must be positive")


@dataclass(frozen=True)
class AdmissibleSetSpec:
    """Thresholds monitored along the linearization iterates."""

    R: float
    eta: float
    c0e0: float
    T: float

    def __post_init__(self):
        if not (0 < self.R < 1 and 0 < self.eta < 1):
            raise ValueError("R and eta must lie in (0, 1)")


@dataclass
class FluidState:
    """One time slice (sigma, v, h) plus the diagnostic pressure gradient."""

    sigma: SpectralField
    velocity: list[SpectralField]
    h: list[list[SpectralField]]
    pressure_grad: list[SpectralField] | None = None

    @property
    def grid(self) -> GridSpec:
        return self.sigma.grid

    def h_flat(self) -> list[SpectralField]:
        return [self.h[i][j] for i in range(self.grid.dim) for j in range(self.grid.dim)]


def zero_state(grid: GridSpec) -> FluidState:
    n = grid.dim
    return FluidState(
        zero_field(grid),
        [zero_field(grid) for _ in range(n)],
        [[zero_field(grid) for _ in range(n)] for _ in range(n)],
    )


# -- state <-> stacked coefficient array -------------------------------------


def _state_to_array(state: FluidState) -> np.ndarray:
    return _stack([state.sigma] + state.velocity + state.h_flat())


def _array_to_state(grid: GridSpec, arr: np.ndarray) -> FluidState:
    return FluidState(*_unpack(grid, arr.copy()))


def _split(grid: GridSpec, arr: np.ndarray):
    """Array views of sigma, velocity (n, *grid) and h (n, n, *grid) in a
    stacked array."""
    n = grid.dim
    return arr[0], arr[1:1 + n], arr[1 + n:].reshape((n, n) + grid.shape)


def _fields(grid: GridSpec, arr: np.ndarray) -> list[SpectralField]:
    return [SpectralField(grid, c) for c in arr]


def _tensor_fields(grid: GridSpec, arr: np.ndarray) -> list[list[SpectralField]]:
    return [_fields(grid, row) for row in arr]


def _unpack(grid: GridSpec, arr: np.ndarray):
    """Views (no copy) of sigma, velocity, h from a stacked array."""
    sigma, vel, h = _split(grid, arr)
    return SpectralField(grid, sigma), _fields(grid, vel), _tensor_fields(grid, h)


def _stack_tensor(h: list[list[SpectralField]]) -> np.ndarray:
    return np.stack([_stack(row) for row in h])


# -- the quadratic terms ---------------------------------------------------------
#
# Each term is formed once, on the grid, from samples of the stacked
# coefficients, and dealiased once per output component.  Index names follow
# the module docstring: h[i, j] is h^{ij}, and a gradient's last tensor index
# is the derivative's.


def _stretching(grid: GridSpec, vel, h_s) -> np.ndarray:
    """(grad v (I + h))^{ij} = d_j v^i + d_k v^i h^{kj}; h_s holds the
    samples of h."""
    dv = stacked_gradient(grid, vel)
    return dv + dealiased(grid, np.einsum("ik...,kj...->ij...", samples(grid, dv), h_s))


def _fluid_terms(grid: GridSpec, arr: np.ndarray, mu: float) -> np.ndarray:
    """Right side of the stacked (sigma, v, h) system without the pressure
    terms and without mu Lap v: transport of every row, plus
    mu sigma Lap v^i + d_k h^{ik} + h^{jk} d_j h^{ik} in the momentum rows
    and `_stretching` in the h rows."""
    n = grid.dim
    sigma, vel, h = _split(grid, arr)
    sig_s, h_s = samples(grid, sigma), samples(grid, h)
    lap_v = samples(grid, -grid_wavenumbers(grid)["k2"] * vel)
    stress = np.empty(vel.shape)
    for i in range(n):
        dh_i = samples(grid, stacked_gradient(grid, h[i]))  # [k, j] = d_j h^{ik}
        stress[i] = mu * sig_s * lap_v[i] + np.einsum("jk...,kj...->...", h_s, dh_i)
    out = -advect(grid, vel, arr)
    out[1:1 + n] += dealiased(grid, stress)
    out[1:1 + n] += np.einsum("k...,ik...->i...", grid_wavenumbers(grid)["ik"], h)
    out[1 + n:] += _stretching(grid, vel, h_s).reshape((n * n,) + grid.shape)
    return out


def _identity_quadratic(grid: GridSpec, h: np.ndarray) -> np.ndarray:
    """Q[i, j, k] = h^{lk} d_l h^{ij} - h^{lj} d_l h^{ik}, the quadratic part
    of the deformation identity."""
    n = grid.dim
    h_s = samples(grid, h)
    q = np.empty((n,) + h.shape, dtype=np.complex128)
    for i in range(n):
        dh_i = samples(grid, stacked_gradient(grid, h[i]))  # [j, l] = d_l h^{ij}
        a = np.einsum("lk...,jl...->jk...", h_s, dh_i)
        q[i] = dealiased(grid, a - a.swapaxes(0, 1))
    return q


def _density_flux(grid: GridSpec, sigma, h):
    """rho = 1/(sigma + 1) and the dealiased flux[j, i] = rho h^{ji}."""
    rho = reciprocal_density(SpectralField(grid, sigma)).coeffs
    return rho, dealiased(grid, samples(grid, rho) * samples(grid, h))


def _weighted_div(grid: GridSpec, rho, flux) -> np.ndarray:
    """d_j(rho delta_{ji} + flux[j, i]) per i."""
    ik = grid_wavenumbers(grid)["ik"]
    return np.einsum("j...,ji...->i...", ik, flux) + ik * rho


# -- initial data -------------------------------------------------------------


@dataclass
class CompatibilityReport:
    """L2 residuals of the three initial-data constraints."""

    div_velocity: float
    weighted_div: float      # || d_j(rho0 U0^{ji}) ||_L2 summed over i
    deformation_identity: float  # the quadratic compatibility of U0


def _l2(coeffs: np.ndarray, grid: GridSpec) -> float:
    # Parseval for the unit-amplitude coefficient convention
    return float(np.sqrt(np.sum(np.abs(coeffs) ** 2)) * (2 * np.pi) ** (grid.dim / 2.0))


def _l2_fields(fields, grid: GridSpec) -> float:
    return float(np.sqrt(sum(_l2(f.coeffs, grid) ** 2 for f in fields)))


def reciprocal_density(sigma: SpectralField) -> SpectralField:
    """rho = 1/(sigma + 1) as a dealiased grid field."""
    rho = 1.0 / (inverse_transform(sigma) + 1.0)
    return SpectralField(sigma.grid, dealiased(sigma.grid, rho))


def weighted_div_residual(sigma: SpectralField, h: list[list[SpectralField]],
                          first_index: bool = True) -> list[SpectralField]:
    """d_j(rho U^{ji}) per i (first_index=True, the adopted convention),
    or d_j(rho U^{ij}) per i (the transposed reading, reported alongside)."""
    grid = sigma.grid
    rho, flux = _density_flux(grid, sigma.coeffs, _stack_tensor(h))
    return _fields(grid, _weighted_div(grid, rho, flux if first_index
                                       else flux.swapaxes(0, 1)))


def deformation_identity_residual(h: list[list[SpectralField]]) -> list[SpectralField]:
    """U^{lk} d_l U^{ij} - U^{lj} d_l U^{ik} with U = I + h, flattened over
    (i, j, k); vanishes for the gradient of an actual flow map."""
    grid = h[0][0].grid
    hh = _stack_tensor(h)
    res = _identity_quadratic(grid, hh)
    dh = stacked_gradient(grid, hh)
    res += dh  # the linear part d_k h^{ij} - d_j h^{ik}
    res -= dh.swapaxes(1, 2)
    return _fields(grid, res.reshape((-1,) + grid.shape))


# The identity written in the perturbation h,
# d_k h^{ij} - d_j h^{ik} - (h^{lj} d_l h^{ik} - h^{lk} d_l h^{ij}),
# is the same expression, because d(I + h) = dh.
perturbation_identity_residual = deformation_identity_residual


def make_initial_data(family: str, amplitude: float, seed: int, grid: GridSpec, *,
                      h_amplitude: float | None = None,
                      band_radius: float | None = None):
    """Draw compatible initial data; returns (state, CompatibilityReport).

    family "exact_gradient": sigma0 = 0, v0 a solenoidal random field,
    h0 = grad w with w a solenoidal random potential.  The solenoidal and
    weighted-divergence constraints then hold to roundoff and the
    quadratic deformation identity has an O(amplitude^2) residual, which
    is measured, never projected away.

    family "general": additionally sigma0 = amplitude * (random field);
    the weighted-divergence constraint is restored by a variable-
    coefficient Poisson correction on one column potential per column.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if family not in ("exact_gradient", "general"):
        raise ValueError(f"unknown family {family!r}")
    n = grid.dim
    h_amp = amplitude if h_amplitude is None else h_amplitude
    if family == "general" and amplitude > 0 and h_amp == 0:
        raise ValueError(
            "non-constant sigma0 with h0 = 0 cannot satisfy the weighted-"
            "divergence constraint; provide a nonzero h amplitude"
        )
    rng = np.random.default_rng(seed)
    radius = band_radius if band_radius is not None else retained_radius(grid)

    state = zero_state(grid)
    if amplitude > 0:
        v0 = randfields.random_solenoidal(grid, rng, radius=radius)
        state.velocity = [amplitude * f for f in v0]
        if h_amp > 0:
            w = randfields.random_solenoidal(grid, rng, radius=radius)
            state.h = [[h_amp * derivative(w[i], j) for j in range(n)] for i in range(n)]
        if family == "general":
            sig = randfields.random_scalar(grid, rng, radius=radius)
            state.sigma = amplitude * sig
            _restore_weighted_div(state)

    res = constraint_residuals(state)
    return state, CompatibilityReport(res.div_velocity, res.weighted_div,
                                      res.deformation_identity)


def _restore_weighted_div(state: FluidState):
    """Add a gradient column correction to h so d_j(rho (I+h)^{ji}) = 0."""
    grid = state.grid
    n = grid.dim
    rho = reciprocal_density(state.sigma)
    defect = weighted_div_residual(state.sigma, state.h)
    for i in range(n):
        res = solve_variable_poisson(rho, defect[i], tol=1e-13, max_iter=300)
        for j in range(n):
            state.h[j][i] = state.h[j][i] + res.gradient[j]


# -- momentum right side and pressure ----------------------------------------


def momentum_forcing(sigma: SpectralField, velocity: list[SpectralField],
                     h: list[list[SpectralField]], mu: float) -> list[SpectralField]:
    """Explicit momentum forcing: -v.grad v + mu sigma Lap v + div h + h grad h.

    The linear diffusion mu Lap v is excluded (it is integrated exactly
    elsewhere), as is the pressure term.
    """
    grid = sigma.grid
    arr = _stack([sigma] + velocity + [f for row in h for f in row])
    return _fields(grid, _fluid_terms(grid, arr, mu)[1:1 + grid.dim])


def compute_pressure(state: FluidState, params: PhysicalParams, *,
                     tol: float = 1e-11, max_iter: int = 200,
                     warm_start: SpectralField | None = None,
                     forcing: list[SpectralField] | None = None):
    """Solve div((sigma+1) grad P) = div G for the pressure gradient.

    G is the explicit momentum forcing of `momentum_forcing` (or a
    caller-supplied replacement).  Returns (grad P, EllipticResult).
    """
    grid = state.grid
    g = forcing if forcing is not None else momentum_forcing(
        state.sigma, state.velocity, state.h, params.mu)
    a = SpectralField(grid, state.sigma.coeffs.copy())
    a.coeffs[(0,) * grid.dim] += 1.0
    div_g = divergence(g)
    res = solve_variable_poisson(a, -div_g, tol=tol, max_iter=max_iter,
                                 warm_start=warm_start)
    return res.gradient, res


class _Pressure:
    """Warm-started pressure solves: called with a stacked (sigma, v, h)
    state and its momentum forcing g, returns (sigma + 1) grad P."""

    def __init__(self, params: PhysicalParams):
        self.params = params
        self.warm: SpectralField | None = None
        self.last_grad: list[SpectralField] | None = None

    def __call__(self, grid: GridSpec, arr: np.ndarray, g: np.ndarray) -> np.ndarray:
        state = FluidState(*_unpack(grid, arr))
        grad_p, ell = compute_pressure(state, self.params, warm_start=self.warm,
                                       forcing=_fields(grid, g))
        self.warm, self.last_grad = ell.potential, grad_p
        gp = _stack(grad_p)
        return gp + product(state.sigma, gp)


# -- the IF-RK4 steppers -----------------------------------------------------------


class _Stepper:
    """IF-RK4 step of a stacked state with a warm-started pressure solve
    per stage, a CFL check before and a density-floor check after.

    Subclasses supply `diffusing(n)` (which components carry mu Lap),
    `velocity` (the advecting field of a stacked state) and `state` (the
    map back to a FluidState); `finish` post-processes the new state and
    `rhs` is the fluid right side unless overridden."""

    def __init__(self, grid: GridSpec, params: PhysicalParams, dt: float):
        self.grid = grid
        self.params = params
        self.dt = dt
        self.e_full, self.e_half = if_factors(grid, params.mu, dt,
                                              self.diffusing(grid.dim))
        self.pressure = _Pressure(params)

    def rhs(self, t: float, arr: np.ndarray) -> np.ndarray:
        """Right side of the stacked (sigma, v, h) system, pressure included."""
        n = self.grid.dim
        out = _fluid_terms(self.grid, arr, self.params.mu)
        out[1:1 + n] -= self.pressure(self.grid, arr, out[1:1 + n])
        return out

    def finish(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def step(self, arr: np.ndarray, t: float) -> np.ndarray:
        grid, params = self.grid, self.params
        check_cfl(grid, self.dt, velocity_max(self.velocity(arr)))
        nxt = self.finish(_if_rk4_step(arr, t, self.dt, self.e_full, self.e_half,
                                       self.rhs))
        sig_min = float(inverse_transform(SpectralField(grid, nxt[0])).min())
        if sig_min + 1.0 < params.sigma_floor:
            raise DensityFloorError(
                f"min(sigma+1) = {sig_min + 1.0:.3g} fell below the floor "
                f"{params.sigma_floor}"
            )
        return nxt


class _DirectStepper(_Stepper):
    """(sigma, v, h) with the velocity Leray-projected after each step."""

    @staticmethod
    def diffusing(n: int) -> list[bool]:
        return [False] + [True] * n + [False] * (n * n)

    def velocity(self, arr: np.ndarray) -> list[SpectralField]:
        return _unpack(self.grid, arr)[1]

    def state(self, arr: np.ndarray) -> FluidState:
        return _array_to_state(self.grid, arr)

    def finish(self, arr: np.ndarray) -> np.ndarray:
        n = self.grid.dim
        arr[1:1 + n] = _stack(leray_project(_fields(self.grid, arr[1:1 + n])))
        return arr


def step(state: FluidState, params: PhysicalParams, dt: float) -> FluidState:
    """One semi-implicit step of the full system."""
    stepper = _DirectStepper(state.grid, params, dt)
    arr = stepper.step(_state_to_array(state), 0.0)
    out = _array_to_state(state.grid, arr)
    out.pressure_grad = stepper.pressure.last_grad
    return out


# -- constraint monitors -------------------------------------------------------


@dataclass
class ConstraintResiduals:
    """L2 norms of the propagated constraints at one time slice."""

    div_velocity: float
    weighted_div: float            # row convention d_j(rho U^{ji})
    weighted_div_transposed: float  # the other contraction, reported alongside
    deformation_identity: float
    perturbation_identity: float

    def as_dict(self) -> dict:
        return asdict(self)


def constraint_residuals(state: FluidState) -> ConstraintResiduals:
    """The deformation identity is evaluated once and reported under both
    of its names (see `perturbation_identity_residual`)."""
    grid = state.grid
    identity = _l2_fields(deformation_identity_residual(state.h), grid)
    rho, flux = _density_flux(grid, state.sigma.coeffs, _stack_tensor(state.h))
    return ConstraintResiduals(
        div_velocity=_l2(divergence(state.velocity).coeffs, grid),
        weighted_div=_l2(_weighted_div(grid, rho, flux), grid),
        weighted_div_transposed=_l2(_weighted_div(grid, rho, flux.swapaxes(0, 1)), grid),
        deformation_identity=identity,
        perturbation_identity=identity,
    )


# -- full runs ------------------------------------------------------------------


@dataclass
class RunResult:
    times: np.ndarray
    states: list[FluidState]
    series: dict[str, NormSeries]
    residual_rows: list[dict]
    norm_rows: list[dict] = field(default_factory=list)

    @property
    def final(self) -> FluidState:
        return self.states[-1]


def _record_series(times, states: list[FluidState]) -> dict[str, NormSeries]:
    sig = norm_series(times, [s.sigma for s in states])
    vel = norm_series(times, [s.velocity for s in states])
    hh = norm_series(times, [s.h_flat() for s in states])
    grad_p = norm_series(
        times,
        [s.pressure_grad if s.pressure_grad is not None
         else [zero_field(s.grid)] * s.grid.dim for s in states],
    )
    return {"sigma": sig, "velocity": vel, "h": hh, "grad_p": grad_p}


def _norm_rows_for(state: FluidState, t: float, norm_specs) -> list[dict]:
    rows = []
    groups = {"sigma": state.sigma, "velocity": state.velocity, "h": state.h_flat(),
              "grad_p": state.pressure_grad or [zero_field(state.grid)] * state.grid.dim}
    for name, spec in norm_specs:
        target = groups[name]
        val = besov_norm(target, spec).value
        rows.append({"time": t, "norm_name": f"{name}:{spec.name}", "s": spec.s,
                     "p": spec.p, "r": spec.r, "value": val})
    return rows


def _run(stepper: _Stepper, arr: np.ndarray, tg: TimeGrid, norm_specs,
         on_save) -> RunResult:
    """Integrate with `stepper`, recording at every saved slice the fluid
    state with its diagnostic pressure, the constraint residuals and the
    requested norms.  `on_save(t, state)` is invoked per saved slice, so
    partial output survives a mid-run abort."""
    norm_specs = norm_specs or []

    def save(t, arr):
        st = stepper.state(arr)
        st.pressure_grad, _ = compute_pressure(st, stepper.params,
                                               warm_start=stepper.pressure.warm)
        res = constraint_residuals(st)
        if on_save is not None:
            on_save(t, st)
        return st, {"time": t, **res.as_dict()}, _norm_rows_for(st, t, norm_specs)

    times, saved = integrate(arr, stepper.step, tg, save)
    states = [st for st, _, _ in saved]
    return RunResult(times, states, _record_series(times, states),
                     [row for _, row, _ in saved],
                     [row for _, _, rows in saved for row in rows])


def run(state0: FluidState, params: PhysicalParams, tg: TimeGrid, *,
        norm_specs: list[tuple[str, BesovSpec]] | None = None,
        on_save=None) -> RunResult:
    """Direct time integration; records norms and constraint residuals at
    every saved slice."""
    stepper = _DirectStepper(state0.grid, params, tg.dt)
    return _run(stepper, _state_to_array(state0), tg, norm_specs, on_save)


# -- velocity <-> tensor potential (the coupled variables) ---------------------


def velocity_to_tensor(velocity: list[SpectralField]) -> list[list[SpectralField]]:
    """d^{ij} = -Lam^{-1} d_j v^i; requires mean-zero components."""
    grid = velocity[0].grid
    n = grid.dim
    for v in velocity:
        if abs(v.mean) > 1e-12 * max(1.0, float(np.max(np.abs(v.coeffs)))):
            raise ValueError("velocity must be mean-zero for the tensor map")
    return [[-1.0 * lambda_power(derivative(velocity[i], j), -1.0) for j in range(n)]
            for i in range(n)]


def tensor_to_velocity(d: list[list[SpectralField]]) -> list[SpectralField]:
    """v^i = Lam^{-1} d_j d^{ij}; exact inverse on mean-zero solenoidal v."""
    return [lambda_power(divergence(row), -1.0) for row in d]


def transform_to_coupled(state: FluidState):
    """(sigma, v, h) -> (sigma, d, h) with d the tensor potential of v."""
    return state.sigma, velocity_to_tensor(state.velocity), state.h


# -- coupled-variable evolution -------------------------------------------------


class _CoupledStepper(_Stepper):
    """(sigma, d, h) in the skew-coupled formulation; d diffuses."""

    @staticmethod
    def diffusing(n: int) -> list[bool]:
        return [False] + [True] * (n * n) + [False] * (n * n)

    def tensors(self, arr: np.ndarray):
        """Array views of d and h, each (n, n, *grid)."""
        n = self.grid.dim
        return arr[1:].reshape((2, n, n) + self.grid.shape)

    def velocity(self, arr: np.ndarray) -> list[SpectralField]:
        return tensor_to_velocity(_tensor_fields(self.grid, self.tensors(arr)[0]))

    def state(self, arr: np.ndarray) -> FluidState:
        grid, arr = self.grid, arr.copy()
        return FluidState(SpectralField(grid, arr[0]), leray_project(self.velocity(arr)),
                          _tensor_fields(grid, self.tensors(arr)[1]))

    def rhs(self, t: float, arr: np.ndarray) -> np.ndarray:
        grid = self.grid
        n = grid.dim
        d, h = self.tensors(arr)
        vel = _stack(leray_project(self.velocity(arr)))
        fluid = super().rhs(t, np.concatenate([arr[:1], vel, arr[1 + n * n:]]))
        ik = grid_wavenumbers(grid)["ik"]
        kmag = grid_wavenumbers(grid)["kmag"]
        # X_i = v.grad v^i + (sigma+1) d_i P - mu sigma Lap v^i - h^{mk} d_m h^{ik}
        bracket = np.einsum("k...,ik...->i...", ik, h) - fluid[1:1 + n]
        # d_j X_i plus the curl-type source -d_k Q[i, j, k] of the identity
        src = bracket[:, None] * ik - np.einsum("k...,ijk...->ij...", ik,
                                                _identity_quadratic(grid, h))
        out = np.empty_like(arr)
        out[0] = fluid[0]
        out_d, out_h = self.tensors(out)
        out_d[...] = kmag * h + src / np.where(kmag > 0, kmag, np.inf)
        # the fluid h rows carry d_j v^i, which Lam d replaces here
        out_h[...] = _split(grid, fluid)[2] - stacked_gradient(grid, vel) - kmag * d
        return out


def run_coupled(state0: FluidState, params: PhysicalParams, tg: TimeGrid, *,
                norm_specs: list[tuple[str, BesovSpec]] | None = None,
                on_save=None) -> RunResult:
    """Evolve the coupled variables (sigma, d, h), mapping back to fluid
    states and recording them as `run` does at every save."""
    d0 = velocity_to_tensor(leray_project(state0.velocity))
    comps = [state0.sigma] + [f for row in d0 for f in row] + state0.h_flat()
    stepper = _CoupledStepper(state0.grid, params, tg.dt)
    return _run(stepper, _stack(comps), tg, norm_specs, on_save)


# -- the linearization map and its fixed point ----------------------------------


@dataclass
class PhiReport:
    distances: list[float]
    monitors: list[dict]
    converged: bool
    iterations: int      # recorded Picard steps (distance checks)
    applications: int    # total applications of the map, seed included


@dataclass
class PhiResult:
    times: np.ndarray
    states: list[FluidState]
    report: PhiReport
    series: dict[str, NormSeries]

    @property
    def final(self) -> FluidState:
        return self.states[-1]


class _TrajectoryInterpolant:
    """Linear-in-time interpolation of stacked coefficient snapshots."""

    def __init__(self, times: np.ndarray, arrays: np.ndarray):
        self.times = times
        self.arrays = arrays  # (nt, ncomp, *grid)

    def __call__(self, t: float) -> np.ndarray:
        times = self.times
        if t <= times[0]:
            return self.arrays[0]
        if t >= times[-1]:
            return self.arrays[-1]
        i = int(np.searchsorted(times, t) - 1)
        t0, t1 = times[i], times[i + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.arrays[i] + w * self.arrays[i + 1]


def _phi_apply(prev: _TrajectoryInterpolant, state0: FluidState,
               params: PhysicalParams, tg: TimeGrid) -> np.ndarray:
    """One application of the linearization map.

    The two transports (for sigma and for h) freeze velocity and tensor
    coefficients from `prev` and run independently; the heat solve for
    the velocity then consumes their fresh outputs as the coefficients
    (a, xi) of its forcing, with the advecting u still frozen from
    `prev` --- it is sequential after the transports.
    """
    grid = state0.grid
    n = grid.dim
    pressure = _Pressure(params)

    def u_at(t):
        return _unpack(grid, prev(t))[1]

    def h_forcing(t):
        _, u, xi = _split(grid, prev(t))
        return _fields(grid, _stretching(grid, u, samples(grid, xi)).reshape(
            (n * n,) + grid.shape))

    tg1 = TimeGrid(tg.t_end, tg.dt, save_stride=1)
    sig_traj = solve_transport(state0.sigma, u_at, None, tg1, check_divergence=False)
    h_traj = solve_transport(state0.h_flat(), u_at, h_forcing, tg1,
                             check_divergence=False)

    sig_arr = np.stack([np.stack([f.coeffs for f in st]) for st in sig_traj.states])
    h_arr = np.stack([np.stack([f.coeffs for f in st]) for st in h_traj.states])
    sig_interp = _TrajectoryInterpolant(sig_traj.times, sig_arr)
    h_interp = _TrajectoryInterpolant(h_traj.times, h_arr)

    def v_forcing(t):
        arr = np.concatenate([sig_interp(t), prev(t)[1:1 + n], h_interp(t)])
        g = _stack(momentum_forcing(*_unpack(grid, arr), params.mu))
        return _fields(grid, g - pressure(grid, arr, g))

    v_traj = solve_heat(state0.velocity, v_forcing, params.mu, tg1)

    out = np.empty((len(sig_arr), 1 + n + n * n) + grid.shape, dtype=np.complex128)
    out[:, :1], out[:, 1 + n:] = sig_arr, h_arr
    for it, v in enumerate(v_traj.states):
        out[it, 1:1 + n] = _stack(leray_project(v))
    return out


def _trajectory_distance(a: np.ndarray, b: np.ndarray, grid: GridSpec,
                         tg: TimeGrid) -> float:
    """Sup over the saved steps of the critical-norm distance between two
    trajectories."""
    s = grid.dim / 2.0
    spec_s = BesovSpec(s, 2.0, 1.0)
    spec_sm1 = BesovSpec(s - 1.0, 2.0, 1.0)
    worst = 0.0
    for it in tg.save_steps():
        diff = a[it] - b[it]
        sig, vel, h = _unpack(grid, diff)
        d = besov_norm(sig, spec_s).value + besov_norm(vel, spec_sm1).value \
            + besov_norm([f for row in h for f in row], spec_s).value
        worst = max(worst, d)
    return worst


def phi_iteration(state0: FluidState, params: PhysicalParams, tg: TimeGrid, *,
                  max_outer: int = 10, tol: float = 1e-8,
                  admissible: AdmissibleSetSpec | None = None) -> PhiResult:
    """Iterate the linearization map on whole trajectories until the
    sampled-sup critical-norm distance between successive iterates falls
    below `tol`.

    The seed trajectory is one application of the map to the constant
    extension of the initial data (the frozen-coefficient linear
    solution); reported distances are between successive Picard
    iterates from there on.  Returns the fixed-point trajectory with
    per-iteration distances and admissible-set monitor flags.
    """
    grid = state0.grid
    s = grid.dim / 2.0
    sig_norm = besov_norm(state0.sigma, BesovSpec(s, 2.0, 1.0)).value
    if sig_norm > 0.1:
        warnings.warn(
            f"initial sigma norm {sig_norm:.3g} > 0.1; the linearization "
            "map may not contract", stacklevel=2)

    nt = tg.n_steps + 1
    base = _state_to_array(state0)
    constant = np.broadcast_to(base, (nt,) + base.shape).copy()
    times = np.arange(nt) * tg.dt

    current = _phi_apply(_TrajectoryInterpolant(times, constant), state0, params, tg)
    applications = 1

    distances: list[float] = []
    monitors: list[dict] = []
    converged = False
    for _ in range(max_outer):
        nxt = _phi_apply(_TrajectoryInterpolant(times, current), state0, params, tg)
        applications += 1
        dist = _trajectory_distance(nxt, current, grid, tg)
        distances.append(dist)
        monitors.append(_admissible_monitor(nxt, times, grid, params, tg,
                                            admissible))
        current = nxt
        if dist < tol:
            converged = True
            break

    save_idx = tg.save_steps()
    states = [_array_to_state(grid, current[i]) for i in save_idx]
    saved_times = times[save_idx]
    series = _record_series(saved_times, states)
    report = PhiReport(distances, monitors, converged, len(distances), applications)
    return PhiResult(saved_times, states, report, series)


def _admissible_monitor(traj: np.ndarray, times: np.ndarray, grid: GridSpec,
                        params: PhysicalParams, tg: TimeGrid,
                        admissible: AdmissibleSetSpec | None) -> dict:
    from .norms import chemin_lerner_norm

    s = grid.dim / 2.0
    n = grid.dim
    sig_series = norm_series(times, [SpectralField(grid, a[0]) for a in traj])
    vel_series = norm_series(times, [_fields(grid, a[1:1 + n]) for a in traj])
    h_series = norm_series(times, [_fields(grid, a[1 + n:]) for a in traj])
    T = times[-1]
    r_meas = max(sig_series.besov_at(i, BesovSpec(s)) for i in range(len(times)))
    eta_meas = chemin_lerner_norm(vel_series, 1.0, BesovSpec(s + 1.0), T) \
        + chemin_lerner_norm(vel_series, 2.0, BesovSpec(s), T)
    c0e0_meas = chemin_lerner_norm(vel_series, INF, BesovSpec(s - 1.0), T) \
        + chemin_lerner_norm(h_series, INF, BesovSpec(s), T)
    out = {"sigma_sup": r_meas, "velocity_smoothing": eta_meas,
           "sup_energy": c0e0_meas}
    if admissible is not None:
        out["in_admissible_set"] = bool(
            r_meas <= admissible.R and eta_meas <= admissible.eta
            and c0e0_meas <= admissible.c0e0)
    return out
