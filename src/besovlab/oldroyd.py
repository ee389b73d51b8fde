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
)
from .norms import INF, BesovSpec, NormSeries, besov_norm, norm_series
from .paley import retained_radius
from .spectral import (
    GridSpec,
    SpectralField,
    advect,
    dealias,
    derivative,
    divergence,
    forward_transform,
    inverse_transform,
    laplacian,
    lambda_power,
    leray_project,
    product,
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
    comps = [state.sigma] + state.velocity + state.h_flat()
    return np.stack([c.coeffs for c in comps])


def _array_to_state(grid: GridSpec, arr: np.ndarray) -> FluidState:
    n = grid.dim
    sigma = SpectralField(grid, arr[0].copy())
    vel = [SpectralField(grid, arr[1 + i].copy()) for i in range(n)]
    h = [[SpectralField(grid, arr[1 + n + i * n + j].copy()) for j in range(n)]
         for i in range(n)]
    return FluidState(sigma, vel, h)


def _unpack(grid: GridSpec, arr: np.ndarray):
    """Views (no copy) of sigma, velocity, h from a stacked array."""
    n = grid.dim
    sigma = SpectralField(grid, arr[0])
    vel = [SpectralField(grid, arr[1 + i]) for i in range(n)]
    h = [[SpectralField(grid, arr[1 + n + i * n + j]) for j in range(n)]
         for i in range(n)]
    return sigma, vel, h


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
    samples = 1.0 / (inverse_transform(sigma) + 1.0)
    return dealias(forward_transform(sigma.grid, samples))


def weighted_div_residual(sigma: SpectralField, h: list[list[SpectralField]],
                          first_index: bool = True) -> list[SpectralField]:
    """d_j(rho U^{ji}) per i (first_index=True, the adopted convention),
    or d_j(rho U^{ij}) per i (the transposed reading, reported alongside)."""
    grid = sigma.grid
    n = grid.dim
    rho = reciprocal_density(sigma)
    out = []
    for i in range(n):
        acc = zero_field(grid)
        for j in range(n):
            entry = h[j][i] if first_index else h[i][j]
            u_ji = entry.coeffs.copy()
            term = SpectralField(grid, u_ji)
            weighted = product(rho, term)
            # rho * delta_{ji} contributes d_i rho
            acc = acc + derivative(weighted, j)
        acc = acc + derivative(rho, i)
        out.append(acc)
    return out


def deformation_identity_residual(h: list[list[SpectralField]]) -> list[SpectralField]:
    """U^{lk} d_l U^{ij} - U^{lj} d_l U^{ik} with U = I + h, flattened over
    (i, j, k); vanishes for the gradient of an actual flow map."""
    grid = h[0][0].grid
    n = grid.dim
    du = [[[derivative(h[i][j], l) for l in range(n)] for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # delta_{lk} d_l U^{ij} - delta_{lj} d_l U^{ik}  (linear part)
                acc = du[i][j][k] - du[i][k][j]
                for l in range(n):
                    acc = acc + product(h[l][k], du[i][j][l]) - product(h[l][j], du[i][k][l])
                out.append(acc)
    return out


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

    rep = CompatibilityReport(
        div_velocity=_l2(divergence(state.velocity).coeffs, grid),
        weighted_div=_l2_fields(weighted_div_residual(state.sigma, state.h), grid),
        deformation_identity=_l2_fields(deformation_identity_residual(state.h), grid),
    )
    return state, rep


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
    n = grid.dim
    dh = [[[derivative(h[i][j], l) for l in range(n)] for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        acc = -advect(velocity, velocity[i])
        acc = acc + mu * product(sigma, laplacian(velocity[i]))
        for k in range(n):
            acc = acc + dh[i][k][k]
        for j in range(n):
            for k in range(n):
                acc = acc + product(h[j][k], dh[i][k][j])
        out.append(acc)
    return out


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


# -- the IF-RK4 steppers -----------------------------------------------------------


class _Stepper:
    """IF-RK4 step of a stacked state with a warm-started pressure solve
    per stage, a CFL check before and a density-floor check after.

    Subclasses supply `diffusing(n)` (which components carry mu Lap),
    `rhs`, `velocity` (the advecting field of a stacked state) and
    `state` (the map back to a FluidState); `finish` post-processes the
    new state."""

    def __init__(self, grid: GridSpec, params: PhysicalParams, dt: float, *,
                 elliptic_tol: float = 1e-11, elliptic_max_iter: int = 200):
        self.grid = grid
        self.params = params
        self.dt = dt
        self.elliptic_tol = elliptic_tol
        self.elliptic_max_iter = elliptic_max_iter
        self.e_full, self.e_half = if_factors(grid, params.mu, dt,
                                              self.diffusing(grid.dim))
        self._pressure_warm: SpectralField | None = None
        self.last_pressure_grad: list[SpectralField] | None = None

    def pressure(self, sigma, vel, h, g) -> list[SpectralField]:
        grad_p, ell = compute_pressure(
            FluidState(sigma, vel, h), self.params, tol=self.elliptic_tol,
            max_iter=self.elliptic_max_iter, warm_start=self._pressure_warm,
            forcing=g)
        self._pressure_warm = ell.potential
        self.last_pressure_grad = grad_p
        return grad_p

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

    def rhs(self, t: float, arr: np.ndarray) -> np.ndarray:
        grid, params = self.grid, self.params
        n = grid.dim
        sigma, vel, h = _unpack(grid, arr)
        out = np.empty_like(arr)
        out[0] = -advect(vel, sigma).coeffs
        g = momentum_forcing(sigma, vel, h, params.mu)
        grad_p = self.pressure(sigma, vel, h, g)
        for i in range(n):
            acc = g[i] - grad_p[i] - product(sigma, grad_p[i])
            out[1 + i] = acc.coeffs
        dv = [[derivative(vel[i], j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                acc = -advect(vel, h[i][j]) + dv[i][j]
                for k in range(n):
                    acc = acc + product(dv[i][k], h[k][j])
                out[1 + n + i * n + j] = acc.coeffs
        return out

    def finish(self, arr: np.ndarray) -> np.ndarray:
        n = self.grid.dim
        vel = [SpectralField(self.grid, arr[1 + i]) for i in range(n)]
        for i, f in enumerate(leray_project(vel)):
            arr[1 + i] = f.coeffs
        return arr


def step(state: FluidState, params: PhysicalParams, dt: float, *,
         elliptic_tol: float = 1e-11, elliptic_max_iter: int = 200) -> FluidState:
    """One semi-implicit step of the full system."""
    stepper = _DirectStepper(state.grid, params, dt, elliptic_tol=elliptic_tol,
                             elliptic_max_iter=elliptic_max_iter)
    arr = stepper.step(_state_to_array(state), 0.0)
    out = _array_to_state(state.grid, arr)
    out.pressure_grad = stepper.last_pressure_grad
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
    return ConstraintResiduals(
        div_velocity=_l2(divergence(state.velocity).coeffs, grid),
        weighted_div=_l2_fields(
            weighted_div_residual(state.sigma, state.h, first_index=True), grid),
        weighted_div_transposed=_l2_fields(
            weighted_div_residual(state.sigma, state.h, first_index=False), grid),
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
                                               tol=stepper.elliptic_tol,
                                               warm_start=stepper._pressure_warm)
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
        elliptic_tol: float = 1e-11, on_save=None) -> RunResult:
    """Direct time integration; records norms and constraint residuals at
    every saved slice."""
    stepper = _DirectStepper(state0.grid, params, tg.dt, elliptic_tol=elliptic_tol)
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
    grid = d[0][0].grid
    n = grid.dim
    out = []
    for i in range(n):
        acc = zero_field(grid)
        for j in range(n):
            acc = acc + derivative(d[i][j], j)
        out.append(lambda_power(acc, -1.0))
    return out


def transform_to_coupled(state: FluidState):
    """(sigma, v, h) -> (sigma, d, h) with d the tensor potential of v."""
    return state.sigma, velocity_to_tensor(state.velocity), state.h


# -- coupled-variable evolution -------------------------------------------------


class _CoupledStepper(_Stepper):
    """(sigma, d, h) in the skew-coupled formulation; d diffuses."""

    @staticmethod
    def diffusing(n: int) -> list[bool]:
        return [False] + [True] * (n * n) + [False] * (n * n)

    def unpack(self, arr: np.ndarray):
        grid = self.grid
        n = grid.dim
        sigma = SpectralField(grid, arr[0])
        d = [[SpectralField(grid, arr[1 + i * n + j]) for j in range(n)]
             for i in range(n)]
        h = [[SpectralField(grid, arr[1 + n * n + i * n + j]) for j in range(n)]
             for i in range(n)]
        return sigma, d, h

    def velocity(self, arr: np.ndarray) -> list[SpectralField]:
        return tensor_to_velocity(self.unpack(arr)[1])

    def state(self, arr: np.ndarray) -> FluidState:
        sigma, d, h = self.unpack(arr)
        return FluidState(sigma.copy(), leray_project(tensor_to_velocity(d)),
                          [[f.copy() for f in row] for row in h])

    def rhs(self, t: float, arr: np.ndarray) -> np.ndarray:
        grid, params = self.grid, self.params
        n = grid.dim
        sigma, d, h = self.unpack(arr)
        vel = leray_project(tensor_to_velocity(d))
        out = np.empty_like(arr)
        out[0] = -advect(vel, sigma).coeffs

        g = momentum_forcing(sigma, vel, h, params.mu)
        grad_p = self.pressure(sigma, vel, h, g)

        dh_grad = [[[derivative(h[i][j], l) for l in range(n)] for j in range(n)]
                   for i in range(n)]
        dv = [[derivative(vel[i], j) for j in range(n)] for i in range(n)]
        lap_v = [laplacian(vel[i]) for i in range(n)]

        # bracket X_i = v.grad v^i + (sigma+1) d_i P - mu sigma Lap v^i
        #              - h^{mk} d_m h^{ik}
        bracket = []
        for i in range(n):
            acc = advect(vel, vel[i]) + grad_p[i] + product(sigma, grad_p[i])
            acc = acc - params.mu * product(sigma, lap_v[i])
            for m in range(n):
                for k in range(n):
                    acc = acc - product(h[m][k], dh_grad[i][k][m])
            bracket.append(acc)

        for i in range(n):
            for j in range(n):
                acc = lambda_power(h[i][j], 1.0)  # Lam h^{ij}
                acc = acc + lambda_power(derivative(bracket[i], j), -1.0)
                # curl-type quadratic source from the perturbation identity
                for k in range(n):
                    q = zero_field(grid)
                    for l in range(n):
                        q = q + product(h[l][j], dh_grad[i][k][l]) \
                              - product(h[l][k], dh_grad[i][j][l])
                    acc = acc + lambda_power(derivative(q, k), -1.0)
                out[1 + i * n + j] = acc.coeffs

        for i in range(n):
            for j in range(n):
                acc = -advect(vel, h[i][j]) - lambda_power(d[i][j], 1.0)
                for k in range(n):
                    acc = acc + product(dv[i][k], h[k][j])
                out[1 + n * n + i * n + j] = acc.coeffs
        return out


def run_coupled(state0: FluidState, params: PhysicalParams, tg: TimeGrid, *,
                norm_specs: list[tuple[str, BesovSpec]] | None = None,
                elliptic_tol: float = 1e-11, on_save=None) -> RunResult:
    """Evolve the coupled variables (sigma, d, h), mapping back to fluid
    states and recording them as `run` does at every save."""
    n = state0.grid.dim
    d0 = velocity_to_tensor(leray_project(state0.velocity))
    comps = [state0.sigma] + [d0[i][j] for i in range(n) for j in range(n)] \
        + state0.h_flat()
    stepper = _CoupledStepper(state0.grid, params, tg.dt, elliptic_tol=elliptic_tol)
    return _run(stepper, np.stack([c.coeffs for c in comps]), tg, norm_specs,
                on_save)


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
               params: PhysicalParams, tg: TimeGrid, *,
               elliptic_tol: float = 1e-11) -> np.ndarray:
    """One application of the linearization map.

    The two transports (for sigma and for h) freeze velocity and tensor
    coefficients from `prev` and run independently; the heat solve for
    the velocity then consumes their fresh outputs as the coefficients
    (a, xi) of its forcing, with the advecting u still frozen from
    `prev` --- it is sequential after the transports.
    """
    grid = state0.grid
    n = grid.dim
    warm: list[SpectralField | None] = [None]

    def frozen(t):
        return _unpack(grid, prev(t))

    def u_at(t):
        return frozen(t)[1]

    def h_forcing(t):
        _, u, xi = frozen(t)
        dv = [[derivative(u[i], j) for j in range(n)] for i in range(n)]
        out = []
        for i in range(n):
            for j in range(n):
                acc = dv[i][j]
                for k in range(n):
                    acc = acc + product(dv[i][k], xi[k][j])
                out.append(acc)
        return out

    tg1 = TimeGrid(tg.t_end, tg.dt, save_stride=1)
    sig_traj = solve_transport(state0.sigma, u_at, None, tg1, check_divergence=False)
    h_traj = solve_transport(state0.h_flat(), u_at, h_forcing, tg1,
                             check_divergence=False)

    sig_arr = np.stack([np.stack([f.coeffs for f in st]) for st in sig_traj.states])
    h_arr = np.stack([np.stack([f.coeffs for f in st]) for st in h_traj.states])
    sig_interp = _TrajectoryInterpolant(sig_traj.times, sig_arr)
    h_interp = _TrajectoryInterpolant(h_traj.times, h_arr)

    def v_forcing(t):
        u = u_at(t)
        a = SpectralField(grid, sig_interp(t)[0])
        xi_flat = h_interp(t)
        xi = [[SpectralField(grid, xi_flat[i * n + j]) for j in range(n)]
              for i in range(n)]
        g = momentum_forcing(a, u, xi, params.mu)
        grad_p, ell = compute_pressure(
            FluidState(a, u, xi), params, tol=elliptic_tol,
            warm_start=warm[0], forcing=g)
        warm[0] = ell.potential
        return [g[i] - grad_p[i] - product(a, grad_p[i]) for i in range(n)]

    v_traj = solve_heat(state0.velocity, v_forcing, params.mu, tg1)

    nt = tg.n_steps + 1
    ncomp = 1 + n + n * n
    out = np.empty((nt,) + (ncomp,) + grid.shape, dtype=np.complex128)
    for it in range(nt):
        out[it, 0] = sig_traj.states[it][0].coeffs
        vel = leray_project(v_traj.states[it])
        for i in range(n):
            out[it, 1 + i] = vel[i].coeffs
        for i in range(n * n):
            out[it, 1 + n + i] = h_traj.states[it][i].coeffs
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
                  admissible: AdmissibleSetSpec | None = None,
                  elliptic_tol: float = 1e-11) -> PhiResult:
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

    current = _phi_apply(_TrajectoryInterpolant(times, constant), state0, params,
                         tg, elliptic_tol=elliptic_tol)
    applications = 1

    distances: list[float] = []
    monitors: list[dict] = []
    converged = False
    for _ in range(max_outer):
        nxt = _phi_apply(_TrajectoryInterpolant(times, current), state0, params,
                         tg, elliptic_tol=elliptic_tol)
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
    sig_states, vel_states, h_states = [], [], []
    for it in range(traj.shape[0]):
        sig, vel, h = _unpack(grid, traj[it])
        sig_states.append(sig)
        vel_states.append(vel)
        h_states.append([f for row in h for f in row])
    sig_series = norm_series(times, sig_states)
    vel_series = norm_series(times, vel_states)
    h_series = norm_series(times, h_states)
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
