"""The density-dependent incompressible viscoelastic system on the torus.

State variables: sigma = 1/rho - 1 (specific-volume perturbation), the
solenoidal velocity v, and h = U - I (perturbation of the deformation
gradient U).  The momentum equation carries the elastic stress terms
div h and h-grad-h, a variable-coefficient pressure gradient, and
viscosity mu (sigma + 1) Lap v.

A state is one stacked coefficient array of 1 + n + n^2 components:
sigma, then v^0..v^{n-1}, then h row by row.  `FluidState` stores it, and
its `sigma`, `velocity` (n, *grid) and `h` (n, n, *grid) are stacked
fields viewing it; the steppers advance the same array, and a saved
slice of a run is the array a step produced.

There is one pressure path: every right side (an RK stage, or the
velocity forcing of the linearization map) is `momentum_forcing` of a
stacked array followed by `compute_pressure` on the sigma samples it
formed, and every saved slice of a run takes its pressure gradient from
the first stage of the state it records.  There is one sample set per
state: the step that produces a state evaluates its first stage (the
next step's k1), and the samples and gradient samples that stage forms
are all that its CFL check, its density-floor check, its constraint
monitors and its snapshot read.

Conventions, fixed here once:
  * matrix divergence is taken over the second index: (div A)^i = d_j A^{ij};
  * the weighted-divergence constraint therefore reads d_j(rho U^{ji}) = 0;
  * h[i][j] stores the (i, j) entry, so the stretching source of h is
    (grad v (h + I))^{ij} = d_j v^i + d_k v^i h^{kj}.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import randfields
from .linsolve import (
    EllipticResult,
    NonPositiveCoefficientError,
    TimeGrid,
    check_cfl,
    if_factors,
    if_rk4_step,
    integrate,
    solve_heat,
    solve_transport,
    solve_variable_poisson,
    velocity_max,
)
from .norms import INF, BesovSpec, besov_norm, chemin_lerner_norm, l2_norm, norm_series
from .paley import retained_radius
from .spectral import (
    GridError,
    GridSpec,
    SpectralField,
    advect,
    dealiased,
    gradient_samples,
    grid_wavenumbers,
    lambda_multiplier,
    product,
    samples,
    stacked_divergence,
    stacked_gradient,
    stacked_leray,
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


def _split(grid: GridSpec, arr: np.ndarray):
    """Array views of sigma, velocity (n, ...) and h (n, n, ...) in a stacked
    array: coefficients or samples (... = the grid axes), or gradient
    samples (... = the derivative axis, then the grid axes)."""
    n = grid.dim
    return arr[0], arr[1:1 + n], arr[1 + n:].reshape((n, n) + arr.shape[1:])


@dataclass
class FluidState:
    """One time slice: the stacked coefficients (1 + n + n^2,
    *grid.coeff_shape) of (sigma, v, h), plus the diagnostic pressure
    gradient (n, *grid).

    `sigma`, `velocity` (n, *grid) and `h` (n, n, *grid) are fields viewing
    `coeffs`: writing into their `.coeffs` writes the state.  Assigning
    whole fields (`st.sigma = f`, `st.velocity = v`, `st.h = h`) copies
    them in; a field supports no item assignment, so `st.h[i][j] = f`
    raises."""

    grid: GridSpec
    coeffs: np.ndarray
    pressure_grad: SpectralField | None = None

    def __post_init__(self):
        n = self.grid.dim
        shape = (1 + n + n * n,) + self.grid.coeff_shape
        if self.coeffs.shape != shape:
            raise GridError(f"state shape {self.coeffs.shape} does not match {shape}: the "
                            f"k_last >= 0 half of a component has shape {self.grid.coeff_shape}")
        self.coeffs = self.coeffs.astype(np.complex128, copy=False)

    @property
    def sigma(self) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[0])

    @sigma.setter
    def sigma(self, field: SpectralField):
        self.coeffs[0] = field.coeffs

    @property
    def velocity(self) -> SpectralField:
        return SpectralField(self.grid, _split(self.grid, self.coeffs)[1])

    @velocity.setter
    def velocity(self, field: SpectralField):
        _split(self.grid, self.coeffs)[1][...] = field.coeffs

    @property
    def h(self) -> SpectralField:
        return SpectralField(self.grid, _split(self.grid, self.coeffs)[2])

    @h.setter
    def h(self, field: SpectralField):
        _split(self.grid, self.coeffs)[2][...] = field.coeffs


def zero_state(grid: GridSpec) -> FluidState:
    n = grid.dim
    return FluidState(grid, np.zeros((1 + n + n * n,) + grid.coeff_shape, dtype=np.complex128))


# -- the stage kernel ------------------------------------------------------------
#
# A right side samples its stacked array once and the whole gradient of it
# once (`gradient_samples`: [c, l] = d_l arr[c]), forms every quadratic term on
# the grid from those two arrays and dealiases all rows in one call.  Index
# names follow the module docstring: h[i, j] is h^{ij}, and a gradient's last
# tensor index is the derivative's.


def _stretch(dv_s, h_s) -> np.ndarray:
    """d_k v^i h^{kj} on the grid, from dv_s[i, k] = d_k v^i and h_s[k, j] =
    h^{kj}: the quadratic part of the stretching (grad v (I + h))^{ij}."""
    return np.einsum("ik...,kj...->ij...", dv_s, h_s)


def momentum_forcing(grid: GridSpec, arr: np.ndarray, mu: float, *,
                     momentum_only: bool = False):
    """Right side of the stacked (sigma, v, h) system without the pressure
    terms and without mu Lap v: transport of every row, plus
    mu sigma Lap v^i + d_k h^{ik} + h^{jk} d_j h^{ik} in the momentum rows
    (the momentum forcing G) and the stretching d_j v^i + d_k v^i h^{kj}
    in the h rows.  Returns (terms, s, ds): the terms with the samples s
    of `arr` and ds of its gradient they were formed from, both from one
    `gradient_samples` call.
    With `momentum_only`, terms holds the momentum rows alone."""
    n = grid.dim
    wavenumbers = grid_wavenumbers(grid)
    s, ds = gradient_samples(grid, arr, with_samples=True)
    _, vel, h = _split(grid, arr)
    sig_s, v_s, h_s = _split(grid, s)
    _, dv_s, dh_s = _split(grid, ds)  # dh_s[i, k, j] = d_j h^{ik}
    lap_v = samples(grid, -wavenumbers["k2"] * vel)
    mom = slice(0, n) if momentum_only else slice(1, 1 + n)  # the momentum rows of terms
    terms = -advect(grid, v_s, dv_s if momentum_only else ds)
    terms[mom] += mu * sig_s * lap_v + np.einsum("jk...,ikj...->i...", h_s, dh_s)
    if not momentum_only:
        terms[1 + n:] += _stretch(dv_s, h_s).reshape((n * n,) + grid.shape)
    out = dealiased(grid, terms)
    out[mom] += np.einsum("k...,ik...->i...", wavenumbers["ik"], h)
    if not momentum_only:
        out[1 + n:] += stacked_gradient(grid, vel).reshape((n * n,) + arr.shape[1:])
    return out, s, ds


def _identity_quadratic(grid: GridSpec, h_s: np.ndarray, dh_s: np.ndarray) -> np.ndarray:
    """Q[i, j, k] = h^{lk} d_l h^{ij} - h^{lj} d_l h^{ik}, the quadratic part
    of the deformation identity, from the samples h_s of h and dh_s[i, j, l]
    = d_l h^{ij} of its gradient.  Q is antisymmetric in (j, k), so only the
    entries j < k are dealiased; the others follow from them exactly."""
    n = grid.dim
    j, k = np.triu_indices(n, 1)
    a = np.einsum("lk...,ijl...->ijk...", h_s, dh_s)
    upper = dealiased(grid, a[:, j, k] - a[:, k, j])
    q = np.zeros((n, n, n) + upper.shape[2:], dtype=np.complex128)
    q[:, j, k], q[:, k, j] = upper, -upper
    return q


def _density_flux(grid: GridSpec, sig_s: np.ndarray, h):
    """rho = 1/(sigma + 1), dealiased, and the dealiased flux[j, i] =
    rho h^{ji}, from the grid samples sig_s of sigma and the coefficients or
    the grid samples of h."""
    rho = dealiased(grid, 1.0 / (sig_s + 1.0))
    return rho, product(SpectralField(grid, rho), h)


def _weighted_div(grid: GridSpec, rho, flux) -> np.ndarray:
    """d_j(rho delta_{ji} + flux[j, i]) per i."""
    ik = grid_wavenumbers(grid)["ik"]
    return np.einsum("j...,ji...->i...", ik, flux) + ik * rho


# -- initial data -------------------------------------------------------------


def _identity_residual(grid: GridSpec, h: np.ndarray, h_s: np.ndarray,
                       dh_s: np.ndarray) -> np.ndarray:
    """`deformation_identity_residual` of the stacked h (n, n, *grid), from
    its grid samples h_s and dh_s[i, j, l] = d_l h^{ij} of its gradient, as
    an (n^3, *grid) array."""
    res = _identity_quadratic(grid, h_s, dh_s)
    dh = stacked_gradient(grid, h)
    res += dh  # the linear part d_k h^{ij} - d_j h^{ik}
    res -= dh.swapaxes(1, 2)
    return res.reshape((-1,) + h.shape[2:])


def deformation_identity_residual(h: SpectralField) -> SpectralField:
    """U^{lk} d_l U^{ij} - U^{lj} d_l U^{ik} with U = I + h (n, n, *grid),
    flattened over (i, j, k); vanishes for the gradient of an actual flow
    map."""
    grid = h.grid
    h_s, dh_s = gradient_samples(grid, h.coeffs, with_samples=True)
    return SpectralField(grid, _identity_residual(grid, h.coeffs, h_s, dh_s))


def make_initial_data(family: str, amplitude: float, seed: int, grid: GridSpec):
    """Draw compatible initial data, supported in the radius the dyadic
    ladder fully covers; returns (state, its `constraint_residuals`).

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
    rng = np.random.default_rng(seed)
    radius = retained_radius(grid)

    state = zero_state(grid)
    sigma, vel, h = _split(grid, state.coeffs)
    if amplitude > 0:
        vel[...] = amplitude * randfields.random_solenoidal(grid, rng, radius=radius).coeffs
        w = randfields.random_solenoidal(grid, rng, radius=radius)
        h[...] = amplitude * stacked_gradient(grid, w.coeffs)
        if family == "general":
            sigma[...] = amplitude * randfields.random_scalar(grid, rng, radius=radius).coeffs
            _restore_weighted_div(state)

    return state, constraint_residuals(state)


def _restore_weighted_div(state: FluidState):
    """Add a gradient column correction to h so d_j(rho (I+h)^{ji}) = 0:
    one solve -div(rho grad phi_i) = d_j(rho U^{ji}) per column i, all
    reading one sample of rho.  min(1 + sigma0) must be positive."""
    grid = state.grid
    sigma, _, h = _split(grid, state.coeffs)
    sig_s = samples(grid, sigma)
    sig_min = float(sig_s.min())
    if sig_min + 1.0 <= 0:
        raise NonPositiveCoefficientError(
            f"initial data: min(1+sigma0) = {sig_min + 1.0:.3g} is not positive")
    rho, flux = _density_flux(grid, sig_s, h)
    defect = _weighted_div(grid, rho, flux)
    rho_s = samples(grid, rho)
    for i in range(grid.dim):
        res = solve_variable_poisson(rho_s, defect[i], tol=1e-13, max_iter=300)
        h[:, i] += res.gradient.coeffs


# -- pressure ---------------------------------------------------------------------


PRESSURE_TOL = 1e-11


def compute_pressure(grid: GridSpec, sig_s: np.ndarray, g: np.ndarray, *,
                     warm_start: SpectralField | np.ndarray | None = None
                     ) -> EllipticResult:
    """Solve div((sigma+1) grad P) = div G for the pressure P, from the
    grid samples sig_s of sigma and the stacked momentum forcing g (rows
    1..n of `momentum_forcing`'s terms).  The samples give the coefficient
    and its positivity check; the result's `gradient` is grad P and its
    `flux` is (sigma + 1) grad P, the flux of the solve's last residual."""
    return solve_variable_poisson(sig_s + 1.0, -stacked_divergence(grid, g),
                                  tol=PRESSURE_TOL, warm_start=warm_start)


# -- the IF-RK4 steppers -----------------------------------------------------------


def _check_floor(sig_s: np.ndarray, params: PhysicalParams):
    """Raise DensityFloorError when min(sigma + 1) over the grid samples
    sig_s of sigma is below `params.sigma_floor`."""
    sig_min = float(sig_s.min())
    if sig_min + 1.0 < params.sigma_floor:
        raise DensityFloorError(
            f"min(sigma+1) = {sig_min + 1.0:.3g} fell below the floor {params.sigma_floor}")


class _Stepper:
    """IF-RK4 step of a stacked state with a pressure solve per stage.
    `start` evaluates the first stage of a state into `first`; `step`
    takes its k1 and its CFL check's velocity samples from there, and
    ends by calling `start` on the state it produced, whose stage checks
    the density floor on its sigma samples before its pressure solve (the
    state a run starts from is not checked).  A stage solves warm-started
    from the last stage's potential `warm`; `last` is its EllipticResult.

    Subclasses supply `diffusing(n)` (which components carry mu Lap) and
    `direct` (the (sigma, v, h) array of a stacked state, which may be the
    state itself: `step` never writes into its input); `finish`
    post-processes the new state in place and `rhs` (the right side, with
    the samples and gradient samples of the direct array it was formed
    from) is the fluid right side unless overridden."""

    def __init__(self, grid: GridSpec, params: PhysicalParams, dt: float):
        self.grid = grid
        self.params = params
        self.dt = dt
        self.e_full, self.e_half = if_factors(grid, params.mu, dt,
                                              self.diffusing(grid.dim))
        self.warm: np.ndarray | None = None
        self.last: EllipticResult | None = None
        self.first = None  # (direct array, k1, s, ds) of the state the next step starts from

    def stage(self, arr: np.ndarray, floor: bool = False):
        """`momentum_forcing` of a stacked (sigma, v, h) array, with
        (sigma + 1) grad P from `compute_pressure` taken off its momentum
        rows; with `floor`, the density floor is checked first."""
        n = self.grid.dim
        out, s, ds = momentum_forcing(self.grid, arr, self.params.mu)
        if floor:
            _check_floor(s[0], self.params)
        res = compute_pressure(self.grid, s[0], out[1:1 + n], warm_start=self.warm)
        self.warm, self.last = res.u, res
        out[1:1 + n] -= res.flux
        return out, s, ds

    def direct(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def rhs(self, t: float, arr: np.ndarray, direct: np.ndarray | None = None,
            floor: bool = False):
        return self.stage(arr, floor)

    def start(self, t: float, arr: np.ndarray, floor: bool = True):
        """Evaluate the first stage of the state `arr` for the step that
        starts from it, into `first` = (its direct array, the right side
        k1, the samples s and gradient samples ds of the direct array); the
        pressure gradient it solved for is `last.gradient`."""
        direct = self.direct(arr)
        self.first = (direct, *self.rhs(t, arr, direct, floor))

    def finish(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def step(self, arr: np.ndarray, t: float) -> np.ndarray:
        k1, s = self.first[1:3]
        self.first = None
        check_cfl(self.grid, self.dt, velocity_max(s[1:1 + self.grid.dim]))
        del s  # the stage's samples, then k1, go before the next stage forms its own
        nxt = self.finish(if_rk4_step(arr, t, self.dt, self.e_full, self.e_half,
                                      lambda t, y: self.rhs(t, y)[0], k1))
        del k1
        self.start(t + self.dt, nxt)
        return nxt


class _DirectStepper(_Stepper):
    """(sigma, v, h) with the velocity Leray-projected after each step."""

    @staticmethod
    def diffusing(n: int) -> list[bool]:
        return [False] + [True] * n + [False] * (n * n)

    def finish(self, arr: np.ndarray) -> np.ndarray:
        n = self.grid.dim
        arr[1:1 + n] = stacked_leray(self.grid, arr[1:1 + n])
        return arr


def step(state: FluidState, params: PhysicalParams, dt: float) -> FluidState:
    """One semi-implicit step of the full system.  The new state carries
    the pressure gradient of its own first stage, as a run's saves do, and
    that stage checks its density floor."""
    stepper = _DirectStepper(state.grid, params, dt)
    stepper.start(0.0, state.coeffs, floor=False)
    arr = stepper.step(state.coeffs, 0.0)
    return FluidState(state.grid, arr, stepper.last.gradient)


# -- constraint monitors -------------------------------------------------------


@dataclass
class ConstraintResiduals:
    """L2 norms of the propagated constraints at one time slice."""

    div_velocity: float
    weighted_div: float            # row convention d_j(rho U^{ji})
    weighted_div_transposed: float  # the other contraction, reported alongside
    deformation_identity: float
    # the identity written in the perturbation h, d_k h^{ij} - d_j h^{ik}
    # - (h^{lj} d_l h^{ik} - h^{lk} d_l h^{ij}), is the same expression,
    # because d(I + h) = dh
    perturbation_identity: float

    def as_dict(self) -> dict:
        return asdict(self)


def constraint_residuals(state: FluidState, sampled=None) -> ConstraintResiduals:
    """The residuals of `state`, read from `sampled`: the samples and the
    gradient samples (s, ds) of its stacked array that its first stage
    formed (`momentum_forcing`), or taken here in one `gradient_samples`
    call when not given.  Every residual is a Parseval norm (`l2_norm`); the
    deformation identity is evaluated once and reported under
    both of its names."""
    grid = state.grid
    _, vel, h = _split(grid, state.coeffs)
    s, ds = sampled or gradient_samples(grid, state.coeffs, with_samples=True)
    sig_s, _, h_s = _split(grid, s)
    identity = l2_norm(_identity_residual(grid, h, h_s, _split(grid, ds)[2]), grid)
    rho, flux = _density_flux(grid, sig_s, h_s)
    return ConstraintResiduals(
        div_velocity=l2_norm(stacked_divergence(grid, vel), grid),
        weighted_div=l2_norm(_weighted_div(grid, rho, flux), grid),
        weighted_div_transposed=l2_norm(_weighted_div(grid, rho, flux.swapaxes(0, 1)), grid),
        deformation_identity=identity,
        perturbation_identity=identity,
    )


# -- full runs ------------------------------------------------------------------


@dataclass
class RunResult:
    """The saved slices of an evolution: their times, the fluid states and
    each one's `residuals.csv` row."""

    times: np.ndarray
    states: list[FluidState]
    residual_rows: list[dict]


def _record(t: float, st: FluidState, sampled, on_save) -> dict:
    """Record the saved state `st` at time t: its `residuals.csv` row, from
    the samples and gradient samples `sampled` = (s, ds) of its stacked
    array, then `on_save(t, st, s)`.  Returns the row."""
    row = {"time": t, **constraint_residuals(st, sampled).as_dict()}
    if on_save is not None:
        on_save(t, st, sampled[0])
    return row


def _run(stepper: _Stepper, arr: np.ndarray, tg: TimeGrid, on_save) -> RunResult:
    """Integrate with `stepper`, recording (`_record`) at every saved slice
    the fluid state with its diagnostic pressure.  The step that produced
    a slice evaluated its first stage, whose samples the monitors and
    `on_save(t, state, s)` read and no saved state keeps.  `on_save` is
    invoked per saved slice, so partial output survives a mid-run abort."""

    def save(t, arr):
        direct, _, s, ds = stepper.first
        st = FluidState(stepper.grid, direct, stepper.last.gradient)
        return st, _record(t, st, (s, ds), on_save)

    stepper.start(0.0, arr, floor=False)
    times, saved = integrate(arr, stepper.step, tg, save)
    return RunResult(times, [st for st, _ in saved], [row for _, row in saved])


def run(state0: FluidState, params: PhysicalParams, tg: TimeGrid, *,
        on_save=None) -> RunResult:
    """Direct time integration; records the constraint residuals at every
    saved slice."""
    stepper = _DirectStepper(state0.grid, params, tg.dt)
    return _run(stepper, state0.coeffs.copy(), tg, on_save)


# -- velocity <-> tensor potential (the coupled variables) ---------------------


def stacked_velocity_to_tensor(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """d^{ij} = -Lam^{-1} d_j v^i of the stacked velocity v (n, *grid), as
    (n, n, *grid); requires mean-zero components."""
    for c in v:
        if abs(c[(0,) * grid.dim].real) > 1e-12 * max(1.0, float(np.max(np.abs(c)))):
            raise ValueError("velocity must be mean-zero for the tensor map")
    return -1.0 * (stacked_gradient(grid, v) * lambda_multiplier(grid, -1.0))


def stacked_tensor_to_velocity(grid: GridSpec, d: np.ndarray) -> np.ndarray:
    """v^i = Lam^{-1} d_j d^{ij} of the stacked tensor d (n, n, *grid);
    exact inverse on mean-zero solenoidal v."""
    return stacked_divergence(grid, d) * lambda_multiplier(grid, -1.0)


# -- coupled-variable evolution -------------------------------------------------


class _CoupledStepper(_Stepper):
    """(sigma, d, h) in the skew-coupled formulation; d diffuses."""

    @staticmethod
    def diffusing(n: int) -> list[bool]:
        return [False] + [True] * (n * n) + [False] * (n * n)

    def tensors(self, arr: np.ndarray):
        """Array views of d and h, each (n, n, *grid)."""
        n = self.grid.dim
        return arr[1:].reshape((2, n, n) + arr.shape[1:])

    def direct(self, arr: np.ndarray) -> np.ndarray:
        """The direct array (sigma, Leray v(d), h) of a coupled array."""
        grid, n = self.grid, self.grid.dim
        vel = stacked_leray(grid, stacked_tensor_to_velocity(grid, self.tensors(arr)[0]))
        return np.concatenate([arr[:1], vel, arr[1 + n * n:]])

    def rhs(self, t: float, arr: np.ndarray, direct: np.ndarray | None = None,
            floor: bool = False):
        grid = self.grid
        n = grid.dim
        d, h = self.tensors(arr)
        if direct is None:
            direct = self.direct(arr)
        vel = direct[1:1 + n]
        fluid, s, ds = self.stage(direct, floor)
        ik = grid_wavenumbers(grid)["ik"]
        kmag = grid_wavenumbers(grid)["kmag"]
        # X_i = v.grad v^i + (sigma+1) d_i P - mu sigma Lap v^i - h^{mk} d_m h^{ik}
        bracket = np.einsum("k...,ik...->i...", ik, h) - fluid[1:1 + n]
        # d_j X_i plus the curl-type source -d_k Q[i, j, k] of the identity
        quad = _identity_quadratic(grid, _split(grid, s)[2], _split(grid, ds)[2])
        src = bracket[:, None] * ik - np.einsum("k...,ijk...->ij...", ik, quad)
        out = np.empty_like(arr)
        out[0] = fluid[0]
        out_d, out_h = self.tensors(out)
        out_d[...] = kmag * h + src / np.where(kmag > 0, kmag, np.inf)
        # the fluid h rows carry d_j v^i, which Lam d replaces here
        out_h[...] = _split(grid, fluid)[2] - stacked_gradient(grid, vel) - kmag * d
        return out, s, ds


def run_coupled(state0: FluidState, params: PhysicalParams, tg: TimeGrid, *,
                on_save=None) -> RunResult:
    """Evolve the coupled variables (sigma, d, h), mapping back to fluid
    states and recording them as `run` does at every save."""
    grid, n = state0.grid, state0.grid.dim
    arr = state0.coeffs
    d0 = stacked_velocity_to_tensor(grid, stacked_leray(grid, arr[1:1 + n]))
    y = np.concatenate([arr[:1], d0.reshape((n * n,) + arr.shape[1:]), arr[1 + n:]])
    return _run(_CoupledStepper(grid, params, tg.dt), y, tg, on_save)


# -- the linearization map and its fixed point ----------------------------------


@dataclass
class PhiReport:
    distances: list[float]
    monitors: list[dict]
    converged: bool
    iterations: int      # recorded Picard steps (distance checks)
    applications: int    # total applications of the map, seed included
    tol: float           # the distance below which the iteration converges


@dataclass
class PhiResult(RunResult):
    """A `RunResult` of the fixed-point trajectory, with its report."""

    report: PhiReport


class _TrajectoryInterpolant:
    """Linear-in-time interpolation of stacked coefficient snapshots (of
    the component `rows` only, when given)."""

    def __init__(self, times: np.ndarray, arrays: np.ndarray):
        self.times = times
        self.arrays = arrays  # (nt, ncomp, *grid)

    def __call__(self, t: float, rows=slice(None)) -> np.ndarray:
        times = self.times
        if t <= times[0]:
            return self.arrays[0, rows]
        if t >= times[-1]:
            return self.arrays[-1, rows]
        i = int(np.searchsorted(times, t) - 1)
        t0, t1 = times[i], times[i + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.arrays[i, rows] + w * self.arrays[i + 1, rows]


def _phi_apply(prev: _TrajectoryInterpolant, state0: FluidState,
               params: PhysicalParams, tg: TimeGrid) -> np.ndarray:
    """One application of the linearization map.

    One transport advances the stacked (sigma, h) rows, sigma with zero
    forcing, with velocity and tensor coefficients frozen from `prev`; the
    heat solve for the velocity then consumes its output as the
    coefficients (a, xi) of its forcing, with the advecting u still frozen
    from `prev`.  Each callable below is a function of t alone, evaluated
    once per distinct stage time, interpolates only the rows it reads and
    returns coefficients.  The velocity forcing checks the density floor on
    its sigma samples at every stage time t > 0; the initial state is not
    checked, as in `run`.
    """
    grid = state0.grid
    n = grid.dim
    vel_rows = slice(1, 1 + n)
    warm = None

    def u_at(t):
        return prev(t, vel_rows)

    def sh_forcing(t):
        u_xi = prev(t, slice(1, None))
        u, xi = u_xi[:n], u_xi[n:].reshape((n, n) + u_xi.shape[1:])
        src = stacked_gradient(grid, u) + dealiased(
            grid, _stretch(gradient_samples(grid, u), samples(grid, xi)))
        out = np.zeros((1 + n * n,) + u.shape[1:], dtype=np.complex128)
        out[1:] = src.reshape((n * n,) + u.shape[1:])
        return out

    tg1 = TimeGrid(tg.t_end, tg.dt, save_stride=1)
    sigma_h = SpectralField(grid, np.delete(state0.coeffs, vel_rows, axis=0))
    sh = solve_transport(sigma_h, u_at, sh_forcing, tg1, check_divergence=False)
    sh_interp = _TrajectoryInterpolant(sh.times, sh.coeffs)

    def v_forcing(t):
        nonlocal warm
        sig_h = sh_interp(t)
        arr = np.concatenate([sig_h[:1], u_at(t), sig_h[1:]])
        g, s, _ = momentum_forcing(grid, arr, params.mu, momentum_only=True)
        if t > 0:
            _check_floor(s[0], params)
        res = compute_pressure(grid, s[0], g, warm_start=warm)
        warm = res.u
        return g - res.flux

    v_traj = solve_heat(state0.velocity, v_forcing, params.mu, tg1)

    vel = stacked_leray(grid, v_traj.coeffs)
    return np.concatenate([sh.coeffs[:, :1], vel, sh.coeffs[:, 1:]], axis=1)


def _trajectory_distance(a: np.ndarray, b: np.ndarray, grid: GridSpec,
                         tg: TimeGrid) -> float:
    """Sup over the saved steps of the critical-norm distance between two
    trajectories."""
    s = grid.dim / 2.0
    spec_s = BesovSpec(s, 2.0, 1.0)
    spec_sm1 = BesovSpec(s - 1.0, 2.0, 1.0)
    worst = 0.0
    for it in tg.save_steps():
        diff = FluidState(grid, a[it] - b[it])
        d = besov_norm(diff.sigma, spec_s).value + besov_norm(diff.velocity, spec_sm1).value \
            + besov_norm(diff.h, spec_s).value
        worst = max(worst, d)
    return worst


def phi_iteration(state0: FluidState, params: PhysicalParams, tg: TimeGrid, *,
                  max_outer: int = 10, tol: float = 1e-8,
                  admissible: AdmissibleSetSpec | None = None, on_save=None) -> PhiResult:
    """Iterate the linearization map on whole trajectories until the
    sampled-sup critical-norm distance between successive iterates falls
    below `tol`.

    The seed trajectory is one application of the map to the constant
    extension of the initial data (the frozen-coefficient linear
    solution); reported distances are between successive Picard
    iterates from there on.  Returns the fixed-point trajectory's saved
    slices, each recorded as `run` records its saves (`_record`, with
    `on_save`), with per-iteration distances and admissible-set monitor
    flags.
    """
    grid = state0.grid
    s = grid.dim / 2.0
    sig_norm = besov_norm(state0.sigma, BesovSpec(s, 2.0, 1.0)).value
    if sig_norm > 0.1:
        warnings.warn(
            f"initial sigma norm {sig_norm:.3g} > 0.1; the linearization "
            "map may not contract", stacklevel=2)

    nt = tg.n_steps + 1
    constant = np.repeat(state0.coeffs[None], nt, axis=0)
    times = np.arange(nt) * tg.dt

    current = _phi_apply(_TrajectoryInterpolant(times, constant), state0, params, tg)

    distances: list[float] = []
    monitors: list[dict] = []
    converged = False
    for _ in range(max_outer):
        nxt = _phi_apply(_TrajectoryInterpolant(times, current), state0, params, tg)
        dist = _trajectory_distance(nxt, current, grid, tg)
        distances.append(dist)
        monitors.append(_admissible_monitor(nxt, times, grid, params, tg, admissible))
        current = nxt
        if dist < tol:
            converged = True
            break

    save_idx = tg.save_steps()
    states = [FluidState(grid, a) for a in current[save_idx]]
    saved_times = times[save_idx]
    rows = [_record(t, st, gradient_samples(grid, st.coeffs, with_samples=True), on_save)
            for t, st in zip(saved_times, states)]
    report = PhiReport(distances, monitors, converged, len(distances), 1 + len(distances), tol)
    return PhiResult(saved_times, states, rows, report)


def _admissible_monitor(traj: np.ndarray, times: np.ndarray, grid: GridSpec,
                        params: PhysicalParams, tg: TimeGrid,
                        admissible: AdmissibleSetSpec | None) -> dict:
    s = grid.dim / 2.0
    n = grid.dim
    sig_series = norm_series(times, SpectralField(grid, traj[:, 0]))
    vel_series = norm_series(times, SpectralField(grid, traj[:, 1:1 + n]))
    h_series = norm_series(times, SpectralField(grid, traj[:, 1 + n:]))
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
