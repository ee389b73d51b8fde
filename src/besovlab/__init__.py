"""besovlab: dyadic frequency analysis and incompressible viscoelastic
flow on the periodic torus, with verifiable norm estimates."""

__version__ = "0.1.0"

from .linsolve import (  # noqa: F401
    CflViolationError,
    EllipticConvergenceError,
    NonSolenoidalError,
    TimeGrid,
    solve_coupled,
    solve_heat,
    solve_transport,
    solve_variable_poisson,
)
from .norms import (  # noqa: F401
    INF,
    BesovSpec,
    HybridSpec,
    NormSeries,
    besov_norm,
    chemin_lerner_norm,
    lp_norm,
)
from .oldroyd import (  # noqa: F401
    AdmissibleSetSpec,
    DensityFloorError,
    PhysicalParams,
    compute_pressure,
    constraint_residuals,
    deformation_identity_residual,
    make_initial_data,
    phi_iteration,
    run,
    run_coupled,
    split_state,
)
from .paley import profile  # noqa: F401
from .spectral import (  # noqa: F401
    GridSpec,
    divergence,
    forward_transform,
    gradient,
    lambda_multiplier,
    leray_project,
    rescale,
    samples,
)
