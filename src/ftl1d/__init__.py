"""Follow-the-leader particle solver for 1-D scalar conservation laws."""

__version__ = "0.1.0"

from .velocity import (  # noqa: F401
    AssumptionReport,
    CustomVelocity,
    Greenshields,
    ModifiedGreenberg,
    PipesMunjal,
    TabulatedVelocity,
    Underwood,
    VelocityModel,
    check_assumptions,
)
from .initial_data import (  # noqa: F401
    ParticleConfiguration,
    PiecewiseConstantDensity,
    atomize,
    from_piecewise,
    mass_between,
    scenario,
)
from .dynamics import (  # noqa: F401
    IntegrationError,
    IntegratorSettings,
    Trajectory,
    ftl_rhs,
    integrate,
    lagrangian_rhs,
)
from .measures import (  # noqa: F401
    EmpiricalMeasure,
    LagrangianDensity,
    PiecewiseMonotone,
    cdf,
    cdf_from_quantile,
    check_density,
    empirical,
    hat_density,
    l1_distance,
    lagrangian_l1,
    pseudo_inverse,
    wasserstein,
    wasserstein_via_quantiles,
)
from .diagnostics import (  # noqa: F401
    DiagnosticsReport,
    OleinikResidual,
    bv_constant,
    entropy_K_terms,
    min_gap_ratio,
    oleinik_residual,
    run_diagnostics,
    time_continuity_moduli,
    total_variation,
    velocity_total_variation,
)
from .reference import (  # noqa: F401
    RiemannSolution,
    UnsupportedFluxError,
    godunov,
    godunov_flux,
    riemann_eval,
    riemann_l1_error,
    riemann_mass,
    riemann_solve,
)
from .harness import (  # noqa: F401
    ConvergenceTable,
    ExperimentConfig,
    convergence_study,
    run_experiment,
)
