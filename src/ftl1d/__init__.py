"""Follow-the-leader particle solver for 1-D scalar conservation laws."""

__version__ = "0.1.0"

from .velocity import (  # noqa: F401
    AssumptionReport,
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
    scenario,
)
from .dynamics import (  # noqa: F401
    IntegrationError,
    IntegratorSettings,
    Trajectory,
    integrate,
)
from .measures import (  # noqa: F401
    PiecewiseMonotone,
    cdf,
    empirical,
    hat_density,
    l1_distance,
    wasserstein,
)
from .diagnostics import (  # noqa: F401
    DiagnosticsReport,
    bv_constant,
    entropy_K_terms,
    run_diagnostics,
    time_continuity_moduli,
    total_variation,
)
from .reference import (  # noqa: F401
    RiemannSolution,
    UnsupportedFluxError,
    entropy_mass,
    godunov,
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
