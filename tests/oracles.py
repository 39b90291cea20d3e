"""Per-state references the tests check a run against, and a law by callables.

``run_diagnostics`` certifies the discrete estimates on the stacked states of
a run.  The functions here compute the same quantities one state, or one pair
of states, at a time, from their definitions, with numpy and the public
``ftl1d`` API only, so a comparison does not check the run's kernels
against themselves.  Each writes its arithmetic in the run's order of
operations, so the tests compare with ``==``.  ``CustomVelocity`` is a law
no config can name, for tests that need an increasing, flat or kinked v.
"""

from dataclasses import dataclass

import numpy as np

from ftl1d import ParticleConfiguration, PiecewiseConstantDensity, VelocityModel


def min_gap_ratio(config: ParticleConfiguration, rho_max: float) -> float:
    """Smallest gap divided by the guaranteed floor particle_mass/rho_max."""
    if not rho_max > 0.0:
        raise ValueError("rho_max must be positive")
    floor = config.particle_mass / rho_max
    return float(np.min(config.gaps()) / floor)


@dataclass(frozen=True)
class OleinikResidual:
    """One-sided residuals z_i = t * y_i * (v(y_right) - v(y_i)).

    ``interior`` holds the residuals between neighbouring cells; ``leader``
    is the residual of the last cell against the vacuum speed.  The exact
    flow keeps every residual at or below the particle mass.
    """

    interior: np.ndarray
    leader: float

    @property
    def max_interior(self) -> float:
        return float(np.max(self.interior)) if self.interior.size else 0.0


def oleinik_residual(config: ParticleConfiguration, model: VelocityModel) -> OleinikResidual:
    """The Oleinik-type residuals of one state: z_i = t * y_i * (v(y_{i+1}) -
    v(y_i)) between cells, and t * y_N * (v_max - v(y_N)) at the leader, where
    the vacuum ahead moves at v_max."""
    t, y = config.time, config.densities()
    v = model.value(y)
    return OleinikResidual(interior=t * y[:-1] * (v[1:] - v[:-1]),
                           leader=float(t * y[-1] * (model.v_max - v[-1])))


def velocity_total_variation(config: ParticleConfiguration, model: VelocityModel) -> float:
    """TV of the velocity profile v(y_i) over the line, where it is v_max
    outside the cells: the two jumps to v_max, then the jumps between cells."""
    w = model.value(config.densities())
    edges = abs(model.v_max - w[0]) + abs(model.v_max - w[-1])
    return float(edges + np.sum(np.abs(np.diff(w))))


def hat_total_variation(config: ParticleConfiguration) -> float:
    """TV of the particle cell density over the line, where it is 0 outside
    the cells: the two jumps to vacuum, then the jumps between cells."""
    y = config.densities()
    edges = abs(0.0 - y[0]) + abs(0.0 - y[-1])
    return float(edges + np.sum(np.abs(np.diff(y))))


def _check_one_mass_grid(a: PiecewiseConstantDensity, b: PiecewiseConstantDensity):
    """Both must carry a ``cell_mass``, the same one, on the same number of
    cells: their values then live on the same mass cells [i*m, (i+1)*m)."""
    if a.cell_mass is None or a.cell_mass != b.cell_mass or a.values.size != b.values.size:
        raise ValueError("densities need one cell_mass on one number of cells")


def lagrangian_l1(a: PiecewiseConstantDensity, b: PiecewiseConstantDensity) -> float:
    """L1 distance in the mass coordinate between two particle cell densities
    of one mass grid."""
    _check_one_mass_grid(a, b)
    return float(a.cell_mass * np.sum(np.abs(a.values - b.values)))


def lagrangian_wasserstein(a: PiecewiseConstantDensity, b: PiecewiseConstantDensity) -> float:
    """Scaled 1-Wasserstein distance between two particle cell densities of
    one mass grid, in closed form on the mass cells.

    On the line W1 is the L1 distance of the quantile functions.  Each
    quantile is linear on every mass cell [i*m, (i+1)*m], from the cell's
    left to its right breakpoint, so their difference is linear there with
    end values p and q: the cell contributes m * (|p| + |q|) / 2, or
    m * (p^2 + q^2) / (2 * (|p| + |q|)) when p and q differ in sign.
    """
    _check_one_mass_grid(a, b)
    d = a.breakpoints - b.breakpoints
    p, q = d[:-1], d[1:]
    half = 0.5 * a.cell_mass
    ends = np.abs(p) + np.abs(q)
    cells = half * ends
    crossing = p * q < 0.0
    p, q = p[crossing], q[crossing]
    cells[crossing] = half * (p * p + q * q) / ends[crossing]
    return float(np.sum(cells))


@dataclass(frozen=True)
class CustomVelocity(VelocityModel):
    """Closed-form law given by callables.

    ``v_func`` (and optionally ``v_prime_func``) must accept numpy arrays.
    When no derivative is supplied, v' is the difference quotient
    (v(hi) - v(lo)) / (hi - lo) with lo, hi = rho -/+ 1e-6 and lo clipped at
    0, so a test can give a kinked or flat v by its values alone.
    """

    v_func: object
    v_max: float
    v_prime_func: object = None

    def __post_init__(self):
        if float(self.v_func(0.0)) != self.v_max:
            raise ValueError("v_func(0) must equal v_max")

    def _velocities(self, mass):
        def velocities(gaps, out):
            out[...] = self.v_func(np.divide(mass, gaps, out))
            return out
        return velocities

    def _dv(self, rho):
        if self.v_prime_func is not None:
            return np.asarray(self.v_prime_func(rho), dtype=float)
        lo, hi = np.maximum(rho - 1e-6, 0.0), rho + 1e-6
        return (self.value(hi) - self.value(lo)) / (hi - lo)
