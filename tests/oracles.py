"""Per-state references the tests check a run against, and a law by callables.

``run_diagnostics`` certifies the discrete estimates on the stacked states of
a run.  The functions here compute the same quantities one state, or one pair
of states, at a time, from their definitions, with numpy and the public
``ftl1d`` API only, so a comparison does not check the run's kernels
against themselves.  Each writes its arithmetic in the run's order of
operations, so the tests compare with ``==``.  ``CustomVelocity`` is a law
no config can name, for tests that need an increasing, flat or kinked v;
``CountingVelocity`` wraps a law to count how often a run evaluates it.
The bisection of f' and the sampled structural verdicts are the references
that every law's closed forms are checked against, and what
``CustomVelocity`` uses.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ftl1d import ParticleConfiguration, PiecewiseConstantDensity, VelocityModel
from ftl1d.velocity import ADMISSIBILITY_SAMPLES


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


def bisected_inverse_flux_derivative(model: VelocityModel, xi, lo: float, hi: float):
    """Solve f'(rho) = xi for rho in [lo, hi], bisecting to 1e-13 * max(1, hi).

    f' is assumed decreasing on [lo, hi] (as it is when the flux is
    concave); xi outside (f'(hi), f'(lo)) gives the nearer end, and where
    every xi does, nothing is bisected.
    """
    arr = np.asarray(xi, dtype=float)
    # an end exactly, not a midpoint near it: f(r) - r * xi moves with it
    at_lo, at_hi = arr >= model.flux_derivative(lo), arr <= model.flux_derivative(hi)
    a = np.full(arr.shape, lo)
    b = np.full(arr.shape, hi)
    if not np.all(at_lo | at_hi):
        for _ in range(80):
            mid = 0.5 * (a + b)
            high = model.flux_derivative(mid) > arr
            a = np.where(high, mid, a)
            b = np.where(high, b, mid)
            if float(np.max(b - a)) <= 1e-13 * max(1.0, hi):
                break
    out = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (a + b)))
    return float(out) if np.ndim(xi) == 0 else out


def sampled_structure(model: VelocityModel, grid: np.ndarray):
    """(rho * v'(rho) non-increasing, flux concave) read on the samples of
    ``grid``: the weighted slope may rise by at most 1e-12 * (1 + max|rho v'|)
    between samples, and the second differences of f are at most 1e-10 *
    (1 + max|f|).  A verdict reads false when any sample it reads is not
    finite; such samples raise no numpy warning."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        v = model.value(grid)
        dv = model.derivative(grid)
        m = np.where(grid == 0.0, 0.0, grid * dv)
        f = grid * v
        # each bound is finite exactly when every sample it scales is
        slack = 1e-12 * (1.0 + float(np.max(np.abs(m))))
        bound = 1e-10 * (1.0 + float(np.max(np.abs(f))))
        second = f[2:] - 2.0 * f[1:-1] + f[:-2]
        return (math.isfinite(slack) and bool(np.all(np.diff(m) <= slack)),
                math.isfinite(bound) and bool(np.all(second <= bound)))


@dataclass(frozen=True)
class CustomVelocity(VelocityModel):
    """Closed-form law given by callables.

    ``v_func`` (and optionally ``v_prime_func``) must accept numpy arrays.
    When no derivative is supplied, v' is the difference quotient
    (v(hi) - v(lo)) / (hi - lo) with lo, hi = rho -/+ 1e-6 and lo clipped at
    0, so a test can give a kinked or flat v by its values alone.  Its root
    of f' bisects, and its structural verdicts are read on the
    ``ADMISSIBILITY_SAMPLES`` points of [0, hi].
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

    def inverse_flux_derivative(self, xi, lo, hi):
        return bisected_inverse_flux_derivative(self, xi, lo, hi)

    def structural_verdicts(self, hi):
        return sampled_structure(self, np.linspace(0.0, hi, ADMISSIBILITY_SAMPLES))


@dataclass(frozen=True)
class CountingVelocity(VelocityModel):
    """``law``, whose run kernels count their calls in ``calls[0]``.

    Each kernel ``_velocities`` builds is ``law``'s behind a counter that
    adds 1 before the call, so a call that raises counts.  ``value``, the
    slopes and so the admissibility check read ``law`` uncounted: the count
    is the evaluations of a run's right-hand side.  The inverse of f' and the
    structural verdicts are ``law``'s.
    """

    law: VelocityModel
    calls: list = field(default_factory=lambda: [0])

    @property
    def v_max(self):
        return self.law.v_max

    def _velocities(self, mass):
        kernel, calls = self.law._velocities(mass), self.calls

        def velocities(gaps, out):
            calls[0] += 1
            return kernel(gaps, out)
        return velocities

    def _v(self, rho, out):
        return self.law._v(rho, out)

    def _dv(self, rho):
        return self.law._dv(rho)

    def inverse_flux_derivative(self, xi, lo, hi):
        return self.law.inverse_flux_derivative(xi, lo, hi)

    def structural_verdicts(self, hi):
        return self.law.structural_verdicts(hi)
