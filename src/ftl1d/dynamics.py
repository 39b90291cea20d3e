"""Time integration of the follow-the-leader particle system.

Each particle moves with speed v(mass/gap-to-right-neighbour); the leader
moves at v_max, so its path is exactly linear in time.  The exact flow keeps
every gap above particle_mass/R (R = maximum initial cell density); the
integrator enforces a safety fraction of that floor by step rejection, which
for the smooth right-hand side only ever fires as a numerical safeguard.
One step controller runs every scheme from its Runge-Kutta coefficient table
(``METHODS``); a new scheme is a new table, not a new setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .initial_data import ParticleConfiguration
from .velocity import VelocityModel

STEP_UNDERFLOW_FRACTION = 1e-12


class IntegrationError(RuntimeError):
    """Step-size underflow; carries the last valid state for diagnosis."""

    def __init__(self, message, time=None, positions=None):
        super().__init__(message)
        self.time = time
        self.positions = positions


@dataclass(frozen=True)
class IntegratorSettings:
    """Stepper selection and control parameters.

    ``dt`` of None picks the default step
    0.1 * m / (R * (v_max - v(R)) + eps), capped at t_end / 100.
    ``gap_floor_safety`` is the fraction of m/R below which a step is
    rejected and halved.
    """

    method: str = "rk4_fixed"
    dt: float | None = None
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    gap_floor_safety: float = 0.5

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.gap_floor_safety <= 1.0:
            raise ValueError("gap_floor_safety must lie in (0, 1]")


@dataclass(frozen=True)
class Trajectory:
    """States recorded at the requested sample times."""

    sample_times: np.ndarray
    states: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def initial_state(self) -> ParticleConfiguration:
        return self.states[0]


def ftl_rhs(config: ParticleConfiguration, model: VelocityModel) -> np.ndarray:
    """Particle velocities: v(mass/gap) for followers, v_max for the leader."""
    out = _velocities(config.positions, config.particle_mass, model)
    if out is None:
        raise ValueError("positions must be strictly increasing")
    return out


def lagrangian_rhs(y, model: VelocityModel, cell_mass: float) -> np.ndarray:
    """Rates of the cell densities y_i.

    Interior: -y_i^2/m * (v(y_{i+1}) - v(y_i)); the last cell sees the
    leader and uses v_max in place of v(y_{i+1}).
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("densities must be positive and finite")
    v = model.value(y)
    v_next = np.empty_like(v)
    v_next[:-1] = v[1:]
    v_next[-1] = model.v_max
    return -(y * y / cell_mass) * (v_next - v)


def _velocities(positions, cell_mass, model, floor=0.0):
    """Particle velocities, or None when a gap is not above 0 and ``floor``
    or a density overflows.

    Correctly rounded division is monotone, so the largest density is
    exactly cell_mass / (smallest gap): one scalar test covers every cell,
    and a NaN gap fails it through the minimum.
    """
    gaps = positions[1:] - positions[:-1]
    low = np.minimum.reduce(gaps)
    if not (low > 0.0 and low >= floor and cell_mass / low < np.inf):
        return None
    out = np.empty(positions.size)
    out[:-1] = model._v(cell_mass / gaps)
    out[-1] = model.v_max
    return out


def default_step(config: ParticleConfiguration, model: VelocityModel, t_end: float) -> float:
    """Default fixed step from the initial density scale, at most t_end / 100.

    The cap is also the step when the speed spread r * (v_max - v(r)) is not
    positive: a vanishing density or a law that does not decrease.
    """
    r = config.max_density()
    spread = r * (model.v_max - model.value(r))
    if not spread > 0.0:
        return t_end / 100.0
    return min(0.1 * config.particle_mass / spread, t_end / 100.0)


def _nonzero(row):
    return tuple((j, c) for j, c in enumerate(row) if c != 0.0)


class _Tableau:
    """An explicit Runge-Kutta scheme, with its zero coefficients dropped.

    ``a`` holds the stage rows after the first (the system is autonomous, so
    no nodes c_i), ``b`` the weights of x + (dt / divisor) * sum_j b_j k_j,
    and ``embedded``, if given, those of an order-4 solution whose difference
    is the error estimate; without it the step is fixed.  Artifacts are
    checksummed, so the order of operations is kept: sums start from their
    first nonzero term and unit weights are not multiplied.  A combined
    error row or reuse of the last stage would change steps in the last bit.
    The first stage is passed in: the controller already evaluated it when
    it tested the accepted state against the gap floor.
    """

    def __init__(self, a, b, divisor=1.0, embedded=None):
        self.stages = tuple(_nonzero(row) for row in a)
        self.weights = _nonzero(b)
        self.divisor = divisor
        self.embedded = None if embedded is None else _nonzero(embedded)

    def step(self, x, k1, dt, cell_mass, model):
        """(x_new, error estimate or None), or (None, None) if a stage state is invalid.

        ``k1`` is the velocity field at ``x`` (None if ``x`` is invalid).
        """
        if k1 is None:
            return None, None
        ks = [k1]
        for row in self.stages:
            xi = x
            for j, a in row:
                xi = xi + (dt * a) * ks[j]
            k = _velocities(xi, cell_mass, model)
            if k is None:
                return None, None
            ks.append(k)
        h = dt / self.divisor
        x_new = x + h * _weighted_sum(self.weights, ks)
        if self.embedded is None:
            return x_new, None
        return x_new, x_new - (x + h * _weighted_sum(self.embedded, ks))


def _weighted_sum(weights, ks):
    total = None
    for j, b in weights:
        term = ks[j] if b == 1.0 else b * ks[j]
        total = term if total is None else total + term
    return total


# The integration methods by name: classical RK4 at a fixed step, and the
# Dormand-Prince 5(4) pair with step-size control.
METHODS = {
    "rk4_fixed": _Tableau(a=((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
                          b=(1.0, 2.0, 2.0, 1.0), divisor=6.0),
    "rk45_adaptive": _Tableau(
        a=((1 / 5,),
           (3 / 40, 9 / 40),
           (44 / 45, -56 / 15, 32 / 9),
           (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
           (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
           (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
        b=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
        embedded=(5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                  187 / 2100, 1 / 40)),
}


def integrate(config0: ParticleConfiguration, model: VelocityModel, t_end: float,
              settings: IntegratorSettings | None = None,
              sample_times=None) -> Trajectory:
    """Advance the particle system to t_end, recording the requested samples.

    Args:
        config0: initial configuration (time stamp 0).
        model: velocity law.
        t_end: final time, >= 0.
        settings: stepper selection and control; defaults to fixed RK4.
        sample_times: times in [0, t_end] at which states are recorded;
            defaults to [0, t_end].

    Returns:
        Trajectory with one state per (deduplicated, sorted) sample time and
        integrator metadata (step size, step/rejection counts, gap floor).

    One controller runs the coefficient table of ``settings.method`` (see
    ``METHODS``); a new scheme is a new table, not a new setting.  Steps end
    on the sample times; an embedded error estimate adapts the step to
    abs_tol/rel_tol.  A step that drops a gap below gap_floor_safety *
    particle_mass / R (R from the initial configuration) or meets an invalid
    stage state is retried at half the step; rejection-driven underflow
    below 1e-12 * t_end raises IntegrationError carrying the last valid state.
    A law that increases anywhere on 64 samples of [0, R] raises ValueError
    before the first step (a law flat by rounding, as near vacuum, is run).
    """
    if config0.time != 0.0:
        raise ValueError("initial configuration must be at time 0")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    settings = settings or IntegratorSettings()
    if sample_times is None:
        sample_times = [0.0, t_end] if t_end > 0.0 else [0.0]
    samples = np.unique(np.asarray([float(t) for t in sample_times]))
    if samples.size == 0:
        raise ValueError("need at least one sample time")
    if samples[0] < 0.0 or samples[-1] > t_end:
        raise ValueError("sample times must lie in [0, t_end]")

    scheme = METHODS[settings.method]
    cell_mass = config0.particle_mass
    r_init = config0.max_density()
    if np.any(np.diff(model.value(np.linspace(0.0, r_init, 64))) > 0.0):
        raise ValueError("velocity law increases on [0, initial max density]")
    floor = settings.gap_floor_safety * cell_mass / r_init
    dt_base = settings.dt if settings.dt is not None else default_step(config0, model, max(t_end, 1e-300))
    if t_end == 0.0:
        dt_base = 1.0
    dt_min = STEP_UNDERFLOW_FRACTION * t_end if t_end > 0.0 else 0.0

    x = config0.positions.copy()
    k1 = _velocities(x, cell_mass, model)
    t = 0.0
    steps = 0
    rejections = 0
    states = []
    dt_next = dt_base
    for target in samples:
        while t < target:
            remaining = target - t
            dt = min(dt_next, remaining)
            while True:
                x_new, err = scheme.step(x, k1, dt, cell_mass, model)
                err_norm = 0.0
                if err is not None:
                    scale = settings.abs_tol + settings.rel_tol * np.maximum(
                        np.abs(x), np.abs(x_new))
                    err_norm = float(np.max(np.abs(err) / scale))
                if err_norm > 1.0:
                    retry = max(0.9 * dt * err_norm ** -0.2, 0.1 * dt)
                elif x_new is None or (
                        k_new := _velocities(x_new, cell_mass, model, floor)) is None:
                    retry = 0.5 * dt
                else:
                    break
                rejections += 1
                if retry < dt_min:
                    raise IntegrationError(
                        f"step size underflow at t={t:.6g} (dt={retry:.3g})",
                        time=t, positions=x.copy())
                dt = retry
            # a rejection always leaves dt below remaining
            t = target if dt == remaining else t + dt
            x, k1 = x_new, k_new
            steps += 1
            if err is not None:
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
                dt_next = min(dt * factor, dt_base * 100.0)
        states.append(ParticleConfiguration(
            time=target, particle_mass=cell_mass, positions=x.copy()))

    metadata = {
        "method": settings.method,
        "dt": dt_base,
        "abs_tol": settings.abs_tol,
        "rel_tol": settings.rel_tol,
        "gap_floor_safety": settings.gap_floor_safety,
        "gap_floor": floor,
        "initial_max_density": r_init,
        "steps": steps,
        "rejections": rejections,
    }
    return Trajectory(sample_times=samples, states=tuple(states), metadata=metadata)
