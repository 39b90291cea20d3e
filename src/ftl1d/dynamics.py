"""Time integration of the follow-the-leader particle system.

Each particle moves with speed v(mass/gap-to-right-neighbour); the leader
moves at v_max, so its path is exactly linear in time.  The exact flow keeps
every gap above particle_mass/R (R = maximum initial cell density); the
integrator enforces a safety fraction of that floor by step rejection, which
for the smooth right-hand side only ever fires as a numerical safeguard.
One step controller runs every scheme from its Runge-Kutta coefficient table
(``METHODS``); a new scheme is a new table, not a new setting.  Each run
allocates one workspace that holds the stages and the gaps of every stage
state and of the candidate, so one reduction over them decides an attempt:
the stage states are valid and the candidate clears the floor.  It alone
evaluates the right-hand side, every first stage included (the initial
state's when it is bound), through the law's kernel (``_velocities``), built
once per run from the cell mass; DP45 is first same as last (see
``_Tableau``).  An accepted attempt under Greenshields takes 71 numpy calls
under DP45 and 27 under RK4.  The weighted sum of the update (and of the
error estimate) is one product and one reduction over one slice of the stage
block, whose rows each table orders once so that no sum gathers rows (DP45
puts its second stage, which no sum reads, last).  A run's stepping loop is
one errstate scope.  An operand that is constant for the run (the cell mass,
the tolerances, and the law's own, bound when it is built) is a 0-d float64
array, on which a ufunc dispatches faster than on a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import velocity
from .initial_data import ParticleConfiguration
from .velocity import VelocityModel

STEP_UNDERFLOW_FRACTION = 1e-12
GAP_FLOOR_SAFETY = 0.5   # a step taking a gap below this fraction of m/R is rejected, halved
REJECTION_CAUSES = ("error", "gap_floor", "invalid_stage")


class IntegrationError(RuntimeError):
    """Step-size underflow; carries the last valid state for diagnosis."""

    def __init__(self, message, time=None, positions=None):
        super().__init__(message)
        self.time = time
        self.positions = positions


@dataclass(frozen=True)
class IntegratorSettings:
    """Stepper selection and control parameters.

    ``dt`` of None picks ``default_step``: 0.1 * m / (R * (v_max - v(R))),
    capped at t_end / 100, and t_end / 100 itself when R * (v_max - v(R))
    is not positive.
    """

    method: str = "rk4_fixed"
    dt: float | None = None
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class Trajectory:
    """States recorded at the requested sample times, each stamped with its time."""

    states: tuple
    metadata: dict = field(default_factory=dict)


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


def sample_grid(sample_times, t_end: float) -> tuple:
    """The sorted, deduplicated samples of a run to a finite t_end >= 0, with
    0, where the moduli read R, and t_end, the horizon, added.  None gives
    [0, t_end].  A list must be nonempty and in [0, t_end]: a NaN is refused."""
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    samples = {0.0} if sample_times is None else {float(t) for t in sample_times}
    if not samples:
        raise ValueError("need at least one sample time")
    if not all(0.0 <= t <= t_end for t in samples):
        raise ValueError("sample times must lie in [0, t_end]")
    return tuple(sorted(samples | {0.0, float(t_end)}))


def _nonzero(row):
    return tuple((j, c) for j, c in enumerate(row) if c != 0.0)


class _Tableau:
    """An explicit Runge-Kutta scheme, with its zero coefficients dropped.

    ``a`` holds the stage rows after the first (the system is autonomous, so
    no nodes c_i), ``b`` the weights of x + (dt / divisor) * sum_j b_j k_j, of
    order ``order``, and ``error``, if given, the published e = b - b_hat of
    an embedded order - 1 solution b_hat: the estimate h * sum_j e_j k_j (h =
    dt / divisor), of size dt**order, scales dt by its -1/order power, and
    loses no low bits to the cancellation of two O(1) solutions; without it
    the step is fixed.  Artifacts are checksummed, so the
    order of operations is kept: each sum adds its nonzero terms in order,
    from the first (0 * k can flip a -0.0 or turn an inf into NaN, so zero
    coefficients stay dropped).  The weights and the error row are each one
    product and one reduction over its rows from -0.0, the identity of IEEE
    addition (+0.0 would turn a sum of -0.0 terms into +0.0); a stage state
    is a running sum from x, which measured faster than a product with
    dt-scaled coefficients.  The first stage is the workspace's own:
    ``bind`` fills x0's, an accepting step the candidate's.

    ``fsal``: an adaptive table whose last stage row is its weights (divisor
    1), as DP45's, is first same as last (Dormand & Prince, J. Comput. Appl.
    Math. 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.5): its last
    stage state is the candidate, so the step forms none, its error estimate
    evaluates the law at the candidate into the last stage, and an accepting
    step copies that row into the first stage.

    ``layout`` is the stage held by each row of the stage block: stage 0,
    then the stages some weighted sum reads, in index order, then the rest.
    So each sum reads consecutive rows in its term order, one slice of the
    block bound once per run, and gathers none; a table whose sums cannot
    all be read so raises ValueError.  RK4's layout is the identity, DP45's
    (0, 2, 3, 4, 5, 6, 1), as no sum reads its second stage (b_2 = e_2 = 0).
    """

    def __init__(self, a, b, order, divisor=1.0, error=None):
        self.stages = tuple(_nonzero(row) for row in a)
        self.order = order
        self.weights = _nonzero(b)
        self.divisor = divisor
        self.error = None if error is None else _nonzero(error)
        self.fsal = error is not None and divisor == 1.0 and self.stages[-1] == self.weights
        sums = (self.weights,) if error is None else (self.weights, self.error)
        read = sorted({j for terms in sums for j, _ in terms} - {0})
        self.layout = (0, *read, *(j for j in range(1, len(a) + 1) if j not in read))
        self.row = {j: r for r, j in enumerate(self.layout)}
        for terms in sums:
            rows = [self.row[j] for j, _ in terms]
            if rows != list(range(rows[0], rows[-1] + 1)):
                raise ValueError("a weighted sum must read consecutive rows of the stage block")

    def bind(self, x0, cell_mass, model, floor, abs_tol, rel_tol, skipped):
        """Allocate one run's workspace for x0 and bind every row to it.

        Returns the first stage, filled with the velocities of x0, and
        ``step(x, dt, out)``: it writes the candidate x_new into ``out`` and
        returns the verdict ``(cause, err_norm)``.  A cause of None accepts the candidate, whose velocities
        then fill the first stage; otherwise it is one of REJECTION_CAUSES,
        and the first stage still holds the velocities of x.  ``err_norm``
        is the error estimate's norm (0.0 without one, None at an invalid
        stage state).  One reduction over the gaps of every stage state and
        of the candidate decides the common case; only when it fails are
        they told apart, in this order: an invalid stage state, a law that
        raised on valid ones (re-raised), error control, the candidate below
        ``floor``.  A stage gap in (0, floor) is no rejection: the floor
        holds the accepted states.  A candidate with a gap that is not
        positive is an invalid stage state under an FSAL table, and below
        the floor otherwise.  Stages after an invalid one see garbage, so ``step`` runs inside the
        errstate scope of ``integrate``.  The stages, x0 and the candidate
        are evaluated by one kernel of the law, bound to the cell mass as a
        0-d array; the tolerances are bound as 0-d arrays too; the per-step
        scalars (dt * a_ij, h) stay Python floats, as binding them costs a
        call more than it saves.  The accepted path runs the update's
        weighted sum and the gap test inline.  Stage j lives in row
        ``row[j]`` of the stage block (see ``layout``).
        A law that raises on an invalid stage state cuts the attempt short:
        ``skipped[0]`` gains the stage states it left unevaluated.
        """
        n = x0.size
        row = self.row
        fsal = self.fsal
        k = np.empty((len(self.stages) + 1, n))
        k[:, -1] = model.v_max
        first, last = k[0, :-1], k[row[len(self.stages)], :-1]
        # the stage states that a running sum forms: FSAL's last is the candidate
        formed = self.stages[:-1] if fsal else self.stages
        # the gaps of each formed stage state, then the candidate's
        gaps = np.empty((len(formed) + 1, n - 1))
        every_gap, candidate = gaps.reshape(-1), gaps[-1]
        stage_gaps = every_gap if fsal else gaps[:-1].reshape(-1)
        xi, term, acc = np.empty(n), np.empty(n), np.empty(n)
        xi_hi, xi_lo = xi[1:], xi[:-1]
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        add_reduce, minimum_reduce = np.add.reduce, np.minimum.reduce
        absolute, maximum, maximum_reduce = np.absolute, np.maximum, np.maximum.reduce

        def bound_sum(terms):
            # k's rows of the terms (one view, as the layout keeps them
            # consecutive), their coefficients repeated along the rows (a
            # broadcast column multiplies slower), and the product's workspace
            rows = k[row[terms[0][0]]:row[terms[-1][0]] + 1]
            coefficients = np.repeat(np.array([c for _, c in terms])[:, None], n, axis=1)
            return rows, coefficients, np.empty_like(coefficients)

        plans = []
        for i, ((j0, a0), *rest) in enumerate(formed):
            # the last item is what a raising law leaves: the gaps of every
            # stage state it saw, and the number of stages it skips
            plans.append((k[row[j0]], a0, tuple((k[row[j]], a) for j, a in rest), gaps[i],
                          k[row[i + 1], :-1], (gaps[:i + 1].reshape(-1), len(formed) - i - 1)))
        weight_rows, weight_coefficients, weight_work = bound_sum(self.weights)
        error = None if self.error is None else bound_sum(self.error)
        divisor = self.divisor
        abs_tol, rel_tol = np.array(abs_tol), np.array(rel_tol)
        velocities = model._velocities(np.array(cell_mass))
        velocities(subtract(x0[1:], x0[:-1], candidate), first)
        # an accepting step fills the first stage with the candidate's
        # velocities: FSAL copies them from the last stage, others evaluate them
        fill, source, target = (np.copyto, first, last) if fsal else (velocities, candidate, first)

        def clears(rows, floor):
            # one test covers every cell, as division is monotone; a NaN gap fails
            # it, and a Python float overflows to inf without a warning
            low = minimum_reduce(rows)
            return low > 0.0 and low >= floor and cell_mass / float(low) < math.inf

        def step(x, dt, out):
            try:
                for k0, a0, rest, row_gaps, head, seen in plans:
                    add(x, multiply(dt * a0, k0, xi), xi)
                    for kj, a in rest:
                        add(xi, multiply(dt * a, kj, term), xi)
                    subtract(xi_hi, xi_lo, row_gaps)
                    velocities(row_gaps, head)
            except Exception:
                # a law may raise on an invalid stage state (a tabulated law
                # on a density beyond its table): that rejects the step, as
                # testing each stage before its evaluation would have
                filled, unevaluated = seen
                if clears(filled, 0.0):
                    raise
                skipped[0] += unevaluated
                return "invalid_stage", None
            h = dt / divisor
            multiply(weight_coefficients, weight_rows, weight_work)
            add(x, multiply(h, add_reduce(weight_work, 0, None, acc, False, -0.0), acc), out)
            subtract(out[1:], out[:-1], candidate)
            # one reduction decides the common case: every stage state is
            # valid and the candidate clears the floor (the test of clears).
            # Only when it fails are they told apart, as a stage gap in (0,
            # floor) is allowed
            low = float(minimum_reduce(every_gap))
            clear = low > 0.0 and low >= floor and cell_mass / low < math.inf
            if not clear:
                if not clears(stage_gaps, 0.0):
                    return "invalid_stage", None
                clear = clears(candidate, floor)
            err_norm = 0.0
            if error is not None:
                if fsal:
                    velocities(candidate, last)
                rows, coefficients, work = error
                multiply(coefficients, rows, work)
                err = multiply(h, add_reduce(work, 0, None, xi, False, -0.0), xi)
                scale = maximum(absolute(x, acc), absolute(out, term), out=acc)
                add(abs_tol, multiply(rel_tol, scale, scale), scale)
                err_norm = float(maximum_reduce(divide(absolute(err, err), scale, err)))
                if err_norm > 1.0:
                    return "error", err_norm
            if not clear:
                return "gap_floor", err_norm
            fill(source, target)
            return None, err_norm

        return k[0], step


# The integration methods by name: classical RK4 at a fixed step, and the
# Dormand-Prince 5(4) pair with step-size control, whose error row is the
# published e = b - b_hat.
METHODS = {
    "rk4_fixed": _Tableau(a=((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
                          b=(1.0, 2.0, 2.0, 1.0), order=4, divisor=6.0),
    "rk45_adaptive": _Tableau(
        a=((1 / 5,),
           (3 / 40, 9 / 40),
           (44 / 45, -56 / 15, 32 / 9),
           (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
           (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
           (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
        b=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
        order=5,
        error=(71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
               -1 / 40)),
}


def integrate(config0: ParticleConfiguration, model: VelocityModel, t_end: float,
              settings: IntegratorSettings | None = None,
              sample_times=None) -> Trajectory:
    """Advance the particle system to t_end, recording the requested samples.

    Args:
        config0: initial configuration (time stamp 0).
        model: velocity law.
        t_end: final time, finite and >= 0.
        settings: stepper selection and control; defaults to fixed RK4.
        sample_times: times in [0, t_end] at which states are recorded;
            defaults to [0, t_end], and 0 and t_end are always recorded (see
            ``sample_grid``).

    Returns:
        Trajectory with one state per (deduplicated, sorted) sample time and
        integrator metadata (step size, step and rejection counts, the
        rejections by cause, gap floor, and ``rhs_evals``, the count of the
        law's evaluations on a state, derived from those counts).

    One controller runs the coefficient table of ``settings.method`` (see
    ``METHODS``); a new scheme is a new table, not a new setting.  The run's
    one workspace holds the stages and the gaps of every stage state and of
    the candidate, evaluates every first stage (the initial state's when it
    is bound) and returns each attempt's verdict, so the controller only
    sizes the steps; returned states are copies.  The stepping loop runs in
    one errstate scope that ignores floating-point warnings.  Steps end on
    the sample times; an error estimate adapts the step to
    abs_tol/rel_tol, and a candidate it rejects (``error``) is retried at
    the step it sizes.  A candidate that drops a gap below GAP_FLOOR_SAFETY
    * particle_mass / R (R from the initial configuration; ``gap_floor``) or
    an attempt that meets an invalid stage state (``invalid_stage``) is
    retried at half the step; a stage state with a gap in (0, floor) is no
    rejection.  Rejection-driven underflow below 1e-12 * t_end raises
    IntegrationError carrying the last valid state.  A law that
    ``check_assumptions`` does not find strictly decreasing on [0, R] raises
    ValueError before the first step (a law flat by rounding, as near
    vacuum, is run).
    """
    if config0.time != 0.0:
        raise ValueError("initial configuration must be at time 0")
    samples = sample_grid(sample_times, t_end)
    settings = settings or IntegratorSettings()

    scheme = METHODS[settings.method]
    cell_mass = config0.particle_mass
    r_init = config0.max_density()
    if not velocity.check_assumptions(model, r_init).v_strictly_decreasing:
        raise ValueError("velocity law increases, or is flat, on [0, initial max density]")
    floor = GAP_FLOOR_SAFETY * cell_mass / r_init
    dt_base = settings.dt if settings.dt is not None else default_step(config0, model, t_end)
    dt_min = STEP_UNDERFLOW_FRACTION * t_end

    x = config0.positions.copy()
    x_new = np.empty_like(x)
    skipped = [0]
    _, step = scheme.bind(x, cell_mass, model, floor, settings.abs_tol, settings.rel_tol,
                          skipped)
    adaptive = scheme.error is not None
    exponent = -1.0 / scheme.order
    t = 0.0
    steps = 0
    rejections = dict.fromkeys(REJECTION_CAUSES, 0)
    states = []
    dt_next = dt_base
    with np.errstate(all="ignore"):
        for target in samples:
            while t < target:
                remaining = target - t
                dt = min(dt_next, remaining)
                while True:
                    cause, err_norm = step(x, dt, x_new)
                    if cause is None:
                        break
                    rejections[cause] += 1
                    if cause == "error":
                        retry = max(0.9 * dt * err_norm ** exponent, 0.1 * dt)
                    else:
                        retry = 0.5 * dt
                    if retry < dt_min:
                        raise IntegrationError(
                            f"step size underflow at t={t:.6g} (dt={retry:.3g})",
                            time=t, positions=x.copy())
                    dt = retry
                # a rejection always leaves dt below remaining
                t = target if dt == remaining else t + dt
                x, x_new = x_new, x
                steps += 1
                if adaptive:
                    factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** exponent))
                    dt_next = min(dt * factor, dt_base * 100.0)
            states.append(ParticleConfiguration(
                time=target, particle_mass=cell_mass, positions=x.copy()))

    # the law's evaluations: x0's, every formed stage state of each attempt
    # but those a raising law skipped, and the candidate of each attempt that
    # an FSAL error estimate reads (its stage states valid), else of each step
    formed = len(scheme.stages) - scheme.fsal
    rejected = sum(rejections.values())
    candidates = steps + (rejections["error"] + rejections["gap_floor"]) * scheme.fsal
    metadata = {
        "method": settings.method,
        "dt": dt_base,
        "abs_tol": settings.abs_tol,
        "rel_tol": settings.rel_tol,
        "gap_floor_safety": GAP_FLOOR_SAFETY,
        "gap_floor": floor,
        "initial_max_density": r_init,
        "steps": steps,
        "rejections": rejected,
        "rejections_by_cause": rejections,
        "rhs_evals": 1 + (steps + rejected) * formed - skipped[0] + candidates,
    }
    return Trajectory(states=tuple(states), metadata=metadata)
