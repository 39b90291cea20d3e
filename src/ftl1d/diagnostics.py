"""Certification of the discrete estimates satisfied by the particle flow.

Each check evaluates a quantitative bound that the exact particle dynamics
provably satisfies: the gap floor (discrete maximum principle), the one-sided
Oleinik-type residuals, total-variation contractivity, the velocity-profile
BV bound with its explicit constant, entropy-term nonnegativity, and the two
time-continuity moduli.  Checks run on integrator output, so each carries a
small tolerance absorbing integration error.  A check whose bound does not
apply to a run is skipped, and the report says why.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import measures
from .dynamics import Trajectory
from .initial_data import ParticleConfiguration, PiecewiseConstantDensity
from .measures import LagrangianDensity
from .velocity import VelocityModel, check_assumptions

GAP_RATIO_TOL = 1e-6
OLEINIK_REL_TOL = 1e-6
TV_CONTRACT_TOL = 1e-8
VELOCITY_TV_TOL = 1e-6
ENTROPY_TOL = 1e-12
INTERLEAVING_REL_TOL = 1e-12


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

    time: float
    cell_mass: float
    interior: np.ndarray
    leader: float

    @property
    def max_interior(self) -> float:
        return float(np.max(self.interior)) if self.interior.size else 0.0

    @property
    def max_all(self) -> float:
        return max(self.max_interior, self.leader)


def oleinik_residual(config: ParticleConfiguration, model: VelocityModel) -> OleinikResidual:
    """Evaluate the Oleinik-type residuals on one state.

    The bound on them holds only when rho * v'(rho) is non-increasing on the
    density range; ``run_diagnostics`` decides whether it applies.
    """
    y = config.densities()
    t = config.time
    v = model.value(y)
    interior = t * y[:-1] * (v[1:] - v[:-1])
    leader = float(t * y[-1] * (model.v_max - v[-1]))
    return OleinikResidual(time=t, cell_mass=config.particle_mass,
                           interior=interior, leader=leader)


def total_variation(density) -> float:
    """TV of a cellwise-constant profile, edge jumps to vacuum included."""
    if isinstance(density, (PiecewiseConstantDensity, LagrangianDensity)):
        vals = density.values
    else:
        vals = np.asarray(density, dtype=float)
    return float(vals[0] + vals[-1] + np.sum(np.abs(np.diff(vals))))


def velocity_total_variation(config: ParticleConfiguration, model: VelocityModel) -> float:
    """TV of the velocity profile v(density), with jumps to v_max outside."""
    w = model.value(config.densities())
    return float(abs(model.v_max - w[0]) + abs(model.v_max - w[-1])
                 + np.sum(np.abs(np.diff(w))))


def bv_constant(model: VelocityModel, rho_max: float, span: float, delta: float) -> float:
    """The explicit bound 3*(v_max - v(R)) + 2*span/delta for times >= delta."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return 3.0 * (model.v_max - model.value(rho_max)) + 2.0 * span / delta


def entropy_K_terms(config: ParticleConfiguration, model: VelocityModel, k) -> np.ndarray:
    """Entropy production terms at the particle positions for levels k >= 0.

    With the convention that the density beyond the leader is zero, term i
    (i = 1..N) equals k * (v(k) - v(y_i)) * (sgn(y_i - k) - sgn(y_{i-1} - k));
    every term is nonnegative for a decreasing velocity law.  A scalar level
    gives the N terms, an array of K levels a K x N array, one row per level.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("k must be nonnegative")
    y = np.concatenate((config.densities(), [0.0]))
    v_y = model.value(y)
    k = k[..., None] if k.ndim else k
    v_k = model.value(k)
    sgn = np.sign(y - k)
    return k * (v_k - v_y[1:]) * (sgn[..., 1:] - sgn[..., :-1])


@dataclass(frozen=True)
class TimeContinuityReport:
    """Worst slack of the two time-continuity moduli over consecutive sample pairs."""

    wasserstein_rate: float
    l1_rate: float
    delta: float
    wasserstein_worst_slack: float
    l1_worst_slack: float
    wasserstein_pairs: int
    l1_pairs: int

    @property
    def all_hold(self) -> bool:
        return self.wasserstein_worst_slack >= 0.0 and self.l1_worst_slack >= 0.0


def time_continuity_moduli(trajectory: Trajectory, model: VelocityModel,
                           delta: float) -> TimeContinuityReport:
    """Check both time-continuity moduli on consecutive sample pairs.

    The transport metric between the cell reconstructions is Lipschitz with
    rate 2L*max(|v_max|, |v(R)|, v_max - v(R)) for all times; the mass-space
    L1 distance between Lagrangian densities is Lipschitz with rate
    R^2*(C_delta + v_max - v(R)) for times >= delta.  R and the support span
    are taken from the initial state.  Both bound a metric, so by the
    triangle inequality the consecutive pairs imply every pair: the verdict
    is that of all pairs, and so is the worst slack when it is nonnegative
    (up to rounding).  A failing run reports its worst consecutive slack.
    """
    states = trajectory.states
    if len(states) < 2:
        raise ValueError("need at least two samples")
    init = states[0]
    r = init.max_density()
    span = float(init.positions[-1] - init.positions[0])
    total = init.total_mass
    v_r = model.value(r)
    w_rate = 2.0 * total * max(abs(model.v_max), abs(v_r), model.v_max - v_r)
    l1_rate = r * r * (bv_constant(model, r, span, delta) + model.v_max - v_r)

    def reconstructions(state):
        return (state.time, measures.cdf(measures.hat_density(state)),
                measures.check_density(state))

    w_slack = np.inf
    l1_slack = np.inf
    w_pairs = 0
    l1_pairs = 0
    for (t0, cdf0, check0), (t1, cdf1, check1) in itertools.pairwise(
            map(reconstructions, states)):
        w_slack = min(w_slack, w_rate * (t1 - t0) - measures.wasserstein(cdf0, cdf1))
        w_pairs += 1
        if t0 >= delta:
            l1_slack = min(l1_slack,
                           l1_rate * (t1 - t0) - measures.lagrangian_l1(check0, check1))
            l1_pairs += 1
    if l1_pairs == 0:
        l1_slack = 0.0
    return TimeContinuityReport(
        wasserstein_rate=w_rate, l1_rate=l1_rate, delta=delta,
        wasserstein_worst_slack=float(w_slack), l1_worst_slack=float(l1_slack),
        wasserstein_pairs=w_pairs, l1_pairs=l1_pairs)


@dataclass
class Violation:
    time: float | None
    check: str
    value: float
    bound: float


@dataclass
class DiagnosticsReport:
    """Per-sample-time diagnostics, the bound violations and the skipped checks.

    ``skipped`` maps the name of each check whose bound does not apply to
    this run to the reason; a skipped check records no violation.
    """

    times: list = field(default_factory=list)
    min_gap_ratios: list = field(default_factory=list)
    oleinik_interior_max: list = field(default_factory=list)
    oleinik_leader: list = field(default_factory=list)
    tv_hat: list = field(default_factory=list)
    tv_velocity: list = field(default_factory=list)
    entropy_min: list = field(default_factory=list)
    c_delta: float = float("nan")
    delta: float = float("nan")
    tv_initial_datum: float = float("nan")
    wasserstein_worst_slack: float = float("nan")
    l1_worst_slack: float = float("nan")
    interleaving_max_rel_error: float = float("nan")
    violations: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, check: str, time, value: float, bound: float, lower: bool = False):
        """Record a violation when ``value`` lies above ``bound`` (below if ``lower``)."""
        if value < bound if lower else value > bound:
            self.violations.append(Violation(time, check, value, bound))

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_diagnostics(trajectory: Trajectory, model: VelocityModel,
                    datum: PiecewiseConstantDensity, delta: float,
                    k_grid=None) -> DiagnosticsReport:
    """Run every check on a trajectory; record its violations and skips.

    ``k_grid`` defaults to 50 levels on [0, 1.2 * sup_norm] so that the
    entropy terms are exercised above the densest state as well.
    """
    if k_grid is None:
        k_grid = np.linspace(0.0, 1.2 * datum.sup_norm, 50)
    span = datum.support_max - datum.support_min
    report = DiagnosticsReport(c_delta=bv_constant(model, datum.sup_norm, span, delta),
                               delta=delta, tv_initial_datum=total_variation(datum))

    oleinik_ok = check_assumptions(
        model, datum.sup_norm, samples=64).weighted_slope_non_increasing
    if not oleinik_ok:
        report.skipped.update(dict.fromkeys(
            ("oleinik_interior", "oleinik_leader"),
            "velocity law fails the sampled weighted-slope condition on [0, sup_norm]"))
    prev_tv = None
    interleave_err = 0.0
    for state in trajectory.states:
        t = state.time
        cell_mass = state.particle_mass
        report.times.append(t)

        ratio = min_gap_ratio(state, datum.sup_norm)
        report.min_gap_ratios.append(ratio)
        report.record("min_gap_ratio", t, ratio, 1.0 - GAP_RATIO_TOL, lower=True)

        res = oleinik_residual(state, model)
        report.oleinik_interior_max.append(res.max_interior)
        report.oleinik_leader.append(res.leader)
        if oleinik_ok:
            bound = cell_mass * (1.0 + OLEINIK_REL_TOL)
            report.record("oleinik_interior", t, res.max_interior, bound)
            report.record("oleinik_leader", t, res.leader, bound)

        hat = measures.hat_density(state)
        tv = total_variation(hat)
        report.tv_hat.append(tv)
        report.record("tv_contractivity", t, tv, report.tv_initial_datum + TV_CONTRACT_TOL)
        if prev_tv is not None:
            report.record("tv_monotone", t, tv, prev_tv + TV_CONTRACT_TOL)
        prev_tv = tv

        tvv = velocity_total_variation(state, model)
        report.tv_velocity.append(tvv)
        if t >= delta:
            report.record("tv_velocity", t, tvv, report.c_delta + VELOCITY_TV_TOL)

        k_min = float(np.min(entropy_K_terms(state, model, k_grid)))
        report.entropy_min.append(k_min)
        report.record("entropy_terms", t, k_min, -ENTROPY_TOL, lower=True)

        ident = 0.5 * cell_mass * (state.positions[-1] - state.positions[0])
        dist = measures.wasserstein(hat, measures.empirical(state))
        interleave_err = max(interleave_err, abs(dist - ident) / ident)
    if not any(t >= delta for t in report.times):
        report.skipped["tv_velocity"] = "no sample at or after delta"
    report.interleaving_max_rel_error = interleave_err
    report.record("interleaving_identity", None, interleave_err, INTERLEAVING_REL_TOL)

    if len(trajectory.states) < 2:
        report.skipped.update(dict.fromkeys(
            ("wasserstein_time_continuity", "l1_time_continuity"), "fewer than two samples"))
        return report
    cont = time_continuity_moduli(trajectory, model, delta)
    report.wasserstein_worst_slack = cont.wasserstein_worst_slack
    report.l1_worst_slack = cont.l1_worst_slack
    report.record("wasserstein_time_continuity", None, cont.wasserstein_worst_slack, 0.0,
                  lower=True)
    if cont.l1_pairs:
        report.record("l1_time_continuity", None, cont.l1_worst_slack, 0.0, lower=True)
    else:
        report.skipped["l1_time_continuity"] = "no sample pair at or after delta"
    return report
