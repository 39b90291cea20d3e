"""Certification of the discrete estimates satisfied by the particle flow.

A run makes eight checks, each a quantitative bound that the exact particle
dynamics provably satisfies: the gap floor (discrete maximum principle), the
two one-sided Oleinik-type residuals, total-variation contractivity and
monotonicity, the velocity-profile BV bound with its explicit constant, and
the two time-continuity moduli.  Checks run on integrator output, so each
carries a small tolerance absorbing integration error.  A check whose bound
does not apply to a run is skipped, and the report says why.  The sign of
the entropy terms (``entropy_K_terms``) is a property of the law, so it
tests the law, not the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import measures
from .dynamics import Trajectory
from .initial_data import ParticleConfiguration, PiecewiseConstantDensity
from .velocity import VelocityModel, check_assumptions

GAP_RATIO_TOL = 1e-6
OLEINIK_REL_TOL = 1e-6
TV_CONTRACT_TOL = 1e-8
VELOCITY_TV_TOL = 1e-6


def _oleinik(t, y, v, v_max):
    """Interior and leader residuals along the last axis, one time ``t`` per
    row, of densities ``y`` (overwritten by t * y) with speeds ``v``."""
    leader = t * y[..., -1] * (v_max - v[..., -1])
    np.multiply(np.expand_dims(t, -1), y[..., :-1], out=y[..., :-1])
    interior = np.diff(v)
    return np.multiply(interior, y[..., :-1], out=interior), leader


def total_variation(density: PiecewiseConstantDensity) -> float:
    """TV of a piecewise-constant density, edge jumps to vacuum included."""
    return float(_tv(density.values, 0.0))


def _tv(w, outside: float):
    """TV along the last axis of a profile that is ``outside`` past both ends."""
    d = np.diff(w)
    return abs(outside - w[..., 0]) + abs(outside - w[..., -1]) + np.sum(np.abs(d, out=d), axis=-1)


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
    return k * (model.value(k) - v_y[1:]) * (np.sign(y[1:] - k) - np.sign(y[:-1] - k))


@dataclass(frozen=True)
class TimeContinuityReport:
    """Worst slack of the two time-continuity moduli over consecutive sample pairs."""

    wasserstein_rate: float
    l1_rate: float
    wasserstein_worst_slack: float
    l1_worst_slack: float
    wasserstein_pairs: int
    l1_pairs: int


def time_continuity_moduli(trajectory: Trajectory, model: VelocityModel,
                           delta: float) -> TimeContinuityReport:
    """Check both time-continuity moduli on consecutive sample pairs.

    The transport metric between the cell reconstructions is Lipschitz with
    rate 2L*max(|v_max|, |v(R)|, v_max - v(R)) for all times; the mass-space
    L1 distance between the same cell densities is Lipschitz with rate
    R^2*(C_delta + v_max - v(R)) for times >= delta.  R and the support span
    are taken from the initial state.  Both bound a metric, so by the
    triangle inequality the consecutive pairs imply every pair: the verdict
    is that of all pairs, and so is the worst slack when it is nonnegative
    (up to rounding).  A failing run reports its worst consecutive slack.

    Every state of one trajectory is a cell density on the same mass grid,
    so each consecutive distance is read in closed form on the mass cells,
    for all pairs at once; ``lagrangian_wasserstein`` and ``lagrangian_l1``
    in ``tests/oracles.py`` read it for one pair.
    """
    states = trajectory.states
    if len(states) < 2:
        raise ValueError("need at least two samples")
    y, _, shifts = _stack(states)
    init = states[0]
    r = init.max_density()
    span = float(init.positions[-1] - init.positions[0])
    v_r = model.value(r)
    w_rate = 2.0 * init.total_mass * max(abs(model.v_max), abs(v_r), model.v_max - v_r)
    l1_rate = r * r * (bv_constant(model, r, span, delta) + model.v_max - v_r)

    mass = init.particle_mass
    times = np.array([state.time for state in states])
    dt = times[1:] - times[:-1]
    w_slack = w_rate * dt - measures.segment_l1(shifts[:, :-1], shifts[:, 1:], mass)
    dy = np.subtract(y[:-1, :-1], y[1:, :-1])
    l1_slack = (l1_rate * dt - mass * np.sum(np.abs(dy, out=dy), axis=1))[times[:-1] >= delta]
    return TimeContinuityReport(
        wasserstein_rate=w_rate, l1_rate=l1_rate,
        wasserstein_worst_slack=float(np.min(w_slack)),
        l1_worst_slack=float(np.min(l1_slack)) if l1_slack.size else 0.0,
        wasserstein_pairs=int(w_slack.size), l1_pairs=int(l1_slack.size))


def _stack(states):
    """The cell densities of states of one particle mass, the vacuum past the
    leader appended, as one (S, N+1) array; each state's smallest gap; and
    the (S-1, N+1) shifts of the positions between consecutive states."""
    mass = states[0].particle_mass
    if any(state.particle_mass != mass for state in states):
        raise ValueError("the states must carry one particle mass")
    x = np.array([state.positions for state in states])
    y = np.empty(x.shape)
    gaps = np.subtract(x[:, 1:], x[:, :-1], out=y[:, :-1])
    low = np.min(gaps, axis=1)
    np.divide(mass, gaps, out=gaps)
    y[:, -1] = 0.0
    return y, low, x[:-1] - x[1:]


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
    c_delta: float = float("nan")
    delta: float = float("nan")
    tv_initial_datum: float = float("nan")
    wasserstein_worst_slack: float | None = None
    l1_worst_slack: float | None = None
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def run_diagnostics(trajectory: Trajectory, model: VelocityModel,
                    datum: PiecewiseConstantDensity, delta: float) -> DiagnosticsReport:
    """Run the eight checks on a trajectory; record its violations and skips.

    The states are read as one (S, N+1) array of cell densities, the vacuum
    past the leader appended, and one array of their speeds: each check
    reduces their rows, and at most three such arrays are held at once.  The
    entropy-term sign is a property of the law, so it tests the law, not the
    run: ``integrate`` refuses a law that does not decrease on the run's
    densities, and acceptance criterion 12 checks ``entropy_K_terms`` on
    every state of the sweep.
    """
    span = datum.support_max - datum.support_min
    report = DiagnosticsReport(c_delta=bv_constant(model, datum.sup_norm, span, delta),
                               delta=delta, tv_initial_datum=total_variation(datum))

    oleinik_ok = check_assumptions(model, datum.sup_norm).weighted_slope_non_increasing
    if not oleinik_ok:
        report.skipped.update(dict.fromkeys(
            ("oleinik_interior", "oleinik_leader"),
            "velocity law fails the weighted-slope condition on [0, sup_norm]"))
    states = trajectory.states
    cont = time_continuity_moduli(trajectory, model, delta) if len(states) > 1 else None
    y, low = _stack(states)[:2]   # drop the shifts: at most three (S, N+1) arrays at once
    v = model.value(y)
    mass = states[0].particle_mass
    report.times = [state.time for state in states]
    report.min_gap_ratios = (low / (mass / datum.sup_norm)).tolist()
    report.tv_hat = _tv(y[:, :-1], 0.0).tolist()
    report.tv_velocity = _tv(v[:, :-1], model.v_max).tolist()
    # last, as it overwrites the densities
    interior, leader = _oleinik(np.array(report.times), y[:, :-1], v[:, :-1], model.v_max)
    report.oleinik_interior_max = (np.max(interior, axis=1) if interior.shape[1]
                                   else np.zeros(len(states))).tolist()
    report.oleinik_leader = leader.tolist()

    bound = mass * (1.0 + OLEINIK_REL_TOL)
    prev_tv = np.inf
    for t, ratio, inner, lead, tv, tvv in zip(
            report.times, report.min_gap_ratios, report.oleinik_interior_max,
            report.oleinik_leader, report.tv_hat, report.tv_velocity):
        report.record("min_gap_ratio", t, ratio, 1.0 - GAP_RATIO_TOL, lower=True)
        if oleinik_ok:
            report.record("oleinik_interior", t, inner, bound)
            report.record("oleinik_leader", t, lead, bound)
        report.record("tv_contractivity", t, tv, report.tv_initial_datum + TV_CONTRACT_TOL)
        report.record("tv_monotone", t, tv, prev_tv + TV_CONTRACT_TOL)
        prev_tv = tv
        if t >= delta:
            report.record("tv_velocity", t, tvv, report.c_delta + VELOCITY_TV_TOL)
    if not any(t >= delta for t in report.times):
        report.skipped["tv_velocity"] = "no sample at or after delta"

    if cont is None:
        report.skipped.update(dict.fromkeys(
            ("wasserstein_time_continuity", "l1_time_continuity"), "fewer than two samples"))
        return report
    report.wasserstein_worst_slack = cont.wasserstein_worst_slack
    report.l1_worst_slack = cont.l1_worst_slack
    report.record("wasserstein_time_continuity", None, cont.wasserstein_worst_slack, 0.0,
                  lower=True)
    if cont.l1_pairs:
        report.record("l1_time_continuity", None, cont.l1_worst_slack, 0.0, lower=True)
    else:
        report.skipped["l1_time_continuity"] = "no sample pair at or after delta"
    return report
