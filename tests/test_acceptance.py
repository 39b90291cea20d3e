"""End-to-end acceptance suite.

One full sweep (every built-in scenario x three velocity laws x dyadic
particle counts up to 1024, horizon 1.0) is integrated once per session;
every quantitative guarantee is then checked at its stated tolerance.
Each criterion prints its own PASS/FAIL line (run with -s to see them).
"""

from dataclasses import dataclass

import numpy as np
import pytest

from conftest import random_measure
from ftl1d import (
    Greenshields,
    IntegratorSettings,
    ParticleConfiguration,
    PipesMunjal,
    Underwood,
    atomize,
    bv_constant,
    check_density,
    empirical,
    entropy_K_terms,
    hat_density,
    integrate,
    l1_distance,
    lagrangian_l1,
    min_gap_ratio,
    oleinik_residual,
    riemann_l1_error,
    riemann_solve,
    scenario,
    velocity_total_variation,
    total_variation,
    wasserstein,
    wasserstein_via_quantiles,
)
from ftl1d.reference import godunov

SCENARIOS = ("box", "double_hump", "riemann_like", "sawtooth_bv")
MODELS = (
    ("greenshields", Greenshields(1.0)),
    ("pipes_munjal_a2", PipesMunjal(1.0, 2.0)),
    ("underwood", Underwood(1.0)),
)
COUNTS = (8, 16, 32, 64, 128, 256, 512, 1024)
T_END = 1.0
SAMPLE_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
DELTA = 0.25
SETTINGS = IntegratorSettings()   # defaults: fixed RK4, abs_tol 1e-8


@dataclass(frozen=True)
class SweepRun:
    scenario: str
    model_name: str
    model: object
    datum: object
    trajectory: object


@pytest.fixture(scope="module")
def sweep():
    runs = []
    for name in SCENARIOS:
        datum = scenario(name)
        for model_name, model in MODELS:
            for n in COUNTS:
                config0 = atomize(datum, n)
                trajectory = integrate(config0, model, T_END, SETTINGS, SAMPLE_TIMES)
                runs.append(SweepRun(name, model_name, model, datum, trajectory))
    return runs


def verdict(num: int, ok: bool, description: str, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_leader_law(sweep):
    tol = 10.0 * SETTINGS.abs_tol
    worst = 0.0
    for run in sweep:
        x_max = run.datum.support_max
        v_max = run.model.v_max
        for state in run.trajectory.states:
            err = abs(state.positions[-1] - (x_max + v_max * state.time))
            worst = max(worst, err)
    verdict(1, worst <= tol, "leader path is exactly ballistic",
            f"worst deviation {worst:.3e} <= {tol:.1e}")


def test_criterion_02_discrete_maximum_principle(sweep):
    worst = np.inf
    for run in sweep:
        for state in run.trajectory.states:
            worst = min(worst, min_gap_ratio(state, run.datum.sup_norm))
    verdict(2, worst >= 1.0 - 1e-6, "gaps never drop below mass/sup-norm",
            f"worst ratio {worst:.12f}")


def test_criterion_03_discrete_oleinik(sweep):
    worst = -np.inf
    worst_leader = -np.inf
    for run in sweep:
        for state in run.trajectory.states:
            res = oleinik_residual(state, run.model)
            worst = max(worst, res.max_interior / state.particle_mass)
            worst_leader = max(worst_leader, res.leader / state.particle_mass)
    ok = worst <= 1.0 + 1e-6 and worst_leader <= 1.0 + 1e-6
    verdict(3, ok, "one-sided residuals stay below the particle mass",
            f"worst interior {worst:.6f}, worst leader {worst_leader:.6f}")


def test_criterion_03b_oleinik_velocity_jump_form(sweep):
    # equivalent restatement through the gaps, asserted independently
    worst = -np.inf
    for run in sweep:
        for state in run.trajectory.states:
            if state.time == 0.0:
                continue
            v = run.model.value(state.densities())
            gaps = state.gaps()
            slack = gaps[:-1] / state.time + 1e-8 - (v[1:] - v[:-1])
            worst = max(worst, float(np.max(-slack)))
    verdict(3, worst <= 0.0, "velocity jumps bounded by gap over time",
            f"worst excess {worst:.3e}")


def test_criterion_04_tv_contractivity(sweep):
    worst_excess = -np.inf
    worst_growth = -np.inf
    for run in sweep:
        if run.scenario not in ("sawtooth_bv", "riemann_like"):
            continue
        tv0 = total_variation(run.datum)
        prev = None
        for state in run.trajectory.states:
            tv = total_variation(hat_density(state))
            worst_excess = max(worst_excess, tv - tv0)
            if prev is not None:
                worst_growth = max(worst_growth, tv - prev)
            prev = tv
    ok = worst_excess <= 1e-8 and worst_growth <= 1e-8
    verdict(4, ok, "total variation contracts for BV data",
            f"max excess {worst_excess:.3e}, max growth {worst_growth:.3e}")


def test_criterion_05_velocity_bv_bound(sweep):
    worst_margin = np.inf
    for run in sweep:
        span = run.datum.support_max - run.datum.support_min
        c_delta = bv_constant(run.model, run.datum.sup_norm, span, DELTA)
        for state in run.trajectory.states:
            if state.time < DELTA:
                continue
            tv = velocity_total_variation(state, run.model)
            worst_margin = min(worst_margin, c_delta + 1e-6 - tv)
    verdict(5, worst_margin >= 0.0, "velocity-profile TV below its constant",
            f"smallest margin {worst_margin:.4f}")


def test_criterion_06_initial_consistency():
    worst = -np.inf
    for name in SCENARIOS:
        datum = scenario(name)
        span = datum.support_max - datum.support_min
        for n in COUNTS:
            config0 = atomize(datum, n)
            bound = config0.particle_mass * span + 1e-10
            d_atoms = wasserstein(empirical(config0), datum)
            d_recon = wasserstein(empirical(config0), hat_density(config0))
            worst = max(worst, d_atoms - bound, d_recon - bound)
    verdict(6, worst <= 0.0, "initial atoms within mass*span of the datum",
            f"worst slack violation {worst:.3e}")


def test_criterion_07_interleaving_identity(sweep):
    worst = 0.0
    for run in sweep:
        for state in run.trajectory.states:
            expected = 0.5 * state.particle_mass * (
                state.positions[-1] - state.positions[0])
            got = wasserstein(hat_density(state), empirical(state))
            worst = max(worst, abs(got - expected) / expected)
    verdict(7, worst <= 1e-12, "cell/atom distance equals half mass times spread",
            f"worst relative error {worst:.3e}")


def test_criterion_08_wasserstein_duality():
    rng = np.random.default_rng(915251)
    worst = 0.0
    for _ in range(200):
        m1 = random_measure(rng)
        m2 = random_measure(rng)
        worst = max(worst, abs(wasserstein(m1, m2) - wasserstein_via_quantiles(m1, m2)))
    verdict(8, worst <= 1e-10, "CDF-side and quantile-side distances agree",
            f"worst gap {worst:.3e} on 200 random pairs")


def test_criterion_09_two_particle_closed_form():
    config0 = ParticleConfiguration(0.0, 0.5, np.array([0.0, 1.0]))
    tr = integrate(config0, Greenshields(1.0), 3.0, SETTINGS, [3.0])
    follower = tr.states[-1].positions[0]
    err = abs(follower - 2.0)
    verdict(9, err <= 1e-6, "two-particle follower lands at 4 - sqrt(4)",
            f"|x0(3) - 2| = {err:.3e}")


def test_criterion_10_convergence_to_entropy_solution():
    model = Greenshields(1.0)
    datum = scenario("riemann_like")
    sol = riemann_solve(model, float(datum.values[0]), float(datum.values[1]))
    t_end = 0.5
    window = (datum.support_min + model.v_max * t_end,
              datum.support_max - model.v_max * t_end)
    errors = []
    for n in (16, 32, 64, 128, 256, 512, 1024):
        config0 = atomize(datum, n)
        tr = integrate(config0, model, t_end, SETTINGS, [t_end])
        hat = hat_density(tr.states[-1])
        errors.append(riemann_l1_error(hat, sol, model, t_end, window))
    monotone = all(a > b for a, b in zip(errors[:-1], errors[1:]))
    order = float(np.log2(errors[-2] / errors[-1]))
    small = errors[-1] < 0.02 * datum.total_mass
    ok = monotone and order >= 0.5 and small
    verdict(10, ok, "errors against the exact rarefaction shrink with order >= 0.5",
            f"errors {['%.4f' % e for e in errors]}, last order {order:.2f}")


def test_criterion_11_cross_oracle_agreement():
    model = Greenshields(1.0)
    datum = scenario("double_hump")
    t_end = 0.5
    span = datum.support_max - datum.support_min
    reference_density = godunov(datum, model, dx=span / 4096.0, cfl=0.5, t_end=t_end)
    config0 = atomize(datum, 1024)
    tr = integrate(config0, model, t_end, SETTINGS, [t_end])
    err = l1_distance(hat_density(tr.states[-1]), reference_density)
    bound = 0.05 * datum.total_mass
    verdict(11, err <= bound, "particle and finite-volume solutions agree",
            f"L1 distance {err:.4f} <= {bound:.4f}")


def test_criterion_12_entropy_terms_nonnegative(sweep):
    worst = np.inf
    for run in sweep:
        k_grid = np.linspace(0.0, 1.2 * run.datum.sup_norm, 50)
        for state in run.trajectory.states:
            for k in k_grid:
                worst = min(worst, float(np.min(entropy_K_terms(state, run.model, k))))
    verdict(12, worst >= -1e-12, "entropy production terms are nonnegative",
            f"smallest term {worst:.3e}")


def test_criterion_13_time_continuity(sweep):
    worst_w = np.inf
    worst_l1 = np.inf
    for run in sweep:
        states = run.trajectory.states
        init = states[0]
        r = init.max_density()
        span = float(init.positions[-1] - init.positions[0])
        v_r = run.model.value(r)
        w_rate = 2.0 * init.total_mass * max(abs(run.model.v_max), abs(v_r),
                                             run.model.v_max - v_r)
        l1_rate = r * r * (bv_constant(run.model, r, span, DELTA)
                           + run.model.v_max - v_r)
        hats = [hat_density(s) for s in states]
        checks = [check_density(s) for s in states]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                gap = states[j].time - states[i].time
                worst_w = min(worst_w, w_rate * gap - wasserstein(hats[i], hats[j]))
                if states[i].time >= DELTA:
                    worst_l1 = min(worst_l1,
                                   l1_rate * gap - lagrangian_l1(checks[i], checks[j]))
    ok = worst_w >= 0.0 and worst_l1 >= 0.0
    verdict(13, ok, "both time-continuity moduli hold with nonnegative slack",
            f"worst slacks {worst_w:.4f} (transport), {worst_l1:.4f} (mass-space L1)")
