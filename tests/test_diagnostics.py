import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import particle_states
from ftl1d import (
    Greenshields,
    ModifiedGreenberg,
    ParticleConfiguration,
    PipesMunjal,
    TabulatedVelocity,
    Underwood,
    atomize,
    bv_constant,
    check_assumptions,
    entropy_K_terms,
    from_piecewise,
    hat_density,
    integrate,
    run_diagnostics,
    scenario,
    time_continuity_moduli,
    total_variation,
    wasserstein,
)
from ftl1d import diagnostics
from ftl1d.dynamics import Trajectory
from oracles import (
    CustomVelocity,
    OleinikResidual,
    hat_total_variation,
    lagrangian_l1,
    lagrangian_wasserstein,
    min_gap_ratio,
    oleinik_residual,
    velocity_total_variation,
)

CHECKS = {"min_gap_ratio", "oleinik_interior", "oleinik_leader", "tv_contractivity",
          "tv_monotone", "tv_velocity", "wasserstein_time_continuity", "l1_time_continuity"}


def config(positions, mass=0.5, time=0.0):
    return ParticleConfiguration(time, mass, np.asarray(positions, float))


def test_min_gap_ratio_uniform_box_is_one():
    c = atomize(scenario("box"), 16)
    assert min_gap_ratio(c, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_min_gap_ratio_two_particle_closed_form():
    # gap grows from 1 to sqrt(1+3) = 2 while the floor is mass/R = 1
    tr = integrate(config([0.0, 1.0]), Greenshields(1.0), 3.0, None, [3.0])
    state = tr.states[-1]
    assert min_gap_ratio(state, 0.5) == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        min_gap_ratio(state, 0.0)


def test_oleinik_zero_at_time_zero():
    c = atomize(scenario("sawtooth_bv"), 16)
    res = oleinik_residual(c, Greenshields(1.0))
    assert res.max_interior == 0.0
    assert res.leader == 0.0
    assert res.interior.size == c.n_cells - 1


def test_oleinik_two_particle_closed_form():
    # density obeys y(t) = y0 / sqrt(1 + 2*v_max*y0^2*t/m), so y(3) = 0.25
    # and the residual t*y*(v_max - v(y)) = t*v_max*y^2 = 3 * 1 * 0.0625
    tr = integrate(config([0.0, 1.0]), Greenshields(1.0), 3.0, None, [3.0])
    res = oleinik_residual(tr.states[-1], Greenshields(1.0))
    assert res.interior.size == 0
    assert res.leader == pytest.approx(0.1875, abs=1e-6)
    assert res.leader <= tr.states[-1].particle_mass


def test_oleinik_equal_gaps_vanish_inside():
    c = config([0.0, 0.5, 1.0, 1.5], time=2.0)
    res = oleinik_residual(c, Greenshields(1.0))
    np.testing.assert_allclose(res.interior, 0.0, atol=0)
    assert res.leader > 0.0


def test_oleinik_skipped_when_slope_condition_fails():
    # Underwood violates the weighted-slope condition above density 1; the
    # residual then exceeds the particle mass, which is no violation
    datum = scenario("box", height=2.0, width=0.5)
    model = Underwood(1.0)
    tr = integrate(atomize(datum, 64), model, 1.0, None, [0.0, 0.25, 0.5, 1.0])
    report = run_diagnostics(tr, model, datum, 0.25)
    assert max(report.oleinik_interior_max) > tr.states[0].particle_mass
    assert report.passed
    assert sorted(report.skipped) == ["oleinik_interior", "oleinik_leader"]
    assert "weighted-slope" in report.skipped["oleinik_interior"]


def test_total_variation_examples():
    def cells(values):
        return from_piecewise(np.arange(len(values) + 1.0), values)

    assert total_variation(cells([0.5])) == 1.0
    assert total_variation(cells([1.0, 1.0 / 3.0])) == pytest.approx(2.0, abs=1e-15)
    assert total_variation(cells([1.0, 0.5, 0.25])) == 2.0
    assert total_variation(scenario("sawtooth_bv")) == 2.0


def test_atomization_does_not_increase_variation():
    for name in ("box", "double_hump", "riemann_like", "sawtooth_bv"):
        datum = scenario(name)
        for n in (8, 16, 64):
            c = atomize(datum, n)
            assert total_variation(hat_density(c)) <= total_variation(datum) + 1e-12


def test_bv_constant_example():
    assert bv_constant(Greenshields(1.0), 1.0, 1.0, 0.5) == pytest.approx(7.0)


def test_velocity_tv_uniform_state():
    c = atomize(scenario("box", height=0.5, width=2.0), 8)
    model = Greenshields(1.0)
    expected = 2.0 * (model.v_max - model.value(0.5))
    assert velocity_total_variation(c, model) == pytest.approx(expected, abs=1e-12)


def test_bv_velocity_bound_on_trajectory():
    datum = scenario("riemann_like")
    c = atomize(datum, 64)
    model = Greenshields(1.0)
    tr = integrate(c, model, 1.0, None, [0.0, 0.25, 0.5, 1.0])
    report = run_diagnostics(tr, model, datum, 0.25)
    assert report.c_delta == pytest.approx(
        3.0 * (1.0 - model.value(0.8)) + 2.0 * 2.0 / 0.25)
    assert "tv_velocity" not in {v.check for v in report.violations}
    assert report.to_dict()["skipped"] == {}  # three samples at/after delta
    with pytest.raises(ValueError):
        run_diagnostics(tr, model, datum, 0.0)


def test_entropy_terms_zero_level():
    c = atomize(scenario("sawtooth_bv"), 8)
    np.testing.assert_array_equal(entropy_K_terms(c, Greenshields(1.0), 0.0), 0.0)


def test_entropy_terms_level_between_cells():
    # densities (0.8, 0.2): the level 0.5 separates them
    c = config([0.0, 0.5, 2.5], mass=0.4)
    K = entropy_K_terms(c, Greenshields(1.0), 0.5)
    assert K.size == 2
    assert K[0] == pytest.approx(0.3, abs=1e-15)
    assert K[1] == 0.0


def test_entropy_terms_level_below_everything():
    c = config([0.0, 0.5, 2.5], mass=0.4)
    K = entropy_K_terms(c, Greenshields(1.0), 0.1)
    assert K[0] == 0.0       # level below both neighbouring densities
    assert K[1] >= 0.0       # leader cell sees vacuum on the right
    with pytest.raises(ValueError):
        entropy_K_terms(c, Greenshields(1.0), -0.5)


@pytest.mark.parametrize("model", [Greenshields(1.0), PipesMunjal(1.0, 0.5), Underwood(1.0),
                                   ModifiedGreenberg(1.0, 0.1)])
def test_entropy_terms_of_level_array_are_per_level_rows(model):
    datum = scenario("sawtooth_bv")
    state = integrate(atomize(datum, 48), model, 0.5, None, [0.5]).states[-1]
    levels = np.linspace(0.0, 1.2 * datum.sup_norm, 50)
    K = entropy_K_terms(state, model, levels)
    assert K.shape == (50, 48)
    for row, k in zip(K, levels):
        np.testing.assert_array_equal(row, entropy_K_terms(state, model, k))
    with pytest.raises(ValueError):
        entropy_K_terms(state, model, np.array([0.5, -0.5]))


# decreasing on [0, 3], past 1.2 times every density R drawn below
_TABLE = TabulatedVelocity(np.array([0.0, 0.5, 1.0, 3.0]), np.array([1.0, 0.6, 0.3, 0.0]))


@settings(deadline=None, max_examples=200)
@given(state=particle_states(), top=st.floats(0.05, 2.0), fill=st.floats(0.1, 1.0),
       model=st.sampled_from([Greenshields(1.0), PipesMunjal(1.0, 2.0), Underwood(1.0),
                              ModifiedGreenberg(1.0, 0.1), _TABLE]),
       fractions=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=50))
def test_entropy_terms_nonnegative_on_levels_grid(state, top, fill, model, fractions):
    # the entropy-term sign is a property of the law: a term compares v at
    # two densities of one jump, all of them at most R, where integrate
    # requires the law to decrease; levels reach 1.2 R, as a config's law must
    state = ParticleConfiguration(0.0, state.particle_mass * fill * top / state.max_density(),
                                  state.positions)
    assert check_assumptions(model, top).v_strictly_decreasing
    levels = top * np.array(fractions)
    assert np.min(entropy_K_terms(state, model, levels)) >= -1e-12    # criterion 12's bound
    # a run no longer evaluates the terms: its names are the eight checks
    report = run_diagnostics(Trajectory((state,), {}), model, from_piecewise([0.0, 1.0], [top]),
                             0.25)
    assert {v.check for v in report.violations} | set(report.skipped) <= CHECKS
    assert len(CHECKS) == 8 and "entropy_min" not in report.to_dict()


def test_integrate_refuses_the_law_whose_entropy_terms_go_negative():
    # _BUMPY increases on (5/6, 1], where one of its entropy terms is
    # negative; integrate refuses it before the first step
    state = _trajectory([(0.0, [0.4] * 3 + [0.95] + [0.4] * 4)]).states[0]
    assert np.min(entropy_K_terms(state, _BUMPY, 0.9)) < -1e-12
    assert not check_assumptions(_BUMPY, 1.0).v_strictly_decreasing
    with pytest.raises(ValueError, match="increases, or is flat"):
        integrate(atomize(_DATUM, 8), _BUMPY, 0.5)


def test_time_continuity_trivial_pair():
    model = Greenshields(1.0)
    tr = integrate(atomize(scenario("box"), 16), model, 1.0, None, [0.1, 1.0])
    report = time_continuity_moduli(tr, model, 0.1)
    # the run records t = 0 too: pairs (0, 0.1) and (0.1, 1), the second after delta
    assert report.wasserstein_pairs == 2
    assert report.l1_pairs == 1
    assert report.wasserstein_worst_slack >= 0.0
    assert report.l1_worst_slack >= 0.0


def test_time_continuity_two_particle_closed_form():
    model = Greenshields(1.0)
    tr = integrate(config([0.0, 1.0]), model, 1.1, None, [0.1, 0.6, 1.1])
    report = time_continuity_moduli(tr, model, 0.1)
    assert report.wasserstein_worst_slack >= 0.0
    assert report.l1_worst_slack >= 0.0
    with pytest.raises(ValueError):
        time_continuity_moduli(
            integrate(config([0.0, 1.0]), model, 0.0), model, 0.1)
    mixed = Trajectory((config([0.0, 1.0]), config([0.0, 1.0], mass=0.25, time=0.5)))
    with pytest.raises(ValueError, match="^the states must carry one particle mass$"):
        time_continuity_moduli(mixed, model, 0.1)


@pytest.mark.parametrize("name, model, rate", [
    ("box", Greenshields(1.0), 12.0),
    ("double_hump", PipesMunjal(1.0, 2.0), 20.0),
])
def test_time_continuity_rates_do_not_depend_on_the_samples(name, model, rate):
    # the rates read R and the span from t = 0, which every run records:
    # samples from 0.5 on give the rates of the same run sampled from 0
    c0 = atomize(scenario(name), 256)
    late, full = (time_continuity_moduli(integrate(c0, model, 1.0, None, samples), model, 0.25)
                  for samples in ([0.5, 0.75, 1.0], [0.0, 0.5, 0.75, 1.0]))
    assert late.wasserstein_rate == full.wasserstein_rate
    assert late.l1_rate == full.l1_rate == rate


def test_oleinik_velocity_jump_form():
    # equivalent restatement of the residual bound through the gap:
    # v(y_{i+1}) - v(y_i) <= gap_i / t once t > 0
    model = Greenshields(1.0)
    tr = integrate(atomize(scenario("riemann_like"), 128), model, 1.0,
                   None, [0.25, 1.0])
    assert tr.states[0].time == 0.0
    for state in tr.states[1:]:
        y = state.densities()
        v = model.value(y)
        gaps = state.gaps()
        assert np.all(v[1:] - v[:-1] <= gaps[:-1] / state.time + 1e-8)


def test_run_diagnostics_clean_run():
    datum = scenario("riemann_like")
    model = Greenshields(1.0)
    tr = integrate(atomize(datum, 64), model, 1.0, None, [0.0, 0.25, 0.5, 1.0])
    report = run_diagnostics(tr, model, datum, 0.25)
    assert report.passed
    assert report.violations == []
    assert len(report.times) == 4
    payload = report.to_dict()
    assert payload["passed"] is True
    assert payload["c_delta"] == report.c_delta
    assert report.to_json().startswith("{")


def test_run_diagnostics_flags_planted_violation():
    # stitch together a fake trajectory whose second state has a huge TV
    datum = scenario("box")
    model = Greenshields(1.0)
    c0 = atomize(datum, 8)
    bad = ParticleConfiguration(
        0.5, c0.particle_mass,
        np.concatenate((c0.positions[:-1], [c0.positions[-1] + 3.0])))
    tr = Trajectory((c0, bad), {})
    report = run_diagnostics(tr, model, datum, 0.25)
    assert not report.passed
    checks = {v.check for v in report.violations}
    # stretching the leader cell puts its one-sided residual far above the
    # particle mass
    assert "oleinik_interior" in checks


def test_run_diagnostics_flags_planted_transport_jump():
    # the second state is the first moved by +10 after 0.01: far more
    # transport than the Lipschitz rate allows
    datum = scenario("box")
    model = Greenshields(1.0)
    c0 = atomize(datum, 8)
    moved = ParticleConfiguration(0.01, c0.particle_mass, c0.positions + 10.0)
    tr = Trajectory((c0, moved), {})
    report = run_diagnostics(tr, model, datum, 0.25)
    assert "wasserstein_time_continuity" in {v.check for v in report.violations}


def _trajectory(samples, cell_mass=0.25):
    """Hand-built trajectory from (time, cell densities[, left end]) samples."""
    states = []
    for t, densities, *left in samples:
        gaps = cell_mass / np.asarray(densities, dtype=float)
        positions = (left[0] if left else 0.0) + np.concatenate(([0.0], np.cumsum(gaps)))
        states.append(ParticleConfiguration(t, cell_mass, positions))
    return Trajectory(tuple(states), {})


def _steady(densities, times=(0.0, 0.5, 1.0)):
    return [(t, densities) for t in times]


# The datum only sets the bounds: R = 1, TV = 4 and a support span of 0.03,
# so C_delta = 3 * (v_max - v(R)) + 2 * span / delta = 3.12 at delta = 0.5.
# States carry 8 cells of mass m = 0.25; the Oleinik bound is m.
_DATUM = scenario("double_hump", hump_width=0.01, gap=0.01)
_LOW = [0.4] * 8
# v = 1 - rho + 0.6 rho^2 increases on (5/6, 1]; every increasing law fails
# the weighted-slope condition, so its Oleinik checks are skipped
_BUMPY = CustomVelocity(v_func=lambda r: 1.0 - np.asarray(r) + 0.6 * np.asarray(r) ** 2,
                        v_max=1.0)
# alternating cells of density 0.9 and 1, then the same cells partly permuted
_PAIRS = [0.9, 1.0] * 3 + [0.9, 0.6]
_PERMUTED = [0.9, 0.9] + [1.0, 0.9] * 2 + [1.0, 0.6]

# check: (model, clean twin, planted samples, (time, value, bound) of the
# first violation)
PLANTS = {
    # two cells of density 1.2 > R at t = 0, where every Oleinik residual is 0
    "min_gap_ratio": (Greenshields(1.0), _steady(_LOW),
                      [(0.0, [0.4, 1.2, 1.2] + [0.4] * 5)] + _steady(_LOW, (0.5, 1.0)),
                      (0.0, 1.0 / 1.2, 1.0 - diagnostics.GAP_RATIO_TOL)),
    # t * 0.9 * (v(0.4) - v(0.9)) is 0.225 at t = 0.5 and 0.45 at t = 1
    "oleinik_interior": (Greenshields(1.0), _steady(_LOW), _steady([0.4] * 6 + [0.9, 0.4]),
                         (1.0, 0.45, 0.25 * (1.0 + diagnostics.OLEINIK_REL_TOL))),
    # t * 0.6 * (v_max - v(0.6)) is 0.18 at t = 0.5 and 0.36 at t = 1
    "oleinik_leader": (Greenshields(1.0), _steady(_LOW), _steady([0.4] * 7 + [0.6]),
                       (1.0, 0.36, 0.25 * (1.0 + diagnostics.OLEINIK_REL_TOL))),
    # TV 4.4 above the datum's 4, at t = 0 where the Oleinik residuals vanish
    "tv_contractivity": (Greenshields(1.0), _steady(_LOW),
                         [(0.0, [0.4] + [0.9, 0.3] * 3 + [0.4])] + _steady(_LOW, (0.5, 1.0)),
                         (0.0, 4.4, 4.0 + diagnostics.TV_CONTRACT_TOL)),
    # TV grows from 0.8 to 1.2 between the first two samples
    "tv_monotone": (Greenshields(1.0), _steady(_LOW),
                    [(0.0, _LOW)] + _steady([0.4, 0.6] + [0.4] * 6, (0.5, 1.0)),
                    (0.5, 1.2, 0.8 + diagnostics.TV_CONTRACT_TOL)),
    # the velocity profile varies by 3.8 at t = delta; later it is flat again
    "tv_velocity": (Greenshields(1.0), _steady(_LOW),
                    _steady([0.4] + [0.7, 0.2] * 3 + [0.4], (0.0, 0.5)) + [(1.0, _LOW)],
                    (0.5, 3.8, 3.12 + diagnostics.VELOCITY_TV_TOL)),
    # the mass 2 moves by 5 in 0.5 time units; the rate 4 allows a distance 2
    "wasserstein_time_continuity": (Greenshields(1.0), _steady(_LOW),
                                    _steady(_LOW, (0.0, 0.5)) + [(1.0, _LOW, 5.0)],
                                    (None, -8.0, 0.0)),
    # L1 = 0.25 * 6 * 0.1 = 0.15 in 0.01 time units, against the rate
    # R^2 * (4 * (v_max - v(R)) + 2 * span / delta) with R = 1 and the first
    # state's span; the particles move by at most 0.028
    "l1_time_continuity": (Greenshields(1.0), _steady(_PAIRS, (0.0, 0.5, 0.51)),
                           _steady(_PAIRS, (0.0, 0.5)) + [(0.51, _PERMUTED)],
                           (None, 0.01 * (4.0 + 4.0 * 0.25 * (4 / 0.9 + 3 + 1 / 0.6)) - 0.15,
                            0.0)),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_run_diagnostics_flags_each_planted_check_alone(check):
    model, clean, planted, (time, value, bound) = PLANTS[check]
    clean_report = run_diagnostics(_trajectory(clean), model, _DATUM, 0.5)
    assert clean_report.passed
    report = run_diagnostics(_trajectory(planted), model, _DATUM, 0.5)
    assert {v.check for v in report.violations} == {check}
    first = report.violations[0]
    assert first.time == time
    assert first.value == pytest.approx(value, rel=1e-3)
    assert first.bound == pytest.approx(bound, rel=1e-12)
    assert report.skipped == clean_report.skipped


def test_oleinik_residual_type():
    res = OleinikResidual(np.array([0.1, -0.2]), 0.3)
    assert res.max_interior == pytest.approx(0.1)
    empty = OleinikResidual(np.array([]), 0.2)
    assert empty.max_interior == 0.0


def test_l1_time_continuity_skipped_without_pairs_after_delta():
    # the default samples [0, t_end] hold one sample at or after delta
    datum = scenario("riemann_like")
    model = Greenshields(1.0)
    tr = integrate(atomize(datum, 32), model, 1.0, None, [0.0, 1.0])
    report = run_diagnostics(tr, model, datum, 0.25)
    assert report.passed
    assert report.l1_worst_slack == 0.0
    assert report.skipped == {"l1_time_continuity": "no sample pair at or after delta"}


def test_tv_velocity_skipped_without_samples_after_delta():
    datum = scenario("riemann_like")
    model = Greenshields(1.0)
    tr = integrate(atomize(datum, 32), model, 0.2, None, [0.0, 0.1, 0.2])
    report = run_diagnostics(tr, model, datum, 0.25)
    assert report.skipped["tv_velocity"] == "no sample at or after delta"
    assert "l1_time_continuity" in report.skipped


def test_time_continuity_skipped_with_one_sample():
    # every run records t = 0, so only a run to t_end 0 has one sample
    datum = scenario("box")
    model = Greenshields(1.0)
    tr = integrate(atomize(datum, 16), model, 0.0, None, [0.0])
    assert len(tr.states) == 1
    report = run_diagnostics(tr, model, datum, 0.25)
    assert report.passed
    assert report.skipped == dict(dict.fromkeys(
        ("wasserstein_time_continuity", "l1_time_continuity"), "fewer than two samples"),
        tv_velocity="no sample at or after delta")
    assert report.wasserstein_worst_slack is None
    assert report.l1_worst_slack is None
    assert json.loads(report.to_json())["wasserstein_worst_slack"] is None


# widths and positive values of at least 0.25 keep the default RK4 step,
# which scales with the particle mass, above 1e-4
_CELL = st.tuples(st.floats(0.25, 1.0), st.one_of(st.just(0.0), st.floats(0.25, 1.5)))
_DATA = st.lists(_CELL, min_size=1, max_size=5).filter(
    lambda cells: any(v > 0.0 for _, v in cells))
_BUILTIN_LAWS = st.sampled_from([Greenshields(1.0), PipesMunjal(1.0, 2.0),
                                 Underwood(1.0), ModifiedGreenberg(1.0, 0.1)])


@settings(deadline=None, max_examples=15)
@given(cells=_DATA, model=_BUILTIN_LAWS, n=st.integers(2, 64))
def test_run_diagnostics_matches_standalone_helpers(cells, model, n):
    widths, values = zip(*cells)
    datum = from_piecewise(np.concatenate(([0.0], np.cumsum(widths))), values)
    tr = integrate(atomize(datum, n), model, 0.5, None, [0.0, 0.25, 0.375, 0.5])
    report = run_diagnostics(tr, model, datum, 0.25)
    for k, state in enumerate(tr.states):
        res = oleinik_residual(state, model)
        assert report.min_gap_ratios[k] == min_gap_ratio(state, datum.sup_norm)
        assert report.oleinik_interior_max[k] == res.max_interior
        assert report.oleinik_leader[k] == res.leader
        assert report.tv_hat[k] == hat_total_variation(state)
        assert report.tv_velocity[k] == velocity_total_variation(state, model)
    # the moduli are checked on consecutive pairs; compare with all pairs
    cont = time_continuity_moduli(tr, model, 0.25)
    worst_w = worst_l1 = np.inf
    for i, j in itertools.combinations(range(len(tr.states)), 2):
        a, b = tr.states[i], tr.states[j]
        worst_w = min(worst_w, cont.wasserstein_rate * (b.time - a.time)
                      - wasserstein(hat_density(a), hat_density(b)))
        if a.time >= 0.25:
            worst_l1 = min(worst_l1, cont.l1_rate * (b.time - a.time)
                           - lagrangian_l1(hat_density(a), hat_density(b)))
    for got, ref in ((report.wasserstein_worst_slack, worst_w),
                     (report.l1_worst_slack, worst_l1)):
        if got >= 0.0:
            assert got == pytest.approx(ref, rel=0.0, abs=1e-12)
        else:
            assert got >= ref
    failed = {v.check for v in report.violations}
    assert failed <= CHECKS
    assert set(report.skipped) <= CHECKS
    assert not failed & set(report.skipped)


def _wobbling_box(samples, n, seed):
    """A hand-built trajectory: the particles of a unit box moved by random
    shifts of both signs, so that consecutive states cross each other."""
    rng = np.random.default_rng(seed)
    x0 = atomize(scenario("box"), n).positions
    states = []
    for t in np.linspace(0.0, 1.0, samples).tolist():
        gaps = np.diff(x0) * rng.uniform(0.8, 1.25, size=n)
        left = rng.uniform(-0.01, 0.01)
        states.append(ParticleConfiguration(t, 1.0 / n, left + np.concatenate(([0.0],
                                                                             np.cumsum(gaps)))))
    return Trajectory(tuple(states), {})


@pytest.mark.parametrize("model", [Greenshields(1.0), PipesMunjal(1.0, 2.0), Underwood(1.0),
                                   ModifiedGreenberg(1.0, 0.1)])
def test_run_diagnostics_keeps_the_bits_of_its_helpers_on_long_odd_rows(model):
    # N = 300 cells: above numpy's pairwise-sum block of 128 and not a
    # multiple of 8, so a row reduction that summed in another order would
    # show; S = 11 samples
    tr = _wobbling_box(11, 300, seed=3)
    datum = scenario("box")
    report = run_diagnostics(tr, model, datum, 0.25)
    for k, state in enumerate(tr.states):
        res = oleinik_residual(state, model)
        assert report.min_gap_ratios[k] == min_gap_ratio(state, datum.sup_norm)
        assert report.oleinik_interior_max[k] == res.max_interior
        assert report.oleinik_leader[k] == res.leader
        assert report.tv_hat[k] == hat_total_variation(state)
        assert report.tv_velocity[k] == velocity_total_variation(state, model)
    cont = time_continuity_moduli(tr, model, 0.25)
    worst_w = worst_l1 = np.inf
    for a, b in itertools.pairwise(tr.states):
        hat_a, hat_b = hat_density(a), hat_density(b)
        worst_w = min(worst_w, cont.wasserstein_rate * (b.time - a.time)
                      - lagrangian_wasserstein(hat_a, hat_b))
        if a.time >= 0.25:
            worst_l1 = min(worst_l1, cont.l1_rate * (b.time - a.time)
                           - lagrangian_l1(hat_a, hat_b))
    assert report.wasserstein_worst_slack == worst_w
    assert report.l1_worst_slack == worst_l1
    assert cont.l1_pairs == 7


def test_run_diagnostics_memory_budget():
    # S = 41 states of N = 1024 cells, as the dense benchmark's double hump.
    # The run reads them as stacked (S, N+1) arrays and holds at most three
    # at once, plus numpy's fixed iteration buffers; with one hat density per
    # state and the interleaving identity it peaked at 3.65 such arrays here
    s, n = 41, 1024
    x0 = atomize(scenario("box"), n).positions
    states = tuple(ParticleConfiguration(t, 1.0 / n, x0 + 0.5 * t * x0 * x0)
                   for t in np.linspace(0.0, 1.0, s).tolist())
    tr, model, datum = Trajectory(states, {}), PipesMunjal(1.0, 2.0), scenario("box")
    run_diagnostics(tr, model, datum, 0.25)
    tracemalloc.start()
    try:
        run_diagnostics(tr, model, datum, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * s * (n + 1) * 8
