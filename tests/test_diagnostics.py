import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftl1d import (
    Greenshields,
    ModifiedGreenberg,
    ParticleConfiguration,
    PipesMunjal,
    Underwood,
    atomize,
    bv_constant,
    check_density,
    entropy_K_terms,
    from_piecewise,
    hat_density,
    integrate,
    min_gap_ratio,
    oleinik_residual,
    run_diagnostics,
    scenario,
    time_continuity_moduli,
    total_variation,
    velocity_total_variation,
)
from ftl1d.diagnostics import OleinikResidual

CHECKS = {"min_gap_ratio", "oleinik_interior", "oleinik_leader", "tv_contractivity",
          "tv_monotone", "tv_velocity", "entropy_terms", "interleaving_identity",
          "wasserstein_time_continuity", "l1_time_continuity"}


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
    assert res.max_all == 0.0
    assert res.interior.size == c.n_cells - 1


def test_oleinik_two_particle_closed_form():
    # density obeys y(t) = y0 / sqrt(1 + 2*v_max*y0^2*t/m), so y(3) = 0.25
    # and the residual t*y*(v_max - v(y)) = t*v_max*y^2 = 3 * 1 * 0.0625
    tr = integrate(config([0.0, 1.0]), Greenshields(1.0), 3.0, None, [3.0])
    res = oleinik_residual(tr.states[-1], Greenshields(1.0))
    assert res.interior.size == 0
    assert res.leader == pytest.approx(0.1875, abs=1e-6)
    assert res.leader <= res.cell_mass


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
    assert total_variation([0.5]) == 1.0
    assert total_variation([1.0, 1.0 / 3.0]) == pytest.approx(2.0, abs=1e-15)
    assert total_variation([1.0, 0.5, 0.25]) == 2.0
    assert total_variation(scenario("sawtooth_bv")) == 2.0


def test_total_variation_same_for_both_reconstructions():
    c = atomize(scenario("riemann_like"), 32)
    assert total_variation(hat_density(c)) == total_variation(check_density(c))


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


def test_entropy_terms_nonnegative_on_levels_grid():
    datum = scenario("double_hump")
    model = Greenshields(1.0)
    tr = integrate(atomize(datum, 64), model, 1.0, None, [0.0, 0.5, 1.0])
    for state in tr.states:
        for k in np.linspace(0.0, 1.2 * datum.sup_norm, 50):
            assert np.min(entropy_K_terms(state, model, k)) >= -1e-12


def test_time_continuity_trivial_pair():
    model = Greenshields(1.0)
    tr = integrate(atomize(scenario("box"), 16), model, 1.0, None, [0.1, 1.0])
    report = time_continuity_moduli(tr, model, 0.1)
    assert report.all_hold
    assert report.wasserstein_pairs == 1
    assert report.l1_pairs == 1
    assert report.wasserstein_worst_slack >= 0.0
    assert report.l1_worst_slack >= 0.0


def test_time_continuity_two_particle_closed_form():
    model = Greenshields(1.0)
    tr = integrate(config([0.0, 1.0]), model, 1.1, None, [0.1, 0.6, 1.1])
    report = time_continuity_moduli(tr, model, 0.1)
    assert report.all_hold
    with pytest.raises(ValueError):
        time_continuity_moduli(
            integrate(config([0.0, 1.0]), model, 0.0), model, 0.1)


def test_oleinik_velocity_jump_form():
    # equivalent restatement of the residual bound through the gap:
    # v(y_{i+1}) - v(y_i) <= gap_i / t once t > 0
    model = Greenshields(1.0)
    tr = integrate(atomize(scenario("riemann_like"), 128), model, 1.0,
                   None, [0.25, 1.0])
    for state in tr.states:
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
    assert report.interleaving_max_rel_error <= 1e-12
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
    from ftl1d.dynamics import Trajectory
    tr = Trajectory(np.array([0.0, 0.5]), (c0, bad), {})
    report = run_diagnostics(tr, model, datum, 0.25)
    assert not report.passed
    checks = {v.check for v in report.violations}
    # stretching the leader cell puts its one-sided residual far above the
    # particle mass
    assert "oleinik_interior" in checks


def test_oleinik_residual_type():
    res = OleinikResidual(1.0, 0.5, np.array([0.1, -0.2]), 0.3)
    assert res.max_interior == pytest.approx(0.1)
    assert res.max_all == pytest.approx(0.3)
    empty = OleinikResidual(1.0, 0.5, np.array([]), 0.2)
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
    datum = scenario("box")
    model = Greenshields(1.0)
    tr = integrate(atomize(datum, 16), model, 0.5, None, [0.5])
    report = run_diagnostics(tr, model, datum, 0.25)
    assert report.passed
    assert report.skipped == dict.fromkeys(
        ("wasserstein_time_continuity", "l1_time_continuity"), "fewer than two samples")
    assert np.isnan(report.wasserstein_worst_slack)


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
    tr = integrate(atomize(datum, n), model, 0.5, None, [0.0, 0.25, 0.5])
    report = run_diagnostics(tr, model, datum, 0.25)
    levels = np.linspace(0.0, 1.2 * datum.sup_norm, 50)
    for k, state in enumerate(tr.states):
        res = oleinik_residual(state, model)
        assert report.min_gap_ratios[k] == min_gap_ratio(state, datum.sup_norm)
        assert report.oleinik_interior_max[k] == res.max_interior
        assert report.oleinik_leader[k] == res.leader
        assert report.tv_hat[k] == total_variation(hat_density(state))
        assert report.tv_velocity[k] == velocity_total_variation(state, model)
        assert report.entropy_min[k] == min(
            float(np.min(entropy_K_terms(state, model, lvl))) for lvl in levels)
    failed = {v.check for v in report.violations}
    assert failed <= CHECKS
    assert set(report.skipped) <= CHECKS
    assert not failed & set(report.skipped)
