import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from ftl1d import (
    Greenshields,
    IntegrationError,
    IntegratorSettings,
    ModifiedGreenberg,
    ParticleConfiguration,
    PipesMunjal,
    TabulatedVelocity,
    Underwood,
    atomize,
    check_assumptions,
    integrate,
    scenario,
)
from ftl1d import dynamics
from ftl1d.dynamics import METHODS, default_step, sample_grid
from oracles import CountingVelocity, CustomVelocity


def lagrangian_rhs(y, model, cell_mass):
    """Rates of the cell densities y_i, the reference for the position form.

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


def rhs(x, m, model):
    # written out here rather than taken from the package
    return np.append(model.value(m / np.diff(x)), model.v_max)


def two_particle_config():
    return ParticleConfiguration(0.0, 0.5, np.array([0.0, 1.0]))


def closed_form_follower(t):
    """Follower path for the two-particle linear-law case: leader - sqrt(1+t)."""
    return 1.0 + t - np.sqrt(1.0 + t)


def first_stages(c, model):
    # the first stage that each method's workspace evaluates when bound to c
    return [METHODS[m].bind(c.positions, c.particle_mass, model, 0.0, 1e-8, 1e-8, [0])[0]
            for m in METHODS]


def test_ftl_rhs_pair():
    for v in first_stages(two_particle_config(), Greenshields(1.0)):
        np.testing.assert_allclose(v, [0.5, 1.0], atol=0)


def test_ftl_rhs_three_particles():
    c = ParticleConfiguration(0.0, 0.5, np.array([0.0, 0.5, 2.0]))
    for v in first_stages(c, Greenshields(1.0)):
        np.testing.assert_allclose(v, [0.0, 2.0 / 3.0, 1.0], atol=1e-15)


def test_leader_component_is_vacuum_speed():
    for model in (Greenshields(2.0), Underwood(1.5), PipesMunjal(1.0, 2.0)):
        c = atomize(scenario("box"), 8)
        assert all(v[-1] == model.v_max for v in first_stages(c, model))


@pytest.mark.parametrize("model", [
    Greenshields(1.17), PipesMunjal(1.17, 2.5), Underwood(1.17), ModifiedGreenberg(1.17, 0.1),
    TabulatedVelocity(np.array([0.0, 0.15, 1.5]), np.array([1.17, 0.7, 0.0])),
], ids=["greenshields", "pipes_munjal", "underwood", "modified_greenberg", "tabulated"])
def test_initial_first_stage_is_the_written_out_rhs_bit_for_bit(model, monkeypatch):
    # the first stage that the run's first attempt reads
    seen = []
    bind = dynamics._Tableau.bind

    def recording_bind(self, *args):
        first, step = bind(self, *args)

        def recording(x, dt, out):
            if not seen:
                seen.append(first.copy())
            return step(x, dt, out)
        return first, recording

    monkeypatch.setattr(dynamics._Tableau, "bind", recording_bind)
    c0 = atomize(scenario("double_hump"), 64)
    for method in METHODS:
        seen.clear()
        integrate(c0, model, 0.01, IntegratorSettings(method=method))
        np.testing.assert_array_equal(seen[0], rhs(c0.positions, c0.particle_mass, model))


def test_lagrangian_rhs_examples():
    model = Greenshields(1.0)
    np.testing.assert_allclose(lagrangian_rhs([0.5], model, 0.5), [-0.25], atol=0)
    rates = lagrangian_rhs([0.5, 0.5], model, 0.123)
    assert rates[0] == 0.0
    rates = lagrangian_rhs([0.2, 0.8], model, 0.1)
    assert rates[0] == pytest.approx(0.24, abs=1e-15)


def test_lagrangian_rhs_rejects_nonpositive():
    with pytest.raises(ValueError):
        lagrangian_rhs([0.5, 0.0], Greenshields(1.0), 0.1)


def test_two_particle_closed_form_rk4():
    tr = integrate(two_particle_config(), Greenshields(1.0), 3.0,
                   IntegratorSettings(), [0.0, 3.0])
    final = tr.states[-1]
    assert final.positions[0] == pytest.approx(2.0, abs=1e-6)
    assert final.positions[1] == pytest.approx(4.0, abs=1e-9)


def test_two_particle_closed_form_rk45():
    tr = integrate(two_particle_config(), Greenshields(1.0), 3.0,
                   IntegratorSettings(method="rk45_adaptive",
                                      abs_tol=1e-10, rel_tol=1e-10), [0.0, 3.0])
    assert tr.states[-1].positions[0] == pytest.approx(closed_form_follower(3.0), abs=1e-8)
    assert tr.metadata["steps"] > 0


def test_gap_never_below_floor_single_pair():
    # start exactly at the floor: gap = mass / max-density
    c0 = ParticleConfiguration(0.0, 0.5, np.array([0.0, 0.5]))
    tr = integrate(c0, Greenshields(1.0), 2.0, None, [0.0, 1.0, 2.0])
    floor = c0.particle_mass / c0.max_density()
    for s in tr.states:
        assert np.min(s.gaps()) >= floor - 1e-9


def test_t_end_zero_returns_initial_state():
    c0 = two_particle_config()
    tr = integrate(c0, Greenshields(1.0), 0.0)
    assert len(tr.states) == 1
    np.testing.assert_array_equal(tr.states[0].positions, c0.positions)


def test_sample_time_validation():
    c0 = two_particle_config()
    with pytest.raises(ValueError):
        integrate(c0, Greenshields(1.0), 1.0, None, [0.0, 2.0])
    with pytest.raises(ValueError):
        integrate(c0, Greenshields(1.0), 1.0, None, [-0.5])
    with pytest.raises(ValueError):
        integrate(c0, Greenshields(1.0), 1.0, None, [])


def test_sample_grid_defaults_sorts_and_deduplicates():
    assert sample_grid(None, 2.0) == (0.0, 2.0)
    assert sample_grid(None, 0.0) == (0.0,)
    assert sample_grid([1, 0.5, 0.0, 0.5], 1.0) == (0.0, 0.5, 1.0)
    assert all(type(t) is float for t in sample_grid([np.float64(0.5), 1], 1.0))


def test_the_run_starts_at_zero_before_its_first_sample_time():
    # every run records its initial state: the time-continuity moduli read
    # R and the span from it
    assert sample_grid([0.5], 1.0) == (0.0, 0.5, 1.0)
    assert sample_grid([0.5, 0.75, 1.0], 1.0) == sample_grid([0.0, 0.5, 0.75, 1.0], 1.0)
    c0 = atomize(scenario("box"), 8)
    trajectory = integrate(c0, Greenshields(1.0), 1.0, None, [0.5])
    assert [state.time for state in trajectory.states] == [0.0, 0.5, 1.0]
    assert trajectory.states[0].positions.tobytes() == c0.positions.tobytes()


def test_the_run_ends_at_t_end_past_its_last_sample_time():
    # t_end is the horizon: the default step is capped at t_end / 100, and
    # the run records t_end even where the samples stop before it
    assert sample_grid([0.0, 0.25], 1.0) == (0.0, 0.25, 1.0)
    assert sample_grid([0], 1) == (0.0, 1.0)
    trajectory = integrate(atomize(scenario("box"), 8), Greenshields(1.0), 1.0, None, [0, 0.25])
    assert [state.time for state in trajectory.states] == [0.0, 0.25, 1.0]
    assert trajectory.metadata["steps"] == 100


@pytest.mark.parametrize("samples, t_end, message", [
    ([], 1.0, "need at least one sample time"),
    ([0.0, math.nan, 1.0], 1.0, "sample times must lie in"),
    ([-0.5, 1.0], 1.0, "sample times must lie in"),
    ([0.0, 1.5], 1.0, "sample times must lie in"),
    ([0.0], -1.0, "t_end must be finite"),
    ([0.0], math.nan, "t_end must be finite"),
    ([0.0], math.inf, "t_end must be finite"),
    (None, math.inf, "t_end must be finite"),
])
def test_sample_grid_refusals(samples, t_end, message):
    with pytest.raises(ValueError, match=message):
        sample_grid(samples, t_end)


def test_infinite_horizon_is_refused_before_any_step():
    with pytest.raises(ValueError, match="t_end must be finite"):
        integrate(two_particle_config(), Greenshields(1.0), math.inf)


def test_zero_horizon_records_the_configured_step():
    c0 = two_particle_config()
    assert integrate(c0, Greenshields(1.0), 0.0).metadata["dt"] == 0.0
    settings = IntegratorSettings(dt=0.1)
    assert integrate(c0, Greenshields(1.0), 0.0, settings).metadata["dt"] == 0.1


def test_initial_configuration_must_start_at_zero():
    c = ParticleConfiguration(1.0, 0.5, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        integrate(c, Greenshields(1.0), 1.0)


@pytest.mark.parametrize("name", ["box", "double_hump", "riemann_like", "sawtooth_bv"])
@pytest.mark.parametrize("model", [Greenshields(1.0), PipesMunjal(1.0, 2.0), Underwood(1.0)])
def test_ordering_and_bounds_preserved(name, model):
    datum = scenario(name)
    c0 = atomize(datum, 64)
    r = c0.max_density()
    span0 = c0.positions[-1] - c0.positions[0]
    v_r = model.value(r)
    tr = integrate(c0, model, 1.0, None, [0.0, 0.5, 1.0])
    for s in tr.states:
        gaps = s.gaps()
        assert np.all(gaps > 0.0)
        # discrete maximum principle
        assert np.min(gaps) >= (c0.particle_mass / r) * (1.0 - 1e-6)
        # per-gap upper bound
        assert np.max(gaps) <= span0 + (model.v_max - v_r) * s.time + 1e-8
        # left front moves at least at the jammed speed
        assert s.positions[0] >= c0.positions[0] + v_r * s.time - 1e-8
        # leader is exactly ballistic
        expected = c0.positions[-1] + model.v_max * s.time
        assert abs(s.positions[-1] - expected) <= 1e-10
        # mass bookkeeping is structural
        assert s.total_mass == c0.total_mass


def test_position_and_density_formulations_agree():
    model = Greenshields(1.0)
    c0 = two_particle_config()
    tr = integrate(c0, model, 3.0, IntegratorSettings(dt=0.003), [0.0, 3.0])
    y_from_positions = tr.states[-1].densities()

    y = c0.densities()
    dt = 0.003
    n = int(round(3.0 / dt))
    for _ in range(n):
        k1 = lagrangian_rhs(y, model, c0.particle_mass)
        k2 = lagrangian_rhs(y + 0.5 * dt * k1, model, c0.particle_mass)
        k3 = lagrangian_rhs(y + 0.5 * dt * k2, model, c0.particle_mass)
        k4 = lagrangian_rhs(y + dt * k3, model, c0.particle_mass)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(y_from_positions, y, atol=1e-7)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(method="euler")
    with pytest.raises(ValueError):
        IntegratorSettings(dt=-0.1)
    with pytest.raises(ValueError):
        IntegratorSettings(abs_tol=0.0)
    # an infinite step or tolerance would be written into the manifest as
    # Infinity, not strict JSON
    for setting in ("dt", "abs_tol", "rel_tol"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                IntegratorSettings(method="rk45_adaptive", **{setting: value})


class Squeeze(Greenshields):
    # follower faster than leader: gap must shrink below the floor
    def _velocities(self, mass):
        def velocities(gaps, out):
            out[...] = 2.0
            return out
        return velocities


def test_step_underflow_raises_with_diagnostic_state(monkeypatch):
    # a gap floor of exactly 1 makes every step reject: the initial state is
    # at the floor and any motion of the follower relative to the leader
    # that dips below it by rounding cannot recover at smaller dt.
    monkeypatch.setattr(dynamics, "GAP_FLOOR_SAFETY", 1.0)
    c0 = ParticleConfiguration(0.0, 0.5, np.array([0.0, 0.25, 0.5]))
    model = Squeeze(v_max=1.0)
    with pytest.raises(IntegrationError) as err:
        integrate(c0, model, 1.0, IntegratorSettings(), [1.0])
    assert err.value.positions is not None
    assert err.value.time is not None


@pytest.mark.parametrize("height", [1e-300, 1e-35])
def test_default_step_capped_for_vanishing_density(height):
    # the speed spread r * (v_max - v(r)) underflows or is far below any
    # absolute guard; the step is the t_end / 100 cap either way
    c0 = atomize(scenario("box", height=height), 8)
    model = Greenshields(1.0)
    assert default_step(c0, model, 0.5) == 0.005
    assert integrate(c0, model, 0.5).metadata["steps"] == 100


def test_default_step_of_increasing_law_is_positive():
    # followers would outrun the leader: integrate refuses the law before
    # the first step, and default_step still gives its cap, not a negative step
    c0 = atomize(scenario("box"), 8)
    model = CustomVelocity(lambda r: 1.0 + r, v_max=1.0)
    assert default_step(c0, model, 0.5) == 0.005
    with pytest.raises(ValueError, match="increases"):
        integrate(c0, model, 0.5)


def test_law_flat_beyond_half_is_refused():
    # the samples never increase, but v' vanishes beyond 0.5: check_assumptions
    # does not find the law strictly decreasing, and integrate refuses it
    c0 = atomize(scenario("box", height=1.0), 8)
    model = CustomVelocity(lambda r: 1.0 - np.minimum(np.asarray(r), 0.5), v_max=1.0)
    assert not check_assumptions(model, c0.max_density()).v_strictly_decreasing
    with pytest.raises(ValueError, match="increases, or is flat"):
        integrate(c0, model, 0.5)


def test_law_flat_by_rounding_near_vacuum_still_integrates():
    # v = 1 - rho^20 rounds to 1 near vacuum, so consecutive samples tie; v'
    # is negative at every positive sample, so the law counts as strictly
    # decreasing, and it runs
    c0 = atomize(scenario("box"), 8)
    model = PipesMunjal(1.0, 20.0)
    assert check_assumptions(model, c0.max_density()).v_strictly_decreasing
    assert integrate(c0, model, 0.5).metadata["steps"] == 100


@pytest.mark.parametrize("model", [Greenshields(1.0), PipesMunjal(1.0, 2.0), Underwood(1.0)],
                         ids=["greenshields", "pipes_munjal", "underwood"])
def test_rk4_fixed_matches_classical_rk4_bit_for_bit(model):
    # dyadic dt with t_end a multiple of it: no step is shortened
    c0 = atomize(scenario("box"), 32)
    m = c0.particle_mass
    dt = 2.0 ** -6
    tr = integrate(c0, model, 0.5, IntegratorSettings(dt=dt))
    assert tr.metadata["steps"] == 32
    assert tr.metadata["rejections"] == 0

    x = c0.positions.copy()
    for _ in range(32):
        k1 = rhs(x, m, model)
        k2 = rhs(x + 0.5 * dt * k1, m, model)
        k3 = rhs(x + 0.5 * dt * k2, m, model)
        k4 = rhs(x + dt * k3, m, model)
        x = x + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_array_equal(tr.states[-1].positions, x)


# Dormand & Prince (1980): the stage rows, the 5th-order weights and the
# published error row e = b - b_hat of the embedded 4th-order weights b_hat
DP45_A = ((1 / 5,),
          (3 / 40, 9 / 40),
          (44 / 45, -56 / 15, 32 / 9),
          (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
          (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
          (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
DP45_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
DP45_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def test_dp45_error_row_is_the_weights_less_the_embedded_weights():
    # in rationals, e = b - b_hat exactly; each float rounds its rational once
    b = (Fraction(35, 384), 0, Fraction(500, 1113), Fraction(125, 192), Fraction(-2187, 6784),
         Fraction(11, 84), 0)
    b_hat = (Fraction(5179, 57600), 0, Fraction(7571, 16695), Fraction(393, 640),
             Fraction(-92097, 339200), Fraction(187, 2100), Fraction(1, 40))
    e = (Fraction(71, 57600), 0, Fraction(-71, 16695), Fraction(71, 1920),
         Fraction(-17253, 339200), Fraction(22, 525), Fraction(-1, 40))
    assert all(bi - ci == ei for bi, ci, ei in zip(b, b_hat, e))
    assert DP45_E == tuple(float(ei) for ei in e)
    assert DP45_B == tuple(float(bi) for bi in b)
    assert METHODS["rk45_adaptive"].error == dynamics._nonzero(DP45_E)


def test_dp45_is_first_same_as_last_and_rk4_is_not():
    # the 7th stage row is the weights: its stage state is the candidate
    assert DP45_A[-1] + (0.0,) == DP45_B
    assert METHODS["rk45_adaptive"].fsal
    assert not METHODS["rk4_fixed"].fsal


def textbook_dp45_step(x, dt, m, model, abs_tol, rel_tol):
    # first same as last: stages 1-6, each stage state a running sum from x
    # in term order; the candidate out = x + dt * sum b_i k_i, whose
    # velocities are the 7th stage k7 = f(out); the error estimate is
    # dt * sum e_i k_i.  Each weighted sum runs from -0.0 in index order, and
    # zero coefficients are skipped
    k = [rhs(x, m, model)]
    for row in DP45_A[:-1]:
        xi = x
        for j, a in enumerate(row):
            if a != 0.0:
                xi = xi + (dt * a) * k[j]
        k.append(rhs(xi, m, model))

    def weighted(coefficients):
        total = np.full_like(x, -0.0)
        for j, c in enumerate(coefficients):
            if c != 0.0:
                total = total + c * k[j]
        return total

    out = x + dt * weighted(DP45_B)
    k.append(rhs(out, m, model))
    err = dt * weighted(DP45_E)
    scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(out))
    return out, float(np.max(np.abs(err) / scale))


@pytest.mark.parametrize("model", [
    Greenshields(1.17), PipesMunjal(1.17, 2.5), Underwood(1.17), ModifiedGreenberg(1.17, 0.3),
], ids=["greenshields", "pipes_munjal", "underwood", "modified_greenberg"])
@pytest.mark.parametrize("tol, verdict", [(1e-8, None), (1e-14, "error")],
                         ids=["accepted", "rejected"])
def test_rk45_adaptive_step_matches_a_textbook_dormand_prince_step_bit_for_bit(model, tol,
                                                                                 verdict):
    # a step that is no power of 2, so dt * a_ij rounds; accepted steps go
    # on from their candidate, whose velocities the accepting step filled
    c0 = atomize(scenario("double_hump"), 64)
    x, m, dt = c0.positions.copy(), c0.particle_mass, 1e-3
    _, step = METHODS["rk45_adaptive"].bind(x, m, model, 0.0, tol, tol, [0])
    out = np.empty_like(x)
    for _ in range(1 if verdict else 20):
        with np.errstate(all="ignore"):
            cause, err_norm = step(x, dt, out)
        assert cause == verdict
        expected, expected_norm = textbook_dp45_step(x, dt, m, model, tol, tol)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
        assert err_norm == expected_norm
        x, out = out, x


@pytest.mark.parametrize("method", list(METHODS))
def test_each_weighted_sum_reads_consecutive_rows_of_the_stage_block(method):
    table = METHODS[method]
    assert sorted(table.layout) == list(range(len(table.stages) + 1))
    assert table.layout[0] == 0
    for terms in (table.weights, table.error):
        if terms is not None:
            rows = [table.layout.index(j) for j, _ in terms]
            assert rows == list(range(rows[0], rows[0] + len(rows)))


def test_stage_layouts_of_the_built_in_tables():
    # no weighted sum of DP45 reads its second stage (b_2 = e_2 = 0), so it goes last
    assert METHODS["rk4_fixed"].layout == (0, 1, 2, 3)
    assert METHODS["rk45_adaptive"].layout == (0, 2, 3, 4, 5, 6, 1)


def test_a_table_whose_sums_cannot_all_be_slices_is_refused():
    # weights on stages {0, 2} and the error row on {1, 2}: whichever row
    # holds stage 1, one of the two sums skips it
    with pytest.raises(ValueError, match="consecutive rows"):
        dynamics._Tableau(a=((0.5,), (0.0, 0.5)), b=(1.0, 0.0, 1.0), order=2,
                          error=(0.0, 1.0, 1.0))


def test_update_of_a_jammed_particle_at_negative_zero_keeps_its_sign():
    # v(1) = -0.0, and motion reaches the first follower of a jammed column
    # one particle per stage, so all its RK4 stage velocities are -0.0.  Its
    # weighted sum is then -0.0 and -0.0 + h * -0.0 stays -0.0, as in a
    # running sum; a reduction started from +0.0 would give +0.0
    model = CustomVelocity(v_func=lambda rho: np.where(rho < 1.0, 1.0 - rho, -0.0), v_max=1.0)
    c0 = ParticleConfiguration(0.0, 1.0, np.array([-0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    tr = integrate(c0, model, 0.01, IntegratorSettings(dt=0.01))
    assert tr.metadata["steps"] == 1
    assert np.signbit(tr.states[-1].positions[0])


def test_rk45_adaptive_step_sequence_is_pinned():
    c0 = atomize(scenario("double_hump"), 64)
    tr = integrate(c0, PipesMunjal(1.0, 2.0), 2.0,
                   IntegratorSettings(method="rk45_adaptive"), np.linspace(0.0, 2.0, 9))
    assert tr.metadata["steps"] == 58
    # all four rejections come from error control, none from the gap floor
    assert tr.metadata["rejections"] == 4
    assert tr.metadata["rejections_by_cause"] == {"error": 4, "gap_floor": 0, "invalid_stage": 0}
    final = tr.states[-1].positions
    assert final[0] == 1.0277869608099668
    # every bit of all 65 final positions, as little-endian float64
    assert hashlib.sha256(final.astype("<f8").tobytes()).hexdigest() == (
        "ec30dce4d4d51265bd6267f712a92ac9e4a76ce9e54442d3819e245b4e72c43f")


def _step_in_place(method, x, cell_mass, model, floor):
    # one attempt of dt 0 from x, after first-stage velocities of 0 behind
    # the leader's bound v_max: every stage state and the candidate are x
    # itself, bit for bit
    k1, step = METHODS[method].bind(x, cell_mass, model, floor, 1e-8, 1e-8, [0])
    k1[:-1] = 0.0
    out = np.empty_like(x)
    verdict = step(x, 0.0, out)
    return verdict, out, k1


def test_velocities_reject_invalid_gaps():
    model = Greenshields(1.0)
    # the bound step rejects a zero gap, a NaN gap and a subnormal gap, whose
    # density overflows, as invalid stage states
    for method in METHODS:
        for x, cell_mass in [(np.array([0.0, 1.0, 1.0]), 0.25),
                             (np.array([0.0, np.nan, 1.5]), 0.25),
                             (np.array([0.0, 1e-310]), 1.0)]:
            with np.errstate(all="ignore"):
                verdict, _, k1 = _step_in_place(method, x, cell_mass, model, 0.0)
            assert verdict == ("invalid_stage", None)
            assert not k1[:-1].any()


def test_integrate_refuses_a_subnormal_gap_before_any_warning():
    # its density overflows to inf, which the law's check refuses; the
    # suite's warning filter fails a warning raised on the way there
    c0 = ParticleConfiguration(0.0, 1.0, np.array([0.0, 1e-310]))
    with pytest.raises(ValueError, match="density must be finite and nonnegative"):
        integrate(c0, Greenshields(1.0), 1.0)


@pytest.mark.parametrize("model", [
    Greenshields(1.17), PipesMunjal(1.17, 2.5), Underwood(1.17), ModifiedGreenberg(1.17, 0.3),
], ids=["greenshields", "pipes_munjal", "underwood", "modified_greenberg"])
@pytest.mark.parametrize("method", list(METHODS))
def test_kernels_of_one_law_hold_no_state_on_it(model, method):
    # two workspaces of one law, each with its own cell mass, both bound
    # before either steps: stepping them in turn ends where each ends alone
    configs = [atomize(scenario("double_hump"), 64), atomize(scenario("box"), 128)]
    assert configs[0].particle_mass != configs[1].particle_mass

    def bound(c):
        _, step = METHODS[method].bind(c.positions.copy(), c.particle_mass, model, 0.0,
                                       1e-2, 1e-2, [0])
        return [step, c.positions.copy(), np.empty(c.positions.size)]

    def advance(workspace, dt=0.002):
        step, x, out = workspace
        assert step(x, dt, out)[0] is None
        workspace[1:] = out, x

    alone = []
    for c in configs:
        workspace = bound(c)
        for _ in range(20):
            advance(workspace)
        alone.append(_digest(workspace[1]))
    workspaces = [bound(c) for c in configs]
    for _ in range(20):
        for workspace in workspaces:
            advance(workspace)
    assert [_digest(workspace[1]) for workspace in workspaces] == alone


def test_velocities_reject_gap_below_floor():
    # the floor is the bound step's: a candidate whose smallest gap, 0.5,
    # is at the floor is accepted and its velocities fill the first stage;
    # above the floor it is rejected, and the first stage is left alone
    model = Greenshields(1.0)
    x = np.array([0.0, 0.5, 1.5])
    for method in METHODS:
        verdict, out, k1 = _step_in_place(method, x, 0.25, model, floor=0.5)
        assert verdict == (None, 0.0)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(k1, [0.5, 0.75, 1.0])
        verdict, out, k1 = _step_in_place(method, x, 0.25, model, floor=0.6)
        assert verdict == ("gap_floor", 0.0)
        np.testing.assert_array_equal(out, x)
        assert not k1[:-1].any()


def _digest(positions):
    return hashlib.sha256(positions.astype("<f8").tobytes()).hexdigest()


@pytest.mark.parametrize(("model", "digest"), [
    (Greenshields(1.0), "7163146fe4a5bab17360b96116c3c4b0dc038f640cf3c5e13b2bef7991759cf4"),
    (PipesMunjal(1.0, 2.5), "863d6e8134fb4f371ef63293bfbbcbc1de89d659977eeb33e74fbe153a27e104"),
    (Underwood(1.0), "9de0b9f82315f6c5668f86f88b46302c9add9a787d3122f802c7584cef254803"),
    (TabulatedVelocity(np.array([0.0, 0.15, 1.5]), np.array([1.0, 0.7, 0.0])),
     "9579ee4b832814e66029463fd4a3cf4b1454a84af99691380bf7c707c06d208a"),
], ids=["greenshields", "pipes_munjal", "underwood", "tabulated"])
def test_step_whose_middle_stage_crosses_is_halved(model, digest):
    # m/(R|v'|) is 0.1 under Greenshields, and the step is 4: the middle
    # stage x + (dt/2) k1 puts the first follower ahead of the second.  The
    # stages after it run on negative densities (NaN under the fractional
    # power of Pipes-Munjal), and a floating-point warning that escapes them
    # fails this test under the suite's warnings-as-errors.  The tabulated
    # law raises on a density beyond its table, which a stage after the
    # crossed one reaches: that too rejects the step.
    c0 = ParticleConfiguration(0.0, 0.05, np.array([0.0, 0.2, 0.3]))
    dt = 4.0
    k1 = rhs(c0.positions, c0.particle_mass, model)
    assert np.min(np.diff(c0.positions + (0.5 * dt) * k1)) < 0.0
    tr = integrate(c0, model, dt, IntegratorSettings(dt=dt), [0.0, dt])
    assert tr.metadata["steps"] == 2
    assert tr.metadata["rejections"] == 2
    assert _digest(tr.states[-1].positions) == digest


OFF_ONE = {   # each law at vacuum speed 1.17
    "greenshields": Greenshields(1.17),
    "pipes_munjal": PipesMunjal(1.17, 2.5),
    "underwood": Underwood(1.17),
    "modified_greenberg": ModifiedGreenberg(1.17, 0.1),
}


@pytest.mark.parametrize(("law", "method", "steps", "rejections", "digest"), [
    pytest.param(law, method, steps, rejections, digest, id=f"{law}-{method}")
    for law, method, steps, rejections, digest in [
        ("greenshields", "rk4_fixed", 480, 0,
         "b857ae742d2aafc1db4935004e85943c85fad8665717816c12b50d2c09422156"),
        ("greenshields", "rk45_adaptive", 44, 0,
         "a515a8696be972ba8c3dff313c3894f68026dd84e2d846b2b83b070e07c95408"),
        ("pipes_munjal", "rk4_fixed", 344, 0,
         "99285a76bd09d1b30126327bddf2e35726978519e0658dc69f2d322a827c1288"),
        ("pipes_munjal", "rk45_adaptive", 48, 2,
         "ad0945c801db38cfed3f7e70ea3410a09073e04df7d5212686db2a0cf0052b3a"),
        ("underwood", "rk4_fixed", 330, 0,
         "a14b9a5c3b72a9b3fd7b880339746b67162d99a999d114d34ea5ba759b130e4f"),
        ("underwood", "rk45_adaptive", 33, 0,
         "8e969ac037ce16ffd6c62b15ea62de055d26b1ac4fa2b1239ed38cf6c9e3144b"),
        ("modified_greenberg", "rk4_fixed", 572, 0,
         "8988849976c1daf2e499c9a2db956f8bdfeaae7b3ec874cd913b8963d267f30b"),
        ("modified_greenberg", "rk45_adaptive", 34, 0,
         "6fb7cff54ac574f6bdeaabf2d0960f0b541eec40de859e5c051054edf715630b"),
    ]])
def test_final_positions_at_a_vacuum_speed_off_one_are_pinned(law, method, steps,
                                                              rejections, digest):
    # multiplying by 1.0 is exact, so a law whose v_max operand is wrong
    # passes every pin taken at v_max 1; these are taken at 1.17
    c0 = atomize(scenario("riemann_like"), 64)
    tr = integrate(c0, OFF_ONE[law], 1.0, IntegratorSettings(method=method), [0.0, 0.5, 1.0])
    assert (tr.metadata["steps"], tr.metadata["rejections"]) == (steps, rejections)
    assert _digest(tr.states[-1].positions) == digest


def test_law_that_raises_on_a_valid_stage_still_raises():
    # the halved steps' stages are valid and reach densities beyond the
    # table: the law's error is the run's, as it was before any rejection
    model = TabulatedVelocity(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0]))
    c0 = ParticleConfiguration(0.0, 0.05, np.array([0.0, 0.2, 0.3]))
    with pytest.raises(ValueError, match="beyond tabulated range"):
        integrate(c0, model, 4.0, IntegratorSettings(dt=4.0), [0.0, 4.0])


def test_rk45_adaptive_at_the_gap_floor_is_pinned(monkeypatch):
    # every gap of the jammed box starts at m/R, and a gap floor of 1 at
    # loose tolerances rejects steps at the floor, at an invalid stage and
    # by error control (11, 1 and 7 of the 19)
    monkeypatch.setattr(dynamics, "GAP_FLOOR_SAFETY", 1.0)
    c0 = atomize(scenario("box"), 32)
    settings = IntegratorSettings(method="rk45_adaptive", abs_tol=1e-4, rel_tol=1e-4)
    tr = integrate(c0, PipesMunjal(1.0, 2.5), 1.0, settings, [0.0, 0.5, 1.0])
    assert tr.metadata["steps"] == 27
    assert tr.metadata["rejections"] == 19
    assert tr.metadata["rejections_by_cause"] == {"error": 7, "gap_floor": 11, "invalid_stage": 1}
    assert tr.metadata["gap_floor_safety"] == 1.0
    assert all(np.min(s.gaps()) >= tr.metadata["gap_floor"] for s in tr.states)
    assert _digest(tr.states[-1].positions) == (
        "e8c1d88b958d412359e6b084dfc154aad83d6087ff7be9805715f626978b2904")


def test_stage_gap_below_the_floor_with_a_clear_candidate_is_accepted():
    # the floor is half of m/R = 0.1; the last stage state of this one step
    # has a gap of about 0.017, below it, but the update's smallest gap is
    # about 0.35: the floor holds the accepted states, not the stages, so
    # the step is taken, not halved
    c0 = ParticleConfiguration(0.0, 0.05, np.array([0.0, 0.2, 0.3]))
    model, dt = Greenshields(1.0), 1.0
    x, m = c0.positions, c0.particle_mass
    k1 = rhs(x, m, model)
    k2 = rhs(x + (0.5 * dt) * k1, m, model)
    k3 = rhs(x + (0.5 * dt) * k2, m, model)
    stages = [x + (0.5 * dt) * k1, x + (0.5 * dt) * k2, x + dt * k3]
    tr = integrate(c0, model, dt, IntegratorSettings(dt=dt), [0.0, dt])
    floor = tr.metadata["gap_floor"]
    assert 0.0 < min(np.min(np.diff(s)) for s in stages) < floor
    assert (tr.metadata["steps"], tr.metadata["rejections"]) == (1, 0)
    assert np.min(tr.states[-1].gaps()) >= floor
    assert _digest(tr.states[-1].positions) == (
        "3cc5fc4d190dbb5e7831bbbb60a715eb7c848b613842d11abd6a17349a92ef77")


def test_error_control_retries_an_attempt_whose_candidate_is_below_the_floor(monkeypatch):
    # a gap floor of 1 on the jammed box: the first attempt of dt 0.1 has an
    # error norm above 1 and a candidate whose smallest gap (about 0.1875) is
    # below the floor 0.2.  Error control decides it: the retry is the
    # error-controlled step, not half the step
    monkeypatch.setattr(dynamics, "GAP_FLOOR_SAFETY", 1.0)
    c0 = atomize(scenario("box"), 5)
    settings = IntegratorSettings(method="rk45_adaptive", dt=0.1, abs_tol=1e-4, rel_tol=1e-4)
    tr = integrate(c0, PipesMunjal(1.0, 2.5), 0.1, settings, [0.0, 0.1])
    assert (tr.metadata["steps"], tr.metadata["rejections"]) == (2, 1)
    assert tr.metadata["rejections_by_cause"] == {"error": 1, "gap_floor": 0, "invalid_stage": 0}
    assert _digest(tr.states[-1].positions) == (
        "f4ecb5983e2922761ab88a56ddd9695768a42cf187feab64cac5dd6aed2eb4a4")


def test_returned_states_and_error_positions_are_copies(monkeypatch):
    # every attempt passes its start x and its candidate through the bound
    # step, so the arrays it sees include the run's position buffers
    seen = []
    bind = dynamics._Tableau.bind

    def recording_bind(self, *args):
        first, step = bind(self, *args)

        def recording(x, dt, out):
            seen.extend((x, out))
            return step(x, dt, out)
        return first, recording

    monkeypatch.setattr(dynamics._Tableau, "bind", recording_bind)
    c0 = atomize(scenario("double_hump"), 16)
    for method in METHODS:
        seen.clear()
        tr = integrate(c0, Greenshields(1.0), 1.0, IntegratorSettings(method=method),
                       np.linspace(0.0, 1.0, 5))
        states = [s.positions for s in tr.states]
        for i, x in enumerate(states):
            others = states[i + 1:] + seen + [c0.positions]
            assert not any(np.shares_memory(x, other) for other in others)

    seen.clear()
    monkeypatch.setattr(dynamics, "GAP_FLOOR_SAFETY", 1.0)
    c0 = ParticleConfiguration(0.0, 0.5, np.array([0.0, 0.25, 0.5]))
    with pytest.raises(IntegrationError) as err:
        integrate(c0, Squeeze(v_max=1.0), 1.0, IntegratorSettings(), [1.0])
    assert seen
    assert not any(np.shares_memory(err.value.positions, other) for other in seen)


def _attempt(method, model, floor=0.0, tol=1e-8, c=None, dt=1e-3):
    # one attempt from a fresh workspace: its verdict, its candidate, the
    # first stage after it, and the kernel calls it made
    c = c or atomize(scenario("double_hump"), 64)
    x, out = c.positions.copy(), np.empty(c.positions.size)
    first, step = METHODS[method].bind(x, c.particle_mass, model, floor, tol, tol, [0])
    before = model.calls[0]
    with np.errstate(all="ignore"):
        verdict = step(x, dt, out)
    return verdict, out, first, model.calls[0] - before


@pytest.mark.parametrize(("method", "floor", "tol", "cause", "calls"), [
    ("rk4_fixed", 0.0, 1e-8, None, 4),
    ("rk4_fixed", 1.0, 1e-8, "gap_floor", 3),
    ("rk45_adaptive", 0.0, 1e-8, None, 6),
    ("rk45_adaptive", 0.0, 1e-14, "error", 6),
    ("rk45_adaptive", 1.0, 1e-8, "gap_floor", 6),
])
def test_kernel_calls_of_one_attempt(method, floor, tol, cause, calls):
    # RK4 evaluates its three stages after the first and, on acceptance, the
    # candidate.  DP45 evaluates five stages, then the candidate, its last
    # stage state, for the error estimate, and an accepting step copies
    # those velocities into the first stage: none at acceptance
    model = CountingVelocity(Greenshields(1.17))
    (verdict_cause, _), out, first, made = _attempt(method, model, floor, tol)
    assert (verdict_cause, made) == (cause, calls)
    if cause is None:
        m = atomize(scenario("double_hump"), 64).particle_mass
        np.testing.assert_array_equal(first, rhs(out, m, model.law))


class _Logged:
    """A numpy callable that logs each call; its attributes (a ufunc's
    ``reduce``) log theirs too."""

    def __init__(self, f, log):
        self._f, self._log = f, log

    def __call__(self, *args, **kwargs):
        self._log.append(self._f)
        return self._f(*args, **kwargs)

    def __getattr__(self, name):
        return _Logged(getattr(self._f, name), self._log)


@pytest.mark.parametrize(("method", "calls"), [("rk4_fixed", 27), ("rk45_adaptive", 71)])
def test_numpy_calls_of_an_accepted_attempt_under_greenshields(method, calls, monkeypatch):
    # every numpy function logs its calls while the workspace is bound (the
    # law's kernel binds its ufuncs then) and one accepted attempt runs.
    # Greenshields' kernel is 3 calls.  RK4: 3 stages of 6 (a one-term
    # running sum, its gaps, the law), the update and the gap test (6), the
    # law at the candidate (3).  DP45: 5 stages of 4 + 2 per term (50), the
    # update and the gap test (6), the law at the candidate (3), the
    # estimate from one error row (3) and its norm (8), and the copy of the
    # candidate's velocities into the first stage (1)
    c = atomize(scenario("double_hump"), 64)
    x, out, log = c.positions.copy(), np.empty(c.positions.size), []
    with monkeypatch.context() as patch:
        for name, f in list(vars(np).items()):
            if callable(f) and not isinstance(f, type) and not name.startswith("__"):
                patch.setattr(np, name, _Logged(f, log))
        _, step = METHODS[method].bind(x, c.particle_mass, Greenshields(1.17), 0.0, 1e-8,
                                       1e-8, [0])
        del log[:]
        verdict = step(x, 1e-3, out)
    assert verdict[0] is None
    assert len(log) == calls


# stage states all valid and a candidate whose first gap is not positive
# (found by a search over small random states)
CROSSING_CANDIDATES = {
    "rk4_fixed": (ParticleConfiguration(0.0, 0.25, np.array([0.0, 0.9, 1.38, 1.79])), 2.62),
    "rk45_adaptive": (ParticleConfiguration(0.0, 0.1, np.array([0.0, 0.34, 0.95, 1.37])), 2.46),
}


@pytest.mark.parametrize(("method", "cause", "calls"), [
    ("rk4_fixed", "gap_floor", 3), ("rk45_adaptive", "invalid_stage", 5)])
def test_a_candidate_with_a_gap_that_is_not_positive_is_rejected(method, cause, calls):
    # DP45's candidate is its last stage state (first same as last), so a
    # crossing candidate is an invalid stage state, as its 7th stage state
    # was when it was formed apart; the law is not evaluated there.  RK4's
    # candidate is no stage state: it is below the floor
    c, dt = CROSSING_CANDIDATES[method]
    model = CountingVelocity(Greenshields(1.0))
    x, m = c.positions, c.particle_mass
    rows = DP45_A[:-1] if method == "rk45_adaptive" else ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
    k = [rhs(x, m, model.law)]
    for row in rows:
        xi = x + dt * sum(a * k[j] for j, a in enumerate(row))
        assert np.min(np.diff(xi)) > 0.0
        k.append(rhs(xi, m, model.law))
    verdict, out, first, made = _attempt(method, model, c=c, dt=dt)
    assert np.min(np.diff(out)) <= 0.0
    assert verdict == (cause, None if cause == "invalid_stage" else 0.0)
    assert made == calls
    np.testing.assert_array_equal(first, k[0])


@pytest.mark.parametrize("case", ["rk45_adaptive_at_the_gap_floor", "rk4_fixed",
                                  "rk4_fixed_on_a_raising_law"])
def test_rhs_evals_is_the_count_of_kernel_calls(case, monkeypatch):
    if case == "rk45_adaptive_at_the_gap_floor":
        # the pinned run above, with rejections of all three causes
        monkeypatch.setattr(dynamics, "GAP_FLOOR_SAFETY", 1.0)
        model = CountingVelocity(PipesMunjal(1.0, 2.5))
        settings = IntegratorSettings(method="rk45_adaptive", abs_tol=1e-4, rel_tol=1e-4)
        tr = integrate(atomize(scenario("box"), 32), model, 1.0, settings, [0.0, 0.5, 1.0])
        assert all(tr.metadata["rejections_by_cause"].values())
    elif case == "rk4_fixed":
        model = CountingVelocity(Greenshields(1.17))
        tr = integrate(atomize(scenario("riemann_like"), 64), model, 1.0)
        assert tr.metadata["rhs_evals"] == 1 + 4 * tr.metadata["steps"]
    else:
        # the crossing step above: the table raises on a stage after the
        # crossed one, and the attempt skips the stages after that
        model = CountingVelocity(TabulatedVelocity(np.array([0.0, 0.15, 1.5]),
                                                   np.array([1.0, 0.7, 0.0])))
        c0 = ParticleConfiguration(0.0, 0.05, np.array([0.0, 0.2, 0.3]))
        tr = integrate(c0, model, 4.0, IntegratorSettings(dt=4.0), [0.0, 4.0])
        attempts = tr.metadata["steps"] + tr.metadata["rejections"]
        assert tr.metadata["rhs_evals"] < 1 + 3 * attempts + tr.metadata["steps"]
    assert tr.metadata["rhs_evals"] == model.calls[0]
