import hashlib

import numpy as np
import pytest

from ftl1d import (
    CustomVelocity,
    Greenshields,
    IntegrationError,
    IntegratorSettings,
    ParticleConfiguration,
    PipesMunjal,
    Underwood,
    atomize,
    check_assumptions,
    ftl_rhs,
    integrate,
    lagrangian_rhs,
    scenario,
)
from ftl1d.dynamics import _velocities, default_step


def two_particle_config():
    return ParticleConfiguration(0.0, 0.5, np.array([0.0, 1.0]))


def closed_form_follower(t):
    """Follower path for the two-particle linear-law case: leader - sqrt(1+t)."""
    return 1.0 + t - np.sqrt(1.0 + t)


def test_ftl_rhs_pair():
    v = ftl_rhs(two_particle_config(), Greenshields(1.0))
    np.testing.assert_allclose(v, [0.5, 1.0], atol=0)


def test_ftl_rhs_three_particles():
    c = ParticleConfiguration(0.0, 0.5, np.array([0.0, 0.5, 2.0]))
    v = ftl_rhs(c, Greenshields(1.0))
    np.testing.assert_allclose(v, [0.0, 2.0 / 3.0, 1.0], atol=1e-15)


def test_leader_component_is_vacuum_speed():
    for model in (Greenshields(2.0), Underwood(1.5), PipesMunjal(1.0, 2.0)):
        c = atomize(scenario("box"), 8)
        assert ftl_rhs(c, model)[-1] == model.v_max


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
        IntegratorSettings(gap_floor_safety=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(abs_tol=0.0)


def test_step_underflow_raises_with_diagnostic_state():
    # a gap floor of exactly 1 makes every step reject: the initial state is
    # at the floor and any motion of the follower relative to the leader
    # that dips below it by rounding cannot recover at smaller dt.
    c0 = ParticleConfiguration(0.0, 0.5, np.array([0.0, 0.25, 0.5]))

    class Squeeze(Greenshields):
        # follower faster than leader: gap must shrink below the floor
        def _v(self, rho):
            return np.full_like(rho, 2.0)

    model = Squeeze(v_max=1.0)
    with pytest.raises(IntegrationError) as err:
        integrate(c0, model, 1.0, IntegratorSettings(gap_floor_safety=1.0), [1.0])
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


def test_law_flat_by_rounding_near_vacuum_still_integrates():
    # v = 1 - rho^20 rounds to 1 near vacuum, so the strictly decreasing
    # sample of check_assumptions fails; the law does not increase, and runs
    c0 = atomize(scenario("box"), 8)
    model = PipesMunjal(1.0, 20.0)
    assert not check_assumptions(model, c0.max_density(), samples=64).v_strictly_decreasing
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

    def rhs(x):
        # written out here rather than taken from the package
        return np.append(model.value(m / np.diff(x)), model.v_max)

    x = c0.positions.copy()
    for _ in range(32):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_array_equal(tr.states[-1].positions, x)


def test_rk45_adaptive_step_sequence_is_pinned():
    c0 = atomize(scenario("double_hump"), 64)
    tr = integrate(c0, PipesMunjal(1.0, 2.0), 2.0,
                   IntegratorSettings(method="rk45_adaptive"), np.linspace(0.0, 2.0, 9))
    assert tr.metadata["steps"] == 55
    # both rejections come from error control, none from the gap floor
    assert tr.metadata["rejections"] == 2
    final = tr.states[-1].positions
    assert final[0] == 1.0277869609280503
    # every bit of all 65 final positions, as little-endian float64
    assert hashlib.sha256(final.astype("<f8").tobytes()).hexdigest() == (
        "667562883dc6c4635b8826ab4d63cf6ae35b1f934c8c9699e7fe299aa3e04b7a")


def test_velocities_reject_invalid_gaps():
    model = Greenshields(1.0)
    # densities 0.5 and 0.25
    np.testing.assert_array_equal(
        _velocities(np.array([0.0, 0.5, 1.5]), 0.25, model), [0.5, 0.75, 1.0])
    assert _velocities(np.array([0.0, 1.0, 1.0]), 0.25, model) is None
    assert _velocities(np.array([0.0, np.nan, 1.5]), 0.25, model) is None
    with np.errstate(over="ignore"):
        assert _velocities(np.array([0.0, 1e-310]), 1.0, model) is None


def test_velocities_reject_gap_below_floor():
    model = Greenshields(1.0)
    x = np.array([0.0, 0.5, 1.5])
    np.testing.assert_array_equal(_velocities(x, 0.25, model, floor=0.5), [0.5, 0.75, 1.0])
    assert _velocities(x, 0.25, model, floor=0.6) is None
