import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import piecewise_cells
from ftl1d import initial_data
from ftl1d.harness import ExperimentConfig
from ftl1d.initial_data import (
    ParticleConfiguration,
    PiecewiseConstantDensity,
    atomize,
    from_piecewise,
    scenario,
)


def test_unit_box():
    d = from_piecewise([0.0, 1.0], [1.0])
    assert d.total_mass == 1.0
    assert d.sup_norm == 1.0
    assert (d.support_min, d.support_max) == (0.0, 1.0)


def test_two_half_boxes_with_vacuum():
    d = from_piecewise([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0])
    assert d.total_mass == 1.0
    assert d.sup_norm == 1.0
    assert (d.support_min, d.support_max) == (0.0, 2.0)


def test_wide_shallow_box():
    d = from_piecewise([0.0, 2.0], [0.5])
    assert d.total_mass == 1.0
    assert d.sup_norm == 0.5
    assert (d.support_min, d.support_max) == (0.0, 2.0)


def test_support_hull_trims_zero_cells():
    d = from_piecewise([-1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert (d.support_min, d.support_max) == (0.0, 1.0)
    assert d.total_mass == 1.0


def test_construction_errors():
    with pytest.raises(ValueError):
        from_piecewise([1.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        from_piecewise([0.0, 1.0], [-1.0])
    with pytest.raises(ValueError):
        from_piecewise([0.0, 1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        from_piecewise([0.0, 1.0], [1.0, 2.0])


@pytest.mark.parametrize("cell_mass", [0.0, -1.0, float("nan"), float("inf")])
def test_cell_mass_must_be_positive_and_finite(cell_mass):
    with pytest.raises(ValueError, match="cell_mass"):
        PiecewiseConstantDensity(np.array([0.0, 1.0, 3.0]), np.array([1.0, 0.5]),
                                 cell_mass=cell_mass)


def mass_between(datum, a, b):
    return float(datum.cdf_values(b) - datum.cdf_values(a))


def test_mass_between_examples():
    box = from_piecewise([0.0, 1.0], [1.0])
    assert mass_between(box, 0.0, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert mass_between(box, -5.0, -1.0) == 0.0
    halves = from_piecewise([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0])
    assert mass_between(halves, 0.25, 1.75) == pytest.approx(0.5, abs=1e-15)


def test_atomize_unit_box():
    c = atomize(from_piecewise([0.0, 1.0], [1.0]), 4)
    np.testing.assert_allclose(c.positions, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)
    assert c.particle_mass == 0.25
    assert c.time == 0.0


def test_atomize_vacuum_plateau_takes_left_edge():
    # the mass level is reached exactly at the start of the vacuum gap
    d = from_piecewise([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0])
    c = atomize(d, 2)
    np.testing.assert_allclose(c.positions, [0.0, 0.5, 2.0], atol=0)


def test_atomize_tall_narrow_box():
    c = atomize(from_piecewise([0.0, 0.5], [2.0]), 2)
    np.testing.assert_allclose(c.positions, [0.0, 0.25, 0.5], atol=0)
    assert min(c.gaps()) >= c.particle_mass / 2.0 - 1e-15


def test_atomize_requires_two_particles():
    d = from_piecewise([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        atomize(d, 1)


@pytest.mark.parametrize("value", [8, 8.0, np.int64(8), np.float64(8.0)])
def test_count_accepts_integral_values(value):
    n = initial_data.count(value, "particle count")
    assert n == 8 and type(n) is int


@pytest.mark.parametrize("value", [8.7, 1, 1.0, "8", True, np.inf, np.nan, None])
def test_count_refuses_what_is_not_an_integer_at_the_floor(value):
    with pytest.raises(ValueError, match="particle count must be an integer >= 2"):
        initial_data.count(value, "particle count")


def test_count_refuses_what_lies_above_the_ceiling():
    assert initial_data.count(initial_data.MAX_COUNT, "particle count") == 2 ** 20
    for value in (initial_data.MAX_COUNT + 1, float(initial_data.MAX_COUNT + 1), 1e30, 10 ** 400):
        with pytest.raises(ValueError, match="particle count must be at most 1048576, got"):
            initial_data.count(value, "particle count")
    with pytest.raises(ValueError, match="sawtooth_bv steps must be at most 1048576, got 1e\\+30"):
        scenario("sawtooth_bv", steps=1e30)


def test_atomize_and_sawtooth_refuse_fractional_counts():
    d = from_piecewise([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="got 8.7"):
        atomize(d, 8.7)
    with pytest.raises(ValueError, match="sawtooth_bv steps must be an integer >= 1, got 2.7"):
        scenario("sawtooth_bv", steps=2.7)
    assert atomize(d, 8.0).positions.size == 9
    assert scenario("sawtooth_bv", steps=1.0).values.size == 1


@pytest.mark.parametrize("name", ["box", "double_hump", "riemann_like", "sawtooth_bv"])
@pytest.mark.parametrize("n", [2, 7, 16, 64])
def test_equal_mass_partition(name, n):
    d = scenario(name)
    c = atomize(d, n)
    assert c.positions[0] == d.support_min
    assert c.positions[-1] == d.support_max
    assert np.all(np.diff(c.positions) > 0.0)
    for a, b in zip(c.positions[:-1], c.positions[1:]):
        assert mass_between(d, a, b) == pytest.approx(c.particle_mass, abs=1e-12 * d.total_mass)
    # no initial gap below mass / sup-norm
    assert np.min(c.gaps()) >= c.particle_mass / d.sup_norm - 1e-12


@settings(deadline=None, max_examples=60)
@given(cells=piecewise_cells(positive_mass=True), n=st.integers(2, 64))
def test_equal_mass_partition_on_random_data(cells, n):
    d = from_piecewise(*cells)
    c = atomize(d, n)
    masses = [mass_between(d, a, b) for a, b in zip(c.positions[:-1], c.positions[1:])]
    np.testing.assert_allclose(masses, c.particle_mass, rtol=0.0, atol=1e-12 * d.total_mass)


@settings(deadline=None, max_examples=200)
@given(cells=piecewise_cells(positive_mass=True), shift=st.floats(-1e3, 1e3),
       n=st.integers(2, 4096))
def test_atomized_gaps_reach_the_floor_up_to_rounding(cells, shift, n):
    # the positions are rounded, so a gap may fall short of mass / sup_norm
    # by a few ulps of the largest |position|: under 4 in 4,000 random draws
    breakpoints, values = cells
    d = from_piecewise(breakpoints + shift, values)
    c = atomize(d, n)
    slack = 8.0 * np.spacing(np.max(np.abs(c.positions)))
    assert np.min(c.gaps()) >= c.particle_mass / d.sup_norm - slack


def quantile_loop(datum, n):
    """atomize's positions by one inversion of the CDF per interior edge,
    the scalar form that the vectorised ``atomize`` replaced."""
    cell_mass = datum.total_mass / n
    cum, positions = datum.cumulative_masses, np.empty(n + 1)
    positions[0], positions[n] = datum.support_min, datum.support_max
    for i in range(1, n):
        level = i * cell_mass
        j = int(np.searchsorted(cum, level, side="left"))
        if j < cum.size and cum[j] == level:
            positions[i] = datum.breakpoints[j]
        else:
            positions[i] = datum.breakpoints[j - 1] + (level - cum[j - 1]) / datum.values[j - 1]
    return positions


@settings(deadline=None, max_examples=200)
@given(cells=piecewise_cells(positive_mass=True), n=st.integers(2, 200),
       mode=st.sampled_from(["drawn", "dyadic", "mirrored"]))
def test_atomize_matches_the_scalar_inversion_bit_for_bit(cells, n, mode):
    breakpoints, values = cells
    widths = np.ceil(np.diff(breakpoints) * 8.0) / 8.0
    if mode == "dyadic":
        # widths and values on a grid of 1/8: every cell mass is a multiple of
        # 1/64, and N a multiple of 64 * total mass puts every cumulative
        # mass, the ends of the vacuum plateaus included, on a level or
        # within rounding of one (exactly on it when N / (64 * total) is 2)
        breakpoints = np.round(breakpoints[0]) + np.concatenate(([0.0], np.cumsum(widths)))
        values = np.ceil(values * 8.0) / 8.0
    elif mode == "mirrored":
        # a cell, a vacuum plateau and the same cell: with N a power of 2 the
        # middle level is exactly the plateau's cumulative mass, and the
        # cell's drawn value makes interpolating there round off its end
        w, v = widths[values > 0.0][0], values[values > 0.0][0]
        breakpoints = np.round(breakpoints[0]) + np.array([0.0, w, w + 1.0, 2.0 * w + 1.0])
        values = np.array([v, 0.0, v])
        n = 2 ** (1 + n % 7)
    d = from_piecewise(breakpoints, values)
    if mode == "dyadic":
        n = int(d.total_mass * 64.0) * (2 + n % 2)
    expected = quantile_loop(d, n)
    assert atomize(d, n).positions.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["box", "double_hump", "riemann_like", "sawtooth_bv"])
def test_dyadic_nesting(name):
    d = scenario(name)
    coarse = atomize(d, 16).positions
    fine = atomize(d, 32).positions
    np.testing.assert_allclose(coarse, fine[::2], atol=1e-12)


def test_particle_configuration_validation():
    with pytest.raises(ValueError):
        ParticleConfiguration(0.0, 0.5, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ParticleConfiguration(0.0, -1.0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ParticleConfiguration(-1.0, 0.5, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ParticleConfiguration(0.0, 0.5, np.array([0.0]))


def test_configuration_densities():
    c = ParticleConfiguration(0.0, 0.5, np.array([0.0, 0.5, 2.0]))
    np.testing.assert_allclose(c.densities(), [1.0, 1.0 / 3.0])
    assert c.max_density() == 1.0
    assert c.total_mass == 1.0


def test_scenarios_expected_shapes():
    saw = scenario("sawtooth_bv")
    np.testing.assert_allclose(saw.values, [1.0, 0.75, 0.5, 0.25])
    assert saw.total_mass == pytest.approx(1.25)
    rie = scenario("riemann_like")
    np.testing.assert_allclose(rie.breakpoints, [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(rie.values, [0.8, 0.2])
    with pytest.raises(ValueError):
        scenario("nope")


def test_datum_from_config():
    def datum(cfg):
        return ExperimentConfig.from_dict({"scenario": cfg}).datum

    d = datum({"name": "box", "height": 2.0})
    assert d.sup_norm == 2.0
    d2 = datum({"breakpoints": [0, 1], "values": [1.0]})
    assert d2.total_mass == 1.0
    with pytest.raises(ValueError):
        datum({})
