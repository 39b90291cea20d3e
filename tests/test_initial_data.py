import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import piecewise_cells
from ftl1d import initial_data
from ftl1d.initial_data import (
    ParticleConfiguration,
    atomize,
    from_piecewise,
    mass_between,
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


def test_mass_between_examples():
    box = from_piecewise([0.0, 1.0], [1.0])
    assert mass_between(box, 0.0, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert mass_between(box, -5.0, -1.0) == 0.0
    halves = from_piecewise([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0])
    assert mass_between(halves, 0.25, 1.75) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        mass_between(box, 1.0, 0.0)


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
    d = initial_data.datum_from_config({"name": "box", "height": 2.0})
    assert d.sup_norm == 2.0
    d2 = initial_data.datum_from_config({"breakpoints": [0, 1], "values": [1.0]})
    assert d2.total_mass == 1.0
    with pytest.raises(ValueError):
        initial_data.datum_from_config({})
