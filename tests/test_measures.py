import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    piecewise_cells,
    random_empirical,
    random_measure,
    random_piecewise_density,
)
from ftl1d import (
    EmpiricalMeasure,
    Greenshields,
    ParticleConfiguration,
    PiecewiseConstantDensity,
    PiecewiseMonotone,
    PipesMunjal,
    atomize,
    cdf,
    cdf_from_quantile,
    check_density,
    empirical,
    from_piecewise,
    hat_density,
    integrate,
    l1_distance,
    lagrangian_l1,
    pseudo_inverse,
    run_diagnostics,
    scenario,
    wasserstein,
    wasserstein_via_quantiles,
)


def config(positions, mass=0.5, time=0.0):
    return ParticleConfiguration(time, mass, np.asarray(positions, float))


# ---------------------------------------------------------------------------
# reconstructions

def test_hat_density_uniform():
    d = hat_density(config([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(d.values, [1.0, 1.0])
    assert d.total_mass == 1.0


def test_hat_density_uneven():
    d = hat_density(config([0.0, 0.5, 2.0]))
    np.testing.assert_allclose(d.values, [1.0, 1.0 / 3.0])
    assert d.total_mass == 1.0


def test_hat_density_mass_is_structural():
    c = atomize(scenario("double_hump"), 37)
    assert hat_density(c).total_mass == cdf(empirical(c)).range_top


def test_empirical_excludes_leader():
    m = empirical(config([0.0, 1.0]))
    np.testing.assert_array_equal(m.atoms, [0.0])
    assert m.weight == 0.5
    m2 = empirical(config([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(m2.atoms, [0.0, 0.5])
    assert m2.total_mass == 1.0


def test_check_density_matches_hat_cellwise():
    c = config([0.0, 0.5, 2.0])
    lag = check_density(c)
    np.testing.assert_allclose(lag.values, [1.0, 1.0 / 3.0])
    np.testing.assert_array_equal(lag.values, hat_density(c).values)
    assert lag.cell_mass == 0.5


# ---------------------------------------------------------------------------
# CDFs and pseudo-inverses

def test_cdf_of_unit_box_is_identity():
    F = cdf(from_piecewise([0.0, 1.0], [1.0]))
    xs = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(F.right_limits(xs), [0.0, 0.0, 0.25, 0.5, 1.0, 1.0])


def test_cdf_of_empirical_is_right_continuous_step():
    F = cdf(EmpiricalMeasure(np.array([0.0, 0.5]), 0.5))
    xs = np.array([-0.1, 0.0, 0.3, 0.5, 0.7])
    np.testing.assert_allclose(F.right_limits(xs), [0.0, 0.5, 0.5, 1.0, 1.0])
    assert F.left_limits(0.0) == 0.0
    assert F.left_limits(0.5) == 0.5


def test_cdf_tops_out_at_total_mass():
    for measure in (hat_density(config([0.0, 0.5, 2.0])),
                    EmpiricalMeasure(np.array([1.0, 2.0, 3.0]), 0.25),
                    scenario("sawtooth_bv")):
        F = cdf(measure)
        assert F.range_top == pytest.approx(measure.total_mass, rel=1e-12)


def test_pseudo_inverse_of_identity():
    F = cdf(from_piecewise([0.0, 1.0], [1.0]))
    X = pseudo_inverse(F)
    zs = np.array([0.0, 0.3, 0.99, 1.0])
    np.testing.assert_allclose(X.right_limits(zs), zs)


def test_pseudo_inverse_of_step_cdf():
    F = cdf(EmpiricalMeasure(np.array([0.0, 0.5]), 0.5))
    X = pseudo_inverse(F)
    assert X.value(0.0) == 0.0
    assert X.value(0.25) == 0.0
    assert X.value(0.5) == 0.5
    assert X.value(0.99) == 0.5
    assert X.value(1.0) == 0.5  # rightmost support point at the top


def test_pseudo_inverse_jumps_across_vacuum():
    d = from_piecewise([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0])
    X = pseudo_inverse(cdf(d))
    # at the plateau level the inverse lands at the vacuum gap's right edge
    assert X.value(0.5) == 1.5
    assert X.value(0.49999) == pytest.approx(0.49999)
    assert X.value(1.0) == 2.0


def test_pseudo_inverse_requires_monotone():
    with pytest.raises(ValueError):
        PiecewiseMonotone(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def test_quantile_round_trip_step():
    # repeated nodes at z = 0.25 and 0.5: jumps from -1 to 0 and from 0 to 2
    X = PiecewiseMonotone(np.array([0.0, 0.25, 0.25, 0.5, 0.5, 1.0]),
                          np.array([-1.0, -1.0, 0.0, 0.0, 2.0, 2.0]), domain=(0.0, 1.0))
    F = cdf_from_quantile(X)
    X2 = pseudo_inverse(F)
    np.testing.assert_array_equal(X2.breakpoints, X.breakpoints)
    np.testing.assert_array_equal(X2.values, X.values)
    assert X2.domain == X.domain


def test_quantile_round_trip_from_config():
    c = atomize(scenario("riemann_like"), 16)
    F = cdf(empirical(c))
    X = pseudo_inverse(F)
    F2 = cdf_from_quantile(X)
    np.testing.assert_allclose(F2.breakpoints, F.breakpoints)
    np.testing.assert_allclose(F2.values, F.values)


# ---------------------------------------------------------------------------
# distances

def test_wasserstein_two_atoms():
    a = EmpiricalMeasure(np.array([0.0]), 1.0)
    b = EmpiricalMeasure(np.array([1.0]), 1.0)
    assert wasserstein(a, b) == 1.0
    assert wasserstein_via_quantiles(a, b) == 1.0


def test_wasserstein_identical_measures():
    d = random_piecewise_density(np.random.default_rng(0))
    assert wasserstein(d, d) == 0.0


def test_wasserstein_box_vs_centered_atom():
    box = from_piecewise([0.0, 1.0], [1.0])
    atom = EmpiricalMeasure(np.array([0.5]), 1.0)
    assert wasserstein(box, atom) == pytest.approx(0.25, abs=1e-15)
    assert wasserstein_via_quantiles(box, atom) == pytest.approx(0.25, abs=1e-15)


def test_wasserstein_rejects_mass_mismatch():
    with pytest.raises(ValueError):
        wasserstein(EmpiricalMeasure(np.array([0.0]), 1.0),
                    EmpiricalMeasure(np.array([0.0]), 2.0))


def test_wasserstein_duality_on_random_pairs(rng):
    for _ in range(200):
        m1 = random_measure(rng)
        m2 = random_measure(rng)
        d_cdf = wasserstein(m1, m2)
        d_quant = wasserstein_via_quantiles(m1, m2)
        assert abs(d_cdf - d_quant) <= 1e-10


def test_wasserstein_symmetry_and_triangle(rng):
    for _ in range(60):
        m1, m2, m3 = (random_measure(rng) for _ in range(3))
        d12 = wasserstein(m1, m2)
        d21 = wasserstein(m2, m1)
        assert d12 == pytest.approx(d21, abs=1e-13)
        d13 = wasserstein(m1, m3)
        d23 = wasserstein(m2, m3)
        assert d13 <= d12 + d23 + 1e-12


def test_interleaving_identity_on_random_states(rng):
    for _ in range(25):
        n = int(rng.integers(2, 40))
        gaps = rng.uniform(0.05, 2.0, size=n)
        positions = np.concatenate(([rng.uniform(-3, 0)], )) + np.concatenate(
            ([0.0], np.cumsum(gaps)))
        c = ParticleConfiguration(0.0, float(rng.uniform(0.1, 2.0)), positions)
        expected = 0.5 * c.particle_mass * (positions[-1] - positions[0])
        got = wasserstein(hat_density(c), empirical(c))
        assert abs(got - expected) <= 1e-12 * expected


def test_hat_cdf_levels_are_the_empirical_levels():
    # m = 0.3 / 64: (m / g) * g rounds away from m in 6 of the 64 cells
    c = atomize(scenario("box", width=0.3), 64)
    levels = cdf(hat_density(c)).values
    atom_levels = cdf(empirical(c)).values
    assert levels[0] == 0.0
    np.testing.assert_array_equal(levels[1:], atom_levels[1::2])


def test_interleaving_identity_on_seeded_box_pipes_munjal():
    # A box of width lam under Pipes-Munjal (alpha 2, v_max lam) at N=512;
    # with CDF levels summed from value * width, the identity was off by
    # up to 3.6e-12 relative at the five samples.
    lam = 0.9823828312683816
    datum = scenario("box", height=1.0, width=lam)
    model = PipesMunjal(lam, 2.0)
    tr = integrate(atomize(datum, 512), model, 1.0, None, np.linspace(0.0, 1.0, 5))
    report = run_diagnostics(tr, model, datum, 0.25)
    assert report.interleaving_max_rel_error <= 1e-12
    assert report.passed


def test_cell_cdf_below_atom_cdf_everywhere():
    c = atomize(scenario("double_hump"), 32)
    tr = integrate(c, Greenshields(1.0), 0.4, None, [0.4])
    state = tr.states[-1]
    F_hat = cdf(hat_density(state))
    F_til = cdf(empirical(state))
    xs = np.unique(np.concatenate((F_hat.breakpoints, F_til.breakpoints)))
    xs = np.unique(np.concatenate((xs, 0.5 * (xs[:-1] + xs[1:]))))
    assert np.all(F_hat.right_limits(xs) <= F_til.right_limits(xs) + 1e-12)
    X_hat = pseudo_inverse(F_hat)
    X_til = pseudo_inverse(F_til)
    zs = np.linspace(0.0, state.total_mass, 503)
    assert np.all(X_til.right_limits(zs) <= X_hat.right_limits(zs) + 1e-12)


def test_l1_distance_examples():
    box01 = from_piecewise([0.0, 1.0], [1.0])
    box12 = from_piecewise([1.0, 2.0], [1.0])
    half = from_piecewise([0.0, 1.0], [0.5])
    assert l1_distance(box01, box01) == 0.0
    assert l1_distance(box01, box12) == 2.0
    assert l1_distance(box01, half) == 0.5


@settings(deadline=None, max_examples=60)
@given(a=piecewise_cells(), b=piecewise_cells(), c=piecewise_cells())
def test_l1_distance_symmetry_and_triangle(a, b, c):
    da, db, dc = (PiecewiseConstantDensity(*cells) for cells in (a, b, c))
    assert l1_distance(da, db) == l1_distance(db, da)
    scale = da.total_mass + db.total_mass + dc.total_mass
    assert l1_distance(da, dc) <= l1_distance(da, db) + l1_distance(db, dc) + 1e-12 * scale


@settings(deadline=None, max_examples=60)
@given(cells=piecewise_cells(positive_mass=True))
def test_cdf_nodes_are_the_datum_cumulative_masses(cells):
    bp, vals = cells
    d = from_piecewise(bp, vals)
    F = cdf(d)
    nodes = np.concatenate(([0.0], np.cumsum(vals * np.diff(bp))))
    np.testing.assert_array_equal(F.breakpoints, bp)
    np.testing.assert_array_equal(F.values, nodes)
    np.testing.assert_array_equal(F.values, d.cdf_values(bp))


def test_l1_distance_merges_breakpoints():
    a = PiecewiseConstantDensity(np.array([0.0, 1.0]), np.array([1.0]))
    b = PiecewiseConstantDensity(np.array([0.5, 1.5]), np.array([1.0]))
    assert l1_distance(a, b) == pytest.approx(1.0, abs=1e-15)


def test_lagrangian_l1():
    a = check_density(config([0.0, 0.5, 2.0]))
    b = check_density(config([0.0, 1.0, 2.0]))
    got = lagrangian_l1(a, b)
    assert got == pytest.approx(0.5 * (abs(1.0 - 0.5) + abs(1 / 3 - 0.5)), abs=1e-15)
    with pytest.raises(ValueError):
        lagrangian_l1(a, check_density(config([0.0, 1.0])))


def test_empirical_duplicate_atoms_are_merged_in_cdf(rng):
    m = EmpiricalMeasure(np.array([0.0, 0.5, 0.5, 1.0]), 0.25)
    F = cdf(m)
    np.testing.assert_array_equal(F.right_limits([0.0, 0.5, 1.0]), [0.25, 0.75, 1.0])
    assert F.left_limits(0.5) == 0.25
    other = random_empirical(rng, total_mass=1.0)
    assert abs(wasserstein(m, other) - wasserstein_via_quantiles(m, other)) <= 1e-10
