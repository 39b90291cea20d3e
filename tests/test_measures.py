import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    particle_states,
    piecewise_cells,
    pseudo_inverse,
    random_empirical,
    random_measure,
    random_piecewise_density,
    same_grid_pairs,
    staircase,
    wasserstein_via_quantiles,
)
from ftl1d import (
    Greenshields,
    ParticleConfiguration,
    PiecewiseConstantDensity,
    PiecewiseMonotone,
    PipesMunjal,
    atomize,
    cdf,
    empirical,
    from_piecewise,
    hat_density,
    integrate,
    l1_distance,
    run_diagnostics,
    scenario,
    wasserstein,
)
from oracles import lagrangian_l1, lagrangian_wasserstein


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
    F = empirical(config([0.0, 1.0]))
    np.testing.assert_array_equal(F.breakpoints, [0.0, 0.0])
    np.testing.assert_array_equal(F.values, [0.0, 0.5])
    F2 = empirical(config([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(F2.breakpoints, [0.0, 0.0, 0.5, 0.5])
    np.testing.assert_array_equal(F2.values, [0.0, 0.5, 0.5, 1.0])
    assert F2.range_top == 1.0


# ---------------------------------------------------------------------------
# CDFs and pseudo-inverses

def test_cdf_of_unit_box_is_identity():
    F = cdf(from_piecewise([0.0, 1.0], [1.0]))
    xs = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(F.right_limits(xs), [0.0, 0.0, 0.25, 0.5, 1.0, 1.0])


def test_cdf_of_empirical_is_right_continuous_step():
    F = cdf(empirical(config([0.0, 0.5, 1.0])))
    xs = np.array([-0.1, 0.0, 0.3, 0.5, 0.7])
    np.testing.assert_allclose(F.right_limits(xs), [0.0, 0.5, 0.5, 1.0, 1.0])
    assert F.left_limits(0.0) == 0.0
    assert F.left_limits(0.5) == 0.5


def test_cdf_tops_out_at_total_mass():
    for measure in (hat_density(config([0.0, 0.5, 2.0])),
                    scenario("sawtooth_bv")):
        F = cdf(measure)
        assert F.range_top == pytest.approx(measure.total_mass, rel=1e-12)
    c = config([1.0, 2.0, 3.0, 4.0], mass=0.25)
    assert cdf(empirical(c)).range_top == c.total_mass


def test_cdf_refuses_other_inputs():
    with pytest.raises(TypeError, match="ndarray"):
        cdf(np.array([0.0, 1.0]))


def test_pseudo_inverse_of_identity():
    F = cdf(from_piecewise([0.0, 1.0], [1.0]))
    X = pseudo_inverse(F)
    zs = np.array([0.0, 0.3, 0.99, 1.0])
    np.testing.assert_allclose(X.right_limits(zs), zs)


def test_pseudo_inverse_of_step_cdf():
    F = empirical(config([0.0, 0.5, 1.0]))
    X = pseudo_inverse(F)
    # the last value is the rightmost support point at the top
    np.testing.assert_array_equal(X.right_limits([0.0, 0.25, 0.5, 0.99, 1.0]),
                                  [0.0, 0.0, 0.5, 0.5, 0.5])


def test_pseudo_inverse_jumps_across_vacuum():
    d = from_piecewise([0.0, 0.5, 1.5, 2.0], [1.0, 0.0, 1.0])
    X = pseudo_inverse(cdf(d))
    # at the plateau level the inverse lands at the vacuum gap's right edge
    assert X.right_limits(0.5) == 1.5
    assert X.right_limits(0.49999) == pytest.approx(0.49999)
    assert X.right_limits(1.0) == 2.0


def test_pseudo_inverse_requires_monotone():
    with pytest.raises(ValueError):
        PiecewiseMonotone(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize(("breakpoints", "values", "message"), [
    ([1.0, 0.0], [0.0, 1.0], "breakpoints must be non-decreasing"),
    ([0.0, 1.0], [0.0], "breakpoints and values must be nonempty 1-d arrays of one size"),
    ([], [], "breakpoints and values must be nonempty 1-d arrays of one size"),
    ([[0.0, 1.0]], [[0.0, 1.0]], "breakpoints and values must be nonempty 1-d arrays of one size"),
], ids=["falling_breakpoints", "unequal_sizes", "empty", "two_d"])
def test_piecewise_monotone_refuses_what_is_not_a_monotone_polyline(breakpoints, values,
                                                                    message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PiecewiseMonotone(np.array(breakpoints), np.array(values))


@st.composite
def polylines(draw):
    """A non-decreasing polyline on 1-8 distinct nodes, each repeated 1-3
    times: a repeated node is a jump."""
    nodes = sorted(set(draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(nodes), max_size=len(nodes)))
    rises = draw(st.lists(st.floats(0.0, 2.0), min_size=sum(repeats), max_size=sum(repeats)))
    return PiecewiseMonotone(np.repeat(nodes, repeats), np.cumsum(rises))


@settings(deadline=None, max_examples=300)
@given(F=polylines(), u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_one_sided_limits_at_between_and_outside_the_nodes(F, u):
    bp, vals = F.breakpoints, F.values
    nodes = np.unique(bp)
    first = np.searchsorted(bp, nodes, side="left")
    last = np.searchsorted(bp, nodes, side="right") - 1
    # at a node: the last node's value from the right, the first's from the left
    np.testing.assert_array_equal(F.right_limits(nodes), vals[last])
    np.testing.assert_array_equal(F.left_limits(nodes), vals[first])
    # strictly between two nodes: both interpolate between the nodes around x
    x0, x1 = nodes[:-1], nodes[1:]
    x = x0 + u * (x1 - x0)
    inside = (x0 < x) & (x < x1)
    x0, x1, x = x0[inside], x1[inside], x[inside]
    a, b = last[:-1][inside], first[1:][inside]
    w = (x - x0) / (x1 - x0)
    between = vals[a] + w * (vals[b] - vals[a])
    np.testing.assert_array_equal(F.right_limits(x), between)
    np.testing.assert_array_equal(F.left_limits(x), between)
    # outside the nodes: the end values
    outside = [-np.inf, bp[0] - 1.0, np.nextafter(bp[0], -np.inf),
               np.nextafter(bp[-1], np.inf), bp[-1] + 1.0, np.inf]
    ends = [vals[0]] * 3 + [vals[-1]] * 3
    np.testing.assert_array_equal(F.right_limits(outside), ends)
    np.testing.assert_array_equal(F.left_limits(outside), ends)


@settings(deadline=None, max_examples=200)
@given(cells=piecewise_cells(), u=st.floats(0.0, 1.0, exclude_max=True))
def test_values_at_reads_the_cell_holding_x_and_zero_outside(cells, u):
    d = PiecewiseConstantDensity(*cells)
    bp = d.breakpoints
    # a cell [b_k, b_k+1) holds its left end
    np.testing.assert_array_equal(d.values_at(bp[:-1]), d.values)
    x = bp[:-1] + u * np.diff(bp)
    inside = (bp[:-1] <= x) & (x < bp[1:])
    np.testing.assert_array_equal(d.values_at(x[inside]), d.values[inside])
    outside = [-np.inf, bp[0] - 1.0, np.nextafter(bp[0], -np.inf), bp[-1], bp[-1] + 1.0,
               np.inf]
    np.testing.assert_array_equal(d.values_at(outside), np.zeros(6))


def test_quantile_round_trip_step():
    # repeated nodes at z = 0.25 and 0.5: jumps from -1 to 0 and from 0 to 2
    X = PiecewiseMonotone(np.array([0.0, 0.25, 0.25, 0.5, 0.5, 1.0]),
                          np.array([-1.0, -1.0, 0.0, 0.0, 2.0, 2.0]))
    # its CDF swaps the axes: plateaus of X are jumps of F and vice versa
    X2 = pseudo_inverse(PiecewiseMonotone(X.values, X.breakpoints))
    np.testing.assert_array_equal(X2.breakpoints, X.breakpoints)
    np.testing.assert_array_equal(X2.values, X.values)


# ---------------------------------------------------------------------------
# distances

def test_wasserstein_two_atoms():
    a = staircase([0.0], 1.0)
    b = staircase([1.0], 1.0)
    assert wasserstein(a, b) == 1.0
    assert wasserstein_via_quantiles(a, b) == 1.0


def test_wasserstein_identical_measures():
    d = random_piecewise_density(np.random.default_rng(0))
    assert wasserstein(d, d) == 0.0


def test_wasserstein_box_vs_centered_atom():
    box = from_piecewise([0.0, 1.0], [1.0])
    atom = staircase([0.5], 1.0)
    assert wasserstein(box, atom) == pytest.approx(0.25, abs=1e-15)
    assert wasserstein_via_quantiles(box, atom) == pytest.approx(0.25, abs=1e-15)


def test_wasserstein_of_two_equal_atoms_is_zero():
    # both CDFs jump at one node, so the merged mesh has no interval
    assert wasserstein(staircase([0.0], 1.0), staircase([0.0], 1.0)) == 0.0


def test_wasserstein_rejects_mass_mismatch():
    with pytest.raises(ValueError):
        wasserstein(staircase([0.0], 1.0), staircase([0.0], 2.0))


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


def _interleaving_error(c):
    """Relative error of W1(cell density, atoms) = m * span / 2 on one state."""
    expected = 0.5 * c.particle_mass * (c.positions[-1] - c.positions[0])
    return abs(wasserstein(hat_density(c), empirical(c)) - expected) / expected


@settings(deadline=None, max_examples=300)
@given(state=particle_states(), left=st.floats(-10.0, 10.0),
       scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
def test_interleaving_identity_on_random_states(state, left, scale):
    # translated and scaled states too: the identity's roundoff once showed
    # on translated data
    positions = left + scale * (state.positions - state.positions[0])
    c = ParticleConfiguration(0.0, state.particle_mass, positions)
    assert _interleaving_error(c) <= 1e-12


def test_hat_cdf_levels_are_the_empirical_levels():
    # m = 0.3 / 64: (m / g) * g rounds away from m in 6 of the 64 cells
    c = atomize(scenario("box", width=0.3), 64)
    levels = cdf(hat_density(c)).values
    atom_levels = cdf(empirical(c)).values
    assert levels[0] == 0.0
    np.testing.assert_array_equal(levels[1:], atom_levels[1::2])


@settings(deadline=None, max_examples=100)
@given(state=particle_states())
def test_empirical_staircase_levels_are_the_hat_cumulative_masses(state):
    F = empirical(state)
    cum = hat_density(state).cumulative_masses
    np.testing.assert_array_equal(F.values, np.repeat(cum, 2)[1:-1])
    np.testing.assert_array_equal(F.breakpoints, np.repeat(state.positions[:-1], 2))
    # the same nodes as the CDF of the atoms with their common weight
    G = staircase(state.positions[:-1], state.particle_mass)
    np.testing.assert_array_equal(F.breakpoints, G.breakpoints)
    np.testing.assert_array_equal(F.values, G.values)


def test_interleaving_identity_on_seeded_box_pipes_munjal():
    # A box of width lam under Pipes-Munjal (alpha 2, v_max lam) at N=512;
    # with CDF levels summed from value * width, the identity was off by
    # up to 3.6e-12 relative at the five samples.
    lam = 0.9823828312683816
    datum = scenario("box", height=1.0, width=lam)
    model = PipesMunjal(lam, 2.0)
    tr = integrate(atomize(datum, 512), model, 1.0, None, np.linspace(0.0, 1.0, 5))
    assert max(map(_interleaving_error, tr.states)) <= 1e-12
    assert run_diagnostics(tr, model, datum, 0.25).passed


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
    a = hat_density(config([0.0, 0.5, 2.0]))
    b = hat_density(config([0.0, 1.0, 2.0]))
    got = lagrangian_l1(a, b)
    assert got == pytest.approx(0.5 * (abs(1.0 - 0.5) + abs(1 / 3 - 0.5)), abs=1e-15)


def test_lagrangian_l1_needs_one_mass_grid():
    # lagrangian_wasserstein reads the same mass cells behind the same guard
    a = hat_density(config([0.0, 0.5, 2.0]))
    datum = from_piecewise([0.0, 0.5, 2.0], [1.0, 1.0 / 3.0])   # no cell_mass
    for other in (datum,
                  hat_density(config([0.0, 0.5, 2.0], mass=0.25)),
                  hat_density(config([0.0, 1.0]))):
        for distance in (lagrangian_l1, lagrangian_wasserstein):
            with pytest.raises(ValueError, match="one cell_mass"):
                distance(a, other)
            with pytest.raises(ValueError, match="one cell_mass"):
                distance(other, a)


def test_lagrangian_wasserstein_two_cells():
    # quantiles 0 -> 0.5 -> 2 and 0 -> 1 -> 2 on the mass cells [0, 0.5], [0.5, 1]
    a = hat_density(config([0.0, 0.5, 2.0]))
    b = hat_density(config([0.0, 1.0, 2.0]))
    assert lagrangian_wasserstein(a, b) == pytest.approx(2 * 0.5 * 0.5 * 0.5, abs=1e-15)
    assert lagrangian_wasserstein(a, b) == pytest.approx(wasserstein(a, b), abs=1e-15)


@settings(deadline=None, max_examples=200)
@given(pair=same_grid_pairs())
def test_lagrangian_wasserstein_is_the_merged_distance(pair):
    a, b = map(hat_density, pair)
    got = lagrangian_wasserstein(a, b)
    # a pair that differs only by roundoff leaves a distance at the rounding
    # level of the positions, where no relative bound holds
    roundoff = 1e-14 * a.total_mass * max(np.max(np.abs(a.breakpoints)),
                                          np.max(np.abs(b.breakpoints)))
    assert got == pytest.approx(wasserstein(a, b), rel=1e-12, abs=roundoff)
    assert lagrangian_wasserstein(b, a) == got
    assert lagrangian_wasserstein(a, a) == 0.0
    assert lagrangian_wasserstein(a, hat_density(pair[0])) == 0.0


@settings(deadline=None, max_examples=100)
@given(state=particle_states(), shift=st.floats(0.5, 4.0), left=st.booleans())
def test_lagrangian_wasserstein_of_a_rigid_shift(state, shift, left):
    s = -shift if left else shift
    moved = config(state.positions + s, mass=state.particle_mass)
    got = lagrangian_wasserstein(hat_density(state), hat_density(moved))
    assert got == pytest.approx(state.total_mass * shift, rel=1e-12)


def test_empirical_duplicate_atoms_are_merged_in_cdf(rng):
    m = staircase([0.0, 0.5, 0.5, 1.0], 0.25)
    F = cdf(m)
    np.testing.assert_array_equal(F.right_limits([0.0, 0.5, 1.0]), [0.25, 0.75, 1.0])
    assert F.left_limits(0.5) == 0.25
    other = random_empirical(rng, total_mass=1.0)
    assert abs(wasserstein(m, other) - wasserstein_via_quantiles(m, other)) <= 1e-10
