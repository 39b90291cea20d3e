import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import piecewise_cells
from ftl1d import (
    CustomVelocity,
    Greenshields,
    ModifiedGreenberg,
    PiecewiseConstantDensity,
    PipesMunjal,
    Underwood,
    UnsupportedFluxError,
    atomize,
    from_piecewise,
    godunov,
    godunov_flux,
    hat_density,
    integrate,
    riemann_eval,
    riemann_l1_error,
    riemann_mass,
    riemann_solve,
    scenario,
)
from ftl1d.reference import check_concave_flux
from ftl1d.velocity import VelocityModel


def test_shock_classification_and_speed():
    sol = riemann_solve(Greenshields(1.0), 0.2, 0.8)
    assert sol.kind == "shock"
    assert sol.shock_speed == pytest.approx(0.0, abs=1e-15)


def test_rarefaction_fan_speeds():
    sol = riemann_solve(Greenshields(1.0), 0.8, 0.2)
    assert sol.kind == "rarefaction"
    assert sol.fan_left == pytest.approx(-0.6)
    assert sol.fan_right == pytest.approx(0.6)
    assert sol.fan_left <= sol.fan_right


def test_equal_states_constant():
    sol = riemann_solve(Underwood(1.0), 0.4, 0.4)
    assert sol.kind == "constant"
    assert riemann_eval(sol, Underwood(1.0), 1.0, 123.0) == 0.4


def test_shocks_only_for_upward_jumps():
    for rl, rr in [(0.1, 0.9), (0.3, 0.35)]:
        assert riemann_solve(Greenshields(1.0), rl, rr).kind == "shock"
    for rl, rr in [(0.9, 0.1), (0.35, 0.3)]:
        assert riemann_solve(Greenshields(1.0), rl, rr).kind == "rarefaction"


def test_non_concave_flux_rejected():
    bumpy = CustomVelocity(v_func=lambda r: 1.0 - np.asarray(r) + 0.6 * np.asarray(r) ** 2,
                           v_max=1.0,
                           v_prime_func=lambda r: -1.0 + 1.2 * np.asarray(r))
    assert not check_concave_flux(bumpy, 1.0)
    with pytest.raises(UnsupportedFluxError):
        riemann_solve(bumpy, 0.2, 0.9)
    with pytest.raises(UnsupportedFluxError):
        godunov(from_piecewise([0.0, 1.0], [1.0]), bumpy, 0.01, 0.5, 0.1)


def test_shock_evaluation():
    model = Greenshields(1.0)
    sol = riemann_solve(model, 0.2, 0.8)
    assert riemann_eval(sol, model, 1.0, -0.5) == 0.2
    assert riemann_eval(sol, model, 1.0, 0.5) == 0.8


def test_fan_evaluation_center_and_edges():
    model = Greenshields(1.0)
    sol = riemann_solve(model, 0.8, 0.2)
    assert riemann_eval(sol, model, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert riemann_eval(sol, model, 1.0, -0.7) == 0.8
    assert riemann_eval(sol, model, 1.0, 0.7) == 0.2
    # continuity across the fan edges
    for edge, state in ((-0.6, 0.8), (0.6, 0.2)):
        inner = riemann_eval(sol, model, 1.0, edge * (1 - 1e-12))
        assert abs(inner - state) <= 1e-9
    xs = np.linspace(-0.8, 0.8, 401)
    vals = riemann_eval(sol, model, 1.0, xs)
    assert np.all(np.diff(vals) <= 1e-12)
    with pytest.raises(ValueError):
        riemann_eval(sol, model, 0.0, 0.0)


def test_fan_mass_matches_linear_profile():
    # linear-law fans have an affine density profile, so the mass over the
    # fan equals the average of the end states times the width
    model = Greenshields(1.0)
    sol = riemann_solve(model, 0.8, 0.2)
    assert riemann_mass(sol, model, 1.0, -0.6, 0.6) == pytest.approx(0.6, abs=1e-12)
    assert riemann_mass(sol, model, 1.0, -2.0, -0.6) == pytest.approx(0.8 * 1.4, abs=1e-12)
    assert riemann_mass(sol, model, 2.0, 1.2, 5.0) == pytest.approx(0.2 * 3.8, abs=1e-12)


def test_fan_mass_against_quadrature_nonlinear_law():
    model = Underwood(1.0)
    sol = riemann_solve(model, 0.9, 0.1)
    a, b = sol.fan_left * 2.0, sol.fan_right * 2.0
    xs = np.linspace(a, b, 20001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    quad = float(np.sum(riemann_eval(sol, model, 2.0, mids) * np.diff(xs)))
    assert riemann_mass(sol, model, 2.0, a, b) == pytest.approx(quad, abs=1e-6)


def test_shock_mass_split():
    model = Greenshields(1.0)
    sol = riemann_solve(model, 0.2, 0.8)
    assert riemann_mass(sol, model, 1.0, -1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert riemann_mass(sol, model, 1.0, -1.0, -0.5) == pytest.approx(0.1, abs=1e-15)


def test_godunov_flux_examples():
    model = Greenshields(1.0)
    assert godunov_flux(model, 0.2, 0.8) == pytest.approx(0.16, abs=1e-15)
    assert godunov_flux(model, 0.8, 0.2) == pytest.approx(0.25, abs=1e-15)
    assert godunov_flux(model, 0.3, 0.3) == model.flux(0.3)


def test_godunov_flux_consistency_all_models():
    models = [Greenshields(1.3), PipesMunjal(1.0, 2.0), Underwood(0.8),
              ModifiedGreenberg(1.0, 0.2)]
    for model in models:
        for rho in (0.0, 0.2, 0.7, 1.0):
            assert godunov_flux(model, rho, rho) == pytest.approx(model.flux(rho), abs=1e-12)


def test_godunov_flux_vectorized_matches_scalar():
    model = PipesMunjal(1.0, 2.0)
    rng = np.random.default_rng(7)
    left = rng.uniform(0.0, 1.0, 50)
    right = rng.uniform(0.0, 1.0, 50)
    vec = godunov_flux(model, left, right)
    scalar = np.array([godunov_flux(model, l, r) for l, r in zip(left, right)])
    np.testing.assert_allclose(vec, scalar, atol=1e-14)


def test_critical_density_closed_forms_and_search():
    assert Greenshields(1.0).critical_density(1.0) == 0.5
    assert PipesMunjal(1.0, 2.0).critical_density(1.0) == pytest.approx(3 ** -0.5)
    assert Underwood(1.0).critical_density(2.0) == 1.0
    model = ModifiedGreenberg(1.0, 0.2)
    star = model.critical_density(1.0)
    eps = 1e-7
    assert model.flux(star) >= model.flux(star - eps) - 1e-12
    assert model.flux(star) >= model.flux(star + eps) - 1e-12


def test_godunov_constant_state_preserved_inside():
    model = Greenshields(1.0)
    datum = from_piecewise([0.0, 4.0], [0.6])
    density = godunov(datum, model, dx=0.02, cfl=0.5, t_end=0.5)
    mids = 0.5 * (density.breakpoints[:-1] + density.breakpoints[1:])
    inner = (mids > 1.6) & (mids < 2.4)
    np.testing.assert_allclose(density.values[inner], 0.6, atol=1e-12)
    assert density.total_mass == pytest.approx(datum.total_mass, rel=1e-12)


def test_godunov_vacuum_stays_empty_far_from_support():
    model = Greenshields(1.0)
    datum = scenario("double_hump")
    density = godunov(datum, model, dx=0.05, cfl=0.5, t_end=0.25)
    mids = 0.5 * (density.breakpoints[:-1] + density.breakpoints[1:])
    far_left = mids < datum.support_min - 1.0
    assert np.all(density.values[far_left] == 0.0)


def test_godunov_maximum_principle_and_mass():
    model = PipesMunjal(1.0, 2.0)
    datum = scenario("riemann_like")
    density = godunov(datum, model, dx=0.01, cfl=0.5, t_end=0.5)
    assert np.min(density.values) >= -1e-13
    assert np.max(density.values) <= datum.sup_norm + 1e-13
    assert density.total_mass == pytest.approx(datum.total_mass, rel=1e-12)


def test_godunov_first_order_convergence_to_riemann():
    model = Greenshields(1.0)
    datum = scenario("riemann_like")
    sol = riemann_solve(model, 0.8, 0.2)
    window = (-0.5, 0.5)
    errors = []
    for dx in (0.04, 0.02, 0.01):
        density = godunov(datum, model, dx=dx, cfl=0.5, t_end=0.5)
        errors.append(riemann_l1_error(density, sol, model, 0.5, window))
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] > 2.0


def test_godunov_input_validation():
    datum = scenario("box")
    model = Greenshields(1.0)
    with pytest.raises(ValueError):
        godunov(datum, model, dx=-0.1, cfl=0.5, t_end=1.0)
    with pytest.raises(ValueError):
        godunov(datum, model, dx=0.1, cfl=1.5, t_end=1.0)
    with pytest.raises(ValueError):
        riemann_solve(model, -0.1, 0.5)


def test_riemann_l1_error_exact_on_matching_profile():
    # a fine piecewise sampling of the exact solution has tiny L1 error
    model = Greenshields(1.0)
    sol = riemann_solve(model, 0.8, 0.2)
    t = 0.5
    edges = np.linspace(-0.5, 0.5, 4001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = riemann_eval(sol, model, t, mids)
    approx = PiecewiseConstantDensity(edges, vals)
    err = riemann_l1_error(approx, sol, model, t, (-0.5, 0.5))
    assert err < 1e-4
    # and the particle reconstruction at moderate resolution is close too
    tr = integrate(atomize(scenario("riemann_like"), 256), model, t, None, [t])
    assert riemann_l1_error(hat_density(tr.states[-1]), sol, model, t, (-0.5, 0.5)) < 0.02


@pytest.mark.parametrize("name", ["box", "double_hump", "sawtooth_bv"])
def test_godunov_default_pad_covers_stencil_reach(name):
    # 60 steps of the upwind stencil reach 1.2 past the support, beyond the
    # wave-speed pad of 0.62; mass used to leak out of the last cell
    datum = scenario(name)
    density = godunov(datum, PipesMunjal(1.0, 2.0), dx=0.02, cfl=0.5, t_end=0.3)
    assert density.values[-1] == 0.0
    assert density.total_mass == pytest.approx(datum.total_mass, rel=1e-12)


def test_fan_into_vacuum_for_pipes_munjal_below_one():
    # v'(0) diverges for alpha < 1, yet f'(0) = v(0) + 0 * v'(0) = v_max
    sol = riemann_solve(PipesMunjal(1.0, 0.5), 0.5, 0.0)
    assert sol.kind == "rarefaction"
    assert sol.fan_right == 1.0


_LAWS = st.one_of(
    st.builds(Greenshields, st.floats(0.2, 3.0)),
    st.builds(PipesMunjal, st.floats(0.2, 3.0), st.floats(0.25, 4.0)),
    st.builds(Underwood, st.floats(0.2, 3.0)),
)
_STATES = st.floats(0.0, 1.5)
_TIMES = st.floats(0.05, 2.0)


@settings(deadline=None, max_examples=30)
@given(cells=piecewise_cells(positive_mass=True), model=_LAWS, t_end=st.floats(0.0, 0.5))
def test_godunov_conserves_mass_on_random_data(cells, model, t_end):
    datum = from_piecewise(*cells)
    density = godunov(datum, model, dx=0.05, cfl=0.5, t_end=t_end)
    assert abs(density.total_mass - datum.total_mass) <= 1e-12 * datum.total_mass


@settings(deadline=None, max_examples=60)
@given(model=_LAWS, rho_l=_STATES, rho_r=_STATES, t=_TIMES,
       ends=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 4.0)),
                     min_size=1, max_size=12))
def test_riemann_mass_array_matches_scalar(model, rho_l, rho_r, t, ends):
    sol = riemann_solve(model, rho_l, rho_r)
    a = np.array([lo for lo, _ in ends])
    b = a + np.array([width for _, width in ends])
    scalar = [riemann_mass(sol, model, t, x, y) for x, y in zip(a, b)]
    assert all(type(m) is float for m in scalar)
    np.testing.assert_array_equal(riemann_mass(sol, model, t, a, b), scalar)


@settings(deadline=None, max_examples=60)
@given(model=_LAWS, rho_l=_STATES, rho_r=_STATES, t=_TIMES,
       points=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
def test_riemann_mass_is_additive(model, rho_l, rho_r, t, points):
    a, b, c = sorted(points)
    sol = riemann_solve(model, rho_l, rho_r)
    split = riemann_mass(sol, model, t, a, b) + riemann_mass(sol, model, t, b, c)
    assert abs(split - riemann_mass(sol, model, t, a, c)) <= 1e-13


@settings(deadline=None, max_examples=40)
@given(model=_LAWS, rho_l=_STATES, rho_r=_STATES, t=_TIMES,
       values=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=30),
       window=st.tuples(st.floats(-3.0, 0.0), st.floats(0.01, 3.0)))
def test_riemann_l1_error_nonnegative(model, rho_l, rho_r, t, values, window):
    sol = riemann_solve(model, rho_l, rho_r)
    edges = np.linspace(-2.0, 2.0, len(values) + 1)
    vals = np.asarray(values)
    density = PiecewiseConstantDensity(edges, vals)
    assert riemann_l1_error(density, sol, model, t, window) >= 0.0


@settings(deadline=None, max_examples=40)
@given(model=_LAWS, rho_l=_STATES, rho_r=_STATES, t=_TIMES,
       cuts=st.lists(st.floats(-3.0, 3.0), max_size=10),
       window=st.tuples(st.floats(-4.0, 0.0), st.floats(0.01, 4.0)))
def test_riemann_l1_error_vanishes_on_exact_piecewise_solution(model, rho_l, rho_r, t,
                                                               cuts, window):
    # shocks and constant states are piecewise constant, so a profile cut at
    # the shock reproduces them exactly
    rho_l, rho_r = min(rho_l, rho_r), max(rho_l, rho_r)
    sol = riemann_solve(model, rho_l, rho_r)
    jump = [sol.shock_speed * t] if sol.kind == "shock" else []
    edges = np.unique(np.concatenate(([-5.0, 5.0], cuts, jump)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = riemann_eval(sol, model, t, mids)
    density = PiecewiseConstantDensity(edges, vals)
    assert 0.0 <= riemann_l1_error(density, sol, model, t, window) <= 1e-14


@settings(deadline=None, max_examples=60)
@given(v_max=st.floats(0.1, 3.0), alpha=st.floats(0.1, 5.0), hi=st.floats(0.01, 3.0))
def test_critical_density_closed_forms_match_search(v_max, alpha, hi):
    # the golden-section search resolves the argmax only to about sqrt(eps),
    # where flux differences drop below rounding; compare positions at that
    # resolution and the flux values tightly
    for model in (PipesMunjal(v_max, alpha), Greenshields(v_max), Underwood(v_max)):
        closed = model.critical_density(hi)
        searched = VelocityModel.critical_density(model, hi)
        assert 0.0 <= closed <= hi
        assert abs(closed - searched) <= 1e-7
        assert model.flux(closed) == pytest.approx(model.flux(searched), rel=1e-14)


def test_riemann_l1_error_pinned_values():
    model = Greenshields(1.0)
    sol = riemann_solve(model, 0.8, 0.2)
    t = 0.5
    edges = np.linspace(-0.5, 0.5, 4001)
    vals = riemann_eval(sol, model, t, 0.5 * (edges[:-1] + edges[1:]))
    fine = PiecewiseConstantDensity(edges, vals)
    # each piece's error is a difference of O(0.1) fan primitives taken at
    # bisection accuracy, so this small sum is pinned in absolute terms
    assert riemann_l1_error(fine, sol, model, t, (-0.5, 0.5)) == pytest.approx(
        3.749999912417501e-05, abs=1e-12)
    tr = integrate(atomize(scenario("riemann_like"), 256), model, t, None, [t])
    err = riemann_l1_error(hat_density(tr.states[-1]), sol, model, t, (-0.5, 0.5))
    assert err == pytest.approx(0.009049888026128463, rel=1e-12)
