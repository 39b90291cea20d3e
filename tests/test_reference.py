import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import piecewise_cells
from ftl1d import (
    Greenshields,
    ModifiedGreenberg,
    PiecewiseConstantDensity,
    PipesMunjal,
    TabulatedVelocity,
    Underwood,
    UnsupportedFluxError,
    atomize,
    entropy_mass,
    from_piecewise,
    godunov,
    hat_density,
    integrate,
    riemann_eval,
    riemann_l1_error,
    riemann_mass,
    riemann_solve,
    scenario,
    wasserstein,
)
from ftl1d.reference import max_wave_speed
from ftl1d.velocity import VelocityModel, check_assumptions
from oracles import CustomVelocity


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
    assert not check_assumptions(bumpy, 1.0).flux_concave
    with pytest.raises(UnsupportedFluxError):
        riemann_solve(bumpy, 0.2, 0.9)
    with pytest.raises(UnsupportedFluxError):
        godunov(from_piecewise([0.0, 1.0], [1.0]), bumpy, 0.01, 0.5, 0.1)
    with pytest.raises(UnsupportedFluxError):
        entropy_mass(from_piecewise([0.0, 1.0], [1.0]), bumpy, 0.1, 0.5)


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
    with pytest.raises(ValueError, match="t must be nonnegative"):
        riemann_eval(sol, model, -1.0, 0.0)


@pytest.mark.parametrize("states", [(0.8, 0.2), (0.2, 0.8), (0.4, 0.4)],
                         ids=["rarefaction", "shock", "constant"])
def test_riemann_solution_at_time_zero_is_the_datum(states):
    # left of the jump the left state, from it on the right one; the mass is
    # M(x, 0) = x * rho0(x)
    model = Underwood(1.0)
    sol = riemann_solve(model, *states)
    xs = np.array([-2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0])
    expected = np.where(np.signbit(xs), states[0], states[1])
    np.testing.assert_array_equal(riemann_eval(sol, model, 0.0, xs), expected)
    assert type(riemann_eval(sol, model, 0.0, -1.0)) is float
    assert riemann_mass(sol, model, 0.0, -1.5, 2.0) == 1.5 * states[0] + 2.0 * states[1]


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


def godunov_flux(model, rl, rr, top=None):
    """The interface flux of two states, as ``godunov`` evaluates it: the
    demand of the left state against the supply of the right one, about the
    argmax of the flux on [0, top] (by default the larger state), the root
    of f' at xi 0."""
    star = model.inverse_flux_derivative(0.0, 0.0, max(rl, rr) if top is None else top)
    return min(model.flux(min(rl, star)), model.flux(max(rr, star)))


def classical_godunov_flux(model, rl, rr, star):
    """The Godunov flux by cases, the reference of the demand-supply form:
    min(f(rl), f(rr)) where rl <= rr, else f at star clipped to [rr, rl]."""
    if rl <= rr:
        return min(model.flux(rl), model.flux(rr))
    return model.flux(min(max(star, rr), rl))


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


def test_critical_density_closed_forms_and_search():
    # the argmax of the flux on [0, hi] is the inverse of f' at xi 0;
    # Underwood's bisects, to 1e-13 * max(1, hi)
    assert Greenshields(1.0).inverse_flux_derivative(0.0, 0.0, 1.0) == 0.5
    assert PipesMunjal(1.0, 2.0).inverse_flux_derivative(0.0, 0.0, 1.0) == pytest.approx(3 ** -0.5)
    assert abs(Underwood(1.0).inverse_flux_derivative(0.0, 0.0, 2.0) - 1.0) <= 1e-13 * 2.0
    model = ModifiedGreenberg(1.0, 0.2)
    star = model.inverse_flux_derivative(0.0, 0.0, 1.0)
    eps = 1e-7
    assert model.flux(star) >= model.flux(star - eps) - 1e-12
    assert model.flux(star) >= model.flux(star + eps) - 1e-12


@settings(deadline=None, max_examples=100)
@given(fraction=st.floats(0.0, 1.0))
def test_searched_critical_density_is_hi_below_the_argmax(fraction):
    # the arguments of the flux maxima are about 0.335 and 0.739; the search
    # alone stops up to 5e-14 short of a hi below them
    table = np.linspace(0.0, 1.25, 11)
    for model, top in ((ModifiedGreenberg(1.0, 0.2), 0.3),
                       (TabulatedVelocity(table, 1.0 - 0.64 * table**2), 0.7)):
        hi = fraction * top
        assert model.inverse_flux_derivative(0.0, 0.0, hi) == hi


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
    with pytest.raises(ValueError, match="^time step underflow$"):
        godunov(datum, model, dx=1e-20, cfl=0.5, t_end=1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_oracles_refuse_a_horizon_that_is_not_finite(t):
    # NaN fails every comparison, so a test of t < 0 alone lets it through
    datum, model = scenario("riemann_like"), Greenshields(1.0)
    with pytest.raises(ValueError, match="^t_end must be finite and nonnegative$"):
        godunov(datum, model, dx=0.05, cfl=0.5, t_end=t)
    with pytest.raises(ValueError, match="^t must be nonnegative and finite$"):
        entropy_mass(datum, model, t, 0.0)


def test_riemann_mass_and_l1_error_refuse_reversed_and_empty_windows():
    model = Greenshields(1.0)
    sol = riemann_solve(model, 0.8, 0.2)
    with pytest.raises(ValueError, match="^need a <= b$"):
        riemann_mass(sol, model, 0.5, 1.0, 0.0)
    density = scenario("riemann_like")
    with pytest.raises(ValueError, match="^empty window$"):
        riemann_l1_error(density, sol, model, 0.5, (0.3, 0.3))


# concave: f' = 1 - 1.6 rho below the node 0.5 and 1.2 - 2.4 rho above it, so
# f' drops from 0.2 to 0 at the node and a fan holds 0.5 for x / t in [0, 0.2]
_KINKED_TABLE = TabulatedVelocity(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.6, 0.0]))


def test_a_tabulated_fan_holds_the_node_density_on_its_plateau():
    sol = riemann_solve(_KINKED_TABLE, 0.8, 0.2)
    x = np.linspace(0.01, 0.19, 19)
    assert np.max(np.abs(riemann_eval(sol, _KINKED_TABLE, 1.0, x) - 0.5)) <= 1e-12


def test_a_tabulated_entropy_solution_holds_the_node_density_on_its_plateau():
    # riemann_like's fan is untouched by its ends' waves up to t 1.04; M_x = rho
    x = np.linspace(0.01, 0.09, 9)
    mass = entropy_mass(scenario("riemann_like"), _KINKED_TABLE, 0.5, x)
    assert np.max(np.abs(np.diff(mass) / np.diff(x) - 0.5)) <= 1e-12


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


# the Courant numbers of the march's property tests: the step of criterion 11
# and one near the monotone bound of 1
_CFLS = (0.5, 0.9)
# no closed-form critical density for the last two: the root of f' by bisection
_TABLE = np.linspace(0.0, 1.25, 11)
_GODUNOV_LAWS = [Greenshields(1.0), PipesMunjal(1.0, 2.0), PipesMunjal(1.0, 0.5),
                 Underwood(1.0), ModifiedGreenberg(1.0, 0.2),
                 TabulatedVelocity(_TABLE, 1.0 - 0.64 * _TABLE**2)]


@pytest.mark.parametrize("model", _GODUNOV_LAWS,
                         ids=["greenshields", "pipes_munjal_2", "pipes_munjal_half",
                              "underwood", "modified_greenberg", "tabulated"])
@pytest.mark.parametrize("case", ["double_hump", "faint_tail"])
def test_godunov_matches_full_grid_march_bit_for_bit(model, case):
    if case == "double_hump":
        # the interior vacuum gap lies inside the occupied window
        datum = scenario("double_hump")
    else:
        # a faint tail: the window's front walks one cell per step, out to
        # the stencil's reach
        datum = from_piecewise([0.0, 0.5, 1.5], [0.8, 1e-13])
    dx, t_end = 0.05, 0.5
    for cfl in _CFLS:
        density = godunov(datum, model, dx, cfl, t_end)

        # every cell stepped every time, written out here rather than taken
        # from the package
        edges = density.breakpoints
        n_steps = math.ceil(t_end / (cfl * dx / max_wave_speed(model, datum.sup_norm)))
        dt = t_end / n_steps
        u = np.diff(datum.cdf_values(edges)) / dx
        if case == "faint_tail":
            front = np.flatnonzero(u > 0.0)[-1] + n_steps
            assert np.flatnonzero(density.values > 0.0)[-1] == front < edges.size - 2
        zero = np.zeros(1)
        for _ in range(n_steps):
            q = np.concatenate((zero, u, zero))
            star = model.inverse_flux_derivative(0.0, 0.0, float(np.max(q)))
            demand = model.flux(np.clip(q[:-1], 0.0, star))
            supply = model.flux(np.maximum(q[1:], star))
            u = u - (dt / dx) * np.diff(np.minimum(demand, supply))
        np.testing.assert_array_equal(density.values, np.maximum(u, 0.0))


def test_godunov_searches_critical_density_only_when_the_maximum_changes():
    calls = []

    class Counted(ModifiedGreenberg):
        def inverse_flux_derivative(self, xi, lo, hi):
            calls.append(hi)
            return super().inverse_flux_derivative(xi, lo, hi)

    # the 0.8 plateau of riemann_like keeps the window maximum for many steps
    godunov(scenario("riemann_like"), Counted(1.0, 0.2), dx=0.05, cfl=0.5, t_end=1.0)
    assert calls
    assert all(a != b for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("dx", [math.inf, math.nan, 0.0, -0.1])
def test_godunov_refuses_a_step_that_is_not_positive_and_finite(dx):
    with pytest.raises(ValueError, match="dx must be positive and finite"):
        godunov(scenario("riemann_like"), Greenshields(1.0), dx=dx, cfl=0.5, t_end=0.5)


def test_godunov_without_a_positive_cell_returns_vacuum():
    # the least subnormal mass, spread over a cell of width 2, rounds to 0
    datum = from_piecewise([0.0, 1.0], [5e-324])
    density = godunov(datum, Greenshields(1.0), dx=2.0, cfl=0.5, t_end=1.0)
    assert np.all(density.values == 0.0)


def test_godunov_raises_on_nan_flux():
    # v is NaN at exactly 0.3, a density off the 257-point concavity and
    # wave-speed grids.  The march does not validate its states; the
    # per-step mass check must stop it at the first NaN
    model = CustomVelocity(
        lambda r: np.where(np.asarray(r) == 0.3, np.nan, 1.0 - np.asarray(r)), v_max=1.0)
    datum = from_piecewise([0, 1, 2], [0.3, 1.0])
    with pytest.raises(RuntimeError, match="mass drift nan"):
        godunov(datum, model, dx=0.05, cfl=0.5, t_end=0.5)


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
    for cfl in _CFLS:
        density = godunov(datum, model, dx=0.05, cfl=cfl, t_end=t_end)
        assert abs(density.total_mass - datum.total_mass) <= 1e-12 * datum.total_mass


@settings(deadline=None, max_examples=30)
@given(cells=piecewise_cells(positive_mass=True), model=_LAWS, t_end=st.floats(0.0, 0.5))
def test_godunov_is_tvd_and_keeps_the_maximum_on_random_data(cells, model, t_end):
    # a monotone scheme neither adds variation nor raises the maximum of the
    # initial cell averages, taken here on the grid of the march
    datum = from_piecewise(*cells)
    dx = 0.05
    for cfl in _CFLS:
        marched = godunov(datum, model, dx, cfl, t_end)
        initial = np.diff(datum.cdf_values(marched.breakpoints)) / dx
        variation = np.sum(np.abs(np.diff(initial)))
        assert np.sum(np.abs(np.diff(marched.values))) <= variation * (1.0 + 1e-12)
        assert np.max(marched.values) <= np.max(initial) + 1e-13


@settings(deadline=None, max_examples=30)
@given(cells=piecewise_cells(positive_mass=True), model=_LAWS, t_end=st.floats(0.0, 0.5),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_godunov_keeps_ordered_data_ordered_up_to_cfl_one(cells, model, t_end, fractions):
    # monotone means u0 <= v0 gives u <= v, and the scheme is monotone while
    # cfl <= 1.  The lower datum keeps the upper one's maximum and outermost
    # positive cells, so both march with one dt on one grid
    edges, upper = cells
    lower = upper * np.array(fractions[:upper.size])
    positive = np.flatnonzero(upper > 0.0)
    keep = [positive[0], positive[-1], int(np.argmax(upper))]
    lower[keep] = upper[keep]
    below, above = from_piecewise(edges, lower), from_piecewise(edges, upper)
    for cfl in (*_CFLS, 0.99):
        u = godunov(below, model, dx=0.05, cfl=cfl, t_end=t_end)
        v = godunov(above, model, dx=0.05, cfl=cfl, t_end=t_end)
        np.testing.assert_array_equal(u.breakpoints, v.breakpoints)
        assert np.all(u.values <= v.values + 1e-13)


@settings(deadline=None, max_examples=30)
@given(cells=piecewise_cells(positive_mass=True), model=_LAWS, t_end=st.floats(0.0, 0.5),
       cfl=st.floats(0.1, 0.99))
def test_godunov_grid_spans_the_stencil_reach(cells, model, t_end, cfl):
    # the grid starts (n_steps + 1) * dx left of the support and ends at that
    # reach on the right, or up to a cell past it where the cell count rounds up
    datum = from_piecewise(*cells)
    dx = 0.05
    n_steps = math.ceil(t_end / (cfl * dx / max_wave_speed(model, datum.sup_norm)))
    reach = (n_steps + 1) * dx
    edges = godunov(datum, model, dx, cfl, t_end).breakpoints
    rounding = 8 * np.spacing(np.max(np.abs(edges)))
    assert edges[0] == datum.support_min - reach
    assert datum.support_max + reach <= edges[-1] + rounding
    assert edges[-1] <= datum.support_max + reach + dx + rounding
    np.testing.assert_allclose(np.diff(edges), dx, rtol=0.0, atol=rounding)


def test_godunov_grid_on_dyadic_numbers_is_exactly_the_stencil_reach():
    # 8 steps of dx = 0.25: the grid is [0, 2] plus 9 cells on each side
    density = godunov(from_piecewise([0.0, 2.0], [0.5]), Greenshields(1.0), 0.25, 0.5, 1.0)
    np.testing.assert_array_equal(density.breakpoints, np.arange(-9, 18) * 0.25)


def test_godunov_at_the_default_cfl_is_closer_to_the_riemann_solution():
    # a longer step adds less numerical diffusion: the default step is the
    # more accurate oracle, not only the cheaper one
    model = Greenshields(1.0)
    sol = riemann_solve(model, 0.8, 0.2)
    errors = [riemann_l1_error(godunov(scenario("riemann_like"), model, dx=0.01, cfl=cfl,
                                       t_end=0.5), sol, model, 0.5, (-0.5, 0.5))
              for cfl in _CFLS]
    assert errors[1] < errors[0]


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


# every built-in law has a concave flux on [0, 2]
_BUILTIN_LAWS = st.one_of(
    _LAWS, st.builds(ModifiedGreenberg, st.floats(0.2, 3.0), st.floats(0.05, 0.95)))


_FLUX_LAWS = st.one_of(
    st.tuples(_BUILTIN_LAWS, st.just(2.0)),
    st.tuples(st.just(_GODUNOV_LAWS[-1]), st.just(float(_TABLE[-1]))))


def riemann_mass_by_kind(sol, model, t, a, b):
    """The mass over [a, b] by wave kind, the reference of the cumulative-mass
    form: the constant states times their lengths, plus, inside a fan, t times
    the difference of the primitive rho * f'(rho) - f(rho) at its ends."""
    if sol.kind == "constant":
        return sol.left * (b - a)
    if sol.kind == "shock":
        s = sol.shock_speed * t
        return sol.left * (min(b, s) - min(a, s)) + sol.right * (max(b, s) - max(a, s))
    xl, xr = sol.fan_left * t, sol.fan_right * t
    total = sol.left * (min(b, xl) - min(a, xl)) + sol.right * (max(b, xr) - max(a, xr))
    fa, fb = max(a, xl), min(b, xr)
    if fb > fa:
        rho_a, rho_b = (riemann_eval(sol, model, t, x) for x in (fa, fb))
        total += t * (rho_b * model.flux_derivative(rho_b) - model.flux(rho_b)
                      - rho_a * model.flux_derivative(rho_a) + model.flux(rho_a))
    return total


@settings(deadline=None, max_examples=200)
@given(model=st.sampled_from([Greenshields(1.0), PipesMunjal(1.0, 2.0), Underwood(1.0),
                              ModifiedGreenberg(1.0, 0.1)]),
       rho_l=_STATES, rho_r=_STATES, t=_TIMES,
       ends=st.tuples(st.floats(-3.0, 5.0), st.floats(-3.0, 5.0)))
def test_riemann_mass_matches_the_mass_by_wave_kind(model, rho_l, rho_r, t, ends):
    # inside a fan the reference reads f' at a bisected density, so its error
    # is first order in the bisection's tolerance, while M is stationary in
    # it; on steeper laws (Pipes-Munjal alpha 4 at v_max 2) the reference
    # alone is off by 1.5e-12, so the laws here move at unit speed
    a, b = sorted(ends)
    sol = riemann_solve(model, rho_l, rho_r)
    assert abs(riemann_mass(sol, model, t, a, b) - riemann_mass_by_kind(sol, model, t, a, b)) \
        <= 1e-12


@settings(deadline=None, max_examples=300)
@given(law=_FLUX_LAWS, fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       neighbour=st.sampled_from(["any", "equal", "below", "above"]),
       swap=st.booleans(), lift=st.floats(0.0, 1.0))
def test_demand_supply_flux_matches_the_classical_flux(law, fractions, neighbour, swap, lift):
    # godunov's min(demand, supply) against the flux by cases, with states
    # below the window maximum top, including equal and adjacent states
    model, reach = law
    rl = fractions[0] * reach
    rr = {"any": fractions[1] * reach, "equal": rl,
          "below": max(np.nextafter(rl, -np.inf), 0.0),
          "above": min(np.nextafter(rl, np.inf), reach)}[neighbour]
    if swap:
        rl, rr = rr, rl
    top = min(max(rl, rr) + lift * (reach - max(rl, rr)), reach)
    star = model.inverse_flux_derivative(0.0, 0.0, top)
    exact = classical_godunov_flux(model, rl, rr, star)
    assert abs(godunov_flux(model, rl, rr, top) - exact) <= 8 * np.spacing(model.flux(star))


@settings(deadline=None, max_examples=200)
@given(model=_BUILTIN_LAWS, rho_hi=st.floats(0.0, 2.0))
def test_max_wave_speed_closed_form_equals_the_sampled_max(model, rho_hi):
    # f' decreases on a concave flux, so the largest |f'| sits at an end of
    # [0, rho_hi]; the 257-point sample of |f'| is the reference
    sampled = np.max(np.abs(model.flux_derivative(np.linspace(0.0, rho_hi, 257))))
    assert max_wave_speed(model, rho_hi) == sampled


@settings(deadline=None, max_examples=60)
@given(v_max=st.floats(0.1, 3.0), alpha=st.floats(0.1, 5.0), hi=st.floats(0.01, 3.0))
def test_critical_density_closed_forms_match_search(v_max, alpha, hi):
    # the argmax of the flux against its closed forms: the base class finds it
    # as the root of f', which crosses zero with a nonzero slope, so it
    # resolves the position to the bisection's tolerance, not only the flux value
    for model, argmax in ((PipesMunjal(v_max, alpha), (1.0 / (1.0 + alpha)) ** (1.0 / alpha)),
                          (Underwood(v_max), 1.0)):
        closed = min(argmax, hi)
        for searched in (model.inverse_flux_derivative(0.0, 0.0, hi),
                         VelocityModel.inverse_flux_derivative(model, 0.0, 0.0, hi)):
            assert 0.0 <= searched <= hi
            assert abs(closed - searched) <= 1e-12 * max(1.0, hi)
            assert model.flux(closed) == pytest.approx(model.flux(searched), rel=1e-14)


@settings(deadline=None, max_examples=60)
@given(v_max=st.floats(0.1, 3.0), alpha=st.floats(0.1, 5.0), ends=st.tuples(_STATES, _STATES),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_inverse_flux_derivative_closed_form_matches_bisection(v_max, alpha, ends, fractions):
    lo, hi = sorted(ends)
    for model in (Greenshields(v_max), PipesMunjal(v_max, alpha)):
        top, bottom = model.flux_derivative(lo), model.flux_derivative(hi)
        xi = bottom + np.asarray(fractions) * (top - bottom)
        closed = model.inverse_flux_derivative(xi, lo, hi)
        bisected = VelocityModel.inverse_flux_derivative(model, xi, lo, hi)
        assert np.all((lo <= closed) & (closed <= hi))
        agree = np.abs(closed - bisected) <= 1e-12
        if isinstance(model, PipesMunjal):
            # where f' is flat, as near vacuum for alpha > 1, rounding f' moves
            # its root further than that, and the two agree in f' instead
            slopes = model.flux_derivative(np.stack((closed, bisected)))
            agree |= np.abs(slopes[0] - slopes[1]) <= 1e-12 * (1.0 + np.abs(xi))
        assert np.all(agree)
        assert np.all(np.abs(model.flux_derivative(closed) - xi) <= 1e-12 * (1.0 + np.abs(xi)))
        scalar = [model.inverse_flux_derivative(x, lo, hi) for x in xi]
        assert all(type(r) is float for r in scalar)
        np.testing.assert_array_equal(closed, scalar)


@pytest.mark.parametrize("model", [Underwood(1.0)], ids=["underwood"])
def test_inverse_flux_derivative_bisects_without_a_closed_form(model):
    assert type(model).inverse_flux_derivative is VelocityModel.inverse_flux_derivative
    xi = model.flux_derivative(np.array([0.1, 0.5, 0.9]))
    rho = model.inverse_flux_derivative(xi, 0.0, 1.0)
    np.testing.assert_allclose(rho, [0.1, 0.5, 0.9], rtol=0.0, atol=1e-12)


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


@settings(deadline=None, max_examples=200)
@given(model=_LAWS, rho_l=_STATES, rho_r=_STATES, t=_TIMES,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
def test_entropy_mass_matches_riemann_mass_on_two_cell_data(model, rho_l, rho_r, t, fractions):
    # the cells reach max |f'| * t past [-1, 1], so no wave from the support's
    # ends has reached it and the two-state solution holds there
    if rho_l == rho_r == 0.0:
        return
    half = 1.0 + max_wave_speed(model, max(rho_l, rho_r)) * t
    datum = PiecewiseConstantDensity(np.array([-half, 0.0, half]), np.array([rho_l, rho_r]))
    x = np.sort(2.0 * np.array(fractions) - 1.0)
    mass = entropy_mass(datum, model, t, x)
    exact = riemann_mass(riemann_solve(model, rho_l, rho_r), model, t, x[0], x)
    # the root of f' is a closed form for Greenshields and a bisection to
    # 1e-13 otherwise (3.3e-16 of the mass is the largest error seen for all three)
    tol = 1e-15 if isinstance(model, Greenshields) else 1e-13
    assert np.max(np.abs(mass - mass[0] - exact)) <= tol * max(1.0, datum.total_mass)


@settings(deadline=None, max_examples=100)
@given(cells=piecewise_cells(positive_mass=True), model=_LAWS, t=st.floats(0.0, 2.0))
def test_entropy_mass_is_a_cumulative_mass_of_bounded_density(cells, model, t):
    # nondecreasing, 0 left of every wave and the total mass right of them, and
    # Lipschitz with constant sup_norm: the maximum principle
    datum = from_piecewise(*cells)
    reach = max_wave_speed(model, datum.sup_norm) * t
    x = np.linspace(datum.support_min - reach - 1.0, datum.support_max + reach + 1.0, 301)
    mass = entropy_mass(datum, model, t, x)
    tol = 1e-14 * datum.total_mass
    assert np.all(np.diff(mass) >= -tol)
    assert np.all(np.abs(mass[x <= datum.support_min - reach]) <= tol)
    assert np.all(np.abs(mass[x >= datum.support_max + reach] - datum.total_mass) <= tol)
    assert np.all(np.diff(mass) <= datum.sup_norm * np.diff(x) + tol)


def test_entropy_mass_in_blocks_equals_the_pointwise_value():
    # 300 cells and the two vacuum pieces put 868 points in a block, so 1,000
    # points take two
    datum = scenario("sawtooth_bv", steps=300)
    model = Greenshields(1.0)
    x = np.linspace(datum.support_min - 1.0, datum.support_max + 1.0, 1000)
    blocked = entropy_mass(datum, model, 0.5, x.reshape(10, 100))
    assert blocked.shape == (10, 100)
    np.testing.assert_array_equal(blocked.reshape(-1),
                                  [entropy_mass(datum, model, 0.5, p) for p in x])


def test_entropy_mass_at_time_zero_is_the_datum_cdf():
    datum = scenario("double_hump")
    x = np.linspace(datum.support_min - 1.0, datum.support_max + 1.0, 101)
    np.testing.assert_array_equal(entropy_mass(datum, Underwood(1.0), 0.0, x),
                                  datum.cdf_values(x))
    assert entropy_mass(datum, Underwood(1.0), 0.0, 0.0) == datum.cdf_values(0.0)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        entropy_mass(datum, Underwood(1.0), -1.0, x)


@pytest.mark.parametrize("model", [Greenshields(1.0), PipesMunjal(1.0, 2.0), Underwood(1.0)],
                         ids=["greenshields", "pipes_munjal", "underwood"])
@pytest.mark.parametrize("name", ["box", "double_hump"])
def test_godunov_converges_to_the_exact_cell_averages(model, name):
    # the transport distance of the march to the exact cell averages on its
    # own grid falls as the grid is refined, at observed orders 0.69-1.33
    # (1/2 is the bound for monotone schemes)
    datum = scenario(name)
    errors = []
    for dx in (0.04, 0.02, 0.01):
        marched = godunov(datum, model, dx, 0.9, 0.5)
        edges = marched.breakpoints
        exact = np.maximum(np.diff(entropy_mass(datum, model, 0.5, edges)), 0.0) / dx
        errors.append(wasserstein(marched, PiecewiseConstantDensity(edges, exact)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] > 2.0


@pytest.mark.parametrize("model", [Underwood(1.0), PipesMunjal(1.0, 2.0)],
                         ids=["underwood", "pipes_munjal"])
def test_inverse_flux_derivative_gives_an_end_exactly_beyond_its_slopes(model):
    # not a bisection's midpoint near it: the Lax-Hopf value at an end moves
    # to first order with the root
    xi = np.array([2.0, model.flux_derivative(0.2), model.flux_derivative(0.9), -5.0])
    np.testing.assert_array_equal(model.inverse_flux_derivative(xi, 0.2, 0.9),
                                  [0.2, 0.2, 0.9, 0.9])
    assert model.inverse_flux_derivative(math.inf, 0.2, 0.9) == 0.2


@settings(deadline=None, max_examples=100)
@given(v_max=st.floats(0.1, 3.0), hi=st.floats(0.0, 3.0))
def test_greenshields_critical_density_is_the_root_of_f_prime(v_max, hi):
    # f'(rho) = v_max * (1 - 2 rho): the closed-form inverse of f' at xi 0
    # is the argmax 1/2
    model = Greenshields(v_max)
    assert model.inverse_flux_derivative(0.0, 0.0, hi) == min(0.5, hi)
