import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftl1d import atomize, integrate, reference, scenario, velocity
from ftl1d.harness import ExperimentConfig
from ftl1d.velocity import (
    ADMISSIBILITY_SAMPLES,
    CustomVelocity,
    Greenshields,
    ModifiedGreenberg,
    PipesMunjal,
    TabulatedVelocity,
    Underwood,
    check_assumptions,
)

BUILTINS = [
    Greenshields(1.0),
    Greenshields(1.7),
    PipesMunjal(1.0, 2.0),
    PipesMunjal(1.3, 0.5),
    PipesMunjal(1.3, 3.0),
    Underwood(1.0),
    Underwood(2.2),
    ModifiedGreenberg(1.0, 0.1),
    ModifiedGreenberg(1.1, 0.5),
]


def test_value_examples():
    assert Greenshields(1.0).value(0.0) == 1.0
    assert Greenshields(1.0).value(0.5) == 0.5
    assert Underwood(2.0).value(0.0) == 2.0


def test_derivative_examples():
    assert Greenshields(1.0).derivative(0.3) == -1.0
    assert PipesMunjal(1.0, 2.0).derivative(0.5) == pytest.approx(-1.0, abs=1e-15)
    assert Underwood(1.0).derivative(0.0) == -1.0


def test_flux_examples():
    for model in BUILTINS:
        assert model.flux(0.0) == 0.0
    assert Greenshields(1.0).flux(0.5) == 0.25
    assert Greenshields(1.0).flux(1.0) == 0.0


def test_value_rejects_bad_density():
    model = Greenshields(1.0)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            model.value(bad)
        with pytest.raises(ValueError):
            model.derivative(bad)


def test_builtin_models_strictly_decreasing():
    grid = np.linspace(0.0, 10.0, 200)
    for model in BUILTINS:
        v = model.value(grid)
        assert np.all(np.diff(v) < 0.0), model


def test_vacuum_speed_exact():
    for model in BUILTINS:
        assert model.value(0.0) == model.v_max


def test_derivative_matches_finite_differences():
    h = 1e-6
    for model in BUILTINS:
        for rho in np.linspace(0.01, 5.0, 40):
            fd = (model.value(rho + h) - model.value(rho - h)) / (2.0 * h)
            exact = model.derivative(rho)
            assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact)), (model, rho)


def test_check_assumptions_greenshields():
    report = check_assumptions(Greenshields(1.0), rho_max=1.0)
    assert report.all_satisfied
    assert report.grid.size == ADMISSIBILITY_SAMPLES


def test_check_assumptions_all_families_on_unit_range():
    for model in BUILTINS:
        report = check_assumptions(model, rho_max=1.0)
        assert report.all_satisfied, model


def test_underwood_weighted_slope_fails_beyond_one():
    # rho * v'(rho) = -rho * exp(-rho) turns around at rho = 1, so the
    # sampled condition holds on [0, 1] but not on [0, 2].
    ok = check_assumptions(Underwood(1.0), rho_max=1.0)
    assert ok.weighted_slope_non_increasing
    bad = check_assumptions(Underwood(1.0), rho_max=2.0)
    assert bad.v_strictly_decreasing
    assert bad.v_at_zero_equals_v_max
    assert not bad.weighted_slope_non_increasing


def test_custom_increasing_tail_fails_monotonicity():
    model = CustomVelocity(v_func=lambda r: 1.0 - r + 0.6 * np.asarray(r) ** 2,
                           v_max=1.0,
                           v_prime_func=lambda r: -1.0 + 1.2 * np.asarray(r))
    report = check_assumptions(model, rho_max=1.0)
    assert not report.v_strictly_decreasing
    assert report.v_at_zero_equals_v_max


def test_law_flat_by_rounding_near_vacuum_is_strictly_decreasing():
    # v = 1 - rho^20 rounds to 1 near vacuum, so consecutive samples tie
    model = PipesMunjal(1.0, 20.0)
    grid = np.linspace(0.0, 1.0, 256)
    assert np.any(np.diff(model.value(grid)) == 0.0)
    assert check_assumptions(model, rho_max=1.0).all_satisfied


def test_custom_flat_beyond_half_fails_monotonicity():
    # the samples never increase, but v' vanishes beyond 0.5
    model = CustomVelocity(v_func=lambda r: 1.0 - np.minimum(np.asarray(r), 0.5), v_max=1.0)
    report = check_assumptions(model, rho_max=1.0)
    assert np.all(np.diff(model.value(report.grid)) <= 0.0)
    assert not report.v_strictly_decreasing


def test_custom_finite_difference_metadata():
    model = CustomVelocity(v_func=lambda r: np.exp(-np.asarray(r)), v_max=1.0)
    assert model.v_prime_func is None
    assert velocity.DERIVATIVE_STEP == 1e-6
    assert model.derivative(0.5) == pytest.approx(-np.exp(-0.5), abs=1e-9)


def test_custom_requires_matching_vacuum_speed():
    with pytest.raises(ValueError):
        CustomVelocity(v_func=lambda r: 1.0 - np.asarray(r), v_max=2.0)


def _law(cfg):
    """The law a config's ``velocity`` object builds; the datum's sup norm 0.5
    lies inside every table below."""
    return ExperimentConfig.from_dict({"scenario": {"name": "box", "height": 0.5},
                                       "velocity": cfg}).model


@pytest.mark.parametrize("kind", ["greenshields", "pipes_munjal", "underwood",
                                  "modified_greenberg"])
@pytest.mark.parametrize("v_max", [0.0, -1.0, float("nan"), float("inf")])
def test_builtin_laws_refuse_v_max_not_positive_and_finite(kind, v_max):
    # v = 0 is not strictly decreasing, and no flow has a NaN or infinite vacuum speed
    with pytest.raises(ValueError, match="v_max must be positive and finite"):
        _law({"kind": kind, "v_max": v_max})


def test_modified_greenberg_rejects_alpha_outside_unit_interval():
    for alpha in (1.0, 1.5, 0.0, -0.2):
        with pytest.raises(ValueError):
            ModifiedGreenberg(1.0, alpha)


def test_tabulated_model_interpolates_and_rejects_extrapolation():
    table = TabulatedVelocity(rho_table=np.array([0.0, 0.5, 1.0]),
                              v_table=np.array([1.0, 0.6, 0.0]))
    assert table.v_max == 1.0
    assert table.value(0.25) == pytest.approx(0.8)
    assert table.value(0.75) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        table.value(1.5)
    # derivative of the interpolant, away from the kink
    assert table.derivative(0.25) == pytest.approx(-0.8, abs=1e-6)


def test_finite_differences_are_centered_and_clipped():
    # the same floats as (v(hi) - v(lo)) / (hi - lo), lo and hi clipped to [0, top]
    h = velocity.DERIVATIVE_STEP
    rho = np.array([0.0, 0.4 * h, 0.3, 1.0 - 0.5 * h, 1.0])
    lo = np.maximum(rho - h, 0.0)

    def f(r):
        return np.exp(-np.asarray(r))

    custom = CustomVelocity(v_func=f, v_max=1.0)
    hi = rho + h
    np.testing.assert_array_equal(custom.derivative(rho), (f(hi) - f(lo)) / (hi - lo))
    rho_table, v_table = np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.6, 0.0])
    table = TabulatedVelocity(rho_table=rho_table, v_table=v_table)
    hi = np.minimum(rho + h, 1.0)
    expected = (np.interp(hi, rho_table, v_table)
                - np.interp(lo, rho_table, v_table)) / (hi - lo)
    np.testing.assert_array_equal(table.derivative(rho), expected)


def test_tabulated_rejects_non_decreasing_values():
    with pytest.raises(ValueError):
        TabulatedVelocity(rho_table=np.array([0.0, 0.5, 1.0]),
                          v_table=np.array([1.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        TabulatedVelocity(rho_table=np.array([0.1, 0.5]),
                          v_table=np.array([1.0, 0.5]))


@pytest.mark.parametrize(("rho_table", "v_table"), [
    ([0.0, np.nan, 2.0], [1.0, 0.5, 0.0]),
    ([0.0, 1.0, 2.0], [1.0, np.nan, 0.0]),
    ([0.0, 1.0, np.inf], [1.0, 0.5, 0.0]),
], ids=["nan_density", "nan_speed", "infinite_last_density"])
def test_tabulated_rejects_non_finite_tables(rho_table, v_table):
    # every comparison with a NaN is false, so neither monotonicity test sees it
    with pytest.raises(ValueError, match="^rho_table and v_table must be finite$"):
        TabulatedVelocity(rho_table=np.array(rho_table), v_table=np.array(v_table))


def test_from_config():
    model = _law({"kind": "pipes_munjal", "v_max": 2.0, "alpha": 3.0})
    assert isinstance(model, PipesMunjal)
    assert model.v_max == 2.0 and model.alpha == 3.0
    tab = _law({"kind": "tabulated", "rho_table": [0.0, 1.0], "v_table": [1.0, 0.0]})
    assert isinstance(tab, TabulatedVelocity)
    with pytest.raises(ValueError):
        _law({"kind": "unknown"})
    with pytest.raises(ValueError, match=r"needs key\(s\): v_table$"):
        _law({"kind": "tabulated", "rho_table": [0.0, 1.0]})
    # the finite-difference step is a module constant, not a config key
    with pytest.raises(ValueError, match="derivative_step"):
        _law({"kind": "tabulated", "rho_table": [0.0, 1.0],
              "v_table": [1.0, 0.0], "derivative_step": 1e-4})


def test_check_assumptions_validates_arguments():
    with pytest.raises(ValueError):
        check_assumptions(Greenshields(1.0), rho_max=0.0)


LAWS = BUILTINS + [
    TabulatedVelocity(rho_table=np.array([0.0, 0.15, 1.5, 2.0]),
                      v_table=np.array([1.0, 0.7, 0.1, 0.0])),
    CustomVelocity(v_func=lambda rho: 1.0 - 0.25 * rho * rho, v_max=1.0),
]

# the built-in laws' formulas in the order of operations of their _v
FORMULAS = {
    Greenshields: lambda m, rho: m.v_max * (1.0 - rho),
    PipesMunjal: lambda m, rho: m.v_max * (1.0 - rho**m.alpha),
    Underwood: lambda m, rho: m.v_max * np.exp(-rho),
    ModifiedGreenberg: lambda m, rho: m.v_max * (np.log(rho + m.alpha) / np.log(m.alpha)),
}


@settings(deadline=None, max_examples=100)
@given(law=st.sampled_from(LAWS),
       rho=st.one_of(st.floats(0.0, 2.0),
                     st.lists(st.floats(0.0, 2.0), min_size=0, max_size=20)))
def test_v_writes_into_out_and_equals_value(law, rho):
    rho = np.asarray(rho, dtype=float)
    expected = law.value(rho)
    buf = np.empty(rho.shape)
    assert law._v(rho, buf) is buf
    assert np.all(buf == expected)
    # out may be rho itself, as in the integrator's right-hand side
    alias = rho.copy()
    assert law._v(alias, alias) is alias
    assert np.all(alias == expected)
    if type(law) in FORMULAS:
        assert np.all(buf == FORMULAS[type(law)](law, rho))


@pytest.mark.parametrize(("law", "changes"), [
    (Greenshields(1.0), {"v_max": 1.17}),
    (PipesMunjal(1.0, 2.0), {"v_max": 1.17, "alpha": 2.5}),
    (Underwood(1.0), {"v_max": 1.17}),
    (ModifiedGreenberg(1.0, 0.1), {"v_max": 1.17, "alpha": 0.3}),
], ids=["greenshields", "pipes_munjal", "underwood", "modified_greenberg"])
def test_bound_operands_follow_the_fields(law, changes):
    # each law binds the constant operands of _v when it is constructed;
    # replace builds a new law, and a pickle, which ships a law to the
    # workers of --jobs > 1, carries them
    changed = dataclasses.replace(law, **changes)
    restored = pickle.loads(pickle.dumps(changed))
    rho = np.linspace(0.0, 0.65, 27)
    for model in (law, changed, restored):
        assert np.all(model._v(rho, np.empty(rho.shape)) == FORMULAS[type(law)](model, rho))
    assert not np.all(changed.value(rho) == law.value(rho))
    # the bound operands are no fields: laws with equal fields compare and
    # hash equal, repr shows the fields only, and nothing public is added
    names = [f.name for f in dataclasses.fields(law)]
    for twin in (type(law)(**{name: getattr(changed, name) for name in names}), restored):
        assert twin == changed and hash(twin) == hash(changed)
    shown = ", ".join(f"{name}={getattr(changed, name)!r}" for name in names)
    assert repr(changed) == f"{type(law).__name__}({shown})"
    assert [name for name in vars(changed) if not name.startswith("_")] == names


def test_laws_that_bind_no_operands_evaluate_after_replace():
    # the custom and tabulated laws do not run the base class's
    # __post_init__, and their _v reads no bound operand
    custom = dataclasses.replace(CustomVelocity(v_func=lambda r: 1.0 - r, v_max=1.0),
                                 v_func=lambda r: 1.17 * (1.0 - r), v_max=1.17)
    assert custom.value(0.5) == 1.17 * 0.5
    table = TabulatedVelocity(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    table = pickle.loads(pickle.dumps(dataclasses.replace(table, v_table=np.array([1.17, 0.0]))))
    assert table.v_max == 1.17 and table.value(0.5) == 0.585


def test_integrate_and_riemann_solve_call_check_assumptions_through_the_module(monkeypatch):
    calls = []
    check = velocity.check_assumptions

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(velocity, "check_assumptions", counted)
    integrate(atomize(scenario("box"), 8), Greenshields(1.0), 0.1)
    assert len(calls) == 1
    reference.riemann_solve(Greenshields(1.0), 0.2, 0.8)
    assert len(calls) == 2


def _verdicts_by_public_methods(model, rho_max):
    """The four verdicts of ``check_assumptions`` read through the public
    methods, each law evaluated afresh for every verdict."""
    grid = np.linspace(0.0, rho_max, ADMISSIBILITY_SAMPLES)
    decreasing = bool(np.all(np.diff(model.value(grid)) <= 0.0)
                      and np.all(model.derivative(grid[1:]) < 0.0))
    m = model.density_weighted_slope(grid)
    f = model.flux(grid)
    return (decreasing, model.value(0.0) == model.v_max,
            bool(np.all(np.diff(m) <= 1e-12 * (1.0 + float(np.max(np.abs(m)))))),
            bool(np.all(f[2:] - 2.0 * f[1:-1] + f[:-2]
                        <= 1e-10 * (1.0 + float(np.max(np.abs(f)))))))


@settings(deadline=None, max_examples=200)
@given(law=st.sampled_from(LAWS + [
           PipesMunjal(1.0, 20.0),     # flat by rounding near vacuum
           CustomVelocity(v_func=lambda r: 1.0 - r + 0.6 * np.asarray(r) ** 2, v_max=1.0)]),
       rho_max=st.floats(1e-3, 2.0))
def test_check_assumptions_matches_the_public_methods(law, rho_max):
    # v and v' are evaluated once each; every verdict is the one the public
    # flux, slope and weighted-slope methods give
    report = check_assumptions(law, rho_max)
    assert (report.v_strictly_decreasing, report.v_at_zero_equals_v_max,
            report.weighted_slope_non_increasing,
            report.flux_concave) == _verdicts_by_public_methods(law, rho_max)
    np.testing.assert_array_equal(report.grid, np.linspace(0.0, rho_max, ADMISSIBILITY_SAMPLES))
