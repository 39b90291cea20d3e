import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftl1d import atomize, integrate, reference, scenario, velocity
from ftl1d.harness import ExperimentConfig
from ftl1d.velocity import (
    ADMISSIBILITY_SAMPLES,
    Greenshields,
    ModifiedGreenberg,
    PipesMunjal,
    TabulatedVelocity,
    Underwood,
    check_assumptions,
)
from oracles import CustomVelocity, sampled_structure

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
    # condition holds on [0, 1] but not on [0, 2].
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


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
def test_pipes_munjal_refuses_alpha_not_positive(alpha):
    with pytest.raises(ValueError, match="^alpha must be positive$"):
        PipesMunjal(1.0, alpha)


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
    # the test law's fallback: the same floats as (v(hi) - v(lo)) / (hi - lo),
    # lo clipped at 0; the tabulated law differences nothing
    h = 1e-6
    rho = np.array([0.0, 0.4 * h, 0.3, 0.5, 1.0 - 0.5 * h, 1.0])
    lo = np.maximum(rho - h, 0.0)

    def f(r):
        return np.exp(-np.asarray(r))

    custom = CustomVelocity(v_func=f, v_max=1.0)
    hi = rho + h
    np.testing.assert_array_equal(custom.derivative(rho), (f(hi) - f(lo)) / (hi - lo))
    rho_table, v_table = np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.6, 0.0])
    table = TabulatedVelocity(rho_table=rho_table, v_table=v_table)
    s = np.diff(v_table) / np.diff(rho_table)
    # right-hand at the interior node 0.5, the last slope at the end 1.0
    np.testing.assert_array_equal(table.derivative(rho), s[[0, 0, 0, 1, 1, 1]])


@pytest.mark.parametrize(("rho_table", "v_table"), [
    ([0.0, 0.5, 1.0], [1.0, 0.6, 0.0]),
    ([0.0, 0.15, 1.5, 2.0], [1.0, 0.7, 0.2, 0.0]),
], ids=["concave", "kinked"])
def test_tabulated_slope_at_a_node_is_the_right_hand_segment_slope(rho_table, v_table):
    # [rho_k, rho_k+1) holds the node rho_k, as in PiecewiseConstantDensity.values_at,
    # and the table's end takes the last slope; no two segments are averaged
    law = TabulatedVelocity(np.array(rho_table), np.array(v_table))
    s = np.diff(law.v_table) / np.diff(law.rho_table)
    right, below = np.append(s, s[-1]), np.insert(s, 0, s[0])
    np.testing.assert_array_equal(law.derivative(law.rho_table), right)
    for node, slope, slope_below in zip(law.rho_table, right, below):
        assert law.derivative(node) == slope
        assert law.derivative(np.nextafter(node, 0.0)) == slope_below
        assert law.flux_derivative(node) == law.value(node) + node * slope


@pytest.mark.parametrize(("rho_table", "v_table", "message"), [
    ([[0.0, 1.0]], [[1.0, 0.0]], "tables must be 1-d, equal length, size >= 2"),
    ([0.0, 0.5, 1.0], [1.0, 0.0], "tables must be 1-d, equal length, size >= 2"),
    ([0.0], [1.0], "tables must be 1-d, equal length, size >= 2"),
    ([0.0, 0.5, 0.5], [1.0, 0.5, 0.0], "rho_table must be strictly increasing"),
    ([0.0, 0.5, 0.4], [1.0, 0.5, 0.0], "rho_table must be strictly increasing"),
], ids=["two_d", "unequal_length", "one_node", "repeated_density", "falling_density"])
def test_tabulated_refuses_a_malformed_table(rho_table, v_table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TabulatedVelocity(rho_table=np.array(rho_table), v_table=np.array(v_table))


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
    # the density of a subnormal gap: refused before a grid whose spacing
    # overflows would warn (an error under the suite's warning filter)
    with pytest.raises(ValueError, match="density must be finite and nonnegative"):
        check_assumptions(Greenshields(1.0), rho_max=math.inf)


# 1 - rho**20 and rho * v' = -20 rho**20 overflow to -inf at the last of the
# samples of [0, R] alone, each at its own R; the other samples pass the verdict
@pytest.mark.parametrize("rho_max, samples, verdict", [
    (1.001 * math.exp(709.78 / 20.0), "value", "v_strictly_decreasing"),
    (math.exp(706.83 / 20.0), "density_weighted_slope", "weighted_slope_non_increasing"),
])
def test_a_sample_that_overflows_fails_the_verdict_that_reads_it(rho_max, samples, verdict):
    law = PipesMunjal(1.0, 20.0)
    report = check_assumptions(law, rho_max)
    with np.errstate(over="ignore", invalid="ignore"):
        read = getattr(law, samples)(report.grid)
    assert np.isfinite(read[:-1]).all() and read[-1] == -math.inf
    assert getattr(report, verdict) is False
    assert report.v_at_zero_equals_v_max


LAWS = BUILTINS + [
    TabulatedVelocity(rho_table=np.array([0.0, 0.15, 1.5, 2.0]),
                      v_table=np.array([1.0, 0.7, 0.1, 0.0])),
    CustomVelocity(v_func=lambda rho: 1.0 - 0.25 * rho * rho, v_max=1.0),
]

# the built-in laws' formulas in the order of operations of their kernels
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


KERNEL_LAWS = [
    Greenshields(1.17),
    PipesMunjal(1.17, 2.5),
    Underwood(1.17),
    ModifiedGreenberg(1.17, 0.3),
    CustomVelocity(v_func=lambda rho: 1.17 - 0.25 * rho * rho, v_max=1.17),
    TabulatedVelocity(rho_table=np.array([0.0, 0.15, 1.5, 2.0]),
                      v_table=np.array([1.17, 0.7, 0.1, 0.0])),
]
GAP = st.one_of(st.floats(1e-3, 1e3), st.just(math.inf))


@settings(deadline=None, max_examples=200)
@given(law=st.sampled_from(KERNEL_LAWS), mass=st.floats(1e-3, 1.0),
       gaps=st.one_of(GAP, st.lists(GAP, min_size=0, max_size=20)))
def test_kernel_is_value_of_mass_over_gaps_bit_for_bit(law, mass, gaps):
    # the integrator's kernel writes v(mass / gaps) into out, which may be
    # gaps itself, with the bits of value: Underwood's divides -mass, and
    # IEEE division is sign-symmetric
    gaps = np.asarray(gaps, dtype=float)
    velocities = law._velocities(np.array(mass))
    rho = mass / gaps
    if isinstance(law, TabulatedVelocity) and np.any(rho > law.rho_table[-1]):
        # the tabulated law's kernel divides, then raises where value does
        with pytest.raises(ValueError, match="beyond tabulated range"):
            law.value(rho)
        with pytest.raises(ValueError, match="beyond tabulated range"):
            velocities(gaps, np.empty(gaps.shape))
        return
    expected = np.asarray(law.value(rho))
    out = np.empty(gaps.shape)
    assert velocities(gaps, out) is out
    alias = gaps.copy()
    assert velocities(alias, alias) is alias
    for got in (out, alias):
        assert np.all(got == expected)
        assert np.all(np.signbit(got) == np.signbit(expected))


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
    # __post_init__, and their kernels read no bound operand
    custom = dataclasses.replace(CustomVelocity(v_func=lambda r: 1.0 - r, v_max=1.0),
                                 v_func=lambda r: 1.17 * (1.0 - r), v_max=1.17)
    assert custom.value(0.5) == 1.17 * 0.5
    table = TabulatedVelocity(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    table = pickle.loads(pickle.dumps(dataclasses.replace(table, v_table=np.array([1.17, 0.0]))))
    assert table.v_max == 1.17 and table.value(0.5) == 0.585


@pytest.mark.parametrize("law", [*velocity.KINDS.values(), CustomVelocity],
                         ids=lambda law: law.__name__)
def test_every_law_writes_a_kernel_and_no_v(law):
    # _v is the base class's reading of the kernel at the gaps 1.0
    assert "_velocities" in vars(law) and "_dv" in vars(law)
    assert "_v" not in vars(law)
    # and each law owns its root of f', which the base class's end rule calls
    # (CustomVelocity bisects, with the bisection's own end rule), and its
    # structural verdicts
    owns = "inverse_flux_derivative" if law is CustomVelocity else "_flux_derivative_root"
    assert owns in vars(law) and "structural_verdicts" in vars(law)


def test_a_law_without_a_kernel_raises_not_implemented():
    @dataclasses.dataclass(frozen=True)
    class SlopeOnly(velocity.VelocityModel):
        v_max: float = 1.0

        def _dv(self, rho):
            return np.full_like(rho, -self.v_max)

    with pytest.raises(NotImplementedError):
        SlopeOnly().value(0.5)
    with pytest.raises(NotImplementedError):
        integrate(atomize(scenario("box"), 8), SlopeOnly(), 0.1)


def test_a_law_without_a_slope_raises_not_implemented():
    @dataclasses.dataclass(frozen=True)
    class KernelOnly(velocity.VelocityModel):
        v_max: float = 1.0

        def _velocities(self, mass):
            return Greenshields(self.v_max)._velocities(mass)

    assert KernelOnly().value(0.5) == 0.5
    with pytest.raises(NotImplementedError):
        KernelOnly().derivative(0.5)


@pytest.mark.parametrize(("rho_max", "verdicts"), [
    (1.0, (True, True)), (np.nextafter(1.0, 2.0), (False, True)), (1.001, (False, True)),
    (2.0, (False, True)), (np.nextafter(2.0, 3.0), (False, False)), (2.001, (False, False)),
])
def test_underwood_reads_its_verdicts_from_closed_forms(rho_max, verdicts):
    # rho * v' turns around at rho 1 and f'' changes sign at rho 2; 256
    # samples read both true up to 1.001 and 2.001
    report = check_assumptions(Underwood(1.3), rho_max)
    assert report.weighted_slope_non_increasing is verdicts[0]
    assert report.flux_concave is verdicts[1]
    assert report.v_strictly_decreasing and report.v_at_zero_equals_v_max
    assert sampled_structure(Underwood(1.3), report.grid) == (rho_max < 1.002, True)


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
    methods, each law evaluated afresh for every verdict.  Every KINDS law
    reads its last two from its closed forms: a tabulated law's from its
    tables (no slope rises at a node inside (0, rho_max)); Underwood's
    rho * v' = -v_max * rho * e^-rho falls up to rho 1, and f'' = v_max *
    e^-rho * (rho - 2) is negative up to 2; Pipes-Munjal's rho * v' =
    -v_max * alpha * rho**alpha falls and its flux is concave while that is
    finite at rho_max; Greenshields' and ModifiedGreenberg's hold everywhere.
    CustomVelocity's are sampled."""
    grid = np.linspace(0.0, rho_max, ADMISSIBILITY_SAMPLES)
    decreasing = bool(np.all(np.diff(model.value(grid)) <= 0.0)
                      and np.all(model.derivative(grid[1:]) < 0.0))
    at_zero = model.value(0.0) == model.v_max
    if isinstance(model, TabulatedVelocity):
        slopes = np.diff(model.v_table) / np.diff(model.rho_table)
        kinked = bool(np.any((np.diff(slopes) > 0.0)[model.rho_table[1:-1] < rho_max]))
        return decreasing, at_zero, not kinked, not kinked
    if isinstance(model, Underwood):
        return decreasing, at_zero, rho_max <= 1.0, rho_max <= 2.0
    if isinstance(model, PipesMunjal):
        finite = bool(np.isfinite(model.v_max * model.alpha * rho_max**model.alpha))
        return decreasing, at_zero, finite, finite
    if isinstance(model, (Greenshields, ModifiedGreenberg)):
        return decreasing, at_zero, True, True
    return (decreasing, at_zero, *sampled_structure(model, grid))


@settings(deadline=None, max_examples=200)
@given(law=st.sampled_from(LAWS + [
           PipesMunjal(1.0, 20.0),     # flat by rounding near vacuum
           CustomVelocity(v_func=lambda r: 1.0 - r + 0.6 * np.asarray(r) ** 2, v_max=1.0)]),
       rho_max=st.floats(1e-3, 2.0))
# the table's first node is 0.15: its samples fail the weighted slope on
# [0, 0.15], where the law is linear, and pass the concavity of [0, 0.1500001]
@example(law=LAWS[-2], rho_max=0.15)
@example(law=LAWS[-2], rho_max=0.1500001)
def test_check_assumptions_matches_the_public_methods(law, rho_max):
    # v and v' are evaluated once each; every verdict is the one the public
    # flux, slope and weighted-slope methods give
    report = check_assumptions(law, rho_max)
    assert (report.v_strictly_decreasing, report.v_at_zero_equals_v_max,
            report.weighted_slope_non_increasing,
            report.flux_concave) == _verdicts_by_public_methods(law, rho_max)
    np.testing.assert_array_equal(report.grid, np.linspace(0.0, rho_max, ADMISSIBILITY_SAMPLES))
    if isinstance(law, (Greenshields, PipesMunjal, ModifiedGreenberg)):
        # these laws have no kink or turn for samples to miss, so the samples agree
        assert (report.weighted_slope_non_increasing, report.flux_concave) == \
            sampled_structure(law, report.grid)


def test_a_tabulated_law_reads_its_verdicts_from_the_slopes_at_nodes_inside_the_range():
    # slope -1 below the node 0.5 and -0.98 above it: f' jumps up by 0.01
    # there, which 256 samples of [0, 1] miss
    kinked = TabulatedVelocity(rho_table=np.array([0.0, 0.5, 1.2]),
                               v_table=np.array([1.0, 0.5, 0.5 + 0.7 * -0.98]))
    for rho_max, ok in ((0.5, True), (np.nextafter(0.5, 1.0), False), (1.0, False), (1.2, False)):
        report = check_assumptions(kinked, rho_max)
        assert (report.weighted_slope_non_increasing, report.flux_concave) == (ok, ok)
        assert report.v_strictly_decreasing and report.v_at_zero_equals_v_max


def test_a_collinear_table_is_concave_though_its_slopes_round_apart():
    collinear = TabulatedVelocity(rho_table=np.array([0.0, 0.3, 0.45]),
                                  v_table=np.array([1.0, 0.7, 0.55]))
    slopes = np.diff(collinear.v_table) / np.diff(collinear.rho_table)
    assert slopes.tolist() == [-1.0000000000000002, -0.9999999999999992]
    assert check_assumptions(collinear, 0.45).all_satisfied


@settings(deadline=None, max_examples=50)
@given(cells=st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(1e-3, 1.0)),
                      min_size=1, max_size=6),
       fraction=st.floats(0.01, 1.0))
def test_a_concave_table_reads_concave_by_its_slopes_and_by_its_samples(cells, fraction):
    # slope k is minus the sum of the first k + 1 drops, so the slopes fall
    widths, drops = (np.array(c) for c in zip(*cells))
    slopes = -np.cumsum(drops)
    law = TabulatedVelocity(rho_table=np.concatenate(([0.0], np.cumsum(widths))),
                            v_table=1.0 + np.concatenate(([0.0], np.cumsum(slopes * widths))))
    rho_max = fraction * law.rho_table[-1]
    assert check_assumptions(law, rho_max).all_satisfied
    grid = np.linspace(0.0, rho_max, ADMISSIBILITY_SAMPLES)
    assert sampled_structure(law, grid) == (True, True)
