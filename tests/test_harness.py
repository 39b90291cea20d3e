import concurrent.futures
import functools
import hashlib
import json
import math
import operator
import random
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import particle_states, pseudo_inverse
from ftl1d import (
    DiagnosticsReport,
    ParticleConfiguration,
    PiecewiseMonotone,
    Trajectory,
    atomize,
    cdf,
    from_piecewise,
    hat_density,
    l1_distance,
    wasserstein,
)
from ftl1d import dynamics, harness, reference, velocity
from ftl1d.dynamics import IntegratorSettings
from ftl1d.harness import (
    ConvergenceTable,
    ExperimentConfig,
    OracleSettings,
    convergence_study,
    main,
    run_experiment,
    write_density_csv,
    write_diagnostics_csv,
    write_quantile_csv,
    write_trajectory_csv,
)
from oracles import CustomVelocity

BASE_CONFIG = {
    "scenario": {"name": "riemann_like"},
    "velocity": {"kind": "greenshields", "v_max": 1.0},
    "particle_counts": [16, 32, 64],
    "t_end": 0.5,
    "sample_times": [0.0, 0.25, 0.5],
    "delta": 0.25,
    "integrator": {"method": "rk4_fixed"},
    "oracle": {"kind": "riemann"},
}


def make_config(**overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    return ExperimentConfig.from_dict(cfg)


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def strict_json(path):
    """The JSON document at ``path``; a NaN or an Infinity in it, which
    Python's json reads but JSON does not allow, raises ValueError."""
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}")
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


def test_settings_take_only_the_keys_given():
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != "integrator"}
    config = ExperimentConfig.from_dict(cfg)
    assert config.integrator == IntegratorSettings()
    assert config.oracle == OracleSettings(kind="riemann")
    assert ExperimentConfig.from_dict({}).oracle == OracleSettings(kind="exact")
    # JSON integers read as floats (the manifest echoes them); null is the default step
    config = make_config(integrator={"dt": None, "abs_tol": 1, "rel_tol": 1},
                         oracle={"kind": "exact"})
    assert config.integrator == IntegratorSettings(abs_tol=1.0, rel_tol=1.0)
    assert config.integrator.dt is None
    assert type(config.integrator.abs_tol) is float
    assert type(config.integrator.rel_tol) is float
    assert config.oracle == OracleSettings(kind="exact")


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after ``heading`` in the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index(heading):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```", start)]


def test_readme_examples_run(tmp_path, monkeypatch):
    exec(_readme_block("## Library quick start", "python"), {})
    config_text = _readme_block("Example config:", "json")
    cfg = json.loads(config_text)
    assert ExperimentConfig.from_dict(cfg).particle_counts == (16, 64, 256, 1024)
    # each line of the CLI block reads that config saved as examples.json
    monkeypatch.chdir(tmp_path)
    (tmp_path / "examples.json").write_text(config_text, encoding="utf-8")
    for line in _readme_block("## CLI", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "ftl1d"
        assert main(argv[1:]) == 0


def test_config_validation_errors():
    with pytest.raises(ValueError):
        make_config(delta=0.7)      # delta beyond t_end
    with pytest.raises(ValueError):
        make_config(particle_counts=[])
    with pytest.raises(ValueError):
        make_config(particle_counts=[64, 16])
    with pytest.raises(ValueError):
        make_config(particle_counts=[32, 64, 64])   # a repeated count
    with pytest.raises(ValueError):
        make_config(particle_counts=[1, 4])
    with pytest.raises(ValueError):
        make_config(sample_times=[0.0, 0.9])
    with pytest.raises(ValueError):
        make_config(scenario={"name": "mystery"})
    with pytest.raises(ValueError):
        make_config(velocity={"kind": "mystery"})
    with pytest.raises(ValueError):
        make_config(velocity={"kind": "greenshields", "v_max": 0})
    with pytest.raises(ValueError, match=re.escape("unknown oracle key(s): cfl")):
        make_config(oracle={"cfl": 2.0})


def test_invalid_config_writes_nothing(tmp_path):
    target = tmp_path / "out"
    with pytest.raises(ValueError):
        run_experiment(make_config(delta=0.7), target)
    assert not target.exists()


def test_run_experiment_artifacts(tmp_path):
    config = make_config(particle_counts=[64])
    results = run_experiment(config, tmp_path)
    assert len(results) == 1
    assert results[0].report.passed
    assert results[0].report.violations == []
    run_dir = tmp_path / "run_N00064"
    for name in ("trajectory.csv", "density_initial.csv", "density_final.csv",
                 "quantile_final.csv", "diagnostics.json", "diagnostics.csv"):
        assert (run_dir / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["scenario"]["name"] == "riemann_like"
    assert manifest["runs"][0]["passed"] is True
    # every artifact is listed with its checksum
    listed = set(manifest["runs"][0]["files"])
    on_disk = {str(p.relative_to(tmp_path)) for p in run_dir.iterdir()}
    assert listed == on_disk
    for rel, digest in manifest["runs"][0]["files"].items():
        assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest


def test_diagnostics_artifacts_are_pinned(tmp_path):
    # every bit of every file of one small run: Greenshields, the default
    # RK4, N = 64 and 5 samples; the JSON holds no interleaving key and no
    # entropy_min, and the CSV has six columns
    cfg = dict(BASE_CONFIG, particle_counts=[64], t_end=1.0,
               sample_times=[0.0, 0.25, 0.5, 0.75, 1.0])
    del cfg["integrator"]
    run_experiment(ExperimentConfig.from_dict(cfg), tmp_path)
    digests = tree_digest(tmp_path / "run_N00064")
    assert digests["diagnostics.json"] == (
        "f94e5da9e1a3ac8f47bc830b407ccc77a804da0ac5508a0189a1ec099dd0d6b4")
    assert digests["diagnostics.csv"] == (
        "0beb7497df420da7c98685cfbf4352a037d1bd7a138807b5fa74c23137b4b412")
    assert digests["trajectory.csv"] == (
        "5e874ddebcb5c35a7dd51efad2dc41298319695ab7b25a19a02e8361155bbdec")
    assert digests["density_initial.csv"] == (
        "f5cd1d9902198a8dff71baa19ab2a4d4193e0ffac10c88babd16a381d4fd3458")
    assert digests["density_final.csv"] == (
        "81ce6aa0f20bf047a369ceda5208229606276d7739aa30d09528c6a716d03241")
    assert digests["quantile_final.csv"] == (
        "b50949553c3282f9f84eb8a7a2a7212ba22bb13d7422c7b8af86ceb072b9f57b")


def test_trajectory_csv_round_trips(tmp_path):
    run_experiment(make_config(particle_counts=[16]), tmp_path)
    rows = (tmp_path / "run_N00016" / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "t,i,x_i"
    body = [r.split(",") for r in rows[1:]]
    times = sorted({float(r[0]) for r in body})
    assert times == [0.0, 0.25, 0.5]
    assert len(body) == 3 * 17
    # shortest round-trip floats re-ingest exactly
    assert all(repr(float(r[2])) == r[2] for r in body)


def test_config_reads_integral_counts_and_sorts_the_samples():
    config = make_config(particle_counts=[8.0, np.int64(16)], sample_times=[0.5, 0, 0.25, 0.5])
    assert config.particle_counts == (8, 16)
    assert all(type(n) is int for n in config.particle_counts)
    assert config.sample_times == (0.0, 0.25, 0.5)
    assert make_config(t_end=0.0, sample_times=None, delta=0.25).sample_times == (0.0,)


def test_run_experiment_t_end_zero(tmp_path):
    config = make_config(t_end=0.0, sample_times=[0.0], particle_counts=[8])
    results = run_experiment(config, tmp_path)
    assert results[0].report.passed
    rows = (tmp_path / "run_N00008" / "trajectory.csv").read_text().strip().splitlines()
    assert {float(r.split(",")[0]) for r in rows[1:]} == {0.0}


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(state=particle_states())
def test_quantile_csv_rows_are_the_pseudo_inverse_of_the_hat_cdf(tmp_path, state):
    hat = hat_density(state)
    path = tmp_path / "quantile_final.csv"
    write_quantile_csv(path, hat)
    X = pseudo_inverse(cdf(hat))
    rows = [f"{z!r},{x!r}" for z, x in zip(X.breakpoints.tolist(), X.values.tolist())]
    assert path.read_text(encoding="utf-8").splitlines() == ["z,X_z", *rows]


# floats whose shortest repr is in exponent form, a negative zero and
# negative values; an np.float64 too, as the report lists hold both kinds
_ODD = [-1.5e16, -2.5, -0.0, 1e-05, np.float64(0.1), 1.5e16]
_COLUMNS = ("times", "min_gap_ratios", "oleinik_interior_max", "oleinik_leader",
            "tv_hat", "tv_velocity")


def _reference_csv(header, rows) -> str:
    """One line per row, every cell formatted on its own; a str cell as it is."""
    cells = (",".join(x if isinstance(x, str) else repr(float(x)) for x in row)
             for row in rows)
    return "".join(f"{line}\n" for line in (header, *cells))


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_csv_writers_format_each_cell_as_repr_of_float(tmp_path):
    path = tmp_path / "out.csv"
    states = (ParticleConfiguration(0.0, 0.5, [-1.5e16, -0.0]),      # two particles
              ParticleConfiguration(1e-05, 0.5, [-2.5, 1e-05]),
              ParticleConfiguration(1.5e16, 0.5, [0.1, 1.5e16]))
    assert write_trajectory_csv(path, Trajectory(states)) == _file_sha256(path)
    assert path.read_text(encoding="utf-8") == _reference_csv(
        "t,i,x_i", [(s.time, str(i), x) for s in states for i, x in enumerate(s.positions)])

    for density in (from_piecewise([-0.0, 1e-05], [1.5e16]),             # one cell
                    from_piecewise(_ODD, [1e-05, 0.0, 2.5, 1.5e16, 0.1])):
        assert write_density_csv(path, density) == _file_sha256(path)
        bp = density.breakpoints
        assert path.read_text(encoding="utf-8") == _reference_csv(
            "x_left,x_right,value", zip(bp[:-1], bp[1:], density.values))

    hat = hat_density(states[0])
    assert write_quantile_csv(path, hat) == _file_sha256(path)
    assert path.read_text(encoding="utf-8") == _reference_csv(
        "z,X_z", zip(hat.cumulative_masses, hat.breakpoints))

    columns = [_ODD[k:] + _ODD[:k] for k in range(len(_COLUMNS))]
    report = DiagnosticsReport(**dict(zip(_COLUMNS, columns)))
    assert write_diagnostics_csv(path, report) == _file_sha256(path)
    assert path.read_text(encoding="utf-8") == _reference_csv(
        "t,min_gap_ratio,oleinik_interior_max,oleinik_leader,tv_hat,tv_velocity",
        zip(*columns))
    # no sample: the header alone
    assert write_diagnostics_csv(path, DiagnosticsReport()) == _file_sha256(path)
    assert path.read_text(encoding="utf-8") == _reference_csv(
        "t,min_gap_ratio,oleinik_interior_max,oleinik_leader,tv_hat,tv_velocity", [])


def test_determinism_byte_identical(tmp_path):
    config = make_config(particle_counts=[16, 32])
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_parallel_jobs_match_sequential(tmp_path):
    config = make_config(particle_counts=[8, 16, 32])
    run_experiment(config, tmp_path / "seq", jobs=1)
    run_experiment(config, tmp_path / "par", jobs=2)
    assert tree_digest(tmp_path / "seq") == tree_digest(tmp_path / "par")


class _InlinePool:
    """Stands in for a ProcessPoolExecutor: runs each task at submit and
    starts no process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("counts, jobs, workers", [
    ([8, 16], 64, [2]), ([8, 16, 32], 2, [2]), ([8, 16], 1, []), ([8], 5, [])])
def test_jobs_cap_the_pool_at_one_worker_per_count(tmp_path, monkeypatch, counts, jobs,
                                                  workers):
    built = []

    def pool(max_workers):
        built.append(max_workers)
        return _InlinePool()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    config = make_config(particle_counts=counts)
    run_experiment(config, tmp_path / "pool", jobs=jobs)
    assert built == workers
    run_experiment(config, tmp_path / "seq")
    assert tree_digest(tmp_path / "pool") == tree_digest(tmp_path / "seq")


@pytest.mark.parametrize("jobs, workers", [(2, [2]), (3, [3]), (8, [3])])
def test_converge_jobs_run_the_counts_through_the_pool(tmp_path, monkeypatch, capsys, jobs,
                                                       workers):
    built = []

    def pool(max_workers):
        built.append(max_workers)
        return _InlinePool()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG))
    assert main(["converge", "--config", str(cfg_path), "--out", str(tmp_path / "seq")]) == 0
    assert built == []
    seq_stdout = capsys.readouterr().out
    assert main(["converge", "--config", str(cfg_path), "--out", str(tmp_path / "pool"),
                 "--jobs", str(jobs)]) == 0
    assert built == workers
    assert capsys.readouterr().out == seq_stdout
    assert tree_digest(tmp_path / "pool") == tree_digest(tmp_path / "seq")
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        convergence_study(make_config(), jobs=0)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_are_refused(tmp_path, capsys, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment(make_config(particle_counts=[8, 16]), tmp_path / "api", jobs=jobs)
    assert not (tmp_path / "api").exists()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--jobs", str(jobs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ftl1d: error: --jobs must be at least 1, got {jobs}\n"
    assert not out.exists()


def test_convergence_study_bounds_and_orders():
    table = convergence_study(make_config(particle_counts=[16, 32, 64, 128]))
    assert isinstance(table, ConvergenceTable)
    assert table.oracle_kind == "riemann"
    assert table.window is not None
    rows = table.rows
    assert [r.n_particles for r in rows] == [16, 32, 64, 128]
    for row in rows:
        assert row.initial_distance <= row.initial_bound + 1e-10
    # doubling the particle count halves the bound column exactly
    for a, b in zip(rows[:-1], rows[1:]):
        assert b.initial_bound == a.initial_bound / 2.0
        assert b.initial_distance < a.initial_distance
        assert b.l1_error < a.l1_error
    assert rows[1].observed_order is not None


def test_convergence_study_exact_oracle():
    config = make_config(scenario={"name": "double_hump"}, particle_counts=[8, 16, 32],
                         oracle={"kind": "exact"})
    table = convergence_study(config)
    assert table.oracle_kind == "exact"
    assert table.window is None
    assert all(np.isfinite(r.l1_error) for r in table.rows)
    assert all(np.isfinite(r.wasserstein_vs_exact) for r in table.rows)


@pytest.mark.parametrize("scenario", ["riemann_like", "double_hump"])
def test_convergence_study_never_marches_godunov(monkeypatch, scenario):
    # both modes read the exact profile; the march serves criterion 11 only
    def refuse(*args, **kwargs):
        raise AssertionError("convergence_study called reference.godunov")

    monkeypatch.setattr(reference, "godunov", refuse)
    kind = "riemann" if scenario == "riemann_like" else "exact"
    table = convergence_study(make_config(scenario={"name": scenario}, oracle={"kind": kind}))
    assert table.oracle_kind == kind


def test_riemann_l1_error_column_is_pinned():
    # the Riemann mode reads no Godunov or Lax-Hopf oracle for its L1 column,
    # so the column keeps its bits
    table = convergence_study(make_config())
    assert [r.l1_error for r in table.rows] == [
        0.0671309197021978, 0.04381873188870215, 0.025190377408846054]


@pytest.mark.parametrize("states", [(0.8, 0.2), (0.2, 0.8)], ids=["rarefaction", "shock"])
def test_convergence_study_at_time_zero_reads_the_datum(states):
    # at t_end 0 the Riemann solution is the datum and the window is the
    # whole support, so the L1 column is the distance of each hat to the datum
    scenario = {"name": "riemann_like", "left_height": states[0], "right_height": states[1]}
    config = make_config(scenario=scenario, t_end=0, sample_times=[0.0])
    table = convergence_study(config)
    assert table.window == (config.datum.support_min, config.datum.support_max)
    for row in table.rows:
        hat = hat_density(atomize(config.datum, row.n_particles))
        assert row.l1_error == pytest.approx(l1_distance(hat, config.datum), rel=1e-12)


def test_exact_table_at_time_zero_is_the_distance_to_an_off_grid_datum():
    # at t_end 0 the exact solution is the datum, whose breakpoints lie off
    # the oracle's cells; both columns are the distances of each hat to it
    config = make_config(scenario={"breakpoints": [-0.37, 0.123, 0.5551, 1.3],
                                   "values": [0.8, 0.1, 0.6]},
                         particle_counts=[64, 128, 256], t_end=0, sample_times=[0.0],
                         oracle={"kind": "exact"})
    for row in convergence_study(config).rows:
        hat = hat_density(atomize(config.datum, row.n_particles))
        assert row.l1_error == pytest.approx(l1_distance(hat, config.datum), rel=1e-10)
        assert row.wasserstein_vs_exact == pytest.approx(wasserstein(hat, config.datum),
                                                         rel=1e-10)


@pytest.mark.parametrize("scenario, law", [
    ("riemann_like", {"kind": "pipes_munjal", "alpha": 2.0}),
    ("box", {"kind": "underwood"}),
    ("double_hump", {"kind": "greenshields"}),
])
def test_exact_columns_agree_with_a_sixteen_times_finer_mesh(monkeypatch, scenario, law):
    # at N 1024 and t_end 0.5, against M on cells of span / 65536 and at the
    # hat's breakpoints: the L1 sum over the finer mesh can only grow, and it
    # reads at most 2e-3 (relative) above the table's; W1 agrees to 1e-4
    hats = {}
    single = harness._converge_single

    def recording(config, n):
        out = single(config, n)
        hats[n] = out[-1]
        return out

    monkeypatch.setattr(harness, "_converge_single", recording)
    config = make_config(scenario={"name": scenario}, velocity=law,
                         particle_counts=[16, 32, 1024], oracle={"kind": "exact"})
    row = convergence_study(config).rows[-1]
    datum, model, hat = config.datum, config.model, hats[1024]
    dx = (datum.support_max - datum.support_min) / 65536
    pad = math.ceil(reference.max_wave_speed(model, datum.sup_norm) * 0.5 / dx)
    x = functools.reduce(np.union1d, (datum.support_min + dx * np.arange(-pad, 65536 + pad + 1),
                                      datum.breakpoints, hat.breakpoints))
    mass = reference.entropy_mass(datum, model, 0.5, x)
    l1_fine = np.sum(np.abs(np.diff(hat.cdf_values(x) - mass)))
    assert (1.0 - 2e-3) * l1_fine <= row.l1_error <= (1.0 + 1e-12) * l1_fine
    w1_fine = wasserstein(hat, PiecewiseMonotone(x, mass))
    assert row.wasserstein_vs_exact == pytest.approx(w1_fine, rel=1e-4)


@pytest.mark.parametrize("override", [{"scenario": {"name": "riemann_like", "jump_at": 0.5}},
                                      {"t_end": 1.5}], ids=["jump_off_zero", "late_t_end"])
def test_riemann_like_reads_the_exact_oracle_by_default(tmp_path, capsys, override):
    # no oracle window, so neither a jump off x = 0 nor a late t_end is refused
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != "oracle"}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(cfg, **override)))
    assert main(["converge", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    table = strict_json(tmp_path / "out" / "convergence.json")
    assert table["oracle_kind"] == "exact"
    assert table["window"] is None
    assert all(math.isfinite(row["l1_error"]) for row in table["rows"])


def test_riemann_like_and_its_two_cells_give_one_table():
    named = make_config(oracle={})
    explicit = make_config(oracle={}, scenario={"breakpoints": list(named.datum.breakpoints),
                                                "values": list(named.datum.values)})
    assert asdict(convergence_study(named)) == asdict(convergence_study(explicit))


def test_convergence_study_needs_three_counts():
    with pytest.raises(ValueError):
        convergence_study(make_config(particle_counts=[8, 16]))


def test_cli_run_and_check(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "config.json"
    cfg = dict(BASE_CONFIG)
    cfg["particle_counts"] = [16]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    capsys.readouterr()
    assert main(["check", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["flux_concave"] is True
    # v = 1 - rho + 0.6 rho^2: the flux turns convex beyond rho = 5/9
    bumpy = CustomVelocity(v_func=lambda r: 1.0 - np.asarray(r) + 0.6 * np.asarray(r) ** 2,
                           v_max=1.0)
    settings = harness._settings
    monkeypatch.setattr(harness, "_settings", lambda cls, path, given: bumpy
                        if path == "velocity" else settings(cls, path, given))
    assert main(["check", "--config", str(cfg_path)]) == 1
    assert json.loads(capsys.readouterr().out)["flux_concave"] is False


def test_cli_converge(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg = dict(BASE_CONFIG)
    cfg["particle_counts"] = [16, 32, 64]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = json.loads((out / "convergence.json").read_text())
    assert [row["n_particles"] for row in table["rows"]] == [16, 32, 64]
    assert "initial_dist" in capsys.readouterr().out


def test_cli_check_failure_exit_code(tmp_path):
    cfg = dict(BASE_CONFIG)
    # tall datum drives the Underwood law outside its admissible slope range
    cfg["velocity"] = {"kind": "underwood", "v_max": 1.0}
    cfg["scenario"] = {"name": "box", "height": 2.0, "width": 0.5}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(cfg_path)]) == 1


def test_cli_run_exits_1_on_a_failed_check(tmp_path, capsys):
    # RK4 at dt 0.1 is too coarse for the Oleinik bound on this sawtooth at t = 0.5
    cfg = dict(BASE_CONFIG, scenario={"name": "sawtooth_bv"},
               velocity={"kind": "pipes_munjal", "alpha": 2.0, "v_max": 1.0},
               particle_counts=[32], t_end=2.0, sample_times=[0.0, 0.5, 1.0, 1.5, 2.0],
               delta=0.5, integrator={"dt": 0.1})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().out == "N=32: 1 violation(s)\n"
    report = json.loads((out / "run_N00032" / "diagnostics.json").read_text())
    assert [v["check"] for v in report["violations"]] == ["oleinik_interior"]


_ALL_VERBS = ("run", "converge", "check")
# v = 1 - rho**2000 rounds to 1 below rho of about 0.7, and its slope to -0
_FLAT_LAW = dict(BASE_CONFIG, scenario={"name": "box"},
                 velocity={"kind": "pipes_munjal", "alpha": 2000})
# the same law on a box of height 1.25 is read on [0, 1.5] when the config is
# parsed, where rho**2000 overflows: v and the flux are not finite there
_OVERFLOWING_LAW = dict(_FLAT_LAW, scenario={"name": "box", "height": 1.25})
_WITHOUT_SAMPLES = {k: v for k, v in BASE_CONFIG.items() if k != "sample_times"}
# v has slope -1 below rho 0.5 and -0.98 above it, so the flux's slope jumps up
# by 0.01 at that node: the flux is not concave on [0, 1], though 256 samples
# of it read concave; the exact oracle's Lax-Hopf formula needs it concave
_KINKED_TABLE = {k: v for k, v in BASE_CONFIG.items() if k != "oracle"} | {
    "scenario": {"name": "double_hump"}, "particle_counts": [64, 256, 1024],
    "velocity": {"kind": "tabulated", "rho_table": [0.0, 0.5, 1.2],
                 "v_table": [1.0, 0.5, 0.5 + 0.7 * -0.98]}}
# (id, config text or None for a missing file, start of the message, the verbs
# that read the refused part)
_REFUSED = [
    ("refused", json.dumps(dict(BASE_CONFIG, particle_counts=[32, 64, 64])),
     "particle_counts must be strictly ascending", _ALL_VERBS),
    ("malformed", '{"t_end": 1.0,', "Expecting property name", _ALL_VERBS),
    ("tabulated_without_tables", json.dumps(dict(BASE_CONFIG, velocity={"kind": "tabulated"})),
     "velocity needs key(s): rho_table, v_table", _ALL_VERBS),
    ("missing_file", None, "[Errno 2] No such file or directory", _ALL_VERBS),
    ("two_counts", json.dumps(dict(BASE_CONFIG, particle_counts=[16, 32])),
     "need at least 3 particle counts", ("converge",)),
    ("jump_off_zero", json.dumps(dict(BASE_CONFIG, scenario={"name": "riemann_like",
                                                             "jump_at": 0.3})),
     "riemann oracle assumes the jump sits at x = 0", ("converge",)),
    ("empty_window", json.dumps(dict(BASE_CONFIG, t_end=1.5)),
     "t_end too large for a valid Riemann comparison window", ("converge",)),
    ("riemann_oracle_on_a_box", json.dumps(dict(BASE_CONFIG, scenario={"name": "box"},
                                                oracle={"kind": "riemann"})),
     "riemann oracle needs a two-cell datum", ("converge",)),
    # a scenario's name picks no oracle: exact is the default, riemann is asked for
    ("auto_oracle", json.dumps(dict(BASE_CONFIG, oracle={"kind": "auto"})),
     "unknown oracle kind 'auto'", _ALL_VERBS),
    # the gap floor's safety fraction is the constant dynamics.GAP_FLOOR_SAFETY
    ("gap_floor_safety", json.dumps(dict(BASE_CONFIG, integrator={"gap_floor_safety": 0.5})),
     "unknown integrator key(s): gap_floor_safety", _ALL_VERBS),
    # a law that integrate refuses; check reports it instead (below)
    ("flat_law", json.dumps(_FLAT_LAW), "velocity law increases, or is flat, on [0, 1.0]",
     ("run", "converge")),
    ("overflowing_law", json.dumps(_OVERFLOWING_LAW),
     "velocity law increases, or is flat, on [0, 1.25]", ("run", "converge")),
    # refused before any run is integrated; check reports it (below)
    ("kinked_table", json.dumps(_KINKED_TABLE),
     "flux is not concave on [0, 1.0]; oracle unavailable", ("converge",)),
    ("table_short_of_the_datum", json.dumps(dict(
        BASE_CONFIG, scenario={"name": "box", "height": 1.0},
        velocity={"kind": "tabulated", "rho_table": [0.0, 0.5], "v_table": [1.0, 0.5]})),
     "density beyond tabulated range [0, 0.5]", _ALL_VERBS),
    # the atomized densities round above the sup norm, so a run requires the
    # law up to 1.2 times it: the table must reach that far
    ("table_ending_at_the_sup_norm", json.dumps(dict(
        BASE_CONFIG, scenario={"name": "box", "height": 1.0, "width": 0.7},
        velocity={"kind": "tabulated", "rho_table": [0.0, 1.0], "v_table": [1.0, 0.0]})),
     "density beyond tabulated range [0, 1.0]; the velocity law must be defined on "
     "[0, 1.2 * sup_norm] = [0, 1.2]", _ALL_VERBS),
    ("table_short_of_the_entropy_reach", json.dumps(dict(
        BASE_CONFIG, scenario={"name": "box", "height": 1.0, "width": 0.7},
        velocity={"kind": "tabulated", "rho_table": [0.0, 1.19], "v_table": [1.0, 0.0]})),
     "density beyond tabulated range [0, 1.19]; the velocity law must be defined on "
     "[0, 1.2 * sup_norm] = [0, 1.2]", _ALL_VERBS),
    # JSON reads NaN; a NaN node passes both monotonicity tests of a table
    ("nan_in_a_table", json.dumps(dict(
        BASE_CONFIG, velocity={"kind": "tabulated", "rho_table": [0.0, math.nan, 2.0],
                               "v_table": [1.0, 0.5, 0.0]})),
     "rho_table and v_table must be finite", _ALL_VERBS),
    # the run's shape: its samples, its particle counts and its horizon; JSON
    # reads 1e400 as an infinity
    ("nan_sample", json.dumps(dict(BASE_CONFIG, t_end=1.0, sample_times=[0, math.nan, 1])),
     "sample times must lie in [0, t_end]", _ALL_VERBS),
    ("no_samples", json.dumps(dict(BASE_CONFIG, sample_times=[])),
     "need at least one sample time", _ALL_VERBS),
    ("fractional_count", json.dumps(dict(BASE_CONFIG, particle_counts=[8.7, 16])),
     "particle count must be an integer >= 2, got 8.7", _ALL_VERBS),
    ("counts_as_a_string", json.dumps(dict(BASE_CONFIG, particle_counts="289")),
     "particle_counts must be a list of numbers, got '289'", _ALL_VERBS),
    ("infinite_count", json.dumps(dict(BASE_CONFIG, particle_counts=[8, math.inf]))
     .replace("Infinity", "1e400"), "particle count must be an integer >= 2, got inf", _ALL_VERBS),
    ("infinite_horizon", json.dumps(dict(_WITHOUT_SAMPLES, t_end=math.inf, delta=0.25))
     .replace("Infinity", "1e400"), "t_end must be finite and nonnegative", _ALL_VERBS),
    # the oracle's step is no key: the exact profile's cells are span / 4096
    ("infinite_oracle_step", json.dumps(dict(BASE_CONFIG, oracle={"dx": math.inf}))
     .replace("Infinity", "1e400"), "unknown oracle key(s): dx", _ALL_VERBS),
    # every value is read as its JSON type, and null only where the key allows it;
    # a string is not read as a number
    ("scalar_counts", json.dumps(dict(BASE_CONFIG, particle_counts=64)),
     "particle_counts must be a list of numbers, got 64", _ALL_VERBS),
    ("scalar_samples", json.dumps(dict(BASE_CONFIG, sample_times=0.5)),
     "sample_times must be a list of numbers, got 0.5", _ALL_VERBS),
    ("null_horizon", json.dumps(dict(BASE_CONFIG, t_end=None)),
     "t_end must be a number, got None", _ALL_VERBS),
    ("null_delta", json.dumps(dict(BASE_CONFIG, delta=None)),
     "delta must be a number, got None", _ALL_VERBS),
    ("null_cfl", json.dumps(dict(BASE_CONFIG, oracle={"cfl": None})),
     "unknown oracle key(s): cfl", _ALL_VERBS),
    ("list_alpha", json.dumps(dict(BASE_CONFIG, velocity={"kind": "pipes_munjal",
                                                           "alpha": [2.0]})),
     "velocity.alpha must be a number, got [2.0]", _ALL_VERBS),
    ("integrator_as_a_list", json.dumps(dict(BASE_CONFIG, integrator=["rk4_fixed"])),
     "integrator must be an object, got ['rk4_fixed']", _ALL_VERBS),
    ("top_level_list", "[1, 2]", "config must be an object, got [1, 2]", _ALL_VERBS),
    ("string_horizon", json.dumps(dict(BASE_CONFIG, t_end="1")),
     "t_end must be a number, got '1'", _ALL_VERBS),
    ("boolean_speed", json.dumps(dict(BASE_CONFIG, velocity={"kind": "greenshields",
                                                              "v_max": True})),
     "velocity.v_max must be a number, got True", _ALL_VERBS),
    ("huge_integer_horizon", json.dumps(dict(BASE_CONFIG, t_end=10 ** 400)),
     "t_end is an integer too large for a float", _ALL_VERBS),
    ("negative_delta_at_zero_horizon", json.dumps({"scenario": {"name": "box"}, "t_end": 0,
                                                   "delta": -1, "particle_counts": [8]}),
     "delta must lie in (0, t_end), or be positive and finite at t_end 0", _ALL_VERBS),
    # an infinite delta would be written into the manifest as Infinity, not strict JSON
    ("infinite_delta_at_zero_horizon", json.dumps({"scenario": {"name": "box"}, "t_end": 0,
                                                   "delta": math.inf, "particle_counts": [8]})
     .replace("Infinity", "1e400"),
     "delta must lie in (0, t_end), or be positive and finite at t_end 0, got inf", _ALL_VERBS),
    # so would an infinite step or tolerance
    ("infinite_step", json.dumps(dict(BASE_CONFIG, integrator={"dt": math.inf}))
     .replace("Infinity", "1e400"), "dt must be positive and finite", _ALL_VERBS),
    ("infinite_abs_tol", json.dumps(dict(BASE_CONFIG, integrator={
        "method": "rk45_adaptive", "abs_tol": math.inf})).replace("Infinity", "1e400"),
     "tolerances must be positive and finite", _ALL_VERBS),
    ("infinite_rel_tol", json.dumps(dict(BASE_CONFIG, integrator={
        "method": "rk45_adaptive", "rel_tol": math.inf})).replace("Infinity", "1e400"),
     "tolerances must be positive and finite", _ALL_VERBS),
    # refused before the smaller count's run is integrated or written
    ("count_above_the_ceiling", json.dumps(dict(BASE_CONFIG, particle_counts=[8, 1e30])),
     "particle count must be at most 1048576, got 1e+30", _ALL_VERBS),
]


@pytest.mark.parametrize("text, message, verb, verbs", [
    pytest.param(text, message, verb, verbs, id=f"{name}-{verb}")
    for name, text, message, verbs in _REFUSED for verb in verbs])
def test_cli_exits_2_on_a_refused_config(tmp_path, capsys, verb, text, message, verbs):
    cfg_path = tmp_path / "config.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    flags = [] if verb == "check" else ["--out", str(out)]
    assert main([verb, "--config", str(cfg_path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ftl1d: error: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()
    if verbs == ("converge",):
        # a library caller of the table gets the same refusal as a ValueError
        with pytest.raises(ValueError, match=re.escape(message)):
            convergence_study(ExperimentConfig.from_json(cfg_path))


def test_check_reports_the_law_that_run_and_converge_refuse(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_FLAT_LAW))
    assert main(["check", "--config", str(cfg_path)]) == 1
    assert json.loads(capsys.readouterr().out)["v_strictly_decreasing"] is False
    # the table refuses it before the oracle or any count runs
    with pytest.raises(ValueError, match="velocity law increases, or is flat"):
        convergence_study(ExperimentConfig.from_json(cfg_path))


def test_check_reads_a_law_that_overflows_at_a_sample_as_not_concave(tmp_path, capsys):
    # check samples [0, 1.43]; rho**2000 overflows at the last sample only, so
    # v and the flux read -inf there and the bound of the second differences
    # inf: each sampled verdict that reads a sample that is not finite is
    # false, and no numpy warning is raised
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(_FLAT_LAW, scenario={"name": "box", "height": 1.43})))
    assert main(["check", "--config", str(cfg_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["weighted_slope_non_increasing"], report["flux_concave"]) == (False, False)


def test_check_reports_the_kinked_table_that_converge_refuses(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_KINKED_TABLE))
    assert main(["check", "--config", str(cfg_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["weighted_slope_non_increasing"], report["flux_concave"]) == (False, False)


def _paths(node, prefix=()):
    """The path of every key and list index below ``node``, a parsed config."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_DROP = object()
# the root, every key and index of BASE_CONFIG, and keys it leaves to their defaults
_MUTABLE = [(), *_paths(BASE_CONFIG), ("scenario", "left_height"), ("velocity", "alpha"),
            ("integrator", "dt"), ("integrator", "abs_tol"), ("oracle", "dx"),
            ("oracle", "kind")]
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 100), st.just(10 ** 400),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.5, 0.0, 0.5, 2.0]),
    st.sampled_from(["", "1", "box", "tabulated", "riemann", "rk45_adaptive"]),
    st.text(max_size=3), st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.sampled_from([[], [1, 2], {}, {"a": 1}]))


@settings(deadline=None, max_examples=200)
@given(path=st.sampled_from(_MUTABLE), value=st.one_of(st.just(_DROP), _JSON_VALUES))
def test_a_mutated_config_is_read_or_refused_with_a_value_error(path, value):
    # one key dropped or set to any JSON value, the root included; nothing integrates
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if not path:
        cfg = {} if value is _DROP else value
    else:
        *head, last = path
        parent = functools.reduce(operator.getitem, head, cfg)
        if value is not _DROP:
            parent[last] = value
        elif isinstance(parent, list) or last in parent:
            del parent[last]
    try:
        ExperimentConfig.from_dict(cfg)
    except ValueError:
        pass


def test_run_accepts_a_table_ending_at_the_entropy_reach(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, particle_counts=[16], scenario={"name": "box", "height": 1.0,
                                                           "width": 0.7},
               velocity={"kind": "tabulated", "rho_table": [0.0, 1.2], "v_table": [1.0, 0.0]})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == "N=16: ok\n"


@pytest.mark.parametrize("flag", ["--jobs", "--out"])
def test_check_takes_only_config(tmp_path, capsys, flag):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG))
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", str(cfg_path), flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "converge"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_any_work(tmp_path, capsys,
                                                                    monkeypatch, verb):
    def refuse(*args, **kwargs):
        raise AssertionError("integrate ran")

    monkeypatch.setattr(dynamics, "integrate", refuse)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG))
    out = tmp_path / "afile"
    out.write_text("kept\n")
    assert main([verb, "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ftl1d: error: [Errno 17]")
    assert captured.err.count("\n") == 1
    assert out.read_text() == "kept\n"


def _explicit_cells() -> dict:
    """An explicit datum of 64 seeded cells on [0, 1], vacuum among them."""
    rng = random.Random(64)
    values = [0.0 if rng.random() < 0.1 else rng.random() for _ in range(64)]
    assert 0.0 in values
    return {"breakpoints": [k / 64 for k in range(65)], "values": values}


# BASE_CONFIG with the default integrator and oracle, and its variants
_CLI = {k: v for k, v in BASE_CONFIG.items() if k not in ("integrator", "oracle")}
_DP45 = {"integrator": {"method": "rk45_adaptive"}}
_PIPES_MUNJAL = {"velocity": {"kind": "pipes_munjal", "alpha": 2.5, "v_max": 1.17}}
_MODIFIED_GREENBERG = {"velocity": {"kind": "modified_greenberg", "alpha": 0.1, "v_max": 1.17}}
_EXPLICIT = dict(_CLI, scenario=_explicit_cells(), velocity={"kind": "greenshields"},
                 particle_counts=[64, 128, 256])
# (verb, config, the --jobs values whose trees must agree); a pool ships the
# law with its bound operands, and each worker builds the law's kernel from
# its own cell mass
_END_TO_END = [
    pytest.param("run", _CLI, (1,), id="run"),
    pytest.param("run", dict(_CLI, **_DP45), (1, 2), id="run-dp45"),
    pytest.param("run", dict(_CLI, **_PIPES_MUNJAL), (1, 2), id="run-pipes_munjal"),
    pytest.param("run", dict(_CLI, **_PIPES_MUNJAL, **_DP45), (1,), id="run-pipes_munjal-dp45"),
    pytest.param("run", dict(_CLI, **_MODIFIED_GREENBERG), (1,), id="run-modified_greenberg"),
    pytest.param("run", dict(_CLI, **_MODIFIED_GREENBERG, **_DP45), (1,),
                 id="run-modified_greenberg-dp45"),
    pytest.param("run", dict(_CLI, velocity={"kind": "underwood", "v_max": 1.17}), (1, 2),
                 id="run-underwood"),
    # one sample, so both time-continuity moduli are skipped
    pytest.param("run", dict(_CLI, t_end=0, sample_times=[0.0]), (1,), id="run-one_sample"),
    # sampled from 0.5 on, and still recording t = 0
    pytest.param("run", dict(_CLI, sample_times=[0.5]), (1,), id="run-late_sample"),
    pytest.param("run", _EXPLICIT, (1,), id="run-explicit"),
    pytest.param("converge", _CLI, (1, 2), id="converge"),
    # the converge_riemann workload's shape
    pytest.param("converge", {
        "scenario": {"name": "riemann_like", "left_height": 0.8, "right_height": 0.2},
        "velocity": {"kind": "greenshields"}, "particle_counts": [16, 32, 64], "t_end": 0.5,
        "sample_times": [0.0, 0.5], "integrator": {"method": "rk45_adaptive"},
        "oracle": {"kind": "riemann"}}, (1, 2), id="converge-riemann-dp45"),
    pytest.param("converge", dict(_CLI, scenario={"name": "double_hump"}), (1, 2),
                 id="converge-double_hump"),
    # a law without a closed-form inverse of f' bisects inside Lax-Hopf
    pytest.param("converge", dict(_CLI, scenario={"name": "double_hump"},
                                  velocity={"kind": "underwood", "v_max": 1.0}), (1,),
                 id="converge-double_hump-underwood"),
    # at t_end 0 the exact solution is the datum itself
    pytest.param("converge", {"scenario": {"name": "riemann_like"},
                              "particle_counts": [16, 32, 64], "t_end": 0, "delta": 0.25},
                 (1,), id="converge-zero_horizon"),
    pytest.param("converge", _EXPLICIT, (1,), id="converge-explicit"),
]


@pytest.mark.parametrize("verb, cfg, jobs", _END_TO_END)
def test_cli_end_to_end(tmp_path, verb, cfg, jobs):
    # exit 0 with every check passed and no warning (the suite's filter turns
    # one into an error, in the forked workers of a pool too), strict JSON in
    # every artifact, and a pool writes the tree of one process byte for byte
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    config = ExperimentConfig.from_dict(cfg)
    trees = []
    for j in jobs:
        out = tmp_path / f"jobs{j}"
        assert main([verb, "--config", str(cfg_path), "--out", str(out), "--jobs", str(j)]) == 0
        trees.append(tree_digest(out))
    assert all(tree == trees[0] for tree in trees)
    if verb == "converge":
        table = strict_json(out / "convergence.json")
        # no oracle key: every scenario reads the exact solution
        assert table["oracle_kind"] == cfg.get("oracle", {"kind": "exact"})["kind"]
        assert [row["n_particles"] for row in table["rows"]] == list(config.particle_counts)
        return
    runs = strict_json(out / "manifest.json")["runs"]
    assert [run["n_particles"] for run in runs] == list(config.particle_counts)
    for run in runs:
        assert run["passed"]
        meta = run["integrator_metadata"]
        assert meta["method"] == config.integrator.method
        by_cause = meta["rejections_by_cause"]
        assert sorted(by_cause) == ["error", "gap_floor", "invalid_stage"]
        assert sum(by_cause.values()) == meta["rejections"]
        run_dir = out / f"run_N{run['n_particles']:05d}"
        report = strict_json(run_dir / "diagnostics.json")
        assert report["times"][0] == 0.0
        assert "entropy_min" not in report
        # a skipped slack is null, never NaN
        one_sample = len(report["times"]) == 1
        assert (report["wasserstein_worst_slack"] is None) is one_sample
        assert (report["l1_worst_slack"] is None) is one_sample
        header = (run_dir / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "t,min_gap_ratio,oleinik_interior_max,oleinik_leader,tv_hat,tv_velocity"


def test_run_builds_the_datum_and_the_law_once(tmp_path, monkeypatch):
    calls = {"datum": 0, "law": 0}
    datum, settings = harness._datum, harness._settings

    def counted_datum(cfg):
        calls["datum"] += 1
        return datum(cfg)

    def counted_settings(cls, path, given):
        calls["law"] += cls in velocity.KINDS.values()
        return settings(cls, path, given)

    monkeypatch.setattr(harness, "_datum", counted_datum)
    monkeypatch.setattr(harness, "_settings", counted_settings)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, particle_counts=[8, 16, 32])))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"datum": 1, "law": 1}


@pytest.mark.parametrize("height, slope_ok", [(0.99, True), (1.001, False), (1.003, False)])
def test_run_skips_oleinik_where_check_fails_the_slope_condition(tmp_path, capsys, height,
                                                                 slope_ok):
    # rho * v'(rho) of Underwood turns around at rho = 1, so the slope condition
    # fails at any height above 1, where 256 samples of [0, 1.001] see no turn;
    # run and check read one verdict
    cfg = dict(BASE_CONFIG, particle_counts=[16], velocity={"kind": "underwood"},
               scenario={"name": "box", "height": height})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(cfg_path)]) == (0 if slope_ok else 1)
    assert json.loads(capsys.readouterr().out)["weighted_slope_non_increasing"] is slope_ok
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "run_N00016" / "diagnostics.json").read_text())
    assert ("oleinik_interior" in report["skipped"]) is not slope_ok


@pytest.mark.parametrize("override, key", [
    ({"t_ned": 5.0}, "t_ned"),
    ({"particle_count": [8]}, "particle_count"),
    ({"integrator": {"metod": "rk45_adaptive"}}, "metod"),
    ({"oracle": {"kind": "riemann", "dxx": 0.01}}, "dxx"),
    ({"velocity": {"kind": "greenshields", "vmax": 2.0}}, "vmax"),
    ({"velocity": {"kind": "underwood", "alpha": 2.0}}, "alpha"),
    ({"velocity": {"kind": "tabulated", "rho_table": [0.0, 1.0],
                   "v_table": [1.0, 0.0], "v_max": 1.0}}, "v_max"),
    ({"scenario": {"name": "box", "heigth": 3.0}}, "heigth"),
    ({"scenario": {"name": "double_hump", "width": 0.5}}, "width"),
    ({"scenario": {"name": "riemann_like", "jump": 0.1}}, "jump"),
    ({"scenario": {"name": "sawtooth_bv", "height": 2.0}}, "height"),
    ({"scenario": {"breakpoints": [0.0, 1.0], "values": [1.0], "left": 0.0}}, "left"),
    ({"initial": {"name": "box"}}, "unknown config key\\(s\\): initial"),
], ids=["top", "top_plural", "integrator", "oracle", "velocity", "velocity_per_kind",
        "velocity_tabulated", "scenario_box", "scenario_double_hump",
        "scenario_riemann_like", "scenario_sawtooth_bv", "scenario_arrays",
        "scenario_and_initial"])
def test_unknown_config_key_rejected(override, key):
    with pytest.raises(ValueError, match=key):
        make_config(**override)


def test_skipped_checks_reach_manifest_and_cli(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, particle_counts=[16], sample_times=[0.0, 0.5],
               velocity={"kind": "underwood", "v_max": 1.0},
               scenario={"name": "box", "height": 2.0, "width": 0.5})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    skipped = ["l1_time_continuity", "oleinik_interior", "oleinik_leader"]
    assert capsys.readouterr().out == f"N=16: ok, 3 skipped ({', '.join(skipped)})\n"
    assert json.loads((out / "manifest.json").read_text())["runs"][0]["skipped"] == skipped
    report = json.loads((out / "run_N00016" / "diagnostics.json").read_text())
    assert sorted(report["skipped"]) == skipped
