import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ftl1d.harness import (
    ConvergenceTable,
    ExperimentConfig,
    convergence_study,
    main,
    run_experiment,
)

BASE_CONFIG = {
    "scenario": {"name": "riemann_like"},
    "velocity": {"kind": "greenshields", "v_max": 1.0},
    "particle_counts": [16, 32, 64],
    "t_end": 0.5,
    "sample_times": [0.0, 0.25, 0.5],
    "delta": 0.25,
    "integrator": {"method": "rk4_fixed"},
    "oracle": {"cfl": 0.5},
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


def test_initial_key_is_an_alias_for_scenario():
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["scenario"]
    cfg["initial"] = {"breakpoints": [0.0, 1.0], "values": [1.0]}
    config = ExperimentConfig.from_dict(cfg)
    assert config.datum().total_mass == 1.0


def test_config_validation_errors():
    with pytest.raises(ValueError):
        make_config(delta=0.7)      # delta beyond t_end
    with pytest.raises(ValueError):
        make_config(particle_counts=[])
    with pytest.raises(ValueError):
        make_config(particle_counts=[64, 16])
    with pytest.raises(ValueError):
        make_config(particle_counts=[1, 4])
    with pytest.raises(ValueError):
        make_config(sample_times=[0.0, 0.9])
    with pytest.raises(ValueError):
        make_config(scenario={"name": "mystery"})
    with pytest.raises(ValueError):
        make_config(velocity={"kind": "mystery"})
    with pytest.raises(ValueError):
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


def test_run_experiment_t_end_zero(tmp_path):
    config = make_config(t_end=0.0, sample_times=[0.0], particle_counts=[8])
    results = run_experiment(config, tmp_path)
    assert results[0].report.passed
    rows = (tmp_path / "run_N00008" / "trajectory.csv").read_text().strip().splitlines()
    assert {float(r.split(",")[0]) for r in rows[1:]} == {0.0}


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


def test_convergence_study_godunov_oracle():
    config = make_config(scenario={"name": "double_hump"},
                         particle_counts=[8, 16, 32],
                         oracle={"cfl": 0.5, "dx": 0.01})
    table = convergence_study(config)
    assert table.oracle_kind == "godunov"
    assert table.window is None
    assert all(np.isfinite(r.l1_error) for r in table.rows)
    assert all(np.isfinite(r.wasserstein_vs_godunov) for r in table.rows)


def test_convergence_study_needs_three_counts():
    with pytest.raises(ValueError):
        convergence_study(make_config(particle_counts=[8, 16]))


def test_cli_run_and_check(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg = dict(BASE_CONFIG)
    cfg["particle_counts"] = [16]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert main(["check", "--config", str(cfg_path), "--out", str(out)]) == 0


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
    assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


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
    ({"initial": {"name": "box"}}, "initial"),
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
