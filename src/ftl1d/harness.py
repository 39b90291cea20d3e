"""Configuration-driven experiment runner and command-line interface.

A single JSON document describes one experiment: the scenario, the velocity
law, the particle counts, the time horizon with its sample times, the
diagnostics window delta, integrator settings, and oracle settings.  The
``run`` verb integrates single simulations and writes trajectory/density
CSVs plus a diagnostics JSON; ``converge`` produces a refinement table
against the Riemann or Godunov oracle; ``check`` reports the velocity-law
assumption checks.  All outputs are deterministic functions of the config.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, dynamics, initial_data, measures, reference, velocity


@dataclass(frozen=True)
class OracleSettings:
    dx: float | None = None
    cfl: float = 0.5
    kind: str = "auto"    # auto | riemann | godunov

    def __post_init__(self):
        if self.dx is not None and not self.dx > 0.0:
            raise ValueError("oracle dx must be positive")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("oracle cfl must lie in (0, 1)")
        if self.kind not in ("auto", "riemann", "godunov"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; construction fails before any I/O."""

    scenario: dict
    velocity: dict
    particle_counts: tuple
    t_end: float
    sample_times: tuple
    delta: float
    integrator: dynamics.IntegratorSettings
    oracle: OracleSettings
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.particle_counts:
            raise ValueError("particle_counts must be nonempty")
        if list(self.particle_counts) != sorted(self.particle_counts):
            raise ValueError("particle_counts must be ascending")
        if any(n < 2 for n in self.particle_counts):
            raise ValueError("particle counts must be >= 2")
        if not self.t_end >= 0.0:
            raise ValueError("t_end must be nonnegative")
        if self.t_end > 0.0 and not 0.0 < self.delta < self.t_end:
            raise ValueError("delta must lie in (0, t_end)")
        if any(t < 0.0 or t > self.t_end for t in self.sample_times):
            raise ValueError("sample times must lie in [0, t_end]")
        # fail now on a broken scenario or velocity entry
        self.datum()
        self.model()

    def datum(self) -> initial_data.PiecewiseConstantDensity:
        return initial_data.datum_from_config(self.scenario)

    def model(self) -> velocity.VelocityModel:
        return velocity.from_config(self.velocity)

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        """Build from a config dict; a key no level takes raises ValueError.

        ``initial`` is an alias of ``scenario``; giving both is an error.
        """
        top = dict(cfg)
        if "scenario" in top and "initial" in top:
            raise ValueError("give 'scenario' or its alias 'initial', not both")
        t_end = float(top.pop("t_end", 1.0))
        samples = top.pop("sample_times", None)
        if samples is None:
            samples = [0.0, t_end] if t_end > 0.0 else [0.0]
        integ = dict(top.pop("integrator", {}))
        dt = integ.pop("dt", None)
        settings = dynamics.IntegratorSettings(
            method=integ.pop("method", "rk4_fixed"),
            dt=None if dt is None else float(dt),
            abs_tol=float(integ.pop("abs_tol", 1e-8)),
            rel_tol=float(integ.pop("rel_tol", 1e-8)),
            gap_floor_safety=float(integ.pop("gap_floor_safety", 0.5)),
        )
        oracle = dict(top.pop("oracle", {}))
        dx = oracle.pop("dx", None)
        oracle_settings = OracleSettings(dx=None if dx is None else float(dx),
                                         cfl=float(oracle.pop("cfl", 0.5)),
                                         kind=oracle.pop("kind", "auto"))
        scenario_cfg = top.pop("scenario", top.pop("initial", {"name": "box"}))
        velocity_cfg = top.pop("velocity", {"kind": "greenshields", "v_max": 1.0})
        counts = top.pop("particle_counts", [64])
        delta = float(top.pop("delta", t_end / 4.0 if t_end > 0.0 else 0.25))
        for level, rest in (("config", top), ("integrator", integ), ("oracle", oracle)):
            if rest:
                raise ValueError(f"unknown {level} key(s): {', '.join(sorted(rest))}")
        return cls(
            scenario=dict(scenario_cfg),
            velocity=dict(velocity_cfg),
            particle_counts=tuple(int(n) for n in counts),
            t_end=t_end,
            sample_times=tuple(float(t) for t in samples),
            delta=delta,
            integrator=settings,
            oracle=oracle_settings,
            raw=dict(cfg),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# deterministic CSV / JSON output helpers

def _fmt(x) -> str:
    return repr(float(x))


def write_trajectory_csv(path: Path, trajectory: dynamics.Trajectory):
    lines = ["t,i,x_i"]
    for state in trajectory.states:
        t = _fmt(state.time)
        lines.extend(f"{t},{i},{_fmt(x)}" for i, x in enumerate(state.positions))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_density_csv(path: Path, density: initial_data.PiecewiseConstantDensity):
    lines = ["x_left,x_right,value"]
    bp, vals = density.breakpoints, density.values
    lines.extend(f"{_fmt(a)},{_fmt(b)},{_fmt(v)}"
                 for a, b, v in zip(bp[:-1], bp[1:], vals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_quantile_csv(path: Path, quantile: measures.PiecewiseMonotone):
    lines = ["z,X_z"]
    lines.extend(f"{_fmt(z)},{_fmt(x)}"
                 for z, x in zip(quantile.breakpoints, quantile.values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_diagnostics_csv(path: Path, report: diagnostics.DiagnosticsReport):
    lines = ["t,min_gap_ratio,oleinik_interior_max,oleinik_leader,"
             "tv_hat,tv_velocity,entropy_min"]
    for row in zip(report.times, report.min_gap_ratios,
                   report.oleinik_interior_max, report.oleinik_leader,
                   report.tv_hat, report.tv_velocity, report.entropy_min):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# experiment runner

@dataclass
class RunResult:
    n_particles: int
    report: diagnostics.DiagnosticsReport
    files: dict
    integrator_metadata: dict


def _run_single(config: ExperimentConfig, n: int, out_dir: Path) -> RunResult:
    datum = config.datum()
    model = config.model()
    config0 = initial_data.atomize(datum, n)
    trajectory = dynamics.integrate(config0, model, config.t_end,
                                    config.integrator, config.sample_times)
    report = diagnostics.run_diagnostics(trajectory, model, datum, config.delta)

    run_dir = out_dir / f"run_N{n:05d}"
    run_dir.mkdir(parents=True, exist_ok=True)
    final = trajectory.states[-1]
    hat = measures.hat_density(final)
    files = {}

    def emit(name, writer, *args):
        path = run_dir / name
        writer(path, *args)
        files[str(path.relative_to(out_dir))] = _sha256(path)

    emit("trajectory.csv", write_trajectory_csv, trajectory)
    emit("density_initial.csv", write_density_csv,
         measures.hat_density(trajectory.states[0]))
    emit("density_final.csv", write_density_csv, hat)
    emit("quantile_final.csv", write_quantile_csv,
         measures.pseudo_inverse(measures.cdf(hat)))
    emit("diagnostics.json", lambda p, r: p.write_text(r.to_json() + "\n", encoding="utf-8"),
         report)
    emit("diagnostics.csv", write_diagnostics_csv, report)
    return RunResult(n, report, files, dict(trajectory.metadata))


def run_experiment(config: ExperimentConfig, out_dir, jobs: int = 1) -> list:
    """Integrate every particle count, write artifacts, return run results.

    The manifest lists every produced file with its content checksum; two
    runs of the same config produce byte-identical trees.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if jobs > 1 and len(config.particle_counts) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_single, config, n, out)
                       for n in config.particle_counts]
            results = [f.result() for f in futures]
        results.sort(key=lambda r: r.n_particles)
    else:
        results = [_run_single(config, n, out) for n in config.particle_counts]

    manifest = {
        "config": config.raw,
        "versions": {
            "ftl1d": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "runs": [
            {
                "n_particles": r.n_particles,
                "integrator_metadata": r.integrator_metadata,
                "passed": r.report.passed,
                "skipped": sorted(r.report.skipped),
                "files": dict(sorted(r.files.items())),
            }
            for r in results
        ],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return results


# ---------------------------------------------------------------------------
# convergence study

@dataclass(frozen=True)
class ConvergenceRow:
    n_particles: int
    cell_mass: float
    initial_distance: float        # transport distance of the t=0 atoms to the datum
    initial_bound: float           # cell_mass * support span
    wasserstein_vs_godunov: float
    l1_error: float                # vs riemann (windowed) or godunov oracle
    observed_order: float | None


@dataclass(frozen=True)
class ConvergenceTable:
    oracle_kind: str
    window: tuple | None
    rows: tuple

    def to_dict(self):
        return asdict(self)


def _riemann_setup(config: ExperimentConfig, datum, model):
    """Inner-jump Riemann solution and validity window for riemann_like data."""
    bp, vals = datum.breakpoints, datum.values
    if vals.size != 2:
        raise ValueError("riemann oracle needs a two-cell datum")
    sol = reference.riemann_solve(model, float(vals[0]), float(vals[1]))
    # outside influence travels no faster than the sampled max |f'|
    speed = reference.max_wave_speed(model, datum.sup_norm)
    lo = datum.support_min + speed * config.t_end
    hi = datum.support_max - speed * config.t_end
    if not hi > lo:
        raise ValueError("t_end too large for a valid Riemann comparison window")
    return sol, (lo, hi), float(bp[1])


def convergence_study(config: ExperimentConfig) -> ConvergenceTable:
    """Refinement table over the configured particle counts.

    Each row records the initial-time transport distance against its exact
    bound (cell mass times support span; checked row by row), the transport
    distance at t_end against the Godunov oracle, the L1 error against the
    oracle, and the observed order between consecutive rows.
    """
    if len(config.particle_counts) < 3:
        raise ValueError("need at least 3 particle counts")
    datum = config.datum()
    model = config.model()
    span = datum.support_max - datum.support_min

    use_riemann = config.oracle.kind == "riemann" or (
        config.oracle.kind == "auto"
        and config.scenario.get("name") == "riemann_like")
    window = None
    if use_riemann:
        sol, window, jump = _riemann_setup(config, datum, model)
        if jump != 0.0:
            raise ValueError("riemann oracle assumes the jump sits at x = 0")
    dx = config.oracle.dx if config.oracle.dx is not None else span / 4096.0
    godunov_density = reference.godunov(datum, model, dx, config.oracle.cfl, config.t_end)

    rows = []
    prev_err = None
    prev_n = None
    for n in config.particle_counts:
        config0 = initial_data.atomize(datum, n)
        initial_dist = measures.wasserstein(measures.empirical(config0), datum)
        bound = config0.particle_mass * span
        if initial_dist > bound + 1e-10:
            raise RuntimeError(
                f"initial transport distance {initial_dist} exceeds bound {bound}")
        trajectory = dynamics.integrate(config0, model, config.t_end,
                                        config.integrator,
                                        sample_times=[0.0, config.t_end])
        hat = measures.hat_density(trajectory.states[-1])
        wass = measures.wasserstein(hat, godunov_density)
        if use_riemann:
            err = reference.riemann_l1_error(hat, sol, model, config.t_end, window)
        else:
            err = measures.l1_distance(hat, godunov_density)
        order = None
        if prev_err is not None and err > 0.0 and prev_err > 0.0:
            order = float(np.log(prev_err / err) / np.log(n / prev_n))
        rows.append(ConvergenceRow(n, config0.particle_mass, float(initial_dist),
                                   float(bound), float(wass), float(err), order))
        prev_err = err
        prev_n = n
    return ConvergenceTable(
        oracle_kind="riemann" if use_riemann else "godunov",
        window=window, rows=tuple(rows))


# ---------------------------------------------------------------------------
# CLI

def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    results = run_experiment(config, args.out, jobs=args.jobs)
    ok = all(r.report.passed for r in results)
    for r in results:
        status = "ok" if r.report.passed else f"{len(r.report.violations)} violation(s)"
        if r.report.skipped:
            status += f", {len(r.report.skipped)} skipped ({', '.join(sorted(r.report.skipped))})"
        print(f"N={r.n_particles}: {status}")
    return 0 if ok else 1


def _cmd_converge(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    table = convergence_study(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "convergence.json").write_text(
        json.dumps(table.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    header = f"{'N':>6} {'initial_dist':>14} {'bound':>12} {'l1_error':>12} {'order':>7}"
    print(header)
    for r in table.rows:
        order = f"{r.observed_order:7.3f}" if r.observed_order is not None else "      -"
        print(f"{r.n_particles:>6} {r.initial_distance:14.6e} "
              f"{r.initial_bound:12.4e} {r.l1_error:12.6e} {order}")
    return 0


def _cmd_check(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    datum = config.datum()
    model = config.model()
    report = velocity.check_assumptions(model, datum.sup_norm, samples=256)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.all_satisfied else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ftl1d",
        description="Follow-the-leader particle experiments for 1-D conservation laws")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn in (("run", _cmd_run), ("converge", _cmd_converge), ("check", _cmd_check)):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel runs")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
