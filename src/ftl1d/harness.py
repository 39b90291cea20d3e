"""Configuration-driven experiment runner and command-line interface.

A single JSON document describes one experiment: the scenario, the velocity
law, the particle counts, the time horizon with its sample times, the
diagnostics window delta, integrator settings, and oracle settings.  The
``run`` verb integrates single simulations and writes trajectory/density
CSVs plus a diagnostics JSON; ``converge`` produces a refinement table
against the exact entropy solution; ``check`` reports the velocity-law
assumption checks.  All outputs are deterministic functions of the config.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import numbers
import operator
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, dynamics, initial_data, measures, reference, velocity

# a config's law must be defined on [0, LAW_REACH * sup_norm]: headroom for
# the atomized densities, which round a little above the sup norm
LAW_REACH = 1.2


@dataclass(frozen=True)
class OracleSettings:
    kind: str = "exact"    # exact | riemann

    def __post_init__(self):
        if self.kind not in ("riemann", "exact"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")


# the JSON types of a config, by the words that name them in a refusal
_JSON_TYPES = {"a number": numbers.Real, "a list of numbers": list, "a string": str,
               "an object": dict}
# the JSON type of a settings or law field, by its annotation
_FIELD_TYPES = {"float": "a number", "float | None": "a number", "str": "a string",
                "np.ndarray": "a list of numbers"}


def _read(value, path: str, kind: str):
    """``value``, of the JSON type that ``kind`` names, at the config's dotted
    ``path``; a number is read as a float, a list of numbers as a list of floats.
    Any other type, true and false included, raises ValueError naming the path."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{path} must be {kind}, got {value!r}")
    if kind == "a list of numbers":
        return [_read(v, f"{path}[{i}]", "a number") for i, v in enumerate(value)]
    try:
        return float(value) if kind == "a number" else value
    except OverflowError:
        raise ValueError(f"{path} is an integer too large for a float") from None


def _settings(cls, path: str, given):
    """``cls`` from the config object at ``path``; ``cls`` owns every default
    and range.  A key with no field, or a field without a default left out,
    raises ValueError; each value is read as its field's annotation, null
    only where the field's default is None."""
    taken = {f.name: f for f in fields(cls) if f.init}
    unknown = sorted(set(_read(given, path, "an object")) - set(taken))
    if unknown:
        raise ValueError(f"unknown {path} key(s): {', '.join(unknown)}")
    missing = [k for k, f in taken.items() if f.default is MISSING and k not in given]
    if missing:
        raise ValueError(f"{path} needs key(s): {', '.join(missing)}")
    return cls(**{k: v if v is None and taken[k].default is None
                  else _read(v, f"{path}.{k}", _FIELD_TYPES[taken[k].type])
                  for k, v in given.items()})


def _datum(cfg: dict) -> initial_data.PiecewiseConstantDensity:
    """A named ``initial_data.scenario`` with number parameters, or explicit
    breakpoints and values; a key the chosen form does not take raises ValueError."""
    if "name" in cfg:
        params = {k: _read(v, f"scenario.{k}", "a number") for k, v in cfg.items() if k != "name"}
        return initial_data.scenario(_read(cfg["name"], "scenario.name", "a string"), **params)
    if "breakpoints" in cfg and "values" in cfg:
        extra = sorted(set(cfg) - {"breakpoints", "values"})
        if extra:
            raise ValueError(f"unknown explicit scenario key(s): {', '.join(extra)}")
        return initial_data.from_piecewise(*(_read(cfg[k], f"scenario.{k}", "a list of numbers")
                                             for k in ("breakpoints", "values")))
    raise ValueError("scenario config needs 'name' or 'breakpoints'+'values'")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with its datum and law built once;
    construction fails before any I/O."""

    datum: initial_data.PiecewiseConstantDensity
    model: velocity.VelocityModel
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
        if list(self.particle_counts) != sorted(set(self.particle_counts)):
            raise ValueError("particle_counts must be strictly ascending")
        if not (0.0 < self.delta < self.t_end or self.t_end == 0.0 < self.delta < np.inf):
            raise ValueError("delta must lie in (0, t_end), or be positive and finite at t_end 0, "
                             f"got {self.delta!r}")
        try:
            velocity.check_assumptions(self.model, LAW_REACH * self.datum.sup_norm)
        except ValueError as exc:
            raise ValueError(f"{exc}; the velocity law must be defined on [0, {LAW_REACH} * "
                             f"sup_norm] = [0, {LAW_REACH * self.datum.sup_norm}]") from exc

    @classmethod
    def from_dict(cls, cfg) -> "ExperimentConfig":
        """Build from a parsed JSON config, every value read by ``_read``; a key
        no level takes raises ValueError.

        The datum and the law are built here, once; ``initial_data.count``
        checks the counts and ``dynamics.sample_grid`` the horizon and samples.
        """
        unknown = sorted(set(_read(cfg, "config", "an object")) - {
            "scenario", "velocity", "particle_counts", "t_end", "sample_times", "delta",
            "integrator", "oracle"})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        t_end = _read(cfg.get("t_end", 1.0), "t_end", "a number")
        samples = cfg.get("sample_times")
        samples = dynamics.sample_grid(
            None if samples is None else _read(samples, "sample_times", "a list of numbers"), t_end)
        delta = _read(cfg.get("delta", t_end / 4.0 if t_end > 0.0 else 0.25), "delta", "a number")
        integrator = _settings(dynamics.IntegratorSettings, "integrator", cfg.get("integrator", {}))
        oracle = _settings(OracleSettings, "oracle", cfg.get("oracle", {}))
        scenario = _read(cfg.get("scenario", {"name": "box"}), "scenario", "an object")
        datum = _datum(scenario)
        law = _read(cfg.get("velocity", {"kind": "greenshields"}), "velocity", "an object")
        kind = _read(law.get("kind", ""), "velocity.kind", "a string").lower()
        if kind not in velocity.KINDS:
            raise ValueError(f"unknown velocity kind {kind!r}")
        model = _settings(velocity.KINDS[kind], "velocity",
                          {k: v for k, v in law.items() if k != "kind"})
        counts = _read(cfg.get("particle_counts", [64]), "particle_counts", "a list of numbers")
        return cls(datum=datum, model=model, t_end=t_end, sample_times=samples, delta=delta,
                   particle_counts=tuple(initial_data.count(n, "particle count") for n in counts),
                   integrator=integrator, oracle=oracle, raw=cfg)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# deterministic CSV / JSON output helpers

def _column(values) -> list:
    """repr(float(x)) of every value, the shortest string that reads back
    to the same float, formatted for the whole column by one list repr."""
    floats = np.asarray(values, dtype=float).tolist()
    return repr(floats)[1:-1].split(", ") if floats else []


def _write_hashed(path: Path, blocks) -> str:
    """Write every block, a string, to ``path`` as UTF-8 and return the
    sha256 hex digest of the file.  Each block is encoded, written and fed to
    the hash before the next is made, so the whole file is never held in
    memory, and no file is read back."""
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for block in blocks:
            data = block.encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _write_csv(path: Path, header: str, columns) -> str:
    """Write the header line, then the equally long string columns as one
    comma-joined line per entry, by ``_write_hashed``; return the file's
    sha256 hex digest."""
    rows = "\n".join(map(",".join, zip(*columns)))
    return _write_hashed(path, (header + "\n", rows + "\n" if rows else ""))


def write_trajectory_csv(path: Path, trajectory: dynamics.Trajectory) -> str:
    """One row t,i,x_i per particle and sample, by ``_write_hashed``; return
    the file's sha256 hex digest.  The row prefixes ",i," are built once, so a
    sample's rows are one join over the prefixed column, led by its time."""
    states = trajectory.states
    index = [f",{i}," for i in range(max((state.positions.size for state in states), default=0))]
    return _write_hashed(path, itertools.chain(("t,i,x_i\n",), (
        t + ("\n" + t).join(map(operator.add, index, _column(state.positions))) + "\n"
        for state, t in zip(states, _column([state.time for state in states])))))


def write_density_csv(path: Path, density: initial_data.PiecewiseConstantDensity) -> str:
    bp = _column(density.breakpoints)
    return _write_csv(path, "x_left,x_right,value", (bp[:-1], bp[1:], _column(density.values)))


def write_quantile_csv(path: Path, hat: initial_data.PiecewiseConstantDensity) -> str:
    """Quantile X(z) of a particle cell density as its nodes (z, X_z).

    Every cell carries positive mass, so the cumulative masses increase
    strictly and the quantile is the CDF with its axes swapped.
    """
    return _write_csv(path, "z,X_z", (_column(hat.cumulative_masses), _column(hat.breakpoints)))


def write_diagnostics_csv(path: Path, report: diagnostics.DiagnosticsReport) -> str:
    columns = (report.times, report.min_gap_ratios, report.oleinik_interior_max,
               report.oleinik_leader, report.tv_hat, report.tv_velocity)
    header = "t,min_gap_ratio,oleinik_interior_max,oleinik_leader,tv_hat,tv_velocity"
    return _write_csv(path, header, map(_column, columns))


# ---------------------------------------------------------------------------
# experiment runner

@dataclass
class RunResult:
    n_particles: int
    report: diagnostics.DiagnosticsReport
    files: dict
    integrator_metadata: dict


def _run_single(config: ExperimentConfig, n: int, out_dir: Path) -> RunResult:
    config0 = initial_data.atomize(config.datum, n)
    trajectory = dynamics.integrate(config0, config.model, config.t_end,
                                    config.integrator, config.sample_times)
    report = diagnostics.run_diagnostics(trajectory, config.model, config.datum, config.delta)

    run_dir = out_dir / f"run_N{n:05d}"
    run_dir.mkdir(parents=True, exist_ok=True)
    final = trajectory.states[-1]
    hat = measures.hat_density(final)
    files = {}

    def emit(name, writer, *args):
        path = run_dir / name
        files[str(path.relative_to(out_dir))] = writer(path, *args)

    emit("trajectory.csv", write_trajectory_csv, trajectory)
    emit("density_initial.csv", write_density_csv,
         measures.hat_density(trajectory.states[0]))
    emit("density_final.csv", write_density_csv, hat)
    emit("quantile_final.csv", write_quantile_csv, hat)
    emit("diagnostics.json", lambda p, r: _write_hashed(p, [r.to_json() + "\n"]), report)
    emit("diagnostics.csv", write_diagnostics_csv, report)
    return RunResult(n, report, files, dict(trajectory.metadata))


def _for_each_count(task, config: ExperimentConfig, jobs: int, *args) -> list:
    """task(config, n, *args) for every particle count n, in their order.

    ``jobs`` caps the worker processes, and at most one runs per particle
    count; with one, the tasks run in this process.
    """
    workers = min(jobs, len(config.particle_counts))
    if workers == 1:
        return [task(config, n, *args) for n in config.particle_counts]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, config, n, *args) for n in config.particle_counts]
        return [f.result() for f in futures]


def run_experiment(config: ExperimentConfig, out_dir, jobs: int = 1) -> list:
    """Integrate every particle count, write artifacts, return run results.

    The manifest lists every produced file with its content checksum; two
    runs of the same config produce byte-identical trees.  ``jobs`` (at
    least 1) caps the worker processes, and at most one runs per particle
    count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = _for_each_count(_run_single, config, jobs, out)

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
    wasserstein_vs_exact: float
    l1_error: float                # vs riemann (windowed) or the exact solution
    observed_order: float | None


@dataclass(frozen=True)
class ConvergenceTable:
    oracle_kind: str
    window: tuple | None
    rows: tuple


def _require_decreasing(config: ExperimentConfig):
    """Refuse a law that ``integrate`` refuses, by the verdict ``check`` reports."""
    if not velocity.check_assumptions(config.model, config.datum.sup_norm).v_strictly_decreasing:
        raise ValueError(f"velocity law increases, or is flat, on [0, {config.datum.sup_norm}]")


def _converge_setup(config: ExperimentConfig):
    """Refuse, before any work, a config that a refinement table cannot use;
    return the Riemann comparison window, which outside influence travelling
    at max |f'| has not reached by t_end, or None for the exact oracle."""
    datum, model = config.datum, config.model
    _require_decreasing(config)
    if len(config.particle_counts) < 3:
        raise ValueError("need at least 3 particle counts")
    reference._require_concave(model, datum.sup_norm)
    if config.oracle.kind != "riemann":
        return None
    if datum.values.size != 2:
        raise ValueError("riemann oracle needs a two-cell datum")
    if datum.breakpoints[1] != 0.0:
        raise ValueError("riemann oracle assumes the jump sits at x = 0")
    speed = reference.max_wave_speed(model, datum.sup_norm)
    lo = datum.support_min + speed * config.t_end
    hi = datum.support_max - speed * config.t_end
    if not hi > lo:
        raise ValueError("t_end too large for a valid Riemann comparison window")
    return lo, hi


def _exact_distances(datum, model, t: float, hats):
    """Yield (W1, L1) of each cell density of ``hats`` to the entropy solution
    at t, from gap = F_hat - M.  M of ``reference.entropy_mass`` is evaluated
    once on the edges of cells of width span / 4096 that reach max |f'| * t
    past the support, beyond which no wave has travelled, and on the datum's
    breakpoints, its kinks at t 0, and at every hat's, in one call; each hat
    reads the mesh's part and its own.  W1 is ``measures.segment_l1`` over the
    gap, M read linearly between the points.  A gap step is the integral of
    c - rho* where the hat is c, so L1 = sum |step| is exact where rho* - c
    keeps one sign, a lower bound elsewhere."""
    dx = (datum.support_max - datum.support_min) / 4096.0
    pad = int(np.ceil(reference.max_wave_speed(model, datum.sup_norm) * t / dx))
    mesh = np.union1d(datum.support_min + dx * np.arange(-pad, 4096 + pad + 1), datum.breakpoints)
    points = [mesh] + [hat.breakpoints for hat in hats]
    mass = np.split(reference.entropy_mass(datum, model, t, np.concatenate(points)),
                    np.cumsum([p.size for p in points[:-1]]))
    for hat, own in zip(hats, mass[1:]):
        x = np.concatenate((mesh, hat.breakpoints))
        order = np.argsort(x, kind="stable")
        exact = np.concatenate((mass[0], own))
        x, gap = x[order], (hat.cdf_values(x) - exact)[order]
        l1 = float(np.sum(np.abs(np.diff(gap))))
        yield float(measures.segment_l1(gap[:-1], gap[1:], np.diff(x))), l1


def _converge_single(config: ExperimentConfig, n: int):
    """Cell mass, initial transport distance with its bound, and the cell
    density at t_end of one particle count."""
    datum = config.datum
    config0 = initial_data.atomize(datum, n)
    initial_dist = measures.wasserstein(measures.empirical(config0), datum)
    bound = config0.particle_mass * (datum.support_max - datum.support_min)
    if initial_dist > bound + 1e-10:
        raise RuntimeError(
            f"initial transport distance {initial_dist} exceeds bound {bound}")
    trajectory = dynamics.integrate(config0, config.model, config.t_end, config.integrator)
    return config0.particle_mass, initial_dist, bound, measures.hat_density(trajectory.states[-1])


def convergence_study(config: ExperimentConfig, jobs: int = 1) -> ConvergenceTable:
    """Refinement table over the configured particle counts: per row, the
    initial transport distance checked against its exact bound, the W1 and L1
    distances at t_end by ``_exact_distances`` (in the ``riemann`` mode, L1
    against the Riemann solution in its window), and the observed order.
    ``jobs`` caps the worker processes that integrate the particle counts, as
    in ``run_experiment``.  A config the table cannot use raises ValueError
    before any work."""
    window = _converge_setup(config)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    datum, model, t_end = config.datum, config.model, config.t_end
    if window is not None:
        sol = reference.riemann_solve(model, float(datum.values[0]), float(datum.values[1]))
    results = _for_each_count(_converge_single, config, jobs)
    distances = _exact_distances(datum, model, t_end, [r[-1] for r in results])

    rows, prev_err, prev_n = [], None, None
    for n, (cell_mass, initial_dist, bound, hat), (wass, err) in zip(
            config.particle_counts, results, distances):
        if window is not None:
            err = reference.riemann_l1_error(hat, sol, model, t_end, window)
        order = None
        if prev_err is not None and err > 0.0 and prev_err > 0.0:
            order = float(np.log(prev_err / err) / np.log(n / prev_n))
        rows.append(ConvergenceRow(n, cell_mass, initial_dist, bound, wass, err, order))
        prev_err, prev_n = err, n
    return ConvergenceTable(oracle_kind=config.oracle.kind, window=window, rows=tuple(rows))


# ---------------------------------------------------------------------------
# CLI

def _cmd_run(config: ExperimentConfig, args) -> int:
    results = run_experiment(config, args.out, jobs=args.jobs)
    ok = all(r.report.passed for r in results)
    for r in results:
        status = "ok" if r.report.passed else f"{len(r.report.violations)} violation(s)"
        if r.report.skipped:
            status += f", {len(r.report.skipped)} skipped ({', '.join(sorted(r.report.skipped))})"
        print(f"N={r.n_particles}: {status}")
    return 0 if ok else 1


def _cmd_converge(config: ExperimentConfig, args) -> int:
    table = convergence_study(config, jobs=args.jobs)
    (Path(args.out) / "convergence.json").write_text(
        json.dumps(asdict(table), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    header = f"{'N':>6} {'initial_dist':>14} {'bound':>12} {'l1_error':>12} {'order':>7}"
    print(header)
    for r in table.rows:
        order = f"{r.observed_order:7.3f}" if r.observed_order is not None else "      -"
        print(f"{r.n_particles:>6} {r.initial_distance:14.6e} "
              f"{r.initial_bound:12.4e} {r.l1_error:12.6e} {order}")
    return 0


def _cmd_check(config: ExperimentConfig, args) -> int:
    report = velocity.check_assumptions(config.model, config.datum.sup_norm)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.all_satisfied else 1


def main(argv=None) -> int:
    """Run one verb; exit status 0 on a pass, 1 on a failed check and 2 on
    a usage error (argparse's status).  A refused config, ``--jobs`` below 1,
    a law that ``integrate`` refuses, a config that ``converge`` cannot use
    and an ``--out`` that cannot be made a directory exit 2 too, before any
    work; ``check`` reports such a law and exits 1."""
    parser = argparse.ArgumentParser(
        prog="ftl1d",
        description="Follow-the-leader particle experiments for 1-D conservation laws")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn in (("run", _cmd_run), ("converge", _cmd_converge), ("check", _cmd_check)):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="experiment config JSON")
        if verb != "check":     # check evaluates one law and writes nothing
            p.add_argument("--out", default="out", help="output directory")
            p.add_argument("--jobs", type=int, default=1, help="parallel runs, at least 1")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        if args.verb != "check" and args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        config = ExperimentConfig.from_json(args.config)
        if args.verb == "run":
            _require_decreasing(config)     # integrate repeats it for library callers
        elif args.verb == "converge":
            _converge_setup(config)     # convergence_study repeats it for library callers
        if args.verb != "check":
            Path(args.out).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:   # json.JSONDecodeError included
        print(f"ftl1d: error: {exc}", file=sys.stderr)
        return 2
    return args.fn(config, args)


if __name__ == "__main__":
    sys.exit(main())
