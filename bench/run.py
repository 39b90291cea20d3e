"""Benchmark of the ftl1d command line on seeded experiment configs.

Run from the repository root:

    python3 bench/run.py --workload sweep_rk4 --seed 1 --seconds 30 --trace 0

Each round calls ``ftl1d.harness.main([verb, "--config", ..., "--jobs", "1"])``
once per config of the workload, in this process, and checks every output.
Rounds repeat until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics.  The last line of standard output is one JSON
object; everything before it is a human-readable summary.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and in the set-up children; must
# precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"
SETUP_REPEATS = 9
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Import and validate every config in a fresh interpreter; prints seconds.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ftl1d.harness import ExperimentConfig
for path in sys.argv[2:]:
    ExperimentConfig.from_json(path)
print(time.perf_counter() - t0)
"""


def import_package():
    """Import ftl1d from ./src of the checkout, never from elsewhere."""
    if not (SRC / "ftl1d" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'ftl1d'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import ftl1d
    import ftl1d.harness  # noqa: F401
    if Path(ftl1d.__file__).resolve().parent != (SRC / "ftl1d").resolve():
        sys.exit(f"bench: ftl1d imported from {ftl1d.__file__}, not from {SRC}")
    return ftl1d


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit(),
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


# ---------------------------------------------------------------------------
# one CLI invocation and the checks on its outputs

@dataclass
class Outcome:
    seconds: float
    ops: int
    scaled: float = 0.0     # seconds at the reference speed (speed.py)
    failed: int = 0
    errors: list = field(default_factory=list)      # outputs found wrong: correct = false
    verdicts: list = field(default_factory=list)    # failures the program itself reported
    digest: str = ""
    violations: Counter = field(default_factory=Counter)
    l1_finest: float | None = None
    bytes_written: int = 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(inv, rc: int, out: Path, res: Outcome):
    """Manifest verdicts, checksums, exit status and violation names."""
    manifest = json.loads((out / "manifest.json").read_text())
    runs = manifest["runs"]
    if [r["n_particles"] for r in runs] != inv.config["particle_counts"]:
        raise ValueError("manifest runs do not match the configured particle counts")
    digest = hashlib.sha256()
    for run in runs:
        for rel, sha in sorted(run["files"].items()):
            if _sha256(out / rel) != sha:
                raise ValueError(f"{rel} does not match its manifest sha256")
            digest.update(f"{rel} {sha}\n".encode())
            if rel.endswith("diagnostics.json") and not run["passed"]:
                names = [v["check"] for v in json.loads((out / rel).read_text())["violations"]]
                res.violations.update(names)
                res.verdicts.append(f"N={run['n_particles']}: " + ", ".join(
                    f"{c} x{k}" for c, k in sorted(Counter(names).items())))
        res.failed += not run["passed"]
    expected = 0 if all(r["passed"] for r in runs) else 1
    if rc != expected:
        raise ValueError(f"exit status {rc}, manifest verdicts imply {expected}")
    res.digest = digest.hexdigest()


def check_converge(inv, rc: int, out: Path, res: Outcome):
    """Exit status, L1 error decreasing in N, finest row against its pin."""
    if rc != 0:
        raise ValueError(f"exit status {rc}")
    path = out / "convergence.json"
    rows = json.loads(path.read_text())["rows"]
    if [r["n_particles"] for r in rows] != inv.config["particle_counts"]:
        raise ValueError("convergence rows do not match the configured particle counts")
    errs = [r["l1_error"] for r in rows]
    bad = {k for k in range(1, len(errs)) if not errs[k] < errs[k - 1]}
    if bad:
        at = [rows[k]["n_particles"] for k in sorted(bad)]
        res.errors.append(f"L1 error not decreasing at N={at}")
    pinned = workloads.PINNED_L1_FINEST[rows[-1]["n_particles"]]
    scaled = errs[-1] / inv.lam
    if not abs(scaled - pinned) <= workloads.PINNED_L1_RTOL * pinned:
        bad.add(len(rows) - 1)
        res.errors.append(f"finest L1 error / lam = {scaled!r}, pinned {pinned!r} "
                          f"(rtol {workloads.PINNED_L1_RTOL})")
    res.failed += len(bad)
    res.l1_finest = errs[-1]
    res.digest = _sha256(path)


def invoke(harness, inv, cfg_path: Path, out: Path) -> Outcome:
    """Time one CLI call; check its outputs.  Never raises for a program fault."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [inv.verb, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
    ops = len(inv.config["particle_counts"])
    sink = io.StringIO()
    crash = None
    with speed.Probe() as probe:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = harness.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the benchmark
            crash = exc
        finally:
            probe.stop()
            seconds = time.perf_counter() - start - probe.spent
    res = Outcome(seconds, ops)
    res.scaled = seconds * probe.scale()
    if crash is not None:
        res.failed = ops
        res.errors.append(f"{type(crash).__name__}: {crash}")
        return res
    try:
        (check_run if inv.verb == "run" else check_converge)(inv, rc, out, res)
    except (OSError, KeyError, ValueError) as exc:
        res.failed = ops
        res.errors.append(str(exc))
    res.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return res


# ---------------------------------------------------------------------------
# rounds

@dataclass
class Round:
    seconds: float
    scaled: float
    outcomes: list
    traced: bool
    layer: dict | None = None
    spans: list | None = None


def run_round(harness, invs, work: Path, tracer=None) -> Round:
    """Every invocation of the workload once."""
    with tracer.active() if tracer else contextlib.nullcontext():
        outcomes = [invoke(harness, inv, work / f"{inv.name}.json", work / inv.name)
                    for inv in invs]
    seconds = sum(o.seconds for o in outcomes)
    rnd = Round(seconds, sum(o.scaled for o in outcomes), outcomes, tracer is not None)
    if tracer:
        rnd.spans = tracer.take()
        rnd.layer = tracing.round_metrics(rnd.spans, rnd.scaled / seconds)
    return rnd


def measure_setup(paths) -> float:
    """Median seconds to import the package and validate every config in a
    fresh interpreter.  Not scaled to the reference speed: interpreter start-up
    does not follow the probe kernel's drift."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail_note(values) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    pct = int(100 * (1 - 10 / n)) if n >= 20 else 0
    if pct <= 50:
        return f"n={n}, too few samples for a percentile above the median"
    q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"n={n}, p{pct}={q:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test only")
    args = parser.parse_args(argv)

    pkg = import_package()

    invs = workloads.generate(args.workload, args.seed, args.tiny)
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for inv in invs:
        (work / f"{inv.name}.json").write_text(json.dumps(inv.config, indent=1, sort_keys=True))
    try:
        # warm-up: first-call costs of the same code paths, outside the timing
        warm = workloads.generate(args.workload, args.seed, tiny=True)[0]
        (work / "warmup.json").write_text(json.dumps(warm.config))
        invoke(pkg.harness, warm, work / "warmup.json", work / "warmup")

        setup_s = None if args.trace else measure_setup(
            [work / f"{inv.name}.json" for inv in invs])
        tracer = tracing.Tracer(pkg) if args.trace else None
        rounds = []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            rounds.append(run_round(pkg.harness, invs, work))
            if tracer:
                rounds.append(run_round(pkg.harness, invs, work, tracer))
            now = time.perf_counter()
            # whole rounds only; stop before one that would overrun --seconds
            if (now - start) + (now - begun) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # artifacts must not depend on the round or on tracing
    first = {inv.name: o.digest for inv, o in zip(invs, rounds[0].outcomes)}
    for rnd in rounds[1:]:
        for inv, o in zip(invs, rnd.outcomes):
            if o.digest != first[inv.name] and not o.errors:
                o.failed = o.ops
                o.errors.append(("traced" if rnd.traced else "repeated") +
                                " run changed the artifacts' sha256")

    outcomes = [o for rnd in rounds for o in rnd.outcomes]
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = sorted({e for o in outcomes for e in o.errors})
    verdicts = sorted({v for o in outcomes for v in o.verdicts})
    plain = [r.scaled for r in rounds if not r.traced]
    violations = Counter()
    for o in rounds[0].outcomes:
        violations.update(o.violations)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  invocations/round {len(invs)}")
    print(f"failed_share {failed / attempted:.4f} share  ({failed} of {attempted} operations)")
    for v in verdicts:
        print(f"  diagnostics failed: {v}")
    for e in errors:
        print(f"  OUTPUT ERROR: {e}")
    l1 = [o.l1_finest for o in outcomes if o.l1_finest is not None]
    if l1:
        print(f"l1_error_finest {statistics.median(l1):.6e} 1  "
              "(finest N against the exact Riemann solution)")

    if args.trace:
        traced = [r for r in rounds if r.traced]
        metrics = {name: statistics.median(r.layer[name] for r in traced)
                   for name in traced[0].layer}
        metrics["trace.overhead_s"] = (statistics.median(r.scaled for r in traced)
                                       - statistics.median(plain))
        metrics["harness.bytes_written"] = sum(o.bytes_written for o in rounds[0].outcomes)
        metrics["diagnostics.violations"] = sum(violations.values())
        metrics.update({f"diagnostics.violations.{c}": violations[c] for c in tracing.CHECKS})
        units = dict(tracing.PER_LAYER)
    else:
        per_invocation = [o.scaled for r in rounds for o in r.outcomes]
        raw = statistics.median(r.seconds for r in rounds)
        print(f"wall_s per round: {tail_note(plain)}; per invocation: {tail_note(per_invocation)}")
        print(f"wall_raw_s {raw:.4f} s  (median round, not scaled to the reference speed)")
        # per config, the median over rounds; their sum is one typical round
        wall_s = sum(statistics.median(r.outcomes[k].scaled for r in rounds)
                     for k in range(len(invs)))
        metrics = {"wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = dict(END_TO_END)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "configs": [inv.config for inv in invs],
              "rounds": [{"seconds": r.seconds, "scaled": r.scaled, "traced": r.traced,
                          "invocations": [[o.seconds, o.scaled] for o in r.outcomes]}
                         for r in rounds],
              "attempted": attempted, "failed": failed, "errors": errors,
              "verdicts": verdicts, "metrics": metrics}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    if args.trace:
        (results / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "note"],
             "rounds": [r.spans for r in rounds if r.traced]}))

    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
