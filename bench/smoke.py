"""Smoke test of the benchmark at its smallest sizes (about half a minute).

Run from the repository root:

    python3 bench/smoke.py

It runs every workload of BENCHMARK.json with ``--tiny --seconds 1`` in both
passes and checks the result line against the metric lists, checks that the
seed alone fixes the generated configs, and checks that the benchmark exits
non-zero without printing a result when the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def check(ok: bool, message: str):
    if not ok:
        sys.exit(f"smoke: FAIL {message}")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    for w in spec["workloads"]:
        name = w["name"]
        check(workloads.generate(name, 5) == workloads.generate(name, 5),
              f"{name}: same seed, different configs")
        check(workloads.generate(name, 5) != workloads.generate(name, 6),
              f"{name}: the seed does not change the configs")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            check(proc.returncode == 0,
                  f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{name} trace {trace}: outputs wrong\n{proc.stdout}")
            check(result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"],
                  f"{name}: attempted {result['attempted']}, failed {result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            check(got == want, f"{name} trace {trace}: metrics differ from BENCHMARK.json {key}")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{name}: non-numeric metric")
            print(f"smoke: {name} trace {trace} ok")

    # a directory with only BENCHMARK.json and the benchmark must be refused
    scratch = BENCH / ".out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        proc = bench(Path(bare), "--workload", "sweep_rk4", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: bare directory refused ok")


if __name__ == "__main__":
    main()
