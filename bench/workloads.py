"""Seeded experiment configs for the three benchmark workloads.

The seed draws, per config, a length/speed scale ``lam``: scenario lengths
and ``v_max`` are multiplied by it.  The follow-the-leader flow is invariant
under x -> lam * x, v -> lam * v: densities keep their values, every length
(and the L1 error) scales by ``lam``, and the default RK4 step, the DP45 step
sequence and the Godunov grid size are unchanged.  Every seed therefore
feeds the program different numbers while doing the same amount of work, and
the finest convergence error divided by ``lam`` can be checked against one
pinned value.  The data stay at the scenarios' default origin, as in the
acceptance sweep.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
LAM_RANGE = (0.8, 1.25)

SWEEP_SCENARIOS = ("box", "double_hump", "riemann_like", "sawtooth_bv")
SWEEP_LAWS = (
    {"kind": "greenshields"},
    {"kind": "pipes_munjal", "alpha": 2.0},
    {"kind": "underwood"},
)
# L1 error / lam at the finest particle count of converge_riemann, measured
# on the unmodified package (left_height 0.8, right_height 0.2, t_end 0.5).
PINNED_L1_FINEST = {1024: 2.867549920213236e-3, 64: 2.5190382582491847e-2}
PINNED_L1_RTOL = 1e-3


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``ftl1d <verb> --config <name>.json``."""

    name: str
    verb: str          # run | converge
    config: dict
    lam: float


def _lam(rng: random.Random) -> float:
    lo, hi = LAM_RANGE
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scenario(name: str, lam: float) -> dict:
    if name == "box":
        return {"name": "box", "height": 1.0, "width": lam}
    if name == "double_hump":
        return {"name": "double_hump", "height": 1.0, "hump_width": 0.5 * lam, "gap": lam}
    if name == "riemann_like":
        return {"name": "riemann_like", "left_height": 0.8, "right_height": 0.2,
                "half_width": lam}
    if name == "sawtooth_bv":
        return {"name": "sawtooth_bv", "steps": 4, "top": 1.0, "step_width": 0.5 * lam}
    raise ValueError(f"unknown scenario {name!r}")


def _samples(t_end: float, count: int) -> list:
    return [t_end * k / (count - 1) for k in range(count)]


def sweep_rk4(rng: random.Random, tiny: bool) -> list:
    """4 scenarios x 3 laws, two particle counts each, default fixed RK4."""
    counts = [16, 32] if tiny else [128, 512]
    out = []
    for scen in SWEEP_SCENARIOS:
        for law in SWEEP_LAWS:
            lam = _lam(rng)
            cfg = {
                "scenario": _scenario(scen, lam),
                "velocity": {**law, "v_max": lam},
                "particle_counts": counts,
                "t_end": 1.0,
                "sample_times": _samples(1.0, 5),
                "delta": 0.25,
            }
            out.append(Invocation(f"{scen}-{law['kind']}", "run", cfg, lam))
    return out


def converge_riemann(rng: random.Random, tiny: bool) -> list:
    """Refinement table against the exact Riemann solution, adaptive DP45."""
    lam = _lam(rng)
    cfg = {
        "scenario": _scenario("riemann_like", lam),
        "velocity": {"kind": "greenshields", "v_max": lam},
        "particle_counts": [16, 32, 64] if tiny else [32, 64, 128, 256, 512, 1024],
        "t_end": 0.5,
        "sample_times": [0.0, 0.5],
        "integrator": {"method": "rk45_adaptive"},
        "oracle": {"kind": "riemann"},
    }
    return [Invocation("riemann_like-greenshields", "converge", cfg, lam)]


def dense_dp45(rng: random.Random, tiny: bool) -> list:
    """Many samples per run under adaptive DP45 and Pipes-Munjal (alpha 2)."""
    shapes = (("double_hump", 64 if tiny else 1024, 9 if tiny else 41),
              ("sawtooth_bv", 32 if tiny else 512, 11 if tiny else 81))
    out = []
    for scen, n, samples in shapes:
        lam = _lam(rng)
        cfg = {
            "scenario": _scenario(scen, lam),
            "velocity": {"kind": "pipes_munjal", "alpha": 2.0, "v_max": lam},
            "particle_counts": [n],
            "t_end": 2.0,
            "sample_times": _samples(2.0, samples),
            "delta": 0.5,
            "integrator": {"method": "rk45_adaptive"},
        }
        out.append(Invocation(f"{scen}-pipes_munjal", "run", cfg, lam))
    return out


WORKLOADS = {"sweep_rk4": sweep_rk4, "converge_riemann": converge_riemann,
             "dense_dp45": dense_dp45}


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The invocations of one round of ``workload``; same seed, same configs."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, tiny)
