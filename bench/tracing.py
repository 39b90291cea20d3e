"""Span recording around the package's public functions, from outside it.

The package calls its layers through module attributes (``dynamics.integrate``,
``measures.wasserstein``, ...), so replacing those attributes with timing
wrappers sees every call without editing the package.  Wrappers are installed
only for traced rounds and the original objects are put back afterwards, so
untraced rounds run the package unmodified.

A span is ``[name, start, end, parent, note]``; ``parent`` is the index of
the enclosing span in the same round (-1 at the root).  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

STAGES = {"rk4_fixed": 4, "rk45_adaptive": 7}
LAYERS = ("harness", "dynamics", "diagnostics", "measures", "reference",
          "initial_data", "velocity")
# check names written by ftl1d.diagnostics.run_diagnostics
CHECKS = ("min_gap_ratio", "oleinik_interior", "oleinik_leader", "tv_contractivity",
          "tv_monotone", "tv_velocity", "entropy_terms", "interleaving_identity",
          "wasserstein_time_continuity", "l1_time_continuity")

PER_LAYER = (
    [("dynamics.integrate_s", "s"), ("dynamics.steps", "count"),
     ("dynamics.rejections", "count"), ("dynamics.us_per_step", "us"),
     ("dynamics.rhs_evals_computed", "count"), ("dynamics.n_exponent", "1"),
     ("reference.riemann_l1_error_s", "s"), ("reference.riemann_mesh_pieces", "count"),
     ("reference.godunov_s", "s"), ("reference.godunov_cells", "count"),
     ("diagnostics.run_s", "s"), ("diagnostics.time_continuity_s", "s"),
     ("diagnostics.entropy_s", "s"), ("diagnostics.violations", "count")]
    + [(f"diagnostics.violations.{c}", "count") for c in CHECKS]
    + [("measures.wasserstein_s", "s"), ("measures.wasserstein_calls", "count"),
       ("measures.hat_density_s", "s"), ("measures.l1_distance_s", "s"),
       ("harness.config_s", "s"), ("harness.write_s", "s"),
       ("harness.bytes_written", "B"),
       ("initial_data.atomize_s", "s"), ("initial_data.atomize_calls", "count"),
       ("velocity.check_assumptions_s", "s"),
       ("velocity.check_assumptions_calls", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_s", "s"), ("trace.spans", "count")]
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _note_integrate(args, kwargs, result):
    config0 = _arg(args, kwargs, 0, "config0")
    meta = result.metadata
    return {"n": int(config0.positions.size - 1), "method": meta["method"],
            "steps": int(meta["steps"]), "rejections": int(meta["rejections"])}


def _note_riemann_l1(args, kwargs, result):
    """Pieces of the exact integration mesh: window ends, density
    breakpoints inside the window, and the wave edges inside it."""
    density = _arg(args, kwargs, 0, "density")
    sol = _arg(args, kwargs, 1, "sol")
    t = _arg(args, kwargs, 3, "t")
    lo, hi = (float(w) for w in _arg(args, kwargs, 4, "window"))
    points = [lo, hi, *density.breakpoints]
    if sol.kind == "shock":
        points.append(sol.shock_speed * t)
    elif sol.kind == "rarefaction":
        points.extend((sol.fan_left * t, sol.fan_right * t))
    mesh = np.unique([p for p in points if lo <= p <= hi])
    return {"pieces": int(mesh.size - 1)}


def _note_godunov(args, kwargs, result):
    return {"cells": int(result.values.size)}


def targets(pkg):
    """(owner, attribute, span name, note) for every traced entry point."""
    h, dyn, diag = pkg.harness, pkg.dynamics, pkg.diagnostics
    meas, ref, init, vel = pkg.measures, pkg.reference, pkg.initial_data, pkg.velocity
    return [
        (h, "main", "harness.main", None),
        (h.ExperimentConfig, "from_json", "harness.config", None),
        (h, "run_experiment", "harness.run_experiment", None),
        (h, "convergence_study", "harness.convergence_study", None),
        (h, "write_trajectory_csv", "harness.write", None),
        (h, "write_density_csv", "harness.write", None),
        (h, "write_quantile_csv", "harness.write", None),
        (h, "write_diagnostics_csv", "harness.write", None),
        (dyn, "integrate", "dynamics.integrate", _note_integrate),
        (diag, "run_diagnostics", "diagnostics.run", None),
        (diag, "time_continuity_moduli", "diagnostics.time_continuity", None),
        (diag, "entropy_K_terms", "diagnostics.entropy", None),
        # diagnostics imported check_assumptions by name; patch both bindings
        (diag, "check_assumptions", "velocity.check_assumptions", None),
        (vel, "check_assumptions", "velocity.check_assumptions", None),
        (meas, "wasserstein", "measures.wasserstein", None),
        (meas, "hat_density", "measures.hat_density", None),
        (meas, "l1_distance", "measures.l1_distance", None),
        (ref, "riemann_l1_error", "reference.riemann_l1_error", _note_riemann_l1),
        (ref, "godunov", "reference.godunov", _note_godunov),
        (init, "atomize", "initial_data.atomize", None),
    ]


class Tracer:
    """Collects the spans of one round at a time."""

    def __init__(self, pkg):
        self._targets = targets(pkg)
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, note in self._targets:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__, note))
                else:
                    replacement = self._wrap(name, original, note)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> list:
        """Spans recorded since the last call; starts a new round."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _fit_exponent(points) -> float | None:
    """Least-squares slope of log(seconds) against log(N)."""
    if len({n for n, _ in points}) < 2:
        return None
    x = np.log([n for n, _ in points])
    y = np.log([s for _, s in points])
    return float(np.polyfit(x, y, 1)[0])


def round_metrics(spans, speed: float) -> dict:
    """Per-layer figures of one traced round: every metric of PER_LAYER
    except the violation counts, the bytes written and trace.overhead_s.

    Times are multiplied by ``speed``, the round's factor to the reference
    machine speed.
    """
    total = defaultdict(float)
    calls = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name.split(".")[0]] += (end - start) - child[i]

    def root(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
        return i

    steps = rejections = rhs = pieces = cells = 0
    by_invocation = defaultdict(list)
    for i, (name, start, end, _, note) in enumerate(spans):
        if name == "dynamics.integrate":
            steps += note["steps"]
            rejections += note["rejections"]
            rhs += STAGES[note["method"]] * (note["steps"] + note["rejections"])
            by_invocation[root(i)].append((note["n"], end - start))
        elif name == "reference.riemann_l1_error":
            pieces += note["pieces"]
        elif name == "reference.godunov":
            cells += note["cells"]
    slopes = [s for s in map(_fit_exponent, by_invocation.values()) if s is not None]

    out = {
        "dynamics.integrate_s": total["dynamics.integrate"],
        "dynamics.steps": steps,
        "dynamics.rejections": rejections,
        "dynamics.us_per_step": 1e6 * total["dynamics.integrate"] / steps if steps else 0.0,
        "dynamics.rhs_evals_computed": rhs,
        # 0 when no invocation integrates more than one particle count
        "dynamics.n_exponent": statistics.median(slopes) if slopes else 0.0,
        "reference.riemann_l1_error_s": total["reference.riemann_l1_error"],
        "reference.riemann_mesh_pieces": pieces,
        "reference.godunov_s": total["reference.godunov"],
        "reference.godunov_cells": cells,
        "diagnostics.run_s": total["diagnostics.run"],
        "diagnostics.time_continuity_s": total["diagnostics.time_continuity"],
        "diagnostics.entropy_s": total["diagnostics.entropy"],
        "measures.wasserstein_s": total["measures.wasserstein"],
        "measures.wasserstein_calls": calls["measures.wasserstein"],
        "measures.hat_density_s": total["measures.hat_density"],
        "measures.l1_distance_s": total["measures.l1_distance"],
        "harness.config_s": total["harness.config"],
        "harness.write_s": total["harness.write"],
        "initial_data.atomize_s": total["initial_data.atomize"],
        "initial_data.atomize_calls": calls["initial_data.atomize"],
        "velocity.check_assumptions_s": total["velocity.check_assumptions"],
        "velocity.check_assumptions_calls": calls["velocity.check_assumptions"],
        "trace.spans": len(spans),
    }
    out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return {k: v * speed if k.endswith(("_s", "us_per_step")) else v for k, v in out.items()}
