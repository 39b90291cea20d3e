"""Piecewise-constant densities and the equal-mass particle atomization.

One type stores every piecewise-constant density exactly, as breakpoints
plus cell values: the initial datum, the cell reconstruction of a particle
state and an oracle's profile.  Masses, the cumulative distribution, and its
inversion are all closed-form.  Atomization splits the subgraph into
equal-mass slabs whose edges become the initial particle positions; at a
vacuum plateau the edge is placed at the plateau's left end (the
strict-inequality set ends there), and the last particle is pinned to the
right end of the support hull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PiecewiseConstantDensity:
    """Nonnegative density that is constant on cells and zero outside them.

    ``cell_mass`` is set when every cell carries exactly that mass, as in a
    particle reconstruction; the cumulative masses are then the running sum
    of it, the same floats as the empirical measure of the same particles,
    instead of the running sum of value * width.  An all-vacuum profile is
    valid; its support hull is (nan, nan).
    """

    breakpoints: np.ndarray   # len m+1, strictly increasing
    values: np.ndarray        # len m >= 1, >= 0
    cell_mass: float | None = field(default=None, kw_only=True)
    total_mass: float = field(init=False)
    sup_norm: float = field(init=False)
    support_min: float = field(init=False)
    support_max: float = field(init=False)
    cumulative_masses: np.ndarray = field(init=False, repr=False)   # len m+1, from 0

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or vals.size == 0 or bp.size != vals.size + 1:
            raise ValueError("need len(breakpoints) == len(values) + 1 >= 2")
        if not np.all(np.isfinite(bp)) or np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ValueError("values must be finite and nonnegative")
        if self.cell_mass is None:
            masses = vals * np.diff(bp)
        elif np.isfinite(self.cell_mass) and self.cell_mass > 0.0:
            masses = np.full(vals.size, self.cell_mass)
        else:
            raise ValueError("cell_mass must be positive and finite")
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        positive = np.flatnonzero(vals > 0.0)
        hull = (bp[positive[0]], bp[positive[-1] + 1]) if positive.size else (np.nan, np.nan)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "cumulative_masses", cum)
        object.__setattr__(self, "total_mass", float(cum[-1]))
        object.__setattr__(self, "sup_norm", float(np.max(vals)))
        object.__setattr__(self, "support_min", float(hull[0]))
        object.__setattr__(self, "support_max", float(hull[1]))

    def values_at(self, x) -> np.ndarray:
        """The value of the cell [b_k, b_k+1) holding each x; 0 outside the cells."""
        padded = np.concatenate(([0.0], self.values, [0.0]))
        return padded[np.searchsorted(self.breakpoints, x, side="right")]

    def cdf_values(self, x):
        """Cumulative mass F(x) = integral of the density up to x (exact)."""
        return np.interp(x, self.breakpoints, self.cumulative_masses)


def from_piecewise(breakpoints, values) -> PiecewiseConstantDensity:
    """Build a datum from cell edges and per-cell densities; it must carry mass."""
    datum = PiecewiseConstantDensity(np.asarray(breakpoints, float),
                                     np.asarray(values, float))
    if not datum.sup_norm > 0.0:
        raise ValueError("datum must carry positive mass")
    return datum


@dataclass(frozen=True)
class ParticleConfiguration:
    """Ordered particle positions at one instant, each carrying equal mass."""

    time: float
    particle_mass: float      # mass per particle
    positions: np.ndarray     # len N+1, strictly increasing

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("need at least two particles")
        if not np.all(np.isfinite(pos)) or np.any(np.diff(pos) <= 0.0):
            raise ValueError("positions must be finite and strictly increasing")
        if not (np.isfinite(self.particle_mass) and self.particle_mass > 0.0):
            raise ValueError("particle mass must be positive")
        if not (np.isfinite(self.time) and self.time >= 0.0):
            raise ValueError("time must be nonnegative")
        object.__setattr__(self, "positions", pos)

    @property
    def n_cells(self) -> int:
        """Number of gaps ( = number of mass-carrying particles)."""
        return self.positions.size - 1

    @property
    def total_mass(self) -> float:
        return self.n_cells * self.particle_mass

    def gaps(self) -> np.ndarray:
        return np.diff(self.positions)

    def densities(self) -> np.ndarray:
        """Per-cell discrete densities: particle mass over gap.  A subnormal
        gap gives an infinite density, which the checks of a law refuse."""
        with np.errstate(over="ignore"):
            return self.particle_mass / self.gaps()

    def max_density(self) -> float:
        return float(np.max(self.densities()))


# the largest count: a run's work grows like the square of its particle count,
# so at 2**20 it is already 10**6 times that at N = 1024
MAX_COUNT = 2 ** 20


def count(value, what: str, floor: int = 2) -> int:
    """``value``, an int, a numpy integer or an integral float, as an int in
    [``floor``, MAX_COUNT].  Every count a config gives is read through it,
    before anything is allocated; any other value raises ValueError."""
    integral = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                or isinstance(value, (float, np.floating)) and float(value).is_integer())
    if not (integral and value >= floor):
        raise ValueError(f"{what} must be an integer >= {floor}, got {value!r}")
    if value > MAX_COUNT:
        raise ValueError(f"{what} must be at most {MAX_COUNT}, got {value!r}")
    return int(value)


def atomize(datum: PiecewiseConstantDensity, n_particles: int) -> ParticleConfiguration:
    """Split the datum's subgraph into ``n_particles`` equal-mass slabs.

    Returns the time-0 configuration whose N+1 positions are the slab edges:
    the first and last coincide with the support hull, interior edges invert
    the cumulative distribution at levels i * mass / N (leftmost solution).
    Every exact gap is at least particle_mass / sup_norm; a computed one may
    be below it by a few ulps of the largest |position| (under 4 on random
    data), hence ``harness.LAW_REACH``.  A level equal to a cumulative mass
    takes that breakpoint; any other lies inside a cell of positive mass and
    is interpolated in it.  ``n_particles`` is a ``count`` of at least 2.
    """
    n = count(n_particles, "particle count")
    cell_mass = datum.total_mass / n
    positions = np.empty(n + 1)
    positions[0] = datum.support_min
    positions[n] = datum.support_max
    levels, cum = np.arange(1, n) * cell_mass, datum.cumulative_masses
    j = np.searchsorted(cum, levels, side="left")
    hit = cum[j] == levels
    left = j[~hit] - 1
    positions[1:n][hit] = datum.breakpoints[j[hit]]
    positions[1:n][~hit] = datum.breakpoints[left] + (levels[~hit] - cum[left]) / datum.values[left]
    return ParticleConfiguration(time=0.0, particle_mass=cell_mass, positions=positions)


def scenario(name: str, **params) -> PiecewiseConstantDensity:
    """Build one of the named initial data used by the experiment harness.

    box: single box of given height/width.
    double_hump: two equal boxes separated by interior vacuum.
    riemann_like: tall box abutting a short box (single interior jump).
    sawtooth_bv: monotone decreasing steps.

    A parameter the scenario does not take raises ValueError.
    """
    if name == "box":
        height = float(params.pop("height", 1.0))
        width = float(params.pop("width", 1.0))
        left = float(params.pop("left", 0.0))
        bp, vals = [left, left + width], [height]
    elif name == "double_hump":
        height = float(params.pop("height", 1.0))
        width = float(params.pop("hump_width", 0.5))
        gap = float(params.pop("gap", 1.0))
        left = float(params.pop("left", 0.0))
        bp = [left, left + width, left + width + gap, left + 2.0 * width + gap]
        vals = [height, 0.0, height]
    elif name == "riemann_like":
        left_h = float(params.pop("left_height", 0.8))
        right_h = float(params.pop("right_height", 0.2))
        half = float(params.pop("half_width", 1.0))
        jump = float(params.pop("jump_at", 0.0))
        bp, vals = [jump - half, jump, jump + half], [left_h, right_h]
    elif name == "sawtooth_bv":
        steps = count(params.pop("steps", 4), "sawtooth_bv steps", floor=1)
        top = float(params.pop("top", 1.0))
        width = float(params.pop("step_width", 0.5))
        left = float(params.pop("left", 0.0))
        bp = left + width * np.arange(steps + 1)
        vals = top * (steps - np.arange(steps)) / steps
    else:
        raise ValueError(f"unknown scenario {name!r}")
    if params:
        raise ValueError(f"unknown {name} parameter(s): {', '.join(sorted(params))}")
    return from_piecewise(bp, vals)

