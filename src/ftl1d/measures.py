"""Reconstructions of a particle state as measures, and exact transport metrics.

A particle configuration induces two objects: a piecewise-constant density
(cell value = particle mass over gap, the same type as an initial datum and
an oracle profile) and the empirical measure of the mass carrying particles
(leader excluded).  Every cell of the density carries the particle mass, so
its values read on the mass cells [i*m, (i+1)*m) are also the density in
mass coordinates.  Cumulative distributions, generalized inverses, the
scaled 1-Wasserstein distance and L1 distances are all computed in closed
form by merged-breakpoint arithmetic; no quadrature is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initial_data import ParticleConfiguration, PiecewiseConstantDensity

MASS_MISMATCH_RTOL = 1e-9


# ---------------------------------------------------------------------------
# measure types

@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finite sum of point masses with one common weight."""

    atoms: np.ndarray
    weight: float

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0 or np.any(np.diff(atoms) < 0.0):
            raise ValueError("atoms must be a nonempty non-decreasing 1-d array")
        if not self.weight > 0.0:
            raise ValueError("weight must be positive")
        object.__setattr__(self, "atoms", atoms)

    @property
    def total_mass(self) -> float:
        return self.atoms.size * self.weight


# ---------------------------------------------------------------------------
# reconstructions from a particle configuration

def hat_density(config: ParticleConfiguration) -> PiecewiseConstantDensity:
    """Piecewise-constant reconstruction: mass/gap on each particle cell."""
    return PiecewiseConstantDensity(
        breakpoints=config.positions.copy(),
        values=config.densities(),
        cell_mass=config.particle_mass,
    )


def empirical(config: ParticleConfiguration) -> EmpiricalMeasure:
    """Empirical measure of the mass-carrying particles (leader excluded)."""
    return EmpiricalMeasure(atoms=config.positions[:-1].copy(), weight=config.particle_mass)


def lagrangian_l1(a: PiecewiseConstantDensity, b: PiecewiseConstantDensity) -> float:
    """L1 distance in the mass coordinate between two particle cell densities.

    Both must carry a ``cell_mass``, the same one, on the same number of
    cells: their values then live on the same mass cells [i*m, (i+1)*m).
    """
    if a.cell_mass is None or a.cell_mass != b.cell_mass or a.values.size != b.values.size:
        raise ValueError("densities need one cell_mass on one number of cells")
    return float(a.cell_mass * np.sum(np.abs(a.values - b.values)))


# ---------------------------------------------------------------------------
# monotone piecewise functions (CDFs and their generalized inverses)

@dataclass(frozen=True)
class PiecewiseMonotone:
    """Non-decreasing polyline, constant outside its node range.

    ``breakpoints``/``values`` are the nodes.  A repeated breakpoint is a
    jump discontinuity; evaluation is right-continuous.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size == 0 or bp.size != vals.size:
            raise ValueError("breakpoints and values must be nonempty 1-d arrays of one size")
        if np.any(np.diff(bp) < 0.0):
            raise ValueError("breakpoints must be non-decreasing")
        if np.any(np.diff(vals) < 0.0):
            raise ValueError("function must be non-decreasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def range_top(self) -> float:
        return float(self.values[-1])

    def right_limits(self, x) -> np.ndarray:
        """Values f(x+), i.e. right-continuous evaluation."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bp, vals = self.breakpoints, self.values
        n = bp.size
        idx = np.searchsorted(bp, x, side="right") - 1  # last node <= x
        out = np.empty(x.shape)
        lo = idx < 0
        hi = idx >= n - 1
        mid = ~(lo | hi)
        out[lo] = vals[0]
        out[hi] = vals[-1]
        ii = idx[mid]
        x0, x1 = bp[ii], bp[ii + 1]   # x1 > x >= x0, never degenerate
        w = (x[mid] - x0) / (x1 - x0)
        out[mid] = vals[ii] + w * (vals[ii + 1] - vals[ii])
        return out

    def left_limits(self, x) -> np.ndarray:
        """Values f(x-), the limit from the left."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bp, vals = self.breakpoints, self.values
        n = bp.size
        idx = np.searchsorted(bp, x, side="left")  # first node >= x
        out = np.empty(x.shape)
        lo = idx <= 0
        hi = idx >= n
        hit = ~lo & ~hi & (bp[np.minimum(idx, n - 1)] == x)
        mid = ~(lo | hi | hit)
        out[lo] = vals[0]
        out[hi] = vals[-1]
        out[hit] = vals[idx[hit]]     # first node at x: value before the jump
        ii = idx[mid]
        x0, x1 = bp[ii - 1], bp[ii]   # x0 < x < x1
        w = (x[mid] - x0) / (x1 - x0)
        out[mid] = vals[ii - 1] + w * (vals[ii] - vals[ii - 1])
        return out


def cdf(measure) -> PiecewiseMonotone:
    """Cumulative distribution of a density or an empirical measure.

    A CDF is returned as it is.  Densities give continuous polylines through
    their cumulative masses; empirical measures give polylines with a
    repeated node at every atom, where the CDF jumps by the atom weight.
    """
    if isinstance(measure, PiecewiseMonotone):
        return measure
    if isinstance(measure, PiecewiseConstantDensity):
        return PiecewiseMonotone(measure.breakpoints.copy(),
                                 measure.cumulative_masses.copy())
    if isinstance(measure, EmpiricalMeasure):
        locs, counts = np.unique(measure.atoms, return_counts=True)
        levels = np.concatenate(([0.0], np.cumsum(counts * measure.weight)))
        return PiecewiseMonotone(np.repeat(locs, 2), np.repeat(levels, 2)[1:-1])
    raise TypeError(f"cannot build a CDF from {type(measure).__name__}")


def pseudo_inverse(F: PiecewiseMonotone) -> PiecewiseMonotone:
    """Generalized inverse X(z) = inf{x : F(x) > z} on [bottom, top].

    At z = top (where the infimum is over an empty set) the value is the
    rightmost support point.  Plateaus of F become jumps of X and vice versa.
    """
    xs, fs = F.breakpoints, F.values
    bottom, top = float(fs[0]), float(fs[-1])
    start = int(np.searchsorted(fs, bottom, side="right")) - 1
    end = int(np.searchsorted(fs, top, side="left"))
    return PiecewiseMonotone(fs[start:end + 1].copy(), xs[start:end + 1].copy())


# ---------------------------------------------------------------------------
# exact integration of |f - g|

def _segment_l1(da, db, widths) -> float:
    """Exact integral of |linear| over segments with endpoint values da, db."""
    same_sign = da * db >= 0.0
    trapezoid = 0.5 * widths * (np.abs(da) + np.abs(db))
    denom = np.abs(da) + np.abs(db)
    crossing = np.where(denom > 0.0,
                        0.5 * widths * (da * da + db * db) / np.where(denom > 0.0, denom, 1.0),
                        0.0)
    return float(np.sum(np.where(same_sign, trapezoid, crossing)))


def integrate_abs_difference(f: PiecewiseMonotone, g: PiecewiseMonotone,
                             lo: float | None = None, hi: float | None = None) -> float:
    """Closed-form integral of |f - g| over [lo, hi] (or the whole line).

    Breakpoints of both functions are merged; on each subinterval both
    restrictions are linear, so every piece integrates exactly.  Without
    bounds the functions must agree outside the merged breakpoint range.
    """
    mesh = np.concatenate((f.breakpoints, g.breakpoints))
    if lo is not None:
        mesh = mesh[(mesh > lo) & (mesh < hi)]
        mesh = np.concatenate((mesh, [lo, hi]))
    mesh = np.unique(mesh)
    if mesh.size < 2:
        return 0.0
    a, b = mesh[:-1], mesh[1:]
    da = f.right_limits(a) - g.right_limits(a)
    db = f.left_limits(b) - g.left_limits(b)
    return _segment_l1(da, db, b - a)


def wasserstein(m1, m2) -> float:
    """Scaled 1-Wasserstein distance: integral over x of |F1 - F2|.

    The two measures must carry (numerically) the same total mass.
    """
    F1, F2 = cdf(m1), cdf(m2)
    top1, top2 = F1.range_top, F2.range_top
    if abs(top1 - top2) > MASS_MISMATCH_RTOL * max(top1, top2):
        raise ValueError(f"total masses differ: {top1} vs {top2}")
    return integrate_abs_difference(F1, F2)


def l1_distance(d1: PiecewiseConstantDensity, d2: PiecewiseConstantDensity) -> float:
    """Exact integral of |d1 - d2| over the union of supports."""
    mesh = np.unique(np.concatenate((d1.breakpoints, d2.breakpoints)))
    mids = 0.5 * (mesh[:-1] + mesh[1:])

    def cell_values(d):
        vals = d.values
        idx = np.searchsorted(d.breakpoints, mids, side="right") - 1
        inside = (idx >= 0) & (idx < vals.size)
        return np.where(inside, vals[np.clip(idx, 0, vals.size - 1)], 0.0)

    diff = np.abs(cell_values(d1) - cell_values(d2))
    return float(np.sum(diff * np.diff(mesh)))
