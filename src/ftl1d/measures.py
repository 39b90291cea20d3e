"""Reconstructions of a particle state as measures, and exact transport metrics.

A particle configuration induces two objects: a piecewise-constant density
(cell value = particle mass over gap, the same type as an initial datum and
an oracle profile) and the empirical measure of the mass carrying particles
(leader excluded), kept as its staircase CDF.  Every cell of the density
carries the particle mass, so its values read on the mass cells
[i*m, (i+1)*m) are also the density in mass coordinates.  Cumulative
distributions, the scaled 1-Wasserstein distance (the L1 distance of two
CDFs) and L1 distances are all computed in closed form, with no quadrature
anywhere.  Two arbitrary measures go through merged-breakpoint arithmetic.
Two particle cell densities of one mass grid (one cell mass, one number of
cells) need no merge: both their quantiles and their mass-coordinate
densities are read cell by cell on the shared mass cells, as
``diagnostics.time_continuity_moduli`` reads every consecutive pair of a
run through ``segment_l1`` (the references for one pair, which the tests
compare it with, are in ``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initial_data import ParticleConfiguration, PiecewiseConstantDensity

MASS_MISMATCH_RTOL = 1e-9


# ---------------------------------------------------------------------------
# reconstructions from a particle configuration

def hat_density(config: ParticleConfiguration) -> PiecewiseConstantDensity:
    """Piecewise-constant reconstruction: mass/gap on each particle cell."""
    return PiecewiseConstantDensity(
        breakpoints=config.positions.copy(),
        values=config.densities(),
        cell_mass=config.particle_mass,
    )


def empirical(config: ParticleConfiguration) -> PiecewiseMonotone:
    """CDF of the empirical measure of the mass-carrying particles (leader
    excluded): a staircase with a repeated node at every particle, where it
    jumps by the particle mass.  Its levels are the running sum of the mass,
    the same floats as the hat density's cumulative masses.
    """
    x = config.positions
    cum = np.concatenate(([0.0], np.cumsum(np.full(x.size - 1, config.particle_mass))))
    return PiecewiseMonotone(np.repeat(x[:-1], 2), np.repeat(cum, 2)[1:-1])


# ---------------------------------------------------------------------------
# monotone piecewise functions (CDFs)

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
        return self._one_sided(x, "right")

    def left_limits(self, x) -> np.ndarray:
        """Values f(x-), the limit from the left."""
        return self._one_sided(x, "left")

    def _one_sided(self, x, side: str) -> np.ndarray:
        """f(x+) for side "right", f(x-) for "left": at a node the value of the
        last node at x from the right, of the first from the left; outside the
        nodes the end value; between nodes x0 < x < x1 the interpolation."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bp, vals = self.breakpoints, self.values
        i = np.searchsorted(bp, x, side=side)   # x0 = bp[i - 1] and x1 = bp[i] around x
        node = np.clip(i - 1 if side == "right" else i, 0, bp.size - 1)
        out = vals[node]
        mid = (i > 0) & (i < bp.size) & (bp[node] != x)
        i = i[mid]
        x0, x1 = bp[i - 1], bp[i]
        w = (x[mid] - x0) / (x1 - x0)
        out[mid] = vals[i - 1] + w * (vals[i] - vals[i - 1])
        return out


def cdf(measure) -> PiecewiseMonotone:
    """Cumulative distribution of a density; a CDF is returned as it is.

    A density gives the continuous polyline through its cumulative masses.
    """
    if isinstance(measure, PiecewiseMonotone):
        return measure
    if isinstance(measure, PiecewiseConstantDensity):
        return PiecewiseMonotone(measure.breakpoints.copy(),
                                 measure.cumulative_masses.copy())
    raise TypeError(f"cannot build a CDF from {type(measure).__name__}")


# ---------------------------------------------------------------------------
# exact integration of |f - g|

def segment_l1(da, db, widths):
    """Exact integral of |linear| over segments with endpoint values da, db
    (overwritten by their absolute values), summed along the last axis; only
    a segment whose ends differ in sign holds two triangles."""
    crossing = np.nonzero(da * db < 0.0)
    half = 0.5 * widths
    out = np.add(np.abs(da, out=da), np.abs(db, out=db))
    a, b = da[crossing], db[crossing]
    triangles = np.broadcast_to(half, out.shape)[crossing] * (a * a + b * b) / out[crossing]
    np.multiply(half, out, out=out)
    out[crossing] = triangles
    return np.sum(out, axis=-1)


def integrate_abs_difference(f: PiecewiseMonotone, g: PiecewiseMonotone) -> float:
    """Closed-form integral of |f - g| over the merged breakpoint range.

    Breakpoints of both functions are merged; on each subinterval both
    restrictions are linear, so every piece integrates exactly.  Both
    functions are constant outside that range; two CDFs of one total mass
    agree there, so for them this is the integral over the whole line.
    """
    mesh = np.unique(np.concatenate((f.breakpoints, g.breakpoints)))
    if mesh.size < 2:
        return 0.0
    a, b = mesh[:-1], mesh[1:]
    da = f.right_limits(a) - g.right_limits(a)
    db = f.left_limits(b) - g.left_limits(b)
    return float(segment_l1(da, db, b - a))


def wasserstein(m1, m2) -> float:
    """Scaled 1-Wasserstein distance: integral over x of |F1 - F2|.

    Each argument is a density or a CDF; the two must carry (numerically)
    the same total mass.
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
    diff = np.abs(d1.values_at(mids) - d2.values_at(mids))
    return float(np.sum(diff * np.diff(mesh)))
