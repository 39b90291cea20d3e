import numpy as np
import pytest
from hypothesis import strategies as st

from ftl1d import ParticleConfiguration, PiecewiseConstantDensity, PiecewiseMonotone, cdf
from ftl1d.measures import integrate_abs_difference


@st.composite
def piecewise_cells(draw, positive_mass=False):
    """(breakpoints, values) of 1-6 cells with values in {0} U [0.05, 2].

    Zero values are vacuum cells, and every cell may be vacuum unless
    ``positive_mass`` is set.  Up to density 2 the Greenshields,
    Pipes-Munjal and Underwood fluxes are concave.
    """
    value = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    cells = st.lists(st.tuples(st.floats(0.05, 2.0), value), min_size=1, max_size=6)
    if positive_mass:
        cells = cells.filter(lambda cs: any(v > 0.0 for _, v in cs))
    widths, values = zip(*draw(cells))
    left = draw(st.floats(-3.0, 3.0))
    return left + np.concatenate(([0.0], np.cumsum(widths))), np.array(values)


@st.composite
def particle_states(draw, cells=None, mass=None):
    """A particle state of 2-41 particles with random gaps and mass; ``cells``
    fixes the number of gaps and ``mass`` the particle mass."""
    gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=cells or 1, max_size=cells or 40))
    left = draw(st.floats(-3.0, 3.0))
    if mass is None:
        mass = draw(st.floats(1e-3, 2.0))
    return ParticleConfiguration(0.0, mass, left + np.concatenate(([0.0], np.cumsum(gaps))))


@st.composite
def same_grid_pairs(draw):
    """Two particle states of one particle mass and one number of cells."""
    a = draw(particle_states())
    return a, draw(particle_states(cells=a.n_cells, mass=a.particle_mass))


def random_piecewise_density(rng, total_mass=1.0, max_cells=8):
    """Random compactly supported piecewise-constant density of given mass.

    Some cells are forced to zero so vacuum plateaus get exercised.
    """
    n = int(rng.integers(1, max_cells + 1))
    bp = np.sort(rng.uniform(-2.0, 3.0, size=n + 1))
    while np.any(np.diff(bp) <= 1e-6):
        bp = np.sort(rng.uniform(-2.0, 3.0, size=n + 1))
    vals = rng.uniform(0.0, 2.0, size=n)
    vals[rng.random(n) < 0.25] = 0.0
    if not np.any(vals > 0.0):
        vals[int(rng.integers(0, n))] = 1.0
    area = float(np.sum(vals * np.diff(bp)))
    vals *= total_mass / area
    return PiecewiseConstantDensity(bp, vals)


def staircase(atoms, weight) -> PiecewiseMonotone:
    """CDF of equal point masses at non-decreasing ``atoms``.

    Unlike a particle state, the atoms may repeat; a repeated atom is one
    jump by its multiple of ``weight``.
    """
    locs, counts = np.unique(np.asarray(atoms, dtype=float), return_counts=True)
    levels = np.concatenate(([0.0], np.cumsum(counts * weight)))
    return PiecewiseMonotone(np.repeat(locs, 2), np.repeat(levels, 2)[1:-1])


def random_empirical(rng, total_mass=1.0, max_atoms=12):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-2.0, 3.0, size=n))
    return staircase(atoms, total_mass / n)


def random_measure(rng, total_mass=1.0):
    if rng.random() < 0.5:
        return random_piecewise_density(rng, total_mass)
    return random_empirical(rng, total_mass)


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


def wasserstein_via_quantiles(m1, m2) -> float:
    """The scaled W1 distance on the inverse side: integral of |X1 - X2| dz.

    An independent reference for ``ftl1d.wasserstein``, which integrates
    |F1 - F2| over x on the CDF side.  Each quantile runs over [0, its
    total mass]; the two masses agree up to roundoff, so the integral runs
    over their merged node range with no window.
    """
    return integrate_abs_difference(pseudo_inverse(cdf(m1)), pseudo_inverse(cdf(m2)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
