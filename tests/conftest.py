import numpy as np
import pytest
from hypothesis import strategies as st

from ftl1d import EmpiricalMeasure, PiecewiseConstantDensity


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


def random_empirical(rng, total_mass=1.0, max_atoms=12):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-2.0, 3.0, size=n))
    return EmpiricalMeasure(atoms=atoms, weight=total_mass / n)


def random_measure(rng, total_mass=1.0):
    if rng.random() < 0.5:
        return random_piecewise_density(rng, total_mass)
    return random_empirical(rng, total_mass)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
