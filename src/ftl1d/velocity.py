"""Velocity laws v(rho) and their admissibility checks.

Every model maps a nonnegative density to a speed.  The particle scheme and
the entropy-solution oracles both rely on v being strictly decreasing with a
finite vacuum speed v(0) = v_max; some estimates additionally need the map
rho -> rho * v'(rho) to be non-increasing, and the oracles a concave flux
rho * v(rho).  ``check_assumptions`` samples those four conditions on a grid
of ``ADMISSIBILITY_SAMPLES`` points; no other code samples a law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

DERIVATIVE_STEP = 1e-6   # centered-difference step of laws without a closed-form v'
ADMISSIBILITY_SAMPLES = 256   # check_assumptions' grid: the one grid of every verdict on a law


def _centered_difference(v, rho, top):
    """(v(hi) - v(lo)) / (hi - lo) with lo, hi = rho -/+ DERIVATIVE_STEP
    clipped into [0, top]."""
    lo = np.maximum(rho - DERIVATIVE_STEP, 0.0)
    hi = np.minimum(rho + DERIVATIVE_STEP, top)
    return (v(hi) - v(lo)) / (hi - lo)


def _as_density(rho):
    """Validate and convert a density argument (scalar or array)."""
    arr = np.asarray(rho, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise ValueError("density must be finite and nonnegative")
    return arr


class VelocityModel:
    """Base class for velocity laws; subclasses implement _v and _dv.

    ``_v(rho, out)`` writes v(rho) into ``out`` and returns it; ``out`` may
    be ``rho`` itself, as in the integrator's right-hand side.  A built-in
    law binds the constant operands of its ``_v`` once, when it is
    constructed, as 0-d float64 arrays beside its fields (``_bind``; this
    class binds v_max and 1.0): at the integrator's sizes a ufunc call
    costs its dispatch, which is lower with a 0-d array than a Python float.

    Methods: value, derivative, flux, flux_derivative, density_weighted_slope,
    critical_density and inverse_flux_derivative (the last two overridden
    where a closed form exists).  The built-in laws refuse a v_max that is
    not positive and finite; custom and tabulated laws validate their own
    fields.
    """

    v_max: float

    def __post_init__(self):
        if not 0.0 < self.v_max < math.inf:
            raise ValueError("v_max must be positive and finite")
        self._bind(_v_max=self.v_max, _one=1.0)   # the 1 of 1 - rho and 1 - rho**alpha

    def _bind(self, **operands):
        # private attributes, not fields: ==, hash and repr ignore them, a
        # pickle carries them and dataclasses.replace binds them anew
        for name, value in operands.items():
            object.__setattr__(self, name, np.array(value, dtype=float))

    def _v(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dv(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, rho):
        """Speed v(rho).  Accepts scalars or arrays, rho >= 0 and finite."""
        arr = _as_density(rho)
        out = self._v(arr, np.empty(arr.shape))
        return float(out) if np.ndim(rho) == 0 else out

    def derivative(self, rho):
        """Slope v'(rho), negative for rho > 0 under strict monotonicity."""
        arr = _as_density(rho)
        out = self._dv(arr)
        return float(out) if np.ndim(rho) == 0 else out

    def flux(self, rho):
        """Flux f(rho) = rho * v(rho); exactly zero at vacuum."""
        arr = _as_density(rho)
        out = arr * self._v(arr, np.empty(arr.shape))
        return float(out) if np.ndim(rho) == 0 else out

    def flux_derivative(self, rho):
        """Characteristic speed f'(rho) = v(rho) + rho * v'(rho).

        The vacuum speed is v_max, also where v'(0) diverges.
        """
        arr = _as_density(rho)
        out = self._v(arr, np.empty(arr.shape)) + self.density_weighted_slope(arr)
        return float(out) if np.ndim(rho) == 0 else out

    def density_weighted_slope(self, rho):
        """The map rho -> rho * v'(rho), with the vacuum value pinned to 0.

        At rho = 0 the product is taken as its limit 0 (this covers laws whose
        slope diverges at vacuum while rho * v'(rho) still vanishes).
        """
        arr = _as_density(rho)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            out = np.where(arr == 0.0, 0.0, arr * self._dv(arr))
        return float(out) if np.ndim(rho) == 0 else out

    def critical_density(self, hi: float) -> float:
        """Argmax of the flux on [0, hi]: hi where f'(hi) >= 0, else the root
        of f' by ``inverse_flux_derivative``.

        f' is assumed decreasing on [0, hi] (as it is when the flux is concave).
        """
        if self.flux_derivative(hi) >= 0.0:
            return float(hi)
        return float(self.inverse_flux_derivative(0.0, 0.0, hi))

    def inverse_flux_derivative(self, xi, lo: float, hi: float):
        """Solve f'(rho) = xi for rho in [lo, hi], bisecting to 1e-13 * max(1, hi).

        f' is assumed decreasing on [lo, hi] (as it is when the flux is
        concave); xi outside [f'(hi), f'(lo)] gives the nearer end.
        """
        arr = np.asarray(xi, dtype=float)
        a = np.full(arr.shape, lo)
        b = np.full(arr.shape, hi)
        for _ in range(80):
            mid = 0.5 * (a + b)
            high = self.flux_derivative(mid) > arr
            a = np.where(high, mid, a)
            b = np.where(high, b, mid)
            if float(np.max(b - a)) <= 1e-13 * max(1.0, hi):
                break
        # an end exactly, not a midpoint near it: f(r) - r * xi moves with it
        out = np.where(arr >= self.flux_derivative(lo), lo,
                       np.where(arr <= self.flux_derivative(hi), hi, 0.5 * (a + b)))
        return float(out) if np.ndim(xi) == 0 else out


@dataclass(frozen=True)
class Greenshields(VelocityModel):
    """Linear law v(rho) = v_max * (1 - rho)."""

    v_max: float = 1.0

    def _v(self, rho, out):
        return np.multiply(self._v_max, np.subtract(self._one, rho, out=out), out=out)

    def _dv(self, rho):
        return np.full_like(rho, -self.v_max)

    def inverse_flux_derivative(self, xi, lo: float, hi: float):
        # f'(rho) = v_max * (1 - 2 rho)
        out = np.clip(0.5 * (1.0 - np.asarray(xi, dtype=float) / self.v_max), lo, hi)
        return float(out) if np.ndim(xi) == 0 else out


@dataclass(frozen=True)
class PipesMunjal(VelocityModel):
    """Power law v(rho) = v_max * (1 - rho**alpha), alpha > 0."""

    v_max: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        self._bind(_alpha=self.alpha)

    def _v(self, rho, out):
        np.subtract(self._one, np.power(rho, self._alpha, out=out), out=out)
        return np.multiply(self._v_max, out, out=out)

    def _dv(self, rho):
        # alpha < 1 has an unbounded slope at vacuum; the -inf is deliberate.
        with np.errstate(divide="ignore"):
            return -self.v_max * self.alpha * rho ** (self.alpha - 1.0)

    def critical_density(self, hi: float) -> float:
        return float(min((1.0 / (1.0 + self.alpha)) ** (1.0 / self.alpha), hi))


@dataclass(frozen=True)
class Underwood(VelocityModel):
    """Exponential law v(rho) = v_max * exp(-rho)."""

    v_max: float = 1.0

    def _v(self, rho, out):
        return np.multiply(self._v_max, np.exp(np.negative(rho, out=out), out=out), out=out)

    def _dv(self, rho):
        return -self.v_max * np.exp(-rho)

    def critical_density(self, hi: float) -> float:
        return float(min(1.0, hi))


@dataclass(frozen=True)
class ModifiedGreenberg(VelocityModel):
    """Logarithmic law v(rho) = v_max * log(1/(rho+alpha)) / log(1/alpha).

    Requires 0 < alpha < 1: for alpha >= 1 the normalisation flips sign and
    the law is no longer decreasing.
    """

    v_max: float = 1.0
    alpha: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1) for a decreasing law")
        self._bind(_alpha=self.alpha, _log_alpha=np.log(self.alpha))

    def _v(self, rho, out):
        np.log(np.add(rho, self._alpha, out=out), out=out)
        return np.multiply(self._v_max, np.divide(out, self._log_alpha, out=out), out=out)

    def _dv(self, rho):
        return self.v_max / (np.log(self.alpha) * (rho + self.alpha))


@dataclass(frozen=True)
class CustomVelocity(VelocityModel):
    """Closed-form law given by callables.

    ``v_func`` (and optionally ``v_prime_func``) must accept numpy arrays.
    When no derivative is supplied a centered difference with step
    ``DERIVATIVE_STEP`` is used.
    """

    v_func: object
    v_max: float
    v_prime_func: object = None

    def __post_init__(self):
        if float(self.v_func(0.0)) != self.v_max:
            raise ValueError("v_func(0) must equal v_max")

    def _v(self, rho, out):
        out[...] = self.v_func(rho)
        return out

    def _dv(self, rho):
        if self.v_prime_func is not None:
            return np.asarray(self.v_prime_func(rho), dtype=float)
        return _centered_difference(self.value, rho, np.inf)


@dataclass(frozen=True)
class TabulatedVelocity(VelocityModel):
    """Law interpolated linearly between strictly decreasing table values.

    Both tables must be finite, and the table must start at rho = 0 (so
    v_max = v(0) is defined); evaluation outside the tabulated range is
    rejected rather than extrapolated.  Derivatives use centered
    differences with step ``DERIVATIVE_STEP``, clipped into the table.
    """

    rho_table: np.ndarray
    v_table: np.ndarray
    v_max: float = field(init=False)

    def __post_init__(self):
        rho = np.asarray(self.rho_table, dtype=float)
        vel = np.asarray(self.v_table, dtype=float)
        if rho.ndim != 1 or rho.shape != vel.shape or rho.size < 2:
            raise ValueError("tables must be 1-d, equal length, size >= 2")
        if not (np.isfinite(rho).all() and np.isfinite(vel).all()):
            raise ValueError("rho_table and v_table must be finite")
        if rho[0] != 0.0:
            raise ValueError("rho_table must start at 0")
        if np.any(np.diff(rho) <= 0.0):
            raise ValueError("rho_table must be strictly increasing")
        if np.any(np.diff(vel) >= 0.0):
            raise ValueError("v_table must be strictly decreasing")
        object.__setattr__(self, "rho_table", rho)
        object.__setattr__(self, "v_table", vel)
        object.__setattr__(self, "v_max", float(vel[0]))

    def _check_range(self, rho):
        if np.any(rho > self.rho_table[-1]):
            raise ValueError(
                f"density beyond tabulated range [0, {self.rho_table[-1]}]"
            )

    def _v(self, rho, out):
        self._check_range(rho)
        out[...] = np.interp(rho, self.rho_table, self.v_table)
        return out

    def _dv(self, rho):
        self._check_range(rho)
        return _centered_difference(self.value, rho, self.rho_table[-1])


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled admissibility checks for a velocity law on [0, rho_max]; every
    field after ``grid`` is one verdict."""

    grid: np.ndarray
    v_strictly_decreasing: bool
    v_at_zero_equals_v_max: bool
    weighted_slope_non_increasing: bool
    flux_concave: bool

    def _verdicts(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "grid"}

    @property
    def all_satisfied(self) -> bool:
        return all(self._verdicts().values())

    def to_dict(self):
        return {
            **self._verdicts(),
            "all_satisfied": self.all_satisfied,
            "grid_min": float(self.grid[0]),
            "grid_max": float(self.grid[-1]),
            "grid_size": int(self.grid.size),
        }


def check_assumptions(model: VelocityModel, rho_max: float) -> AssumptionReport:
    """Sample the four admissibility conditions on ``ADMISSIBILITY_SAMPLES``
    uniform points of [0, rho_max].

    Checks, in order: v strictly decreasing, v(0) = v_max exactly,
    rho * v'(rho) non-increasing, and f = rho * v concave (second differences
    at most 1e-10 * (1 + max|f|)).  Report-only; never raises on failure.
    v counts as strictly decreasing when its samples never increase and v'
    is negative at every positive sample: near vacuum a law like
    1 - rho**20 rounds to v_max, so samples may tie, and v'(0) = 0 is allowed.
    v and v' are evaluated once each; f and rho * v'(rho) are formed from them.
    """
    if not rho_max > 0.0:
        raise ValueError("rho_max must be positive")
    grid = np.linspace(0.0, rho_max, ADMISSIBILITY_SAMPLES)
    v = model.value(grid)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        dv = model.derivative(grid)
        m = np.where(grid == 0.0, 0.0, grid * dv)
    decreasing = bool(np.all(np.diff(v) <= 0.0) and np.all(dv[1:] < 0.0))
    at_zero = v[0] == model.v_max
    slack = 1e-12 * (1.0 + float(np.max(np.abs(m))))
    non_increasing = bool(np.all(np.diff(m) <= slack))
    f = grid * v
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    concave = bool(np.all(second <= 1e-10 * (1.0 + float(np.max(np.abs(f))))))
    return AssumptionReport(grid, decreasing, bool(at_zero), non_increasing, concave)


KINDS = {   # the laws a config names by its velocity ``kind``
    "greenshields": Greenshields,
    "pipes_munjal": PipesMunjal,
    "underwood": Underwood,
    "modified_greenberg": ModifiedGreenberg,
    "tabulated": TabulatedVelocity,
}
