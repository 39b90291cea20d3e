"""Velocity laws v(rho) and their admissibility checks.

Every model maps a nonnegative density to a speed, through one kernel of a
cell mass m that maps gaps to the speeds v(m / gap), read at the gaps 1.0 by
``value``.  The particle scheme and the entropy-solution oracles both rely
on v being strictly decreasing with a finite vacuum speed v(0) = v_max;
some estimates additionally need the map rho -> rho * v'(rho) to be
non-increasing, and the oracles a concave flux rho * v(rho).
``check_assumptions`` samples those four conditions on a grid of
``ADMISSIBILITY_SAMPLES`` points, except the last two where the law decides
them exactly (``structural_verdicts``: Underwood's closed forms, and the
tabulated law's slopes); no other code samples a law.  Every law states its
slope v' exactly, the tabulated law as the slope of the segment holding rho,
so no law here differences its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

ADMISSIBILITY_SAMPLES = 256   # check_assumptions' grid: the one grid of every sampled verdict
_ONE = np.array(1.0)   # the gaps of _v: rho / 1.0 is rho, with ±0, inf and NaN


def _as_density(rho):
    """Validate and convert a density argument (scalar or array)."""
    arr = np.asarray(rho, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise ValueError("density must be finite and nonnegative")
    return arr


class VelocityModel:
    """Base class for velocity laws; a subclass implements _velocities and _dv.

    ``_velocities(mass)`` returns the kernel ``velocities(gaps, out)``, which
    writes v(mass / gaps) into ``out`` (which may be ``gaps``) and returns it;
    ``_v(rho, out)`` reads it at the gaps 1.0, and no law overrides it.  A
    law writes its formula once, as a kernel whose ufuncs and operands are
    closure locals; a built-in law binds those operands when it is
    constructed, as 0-d float64 arrays beside its fields (``_bind``; this
    class binds v_max and 1.0), on which a ufunc dispatches faster than on a
    Python float.

    Methods: value, derivative, flux, flux_derivative, density_weighted_slope,
    inverse_flux_derivative (overridden where a closed form exists; at xi 0
    on [0, hi] it is the argmax of the flux), and structural_verdicts
    (overridden where the law decides them exactly).  The built-in laws
    refuse a v_max that is not positive and finite; the tabulated law, and a
    law a caller writes, validate their own fields.
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

    def _velocities(self, mass):
        raise NotImplementedError

    def _v(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._velocities(rho)(_ONE, out)

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

    def inverse_flux_derivative(self, xi, lo: float, hi: float):
        """Solve f'(rho) = xi for rho in [lo, hi], bisecting to 1e-13 * max(1, hi).

        f' is assumed decreasing on [lo, hi] (as it is when the flux is
        concave); xi outside (f'(hi), f'(lo)) gives the nearer end, and where
        every xi does, nothing is bisected.  So xi 0 on [0, hi] gives the
        argmax of the flux: hi where f'(hi) >= 0, else the root of f'.
        """
        arr = np.asarray(xi, dtype=float)
        # an end exactly, not a midpoint near it: f(r) - r * xi moves with it
        at_lo, at_hi = arr >= self.flux_derivative(lo), arr <= self.flux_derivative(hi)
        a = np.full(arr.shape, lo)
        b = np.full(arr.shape, hi)
        if not np.all(at_lo | at_hi):
            for _ in range(80):
                mid = 0.5 * (a + b)
                high = self.flux_derivative(mid) > arr
                a = np.where(high, mid, a)
                b = np.where(high, b, mid)
                if float(np.max(b - a)) <= 1e-13 * max(1.0, hi):
                    break
        out = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (a + b)))
        return float(out) if np.ndim(xi) == 0 else out

    def structural_verdicts(self, hi: float):
        """(rho * v'(rho) non-increasing, flux concave) on [0, hi], where the
        law decides them exactly; None, as here, leaves both to the samples
        of ``check_assumptions``."""
        return None


@dataclass(frozen=True)
class Greenshields(VelocityModel):
    """Linear law v(rho) = v_max * (1 - rho)."""

    v_max: float = 1.0

    def _velocities(self, mass):
        divide, subtract, multiply = np.divide, np.subtract, np.multiply
        one, v_max = self._one, self._v_max

        def velocities(gaps, out):
            return multiply(v_max, subtract(one, divide(mass, gaps, out), out), out)
        return velocities

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

    def _velocities(self, mass):
        divide, power, subtract, multiply = np.divide, np.power, np.subtract, np.multiply
        one, v_max, alpha = self._one, self._v_max, self._alpha

        def velocities(gaps, out):
            subtract(one, power(divide(mass, gaps, out), alpha, out), out)
            return multiply(v_max, out, out)
        return velocities

    def _dv(self, rho):
        # alpha < 1 has an unbounded slope at vacuum; the -inf is deliberate.
        with np.errstate(divide="ignore"):
            return -self.v_max * self.alpha * rho ** (self.alpha - 1.0)

    def inverse_flux_derivative(self, xi, lo: float, hi: float):
        # f'(rho) = v_max * (1 - (1 + alpha) * rho**alpha), with the base class's ends;
        # np.power, as a scalar's ** can differ from the array ufunc in the last bit
        arr = np.asarray(xi, dtype=float)
        root = np.power(np.maximum(1.0 - arr / self.v_max, 0.0) / (1.0 + self.alpha),
                        1.0 / self.alpha)
        out = np.where(arr >= self.flux_derivative(lo), lo,
                       np.where(arr <= self.flux_derivative(hi), hi, np.clip(root, lo, hi)))
        return float(out) if np.ndim(xi) == 0 else out


@dataclass(frozen=True)
class Underwood(VelocityModel):
    """Exponential law v(rho) = v_max * exp(-rho)."""

    v_max: float = 1.0

    def _velocities(self, mass):
        # -mass / gaps is -(mass / gaps) bit for bit: IEEE division is
        # sign-symmetric, so the kernel needs no negative call
        divide, exp, multiply = np.divide, np.exp, np.multiply
        minus_mass, v_max = np.negative(mass, np.empty(np.shape(mass))), self._v_max

        def velocities(gaps, out):
            return multiply(v_max, exp(divide(minus_mass, gaps, out), out), out)
        return velocities

    def _dv(self, rho):
        return -self.v_max * np.exp(-rho)

    def structural_verdicts(self, hi: float):
        # rho * v' = -v_max * rho * e^-rho falls up to rho 1; f'' = v_max * e^-rho * (rho - 2)
        return bool(hi <= 1.0), bool(hi <= 2.0)


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

    def _velocities(self, mass):
        divide, add, log, multiply = np.divide, np.add, np.log, np.multiply
        v_max, alpha, log_alpha = self._v_max, self._alpha, self._log_alpha

        def velocities(gaps, out):
            log(add(divide(mass, gaps, out), alpha, out), out)
            return multiply(v_max, divide(out, log_alpha, out), out)
        return velocities

    def _dv(self, rho):
        return self.v_max / (np.log(self.alpha) * (rho + self.alpha))


@dataclass(frozen=True)
class TabulatedVelocity(VelocityModel):
    """Law interpolated linearly between strictly decreasing table values.

    Both tables must be finite, and the table must start at rho = 0 (so
    v_max = v(0) is defined); evaluation outside the tabulated range is
    rejected rather than extrapolated.  The slope v' is the slope of the
    segment [rho_k, rho_k+1) holding rho, right-continuous like
    ``PiecewiseConstantDensity.values_at``, and the last segment's slope at
    the table's end; the slopes are bound once, when the law is built.
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
        self._bind(_slopes=np.diff(vel) / np.diff(rho))

    def _check_range(self, rho):
        if np.any(rho > self.rho_table[-1]):
            raise ValueError(
                f"density beyond tabulated range [0, {self.rho_table[-1]}]"
            )

    def _velocities(self, mass):
        def velocities(gaps, out):
            self._check_range(np.divide(mass, gaps, out))
            out[...] = np.interp(out, self.rho_table, self.v_table)
            return out
        return velocities

    def _dv(self, rho):
        self._check_range(rho)
        # the interior nodes at or below rho count the segments before its own
        return self._slopes[np.searchsorted(self.rho_table[1:-1], rho, side="right")]

    def structural_verdicts(self, hi: float):
        """Both hold on [0, hi] exactly when no slope rises at a node inside
        (0, hi).  On segment k, v' is the slope s_k < 0, so rho * v' = rho * s_k
        and f' = v + rho * s_k both fall; at the node rho_k both jump by
        rho_k * (s_k - s_{k-1}).

        The tie rule: a rise s_k - s_{k-1} counts only if it exceeds
        e_{k-1} + e_k, where e_k = 2 eps (|v_k| + |v_{k+1}| + |s_k| (rho_k +
        rho_{k+1})) / (rho_{k+1} - rho_k) bounds how far rounding each entry
        to a double, and the slope's own arithmetic, move s_k.  So the
        collinear table (0, 0.3, 0.45), (1, 0.7, 0.55), whose computed slopes
        are -1.0000000000000002 and -0.9999999999999992, is concave.
        """
        rho, vel, slope = self.rho_table, self.v_table, self._slopes
        width = np.diff(rho)
        err = (2.0 * np.finfo(float).eps
               * (np.abs(vel[:-1]) + np.abs(vel[1:]) - slope * (rho[:-1] + rho[1:])) / width)
        rises = np.diff(slope) > err[1:] + err[:-1]
        ok = not np.any(rises[rho[1:-1] < hi])
        return ok, ok


@dataclass(frozen=True)
class AssumptionReport:
    """Admissibility checks for a velocity law on [0, rho_max], sampled on
    ``grid`` unless the law decides them; every field after ``grid`` is one
    verdict."""

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
    at most 1e-10 * (1 + max|f|)); the last two are the law's
    ``structural_verdicts`` where it decides them exactly, as Underwood and
    the tabulated law do, so a kink or a turn that samples cannot see still
    counts.  Report-only; never raises on failure.
    A rho_max that is not positive, or infinite (a subnormal gap's density),
    raises ValueError before anything is sampled.  v counts as strictly
    decreasing when its samples never increase and v' is negative at every
    positive sample: near vacuum a law like 1 - rho**20 rounds to v_max, so
    samples may tie, and v'(0) = 0 is allowed.
    v and v' are evaluated once each; f and rho * v'(rho) are formed from them.
    A sampled verdict reads false when any sample it reads is not finite,
    as where a law overflows (1 - rho**2000 at rho 1.5); such samples raise
    no numpy warning.
    """
    if not rho_max > 0.0:
        raise ValueError("rho_max must be positive")
    if rho_max == math.inf:
        raise ValueError("density must be finite and nonnegative")
    grid = np.linspace(0.0, rho_max, ADMISSIBILITY_SAMPLES)
    finite = math.isfinite
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        v = model.value(grid)
        dv = model.derivative(grid)
        # a NaN fails every comparison; once the samples of v fall and those
        # of v' are negative, the ends of v and the least v' bound the rest
        decreasing = bool(np.all(np.diff(v) <= 0.0) and np.all(dv[1:] < 0.0)
                          and finite(v[0]) and finite(v[-1]) and finite(np.min(dv[1:])))
        at_zero = v[0] == model.v_max
        structure = model.structural_verdicts(rho_max)
        if structure is None:
            m = np.where(grid == 0.0, 0.0, grid * dv)
            f = grid * v
            # each bound is finite exactly when every sample it scales is
            slack = 1e-12 * (1.0 + float(np.max(np.abs(m))))
            bound = 1e-10 * (1.0 + float(np.max(np.abs(f))))
            second = f[2:] - 2.0 * f[1:-1] + f[:-2]
            structure = (finite(slack) and bool(np.all(np.diff(m) <= slack)),
                         finite(bound) and bool(np.all(second <= bound)))
    return AssumptionReport(grid, decreasing, bool(at_zero), *structure)


KINDS = {   # the laws a config names by its velocity ``kind``
    "greenshields": Greenshields,
    "pipes_munjal": PipesMunjal,
    "underwood": Underwood,
    "modified_greenberg": ModifiedGreenberg,
    "tabulated": TabulatedVelocity,
}
