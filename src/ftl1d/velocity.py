"""Velocity laws v(rho) and their admissibility checks.

Every model maps a nonnegative density to a speed.  The particle scheme and
the entropy-solution oracles both rely on v being strictly decreasing with a
finite vacuum speed v(0) = v_max; some estimates additionally need the map
rho -> rho * v'(rho) to be non-increasing.  ``check_assumptions`` samples
those three conditions on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _as_density(rho):
    """Validate and convert a density argument (scalar or array)."""
    arr = np.asarray(rho, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise ValueError("density must be finite and nonnegative")
    return arr


class VelocityModel:
    """Base class for velocity laws; subclasses implement _v and _dv.

    Methods: value, derivative, flux, flux_derivative, density_weighted_slope
    and critical_density (overridden where a closed form exists).
    """

    v_max: float

    def _v(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dv(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, rho):
        """Speed v(rho).  Accepts scalars or arrays, rho >= 0 and finite."""
        arr = _as_density(rho)
        out = self._v(arr)
        return float(out) if np.ndim(rho) == 0 else out

    __call__ = value

    def derivative(self, rho):
        """Slope v'(rho), negative for rho > 0 under strict monotonicity."""
        arr = _as_density(rho)
        out = self._dv(arr)
        return float(out) if np.ndim(rho) == 0 else out

    def flux(self, rho):
        """Flux f(rho) = rho * v(rho); exactly zero at vacuum."""
        arr = _as_density(rho)
        out = arr * self._v(arr)
        return float(out) if np.ndim(rho) == 0 else out

    def flux_derivative(self, rho):
        """Characteristic speed f'(rho) = v(rho) + rho * v'(rho).

        The vacuum speed is v_max, also where v'(0) diverges.
        """
        arr = _as_density(rho)
        out = self._v(arr) + self.density_weighted_slope(arr)
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
        """Argmax of the flux on [0, hi], by golden-section search.

        The flux is assumed unimodal on [0, hi] (as it is when concave).
        """
        a, b = 0.0, hi
        for _ in range(200):
            if b - a <= 1e-13 * max(1.0, hi):
                break
            c1 = b - _GOLDEN * (b - a)
            c2 = a + _GOLDEN * (b - a)
            if self.flux(c1) < self.flux(c2):
                a = c1
            else:
                b = c2
        return float(0.5 * (a + b))


@dataclass(frozen=True)
class Greenshields(VelocityModel):
    """Linear law v(rho) = v_max * (1 - rho)."""

    v_max: float = 1.0

    def _v(self, rho):
        return self.v_max * (1.0 - rho)

    def _dv(self, rho):
        return np.full_like(rho, -self.v_max)

    def critical_density(self, hi: float) -> float:
        return float(min(0.5, hi))


@dataclass(frozen=True)
class PipesMunjal(VelocityModel):
    """Power law v(rho) = v_max * (1 - rho**alpha), alpha > 0."""

    v_max: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    def _v(self, rho):
        return self.v_max * (1.0 - rho**self.alpha)

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

    def _v(self, rho):
        return self.v_max * np.exp(-rho)

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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1) for a decreasing law")

    def _v(self, rho):
        return self.v_max * (np.log(rho + self.alpha) / np.log(self.alpha))

    def _dv(self, rho):
        return self.v_max / (np.log(self.alpha) * (rho + self.alpha))


@dataclass(frozen=True)
class CustomVelocity(VelocityModel):
    """Closed-form law given by callables.

    ``v_func`` (and optionally ``v_prime_func``) must accept numpy arrays.
    When no derivative is supplied a centered difference with step
    ``derivative_step`` is used; the step is reported in ``metadata``.
    """

    v_func: object
    v_max: float
    v_prime_func: object = None
    derivative_step: float = 1e-6

    def __post_init__(self):
        if float(self.v_func(0.0)) != self.v_max:
            raise ValueError("v_func(0) must equal v_max")

    def _v(self, rho):
        return np.asarray(self.v_func(rho), dtype=float)

    def _dv(self, rho):
        if self.v_prime_func is not None:
            return np.asarray(self.v_prime_func(rho), dtype=float)
        h = self.derivative_step
        lo = np.maximum(rho - h, 0.0)
        hi = rho + h
        return (self._v(hi) - self._v(lo)) / (hi - lo)

    @property
    def metadata(self):
        if self.v_prime_func is not None:
            return {"derivative": "closed_form"}
        return {"derivative": "centered_difference", "step": self.derivative_step}


@dataclass(frozen=True)
class TabulatedVelocity(VelocityModel):
    """Law interpolated linearly between strictly decreasing table values.

    The table must start at rho = 0 (so v_max = v(0) is defined) and
    evaluation outside the tabulated range is rejected rather than
    extrapolated.  Derivatives use centered differences with step
    ``derivative_step``, clipped into the table.
    """

    rho_table: np.ndarray
    v_table: np.ndarray
    derivative_step: float = 1e-6
    v_max: float = field(init=False)

    def __post_init__(self):
        rho = np.asarray(self.rho_table, dtype=float)
        vel = np.asarray(self.v_table, dtype=float)
        if rho.ndim != 1 or rho.shape != vel.shape or rho.size < 2:
            raise ValueError("tables must be 1-d, equal length, size >= 2")
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

    def _v(self, rho):
        self._check_range(rho)
        return np.interp(rho, self.rho_table, self.v_table)

    def _dv(self, rho):
        self._check_range(rho)
        h = self.derivative_step
        top = self.rho_table[-1]
        lo = np.maximum(rho - h, 0.0)
        hi = np.minimum(rho + h, top)
        return (np.interp(hi, self.rho_table, self.v_table)
                - np.interp(lo, self.rho_table, self.v_table)) / (hi - lo)

    @property
    def metadata(self):
        return {"derivative": "centered_difference", "step": self.derivative_step}


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled admissibility checks for a velocity law on [0, rho_max]."""

    grid: np.ndarray
    v_strictly_decreasing: bool
    v_at_zero_equals_v_max: bool
    weighted_slope_non_increasing: bool

    @property
    def all_satisfied(self) -> bool:
        return (self.v_strictly_decreasing
                and self.v_at_zero_equals_v_max
                and self.weighted_slope_non_increasing)

    def to_dict(self):
        return {
            "v_strictly_decreasing": self.v_strictly_decreasing,
            "v_at_zero_equals_v_max": self.v_at_zero_equals_v_max,
            "weighted_slope_non_increasing": self.weighted_slope_non_increasing,
            "all_satisfied": self.all_satisfied,
            "grid_min": float(self.grid[0]),
            "grid_max": float(self.grid[-1]),
            "grid_size": int(self.grid.size),
        }


def check_assumptions(model: VelocityModel, rho_max: float, samples: int = 100) -> AssumptionReport:
    """Sample the three admissibility conditions on a uniform grid [0, rho_max].

    Checks, in order: v strictly decreasing, v(0) = v_max exactly, and
    rho * v'(rho) non-increasing.  Report-only; never raises on failure.
    """
    if not rho_max > 0.0:
        raise ValueError("rho_max must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(0.0, rho_max, samples)
    v = model.value(grid)
    decreasing = bool(np.all(np.diff(v) < 0.0))
    at_zero = model.value(0.0) == model.v_max
    m = model.density_weighted_slope(grid)
    slack = 1e-12 * (1.0 + float(np.max(np.abs(m))))
    non_increasing = bool(np.all(np.diff(m) <= slack))
    return AssumptionReport(grid, decreasing, bool(at_zero), non_increasing)


_BUILTIN_KINDS = {
    "greenshields": Greenshields,
    "pipes_munjal": PipesMunjal,
    "underwood": Underwood,
    "modified_greenberg": ModifiedGreenberg,
}


def from_config(cfg: dict) -> VelocityModel:
    """Build a model from configuration keys: kind, v_max, alpha or tables.

    A key the kind does not take raises ValueError.
    """
    cfg = dict(cfg)
    kind = str(cfg.pop("kind", "")).lower()
    if kind == "tabulated":
        model = TabulatedVelocity(
            rho_table=np.asarray(cfg.pop("rho_table"), dtype=float),
            v_table=np.asarray(cfg.pop("v_table"), dtype=float),
            derivative_step=float(cfg.pop("derivative_step", 1e-6)),
        )
    elif kind in _BUILTIN_KINDS:
        kwargs = {"v_max": float(cfg.pop("v_max", 1.0))}
        if kind in ("pipes_munjal", "modified_greenberg") and "alpha" in cfg:
            kwargs["alpha"] = float(cfg.pop("alpha"))
        model = _BUILTIN_KINDS[kind](**kwargs)
    else:
        raise ValueError(f"unknown velocity kind {kind!r}")
    if cfg:
        raise ValueError(f"unknown {kind} velocity key(s): {', '.join(sorted(cfg))}")
    return model
