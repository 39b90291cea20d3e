"""Independent oracles: exact Riemann solutions and a Godunov scheme.

Both oracles require a concave flux f(rho) = rho * v(rho) (checked by
sampling) and are used to validate the particle solver from the outside:
the Riemann solver gives closed-form self-similar solutions for two-state
data, and the first-order monotone finite-volume scheme converges to the
entropy solution for arbitrary compactly supported data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import PiecewiseConstantDensity
from .velocity import VelocityModel


class UnsupportedFluxError(ValueError):
    """The flux failed the sampled concavity test."""


def check_concave_flux(model: VelocityModel, rho_hi: float, samples: int = 257) -> bool:
    """Sampled concavity of the flux on [0, rho_hi]: second differences <= 0."""
    if rho_hi <= 0.0:
        return True
    grid = np.linspace(0.0, rho_hi, max(samples, 3))
    f = model.flux(grid)
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    scale = 1.0 + float(np.max(np.abs(f)))
    return bool(np.all(second <= 1e-10 * scale))


def _require_concave(model: VelocityModel, rho_hi: float):
    if not check_concave_flux(model, rho_hi):
        raise UnsupportedFluxError(
            f"flux is not concave on [0, {rho_hi}]; oracle unavailable")


@dataclass(frozen=True)
class RiemannSolution:
    """Self-similar solution of a two-state problem for concave flux.

    kind is one of "shock" (left < right, travelling at the Rankine-Hugoniot
    speed), "rarefaction" (left > right, fan between the characteristic
    speeds of the two states), or "constant".
    """

    left: float
    right: float
    kind: str
    shock_speed: float | None = None
    fan_left: float | None = None
    fan_right: float | None = None


def riemann_solve(model: VelocityModel, rho_l: float, rho_r: float) -> RiemannSolution:
    """Classify and solve the two-state problem with states >= 0."""
    if rho_l < 0.0 or rho_r < 0.0:
        raise ValueError("states must be nonnegative")
    _require_concave(model, max(rho_l, rho_r))
    if rho_l == rho_r:
        return RiemannSolution(rho_l, rho_r, "constant")
    if rho_l < rho_r:
        speed = (model.flux(rho_r) - model.flux(rho_l)) / (rho_r - rho_l)
        return RiemannSolution(rho_l, rho_r, "shock", shock_speed=float(speed))
    fan_l = model.flux_derivative(rho_l)
    fan_r = model.flux_derivative(rho_r)
    return RiemannSolution(rho_l, rho_r, "rarefaction",
                           fan_left=float(fan_l), fan_right=float(fan_r))


def _invert_characteristic(model: VelocityModel, xi, lo: float, hi: float):
    """Solve f'(rho) = xi for rho in [lo, hi] by bisection (f' decreasing)."""
    xi = np.asarray(xi, dtype=float)
    a = np.full(xi.shape, lo)
    b = np.full(xi.shape, hi)
    for _ in range(80):
        mid = 0.5 * (a + b)
        high = model.flux_derivative(mid) > xi
        a = np.where(high, mid, a)
        b = np.where(high, b, mid)
        if float(np.max(b - a)) <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (a + b)


def riemann_eval(sol: RiemannSolution, model: VelocityModel, t: float, x):
    """Density of the self-similar solution at time t > 0 and positions x."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    xi = np.asarray(x, dtype=float) / t
    if sol.kind == "constant":
        out = np.full(xi.shape, sol.left)
    elif sol.kind == "shock":
        out = np.where(xi < sol.shock_speed, sol.left, sol.right)
    else:
        inner = _invert_characteristic(model, np.clip(xi, sol.fan_left, sol.fan_right),
                                       sol.right, sol.left)
        out = np.where(xi <= sol.fan_left, sol.left,
                       np.where(xi >= sol.fan_right, sol.right, inner))
    return float(out) if np.ndim(x) == 0 else out


def _fan_primitive(model: VelocityModel, rho):
    """Antiderivative of rho with respect to xi inside a fan: rho*f'(rho) - f(rho)."""
    return rho * model.flux_derivative(rho) - model.flux(rho)


def riemann_mass(sol: RiemannSolution, model: VelocityModel, t: float, a, b):
    """Exact integral of the solution density over [a, b] at time t > 0.

    a and b may be scalars or arrays of interval ends (broadcast together);
    scalars give a float.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a > b):
        raise ValueError("need a <= b")
    if sol.kind == "constant":
        total = sol.left * (b - a)
    elif sol.kind == "shock":
        s = sol.shock_speed * t
        total = (sol.left * (np.minimum(b, s) - np.minimum(a, s))
                 + sol.right * (np.maximum(b, s) - np.maximum(a, s)))
    else:
        xl, xr = sol.fan_left * t, sol.fan_right * t
        total = (sol.left * (np.minimum(b, xl) - np.minimum(a, xl))
                 + sol.right * (np.maximum(b, xr) - np.maximum(a, xr)))
        fa, fb = np.maximum(a, xl), np.minimum(b, xr)
        rho_a = riemann_eval(sol, model, t, fa)
        rho_b = riemann_eval(sol, model, t, fb)
        fan = t * (_fan_primitive(model, rho_b) - _fan_primitive(model, rho_a))
        total = total + np.where(fb > fa, fan, 0.0)
    return float(total) if total.ndim == 0 else total


def riemann_l1_error(density: PiecewiseConstantDensity, sol: RiemannSolution,
                     model: VelocityModel, t: float, window) -> float:
    """Exact integral of |density - solution| over a window at time t > 0.

    The window must be a region where the two-state solution is valid for
    the data the density approximates.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("empty window")
    bp = density.breakpoints
    waves = np.array([s * t for s in (sol.shock_speed, sol.fan_left, sol.fan_right)
                      if s is not None])
    mesh = np.unique(np.concatenate(([lo, hi], bp[(bp > lo) & (bp < hi)],
                                     waves[(waves > lo) & (waves < hi)])))
    a, b = mesh[:-1], mesh[1:]
    # the density is zero outside its breakpoints
    padded = np.concatenate(([0.0], density.values, [0.0]))
    c = padded[np.searchsorted(bp, 0.5 * (a + b), side="right")]
    # each piece is cut where the (monotone) solution crosses c: in a fan it
    # is >= c left of x_c and <= c right of it; elsewhere it is constant
    if sol.kind == "rarefaction":
        x_c = np.clip(model.flux_derivative(np.clip(c, sol.right, sol.left)) * t, a, b)
    else:
        x_c = a
    left = riemann_mass(sol, model, t, a, x_c) - c * (x_c - a)
    right = c * (b - x_c) - riemann_mass(sol, model, t, x_c, b)
    return float(np.sum(np.abs(left) + np.abs(right)))


def max_wave_speed(model: VelocityModel, rho_hi: float) -> float:
    """Sampled max |f'| on [0, rho_hi] (257 points; rho_hi floored at 1e-12)."""
    grid = np.linspace(0.0, max(rho_hi, 1e-12), 257)
    return float(np.max(np.abs(model.flux_derivative(grid))))


def godunov_flux(model: VelocityModel, rho_l, rho_r):
    """Interface flux: min of f over [l, r] if l <= r, else max over [r, l]."""
    rl = np.asarray(rho_l, dtype=float)
    rr = np.asarray(rho_r, dtype=float)
    if np.any(rl < 0.0) or np.any(rr < 0.0):
        raise ValueError("states must be nonnegative")
    f_l = model.flux(rl)
    f_r = model.flux(rr)
    undercompressive = rl <= rr
    minimum = np.minimum(f_l, f_r)
    lo = np.minimum(rl, rr)
    hi = np.maximum(rl, rr)
    star = model.critical_density(float(np.max(hi)) if hi.size else 0.0)
    maximum = model.flux(np.clip(star, lo, hi))
    out = np.where(undercompressive, minimum, maximum)
    return float(out) if out.ndim == 0 else out


def godunov(datum: PiecewiseConstantDensity, model: VelocityModel, dx: float, cfl: float,
            t_end: float, pad: float | None = None) -> PiecewiseConstantDensity:
    """March the monotone finite-volume scheme to t_end and return the profile.

    Args:
        datum: initial density (sampled exactly into cell averages).
        model: velocity law with concave flux (checked by sampling).
        dx: uniform cell width.
        cfl: Courant number in (0, 1); the step is cfl * dx / max|f'|.
        t_end: final time.
        pad: domain margin on each side of the support; defaults to the
            larger of (|v_max| + |v(R)| + v_max) * t_end + dx and
            (n_steps + 1) * dx, so neither a wave nor the one-cell-per-step
            reach of the stencil gets to a boundary.

    Returns:
        Cell-average density at t_end on the padded grid.

    Mass conservation is asserted every step to 1e-12 of the total;
    averages stay within [0, sup_norm] up to rounding.
    """
    if not dx > 0.0:
        raise ValueError("dx must be positive")
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must lie in (0, 1)")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    r = datum.sup_norm
    _require_concave(model, r)
    n_steps = 0
    if t_end > 0.0:
        speed = max_wave_speed(model, r)
        if speed <= 0.0:
            raise ValueError("flux has no wave speed; cannot set a time step")
        dt_raw = cfl * dx / speed
        if dt_raw < 1e-14 * t_end:
            raise ValueError("time step underflow")
        n_steps = int(math.ceil(t_end / dt_raw))
        dt = t_end / n_steps
    if pad is None:
        v_r = model.value(r)
        pad = max((abs(model.v_max) + abs(v_r) + model.v_max) * t_end + dx,
                  n_steps * dx + dx)
    left = datum.support_min - pad
    n_cells = int(math.ceil((datum.support_max + pad - left) / dx))
    edges = left + dx * np.arange(n_cells + 1)
    u = np.diff(datum.cdf_values(edges)) / dx
    mass0 = float(np.sum(u) * dx)

    zero = np.zeros(1)
    for _ in range(n_steps):
        # rounding can leave -eps level residues in vacuum cells; evaluate
        # the interface fluxes on the clipped profile
        u_pos = np.maximum(u, 0.0)
        flux = godunov_flux(model, np.concatenate((zero, u_pos)),
                            np.concatenate((u_pos, zero)))
        u = u - (dt / dx) * np.diff(flux)
        mass = float(np.sum(u) * dx)
        if abs(mass - mass0) > 1e-12 * mass0:
            raise RuntimeError(f"mass drift {mass - mass0:.3e} exceeds tolerance")
    vals = np.maximum(u, 0.0)
    return PiecewiseConstantDensity(breakpoints=edges, values=vals)
