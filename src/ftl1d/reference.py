"""Independent oracles: the exact entropy solution and a Godunov scheme.

They validate the particle solver from the outside: the Lax-Hopf formula
gives the cumulative mass of the entropy solution exactly for any
piecewise-constant datum, the Riemann solver its density in closed form for
two-state data, and the first-order monotone finite-volume scheme converges
to it.  All require a concave flux f(rho) = rho * v(rho), the
``flux_concave`` verdict of ``velocity.check_assumptions``; f' decreases on
it, so the largest wave speed on [0, R] is max(|f'(0)|, |f'(R)|).  Fans, the
Lax-Hopf maximiser and the critical density read the law's closed-form
inverse of f', ``inverse_flux_derivative``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import PiecewiseConstantDensity
from . import velocity
from .velocity import VelocityModel


class UnsupportedFluxError(ValueError):
    """The flux failed the ``flux_concave`` verdict of ``check_assumptions``."""


def _require_concave(model: VelocityModel, rho_hi: float):
    # [0, 0] holds one state, and check_assumptions refuses an empty range
    if rho_hi > 0.0 and not velocity.check_assumptions(model, rho_hi).flux_concave:
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
    return RiemannSolution(rho_l, rho_r, "rarefaction", fan_left=model.flux_derivative(rho_l),
                           fan_right=model.flux_derivative(rho_r))


def riemann_eval(sol: RiemannSolution, model: VelocityModel, t: float, x):
    """Density of the self-similar solution at a finite time t >= 0 and
    positions x; at t = 0 it is the datum, the left state left of 0 and the
    right one from 0 on."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    x = np.asarray(x, dtype=float)
    xi = x / t if t > 0.0 else np.copysign(np.inf, x)
    if sol.kind == "constant":
        out = np.full(xi.shape, sol.left)
    elif sol.kind == "shock":
        out = np.where(xi < sol.shock_speed, sol.left, sol.right)
    else:
        # the fan's edges are f' at its states, so beyond them the inverse gives the state
        out = model.inverse_flux_derivative(xi, sol.right, sol.left)
    return float(out) if x.ndim == 0 else out


def _cumulative_mass(sol: RiemannSolution, model: VelocityModel, t: float, x: np.ndarray):
    """M(x) = x * rho - t * f(rho), with rho the solution at x, up to a constant
    the mass left of x: M_x = rho and M_t = -f(rho), and Rankine-Hugoniot keeps
    M continuous across a shock."""
    rho = riemann_eval(sol, model, t, x)
    return x * rho - t * model.flux(rho)


def riemann_mass(sol: RiemannSolution, model: VelocityModel, t: float, a, b):
    """Exact integral M(b) - M(a) of the solution density over [a, b] at a
    finite time t >= 0, for shocks, fans and constant states alike.  a and b
    may be scalars or arrays of interval ends (broadcast together); scalars
    give a float."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.any(a > b):
        raise ValueError("need a <= b")
    total = _cumulative_mass(sol, model, t, b) - _cumulative_mass(sol, model, t, a)
    return float(total) if total.ndim == 0 else total


def riemann_l1_error(density: PiecewiseConstantDensity, sol: RiemannSolution,
                     model: VelocityModel, t: float, window) -> float:
    """Exact integral of |density - solution| over a window at a finite time
    t >= 0.

    The window must be a region where the two-state solution is valid for
    the data the density approximates.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("empty window")
    bp = density.breakpoints
    waves = np.array([s * t for s in (sol.shock_speed, sol.fan_left, sol.fan_right)
                      if s is not None])
    mesh = np.unique(np.concatenate(([lo, hi], bp[(bp > lo) & (bp < hi)],
                                     waves[(waves > lo) & (waves < hi)])))
    a, b = mesh[:-1], mesh[1:]
    c = density.values_at(0.5 * (a + b))
    # each piece is cut where the (monotone) solution crosses c: in a fan it
    # is >= c left of x_c and <= c right of it; elsewhere it is constant
    if sol.kind == "rarefaction":
        x_c = np.clip(model.flux_derivative(np.clip(c, sol.right, sol.left)) * t, a, b)
    else:
        x_c = a
    mass, mass_c = (_cumulative_mass(sol, model, t, x) for x in (mesh, x_c))
    left = mass_c - mass[:-1] - c * (x_c - a)
    right = c * (b - x_c) - (mass[1:] - mass_c)
    return float(np.sum(np.abs(left) + np.abs(right)))


def max_wave_speed(model: VelocityModel, rho_hi: float) -> float:
    """max |f'| on [0, rho_hi] of a concave flux: max(|f'(0)|, |f'(rho_hi)|)."""
    return float(np.max(np.abs(model.flux_derivative(np.array([0.0, rho_hi])))))


def entropy_mass(datum: PiecewiseConstantDensity, model: VelocityModel, t: float, x):
    """Cumulative mass M(x, t), the mass left of x, of the entropy solution
    from ``datum`` at a finite time t >= 0, exactly; x may be a scalar or an array.

    M solves M_t + f(M_x) = 0 from the datum's CDF M0, so for a concave flux
    the Lax-Hopf formula gives M = max over y of M0(y) - t * L((x - y) / t),
    with L(q) = max over r in [0, sup_norm] of f(r) - r * q, attained at the
    root r of f'(r) = q (Lax 1957; Newell's cumulative count in traffic flow).
    On each piece of M0, the left vacuum half-line, a cell or the right one,
    the maximiser is y = x - t * f'(rho_k) clamped into the piece.  The points
    go in blocks of about 2**18 (point, piece) pairs, so memory stays bounded
    for a datum of many cells.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    r = datum.sup_norm
    _require_concave(model, r)
    x = np.asarray(x, dtype=float)
    bp = datum.breakpoints
    speed = model.flux_derivative(np.concatenate(([0.0], datum.values, [0.0])))
    out = datum.cdf_values(x).reshape(-1)     # M at t = 0, where no block runs
    rows = max(1, 2**18 // speed.size)
    for i in range(0, out.size if t > 0.0 else 0, rows):
        z = x.reshape(-1)[i:i + rows, None]
        y = np.clip(z - t * speed, np.append(-np.inf, bp), np.append(bp, np.inf))
        with np.errstate(over="ignore"):    # a slope beyond every f' has an end as its root
            rho = model.inverse_flux_derivative((z - y) / t, 0.0, r)
        out[i:i + rows] = np.max(datum.cdf_values(y) + rho * (z - y) - t * model.flux(rho),
                                 axis=1)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def godunov(datum: PiecewiseConstantDensity, model: VelocityModel, dx: float, cfl: float,
            t_end: float) -> PiecewiseConstantDensity:
    """March the monotone finite-volume scheme to t_end and return the profile.

    Args:
        datum: initial density (sampled exactly into cell averages).
        model: velocity law with concave flux (``check_assumptions``' verdict).
        dx: uniform cell width.
        cfl: Courant number in (0, 1); the step is cfl * dx / max|f'|.  With
            lam = dt / dx, a cell's update H = u_j - lam * (F(u_j, u_{j+1}) -
            F(u_{j-1}, u_j)) rises in u_{j-1} and u_{j+1}, and dH/du_j = 1 -
            lam * (d1F(u_j, u_{j+1}) - d2F(u_{j-1}, u_j)), where d1F = f'(u_j)
            >= 0 acts only where u_j < star and d2F = f'(u_j) <= 0 only where
            u_j > star.  So dH/du_j >= 1 - cfl: the scheme is monotone for cfl
            <= 1 and converges to the entropy solution (Crandall & Majda 1980).
        t_end: final time, finite and nonnegative.

    Returns:
        Cell-average density at t_end on a grid that reaches (n_steps + 1) *
        dx past the support on each side: the stencil moves mass at most one
        cell per step, and at cfl <= 1 no wave outruns it.

    Each step updates every cell from demand-supply interface fluxes, with a
    vacuum ghost cell on each side.  Mass conservation is asserted every step
    to 1e-12 of the total, which also fails on a NaN or infinite state;
    averages stay within [0, sup_norm] up to rounding.
    """
    if not 0.0 < dx < math.inf:
        raise ValueError("dx must be positive and finite")
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must lie in (0, 1)")
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
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
    left = datum.support_min - (n_steps + 1) * dx
    n_cells = int(math.ceil((datum.support_max - datum.support_min) / dx)) + 2 * (n_steps + 1)
    edges = left + dx * np.arange(n_cells + 1)
    u = np.diff(datum.cdf_values(edges)) / dx
    mass0 = float(u.sum() * dx)
    for _ in range(n_steps):
        q = np.concatenate(([0.0], u, [0.0]))
        star = model.inverse_flux_derivative(0.0, 0.0, float(q.max()))
        # a concave flux rises up to star and falls beyond: the Godunov flux is
        # min(demand f(clip(rl, 0, star)), supply f(max(rr, star))), and the
        # clip lifts rounding's -eps residues in vacuum cells to 0
        demand = model.flux(np.clip(q[:-1], 0.0, star))
        supply = model.flux(np.maximum(q[1:], star))
        u = u - (dt / dx) * np.diff(np.minimum(demand, supply))
        # the states are not validated: a NaN or infinite one fails this test
        mass = float(u.sum() * dx)
        if not abs(mass - mass0) <= 1e-12 * mass0:
            raise RuntimeError(f"mass drift {mass - mass0:.3e} exceeds tolerance")
    return PiecewiseConstantDensity(breakpoints=edges, values=np.maximum(u, 0.0))
