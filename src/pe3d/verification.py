"""Manufactured-solution convergence verification.

The solution is v = exp(-t) P, P = (d/dy psi, -d/dx psi) cos(c z) with
psi = sin^2(a x) sin^2(b y), a = pi/L1, b = pi/L2, c = pi/(2h).  It meets the
boundary conditions, and d/dx P1 + d/dy P2 = 0, so u3 = 0 and p = 0.  Its
source is f(t) = exp(-t) (-P - nu lap P) + exp(-2t) (P1 dP/dx + P2 dP/dy), a
sum of products of exact 1D derivatives: the oracle shares nothing with the
discrete operators.  Its two tables are cached for the current (grid, nu),
so a step's source is two scalings and a sum.  The tests derive the source
with sympy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SimulationParams, integrate
from .fields import HorizontalField
from .grid import GridSpec
from .norms import norm_H


@dataclass
class ConvergenceReport:
    spatial_grids: list[int] = field(default_factory=list)
    spatial_errors: list[float] = field(default_factory=list)
    spatial_orders: list[float] = field(default_factory=list)
    temporal_dts: list[float] = field(default_factory=list)
    temporal_errors: list[float] = field(default_factory=list)
    temporal_orders: list[float] = field(default_factory=list)

    @property
    def spatial_order(self) -> float:
        return min(self.spatial_orders) if self.spatial_orders else float("nan")

    @property
    def temporal_order(self) -> float:
        return min(self.temporal_orders) if self.temporal_orders else float("nan")


def _sin_factors(k: float, s: np.ndarray):
    """(f, f', f'') on the nodes s for f = sin^2(k s) and for f = sin(2 k s)."""
    s2, c2 = np.sin(2.0 * k * s), np.cos(2.0 * k * s)
    return ((np.sin(k * s) ** 2, k * s2, 2.0 * k * k * c2),
            (s2, 2.0 * k * c2, -4.0 * k * k * s2))


def _P(grid: GridSpec, kx: int = 0, ky: int = 0) -> np.ndarray:
    """The (2, n1+1, n2+1, nz+1) array of d^kx/dx^kx d^ky/dy^ky P on the
    nodes; component k of P is s_k X_k(x) Y_k(y) cos(c z)."""
    a, b, c = math.pi / grid.L1, math.pi / grid.L2, math.pi / (2.0 * grid.h)
    sq_x, dbl_x = _sin_factors(a, grid.x())
    sq_y, dbl_y = _sin_factors(b, grid.y())
    Z = np.cos(c * grid.z())
    return np.stack([s * X[kx][:, None, None] * Y[ky][None, :, None]
                     * Z[None, None, :]
                     for s, X, Y in ((b, sq_x, dbl_y), (-a, dbl_x, sq_y))])


@functools.lru_cache(maxsize=1)
def _tables(grid: GridSpec, nu: float):
    """The read-only tables -P - nu lap P and P1 dP/dx + P2 dP/dy of the
    source.  One grid is cached: the ladder runs its cases grid by grid."""
    c = math.pi / (2.0 * grid.h)
    P = _P(grid)
    lap = _P(grid, 2, 0) + _P(grid, 0, 2) - c * c * P
    lin = -P - nu * lap
    adv = P[0] * _P(grid, 1, 0) + P[1] * _P(grid, 0, 1)
    for t in (lin, adv):
        t.setflags(write=False)
    return lin, adv


def _solution(grid: GridSpec, t: float) -> HorizontalField:
    """The analytic solution exp(-t) P on the grid nodes."""
    return HorizontalField(math.exp(-t) * _P(grid), grid)


def _source(grid: GridSpec, nu: float, t: float) -> HorizontalField:
    """The manufactured source A (-P - nu lap P) + A^2 (P1 dP/dx + P2 dP/dy),
    A = exp(-t)."""
    lin, adv = _tables(grid, nu)
    A = math.exp(-t)
    return HorizontalField(A * lin + (A * A) * adv, grid)


def _run_case(grid: GridSpec, nu: float, t_end: float, dt: float) -> float:
    """Advance the discretized analytic initial state to t_end with fixed dt
    and the manufactured source; return the H-norm error."""
    params = SimulationParams(nu=nu, dt_max=dt, cfl=1.0, t_end=t_end)
    state = integrate(_solution(grid, 0.0), t_end, params,
                      forcing_at=lambda t: _source(grid, nu, t))
    return norm_H(state.v - _solution(grid, state.t))


def verify_manufactured(nu: float) -> ConvergenceReport:
    """Refinement-ladder verification.  Spatial H-error orders on 12^3,
    24^3 and 36^3 to t = 0.05 with dt = 2e-3 (12/n)^2, so dt ~ d^2 and the
    first-order-in-time error refines at the same rate; temporal orders
    from Richardson triplets on 16^3 to t = 0.2 with dt = 0.02 halved three
    times, which cancels the spatial error floor."""
    rep = ConvergenceReport()

    for n in (12, 24, 36):
        grid = GridSpec(n1=n, n2=n, nz=n)
        rep.spatial_grids.append(n)
        rep.spatial_errors.append(_run_case(grid, nu, 0.05, 2e-3 * (12 / n) ** 2))
    for a, b, na, nb in zip(rep.spatial_errors, rep.spatial_errors[1:],
                            rep.spatial_grids, rep.spatial_grids[1:]):
        rep.spatial_orders.append(float(np.log(a / b) / np.log(nb / na)))

    grid = GridSpec(n1=16, n2=16, nz=16)
    for dt in (0.02, 0.01, 0.005, 0.0025):
        rep.temporal_dts.append(dt)
        rep.temporal_errors.append(_run_case(grid, nu, 0.2, dt))
    # Richardson triplets: order = log2((e0 - e1) / (e1 - e2)) for dt halving
    e = rep.temporal_errors
    for e0, e1, e2 in zip(e, e[1:], e[2:]):
        rep.temporal_orders.append(float(np.log2((e0 - e1) / (e1 - e2)))
                                   if e0 > e1 > e2 else float("nan"))
    return rep
