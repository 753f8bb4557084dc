"""Manufactured-solution convergence verification.

The analytic solution is a decaying stream-function mode that satisfies
the boundary conditions and the vertically-averaged divergence-free
constraint exactly (u3 = 0, p = 0).  The source term is obtained by
substituting it into the momentum equation symbolically (sympy), which
keeps the oracle independent of the discrete operators.  sympy is imported
inside the functions that use it, so ``import pe3d`` does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import SimulationParams, integrate
from .fields import HorizontalField
from .grid import GridSpec
from .norms import norm_H


@dataclass(frozen=True)
class AnalyticSolutionSpec:
    """Symbolic solution (v1, v2) of x, y, z, t; the source term is derived
    from it.  The default is a decaying perpendicular-gradient mode."""

    v1: sym.Expr
    v2: sym.Expr

    @classmethod
    def default(cls, L1: float = 1.0, L2: float = 1.0, h: float = 1.0,
                amplitude: float = 1.0, decay: float = 1.0) -> "AnalyticSolutionSpec":
        import sympy as sym
        x, y, z, t = sym.symbols("x y z t")
        psi = sym.sin(sym.pi * x / L1) ** 2 * sym.sin(sym.pi * y / L2) ** 2
        phi = sym.cos(sym.pi * z / (2 * h))
        amp = amplitude * sym.exp(-decay * t)
        return cls(v1=amp * sym.diff(psi, y) * phi,
                   v2=-amp * sym.diff(psi, x) * phi)

    @classmethod
    def zero(cls) -> "AnalyticSolutionSpec":
        import sympy as sym
        zero = sym.Integer(0)
        return cls(v1=zero, v2=zero)


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


def _lambdify_pair(spec: AnalyticSolutionSpec, nu: float):
    import sympy as sym
    x, y, z, t = sym.symbols("x y z t")
    v = sym.Matrix([spec.v1, spec.v2])
    lap = lambda e: sym.diff(e, x, 2) + sym.diff(e, y, 2) + sym.diff(e, z, 2)
    # u3 = 0 for perpendicular-gradient solutions; the general source uses
    # the full horizontal advection (v . grad2) v
    u3 = -sym.integrate(sym.diff(spec.v1, x) + sym.diff(spec.v2, y), z)
    src = []
    for k in range(2):
        e = (sym.diff(v[k], t) - nu * lap(v[k])
             + spec.v1 * sym.diff(v[k], x) + spec.v2 * sym.diff(v[k], y)
             + u3 * sym.diff(v[k], z))
        src.append(e)
    args = (x, y, z, t)
    fv = [sym.lambdify(args, spec.v1, "numpy"), sym.lambdify(args, spec.v2, "numpy")]
    # common-subexpression elimination keeps the unsimplified source terms
    # as cheap to evaluate as simplified ones, without sympy's simplify
    fs = [sym.lambdify(args, e, "numpy", cse=True) for e in src]
    return fv, fs


def _eval_pair(funcs, grid: GridSpec, t: float) -> HorizontalField:
    # 1D coordinate axes broadcast against each other: the same values as
    # on grid.meshgrid(), without evaluating each factor on the full grid
    X, Y, Z = grid.x()[:, None, None], grid.y()[None, :, None], grid.z()[None, None, :]
    a = np.broadcast_to(np.asarray(funcs[0](X, Y, Z, t), dtype=float), grid.shape)
    b = np.broadcast_to(np.asarray(funcs[1](X, Y, Z, t), dtype=float), grid.shape)
    return HorizontalField.from_components(a, b, grid)


def _run_case(grid: GridSpec, nu: float, t_end: float, dt: float,
              fv, fs) -> float:
    """Advance the discretized analytic initial state to t_end with fixed dt
    and the symbolic source; return the H-norm error."""
    params = SimulationParams(nu=nu, dt_max=dt, cfl=1.0, t_end=t_end)
    state = integrate(_eval_pair(fv, grid, 0.0), t_end, params,
                      forcing_at=lambda t: _eval_pair(fs, grid, t))
    return norm_H(state.v - _eval_pair(fv, grid, state.t))


def verify_manufactured(params: SimulationParams,
                        spec: AnalyticSolutionSpec | None = None,
                        spatial_grids: tuple[int, ...] = (12, 24, 36),
                        t_end: float = 0.05,
                        dt_coarse: float = 2e-3,
                        temporal_grid: int = 16,
                        temporal_dts: tuple[float, ...] = (0.02, 0.01, 0.005, 0.0025),
                        temporal_t_end: float = 0.2) -> ConvergenceReport:
    """Refinement-ladder verification: spatial H-error orders with
    dt ~ d^2 (so the first-order-in-time error refines at the same rate),
    and temporal orders from a Richardson triplet on a fixed grid (which
    cancels the spatial error floor)."""
    spec = spec or AnalyticSolutionSpec.default()
    fv, fs = _lambdify_pair(spec, params.nu)
    rep = ConvergenceReport()

    for n in spatial_grids:
        grid = GridSpec(n1=n, n2=n, nz=n)
        dt = dt_coarse * (spatial_grids[0] / n) ** 2
        err = _run_case(grid, params.nu, t_end, dt, fv, fs)
        rep.spatial_grids.append(n)
        rep.spatial_errors.append(err)
    for a, b, na, nb in zip(rep.spatial_errors, rep.spatial_errors[1:],
                            rep.spatial_grids, rep.spatial_grids[1:]):
        rep.spatial_orders.append(float(np.log(a / b) / np.log(nb / na)))

    grid = GridSpec(n1=temporal_grid, n2=temporal_grid, nz=temporal_grid)
    for dt in temporal_dts:
        err = _run_case(grid, params.nu, temporal_t_end, dt, fv, fs)
        rep.temporal_dts.append(dt)
        rep.temporal_errors.append(err)
    # Richardson triplets: order = log2((e0 - e1) / (e1 - e2)) for dt halving
    e = rep.temporal_errors
    for i in range(len(e) - 2):
        num, den = e[i] - e[i + 1], e[i + 1] - e[i + 2]
        if num > 0 and den > 0:
            rep.temporal_orders.append(float(np.log2(num / den)))
        else:
            rep.temporal_orders.append(float("nan"))
    return rep
