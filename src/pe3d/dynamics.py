"""Nonlinear term, IMEX time stepper, the integration loop, and the
solution operator.

``integrate`` holds the only time loop: the solution operator ``solve_S``,
the recorded trajectories of ``estimates`` and the manufactured-solution
ladder all advance through it.

The scheme is first-order IMEX Euler: explicit skew-symmetrized advection
and forcing, implicit BC-aware diffusion, then projection.  The diffusion
solve is exact by fast diagonalization (the operator is a Kronecker sum of
three 1D second differences on the free nodes); its result is checked by
the stencil residual test of the weighted CG, which would iterate further
only if that residual exceeded DIFFUSION_RTOL.  A step evaluates the
diagnostic vertical velocity of its state once and passes it to both
``cfl_dt`` and ``nonlinear_B``; ``project_H`` returns BC-clean fields, so
no boundary assignment follows it.

The skew-symmetrized advection makes the discrete trilinear form
<B(v,v), v> vanish up to the constraint residual, so the per-step energy
budget

    H2(n+1) + 2 dt nu E2(n+1) <= H2(n) + slack

holds with slack dominated by the (negative) implicit-Euler dissipation
margin; the recorded slack is exported per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .fields import HorizontalField, check_bc, laplacian3, u3_diagnostic
from .grid import GridSpec, diff_sbp
from .linalg import weighted_cg
from .norms import norm_H, norm_report
from .projection import project_H
from . import grid as _grid

#: floor in the CFL denominator so dt does not blow up near zero states
EPS_VEL = 1e-12

#: relative tolerance of the implicit diffusion solve
DIFFUSION_RTOL = 1e-10


@dataclass(frozen=True)
class SimulationParams:
    """The [sim] block of a run configuration.  Forcing is not a parameter:
    a forced run passes ``forcing_at`` to ``integrate``."""

    nu: float = 1.0
    dt_max: float = 0.01
    cfl: float = 0.4
    t_end: float = 1.0

    def __post_init__(self):
        if self.nu <= 0:
            raise InputError("sim.nu must be positive")
        if not (0.0 < self.cfl <= 1.0):
            raise InputError("sim.cfl must lie in (0, 1]")
        if self.dt_max <= 0:
            raise InputError("sim.dt_max must be positive")
        if self.t_end < 0:
            raise InputError("sim.t_end must be nonnegative")


@dataclass
class SimState:
    t: float
    v: HorizontalField
    step_count: int = 0


def nonlinear_B(v_adv: HorizontalField, v: HorizontalField,
                check: bool = True, w3: np.ndarray | None = None) -> HorizontalField:
    """Skew-symmetrized advection
    (1/2)[(u.grad)v + div(u v)] with u = (v_adv, diagnostic u3).

    Both forms use the same SBP difference stencils, so the energy pairing
    <B(v,v), v> reduces to boundary terms that vanish for BC-clean,
    constraint-satisfying states.  No projection is applied here.  ``w3``
    is ``u3_diagnostic(v_adv)``, computed here if not given.
    """
    if v_adv.data.shape != v.data.shape:
        raise InputError("nonlinear_B: field shapes differ")
    g = v.grid
    if check:
        check_bc(v_adv)
        check_bc(v)
    if w3 is None:
        w3 = u3_diagnostic(v_adv, g)
    a1, a2 = v_adv.u1, v_adv.u2
    out = np.empty_like(v.data)
    for c in range(2):
        vc = v.data[c]
        adv = (a1 * diff_sbp(vc, g.d1, 0)
               + a2 * diff_sbp(vc, g.d2, 1)
               + w3 * diff_sbp(vc, g.dz, 2))
        dvg = (diff_sbp(a1 * vc, g.d1, 0)
               + diff_sbp(a2 * vc, g.d2, 1)
               + diff_sbp(w3 * vc, g.dz, 2))
        out[c] = 0.5 * (adv + dvg)
    return HorizontalField(out, g)


def _zero_dirichlet(data: np.ndarray) -> np.ndarray:
    data[:, 0, :, :] = 0.0
    data[:, -1, :, :] = 0.0
    data[:, :, 0, :] = 0.0
    data[:, :, -1, :] = 0.0
    data[:, :, :, 0] = 0.0
    return data


def _transform(a: np.ndarray, mx: np.ndarray, my: np.ndarray,
               mz: np.ndarray) -> np.ndarray:
    """Apply one 1D matrix along each of the axes 1, 2, 3 of ``a``."""
    shape = a.shape
    a = (mx @ a.reshape(shape[0], shape[1], -1)).reshape(shape)
    return (my @ a) @ mz.T


def _separable_solve(b: np.ndarray, grid: GridSpec, dt_nu: float) -> np.ndarray:
    """Exact solve of (I - dt nu lap_bc) x = b on the free nodes by fast
    diagonalization: three forward 1D transforms, a pointwise divide by
    1 - dt nu (lam_x + lam_y + lam_z), three back transforms.  Dirichlet
    nodes of the result are zero."""
    (fx, bx), (fy, by), (fz, bz), lam = _grid.laplacian_eigenbasis(grid)
    free = (slice(None), slice(1, grid.n1), slice(1, grid.n2), slice(1, None))
    x = np.zeros_like(b)
    x[free] = _transform(_transform(b[free], fx, fy, fz) / (1.0 - dt_nu * lam),
                         bx, by, bz)
    return x


def _implicit_diffusion(w: HorizontalField, dt: float, nu: float) -> HorizontalField:
    """Solve (I - dt nu lap_bc) v = w on the free nodes (Dirichlet nodes
    pinned at zero).  The separable solve is exact; it starts the weighted
    CG, whose initial residual test applies the stencil operator once and
    accepts it, so every solve is checked against the stencil.  CG only
    iterates if that residual exceeds DIFFUSION_RTOL."""
    g = w.grid
    vol = _grid.weights3(g)[None]

    def apply_op(data):
        lap = laplacian3(HorizontalField(data, g), g, check=False).data
        return _zero_dirichlet(data - dt * nu * lap)

    b = _zero_dirichlet(w.data.copy())
    x = weighted_cg(apply_op, b, vol, rel_tol=DIFFUSION_RTOL,
                    max_iter=200 * max(g.n1, g.n2, g.nz),
                    x0=_separable_solve(b, g, dt * nu),
                    label="implicit-diffusion")
    return HorizontalField(x, g)


def cfl_dt(v: HorizontalField, params: SimulationParams,
           w3: np.ndarray | None = None) -> float:
    """CFL time step from the largest velocity, vertical included; ``w3``
    is ``u3_diagnostic(v)``, computed here if not given."""
    g = v.grid
    if w3 is None:
        w3 = u3_diagnostic(v, g)
    vmax = max(float(np.abs(v.data).max()), float(np.abs(w3).max()), EPS_VEL)
    return min(params.dt_max, params.cfl * min(g.d1, g.d2, g.dz) / vmax)


def step(state: SimState, params: SimulationParams,
         forcing: HorizontalField | None = None,
         dt_cap: float | None = None,
         record: dict | None = None) -> SimState:
    """One IMEX Euler step: explicit advection + forcing, implicit
    diffusion, projection.  ``forcing`` is the source at the current time
    (None for none); ``dt_cap`` limits dt so a trajectory can land exactly
    on a target time.  ``record``, if given, receives dt, the norm report
    of the new state, the old H2 and the energy-budget slack computed from
    that report."""
    v = state.v
    g = v.grid
    w3 = u3_diagnostic(v, g)
    dt = cfl_dt(v, params, w3)
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    B = nonlinear_B(v, v, check=False, w3=w3)
    del w3   # not needed past the advection; frees it before the solve
    w = HorizontalField(v.data - dt * B.data, g)
    if forcing is not None:
        w.data += dt * forcing.data
    vstar = _implicit_diffusion(w, dt, params.nu)
    vnew = project_H(vstar)

    if not vnew.is_finite():
        raise DivergenceError(
            f"state diverged at t={state.t:.6g} (step {state.step_count})",
            diagnostics={"t": state.t, "step": state.step_count, "dt": dt,
                         "H_before": norm_H(v)})
    if record is not None:
        H2_old = norm_H(v) ** 2
        report = norm_report(vnew)
        record["dt"] = dt
        record["report"] = report
        record["slack"] = report.H2 + 2.0 * dt * params.nu * report.E2 - H2_old
        record["H2_old"] = H2_old
    return SimState(t=state.t + dt, v=vnew, step_count=state.step_count + 1)


def reached(t: float, t_end: float) -> bool:
    """The stop rule of ``integrate``: t lies within rounding of t_end."""
    return t >= t_end - 1e-14 * max(t_end, 1.0)


def integrate(v0: HorizontalField, t_end: float, params: SimulationParams,
              forcing_at=None, on_step=None) -> SimState:
    """Advance project_H(v0) from t = 0 to t_end; the final
    partial step lands exactly on t_end.  Deterministic for fixed inputs.

    ``forcing_at`` is an optional callable t -> HorizontalField giving the
    source at the start of each step.  ``on_step``, if given, is called as
    ``on_step(before, after, record)`` after every step, with the step's
    record (dt, the norm report of the new state, H2_old, slack); without
    it no step computes a norm report."""
    if t_end < 0:
        raise InputError("integrate: negative duration")
    state = SimState(t=0.0, v=project_H(v0))
    while not reached(state.t, t_end):
        forcing = forcing_at(state.t) if forcing_at is not None else None
        record = {} if on_step is not None else None
        new = step(state, params, forcing=forcing, dt_cap=t_end - state.t,
                   record=record)
        if on_step is not None:
            on_step(state, new, record)
        state = new
    return state


def solve_S(v0: HorizontalField, t: float, params: SimulationParams,
            forcing_at=None) -> HorizontalField:
    """The solution operator S(t): v0 advanced by time t."""
    return integrate(v0, t, params, forcing_at=forcing_at).v
