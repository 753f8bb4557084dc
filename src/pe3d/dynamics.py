"""Nonlinear term, IMEX time stepper, the integration loop, and the
solution operator.

``integrate`` holds the only time loop: the solution operator ``solve_S``,
the recorded trajectories of ``estimates`` and the manufactured-solution
ladder all advance through it.

The scheme is first-order IMEX Euler: explicit skew-symmetrized advection
and forcing, implicit BC-aware diffusion, then projection.  ``nonlinear_B``
takes its six derivative products of both components at once, as 4D
arrays, through the cached per-axis SBP matrices (``grid.along``).  The
diffusion solve is exact by fast diagonalization (the operator is a
Kronecker sum of three 1D second differences on the free nodes): its
eigenvector transforms are per-axis matmuls through the same helper, and
its result is checked by the residual test of the weighted CG, which
applies the Laplacian once and would iterate further only if that residual
exceeded DIFFUSION_RTOL; it pins the Dirichlet nodes with
``fields.zero_dirichlet``.  ``_derivatives_w3`` is the one definition of
the diagnostic vertical velocity w3: a step takes its state's 4D x- and
y-derivatives once, ``nonlinear_B`` reuses them, and their divergence
gives the w3 that ``cfl_dt`` and ``nonlinear_B`` share.  ``project_H``
returns BC-clean fields, so no boundary assignment follows it and no kernel
checks boundary values: every state ``integrate`` hands a step is an output
of ``project_H``.

A step only advances the state; each ``SimState`` carries the dt of the
step that produced it.  The skew-symmetrized advection makes the discrete
trilinear form <B(v,v), v> vanish up to the constraint residual, so the
per-step energy budget

    H2(n+1) + 2 dt nu E2(n+1) <= H2(n) + slack

holds with slack dominated by the (negative) implicit-Euler dissipation
margin; ``estimates.record_trajectory`` records it from ``integrate``'s
``on_step(before, after)`` callback.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .fields import HorizontalField, zero_dirichlet
from .grid import (GridSpec, along, cumulative_z_integral, diff_matrix,
                   laplacian_bc)
from .linalg import weighted_cg
from .norms import norm_H
from .projection import project_H
from . import grid as _grid

#: floor in the CFL denominator so dt does not blow up near zero states
EPS_VEL = 1e-12

#: relative tolerance of the implicit diffusion solve
DIFFUSION_RTOL = 1e-10

#: free heap kept at the top on glibc (mallopt M_TOP_PAD), see _retain_heap
HEAP_TOP_PAD = 64 << 20


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
    """A state at time t after step_count steps, the last of length dt
    (0 for a state no step produced)."""

    t: float
    v: HorizontalField
    step_count: int = 0
    dt: float = 0.0


def _derivatives_w3(v: HorizontalField
                    ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The SBP x- and y-derivatives of both components of v, as 4D arrays,
    and the diagnostic vertical velocity w3: the cumulative trapezoid of
    minus their divergence from the bottom, zero at z = -h."""
    g = v.grid
    dv = (along(diff_matrix("sbp", g.n1, g.d1), v.data, 1),
          along(diff_matrix("sbp", g.n2, g.d2), v.data, 2))
    return dv, -cumulative_z_integral(dv[0][0] + dv[1][1], g)


def nonlinear_B(v_adv: HorizontalField, v: HorizontalField,
                w3: np.ndarray, dv: tuple[np.ndarray, np.ndarray]) -> HorizontalField:
    """Skew-symmetrized advection
    (1/2)[(u.grad)v + div(u v)] with u = (v_adv, w3).

    Both forms use the same SBP difference stencils, so the energy pairing
    <B(v,v), v> reduces to boundary terms that vanish for BC-clean,
    constraint-satisfying states.  No projection is applied here.  ``w3``
    is the vertical velocity of v_adv and ``dv`` the x- and y-derivatives
    of v, both from ``_derivatives_w3``.
    """
    if v_adv.data.shape != v.data.shape:
        raise InputError("nonlinear_B: field shapes differ")
    g = v.grid
    a1, a2 = v_adv.u1, v_adv.u2
    mx = diff_matrix("sbp", g.n1, g.d1)
    my = diff_matrix("sbp", g.n2, g.d2)
    mz = diff_matrix("sbp", g.nz, g.dz)
    vd = v.data
    adv = a1 * dv[0] + a2 * dv[1] + w3 * along(mz, vd, 3)
    dvg = (along(mx, a1 * vd, 1) + along(my, a2 * vd, 2)
           + along(mz, w3 * vd, 3))
    out = 0.5 * (adv + dvg)
    return HorizontalField(out, g)


def _separable_solve(b: np.ndarray, grid: GridSpec, dt_nu: float) -> np.ndarray:
    """Exact solve of (I - dt nu lap_bc) x = b on the free nodes by fast
    diagonalization: three forward 1D transforms, a pointwise divide by
    1 - dt nu (lam_x + lam_y + lam_z), three back transforms.  Dirichlet
    nodes of the result are zero."""
    (fx, bx), (fy, by), (fz, bz), lam = _grid.laplacian_eigenbasis(grid)
    free = (slice(None), slice(1, grid.n1), slice(1, grid.n2), slice(1, None))
    y = along(fz, along(fy, along(fx, b[free], 1), 2), 3) / (1.0 - dt_nu * lam)
    x = np.zeros_like(b)
    x[free] = along(bz, along(by, along(bx, y, 1), 2), 3)
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
        return zero_dirichlet(data - dt * nu * laplacian_bc(data, g))

    b = zero_dirichlet(w.data.copy())
    x = weighted_cg(apply_op, b, vol, rel_tol=DIFFUSION_RTOL,
                    max_iter=200 * max(g.n1, g.n2, g.nz),
                    x0=_separable_solve(b, g, dt * nu),
                    label="implicit-diffusion")
    return HorizontalField(x, g)


def cfl_dt(v: HorizontalField, params: SimulationParams,
           w3: np.ndarray) -> float:
    """CFL time step from the largest velocity, vertical included; ``w3``
    is the vertical velocity of v (``_derivatives_w3``)."""
    g = v.grid
    vmax = max(float(np.abs(v.data).max()), float(np.abs(w3).max()), EPS_VEL)
    return min(params.dt_max, params.cfl * min(g.d1, g.d2, g.dz) / vmax)


def step(state: SimState, params: SimulationParams,
         forcing: HorizontalField | None = None,
         dt_cap: float | None = None) -> SimState:
    """One IMEX Euler step: explicit advection + forcing, implicit
    diffusion, projection.  ``forcing`` is the source at the current time
    (None for none); ``dt_cap`` limits dt so a trajectory can land exactly
    on a target time."""
    v = state.v
    g = v.grid
    dv, w3 = _derivatives_w3(v)
    dt = cfl_dt(v, params, w3)
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    B = nonlinear_B(v, v, w3=w3, dv=dv)
    del w3, dv   # not needed past the advection; frees them before the solve
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
    return SimState(t=state.t + dt, v=vnew, step_count=state.step_count + 1,
                    dt=dt)


def reached(t: float, t_end: float) -> bool:
    """The stop rule of ``integrate``: t lies within rounding of t_end."""
    return t >= t_end - 1e-14 * max(t_end, 1.0)


@functools.cache
def _retain_heap() -> None:
    """Every step allocates and frees field-sized temporaries.  glibc's
    malloc hands free memory at the top of its heap back to the OS once
    more than its trim threshold lies there, so the next step faults the
    same pages back in: about 1,100 page faults per step at 24^3 and 4,400
    at 36^3, a quarter to two fifths of the step on a 2-core x86-64 host.
    Keeping HEAP_TOP_PAD bytes at the top ends that.  A no-op off glibc."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-2, HEAP_TOP_PAD)  # -2 is M_TOP_PAD


def integrate(v0: HorizontalField, t_end: float, params: SimulationParams,
              forcing_at=None, on_step=None) -> SimState:
    """Advance project_H(v0) from t = 0 to t_end; the final
    partial step lands exactly on t_end.  Deterministic for fixed inputs.

    ``forcing_at`` is an optional callable t -> HorizontalField giving the
    source at the start of each step.  ``on_step``, if given, is called as
    ``on_step(before, after)`` after every step."""
    if t_end < 0:
        raise InputError("integrate: negative duration")
    _retain_heap()
    state = SimState(t=0.0, v=project_H(v0))
    while not reached(state.t, t_end):
        forcing = forcing_at(state.t) if forcing_at is not None else None
        new = step(state, params, forcing=forcing, dt_cap=t_end - state.t)
        if on_step is not None:
            on_step(state, new)
        state = new
    return state


def solve_S(v0: HorizontalField, t: float, params: SimulationParams,
            forcing_at=None) -> HorizontalField:
    """The solution operator S(t): v0 advanced by time t."""
    return integrate(v0, t, params, forcing_at=forcing_at).v
