"""Nonlinear term, IMEX time stepper, the integration loop, and the
solution operator.

``advance`` holds the only time loop: it steps a ``SimState`` to an end
time and continues its step count.  ``integrate`` is ``project_H`` followed
by ``advance``; the solution operator ``solve_S``, the recorded
trajectories of ``estimates`` and the manufactured-solution ladder advance
through it.  A kick chain (``kicks``) is one trajectory: it advances its
state by each inter-kick time and adds each kick to the result, so it is
projected and its diffusion solve certified once, at its start.

The scheme is first-order IMEX Euler: explicit skew-symmetrized advection
and forcing, implicit BC-aware diffusion, then projection.  ``nonlinear_B``
takes its six derivative products of both components at once, as 4D
arrays, through the cached per-axis SBP matrices (``grid.along``), and
sums them in the step's own derivative array, where the step then forms
w = v - dt B.  The diffusion solve is exact by fast diagonalization (the
operator is a Kronecker sum of three 1D second differences on the free
nodes): its zero-embedded eigenvector transforms are per-axis matmuls
through the same helper, reading w and writing the solve whole, and the
divide by the symbol is a product with its reciprocal, cached per grid and
dt nu.  ``grid.laplacian_eigenbasis`` certifies its 1D identities once per
grid, and the first step of each trajectory (step_count 0) checks its
solve by the residual test of a weighted CG with no iteration budget: one
stencil application accepts it, or raises SolverError; it never repairs it.
``_derivatives_w3`` is the one definition of the diagnostic vertical
velocity w3: a step takes its state's 4D x- and y-derivatives once,
``nonlinear_B`` reuses them, and the cumulative trapezoid of their
divergence gives the w3 that ``cfl_dt`` and ``nonlinear_B`` share.  The projection returns BC-clean fields, so no
boundary assignment follows it and no kernel checks boundary values:
``integrate`` projects its input with ``project_H``, and a step projects
its own (BC-clean) solve in place.

A step only advances the state; each ``SimState`` carries the dt of the
step that produced it.  The skew-symmetrized advection makes the discrete
pairing <B(v), v> vanish up to the constraint residual, so the
per-step energy budget

    H2(n+1) + 2 dt nu E2(n+1) <= H2(n) + slack

holds with slack dominated by the (negative) implicit-Euler dissipation
margin; ``estimates.record_trajectory`` records it from the loop's
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
from .projection import _project_in_place, project_H
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
    a forced run passes ``forcing_at`` to ``integrate`` or ``advance``."""

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
    w3 = cumulative_z_integral(dv[0][0] + dv[1][1], g)
    return dv, np.negative(w3, out=w3)


def nonlinear_B(v: HorizontalField, w3: np.ndarray,
                dv: tuple[np.ndarray, np.ndarray]) -> HorizontalField:
    """Skew-symmetrized advection of v by itself,
    (1/2)[(u.grad)v + div(u v)] with u = (v, w3).

    Both forms use the same SBP difference stencils, so the energy pairing
    <B(v), v> reduces to boundary terms that vanish for BC-clean,
    constraint-satisfying states.  No projection is applied here.  ``w3``
    and ``dv`` are the vertical velocity and the x- and y-derivatives of v
    from ``_derivatives_w3``.  ``dv`` is consumed: the six terms are summed
    left to right in dv[0], the advective ones first, and dv[1] is the
    scratch array of each term before it is added.
    """
    g = v.grid
    a1, a2 = v.u1, v.u2
    mx = diff_matrix("sbp", g.n1, g.d1)
    my = diff_matrix("sbp", g.n2, g.d2)
    mz = diff_matrix("sbp", g.nz, g.dz)
    vd = v.data
    adv, buf = dv
    adv *= a1
    adv += np.multiply(a2, buf, out=buf)
    adv += np.multiply(w3, along(mz, vd, 3), out=buf)
    adv += along(mx, np.multiply(a1, vd, out=buf), 1)
    adv += along(my, np.multiply(a2, vd, out=buf), 2)
    adv += along(mz, np.multiply(w3, vd, out=buf), 3)
    adv *= 0.5
    return HorizontalField(adv, g)


@functools.lru_cache(maxsize=4)
def _inverse_symbol(grid: GridSpec, dt_nu: float) -> np.ndarray:
    """1 / (1 - dt nu (lam_x + lam_y + lam_z)) on the free nodes, read-only:
    the pointwise factor of the separable solve.  A fixed-dt trajectory
    takes one or two values of dt nu (its full steps and a last one landing
    on its end time); four entries, each half a state, keep a few.  The
    ladder of ``verify`` takes about 15 in turn, so it rebuilds each."""
    sym = 1.0 / (1.0 - dt_nu * _grid.laplacian_eigenbasis(grid)[3])
    sym.setflags(write=False)
    return sym


def _separable_solve(b: np.ndarray, grid: GridSpec, dt_nu: float) -> np.ndarray:
    """Exact solve of (I - dt nu lap_bc) x = b on the free nodes by fast
    diagonalization: three forward 1D transforms, a pointwise product with
    ``_inverse_symbol``, three back transforms.  The transforms are
    zero-embedded, so b's Dirichlet nodes are never read and x is +0.0 on
    them."""
    (fx, bx), (fy, by), (fz, bz), _ = _grid.laplacian_eigenbasis(grid)
    y = along(fz, along(fy, along(fx, b, 1), 2), 3)
    y *= _inverse_symbol(grid, dt_nu)
    # rebinding y frees each intermediate as soon as it is consumed
    y = along(bx, y, 1)
    y = along(by, y, 2)
    return along(bz, y, 3)


def _implicit_diffusion(w: HorizontalField, dt: float, nu: float,
                        certify: bool) -> HorizontalField | None:
    """Solve (I - dt nu lap_bc) v = w on the free nodes by the separable
    solve, exact once ``laplacian_eigenbasis`` has certified its basis.
    None if the solve is not finite (the state diverged; a non-finite
    entry on a free node of w makes it so).  With ``certify`` a finite
    solve starts a weighted CG with no iteration budget, whose initial
    residual test against the stencil operator accepts it as it is or
    raises SolverError with a residual above DIFFUSION_RTOL; w's Dirichlet
    faces are zeroed in place to make CG's right-hand side."""
    g = w.grid
    x = _separable_solve(w.data, g, dt * nu)
    if not np.isfinite(x).all():
        return None
    if certify:
        def apply_op(data):
            lap = laplacian_bc(data, g)
            lap *= -(dt * nu)
            lap += data
            return zero_dirichlet(lap)

        x = weighted_cg(apply_op, zero_dirichlet(w.data), _grid.weights3(g)[None],
                        rel_tol=DIFFUSION_RTOL, max_iter=0, x0=x, label="implicit-diffusion")
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
    on a target time.  Only a trajectory's first step (step_count 0) checks
    its diffusion solve (SolverError if it fails); a non-finite solve
    raises DivergenceError before that check and before the projection."""
    v = state.v
    dv, w3 = _derivatives_w3(v)
    dt = cfl_dt(v, params, w3)
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    w = nonlinear_B(v, w3=w3, dv=dv)
    del w3, dv   # not needed past the advection; frees them before the solve
    # w = v - dt B, in B's own array
    w.data *= -dt
    w.data += v.data
    if forcing is not None:
        w.data += dt * forcing.data
    del forcing   # frees a caller's temporary source before the solve
    vnew = _implicit_diffusion(w, dt, params.nu, state.step_count == 0)
    if vnew is None:
        raise DivergenceError(
            f"state diverged at t={state.t:.6g} (step {state.step_count})",
            diagnostics={"t": state.t, "step": state.step_count, "dt": dt,
                         "H_before": norm_H(v)})
    return SimState(t=state.t + dt, v=_project_in_place(vnew),
                    step_count=state.step_count + 1, dt=dt)


def reached(t: float, t_end: float) -> bool:
    """The stop rule of ``advance``: t lies within rounding of t_end."""
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


def advance(state: SimState, t_end: float, params: SimulationParams,
            forcing_at=None, on_step=None) -> SimState:
    """Step ``state`` from its time to t_end, continuing its step count;
    the final partial step lands exactly on t_end.  The state is taken as
    it is: it must already lie in H.  Deterministic for fixed inputs.

    ``forcing_at`` is an optional callable t -> HorizontalField giving the
    source at the start of each step.  ``on_step``, if given, is called as
    ``on_step(before, after)`` after every step."""
    _retain_heap()
    while not reached(state.t, t_end):
        # the source is a temporary that step frees once it is added
        new = step(state, params, dt_cap=t_end - state.t,
                   forcing=forcing_at(state.t) if forcing_at is not None else None)
        if on_step is not None:
            on_step(state, new)
        state = new
    return state


def integrate(v0: HorizontalField, t_end: float, params: SimulationParams,
              forcing_at=None, on_step=None) -> SimState:
    """Advance project_H(v0) from t = 0 to t_end (``advance``)."""
    if t_end < 0:
        raise InputError("integrate: negative duration")
    # handed over in a list, so that advance holds the start state alone:
    # neither it nor a caller's temporary v0 outlives the first step
    start = [SimState(t=0.0, v=project_H(v0))]
    del v0
    return advance(start.pop(), t_end, params, forcing_at, on_step)


def solve_S(v0: HorizontalField, t: float, params: SimulationParams,
            forcing_at=None) -> HorizontalField:
    """The solution operator S(t): v0 advanced by time t."""
    return integrate(v0, t, params, forcing_at=forcing_at).v
