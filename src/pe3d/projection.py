"""Projection onto vertically-averaged divergence-free fields, and the
operator A with its smallest eigenvalue.

The projection is realized as the exact orthogonal projection (in the
weighted H inner product, within the subspace of fields vanishing on the
Dirichlet faces) onto the kernel of the discrete constraint

    div2( vertical average of v ) = 0   at interior horizontal nodes.

The correcting field is the weighted adjoint-gradient of a 2D potential,
independent of z across the free levels.  The potential solves the Schur
complement system C W^-1 C^T lam = b, whose matrix on the interior nodes is
the Kronecker sum (Dx Dx^T (x) I + I (x) Dy Dy^T) / (d1 d2) of 1D centered
differences, the interior blocks of ``grid.diff_matrix("sbp", ...)``.  It
is solved by fast diagonalization from per-grid cached eigenpairs.
Exactness of the adjoint construction is what delivers idempotence,
orthogonality, norm contraction, and the constraint residual at solver
precision.  The inverse power iteration for the smallest eigenvalue of A
starts from the lowest mode sum of ``sampling``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InputError, SolverError
from .fields import HorizontalField, apply_bc, laplacian3
from .grid import (GridSpec, diff_matrix, div2, vertical_integral, weights2,
                   weights3)
from .linalg import weighted_cg
from .norms import inner_H, norm_H
from .sampling import mode_sum

#: default absolute tolerance on the constraint residual of projected fields
PROJ_TOL = 1e-8

#: Schur eigenvalues at most this fraction of the largest are the zero mode
_ZERO_MODE_RTOL = 1e-10

#: smallest_eigenvalue_A stops once the Rayleigh quotient moves by at most
#: RQ_TOL relative, and gives up after MAX_OUTER inverse-power steps
RQ_TOL = 1e-8
MAX_OUTER = 200


# ---------------------------------------------------------------------------
# Constraint machinery (cached per grid)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _constraint_ops(grid: GridSpec):
    """Interior difference matrices Dx, Dy (the interior block of the SBP
    first difference: the fields they act on vanish on the boundary nodes),
    the eigenvectors Qx, Qy of Dx Dx^T and Dy Dy^T, the inverse Schur
    eigenvalues inv, and the interior quadrature weights.

    Interior trapezoid weights are all d1 d2, so the Schur complement is
    S0 = (Dx Dx^T (x) I + I (x) Dy Dy^T) / (d1 d2) with eigenvalues
    (lx_i + ly_j) / (d1 d2).  Dx is skew with a zero eigenvalue iff n1 is
    even, so with n1 and n2 both even S0 has one zero mode, the checkerboard
    of centered differences on a collocated grid.  Its entry of inv is 0:
    every right-hand side b = C g lies in range(C), which is orthogonal to
    null(C^T) = null(S0), so dropping the mode is the exact solve."""
    Dx = diff_matrix("sbp", grid.n1, grid.d1)[1:-1, 1:-1].copy()
    Dy = diff_matrix("sbp", grid.n2, grid.d2)[1:-1, 1:-1].copy()
    lx, Qx = np.linalg.eigh(Dx @ Dx.T)
    ly, Qy = np.linalg.eigh(Dy @ Dy.T)
    lam = lx[:, None] + ly[None, :]
    zero = lam <= _ZERO_MODE_RTOL * lam.max()
    inv = np.where(zero, 0.0, grid.d1 * grid.d2 / np.where(zero, 1.0, lam))
    w2_int = weights2(grid)[1:-1, 1:-1].copy()
    for a in (Dx, Dy, Qx, Qy, inv, w2_int):
        a.setflags(write=False)
    return Dx, Dy, Qx, Qy, inv, w2_int


def _schur_solve(grid: GridSpec, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of S0 lam = b on the interior nodes: two
    transforms into the eigenbasis of S0, a multiply by the inverse
    eigenvalues (0 on the zero mode), and two back transforms."""
    _, _, Qx, Qy, inv, _ = _constraint_ops(grid)
    return Qx @ ((Qx.T @ b @ Qy) * inv) @ Qy.T


def constraint_residual(v: HorizontalField) -> float:
    """Weighted L2 norm over interior horizontal nodes of
    div2(vertical_integral(v))."""
    grid = v.grid
    w2_int = _constraint_ops(grid)[-1]
    r = div2(vertical_integral(v.u1, grid), vertical_integral(v.u2, grid), grid)
    r = r[1:-1, 1:-1]
    return float(np.sqrt(np.sum(w2_int * r * r)))


def project_H(w: HorizontalField) -> HorizontalField:
    """Project onto the discrete space H: subtract the H-orthogonal
    correction (z-independent across the free levels, zero on the Dirichlet
    faces) that annihilates the interior constraint residual.  Its potential
    solves S0 lam = b / kappa separably, without the zero mode, which
    b = C g has no component along (see ``_constraint_ops``)."""
    if not w.is_finite():
        raise InputError("project_H: field contains NaN/Inf")
    grid = w.grid
    Dx, Dy = _constraint_ops(grid)[:2]

    v = apply_bc(w)
    # apply_bc zeroed the side faces, so the interior block carries all of g
    g1 = vertical_integral(v.u1, grid)[1:-1, 1:-1] / grid.h
    g2 = vertical_integral(v.u2, grid)[1:-1, 1:-1] / grid.h
    b = Dx @ g1 + g2 @ Dy.T
    if not np.any(b):
        return v

    kappa = (grid.h - grid.dz / 2.0) / (grid.h * grid.h)
    lam = _schur_solve(grid, b) / kappa
    scale = grid.d1 * grid.d2 * grid.h
    # subtract on the free z-levels of the interior only (the Dirichlet
    # faces and the pinned bottom keep the zeros apply_bc wrote)
    v.data[0, 1:-1, 1:-1, 1:] -= (Dx.T @ lam / scale)[:, :, None]
    v.data[1, 1:-1, 1:-1, 1:] -= (lam @ Dy / scale)[:, :, None]
    return v


# ---------------------------------------------------------------------------
# The operator A and its smallest eigenvalue
# ---------------------------------------------------------------------------

def apply_A(v: HorizontalField) -> HorizontalField:
    """A = - (projection of the BC-aware Laplacian)."""
    lap = laplacian3(v)
    return project_H(HorizontalField(-lap.data, v.grid))


def smallest_eigenvalue_A(grid: GridSpec) -> float:
    """Smallest eigenvalue of A by inverse power iteration; each step is one
    implicit solve with apply_A (weighted CG), iterated until the Rayleigh
    quotient settles to RQ_TOL relative."""
    vol = weights3(grid)[None, :, :, :]

    def apply_op(data):
        return apply_A(HorizontalField(data, grid)).data

    x = project_H(mode_sum(grid, 1, np.ones(1))).data
    x /= np.sqrt(np.sum(vol * x * x))
    rho_old = np.inf
    for _ in range(MAX_OUTER):
        y = weighted_cg(apply_op, x, vol, rel_tol=1e-10,
                        max_iter=50 * max(grid.n1, grid.n2, grid.nz) ** 2,
                        label="inverse-power")
        # Rayleigh quotient of the new iterate: <x, x> / <x, y> since Ay = x
        rho = float(np.sum(vol * x * x) / np.sum(vol * x * y))
        y = project_H(HorizontalField(y, grid)).data
        x = y / np.sqrt(np.sum(vol * y * y))
        if abs(rho - rho_old) <= RQ_TOL * abs(rho):
            if rho <= 0:
                raise SolverError("inverse power iteration produced a nonpositive eigenvalue")
            return rho
        rho_old = rho
    raise SolverError("inverse power iteration did not converge", abs(rho - rho_old))


def rayleigh_quotient(v: HorizontalField) -> float:
    """<A v, v> / <v, v>; an upper bound for the smallest eigenvalue."""
    vp = project_H(v)
    return inner_H(apply_A(vp), vp) / max(norm_H(vp) ** 2, 1e-300)
