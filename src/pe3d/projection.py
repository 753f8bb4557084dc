"""Projection onto vertically-averaged divergence-free fields.

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
precision.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InputError
from .fields import HorizontalField, apply_bc
from .grid import GridSpec, diff_matrix, div2, vertical_integral, weights2

#: Schur eigenvalues at most this fraction of the largest are the zero mode
_ZERO_MODE_RTOL = 1e-10


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
    return _project_in_place(apply_bc(w))


def _project_in_place(v: HorizontalField) -> HorizontalField:
    """``project_H`` of a finite v that is already zero on the Dirichlet
    faces, computed in v's own array; returns v."""
    grid = v.grid
    Dx, Dy = _constraint_ops(grid)[:2]
    # the side faces are zero, so the interior block carries all of g
    g1 = vertical_integral(v.u1, grid)[1:-1, 1:-1] / grid.h
    g2 = vertical_integral(v.u2, grid)[1:-1, 1:-1] / grid.h
    b = Dx @ g1 + g2 @ Dy.T
    if not np.any(b):
        return v

    kappa = (grid.h - grid.dz / 2.0) / (grid.h * grid.h)
    lam = _schur_solve(grid, b) / kappa
    scale = grid.d1 * grid.d2 * grid.h
    # subtract on the free z-levels of the interior only (the Dirichlet
    # faces and the pinned bottom keep their zeros)
    v.data[0, 1:-1, 1:-1, 1:] -= (Dx.T @ lam / scale)[:, :, None]
    v.data[1, 1:-1, 1:-1, 1:] -= (lam @ Dy / scale)[:, :, None]
    return v

