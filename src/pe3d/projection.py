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
precision.  The projection takes the vertical integrals of both
components in one matmul with the cached trapezoid weights
(``grid.z_quadrature``), goes into the eigenbasis and back with two
stacked matmuls each, the difference operators folded into the cached
transforms, and subtracts the stacked correction of both components in
one statement.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InputError
from .fields import HorizontalField, apply_bc
from .grid import (GridSpec, diff_matrix, div2, vertical_integral, weights2,
                   z_quadrature)

#: Schur eigenvalues at most this fraction of the largest are the zero mode
_ZERO_MODE_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Constraint machinery (cached per grid)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _constraint_ops(grid: GridSpec):
    """The stacked Schur transforms L, R, their transposes LT, RT, the
    scaled inverse Schur eigenvalues inv, and the interior quadrature
    weights (read-only).

    Dx, Dy are the interior blocks of the SBP first difference (the fields
    they act on vanish on the boundary nodes) and Qx, Qy the eigenvectors
    of Dx Dx^T and Dy Dy^T.  Interior trapezoid weights are all d1 d2, so
    the Schur complement is S0 = (Dx Dx^T (x) I + I (x) Dy Dy^T) / (d1 d2)
    with eigenvalues (lx_i + ly_j) / (d1 d2).  Dx is skew with a zero
    eigenvalue iff n1 is even, so with n1 and n2 both even S0 has one zero
    mode, the checkerboard of centered differences on a collocated grid.
    Its entry of inv is 0: every right-hand side b = C g lies in range(C),
    which is orthogonal to null(C^T) = null(S0), so dropping the mode is
    the exact solve.

    For the interior vertical integrals G of both components, stacked,
    L = (Qx^T Dx, Qx^T) and R = (Qy, Dy^T Qy) give L G R, whose two slices
    sum to Qx^T (Dx G1 + G2 Dy^T) Qy: the constraint in the eigenbasis of
    S0.  inv = 1 / ((h - dz/2) (lx_i + ly_j)) folds in the mean's 1/h, the
    free levels' weight kappa = (h - dz/2) / h^2 of the adjoint and its
    d1 d2 h, so with H the sum times inv, LT H RT is the stacked
    correction (Dx^T lam, lam Dy) / (d1 d2 h) of both components."""
    Dx = diff_matrix("sbp", grid.n1, grid.d1)[1:-1, 1:-1]
    Dy = diff_matrix("sbp", grid.n2, grid.d2)[1:-1, 1:-1]
    lx, Qx = np.linalg.eigh(Dx @ Dx.T)
    ly, Qy = np.linalg.eigh(Dy @ Dy.T)
    lam = lx[:, None] + ly[None, :]
    zero = lam <= _ZERO_MODE_RTOL * lam.max()
    inv = np.where(zero, 0.0, 1.0 / ((grid.h - grid.dz / 2.0) * np.where(zero, 1.0, lam)))
    L, R = np.array((Qx.T @ Dx, Qx.T)), np.array((Qy, Dy.T @ Qy))
    LT, RT = L.transpose(0, 2, 1).copy(), R.transpose(0, 2, 1).copy()
    w2_int = weights2(grid)[1:-1, 1:-1].copy()
    for a in (L, R, LT, RT, inv, w2_int):
        a.setflags(write=False)
    return L, R, LT, RT, inv, w2_int


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
    L, R, LT, RT, inv, _ = _constraint_ops(grid)
    # both vertical integrals in one matmul; the side faces are zero, so the
    # interior block carries all of the constraint
    G = (v.data.reshape(-1, grid.nz + 1) @ z_quadrature(grid)[0]).reshape(2, *grid.shape2)
    t = L @ G[:, 1:-1, 1:-1] @ R
    H = (t[0] + t[1]) * inv
    # subtract on the free z-levels of the interior only (the Dirichlet
    # faces and the pinned bottom keep their zeros)
    v.data[:, 1:-1, 1:-1, 1:] -= (LT @ H @ RT)[..., None]
    return v
