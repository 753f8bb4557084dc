"""Projection onto vertically-averaged divergence-free fields, and the
operator A with its smallest eigenvalue.

The projection is realized as the exact orthogonal projection (in the
weighted H inner product, within the subspace of fields vanishing on the
Dirichlet faces) onto the kernel of the discrete constraint

    div2( vertical average of v ) = 0   at interior horizontal nodes.

The correcting field is the weighted adjoint-gradient of a 2D potential,
independent of z across the free levels, obtained from a small cached
Schur-complement factorization.  Exactness of the adjoint construction is
what delivers idempotence, orthogonality, norm contraction, and the
constraint residual at solver precision.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputError, SolverError
from .fields import HorizontalField, apply_bc, laplacian3
from .grid import GridSpec, div2, vertical_integral, weights2, weights3
from .linalg import weighted_cg
from .norms import inner_H, norm_H

#: default absolute tolerance on the constraint residual of projected fields
PROJ_TOL = 1e-8


# ---------------------------------------------------------------------------
# Constraint machinery (cached per grid)
# ---------------------------------------------------------------------------

def _centered_diff_matrix(n: int, d: float) -> sp.csr_matrix:
    """Centered first-difference matrix on n+1 nodes; boundary rows zero
    (only interior rows are ever used by the constraint)."""
    rows, cols, vals = [], [], []
    for i in range(1, n):
        rows += [i, i]
        cols += [i - 1, i + 1]
        vals += [-1.0 / (2.0 * d), 1.0 / (2.0 * d)]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1))


@functools.lru_cache(maxsize=16)
def _constraint_ops(grid: GridSpec):
    """Build the interior constraint matrix C (acting on a flattened 2D
    vector field), the ring mask / inverse-weight diagonal, the Schur factor,
    and the interior quadrature weights."""
    n1, n2 = grid.n1, grid.n2
    Dx = _centered_diff_matrix(n1, grid.d1)
    Dy = _centered_diff_matrix(n2, grid.d2)
    I1 = sp.identity(n1 + 1, format="csr")
    I2 = sp.identity(n2 + 1, format="csr")
    Cx = sp.kron(Dx, I2, format="csr")
    Cy = sp.kron(I1, Dy, format="csr")
    Cfull = sp.hstack([Cx, Cy], format="csr")

    interior = np.zeros((n1 + 1, n2 + 1), dtype=bool)
    interior[1:-1, 1:-1] = True
    int_idx = np.flatnonzero(interior.ravel())
    C = Cfull[int_idx, :].tocsr()

    ring_zero = interior.ravel().astype(float)        # 0 on the boundary ring
    w2 = weights2(grid).ravel()
    diag = np.concatenate([ring_zero / w2, ring_zero / w2])
    S0 = (C @ sp.diags(diag) @ C.T).tocsc()
    lu = spla.splu(S0)

    w2_int = weights2(grid)[1:-1, 1:-1].copy()
    return C, diag, lu, int_idx, w2_int


def constraint_residual(v: HorizontalField) -> float:
    """Weighted L2 norm over interior horizontal nodes of
    div2(vertical_integral(v))."""
    grid = v.grid
    _, _, _, _, w2_int = _constraint_ops(grid)
    r = div2(vertical_integral(v.u1, grid), vertical_integral(v.u2, grid), grid)
    r = r[1:-1, 1:-1]
    return float(np.sqrt(np.sum(w2_int * r * r)))


def project_H(w: HorizontalField) -> HorizontalField:
    """Project onto the discrete space H: subtract the H-orthogonal
    correction (z-independent across the free levels, zero on the Dirichlet
    faces) that annihilates the interior constraint residual."""
    if not w.is_finite():
        raise InputError("project_H: field contains NaN/Inf")
    grid = w.grid
    C, diag, lu, int_idx, _ = _constraint_ops(grid)

    v = apply_bc(w)
    g1 = vertical_integral(v.u1, grid) / grid.h
    g2 = vertical_integral(v.u2, grid) / grid.h
    b = C @ np.concatenate([g1.ravel(), g2.ravel()])
    if not np.any(b):
        return v

    kappa = (grid.h - grid.dz / 2.0) / (grid.h * grid.h)
    lam = lu.solve(b) / kappa
    chat = diag * (C.T @ lam) / grid.h
    N2 = (grid.n1 + 1) * (grid.n2 + 1)
    c1 = chat[:N2].reshape(grid.shape2)
    c2 = chat[N2:].reshape(grid.shape2)
    # subtract on the free z-levels only (bottom stays pinned at zero)
    v.data[0, :, :, 1:] -= c1[:, :, None]
    v.data[1, :, :, 1:] -= c2[:, :, None]
    return v


# ---------------------------------------------------------------------------
# The operator A and its smallest eigenvalue
# ---------------------------------------------------------------------------

def apply_A(v: HorizontalField, check: bool = True) -> HorizontalField:
    """A = - (projection of the BC-aware Laplacian)."""
    lap = laplacian3(v, v.grid, check=check)
    return project_H(HorizontalField(-lap.data, v.grid))


def _seed_field(grid: GridSpec) -> HorizontalField:
    """Deterministic smooth constraint-compatible field used to start the
    eigenvalue iteration."""
    from .sampling import stream_function_field
    x = grid.x()[:, None] / grid.L1
    y = grid.y()[None, :] / grid.L2
    psi = np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    return stream_function_field(psi, grid)


def smallest_eigenvalue_A(grid: GridSpec, rq_tol: float = 1e-8,
                          max_outer: int = 200) -> float:
    """Smallest eigenvalue of A by inverse power iteration; each step is one
    implicit solve with apply_A (weighted CG), iterated until the Rayleigh
    quotient settles to rq_tol relative."""
    vol = weights3(grid)[None, :, :, :]

    def apply_op(data):
        return apply_A(HorizontalField(data, grid), check=False).data

    x = project_H(_seed_field(grid)).data
    x /= np.sqrt(np.sum(vol * x * x))
    rho_old = np.inf
    for _ in range(max_outer):
        y = weighted_cg(apply_op, x, vol, rel_tol=1e-10,
                        max_iter=50 * max(grid.n1, grid.n2, grid.nz) ** 2,
                        label="inverse-power")
        # Rayleigh quotient of the new iterate: <x, x> / <x, y> since Ay = x
        rho = float(np.sum(vol * x * x) / np.sum(vol * x * y))
        y = project_H(HorizontalField(y, grid)).data
        x = y / np.sqrt(np.sum(vol * y * y))
        if abs(rho - rho_old) <= rq_tol * abs(rho):
            if rho <= 0:
                raise SolverError("inverse power iteration produced a nonpositive eigenvalue")
            return rho
        rho_old = rho
    raise SolverError("inverse power iteration did not converge", abs(rho - rho_old))


def rayleigh_quotient(v: HorizontalField) -> float:
    """<A v, v> / <v, v>; an upper bound for the smallest eigenvalue."""
    vp = project_H(v)
    return inner_H(apply_A(vp, check=False), vp) / max(norm_H(vp) ** 2, 1e-300)
