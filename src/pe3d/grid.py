"""Discretized box domain, quadrature weights, and discrete operators.

The domain is the box [0, L1] x [0, L2] x [-h, 0] on a collocated,
node-centered grid with (n1+1) x (n2+1) x (nz+1) nodes.  Array axes are
(x, y, z); z index 0 is the bottom (z = -h), index nz the top (z = 0).

Boundary conditions baked into the stencils:
  * v = 0 on the bottom and side faces (Dirichlet, odd-reflection ghosts),
  * dv/dz = 0 on the top face (Neumann, even-reflection ghosts).

Each 1D difference operator is a stencil written once along axis 0 and
applied to an identity: ``diff_matrix`` caches the resulting small dense
matrix per (kind, n, d), and ``along`` applies it to one axis of a 1D to 4D
array in a single BLAS matmul.  The stencils themselves never touch a field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError

#: relative bound of the 1D identities that certify laplacian_eigenbasis
EIGEN_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Box domain discretization: extents, cell counts, derived spacings."""

    L1: float = 1.0
    L2: float = 1.0
    h: float = 1.0
    n1: int = 24
    n2: int = 24
    nz: int = 24

    def __post_init__(self):
        if not (self.L1 > 0 and self.L2 > 0 and self.h > 0):
            raise InputError("grid extents L1, L2, h must be positive")
        if min(self.n1, self.n2, self.nz) < 4:
            raise InputError("cell counts n1, n2, nz must be >= 4")

    @property
    def d1(self) -> float:
        return self.L1 / self.n1

    @property
    def d2(self) -> float:
        return self.L2 / self.n2

    @property
    def dz(self) -> float:
        return self.h / self.nz

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n1 + 1, self.n2 + 1, self.nz + 1)

    @property
    def shape2(self) -> tuple[int, int]:
        return (self.n1 + 1, self.n2 + 1)

    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L1, self.n1 + 1)

    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.L2, self.n2 + 1)

    def z(self) -> np.ndarray:
        return np.linspace(-self.h, 0.0, self.nz + 1)

    def meshgrid(self):
        return np.meshgrid(self.x(), self.y(), self.z(), indexing="ij")


def _trapezoid_weights(n: int, d: float) -> np.ndarray:
    w = np.full(n + 1, d)
    w[0] = w[-1] = d / 2.0
    return w


@functools.lru_cache(maxsize=32)
def weights2(grid: GridSpec) -> np.ndarray:
    """2D trapezoid-product quadrature weights on the horizontal grid."""
    w = np.outer(_trapezoid_weights(grid.n1, grid.d1),
                 _trapezoid_weights(grid.n2, grid.d2))
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=32)
def weights3(grid: GridSpec) -> np.ndarray:
    """3D trapezoid-product quadrature weights (cell volume, with half /
    quarter weights on faces and edges)."""
    w = weights2(grid)[:, :, None] * _trapezoid_weights(grid.nz, grid.dz)
    w.setflags(write=False)
    return w


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def _sbp(f: np.ndarray, d: float) -> np.ndarray:
    """Centered interior, one-sided first order at the two end planes."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * d)
    out[0] = (f[1] - f[0]) / d
    out[-1] = (f[-1] - f[-2]) / d
    return out


def _onesided2(f: np.ndarray, d: float) -> np.ndarray:
    """Centered interior, one-sided second order at the end planes."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * d)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * d)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * d)
    return out


def _second_diff(f: np.ndarray, d: float, top: str) -> np.ndarray:
    """Second derivative with ghost values fixed by the boundary condition:
    odd reflection (Dirichlet zero) at the low end, and either odd
    reflection (``top='dirichlet'``) or even reflection (``top='neumann'``)
    at the high end."""
    out = np.empty_like(f)
    d2 = d * d
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / d2
    # odd reflection: ghost = -f[1], so the f[1] contributions cancel
    out[0] = -2.0 * f[0] / d2
    if top == "dirichlet":
        out[-1] = -2.0 * f[-1] / d2
    else:
        # even reflection: ghost = f[-2]
        out[-1] = 2.0 * (f[-2] - f[-1]) / d2
    return out


#: operator kind -> stencil along axis 0
STENCILS = {
    "sbp": _sbp,
    "onesided2": _onesided2,
    "dirichlet": lambda f, d: _second_diff(f, d, "dirichlet"),
    "neumann": lambda f, d: _second_diff(f, d, "neumann"),
}


@functools.lru_cache(maxsize=64)
def diff_matrix(kind: str, n: int, d: float) -> np.ndarray:
    """The read-only (n+1) x (n+1) matrix of stencil ``kind`` with spacing
    d: the stencil applied to the identity."""
    m = STENCILS[kind](np.eye(n + 1), d)
    m.setflags(write=False)
    return m


def along(m: np.ndarray, f: np.ndarray, axis: int) -> np.ndarray:
    """Apply the square matrix m along ``axis`` (nonnegative) of f in one
    matmul: the first and last axes are reshaped to the front or back of a
    2D operand, a middle axis is the row axis of a stack of matrices, so no
    axis is ever transposed."""
    shape = f.shape
    n = shape[axis]
    if axis == 0:
        return (m @ f.reshape(n, -1)).reshape(shape)
    if axis == f.ndim - 1:
        return (f.reshape(-1, n) @ m.T).reshape(shape)
    return (m @ f.reshape(-1, n, math.prod(shape[axis + 1:]))).reshape(shape)


def diff_sbp(f: np.ndarray, d: float, axis: int) -> np.ndarray:
    """First derivative: centered in the interior, one-sided first order at
    the two end planes.  With the trapezoid weights this pair satisfies the
    summation-by-parts identity exactly, which is what makes the
    skew-symmetrized advection energy-neutral."""
    return along(diff_matrix("sbp", f.shape[axis] - 1, d), f, axis)


@functools.lru_cache(maxsize=32)
def weighted_gradient(grid: GridSpec):
    """sqrt(weights3) and, per axis (x, y, z), M = W^(1/2) D W^(-1/2) for the
    one-sided difference D and the 1D trapezoid weights W (read-only): the
    weights are a tensor product, so W^(1/2) D v = M (W^(1/2) v) on 3D."""
    mats = []
    for n, d in ((grid.n1, grid.d1), (grid.n2, grid.d2), (grid.nz, grid.dz)):
        s = np.sqrt(_trapezoid_weights(n, d))
        mats.append(s[:, None] * diff_matrix("onesided2", n, d) / s[None, :])
    sw = np.sqrt(weights3(grid))
    for a in (sw, *mats):
        a.setflags(write=False)
    return sw, tuple(mats)


def laplacian_bc(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """BC-aware 7-point Laplacian along the last three axes (x, y, z) of a
    3D component or a 4D stack of them (no input checks): odd reflection
    across the Dirichlet faces, even reflection across the top."""
    ax = a.ndim - 3
    out = along(diff_matrix("dirichlet", grid.n1, grid.d1), a, ax)
    out += along(diff_matrix("dirichlet", grid.n2, grid.d2), a, ax + 1)
    out += along(diff_matrix("neumann", grid.nz, grid.dz), a, ax + 2)
    return out


def _free_eigenpairs(n: int, d: float, top: str):
    """Eigenpairs of the 1D second difference restricted to its free nodes
    (1..n-1 for Dirichlet at both ends, 1..n for a Neumann top).  The matrix
    is symmetric under the trapezoid weights W, so W^(1/2) D W^(-1/2) goes
    to ``eigh``; returns the forward transform Q^T W^(1/2), the back
    transform W^(-1/2) Q and the eigenvalues."""
    free = slice(1, n) if top == "dirichlet" else slice(1, n + 1)
    D = diff_matrix(top, n, d)[free, free]
    sw = np.sqrt(_trapezoid_weights(n, d)[free])
    M = sw[:, None] * D / sw[None, :]
    lam, Q = np.linalg.eigh(0.5 * (M + M.T))
    return Q.T * sw[None, :], Q / sw[:, None], lam


@functools.lru_cache(maxsize=32)
def laplacian_eigenbasis(grid: GridSpec):
    """Separable eigenbasis of ``laplacian_bc`` on the free nodes
    [1:n1, 1:n2, 1:nz+1]: per axis (x, y, z) a (forward, back) transform
    pair, plus the eigenvalues lam_x + lam_y + lam_z on the free block
    (fast diagonalization, Lynch, Rice & Thomas 1964).

    Certified when the cache fills, in max norms on each axis: the second
    difference D maps the back transform to itself times lam,
    |D back - back diag(lam)| <= EIGEN_TOL max|lam| max|back|, and
    |fwd back - I| <= EIGEN_TOL.  The 3D solve is a Kronecker product of
    these transforms, so it is then exact for every dt nu.  Raises
    SolverError otherwise."""
    axes = []
    for n, d, top in ((grid.n1, grid.d1, "dirichlet"),
                      (grid.n2, grid.d2, "dirichlet"),
                      (grid.nz, grid.dz, "neumann")):
        fwd, back, lam = _free_eigenpairs(n, d, top)
        D = diff_matrix(top, n, d)[1:lam.size + 1, 1:lam.size + 1]
        eig = np.abs(D @ back - back * lam).max()
        inv = np.abs(fwd @ back - np.eye(lam.size)).max()
        if eig > EIGEN_TOL * np.abs(lam).max() * np.abs(back).max() or inv > EIGEN_TOL:
            raise SolverError(f"laplacian_eigenbasis: {top} axis, n={n}: eigen "
                              f"residual {eig:.3e}, inverse residual {inv:.3e}")
        axes.append((fwd, back, lam))
    (fx, bx, lx), (fy, by, ly), (fz, bz, lz) = axes
    lam = lx[:, None, None] + ly[:, None] + lz
    for a in (fx, bx, fy, by, fz, bz, lam):
        a.setflags(write=False)
    return (fx, bx), (fy, by), (fz, bz), lam


def div2(w1: np.ndarray, w2: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Horizontal divergence, centered second order in the interior.  Accepts
    2D (horizontal) or 3D (level-by-level) arrays."""
    if w1.shape != w2.shape:
        raise InputError(f"div2: component shapes differ: {w1.shape} vs {w2.shape}")
    if w1.shape[:2] != grid.shape2:
        raise InputError(f"div2: horizontal shape {w1.shape[:2]} does not match grid {grid.shape2}")
    return diff_sbp(w1, grid.d1, 0) + diff_sbp(w2, grid.d2, 1)


def vertical_integral(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Trapezoidal integral over z in [-h, 0]; the vertical averaging
    operator is vertical_integral(f) / h."""
    if f.shape != grid.shape:
        raise InputError(f"vertical_integral: shape {f.shape} does not match grid {grid.shape}")
    return np.tensordot(f, _trapezoid_weights(grid.nz, grid.dz), axes=([2], [0]))


def cumulative_z_integral(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cumulative trapezoid from the bottom: out[..., k] = int_{-h}^{z_k} f."""
    out = np.zeros_like(f)
    inc = 0.5 * grid.dz * (f[:, :, 1:] + f[:, :, :-1])
    np.cumsum(inc, axis=2, out=out[:, :, 1:])
    return out
