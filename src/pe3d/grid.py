"""Discretized box domain, quadrature weights, and discrete operators.

The domain is the box [0, L1] x [0, L2] x [-h, 0] on a collocated,
node-centered grid with (n1+1) x (n2+1) x (nz+1) nodes.  Array axes are
(x, y, z); z index 0 is the bottom (z = -h), index nz the top (z = 0).

Boundary conditions baked into the stencils:
  * v = 0 on the bottom and side faces (Dirichlet, odd-reflection ghosts),
  * dv/dz = 0 on the top face (Neumann, even-reflection ghosts).

The difference stencils index the differentiated axis through index
tuples cached per (ndim, axis): no axis is moved to the front and back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: BC residual tolerance after apply_bc (rounding only; BCs are assigned).
BC_TOL = 1e-12


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


def _wz(grid: GridSpec) -> np.ndarray:
    return _trapezoid_weights(grid.nz, grid.dz)


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _planes(ndim: int, axis: int) -> tuple[tuple, ...]:
    """Index tuples selecting, along ``axis`` of an ndim array, the slabs
    [1:-1], [2:], [:-2] and the planes 0, 1, 2, -1, -2, -3, in that order."""
    def at(i):
        idx = [slice(None)] * ndim
        idx[axis] = i
        return tuple(idx)
    return tuple(at(i) for i in (slice(1, -1), slice(2, None), slice(None, -2),
                                 0, 1, 2, -1, -2, -3))


def diff_sbp(f: np.ndarray, d: float, axis: int) -> np.ndarray:
    """First derivative: centered in the interior, one-sided first order at
    the two end planes.  With the trapezoid weights this pair satisfies the
    summation-by-parts identity exactly, which is what makes the
    skew-symmetrized advection energy-neutral."""
    mid, hi, lo, p0, p1, _, m1, m2, _ = _planes(f.ndim, axis)
    out = np.empty_like(f)
    out[mid] = (f[hi] - f[lo]) / (2.0 * d)
    out[p0] = (f[p1] - f[p0]) / d
    out[m1] = (f[m1] - f[m2]) / d
    return out


def diff_onesided2(f: np.ndarray, d: float, axis: int) -> np.ndarray:
    """First derivative: centered interior, one-sided second order at the
    boundary planes (used by the norm quadratures; no BC assumption)."""
    mid, hi, lo, p0, p1, p2, m1, m2, m3 = _planes(f.ndim, axis)
    out = np.empty_like(f)
    out[mid] = (f[hi] - f[lo]) / (2.0 * d)
    out[p0] = (-3.0 * f[p0] + 4.0 * f[p1] - f[p2]) / (2.0 * d)
    out[m1] = (3.0 * f[m1] - 4.0 * f[m2] + f[m3]) / (2.0 * d)
    return out


def _second_diff(f: np.ndarray, d: float, axis: int, top: str) -> np.ndarray:
    """Second derivative with ghost values fixed by the boundary condition:
    odd reflection (Dirichlet zero) at the low end, and either odd
    reflection (``top='dirichlet'``) or even reflection (``top='neumann'``)
    at the high end."""
    mid, hi, lo, p0, _, _, m1, m2, _ = _planes(f.ndim, axis)
    out = np.empty_like(f)
    d2 = d * d
    out[mid] = (f[hi] - 2.0 * f[mid] + f[lo]) / d2
    # odd reflection: ghost = -f[1], so the f[1] contributions cancel
    out[p0] = -2.0 * f[p0] / d2
    if top == "dirichlet":
        out[m1] = -2.0 * f[m1] / d2
    else:
        # even reflection: ghost = f[-2]
        out[m1] = 2.0 * (f[m2] - f[m1]) / d2
    return out


def laplacian_bc(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """BC-aware 7-point Laplacian of one scalar component (no input checks)."""
    out = _second_diff(a, grid.d1, 0, "dirichlet")
    out += _second_diff(a, grid.d2, 1, "dirichlet")
    out += _second_diff(a, grid.dz, 2, "neumann")
    return out


def _free_eigenpairs(n: int, d: float, top: str):
    """Eigenpairs of the 1D second difference restricted to its free nodes
    (1..n-1 for Dirichlet at both ends, 1..n for a Neumann top).  The matrix
    is symmetric under the trapezoid weights W, so W^(1/2) D W^(-1/2) goes
    to ``eigh``; returns the forward transform Q^T W^(1/2), the back
    transform W^(-1/2) Q and the eigenvalues."""
    free = slice(1, n) if top == "dirichlet" else slice(1, n + 1)
    D = _second_diff(np.eye(n + 1), d, 0, top)[free, free]
    sw = np.sqrt(_trapezoid_weights(n, d)[free])
    M = sw[:, None] * D / sw[None, :]
    lam, Q = np.linalg.eigh(0.5 * (M + M.T))
    return Q.T * sw[None, :], Q / sw[:, None], lam


@functools.lru_cache(maxsize=32)
def laplacian_eigenbasis(grid: GridSpec):
    """Separable eigenbasis of ``laplacian_bc`` on the free nodes
    [1:n1, 1:n2, 1:nz+1]: per axis (x, y, z) a (forward, back) transform
    pair, plus the eigenvalues lam_x + lam_y + lam_z on the free block
    (fast diagonalization, Lynch, Rice & Thomas 1964)."""
    fx, bx, lx = _free_eigenpairs(grid.n1, grid.d1, "dirichlet")
    fy, by, ly = _free_eigenpairs(grid.n2, grid.d2, "dirichlet")
    fz, bz, lz = _free_eigenpairs(grid.nz, grid.dz, "neumann")
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
    return np.tensordot(f, _wz(grid), axes=([2], [0]))


def cumulative_z_integral(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cumulative trapezoid from the bottom: out[..., k] = int_{-h}^{z_k} f."""
    out = np.zeros_like(f)
    inc = 0.5 * grid.dz * (f[:, :, 1:] + f[:, :, :-1])
    np.cumsum(inc, axis=2, out=out[:, :, 1:])
    return out
