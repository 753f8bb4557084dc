"""Constructing smooth constraint-compatible fields.

``mode_sum`` is the one construction: a weighted sum of perpendicular
gradients of 2D stream functions times vertical profiles.  Because the
perpendicular gradient uses the same difference stencils as div2, the
horizontal divergence vanishes identically at every level (discrete
curl-gradient identity), so these fields lie in the discrete space H by
construction.  Kicks, random initial fields and forcing fields are all
mode sums.

Every term is a tensor product of a 2D factor and a vertical profile, so
``mode_factors`` caches per (grid, mode count) the stacked 2D factors, the
profiles and the term weights, and a mode sum is one matmul of the factors
with the coefficient-weighted profiles; no 3D mode field is ever cached.
The result agrees with the sum of the per-mode fields to rounding.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import HorizontalField, zero_dirichlet
from .grid import GridSpec, diff_sbp


@functools.lru_cache(maxsize=32)
def mode_factors(grid: GridSpec, n_modes: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The separable pieces of the mode sum, read-only: F, shape
    (2, n1+1, n2+1, n_modes^2), whose column j = (m-1) n_modes + n-1 is the
    perpendicular gradient (d psi/dy, -d psi/dx) of
    psi = sin^2(m pi x / L1) sin^2(n pi y / L2), zero on the side faces;
    phi, row k the profile cos((k + 1/2) pi z / h), zero at the bottom; and
    the weights w[j, k] = 1 / (1 + m^2 + n^2 + k^2)^2.  The term of
    (m, n, k) is w[j, k] F[..., j] (x) phi[k]."""
    j = np.arange(n_modes ** 2)
    m, n = j // n_modes + 1, j % n_modes + 1
    x = grid.x()[:, None, None] / grid.L1
    y = grid.y()[None, :, None] / grid.L2
    psi = np.sin(m * np.pi * x) ** 2 * np.sin(n * np.pi * y) ** 2
    F = np.stack([diff_sbp(psi, grid.d2, 1), -diff_sbp(psi, grid.d1, 0)])
    F[:, [0, -1]] = F[:, :, [0, -1]] = 0.0
    k = np.arange(n_modes)
    phi = np.cos((k[:, None] + 0.5) * np.pi * grid.z() / grid.h)
    phi[:, 0] = 0.0
    w = 1.0 / (1.0 + m[:, None] ** 2 + n[:, None] ** 2 + k ** 2) ** 2
    for a in (F, phi, w):
        a.setflags(write=False)
    return F, phi, w


def mode_sum(grid: GridSpec, n_modes: int, coeffs: np.ndarray) -> HorizontalField:
    """Sum over m, n = 1..n_modes and k = 0..n_modes-1 of
    coeffs[idx] / (1 + m^2 + n^2 + k^2)^2 times the perpendicular gradient of
    sin^2(m pi x / L1) sin^2(n pi y / L2) with the vertical profile
    cos((k + 1/2) pi z / h) (zero at the bottom, flat at the top); idx runs
    over (m, n, k) in row-major order.  Every term vanishes on the side
    faces, so the sum lies in H.

    The coefficients and weights contract with the profiles into one
    (n_modes^2, nz+1) array, the stacked 2D factors multiply it in one
    matmul, and the Dirichlet faces are zeroed in place (+0.0)."""
    F, phi, w = mode_factors(grid, n_modes)
    z = (np.reshape(coeffs, w.shape) * w) @ phi
    data = (F.reshape(-1, w.shape[0]) @ z).reshape((2,) + grid.shape)
    return HorizontalField(zero_dirichlet(data), grid)


def random_smooth_field(rng: np.random.Generator, grid: GridSpec) -> HorizontalField:
    """Random smooth field in the discrete space H: the three-mode sum with
    uniform(-1, 1) coefficients."""
    return mode_sum(grid, 3, rng.uniform(-1.0, 1.0, size=27))
