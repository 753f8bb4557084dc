"""Constructing smooth constraint-compatible fields.

``mode_sum`` is the one construction: a weighted sum of perpendicular
gradients of 2D stream functions times vertical profiles.  Because the
perpendicular gradient uses the same difference stencils as div2, the
horizontal divergence vanishes identically at every level (discrete
curl-gradient identity), so these fields lie in the discrete space H by
construction.  Kicks, random initial fields and the seed of the eigenvalue
iteration are all mode sums.

mode_sum caches per grid the 2D factors of each mode and the vertical
profiles, not the 3D mode fields, whose memory would grow with the grid
volume times the mode count.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import HorizontalField, apply_bc
from .grid import GridSpec, diff_sbp


@functools.lru_cache(maxsize=256)
def _mode_factors(grid: GridSpec, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2D factors (d psi/dy, -d psi/dx) of the stream function
    sin^2(m pi x / L1) sin^2(n pi y / L2), read-only."""
    x = grid.x()[:, None] / grid.L1
    y = grid.y()[None, :] / grid.L2
    psi = np.sin(m * np.pi * x) ** 2 * np.sin(n * np.pi * y) ** 2
    f1 = diff_sbp(psi, grid.d2, 1)
    f2 = -diff_sbp(psi, grid.d1, 0)
    for a in (f1, f2):
        a.setflags(write=False)
    return f1, f2


@functools.lru_cache(maxsize=32)
def _z_profiles(grid: GridSpec, n_modes: int) -> np.ndarray:
    """Row k: cos((k + 1/2) pi z / h), zero at the bottom, flat at the top;
    read-only."""
    phi = np.array([np.cos((k + 0.5) * np.pi * grid.z() / grid.h)
                    for k in range(n_modes)])
    phi.setflags(write=False)
    return phi


def mode_sum(grid: GridSpec, n_modes: int, coeffs: np.ndarray) -> HorizontalField:
    """Sum over m, n = 1..n_modes and k = 0..n_modes-1 of
    coeffs[idx] / (1 + m^2 + n^2 + k^2)^2 times the perpendicular gradient of
    sin^2(m pi x / L1) sin^2(n pi y / L2) with the vertical profile
    cos((k + 1/2) pi z / h) (zero at the bottom, flat at the top); idx runs
    over (m, n, k) in row-major order.  Every term vanishes on the side
    faces, so the sum lies in H.

    Each term is formed in one reused buffer and the Dirichlet faces are
    zeroed once at the end; the result is bit for bit the sum of the
    boundary-cleaned per-mode fields added in order."""
    phis = _z_profiles(grid, n_modes)
    out = HorizontalField.zeros(grid)
    term = np.empty_like(out.data)
    idx = 0
    for m in range(1, n_modes + 1):
        for n in range(1, n_modes + 1):
            f1, f2 = _mode_factors(grid, m, n)
            for k, phi in enumerate(phis):
                w = 1.0 / (1.0 + m * m + n * n + k * k) ** 2
                np.multiply(f1[:, :, None], phi, out=term[0])
                np.multiply(f2[:, :, None], phi, out=term[1])
                term *= w * coeffs[idx]
                out.data += term
                idx += 1
    return apply_bc(out)


def random_smooth_field(rng: np.random.Generator, grid: GridSpec) -> HorizontalField:
    """Random smooth field in the discrete space H: the three-mode sum with
    uniform(-1, 1) coefficients."""
    return mode_sum(grid, 3, rng.uniform(-1.0, 1.0, size=27))
