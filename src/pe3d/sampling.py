"""Constructing smooth constraint-compatible fields.

Fields built here are perpendicular gradients of a 2D stream function times
a vertical profile.  Because the perpendicular gradient uses the same
difference stencils as div2, the horizontal divergence vanishes identically
at every level (discrete curl-gradient identity), so these fields lie in
the discrete space H by construction.
"""

from __future__ import annotations

import numpy as np

from .fields import HorizontalField, apply_bc
from .grid import GridSpec, diff_sbp


def default_profile(grid: GridSpec) -> np.ndarray:
    """cos(pi z / (2h)): zero at the bottom, flat at the top."""
    return np.cos(np.pi * grid.z() / (2.0 * grid.h))


def stream_function_field(psi: np.ndarray, grid: GridSpec,
                          profile: np.ndarray | None = None) -> HorizontalField:
    """v = (d psi/dy, -d psi/dx) * profile(z), boundary conditions applied."""
    if profile is None:
        profile = default_profile(grid)
    u1 = diff_sbp(psi, grid.d2, 1)[:, :, None] * profile
    u2 = -diff_sbp(psi, grid.d1, 0)[:, :, None] * profile
    return apply_bc(HorizontalField.from_components(u1, u2, grid))


def mode_sum(grid: GridSpec, n_modes: int, coeffs: np.ndarray) -> HorizontalField:
    """Sum over m, n = 1..n_modes and k = 0..n_modes-1 of
    coeffs[idx] / (1 + m^2 + n^2 + k^2)^2 times the perpendicular gradient of
    sin^2(m pi x / L1) sin^2(n pi y / L2) with the vertical profile
    cos((k + 1/2) pi z / h) (zero at the bottom, flat at the top); idx runs
    over (m, n, k) in row-major order.  Every term vanishes on the side
    faces, so the sum lies in H."""
    x = grid.x()[:, None] / grid.L1
    y = grid.y()[None, :] / grid.L2
    zmodes = [np.cos((k + 0.5) * np.pi * grid.z() / grid.h) for k in range(n_modes)]
    out = HorizontalField.zeros(grid)
    idx = 0
    for m in range(1, n_modes + 1):
        sx = np.sin(m * np.pi * x) ** 2
        for n in range(1, n_modes + 1):
            psi = sx * np.sin(n * np.pi * y) ** 2
            for k, phi in enumerate(zmodes):
                w = 1.0 / (1.0 + m * m + n * n + k * k) ** 2
                out = out + (w * coeffs[idx]) * stream_function_field(psi, grid, phi)
                idx += 1
    return apply_bc(out)


def random_smooth_field(rng: np.random.Generator, grid: GridSpec,
                        n_modes: int = 3) -> HorizontalField:
    """Random smooth field in the discrete space H: the mode sum with
    uniform(-1, 1) coefficients."""
    return mode_sum(grid, n_modes, rng.uniform(-1.0, 1.0, size=n_modes ** 3))
