"""The horizontal-velocity state and its boundary-condition handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grid import (BC_TOL, GridSpec, cumulative_z_integral, div2,
                   laplacian_bc)


@dataclass
class HorizontalField:
    """Two velocity components on the (n1+1) x (n2+1) x (nz+1) node grid.

    ``data`` has shape (2, n1+1, n2+1, nz+1); components are views into it
    so that field arithmetic is plain array arithmetic.
    """

    data: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        expected = (2,) + self.grid.shape
        if self.data.shape != expected:
            raise InputError(f"field data shape {self.data.shape}, expected {expected}")

    @property
    def u1(self) -> np.ndarray:
        return self.data[0]

    @property
    def u2(self) -> np.ndarray:
        return self.data[1]

    @classmethod
    def zeros(cls, grid: GridSpec) -> "HorizontalField":
        return cls(np.zeros((2,) + grid.shape), grid)

    @classmethod
    def from_components(cls, u1: np.ndarray, u2: np.ndarray, grid: GridSpec) -> "HorizontalField":
        return cls(np.stack([np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)]), grid)

    def copy(self) -> "HorizontalField":
        return HorizontalField(self.data.copy(), self.grid)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def __add__(self, other: "HorizontalField") -> "HorizontalField":
        return HorizontalField(self.data + other.data, self.grid)

    def __sub__(self, other: "HorizontalField") -> "HorizontalField":
        return HorizontalField(self.data - other.data, self.grid)

    def __mul__(self, s: float) -> "HorizontalField":
        return HorizontalField(self.data * s, self.grid)

    __rmul__ = __mul__


def apply_bc(v: HorizontalField) -> HorizontalField:
    """Enforce the Dirichlet conditions by assignment: v = 0 on the side and
    bottom faces.  The top Neumann condition dv/dz = 0 is structural: every
    z-stencil in the package uses an even-reflection ghost at the top, so
    the discrete normal derivative there vanishes by construction.
    Returns a new field."""
    out = v.copy()
    out.data[:, 0, :, :] = 0.0
    out.data[:, -1, :, :] = 0.0
    out.data[:, :, 0, :] = 0.0
    out.data[:, :, -1, :] = 0.0
    out.data[:, :, :, 0] = 0.0
    return out


def bc_residual(v: HorizontalField) -> float:
    """Max |v| over the Dirichlet faces (sides and bottom).  The top Neumann
    residual in the even-reflection convention is identically zero and is
    not reported separately."""
    d = v.data
    return max(
        float(np.abs(d[:, 0, :, :]).max()),
        float(np.abs(d[:, -1, :, :]).max()),
        float(np.abs(d[:, :, 0, :]).max()),
        float(np.abs(d[:, :, -1, :]).max()),
        float(np.abs(d[:, :, :, 0]).max()),
    )


def check_bc(v: HorizontalField, tol: float = BC_TOL) -> None:
    r = bc_residual(v)
    if r > tol:
        raise InputError(f"field violates boundary conditions: residual {r:.3e} > {tol:.1e}")


def laplacian3(v: HorizontalField, grid: GridSpec, check: bool = True) -> HorizontalField:
    """Component-wise 7-point Laplacian with the boundary conditions baked
    into the ghost values (odd reflection across Dirichlet faces, even
    reflection across the top)."""
    if v.grid != grid:
        raise InputError("laplacian3: field grid does not match the given grid")
    if check:
        check_bc(v)
    lap = np.empty_like(v.data)
    for c in range(2):
        lap[c] = laplacian_bc(v.data[c], grid)
    return HorizontalField(lap, grid)


def u3_diagnostic(v: HorizontalField, grid: GridSpec) -> np.ndarray:
    """Diagnostic vertical velocity: cumulative trapezoid of -div2(v) from
    the bottom; identically zero at z = -h by construction."""
    if v.grid != grid:
        raise InputError("u3_diagnostic: field grid does not match the given grid")
    return -cumulative_z_integral(div2(v.u1, v.u2, grid), grid)
