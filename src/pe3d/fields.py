"""The horizontal-velocity state and its boundary-condition handling.

``DIRICHLET_FACES`` is the one list of the faces where v = 0 (the sides
and the bottom): ``zero_dirichlet`` zeroes them in place, ``apply_bc`` on a
copy, and ``bc_residual`` reads them.  The top face is Neumann and is never
assigned.  ``laplacian3`` reads the grid from the field and does not check
its boundary values; every caller in the package passes a BC-clean field.
It differentiates both components as one 4D array, one matmul per axis
(``grid.along``).  The diagnostic vertical velocity is built where it is
used, in ``dynamics``, from the step's own horizontal derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grid import GridSpec, laplacian_bc


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


#: the Dirichlet faces (x = 0, x = L1, y = 0, y = L2, z = -h) as indices
#: into arrays whose last three axes are (x, y, z)
DIRICHLET_FACES = ((..., 0, slice(None), slice(None)),
                   (..., -1, slice(None), slice(None)),
                   (..., 0, slice(None)),
                   (..., -1, slice(None)),
                   (..., 0))


def zero_dirichlet(data: np.ndarray) -> np.ndarray:
    """Zero ``data`` on the Dirichlet faces, in place; returns it."""
    for face in DIRICHLET_FACES:
        data[face] = 0.0
    return data


def apply_bc(v: HorizontalField) -> HorizontalField:
    """Enforce the Dirichlet conditions by assignment: v = 0 on the side and
    bottom faces.  The top Neumann condition dv/dz = 0 is structural: every
    z-stencil in the package uses an even-reflection ghost at the top, so
    the discrete normal derivative there vanishes by construction.
    Returns a new field."""
    return HorizontalField(zero_dirichlet(v.data.copy()), v.grid)


def bc_residual(v: HorizontalField) -> float:
    """Max |v| over the Dirichlet faces (sides and bottom).  The top Neumann
    residual in the even-reflection convention is identically zero and is
    not reported separately."""
    return max(float(np.abs(v.data[face]).max()) for face in DIRICHLET_FACES)


def laplacian3(v: HorizontalField) -> HorizontalField:
    """Component-wise 7-point Laplacian with the boundary conditions baked
    into the ghost values (odd reflection across Dirichlet faces, even
    reflection across the top); both components go through each of the
    three per-axis matrices together, as one 4D array."""
    return HorizontalField(laplacian_bc(v.data, v.grid), v.grid)

