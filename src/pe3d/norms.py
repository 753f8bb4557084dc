"""Norms used by the a priori estimates.

All quadratures share the trapezoid-product weights W from the grid module.
The norms of a state are one weighted pass, ``_sums``, over both components
as one 4D array: scaled once, fs = W^(1/2) v, every weighted sum is a dot
product, and every one-sided derivative is a matrix M_a = W^(1/2) D_a
W^(-1/2) along axis a.  The pass reads M_a only through the cached per-axis
Gram matrices G_a = M_a^T M_a and P_z = M_z M_z (``grid.weighted_grams``):
with A_a = G_a fs, K^2 = <fs, A_z>, E2 = <fs, A_x + A_y> + K^2 and
Kbar^2 = <A_x + A_y, A_z> + |P_z fs|^2, exact because M_x, M_y and M_z act
on different axes, so |M_x M_z fs|^2 = <G_x fs, G_z fs>.  A report is four
matmuls, norm_V three.  Each form is nonnegative in exact arithmetic and is
clipped at 0, so K's sum is one nonnegative summand of E2's and K^2 <= E2
exactly.  Kbar's z part stays the square |P_z fs|^2: the form
<fs, P_z^T P_z fs> cancels on smooth fields.  norm_H is the dot product of
fs.  The sums run in a fixed order for any BLAS thread count (``_dot``),
hence bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fields import HorizontalField
from .grid import along, weighted_grams


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two 3D or 4D arrays of one shape: one BLAS dot
    product per (y, z) slab, or per z-column if a slab has more than 10,000
    entries (the most OpenBLAS sums in one thread), then numpy's fixed-order
    sum, so no sum order depends on the BLAS thread count."""
    n = a.shape[-2] * a.shape[-1]
    k = n if n <= 10_000 else a.shape[-1]
    return float(np.vecdot(a.reshape(-1, k), b.reshape(-1, k)).sum())


def norm_H(v: HorizontalField) -> float:
    fs = v.data * weighted_grams(v.grid)[0]
    return float(np.sqrt(_dot(fs, fs)))


def _sums(v: HorizontalField,
          kbar: bool) -> tuple[np.ndarray, float, float, float]:
    """fs = W^(1/2) v and the weighted sums behind E2, K^2 and (if ``kbar``,
    else 0) Kbar^2."""
    sw, gx, gy, gz, pz = weighted_grams(v.grid)
    fs = v.data * sw
    axy = along(gx, fs, 1)
    axy += along(gy, fs, 2)
    az = along(gz, fs, 3)
    sK = max(_dot(fs, az), 0.0)
    sV = max(_dot(fs, axy), 0.0) + sK
    sKbar = 0.0
    if kbar:
        pf = along(pz, fs, 3)
        sKbar = max(_dot(axy, az), 0.0) + _dot(pf, pf)
    return fs, sV, sK, sKbar


def norm_V(v: HorizontalField) -> float:
    return float(np.sqrt(_sums(v, kbar=False)[1]))


@dataclass(frozen=True)
class NormReport:
    """The estimate quantities at one instant: squared H and V norms, the
    L6 norm, and the z-derivative (semi)norms."""

    H2: float
    E2: float
    J: float
    K: float
    Kbar: float

    def __post_init__(self):
        for name in ("H2", "E2", "J", "K", "Kbar"):
            if getattr(self, name) < 0:
                raise InputError(f"NormReport.{name} must be nonnegative")
        # exact for _report (K's sum is a summand of E2's); headroom kept
        if self.K ** 2 > self.E2 * (1.0 + 1e-12) + 1e-300:
            raise InputError("NormReport invariant violated: K^2 > E2")


def _report(v: HorizontalField, kbar: bool) -> NormReport:
    """The report of one pass; Kbar is 0 unless ``kbar``."""
    fs, sV, sK, sKbar = _sums(v, kbar)
    cube = fs * v.data  # W^(1/2) v^3
    cube *= v.data
    return NormReport(H2=float(np.sqrt(_dot(fs, fs))) ** 2,
                      E2=float(np.sqrt(sV)) ** 2,
                      J=_dot(cube, cube) ** (1.0 / 6.0), K=float(np.sqrt(sK)),
                      Kbar=float(np.sqrt(sKbar)))


def norm_report(v: HorizontalField) -> NormReport:
    """All estimate quantities of one state; Kbar is the L2 norm of the
    full gradient of the z-derivative."""
    return _report(v, kbar=True)
