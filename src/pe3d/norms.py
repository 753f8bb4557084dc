"""Norms and inner products used by the a priori estimates.

All quadratures share the trapezoid-product weights W from the grid module.
The norms of a state are one weighted pass, ``_sums``, over both components
as one 4D array: scaled once, fs = W^(1/2) v, every weighted sum of squares
is a dot product and every one-sided derivative of fs is one ``grid.along``
with a weight-conjugated matrix (``grid.weighted_gradient``).  E2 takes
three; the z-derivative gives K and feeds Kbar's three.  norm_H is the dot
product of fs; norm_V_K (the chain's pair) and norm_report read the pass,
and norm_V is norm_V_K's first entry.  K's sum is one summand of E2's, so
K^2 <= E2 exactly.  The sums run in a fixed order for any BLAS thread
count (``_sumsq``), hence bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fields import HorizontalField
from .grid import along, weighted_gradient, weights3


def inner_H(u: HorizontalField, w: HorizontalField) -> float:
    if u.data.shape != w.data.shape:
        raise InputError(f"field shapes differ: {u.data.shape} vs {w.data.shape}")
    vol = weights3(u.grid)
    return float(np.sum((u.u1 * w.u1 + u.u2 * w.u2) * vol))


def _sumsq(a: np.ndarray) -> float:
    """The sum of squares of a 3D or 4D array: one BLAS dot product per
    (y, z) slab, or per z-column if a slab has more than 10,000 entries (the
    most OpenBLAS sums in one thread), then numpy's fixed-order sum, so no
    sum order depends on the BLAS thread count."""
    n = a.shape[-2] * a.shape[-1]
    f = a.reshape(-1, n if n <= 10_000 else a.shape[-1])
    return float(np.vecdot(f, f).sum())


def norm_H(v: HorizontalField) -> float:
    return float(np.sqrt(_sumsq(v.data * weighted_gradient(v.grid)[0])))


def _sums(v: HorizontalField, kbar: bool) -> tuple[float, ...]:
    """The weighted sums behind H2, E2, J^6, K^2 and (if ``kbar``, else 0)
    Kbar^2."""
    sw, mats = weighted_gradient(v.grid)
    fs = v.data * sw
    gz = along(mats[2], fs, 3)
    sK = _sumsq(gz)
    sV = _sumsq(along(mats[0], fs, 1)) + _sumsq(along(mats[1], fs, 2)) + sK
    sKbar = 0.0
    if kbar:
        sKbar = sum(_sumsq(along(m, gz, a)) for a, m in enumerate(mats, 1))
    cube = fs * v.data  # W^(1/2) v^3
    cube *= v.data
    return _sumsq(fs), sV, _sumsq(cube), sK, sKbar


def norm_V_K(v: HorizontalField) -> tuple[float, float]:
    """The V norm and K, the L2 norm of the z-derivative."""
    _, sV, _, sK, _ = _sums(v, kbar=False)
    return float(np.sqrt(sV)), float(np.sqrt(sK))


def norm_V(v: HorizontalField) -> float:
    return norm_V_K(v)[0]


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
    sH, sV, sJ, sK, sKbar = _sums(v, kbar)
    return NormReport(H2=float(np.sqrt(sH)) ** 2, E2=float(np.sqrt(sV)) ** 2,
                      J=sJ ** (1.0 / 6.0), K=float(np.sqrt(sK)),
                      Kbar=float(np.sqrt(sKbar)))


def norm_report(v: HorizontalField) -> NormReport:
    """All estimate quantities of one state; Kbar is the L2 norm of the
    full gradient of the z-derivative."""
    return _report(v, kbar=True)
