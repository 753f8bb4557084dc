"""Norms and inner products used by the a priori estimates.

All quadratures share the trapezoid-product weights from the grid module,
so summation-by-parts identities hold (exactly for the SBP pair, to
truncation error for the one-sided norm gradients).  Reductions are plain
numpy sums in fixed axis order, hence bitwise deterministic.

The V, K and Kbar sums have one definition, ``_gradient_sums``: it takes
each component's gradient once, and its z-part is both the integrand of K
and, for norm_report, the input of Kbar's gradient (12 one-sided
differences per state).  norm_V_K, the pair the kick chain observes, and
norm_report read it; norm_V is norm_V_K's first entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fields import HorizontalField
from .grid import GridSpec, diff_onesided2, weights3


def inner_H(u: HorizontalField, w: HorizontalField) -> float:
    if u.data.shape != w.data.shape:
        raise InputError(f"field shapes differ: {u.data.shape} vs {w.data.shape}")
    vol = weights3(u.grid)
    return float(np.sum((u.u1 * w.u1 + u.u2 * w.u2) * vol))


def norm_H(v: HorizontalField) -> float:
    return float(np.sqrt(max(inner_H(v, v), 0.0)))


def _gradient(a: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """Full 3D gradient: centered interior, one-sided second order on the
    boundary layers (no fictitious ghost energy)."""
    return [diff_onesided2(a, grid.d1, 0),
            diff_onesided2(a, grid.d2, 1),
            diff_onesided2(a, grid.dz, 2)]


def _gradient_sums(v: HorizontalField, kbar: bool) -> tuple[float, float, float]:
    """The weighted sums of squares behind E2, K^2 and (if ``kbar``, else
    0) Kbar^2, accumulated term by term in (component, axis) order."""
    vol = weights3(v.grid)
    sV = sK = sKbar = 0.0
    for comp in (v.u1, v.u2):
        grad = _gradient(comp, v.grid)
        terms = [float(np.sum(g * g * vol)) for g in grad]
        for term in terms:
            sV += term
        sK += terms[2]
        if kbar:
            for g in _gradient(grad[2], v.grid):
                sKbar += float(np.sum(g * g * vol))
    return sV, sK, sKbar


def norm_V_K(v: HorizontalField) -> tuple[float, float]:
    """The V norm and K, the L2 norm of the z-derivative; the z-stencils
    are shared, so K <= norm_V holds exactly."""
    sV, sK, _ = _gradient_sums(v, kbar=False)
    return float(np.sqrt(sV)), float(np.sqrt(sK))


def norm_V(v: HorizontalField) -> float:
    return norm_V_K(v)[0]


def norm_L6(v: HorizontalField) -> float:
    vol = weights3(v.grid)
    # cube of the square: u ** 6 would go through libm pow
    s1, s2 = v.u1 * v.u1, v.u2 * v.u2
    s = float(np.sum((s1 * s1 * s1 + s2 * s2 * s2) * vol))
    return float(max(s, 0.0) ** (1.0 / 6.0))


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
        # K <= Ebar holds exactly for the discrete norms as implemented;
        # allow rounding headroom.
        if self.K ** 2 > self.E2 * (1.0 + 1e-12) + 1e-300:
            raise InputError("NormReport invariant violated: K^2 > E2")


def norm_report(v: HorizontalField) -> NormReport:
    """All estimate quantities of one state; Kbar is the L2 norm of the
    full gradient of the z-derivative."""
    sV, sK, sKbar = _gradient_sums(v, kbar=True)
    return NormReport(
        H2=norm_H(v) ** 2,
        E2=float(np.sqrt(sV)) ** 2,
        J=norm_L6(v),
        K=float(np.sqrt(sK)),
        Kbar=float(np.sqrt(sKbar)),
    )
