"""Norms and inner products used by the a priori estimates.

All quadratures share the trapezoid-product weights from the grid module,
so summation-by-parts identities hold (exactly for the SBP pair, to
truncation error for the one-sided norm gradients).  Reductions are plain
numpy sums in fixed axis order, hence bitwise deterministic.

norm_report evaluates all five estimate quantities in one pass: each
component's gradient is taken once, its z-part is both the integrand of K
and the input of Kbar's gradient (12 one-sided differences per state).  Its
sums run in the same order as those of norm_H, norm_V, norm_K and
norm_Kbar, so H2, E2, K and Kbar equal the separate functions bit for bit.
norm_V_K does the same for the pair (norm_V, norm_K) that the kick chain
observes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fields import HorizontalField
from .grid import GridSpec, diff_onesided2, weights3


def _check(u: HorizontalField, w: HorizontalField | None = None) -> None:
    if w is not None and u.data.shape != w.data.shape:
        raise InputError(f"field shapes differ: {u.data.shape} vs {w.data.shape}")


def inner_H(u: HorizontalField, w: HorizontalField) -> float:
    _check(u, w)
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


def norm_V(v: HorizontalField) -> float:
    vol = weights3(v.grid)
    s = 0.0
    for comp in (v.u1, v.u2):
        for g in _gradient(comp, v.grid):
            s += float(np.sum(g * g * vol))
    return float(np.sqrt(s))


def norm_V_K(v: HorizontalField) -> tuple[float, float]:
    """norm_V and norm_K from one gradient per component; the sums run in
    their order, so both equal the separate functions bit for bit."""
    vol = weights3(v.grid)
    sV = sK = 0.0
    for comp in (v.u1, v.u2):
        terms = [float(np.sum(g * g * vol)) for g in _gradient(comp, v.grid)]
        for term in terms:
            sV += term
        sK += terms[2]
    return float(np.sqrt(sV)), float(np.sqrt(sK))


def norm_L6(v: HorizontalField) -> float:
    vol = weights3(v.grid)
    # cube of the square: u ** 6 would go through libm pow
    s1, s2 = v.u1 * v.u1, v.u2 * v.u2
    s = float(np.sum((s1 * s1 * s1 + s2 * s2 * s2) * vol))
    return float(max(s, 0.0) ** (1.0 / 6.0))


def _dz(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    return diff_onesided2(a, grid.dz, 2)


def norm_K(v: HorizontalField) -> float:
    """L2 norm of the z-derivative.  Uses the same stencils as the z-part of
    norm_V, so K <= norm_V holds exactly for this pair of norms."""
    vol = weights3(v.grid)
    s = 0.0
    for comp in (v.u1, v.u2):
        g = _dz(comp, v.grid)
        s += float(np.sum(g * g * vol))
    return float(np.sqrt(s))


def norm_Kbar(v: HorizontalField) -> float:
    """L2 norm of the full gradient of the z-derivative."""
    vol = weights3(v.grid)
    s = 0.0
    for comp in (v.u1, v.u2):
        dza = _dz(comp, v.grid)
        for g in _gradient(dza, v.grid):
            s += float(np.sum(g * g * vol))
    return float(np.sqrt(s))


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
    """All estimate quantities of one state from one gradient per
    component; see the module docstring for the bit-for-bit contract."""
    vol = weights3(v.grid)
    sV = sK = sKbar = 0.0
    for comp in (v.u1, v.u2):
        grad = _gradient(comp, v.grid)
        terms = [float(np.sum(g * g * vol)) for g in grad]
        for term in terms:
            sV += term
        sK += terms[2]
        for g in _gradient(grad[2], v.grid):
            sKbar += float(np.sum(g * g * vol))
    return NormReport(
        H2=norm_H(v) ** 2,
        E2=float(np.sqrt(sV)) ** 2,
        J=norm_L6(v),
        K=float(np.sqrt(sK)),
        Kbar=float(np.sqrt(sKbar)),
    )
