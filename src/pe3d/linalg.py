"""Weighted conjugate-gradient solver.

The discrete operators here are symmetric with respect to the trapezoid
quadrature weights, not the Euclidean inner product, so CG is run with the
weighted inner product directly.  Fixed summation order keeps runs
bitwise deterministic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SolverError


def weighted_cg(apply_op: Callable[[np.ndarray], np.ndarray],
                b: np.ndarray,
                weights: np.ndarray,
                rel_tol: float = 1e-10,
                max_iter: int = 1000,
                x0: np.ndarray | None = None,
                label: str = "cg") -> np.ndarray:
    """Solve apply_op(x) = b for an operator that is SPD under the weighted
    inner product <u, w> = sum(weights * u * w).

    Raises SolverError with the final relative residual on non-convergence.
    An ``x0`` that already meets the tolerance is returned as it is, without
    a copy; otherwise it is left untouched.
    """

    def inner(u, w):
        return float(np.sum(weights * u * w))

    bnorm = np.sqrt(max(inner(b, b), 0.0))
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b) if x0 is None else x0
    r = b - apply_op(x)
    rs = inner(r, r)
    tol2 = (rel_tol * bnorm) ** 2
    if rs <= tol2:
        return x
    x, p = x.copy(), r.copy()
    for _ in range(max_iter):
        Ap = apply_op(p)
        pAp = inner(p, Ap)
        if pAp <= 0.0:
            raise SolverError(f"{label}: operator lost positive definiteness", np.sqrt(rs) / bnorm)
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = inner(r, r)
        if rs_new <= tol2:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolverError(f"{label}: no convergence in {max_iter} iterations "
                      f"(relative residual {np.sqrt(rs) / bnorm:.3e})",
                      float(np.sqrt(rs) / bnorm))
