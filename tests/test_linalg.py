"""Weighted conjugate gradient against a dense direct-solve oracle."""

import numpy as np
import pytest

from pe3d.errors import SolverError
from pe3d.linalg import weighted_cg


def _weighted_spd_problem(rng, n=40):
    """A = W^{-1} M with M SPD makes A self-adjoint in the W inner product."""
    W = rng.uniform(0.5, 2.0, size=n)
    Q = rng.standard_normal((n, n))
    M = Q @ Q.T + n * np.eye(n)
    A = np.diag(1.0 / W) @ M
    return A, M, W


class TestWeightedCG:
    def test_matches_dense_solve(self, rng):
        A, M, W = _weighted_spd_problem(rng)
        b = rng.standard_normal(len(W))
        x = weighted_cg(lambda v: A @ v, b, W, rel_tol=1e-12, max_iter=500)
        # A x = b  <=>  M x = W b
        expected = np.linalg.solve(M, W * b)
        assert np.allclose(x, expected, rtol=1e-8, atol=1e-10)

    def test_zero_rhs(self, rng):
        A, _, W = _weighted_spd_problem(rng)
        x = weighted_cg(lambda v: A @ v, np.zeros(len(W)), W,
                        rel_tol=1e-12, max_iter=10)
        assert np.all(x == 0.0)

    def test_warm_start(self, rng):
        A, M, W = _weighted_spd_problem(rng)
        b = rng.standard_normal(len(W))
        expected = np.linalg.solve(M, W * b)
        x0 = expected + 1e-6 * rng.standard_normal(len(W))
        start = x0.copy()
        x = weighted_cg(lambda v: A @ v, b, W, rel_tol=1e-12, max_iter=500,
                        x0=x0)
        assert np.allclose(x, expected, rtol=1e-8, atol=1e-10)
        assert x0.tobytes() == start.tobytes()

    def test_accepted_start_returned_uncopied(self, rng):
        # a start that meets the tolerance costs one operator application
        # and comes back as the same array, bits untouched
        A, M, W = _weighted_spd_problem(rng)
        b = rng.standard_normal(len(W))
        x0 = np.linalg.solve(M, W * b)
        start = x0.copy()
        applies = []

        def op(v):
            applies.append(1)
            return A @ v

        x = weighted_cg(op, b, W, rel_tol=1e-8, max_iter=500, x0=x0)
        assert x is x0 and x.tobytes() == start.tobytes()
        assert len(applies) == 1

    def test_nonconvergence_raises(self, rng):
        A, _, W = _weighted_spd_problem(rng)
        b = rng.standard_normal(len(W))
        with pytest.raises(SolverError):
            weighted_cg(lambda v: A @ v, b, W, rel_tol=1e-14, max_iter=1)

    def test_indefinite_operator_raises(self, rng):
        W = np.ones(10)
        b = rng.standard_normal(10)
        with pytest.raises(SolverError):
            weighted_cg(lambda v: -v, b, W, rel_tol=1e-10, max_iter=50)
