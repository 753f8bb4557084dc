"""Manufactured-solution machinery (the full ladder runs in acceptance)."""

from dataclasses import asdict

import numpy as np
import pytest
import sympy as sym

from conftest import meshgrid
from pe3d.grid import GridSpec
from pe3d.verification import (ConvergenceReport, _run_case, _solution,
                               _source)


def _symbolic_pair(L1, L2, h, nu):
    """The oracle: the ladder's solution, a decaying perpendicular-gradient
    mode, and its source derived symbolically from the momentum equation,
    with u3 integrated from the divergence rather than assumed zero.
    Returns numpy callables (x, y, z, t) -> value for (v1, v2) and for the
    two source components."""
    x, y, z, t = sym.symbols("x y z t")
    psi = sym.sin(sym.pi * x / L1) ** 2 * sym.sin(sym.pi * y / L2) ** 2
    phi = sym.cos(sym.pi * z / (2 * h))
    v1 = sym.exp(-t) * sym.diff(psi, y) * phi
    v2 = -sym.exp(-t) * sym.diff(psi, x) * phi
    lap = lambda e: sym.diff(e, x, 2) + sym.diff(e, y, 2) + sym.diff(e, z, 2)
    u3 = -sym.integrate(sym.diff(v1, x) + sym.diff(v2, y), z)
    src = [sym.diff(e, t) - nu * lap(e) + v1 * sym.diff(e, x)
           + v2 * sym.diff(e, y) + u3 * sym.diff(e, z) for e in (v1, v2)]
    args = (x, y, z, t)
    return ([sym.lambdify(args, e, "numpy") for e in (v1, v2)],
            [sym.lambdify(args, e, "numpy", cse=True) for e in src])


class TestAnalyticSpec:
    # the closed-form tables against the symbolic derivation on a box with
    # unequal sides and nu != 1; the bound was fixed before the first run
    # (the worst deviation seen is 8e-16 of the largest value)
    REL_BOUND = 1e-13

    @pytest.fixture(scope="class")
    def oracle(self):
        # exact rationals keep the oracle's own rounding out of the bound
        L1, L2, h = sym.Integer(2), sym.Rational(7, 10), sym.Rational(13, 10)
        grid = GridSpec(L1=2.0, L2=0.7, h=1.3, n1=12, n2=10, nz=8)
        return grid, 0.37, _symbolic_pair(L1, L2, h, sym.Float(0.37))

    @pytest.mark.parametrize("t", [0.0, 0.0123, 0.2])
    def test_tables_match_symbolic_source(self, oracle, t):
        grid, nu, (fv, fs) = oracle
        X, Y, Z = meshgrid(grid)
        for funcs, mine in ((fv, _solution(grid, t)),
                            (fs, _source(grid, nu, t))):
            ref = np.stack([np.broadcast_to(f(X, Y, Z, t), grid.shape)
                            for f in funcs])
            scale = np.abs(ref).max()
            assert scale > 0.1
            assert np.abs(mine.data - ref).max() <= self.REL_BOUND * scale

    def test_default_solution_error_refines(self):
        errs = []
        for n, dt in ((8, 4e-3), (16, 1e-3)):
            errs.append(_run_case(GridSpec(n1=n, n2=n, nz=n), 1.0, 0.02, dt))
        assert errs[0] / errs[1] > 2.0

    def test_initial_state_matches_spec_exactly(self):
        # at t = 0 the discretized exact solution is the initial condition,
        # so a zero-duration run has zero error up to the projection
        err = _run_case(GridSpec(n1=8, n2=8, nz=8), 1.0, 0.0, 0.01)
        assert err < 1e-10


class TestConvergenceReport:
    def test_order_properties(self):
        rep = ConvergenceReport(spatial_orders=[2.1, 1.9],
                                temporal_orders=[1.05])
        assert rep.spatial_order == 1.9
        assert rep.temporal_order == 1.05
        assert np.isnan(ConvergenceReport().spatial_order)

    def test_to_dict_keys(self):
        # run_verify writes asdict(report): these keys, in this order
        d = asdict(ConvergenceReport())
        assert list(d) == ["spatial_grids", "spatial_errors", "spatial_orders",
                           "temporal_dts", "temporal_errors", "temporal_orders"]
