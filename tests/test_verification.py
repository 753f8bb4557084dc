"""Manufactured-solution machinery (the full ladder runs in acceptance)."""

from dataclasses import asdict

import numpy as np
import pytest

from pe3d.grid import GridSpec
from pe3d.verification import (AnalyticSolutionSpec, ConvergenceReport,
                               _eval_pair, _lambdify_pair, _run_case)


class TestAnalyticSpec:
    def test_zero_solution_has_zero_source(self):
        fv, fs = _lambdify_pair(AnalyticSolutionSpec.zero(), nu=1.0)
        err = _run_case(GridSpec(n1=4, n2=4, nz=4), 1.0, 0.01, 0.005, fv, fs)
        assert err == 0.0

    def test_default_solution_error_refines(self):
        fv, fs = _lambdify_pair(AnalyticSolutionSpec.default(), nu=1.0)
        errs = []
        for n, dt in ((8, 4e-3), (16, 1e-3)):
            errs.append(_run_case(GridSpec(n1=n, n2=n, nz=n), 1.0, 0.02, dt,
                                  fv, fs))
        assert errs[0] / errs[1] > 2.0

    def test_initial_state_matches_spec_exactly(self):
        # at t = 0 the discretized exact solution is the initial condition,
        # so a zero-duration run has zero error up to the projection
        fv, fs = _lambdify_pair(AnalyticSolutionSpec.default(), nu=1.0)
        err = _run_case(GridSpec(n1=8, n2=8, nz=8), 1.0, 0.0, 0.01, fv, fs)
        assert err < 1e-10

    @pytest.mark.parametrize("t", [0.0, 0.0123])
    def test_axis_evaluation_matches_meshgrid(self, t):
        # the fields are evaluated on broadcast 1D axes; the values must be
        # those of a full-grid evaluation, bit for bit
        grid = GridSpec(L1=2.0, L2=0.7, h=1.3, n1=12, n2=10, nz=8)
        fv, fs = _lambdify_pair(AnalyticSolutionSpec.default(L1=2.0, L2=0.7, h=1.3),
                                nu=1.0)
        X, Y, Z = grid.meshgrid()
        for funcs in (fv, fs):
            full = np.stack([np.broadcast_to(f(X, Y, Z, t), grid.shape)
                             for f in funcs])
            assert np.array_equal(_eval_pair(funcs, grid, t).data, full)


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
