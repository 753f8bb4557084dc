"""Projection invariants and the operator A."""

import numpy as np
import pytest

from conftest import raw_field
from pe3d.errors import InputError
from pe3d.fields import HorizontalField, apply_bc, bc_residual
from pe3d.grid import GridSpec
from pe3d.norms import inner_H, norm_H, norm_V
from pe3d.projection import (PROJ_TOL, apply_A, constraint_residual,
                             project_H, rayleigh_quotient,
                             smallest_eigenvalue_A)
from pe3d.sampling import random_smooth_field


class TestProjectionInvariants:
    def test_constraint_residual_below_tolerance(self, grid12, rng):
        for _ in range(10):
            p = project_H(raw_field(grid12, rng))
            assert constraint_residual(p) < PROJ_TOL

    def test_idempotence(self, grid12, rng):
        p = project_H(raw_field(grid12, rng))
        pp = project_H(p)
        assert norm_H(pp - p) < 1e-12 * max(norm_H(p), 1.0)

    def test_orthogonality(self, grid12, rng):
        # the removed part is H-orthogonal to the projected field (within
        # the boundary-zeroed subspace that apply_bc selects)
        w = apply_bc(raw_field(grid12, rng))
        p = project_H(w)
        assert abs(inner_H(p, w - p)) < 1e-12 * max(norm_H(w) ** 2, 1.0)

    def test_contraction(self, grid12, rng):
        w = apply_bc(raw_field(grid12, rng))
        p = project_H(w)
        assert norm_H(p) <= norm_H(w) * (1.0 + 1e-13)

    def test_preserves_bc(self, grid12, rng):
        assert bc_residual(project_H(raw_field(grid12, rng))) == 0.0

    def test_fixes_fields_already_in_H(self, grid12, rng):
        v = random_smooth_field(rng, grid12)
        assert norm_H(project_H(v) - v) < 1e-10 * max(norm_H(v), 1.0)

    def test_rejects_non_finite(self, grid8):
        v = HorizontalField.zeros(grid8)
        v.u1[1, 1, 1] = np.inf
        with pytest.raises(InputError):
            project_H(v)


class TestOperatorA:
    def test_positivity_on_H(self, grid8, rng):
        for _ in range(5):
            v = project_H(raw_field(grid8, rng))
            assert inner_H(apply_A(v, check=False), v) > 0.0

    def test_symmetry_on_H(self, grid8, rng):
        u = project_H(raw_field(grid8, rng))
        w = project_H(raw_field(grid8, rng))
        lhs = inner_H(apply_A(u, check=False), w)
        rhs = inner_H(u, apply_A(w, check=False))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_energy_matches_V_norm_under_refinement(self, rng):
        # <A v, v> and |v|_V^2 use different boundary stencils; their gap is
        # an O(d) boundary-layer effect that must shrink with the mesh
        gaps = []
        for n in (8, 16):
            grid = GridSpec(n1=n, n2=n, nz=n)
            v = random_smooth_field(np.random.default_rng(5), grid)
            e_sbp = inner_H(apply_A(v, check=False), v)
            e_v = norm_V(v) ** 2
            gaps.append(abs(e_sbp - e_v) / e_v)
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.15

    def test_smallest_eigenvalue(self, grid8):
        lam = smallest_eigenvalue_A(grid8)
        assert lam > 0.0
        # any probe field's Rayleigh quotient bounds it from above
        probe = random_smooth_field(np.random.default_rng(3), grid8)
        assert lam <= rayleigh_quotient(probe) * (1.0 + 1e-6)

    def test_eigenvalue_stable_under_refinement(self, grid8):
        lam8 = smallest_eigenvalue_A(grid8)
        lam12 = smallest_eigenvalue_A(GridSpec(n1=12, n2=12, nz=12))
        assert abs(lam12 - lam8) < 0.15 * lam8

    def test_poincare_inequality(self, grid8, rng):
        # lam1 |v|_H^2 <= <A v, v> for fields in H
        lam = smallest_eigenvalue_A(grid8)
        for _ in range(5):
            v = project_H(apply_bc(raw_field(grid8, rng)))
            assert lam * norm_H(v) ** 2 <= inner_H(apply_A(v, check=False), v) * (1 + 1e-9)
