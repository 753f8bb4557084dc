"""Projection invariants and the operator A."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (PROJ_TOL, apply_A, inner_H, raw_field,
                      smallest_eigenvalue_A)
from pe3d.errors import InputError
from pe3d.fields import HorizontalField, apply_bc, bc_residual
from pe3d.grid import GridSpec, vertical_integral, weights2
from pe3d.norms import norm_H, norm_V
from pe3d.projection import constraint_residual, project_H
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

    @settings(max_examples=40, deadline=None)
    @given(grid=st.one_of(
               st.just(GridSpec(n1=16, n2=16, nz=16)),
               st.builds(GridSpec, L1=st.floats(0.5, 2.0), L2=st.floats(0.5, 2.0),
                         h=st.floats(0.5, 2.0), n1=st.integers(4, 16),
                         n2=st.integers(4, 16), nz=st.integers(4, 12))),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_output_is_bc_clean_bit_for_bit(self, grid, seed):
        # the ring correction has weight 0, so the Dirichlet faces keep the
        # +0.0 that apply_bc wrote and a later apply_bc changes no bit
        p = project_H(raw_field(grid, np.random.default_rng(seed)))
        assert apply_bc(p).data.tobytes() == p.data.tobytes()
        d = p.data
        for face in (d[:, 0], d[:, -1], d[:, :, 0], d[:, :, -1], d[..., 0]):
            assert not np.signbit(face).any()

    def test_fixes_fields_already_in_H(self, grid12, rng):
        v = random_smooth_field(rng, grid12)
        assert norm_H(project_H(v) - v) < 1e-10 * max(norm_H(v), 1.0)

    def test_rejects_non_finite(self, grid8):
        v = HorizontalField.zeros(grid8)
        v.u1[1, 1, 1] = np.inf
        with pytest.raises(InputError):
            project_H(v)


def _dense_schur(grid: GridSpec):
    """The interior constraint C on the flattened 2D field (both
    components, boundary ring included), the inverse-weight diagonal that
    is zero on the ring, and S0 = C diag C^T, assembled densely from full
    1D centered differences: an oracle that shares no code with the
    separable solve."""
    def diff(n, d):
        D = np.zeros((n + 1, n + 1))
        for i in range(1, n):
            D[i, i - 1], D[i, i + 1] = -1.0 / (2.0 * d), 1.0 / (2.0 * d)
        return D

    n1, n2 = grid.n1, grid.n2
    C = np.hstack([np.kron(diff(n1, grid.d1), np.eye(n2 + 1)),
                   np.kron(np.eye(n1 + 1), diff(n2, grid.d2))])
    interior = np.zeros(grid.shape2, dtype=bool)
    interior[1:-1, 1:-1] = True
    C = C[interior.ravel()]
    ring_zero = interior.ravel().astype(float)
    diag = np.tile(ring_zero / weights2(grid).ravel(), 2)
    return C, diag, C @ (diag[:, None] * C.T)


class TestSeparableSchurSolve:
    """The projection's fast-diagonalization solve against a dense
    pseudo-inverse of C diag C^T, on grids with the checkerboard zero mode
    (n1 and n2 both even) and without it."""

    GRIDS = [GridSpec(n1=16, n2=16, nz=16),
             GridSpec(L1=0.875, n1=4, n2=4, nz=6),
             GridSpec(L1=2.0, L2=0.7, h=1.3, n1=12, n2=9, nz=7)]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.n1}x{g.n2}x{g.nz}")
    def test_matches_dense_pseudo_inverse(self, grid, rng):
        C, diag, S0 = _dense_schur(grid)
        both_even = grid.n1 % 2 == 0 and grid.n2 % 2 == 0
        assert np.linalg.matrix_rank(S0) == S0.shape[0] - both_even
        S0_pinv = np.linalg.pinv(S0, rcond=1e-10, hermitian=True)
        kappa = (grid.h - grid.dz / 2.0) / (grid.h * grid.h)
        N2 = (grid.n1 + 1) * (grid.n2 + 1)
        for _ in range(3):
            # the whole projection: subtract diag C^T lam / h on free levels
            w = raw_field(grid, rng)
            v = apply_bc(w)
            g = np.concatenate([vertical_integral(v.u1, grid).ravel(),
                                vertical_integral(v.u2, grid).ravel()]) / grid.h
            chat = diag * (C.T @ (S0_pinv @ (C @ g))) / kappa / grid.h
            ref = v.data.copy()
            ref[0, :, :, 1:] -= chat[:N2].reshape(grid.shape2)[:, :, None]
            ref[1, :, :, 1:] -= chat[N2:].reshape(grid.shape2)[:, :, None]
            p = project_H(w)
            assert np.abs(p.data - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_singular_even_grid_projects(self, rng):
        # an even-by-even grid on which the zero mode of S0 is exactly
        # singular in floating point, not just to rounding
        grid = GridSpec(L1=0.875, n1=4, n2=4, nz=6)
        p = project_H(raw_field(grid, rng))
        assert constraint_residual(p) <= 1e-12
        assert norm_H(project_H(p) - p) <= 1e-12 * norm_H(p)


class TestOperatorA:
    def test_positivity_on_H(self, grid8, rng):
        for _ in range(5):
            v = project_H(raw_field(grid8, rng))
            assert inner_H(apply_A(v), v) > 0.0

    def test_symmetry_on_H(self, grid8, rng):
        u = project_H(raw_field(grid8, rng))
        w = project_H(raw_field(grid8, rng))
        lhs = inner_H(apply_A(u), w)
        rhs = inner_H(u, apply_A(w))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_energy_matches_V_norm_under_refinement(self, rng):
        # <A v, v> and |v|_V^2 use different boundary stencils; their gap is
        # an O(d) boundary-layer effect that must shrink with the mesh
        gaps = []
        for n in (8, 16):
            grid = GridSpec(n1=n, n2=n, nz=n)
            v = random_smooth_field(np.random.default_rng(5), grid)
            e_sbp = inner_H(apply_A(v), v)
            e_v = norm_V(v) ** 2
            gaps.append(abs(e_sbp - e_v) / e_v)
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.15

    def test_smallest_eigenvalue(self, grid8):
        lam = smallest_eigenvalue_A(grid8)
        assert lam > 0.0
        # any probe field's Rayleigh quotient <A p, p> / |p|_H^2 bounds it
        # from above
        p = project_H(random_smooth_field(np.random.default_rng(3), grid8))
        assert lam <= inner_H(apply_A(p), p) / norm_H(p) ** 2 * (1.0 + 1e-6)

    def test_eigenvalue_stable_under_refinement(self, grid8):
        lam8 = smallest_eigenvalue_A(grid8)
        lam12 = smallest_eigenvalue_A(GridSpec(n1=12, n2=12, nz=12))
        assert abs(lam12 - lam8) < 0.15 * lam8

    def test_poincare_inequality(self, grid8, rng):
        # lam1 |v|_H^2 <= <A v, v> for fields in H
        lam = smallest_eigenvalue_A(grid8)
        for _ in range(5):
            v = project_H(apply_bc(raw_field(grid8, rng)))
            assert lam * norm_H(v) ** 2 <= inner_H(apply_A(v), v) * (1 + 1e-9)
