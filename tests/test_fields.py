"""HorizontalField mechanics, boundary conditions, the diagnostic vertical
velocity, and the smooth-field sampler."""

import numpy as np
import pytest

from conftest import meshgrid, raw_field, ref_cumulative_trapezoid, ref_sbp
from pe3d.dynamics import _derivatives_w3
from pe3d.errors import InputError
from pe3d.fields import (DIRICHLET_FACES, HorizontalField, apply_bc,
                         bc_residual, zero_dirichlet)
from pe3d.grid import GridSpec, diff_sbp, div2
from pe3d.projection import constraint_residual, project_H
from pe3d.sampling import mode_sum, random_smooth_field


def _stream_function_field(psi, grid, profile):
    """v = (d psi/dy, -d psi/dx) * profile(z), boundary conditions applied:
    one mode of the sampler, built on its own."""
    u1 = diff_sbp(psi, grid.d2, 1)[:, :, None] * profile
    u2 = -diff_sbp(psi, grid.d1, 0)[:, :, None] * profile
    return apply_bc(HorizontalField(np.stack([u1, u2]), grid))


def _u3(v):
    return _derivatives_w3(v)[1]


class TestHorizontalField:
    def test_shape_validation(self, grid8):
        with pytest.raises(InputError):
            HorizontalField(np.zeros((2, 3, 3, 3)), grid8)

    def test_component_views_share_memory(self, grid8):
        v = HorizontalField.zeros(grid8)
        v.u1[2, 2, 2] = 7.0
        assert v.data[0, 2, 2, 2] == 7.0

    def test_arithmetic(self, grid8, rng):
        a = raw_field(grid8, rng)
        b = raw_field(grid8, rng)
        assert np.allclose((a + b).data, a.data + b.data)
        assert np.allclose((a - b).data, a.data - b.data)
        assert np.allclose((2.5 * a).data, 2.5 * a.data)
        assert np.allclose((a * 2.5).data, 2.5 * a.data)

    def test_is_finite(self, grid8):
        v = HorizontalField.zeros(grid8)
        assert v.is_finite()
        v.u1[1, 1, 1] = np.nan
        assert not v.is_finite()


def _dirichlet_mask(grid, shape):
    """The side and bottom nodes, marked from their indices."""
    i, j, k = np.indices(grid.shape)
    face = (i == 0) | (i == grid.n1) | (j == 0) | (j == grid.n2) | (k == 0)
    return np.broadcast_to(face, shape)


class TestBoundaryConditions:
    def test_apply_bc_zeroes_dirichlet_faces(self, grid12, rng):
        v = apply_bc(raw_field(grid12, rng))
        assert bc_residual(v) == 0.0

    def test_apply_bc_returns_new_field(self, grid8, rng):
        v = raw_field(grid8, rng)
        before = v.data.copy()
        apply_bc(v)
        assert np.array_equal(v.data, before)

    @pytest.mark.parametrize("seed", range(3))
    def test_zeroing_changes_exactly_the_dirichlet_faces(self, seed):
        # apply_bc and the in-place zero_dirichlet of the diffusion solve
        # write +0.0 on the five faces and leave every other node,
        # the interior of the top face included, byte for byte
        rng = np.random.default_rng(seed)
        grid = GridSpec(L1=rng.uniform(0.5, 2.0), L2=rng.uniform(0.5, 2.0),
                        n1=int(rng.integers(4, 9)), n2=int(rng.integers(4, 9)),
                        nz=int(rng.integers(4, 9)))
        v = raw_field(grid, rng)
        face = _dirichlet_mask(grid, v.data.shape)
        top = (slice(None), slice(1, -1), slice(1, -1), -1)
        data = v.data.copy()
        assert zero_dirichlet(data) is data
        for out in (apply_bc(v).data, data):
            assert np.all(out[face] == 0.0) and not np.signbit(out[face]).any()
            assert out[~face].tobytes() == v.data[~face].tobytes()
            assert out[top].tobytes() == v.data[top].tobytes()

    def test_bc_residual_reads_exactly_the_dirichlet_faces(self, rng):
        # one nonzero on a clean field: seen on every Dirichlet node, and
        # ignored elsewhere, the interior of the top face included
        grid = GridSpec(n1=4, n2=5, nz=4)
        clean = apply_bc(raw_field(grid, rng))
        face = _dirichlet_mask(grid, clean.data.shape)
        for idx in np.ndindex(face.shape):
            v = clean.copy()
            v.data[idx] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            assert bc_residual(v) == (abs(v.data[idx]) if face[idx] else 0.0)


class TestU3Diagnostic:
    def test_zero_at_bottom(self, grid12, rng):
        v = apply_bc(raw_field(grid12, rng))
        u3 = _u3(v)
        assert np.abs(u3[:, :, 0]).max() == 0.0

    @pytest.mark.parametrize("grid", [
        GridSpec(n1=12, n2=12, nz=12),
        GridSpec(L1=2.0, L2=0.7, h=1.3, n1=24, n2=20, nz=12)],
        ids=["12^3", "24x20x12"])
    def test_matches_cumulative_trapezoid_of_div2(self, grid):
        # the step's w3, from its 4D x- and y-derivatives, is the
        # cumulative trapezoid of -div2; the cached cumulative matrix sums
        # in another order than the running sum, and the moveaxis reference
        # stencils divide by 2d where the cached matrices multiply by
        # 1/(2d), so against both it agrees to rounding
        for v in (project_H(random_smooth_field(np.random.default_rng(3), grid)),
                  apply_bc(raw_field(grid, np.random.default_rng(4)))):
            got = _u3(v)
            ref = -ref_cumulative_trapezoid(div2(v.u1, v.u2, grid), grid.dz)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            div = ref_sbp(v.u1, grid.d1, 0) + ref_sbp(v.u2, grid.d2, 1)
            ref = -ref_cumulative_trapezoid(div, grid.dz)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_zero_for_stream_function_fields(self, grid12, rng):
        # level-by-level divergence-free fields carry no vertical velocity
        # away from the boundary ring (the curl-gradient identity is exact
        # at interior horizontal nodes)
        x = grid12.x()[:, None] / grid12.L1
        y = grid12.y()[None, :] / grid12.L2
        psi = (np.sin(np.pi * x) ** 2 * np.sin(2.0 * np.pi * y) ** 2
               + 0.3 * np.sin(2.0 * np.pi * x) ** 2 * np.sin(np.pi * y) ** 2)
        v = _stream_function_field(psi, grid12,
                                   np.cos(np.pi * grid12.z() / (2.0 * grid12.h)))
        assert np.abs(_u3(v)[1:-1, 1:-1, :]).max() < 1e-12

    def test_top_value_vanishes_for_fields_in_H(self, grid12, rng):
        # u3(top) = -div2(vertical integral), which the projection kills
        v = random_smooth_field(rng, grid12)
        assert constraint_residual(v) < 1e-10
        top = _u3(v)[1:-1, 1:-1, -1]
        assert np.abs(top).max() < 1e-10

    def test_analytic_oracle_with_refinement(self):
        # v = (sin(pi x) g(z), 0) has u3 = pi cos(pi x) G(z) with
        # G(z) = int_{-h}^z g; the error refines at second order away from
        # the one-sided x-boundary rows
        def err(n):
            grid = GridSpec(n1=n, n2=n, nz=n)
            X, _, Z = meshgrid(grid)
            g = np.cos(np.pi * Z / 2.0)
            v = HorizontalField(np.stack([np.sin(np.pi * X) * g,
                                          np.zeros(grid.shape)]), grid)
            G = (2.0 / np.pi) * (np.sin(np.pi * Z / 2.0) + 1.0)
            exact = -np.pi * np.cos(np.pi * X) * G
            got = _u3(v)
            return np.abs((got - exact)[2:-2, :, :]).max()

        e1, e2 = err(8), err(16)
        assert e1 / e2 > 3.0


class TestSampling:
    @staticmethod
    def _per_mode_reference(grid, n_modes, next_coeff):
        """The mode sum as one _stream_function_field per (m, n, k) term,
        each boundary-cleaned and added; next_coeff() gives each term's
        coefficient in row-major (m, n, k) order."""
        x = grid.x()[:, None] / grid.L1
        y = grid.y()[None, :] / grid.L2
        out = HorizontalField.zeros(grid)
        for m in range(1, n_modes + 1):
            for n in range(1, n_modes + 1):
                psi = np.sin(m * np.pi * x) ** 2 * np.sin(n * np.pi * y) ** 2
                for k in range(n_modes):
                    phi = np.cos((k + 0.5) * np.pi * grid.z() / grid.h)
                    w = 1.0 / (1.0 + m * m + n * n + k * k) ** 2
                    out = out + (w * next_coeff()) * _stream_function_field(
                        psi, grid, phi)
        return apply_bc(out)

    @staticmethod
    def _assert_matches(got, ref):
        """Equal to rounding: within 1e-14 of the largest value, and
        exactly +0.0 (never -0.0) on every Dirichlet face."""
        scale = np.abs(ref.data).max()
        assert np.abs(got.data - ref.data).max() <= 1e-14 * scale
        for face in DIRICHLET_FACES:
            assert not np.signbit(got.data[face]).any()
            assert not got.data[face].any()

    @pytest.mark.parametrize("seed", range(5))
    def test_vector_draws_match_scalar_draws(self, seed):
        grid = GridSpec(L1=1.5, L2=0.8, h=1.2, n1=6, n2=7, nz=5)
        got = random_smooth_field(np.random.default_rng(seed), grid)
        rng = np.random.default_rng(seed)
        ref = self._per_mode_reference(grid, 3, lambda: rng.uniform(-1.0, 1.0))
        self._assert_matches(got, ref)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_mode_sum_matches_per_mode_fields(self, n_modes):
        # the one-matmul sum of the cached factors gives the per-mode sum
        # to rounding, faces +0.0
        grid = GridSpec(L1=2.0, L2=0.7, h=1.3, n1=12, n2=9, nz=7)
        coeffs = np.random.default_rng(n_modes).uniform(-1.0, 1.0, n_modes ** 3)
        for _ in range(2):   # the second call reads the filled caches
            got = mode_sum(grid, n_modes, coeffs)
            ref = self._per_mode_reference(grid, n_modes, iter(coeffs).__next__)
            self._assert_matches(got, ref)
