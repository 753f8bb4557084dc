"""Grid geometry, quadrature, and difference-operator properties."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from pe3d.errors import InputError
from conftest import REFERENCES
from pe3d.grid import (STENCILS, GridSpec, along, cumulative_z_integral,
                       diff_matrix, diff_sbp, div2,
                       laplacian_bc, vertical_integral, weights2, weights3)

EPS = np.finfo(float).eps

#: shapes of the applied-operator checks, 1D to 4D; every axis has at least
#: the three nodes the one-sided stencil reads
SHAPES = [(9,), (6, 7), (5, 6, 7), (3, 5, 6, 7), (3, 17, 17, 17)]


class TestGridSpec:
    def test_spacings_and_shape(self, grid12):
        assert grid12.d1 == pytest.approx(1.5 / 12)
        assert grid12.d2 == pytest.approx(0.8 / 10)
        assert grid12.dz == pytest.approx(1.2 / 8)
        assert grid12.shape == (13, 11, 9)
        assert grid12.shape2 == (13, 11)

    def test_axes_span_the_box(self, grid12):
        assert grid12.x()[0] == 0.0 and grid12.x()[-1] == grid12.L1
        assert grid12.z()[0] == -grid12.h and grid12.z()[-1] == 0.0

    @pytest.mark.parametrize("kw", [dict(L1=0.0), dict(h=-1.0), dict(n1=3),
                                    dict(nz=2)])
    def test_invalid_spec_rejected(self, kw):
        with pytest.raises(InputError):
            GridSpec(**kw)


class TestQuadrature:
    def test_total_volume(self, grid12):
        assert np.sum(weights3(grid12)) == pytest.approx(
            grid12.L1 * grid12.L2 * grid12.h, rel=1e-13)

    def test_bilinear_exactness(self, grid12):
        # trapezoid quadrature integrates per-axis-linear products exactly
        x = grid12.x()[:, None]
        y = grid12.y()[None, :]
        f = (1.0 + 2.0 * x) * (3.0 - y)
        exact = ((grid12.L1 + grid12.L1 ** 2)
                 * (3.0 * grid12.L2 - grid12.L2 ** 2 / 2.0))
        assert np.sum(weights2(grid12) * f) == pytest.approx(exact, rel=1e-13)


class TestDifferenceOperators:
    def test_sbp_exact_on_linear(self, grid12):
        X, Y, Z = grid12.meshgrid()
        f = 2.0 * X - 3.0 * Y + 0.5 * Z
        assert np.allclose(diff_sbp(f, grid12.d1, 0), 2.0, atol=1e-12)
        assert np.allclose(diff_sbp(f, grid12.d2, 1), -3.0, atol=1e-12)
        assert np.allclose(diff_sbp(f, grid12.dz, 2), 0.5, atol=1e-12)

    def test_summation_by_parts_identity(self, rng):
        # sum_i w_i (f Dg + g Df)_i == boundary product difference, exactly
        n, d = 17, 0.3
        w = np.full(n + 1, d)
        w[0] = w[-1] = d / 2.0
        f = rng.standard_normal(n + 1)
        g = rng.standard_normal(n + 1)
        Df = diff_sbp(f, d, 0)
        Dg = diff_sbp(g, d, 0)
        lhs = np.sum(w * (f * Dg + g * Df))
        rhs = f[-1] * g[-1] - f[0] * g[0]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("shape", [(9,), (6, 7), (5, 6, 7)])
    def test_slice_kernels_match_moveaxis_reference(self, shape, rng):
        # the stencil builders (along axis 0) against the references
        base = rng.standard_normal(shape)
        d = 0.37
        for f in (base, base.T):
            for kind, stencil in STENCILS.items():
                got, ref = stencil(f, d), REFERENCES[kind](f, d, 0)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n, d", [(4, 0.37), (16, 1.0 / 16), (24, 1.0 / 24)])
    def test_cached_matrix_is_stencil_of_identity(self, n, d):
        for kind, stencil in STENCILS.items():
            m = diff_matrix(kind, n, d)
            assert m.shape == (n + 1, n + 1) and not m.flags.writeable
            assert m.tobytes() == stencil(np.eye(n + 1), d).tobytes()
            assert diff_matrix(kind, n, d) is m

    @pytest.mark.parametrize("shape", SHAPES)
    def test_applied_operators_match_reference(self, shape, rng):
        # every axis, C- and F-ordered input; the matmul sums the same
        # products as the stencil in another order, possibly fused, so each
        # entry may move by a few roundings of the terms it sums
        base = rng.standard_normal(shape)
        d = 0.37
        for f in (base, base.T):
            for axis in range(f.ndim):
                for kind, ref in REFERENCES.items():
                    m = diff_matrix(kind, f.shape[axis] - 1, d)
                    got = along(m, f, axis)
                    bound = 8.0 * EPS * along(np.abs(m), np.abs(f), axis)
                    assert got.shape == f.shape
                    assert np.all(np.abs(got - ref(f, d, axis)) <= bound)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_applied_operators_exact_at_dyadic_spacing(self, shape, rng):
        # with d = 1/16 every matrix entry is the stencil's coefficient
        # scaled by a power of two.  On integer-valued input every product
        # and partial sum is exact, so each entry equals the reference byte
        # for byte whatever order BLAS sums in; on Gaussian input so does
        # every row with at most two terms (one rounding either way).  Rows
        # with three terms depend on the BLAS kernel's order and fusing.
        d = 1.0 / 16
        ints = rng.integers(-2 ** 20, 2 ** 20, size=shape).astype(float)
        gauss = rng.standard_normal(shape)
        for base in (ints, gauss):
            for f in (base, base.T):
                for axis in range(f.ndim):
                    for kind, ref in REFERENCES.items():
                        m = diff_matrix(kind, f.shape[axis] - 1, d)
                        got = np.moveaxis(along(m, f, axis), axis, 0)
                        want = np.moveaxis(ref(f, d, axis), axis, 0)
                        if base is gauss:
                            rows = np.count_nonzero(m, axis=1) <= 2
                            got, want = got[rows], want[rows]
                        assert got.tobytes() == want.tobytes()

    def test_laplacian_of_a_component_stack_matches_reference(self, grid12, rng):
        # laplacian_bc differentiates the last three axes, of one 3D
        # component or a 4D stack of them, as the three references summed
        a = rng.standard_normal((2,) + grid12.shape)
        spacings = (grid12.d1, grid12.d2, grid12.dz)
        tops = ("dirichlet", "dirichlet", "neumann")
        for f, ax in ((a, 1), (a[1], 0)):
            ref = sum(REFERENCES[top](f, d, ax + i)
                      for i, (d, top) in enumerate(zip(spacings, tops)))
            scale = sum(along(np.abs(diff_matrix(top, f.shape[ax + i] - 1, d)),
                              np.abs(f), ax + i)
                        for i, (d, top) in enumerate(zip(spacings, tops)))
            assert np.all(np.abs(laplacian_bc(f, grid12) - ref) <= 16.0 * EPS * scale)

    def test_onesided2_exact_on_quadratics(self, grid12):
        X, _, _ = grid12.meshgrid()
        f = 1.0 + X + 0.5 * X ** 2
        d = along(diff_matrix("onesided2", grid12.n1, grid12.d1), f, 0)
        assert np.allclose(d, 1.0 + X, atol=1e-10)

    def test_laplacian_symmetry_on_bc_fields(self, grid8, rng):
        # with odd/even reflection ghosts the Laplacian is self-adjoint in
        # the trapezoid inner product on fields satisfying the BCs
        vol = weights3(grid8)

        def bc_clean(a):
            a = a.copy()
            a[0], a[-1] = 0.0, 0.0
            a[:, 0], a[:, -1] = 0.0, 0.0
            a[:, :, 0] = 0.0
            return a

        a = bc_clean(rng.standard_normal(grid8.shape))
        b = bc_clean(rng.standard_normal(grid8.shape))
        lhs = np.sum(vol * a * laplacian_bc(b, grid8))
        rhs = np.sum(vol * b * laplacian_bc(a, grid8))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)
        # and negative semidefinite
        assert np.sum(vol * a * laplacian_bc(a, grid8)) < 0

    def test_div2_annihilates_perpendicular_gradients(self, grid12, rng):
        # discrete curl-gradient identity: the x/y SBP operators commute
        psi = rng.standard_normal(grid12.shape2)
        w1 = diff_sbp(psi, grid12.d2, 1)
        w2 = -diff_sbp(psi, grid12.d1, 0)
        assert np.abs(div2(w1, w2, grid12)).max() < 1e-12

    def test_div2_shape_checks(self, grid8):
        with pytest.raises(InputError):
            div2(np.zeros((3, 3)), np.zeros((3, 3)), grid8)
        with pytest.raises(InputError):
            div2(np.zeros(grid8.shape2), np.zeros((9, 8)), grid8)


class TestVerticalIntegrals:
    def test_matches_trapz(self, grid12, rng):
        f = rng.standard_normal(grid12.shape)
        expected = np.trapezoid(f, dx=grid12.dz, axis=2)
        assert np.allclose(vertical_integral(f, grid12), expected,
                           rtol=1e-13, atol=1e-13)

    def test_shape_check(self, grid8):
        with pytest.raises(InputError):
            vertical_integral(np.zeros((2, 2, 2)), grid8)

    def test_cumulative_matches_scipy(self, grid12, rng):
        f = rng.standard_normal(grid12.shape)
        got = cumulative_z_integral(f, grid12)
        expected = cumulative_trapezoid(f, dx=grid12.dz, axis=2, initial=0.0)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13)

    def test_cumulative_endpoint_is_full_integral(self, grid12, rng):
        f = rng.standard_normal(grid12.shape)
        assert np.allclose(cumulative_z_integral(f, grid12)[:, :, -1],
                           vertical_integral(f, grid12), rtol=1e-12, atol=1e-13)
