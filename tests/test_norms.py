"""Norm quadratures against analytic oracles and their exact relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inner_H, meshgrid, raw_field, run_with_blas_threads
from pe3d.errors import InputError
from pe3d.fields import HorizontalField
from pe3d.grid import GridSpec, along, diff_matrix, weighted_grams, weights3
from pe3d.norms import NormReport, _report, norm_H, norm_V, norm_report


def norm_K(v):
    return _report(v, kbar=False).K


def norm_L6(v):
    return norm_report(v).J


def _separate_loops(v):
    """The V norm, K and Kbar each from its own loop over the components, with
    the unweighted one-sided gradient and the volume weights applied to each
    square: the oracle of the weighted pass, which agrees to rounding."""
    g, vol = v.grid, weights3(v.grid)

    def dz(a):
        return along(diff_matrix("onesided2", g.nz, g.dz), a, 2)

    def grad(a):
        return [along(diff_matrix("onesided2", g.n1, g.d1), a, 0),
                along(diff_matrix("onesided2", g.n2, g.d2), a, 1), dz(a)]

    sV = sK = sKbar = 0.0
    for comp in (v.u1, v.u2):
        for d in grad(comp):
            sV += float(np.sum(d * d * vol))
    for comp in (v.u1, v.u2):
        d = dz(comp)
        sK += float(np.sum(d * d * vol))
    for comp in (v.u1, v.u2):
        for d in grad(dz(comp)):
            sKbar += float(np.sum(d * d * vol))
    return float(np.sqrt(sV)), float(np.sqrt(sK)), float(np.sqrt(sKbar))

# analytic test field: v1 = sin(pi x) sin(pi y) cos(pi z / 2), v2 = 0 on the
# unit box; all norm integrals separate into dense 1D quadratures below


def _analytic_field(n: int) -> HorizontalField:
    return _lowest_mode(GridSpec(n1=n, n2=n, nz=n))


def _lowest_mode(grid: GridSpec, u2_scale: float = 0.0) -> HorizontalField:
    """v1 = sin(pi x / L1) sin(pi y / L2) cos(pi z / (2 h)), and v2 the same
    mode times ``u2_scale``."""
    X, Y, Z = meshgrid(grid)
    u1 = (np.sin(np.pi * X / grid.L1) * np.sin(np.pi * Y / grid.L2)
          * np.cos(np.pi * Z / (2.0 * grid.h)))
    return HorizontalField(np.stack([u1, u2_scale * u1]), grid)


def _dense(fn, a: float, b: float, n: int = 4000) -> float:
    x = np.linspace(a, b, n + 1)
    return float(np.trapezoid(fn(x), x))


# dense-quadrature oracles (independent of the package's weights)
_SIN2 = _dense(lambda x: np.sin(np.pi * x) ** 2, 0, 1)
_COS2 = _dense(lambda z: np.cos(np.pi * z / 2.0) ** 2, -1, 0)
_DSIN2 = _dense(lambda x: (np.pi * np.cos(np.pi * x)) ** 2, 0, 1)
_DCOS2 = _dense(lambda z: (np.pi / 2.0 * np.sin(np.pi * z / 2.0)) ** 2, -1, 0)
_SIN6 = _dense(lambda x: np.sin(np.pi * x) ** 6, 0, 1)
_COS6 = _dense(lambda z: np.cos(np.pi * z / 2.0) ** 6, -1, 0)


class TestAgainstAnalyticOracles:
    def test_norm_H_exact_for_trig_polynomials(self):
        # the squared integrand is a trig polynomial that the trapezoid rule
        # integrates exactly (periodic in x/y, antisymmetric harmonics in z)
        exact = _SIN2 * _SIN2 * _COS2
        assert abs(norm_H(_analytic_field(8)) ** 2 - exact) < 1e-12

    def test_norm_V_converges(self):
        exact = (_DSIN2 * _SIN2 * _COS2 + _SIN2 * _DSIN2 * _COS2
                 + _SIN2 * _SIN2 * _DCOS2)
        errs = [abs(norm_V(_analytic_field(n)) ** 2 - exact) for n in (16, 32)]
        assert errs[0] / errs[1] > 2.5
        assert errs[1] < 2e-2 * exact

    def test_norm_K_converges(self):
        exact = _SIN2 * _SIN2 * _DCOS2
        errs = [abs(norm_K(_analytic_field(n)) ** 2 - exact) for n in (16, 32)]
        assert errs[0] / errs[1] > 2.5

    def test_norm_L6_exact_for_trig_polynomials(self):
        exact = (_SIN6 * _SIN6 * _COS6) ** (1.0 / 6.0)
        assert abs(norm_L6(_analytic_field(8)) - exact) < 1e-10


#: relative bound on E2, K and Kbar of the Gram forms against the difference
#: form on the smoothest fields, where a Gram form cancels most: the forms
#: stay within 2.7e-15 on these fields, while Kbar through the form
#: <fs, P_z^T P_z fs> is off by 2.8e-13 at 32^3 and 1.1e-13 at 48^3
GRAM_RTOL = 1e-13


def _box(n1, n2, nz):
    return GridSpec(L1=2.0, L2=0.7, h=0.3, n1=n1, n2=n2, nz=nz)


class TestGramForms:
    @pytest.mark.parametrize("field", [
        lambda: _analytic_field(32), lambda: _analytic_field(48),
        lambda: _lowest_mode(_box(32, 24, 20), u2_scale=-0.5)],
        ids=["unit32", "unit48", "box"])
    def test_smooth_fields_match_the_difference_form(self, field):
        v = field()
        rep = norm_report(v)
        V, K, Kbar = _separate_loops(v)
        for got, want in ((rep.E2, V ** 2), (rep.K, K), (rep.Kbar, Kbar)):
            assert abs(got - want) <= GRAM_RTOL * want
        assert rep.K ** 2 <= rep.E2
        assert norm_V(v) ** 2 == rep.E2

    def test_cache_holds_the_grams_of_the_weighted_gradient(self):
        grid = _box(6, 7, 5)
        sw, *grams, pz = weighted_grams(grid)
        mats = []
        for n, d in ((grid.n1, grid.d1), (grid.n2, grid.d2), (grid.nz, grid.dz)):
            w = np.full(n + 1, d)
            w[0] = w[-1] = d / 2.0
            s = np.sqrt(w)
            mats.append(s[:, None] * diff_matrix("onesided2", n, d) / s[None, :])
        for got, want in zip((*grams, pz),
                             [m.T @ m for m in mats] + [mats[2] @ mats[2]]):
            assert not got.flags.writeable
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-14 * np.abs(want).max())
        for g in grams:
            assert np.array_equal(g, g.T)
        assert not sw.flags.writeable
        np.testing.assert_allclose(sw ** 2, weights3(grid), rtol=1e-15)


class TestInnerProduct:
    def test_symmetry_and_bilinearity(self, grid12, rng):
        a, b, c = (raw_field(grid12, rng) for _ in range(3))
        assert inner_H(a, b) == pytest.approx(inner_H(b, a), rel=1e-13)
        assert inner_H(a + 2.0 * b, c) == pytest.approx(
            inner_H(a, c) + 2.0 * inner_H(b, c), rel=1e-12)

    def test_norm_is_sqrt_of_inner(self, grid12, rng):
        a = raw_field(grid12, rng)
        assert norm_H(a) == pytest.approx(np.sqrt(inner_H(a, a)), rel=1e-13)

    def test_shape_mismatch(self, grid8, grid12, rng):
        with pytest.raises(InputError):
            inner_H(raw_field(grid8, rng), raw_field(grid12, rng))


class TestExactRelations:
    def test_K_below_V_exactly(self, grid12, rng):
        # K's sum is one summand of the V sum, so K^2 <= E2 is exact
        for _ in range(20):
            v = raw_field(grid12, rng)
            assert norm_K(v) ** 2 <= norm_V(v) ** 2

    def test_fields_constant_along_axes_keep_the_forms_nonnegative(self, grid8, rng):
        # the Gram forms of a field constant along z (or along x and y) are 0
        # up to rounding of either sign; a negative one would make K or Kbar
        # NaN or break K^2 <= E2
        for shape in ((2, 9, 9, 1), (2, 1, 1, 9)) * 10:
            v = HorizontalField(rng.standard_normal(shape) * np.ones(grid8.shape),
                                grid8)
            rep = norm_report(v)
            assert np.isfinite([rep.E2, rep.K, rep.Kbar]).all()
            assert rep.K ** 2 <= rep.E2

    def test_scaling(self, grid8, rng):
        v = raw_field(grid8, rng)
        for norm in (norm_H, norm_V, norm_K, norm_L6,
                     lambda v: norm_report(v).Kbar):
            assert norm(3.0 * v) == pytest.approx(3.0 * norm(v), rel=1e-12)

    def test_determinism(self, grid8, rng):
        v = raw_field(grid8, rng)
        assert norm_V(v) == norm_V(v.copy())


class TestNormReport:
    def test_roundtrip_fields(self, grid8, rng):
        rep = norm_report(raw_field(grid8, rng))
        assert rep.H2 >= 0 and rep.E2 >= 0 and rep.K ** 2 <= rep.E2 * (1 + 1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            NormReport(H2=-1.0, E2=1.0, J=0.0, K=0.0, Kbar=0.0)

    def test_rejects_K_above_V(self):
        with pytest.raises(InputError):
            NormReport(H2=1.0, E2=1.0, J=0.0, K=2.0, Kbar=0.0)

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(4, 9), n2=st.integers(4, 9), nz=st.integers(4, 9),
           L1=st.floats(0.5, 2.0), L2=st.floats(0.5, 2.0), h=st.floats(0.5, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fused_pass_matches_separate_norms(self, n1, n2, nz, L1, L2, h, seed):
        grid = GridSpec(L1=L1, L2=L2, h=h, n1=n1, n2=n2, nz=nz)
        v = raw_field(grid, np.random.default_rng(seed))
        rep = norm_report(v)
        V, K, Kbar = _separate_loops(v)
        for got, want in ((rep.E2, V ** 2), (rep.K, K), (rep.Kbar, Kbar)):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        # one pass, one definition per quantity: exact
        assert rep.H2 == norm_H(v) ** 2
        assert rep.K ** 2 <= rep.E2
        assert (norm_V(v) ** 2, norm_K(v)) == (rep.E2, rep.K)
        J = float(np.sum((v.u1 ** 6 + v.u2 ** 6) * weights3(grid))) ** (1.0 / 6.0)
        assert rep.J == pytest.approx(J, rel=1e-14, abs=0.0)


#: norm_V and the reports of three raw fields and one smooth field on a 24^3
#: grid (slabs of 625 nodes) and on a grid whose (y, z) slabs have 12,221
#: nodes, as hex
_THREADS_SCRIPT = """\
import numpy as np
from pe3d.fields import HorizontalField
from pe3d.grid import GridSpec
from pe3d.norms import norm_report, norm_V
from pe3d.sampling import random_smooth_field
rng = np.random.default_rng(11)
for grid in (GridSpec(n1=24, n2=24, nz=24), GridSpec(n1=4, n2=120, nz=100)):
    fields = [HorizontalField(rng.standard_normal((2,) + grid.shape), grid)
              for _ in range(3)] + [random_smooth_field(rng, grid)]
    for v in fields:
        rep = norm_report(v)
        print(*(float(x).hex() for x in (norm_V(v), rep.H2, rep.E2, rep.J,
                                          rep.K, rep.Kbar)))
"""


def test_report_bytes_do_not_depend_on_blas_threads():
    outputs = [run_with_blas_threads(_THREADS_SCRIPT, threads)
               for threads in ("1", "2")]
    assert len(outputs[0].split()) == 48
    assert outputs[0] == outputs[1]
