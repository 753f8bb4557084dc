"""Norm quadratures against analytic oracles and their exact relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raw_field, run_with_blas_threads
from pe3d.errors import InputError
from pe3d.fields import HorizontalField
from pe3d.grid import GridSpec, along, diff_matrix, weights3
from pe3d.norms import (NormReport, inner_H, norm_H, norm_V, norm_V_K,
                        norm_report)


def norm_K(v):
    return norm_V_K(v)[1]


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
    grid = GridSpec(n1=n, n2=n, nz=n)
    X, Y, Z = grid.meshgrid()
    u1 = np.sin(np.pi * X) * np.sin(np.pi * Y) * np.cos(np.pi * Z / 2.0)
    return HorizontalField(np.stack([u1, np.zeros(grid.shape)]), grid)


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
        V_, K_ = norm_V_K(v)
        assert (V_ ** 2, K_) == (rep.E2, rep.K)
        assert norm_V(v) == V_
        J = float(np.sum((v.u1 ** 6 + v.u2 ** 6) * weights3(grid))) ** (1.0 / 6.0)
        assert rep.J == pytest.approx(J, rel=1e-14, abs=0.0)


#: the reports of three raw fields on a 24^3 grid (slabs of 625 nodes) and on
#: a grid whose (y, z) slabs have 12,221 nodes, as hex
_THREADS_SCRIPT = """\
import numpy as np
from pe3d.fields import HorizontalField
from pe3d.grid import GridSpec
from pe3d.norms import norm_report
rng = np.random.default_rng(11)
for grid in (GridSpec(n1=24, n2=24, nz=24), GridSpec(n1=4, n2=120, nz=100)):
    for _ in range(3):
        rep = norm_report(HorizontalField(rng.standard_normal((2,) + grid.shape), grid))
        print(*(float(x).hex() for x in (rep.H2, rep.E2, rep.J, rep.K, rep.Kbar)))
"""


def test_report_bytes_do_not_depend_on_blas_threads():
    outputs = [run_with_blas_threads(_THREADS_SCRIPT, threads)
               for threads in ("1", "2")]
    assert len(outputs[0].split()) == 30
    assert outputs[0] == outputs[1]
