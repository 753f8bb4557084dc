"""Nonlinear term, time stepper, and solution-operator properties."""

import platform
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raw_field, ref_second_diff, run_with_blas_threads
from pe3d import dynamics, norms
from pe3d import grid as grid_mod
from pe3d.dynamics import (SimState, SimulationParams, _derivatives_w3,
                           _implicit_diffusion, _separable_solve, cfl_dt,
                           integrate, nonlinear_B, solve_S, step)
from pe3d.errors import DivergenceError, InputError, SolverError
from pe3d.fields import HorizontalField, apply_bc, zero_dirichlet
from pe3d.grid import GridSpec, along, diff_matrix, diff_sbp
from pe3d.kicks import KickConfig, run_chain
from pe3d.norms import inner_H, norm_H, norm_V, norm_report
from pe3d.projection import project_H
from pe3d.sampling import random_smooth_field


@pytest.fixture(scope="module")
def smooth8():
    grid = GridSpec(n1=8, n2=8, nz=8)
    return project_H(random_smooth_field(np.random.default_rng(7), grid))


class TestSimulationParams:
    @pytest.mark.parametrize("kw", [dict(nu=0.0), dict(cfl=1.5),
                                    dict(dt_max=-1.0), dict(t_end=-1.0),
                                    dict(cfl=0.0)])
    def test_invalid_rejected(self, kw):
        with pytest.raises(InputError):
            SimulationParams(**kw)


def _B(v_adv, v):
    """nonlinear_B with its inputs: the vertical velocity of v_adv and the
    horizontal derivatives of v."""
    return nonlinear_B(v_adv, v, _derivatives_w3(v_adv)[1],
                       _derivatives_w3(v)[0])


def _reference_B(v_adv, v):
    """The skew-symmetrized advection component by component, each
    derivative taken on its own."""
    g = v.grid
    w3 = _derivatives_w3(v_adv)[1]
    a1, a2 = v_adv.u1, v_adv.u2
    out = np.empty_like(v.data)
    for c in range(2):
        vc = v.data[c]
        adv = (a1 * diff_sbp(vc, g.d1, 0)
               + a2 * diff_sbp(vc, g.d2, 1)
               + w3 * diff_sbp(vc, g.dz, 2))
        dvg = (diff_sbp(a1 * vc, g.d1, 0)
               + diff_sbp(a2 * vc, g.d2, 1)
               + diff_sbp(w3 * vc, g.dz, 2))
        out[c] = 0.5 * (adv + dvg)
    return out


def _formula_B(v_adv, v, w3, dv):
    """nonlinear_B as a formula with a fresh array per term, in the order
    of operations that nonlinear_B keeps while accumulating into dv."""
    g = v.grid
    a1, a2 = v_adv.u1, v_adv.u2
    mx = diff_matrix("sbp", g.n1, g.d1)
    my = diff_matrix("sbp", g.n2, g.d2)
    mz = diff_matrix("sbp", g.nz, g.dz)
    vd = v.data
    adv = a1 * dv[0] + a2 * dv[1] + w3 * along(mz, vd, 3)
    dvg = (along(mx, a1 * vd, 1) + along(my, a2 * vd, 2)
           + along(mz, w3 * vd, 3))
    return 0.5 * (adv + dvg)


class TestNonlinearTerm:
    def test_passed_w3_matches_reference(self, grid12, rng):
        v_adv, v = raw_field(grid12, rng), raw_field(grid12, rng)
        ref = _reference_B(v_adv, v)
        assert _B(v_adv, v).data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid", [GridSpec(n1=12, n2=12, nz=12),
                                      GridSpec(L1=2.0, L2=0.7, h=1.3,
                                               n1=24, n2=20, nz=12)])
    def test_in_place_accumulation_matches_formula(self, grid, rng):
        # dv is consumed, so each call gets its own
        v_adv, v = raw_field(grid, rng), raw_field(grid, rng)
        w3 = _derivatives_w3(v_adv)[1]
        got = nonlinear_B(v_adv, v, w3, _derivatives_w3(v)[0])
        ref = _formula_B(v_adv, v, w3, _derivatives_w3(v)[0])
        assert got.data.tobytes() == ref.tobytes()

    def test_energy_neutrality(self, smooth8):
        # the skew-symmetrized form pairs to zero against the state itself
        B = _B(smooth8, smooth8)
        scale = norm_H(smooth8) ** 2 * max(norm_V(smooth8), 1.0)
        assert abs(inner_H(B, smooth8)) < 1e-12 * max(scale, 1.0)

    def test_bilinearity_in_second_argument(self, smooth8):
        w = project_H(random_smooth_field(np.random.default_rng(8), smooth8.grid))
        lhs = _B(smooth8, smooth8 + 2.0 * w)
        rhs = _B(smooth8, smooth8) + 2.0 * _B(smooth8, w)
        assert np.allclose(lhs.data, rhs.data, atol=1e-12)

    def test_zero_state_maps_to_zero(self, grid8):
        z = HorizontalField.zeros(grid8)
        assert np.all(_B(z, z).data == 0.0)

    def test_shape_mismatch(self, grid8, grid12, rng):
        with pytest.raises(InputError):
            _B(HorizontalField.zeros(grid8), HorizontalField.zeros(grid12))


def _dense_system(grid, dt_nu, w):
    """(I - dt nu lap_bc) assembled column by column from the moveaxis
    reference stencils (not the production matrices), the right-hand side,
    and the mask of free (non-Dirichlet) unknowns."""
    n = w.data.size
    A = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        data = e.reshape(w.data.shape).copy()
        lap = (ref_second_diff(data, grid.d1, 1, "dirichlet")
               + ref_second_diff(data, grid.d2, 2, "dirichlet")
               + ref_second_diff(data, grid.dz, 3, "neumann"))
        A[:, j] = zero_dirichlet(data - dt_nu * lap).ravel()
    rhs = zero_dirichlet(w.data.copy()).ravel()
    free = zero_dirichlet(np.ones_like(w.data)).ravel().astype(bool)
    return A, rhs, free


def _count_cg(monkeypatch):
    """Route dynamics' weighted_cg through a counter; returns the lists of
    its calls and of its operator applications."""
    calls, applies = [], []
    cg = dynamics.weighted_cg

    def counting(apply_op, *args, **kwargs):
        calls.append(1)

        def counted(x):
            applies.append(1)
            return apply_op(x)
        return cg(counted, *args, **kwargs)

    monkeypatch.setattr(dynamics, "weighted_cg", counting)
    return calls, applies


def _six_steps():
    """A 16^3 integration of exactly six steps: the field, duration and
    parameters."""
    grid = GridSpec(n1=16, n2=16, nz=16)
    v0 = random_smooth_field(np.random.default_rng(3), grid)
    return v0, 6e-3, SimulationParams(nu=1.0, dt_max=1e-3, cfl=1.0)


class TestImplicitDiffusion:
    def test_matches_dense_solve(self, rng):
        # assemble (I - dt nu lap_bc) column by column on a minimal grid and
        # compare against numpy's direct solver, with and without the CG check
        grid = GridSpec(n1=4, n2=4, nz=4)
        dt, nu = 0.01, 0.7
        w = apply_bc(raw_field(grid, rng))
        A, rhs, free = _dense_system(grid, dt * nu, w)
        # restrict to the free (non-Dirichlet) unknowns to keep A invertible
        expected = np.zeros(rhs.size)
        expected[free] = np.linalg.solve(A[np.ix_(free, free)], rhs[free])
        for certify in (False, True):
            got = _implicit_diffusion(w.copy(), dt, nu, certify)
            assert np.allclose(got.data.ravel(), expected, rtol=1e-8,
                               atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(4, 7), n2=st.integers(4, 7), nz=st.integers(4, 7),
           L1=st.floats(0.5, 2.0), L2=st.floats(0.5, 2.0), h=st.floats(0.5, 2.0),
           dt_nu=st.floats(1e-4, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_separable_solve_matches_dense(self, n1, n2, nz, L1, L2, h,
                                           dt_nu, seed):
        # the fast-diagonalization solve alone, without the CG check,
        # against the dense operator on random grids, extents and dt nu
        grid = GridSpec(L1=L1, L2=L2, h=h, n1=n1, n2=n2, nz=nz)
        w = apply_bc(raw_field(grid, np.random.default_rng(seed)))
        A, rhs, free = _dense_system(grid, dt_nu, w)
        got = _separable_solve(zero_dirichlet(w.data.copy()), grid, dt_nu).ravel()
        assert np.all(got[~free] == 0.0)
        res = np.linalg.norm(A @ got - rhs) / np.linalg.norm(rhs)
        assert res <= 1e-12
        expected = np.linalg.solve(A[np.ix_(free, free)], rhs[free])
        assert np.allclose(got[free], expected, rtol=1e-10,
                           atol=1e-10 * np.abs(expected).max())

    def test_one_operator_application_per_solve(self, monkeypatch):
        # only a trajectory's first step hands its separable solve to CG;
        # it passes CG's initial residual test, so CG applies the stencil
        # once and never iterates
        calls, applies = _count_cg(monkeypatch)
        state = integrate(*_six_steps())
        assert state.step_count == 6
        assert len(calls) == len(applies) == 1

    def test_certifying_every_step_changes_no_byte(self, monkeypatch):
        once = integrate(*_six_steps())
        calls, _ = _count_cg(monkeypatch)
        real = dynamics._implicit_diffusion
        monkeypatch.setattr(dynamics, "_implicit_diffusion",
                            lambda w, dt, nu, certify: real(w, dt, nu, True))
        every = integrate(*_six_steps())
        assert len(calls) == every.step_count == once.step_count == 6
        assert every.v.data.tobytes() == once.v.data.tobytes()

    @pytest.mark.parametrize("corrupt", ["back", "lam"])
    def test_corrupted_basis_raises_when_cache_fills(self, monkeypatch,
                                                     corrupt):
        # a back transform scaled by 1 + 1e-9 no longer inverts the forward
        # one, and eigenvalues scaled by 1 + 1e-9 no longer match their
        # eigenvectors; the cache must not hold a basis that passed before
        pairs = grid_mod._free_eigenpairs

        def corrupted(n, d, top):
            fwd, back, lam = pairs(n, d, top)
            if corrupt == "back":
                return fwd, back * (1.0 + 1e-9), lam
            return fwd, back, lam * (1.0 + 1e-9)

        monkeypatch.setattr(grid_mod, "_free_eigenpairs", corrupted)
        grid_mod.laplacian_eigenbasis.cache_clear()
        try:
            with pytest.raises(SolverError, match="laplacian_eigenbasis"):
                grid_mod.laplacian_eigenbasis(GridSpec(n1=8, n2=8, nz=8))
        finally:
            grid_mod.laplacian_eigenbasis.cache_clear()

    def test_decreases_H_norm(self, smooth8):
        out = _implicit_diffusion(smooth8.copy(), 0.05, 1.0, False)
        assert norm_H(out) < norm_H(smooth8)


class TestStepper:
    def test_cfl_dt_caps_and_scales(self, smooth8):
        params = SimulationParams(dt_max=0.5, cfl=0.4)
        z = HorizontalField.zeros(smooth8.grid)
        assert cfl_dt(z, params, _derivatives_w3(z)[1]) == 0.5
        big = 1e6 * smooth8
        assert cfl_dt(big, params, _derivatives_w3(big)[1]) < 1e-4

    def test_energy_budget_slack_nonpositive(self, smooth8):
        # backward-Euler dissipation gives the inequality a strict margin
        params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4)
        state = SimState(t=0.0, v=smooth8)
        for _ in range(5):
            H2_old = norm_H(state.v) ** 2
            state = step(state, params)
            rep = norm_report(state.v)
            slack = rep.H2 + 2.0 * state.dt * params.nu * rep.E2 - H2_old
            assert slack <= 1e-12 * H2_old

    def test_step_evaluates_u3_once(self, monkeypatch):
        # cfl_dt and nonlinear_B share one vertical velocity, built from the
        # step's own x- and y-derivatives by _derivatives_w3 (its oracle is
        # in test_fields), and the advection is that of nonlinear_B called
        # alone, byte for byte
        seen = []

        def spy(name):
            real = getattr(dynamics, name)

            def wrapped(*args, **kw):
                seen.append((args, kw, real(*args, **kw)))
                return seen[-1][2]
            monkeypatch.setattr(dynamics, name, wrapped)

        spy("cfl_dt")
        spy("nonlinear_B")
        for grid in (GridSpec(n1=12, n2=12, nz=12),
                     GridSpec(L1=2.0, L2=0.7, h=1.3, n1=24, n2=20, nz=12)):
            v = project_H(random_smooth_field(np.random.default_rng(3), grid))
            seen.clear()
            step(SimState(t=0.0, v=v), SimulationParams(nu=1.0, dt_max=0.01))
            (cfl_args, _, _), (_, b_kw, B) = seen
            assert cfl_args[2] is b_kw["w3"]
            assert b_kw["w3"].tobytes() == _derivatives_w3(v)[1].tobytes()
            assert B.data.tobytes() == _B(v, v).data.tobytes()

    def test_step_working_set(self):
        # a step after the first, with forcing, allocates at most five
        # state-sized arrays at once, its result included
        grid = GridSpec(n1=24, n2=24, nz=24)
        v = project_H(random_smooth_field(np.random.default_rng(3), grid))
        params = SimulationParams(nu=1.0, dt_max=2e-3)
        state = step(SimState(t=0.0, v=v), params)
        forcing = 0.01 * random_smooth_field(np.random.default_rng(4), grid)
        assert state.step_count == 1
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            step(state, params, forcing=forcing)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * state.v.data.nbytes

    def test_dt_cap_landing(self, smooth8):
        params = SimulationParams(dt_max=0.01, cfl=1.0)
        state = SimState(t=0.0, v=smooth8)
        state = step(state, params, dt_cap=0.0033)
        assert state.t == pytest.approx(0.0033)

    def test_solve_S_deterministic(self, smooth8):
        params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4)
        a = solve_S(smooth8, 0.05, params)
        b = solve_S(smooth8, 0.05, params)
        assert np.array_equal(a.data, b.data)

    def test_solve_S_zero_duration(self, smooth8):
        params = SimulationParams()
        out = solve_S(smooth8, 0.0, params)
        assert norm_H(out - smooth8) < 1e-12

    def test_solve_S_negative_duration(self, smooth8):
        with pytest.raises(InputError):
            solve_S(smooth8, -1.0, SimulationParams())

    def test_semigroup_property(self, smooth8):
        # S(t+s) = S(t) S(s) when the step sequence is identical: compare a
        # single run against a checkpointed rerun with matching dt caps
        params = SimulationParams(nu=1.0, dt_max=0.005, cfl=1.0)
        full = solve_S(smooth8, 0.02, params)
        half = solve_S(smooth8, 0.01, params)
        again = solve_S(half, 0.01, params)
        assert norm_H(again - full) < 1e-10 * max(norm_H(full), 1.0)

    def test_constant_forcing_balances(self, grid8):
        # with constant forcing the state approaches a nonzero equilibrium
        f = 0.1 * random_smooth_field(np.random.default_rng(9), grid8)
        params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4)
        out = solve_S(HorizontalField.zeros(grid8), 1.0, params,
                      forcing_at=lambda t: f)
        assert norm_H(out) > 0.0

    def test_zero_state_stays_zero(self, grid8):
        # no source and no state: every step is exactly zero
        z = HorizontalField.zeros(grid8)
        out = solve_S(z, 0.02, SimulationParams(dt_max=0.005),
                      forcing_at=lambda t: z)
        assert not out.data.any()

    def test_divergence_error_carries_diagnostics(self):
        e = DivergenceError("boom", diagnostics={"t": 1.0})
        assert e.diagnostics["t"] == 1.0


#: a short 24^3 integration; prints the step count and the final state's hash
_THREADS_SCRIPT = """\
import hashlib
import numpy as np
from pe3d.dynamics import SimulationParams, integrate
from pe3d.grid import GridSpec
from pe3d.sampling import random_smooth_field
grid = GridSpec(n1=24, n2=24, nz=24)
v0 = random_smooth_field(np.random.default_rng(5), grid)
state = integrate(v0, 0.01, SimulationParams(dt_max=2e-3))
print(state.step_count, hashlib.sha256(state.v.data.tobytes()).hexdigest())
"""


class TestIntegrate:
    def test_solve_S_computes_no_norm_report(self, smooth8, monkeypatch):
        # every V, K and Kbar sum goes through norms._sums
        calls = []
        sums = norms._sums

        def counting(v, kbar):
            calls.append(1)
            return sums(v, kbar)

        monkeypatch.setattr(norms, "_sums", counting)
        solve_S(smooth8, 0.05, SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4))
        assert calls == []

    def test_on_step_sees_one_record_per_step(self, smooth8):
        params = SimulationParams(nu=1.0, dt_max=0.007, cfl=0.4)
        seen = []

        def on_step(before, after):
            assert after.step_count == before.step_count + 1
            assert after.t == before.t + after.dt
            seen.append(after.dt)

        state = integrate(smooth8, 0.05, params, on_step=on_step)
        assert len(seen) == state.step_count > 1
        assert all(0.0 < dt <= params.dt_max for dt in seen)
        assert state.t == pytest.approx(0.05, rel=1e-14)
        # the recorded steps are the steps of the unrecorded run
        assert np.array_equal(state.v.data, solve_S(smooth8, 0.05, params).data)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap top pad is a glibc malloc setting")
    def test_steps_do_not_fault_the_heap_back_in(self):
        # integrate keeps freed heap at the top instead of handing it back
        # to the OS, so steady steps at 24^3 touch no new pages (without
        # the pad: hundreds of page faults per step)
        import resource
        grid = GridSpec(n1=24, n2=24, nz=24)
        v = random_smooth_field(np.random.default_rng(0), grid)
        params = SimulationParams(nu=1.0, dt_max=1.5e-4, cfl=0.5)
        integrate(v, 3e-4, params, on_step=lambda *a: None)
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        state = integrate(v, 20 * 1.5e-4, params, on_step=lambda *a: None)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        assert faults < 20 * state.step_count

    def test_state_bytes_do_not_depend_on_blas_threads(self):
        # every difference operator is a BLAS matmul
        digests = [run_with_blas_threads(_THREADS_SCRIPT, threads).split()
                   for threads in ("1", "2")]
        assert int(digests[0][0]) > 1
        assert digests[0] == digests[1]

    def test_run_chain_rejects_zero_T(self, smooth8):
        with pytest.raises(InputError, match="T must be positive"):
            run_chain(KickConfig(T=0.0, N=4, burn_in=0), SimulationParams(),
                      smooth8)
