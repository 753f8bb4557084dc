"""Kick sampling, chain mechanics, and Wasserstein distance (with an
assignment-problem oracle)."""

import copy
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import wasserstein_distance

from conftest import count_calls_everywhere, run_with_blas_threads
from pe3d import dynamics
from pe3d.dynamics import SimState, SimulationParams, solve_S
from pe3d.errors import InputError
from pe3d.fields import bc_residual
from pe3d.grid import GridSpec, laplacian_bc, weights3
from pe3d.kicks import (KickConfig, _grams, chain_rng, chain_step,
                        draw_kick, run_chain, wasserstein1)
from pe3d.linalg import weighted_cg
from pe3d.norms import _report, norm_H, norm_report, norm_V
from pe3d.projection import constraint_residual, project_H
from pe3d.sampling import mode_sum, random_smooth_field


def _lap2(xi):
    """|lap xi|^2 from the field itself."""
    lap = laplacian_bc(xi.data, xi.grid)
    return float(np.sum((lap[0] ** 2 + lap[1] ** 2) * weights3(xi.grid)))


#: a kick and a short chain at 24^3; prints their bytes' hashes and kick_V2
_THREADS_SCRIPT = """\
import hashlib
import numpy as np
from pe3d.dynamics import SimulationParams
from pe3d.grid import GridSpec
from pe3d.kicks import KickConfig, chain_rng, draw_kick, run_chain
from pe3d.sampling import random_smooth_field
grid = GridSpec(n1=24, n2=24, nz=24)
cfg = KickConfig(T=0.01, R=0.25, n_modes=3, N=3, burn_in=0)
d = draw_kick(chain_rng(5, 0), grid, cfg)
tr = run_chain(cfg, SimulationParams(dt_max=5e-3),
               random_smooth_field(np.random.default_rng(1), grid), 5)
rows = np.column_stack([tr.H2, tr.E2, tr.J, tr.K, tr.kick_V2])
print(hashlib.sha256(d.xi.data.tobytes()).hexdigest(), repr(d.V2),
      hashlib.sha256(rows.tobytes()).hexdigest())
"""


@pytest.fixture(scope="module")
def grid6():
    return GridSpec(n1=6, n2=6, nz=6)


#: the base seed of the kick streams drawn with ``kick_cfg``
SEED = 3


@pytest.fixture(scope="module")
def kick_cfg():
    return KickConfig(T=0.05, R=0.25, n_modes=2, N=8, burn_in=2)


@pytest.fixture(scope="module")
def params():
    return SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4)


class TestKickDraws:
    def test_config_validation(self):
        with pytest.raises(InputError):
            KickConfig(T=-1.0)
        with pytest.raises(InputError):
            KickConfig(R=-1.0)
        with pytest.raises(InputError):
            KickConfig(N=10, burn_in=10)

    def test_bounds_hold_on_many_draws(self, grid6, kick_cfg):
        rng = chain_rng(SEED, 0)
        for _ in range(100):
            d = draw_kick(rng, grid6, kick_cfg)
            assert _lap2(d.xi) <= kick_cfg.R * (1.0 + 1e-12)
            assert d.V2 <= kick_cfg.R * (1.0 + 1e-12)
            assert d.V2 == pytest.approx(norm_V(d.xi) ** 2, rel=1e-12)

    def test_kicks_live_in_H(self, grid6, kick_cfg):
        xi = draw_kick(chain_rng(SEED, 1), grid6, kick_cfg).xi
        assert bc_residual(xi) == 0.0
        assert constraint_residual(xi) < 1e-10

    def test_zero_R_gives_zero_kick(self, grid6):
        cfg = KickConfig(T=0.1, R=0.0, N=4, burn_in=0)
        d = draw_kick(chain_rng(0, 0), grid6, cfg)
        assert np.all(d.xi.data == 0.0) and d.V2 == 0.0 and not d.rescaled

    def test_draws_are_seed_deterministic(self, grid6, kick_cfg):
        a = draw_kick(chain_rng(SEED, 2), grid6, kick_cfg).xi
        b = draw_kick(chain_rng(SEED, 2), grid6, kick_cfg).xi
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("grid", [GridSpec(n1=8, n2=8, nz=8),
                                      GridSpec(L1=1.5, L2=0.8, h=1.2,
                                               n1=12, n2=10, nz=7)])
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_grams_are_the_norms_of_the_mode_sums(self, grid, n_modes):
        # c^T G c against the norms of the field mode_sum(c) builds
        g_lap, g_V = _grams(grid, n_modes)
        rng = np.random.default_rng(n_modes)
        for _ in range(5):
            c = rng.standard_normal(n_modes ** 3)
            xi = mode_sum(grid, n_modes, c)
            assert c @ g_lap @ c == pytest.approx(_lap2(xi), rel=1e-12)
            assert c @ g_V @ c == pytest.approx(norm_V(xi) ** 2, rel=1e-12)

    def test_V_cap_binds_on_a_large_box(self):
        # on a box of side 16 the V norm exceeds the Laplacian norm, so the
        # V-norm safeguard rescales some draws; every draw's V2 is the
        # V norm of its field, and both bounds hold on the field
        grid = GridSpec(L1=16.0, L2=16.0, h=16.0, n1=6, n2=6, nz=6)
        cfg = KickConfig(T=0.1, R=0.25, n_modes=2)
        rng = chain_rng(1, 0)
        draws = [draw_kick(rng, grid, cfg) for _ in range(20)]
        assert any(d.V2 == cfg.R and d.rescaled for d in draws)
        for d in draws:
            assert d.V2 == pytest.approx(norm_V(d.xi) ** 2, rel=1e-12)
            assert norm_V(d.xi) ** 2 <= cfg.R * (1.0 + 1e-12)
            assert _lap2(d.xi) <= cfg.R * (1.0 + 1e-12)

    def test_bytes_do_not_depend_on_blas_threads(self):
        out = [run_with_blas_threads(_THREADS_SCRIPT, threads)
               for threads in ("1", "2")]
        assert out[0] == out[1]


class TestChain:
    def test_trace_deterministic(self, grid6, kick_cfg, params):
        v0 = random_smooth_field(np.random.default_rng(0), grid6)
        t1 = run_chain(kick_cfg, params, v0, SEED, chain_index=1)
        t2 = run_chain(kick_cfg, params, v0, SEED, chain_index=1)
        assert np.array_equal(t1.n, np.arange(1, kick_cfg.N + 1))
        assert np.array_equal(t1.E2, t2.E2)
        assert np.array_equal(t1.H2, t2.H2)

    def test_rows_are_the_norms_of_the_chain_states(self, grid6, kick_cfg, params):
        # replay the chain step by step: each row holds the public norms of
        # X_n, bit for bit, and the draw that made it
        v0 = random_smooth_field(np.random.default_rng(4), grid6)
        trace = run_chain(kick_cfg, params, v0, SEED, chain_index=2)
        state, rng = SimState(t=0.0, v=project_H(v0)), chain_rng(SEED, 2)
        for i in range(kick_cfg.N):
            state, draw = chain_step(state, rng, kick_cfg, params)
            X = state.v
            assert (trace.H2[i], trace.E2[i], trace.K[i]) == (
                norm_H(X) ** 2, norm_V(X) ** 2, _report(X, kbar=False).K)
            assert trace.J[i] == norm_report(X).J
            assert (trace.kick_V2[i], trace.rescaled[i]) == (draw.V2, draw.rescaled)

    def test_one_projection_and_one_certification_per_chain(
            self, grid6, kick_cfg, params, monkeypatch):
        # a chain is one trajectory: project_H runs on its start only (a
        # step projects its own solve in place, and a kicked state is not
        # re-projected), and only its first step hands its diffusion solve
        # to the weighted CG.  Every pe3d name for either function counts,
        # so no module can call one past the count
        projections = count_calls_everywhere(monkeypatch, project_H)
        certifications = count_calls_everywhere(monkeypatch, weighted_cg)
        steps = count_calls_everywhere(monkeypatch, dynamics.step)
        run_chain(kick_cfg, params,
                  random_smooth_field(np.random.default_rng(5), grid6), SEED)
        assert len(projections) == len(certifications) == 1
        assert len(steps) >= 2 * kick_cfg.N

    def test_chain_states_lie_in_H(self, grid6, kick_cfg, params):
        # the premise that makes a re-projection of the kicked state
        # redundant: every X_n is BC-clean and meets the constraint
        state = SimState(t=0.0, v=project_H(
            random_smooth_field(np.random.default_rng(6), grid6)))
        rng = chain_rng(SEED, 0)
        for _ in range(kick_cfg.N):
            state, _ = chain_step(state, rng, kick_cfg, params)
            assert bc_residual(state.v) == 0.0
            assert constraint_residual(state.v) <= 1e-12

    def test_trace_matches_the_projected_replay(self, grid6, kick_cfg, params):
        # X_n = solve_S(X_{n-1}) + xi_n, where every kick's flow starts a
        # new trajectory from project_H of the kicked state: the one kicked
        # trajectory differs from it by rounding only
        v0 = random_smooth_field(np.random.default_rng(7), grid6)
        trace = run_chain(kick_cfg, params, v0, SEED, chain_index=3)
        X, rng = v0, chain_rng(SEED, 3)
        for i in range(kick_cfg.N):
            X = solve_S(X, kick_cfg.T, params)
            draw = draw_kick(rng, grid6, kick_cfg)
            X = X + draw.xi
            rep = _report(X, kbar=False)
            for got, want in zip((trace.H2[i], trace.E2[i], trace.J[i], trace.K[i]),
                                 (rep.H2, rep.E2, rep.J, rep.K)):
                assert abs(got - want) <= 1e-13 * abs(want)
            assert (trace.kick_V2[i], trace.rescaled[i]) == (draw.V2, draw.rescaled)

    def test_certifying_every_chain_step_changes_no_byte(self, grid6, kick_cfg,
                                                        params, monkeypatch):
        v0 = random_smooth_field(np.random.default_rng(8), grid6)

        def trace_bytes():
            tr = run_chain(kick_cfg, params, v0, SEED, chain_index=1)
            return np.column_stack([tr.H2, tr.E2, tr.J, tr.K, tr.kick_V2,
                                    tr.rescaled]).tobytes()

        once = trace_bytes()
        certifications = count_calls_everywhere(monkeypatch, weighted_cg)
        steps = count_calls_everywhere(monkeypatch, dynamics.step)
        real = dynamics._implicit_diffusion
        monkeypatch.setattr(dynamics, "_implicit_diffusion",
                            lambda w, dt, nu, certify: real(w, dt, nu, True))
        assert trace_bytes() == once
        assert len(certifications) == len(steps) >= 2 * kick_cfg.N

    def test_chain_indices_decorrelate(self, grid6, kick_cfg, params):
        v0 = random_smooth_field(np.random.default_rng(0), grid6)
        t1 = run_chain(kick_cfg, params, v0, SEED, chain_index=0)
        t2 = run_chain(kick_cfg, params, v0, SEED, chain_index=1)
        assert not np.array_equal(t1.E2, t2.E2)

    def test_checkpoint_restart_markov_surrogate(self, grid6, kick_cfg, params):
        # the future depends only on (X_k, rng state): duplicating both at
        # step k and continuing gives identical traces
        state = SimState(t=0.0, v=project_H(
            random_smooth_field(np.random.default_rng(1), grid6)))
        rng = chain_rng(SEED, 0)
        for _ in range(3):
            state, _ = chain_step(state, rng, kick_cfg, params)
        fork, fork_rng = replace(state, v=state.v.copy()), copy.deepcopy(rng)
        tail_a, tail_b = [], []
        for _ in range(3):
            state, _ = chain_step(state, rng, kick_cfg, params)
            tail_a.append(state.v.data.copy())
        for _ in range(3):
            fork, _ = chain_step(fork, fork_rng, kick_cfg, params)
            tail_b.append(fork.v.data.copy())
        for a, b in zip(tail_a, tail_b):
            assert np.array_equal(a, b)

    def test_boundedness_induction_inequality(self, grid6, kick_cfg, params):
        # |X_{n+1}|_V^2 <= 2 |S(T) X_n|_V^2 + 2 |xi|_V^2 each step
        X = project_H(random_smooth_field(np.random.default_rng(2), grid6))
        rng = chain_rng(SEED, 0)
        for _ in range(4):
            flowed = solve_S(X, kick_cfg.T, params)
            draw = draw_kick(rng, grid6, kick_cfg)
            X = project_H(flowed + draw.xi)
            lhs = norm_V(X) ** 2
            rhs = 2.0 * norm_V(flowed) ** 2 + 2.0 * draw.V2
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


class TestWasserstein:
    def test_self_distance_zero(self, rng):
        s = rng.standard_normal(50)
        assert wasserstein1(s, s) == 0.0

    def test_point_masses(self):
        assert wasserstein1([1.5], [4.0]) == pytest.approx(2.5)

    def test_four_sample_sets_vs_assignment_oracle(self):
        # equal-size empirical W1 equals the optimal assignment cost / n
        a = np.array([0.1, 1.2, 3.4, 5.0])
        b = np.array([0.7, 0.9, 2.0, 6.5])
        cost = np.abs(a[:, None] - b[None, :])
        rows, cols = linear_sum_assignment(cost)
        oracle = cost[rows, cols].sum() / len(a)
        assert wasserstein1(a, b) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("sizes", [(30, 30), (17, 45)])
    def test_matches_scipy(self, rng, sizes):
        a = rng.standard_normal(sizes[0])
        b = 0.5 + rng.standard_normal(sizes[1])
        assert wasserstein1(a, b) == pytest.approx(
            wasserstein_distance(a, b), rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            wasserstein1([], [1.0])
