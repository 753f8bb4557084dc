"""Kick sampling, chain mechanics, and Wasserstein distance (with an
assignment-problem oracle)."""

import copy

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import wasserstein_distance

from pe3d.dynamics import SimulationParams, solve_S
from pe3d.errors import InputError
from pe3d.fields import bc_residual, laplacian3
from pe3d.grid import GridSpec, weights3
from pe3d.kicks import (KickConfig, chain_rng, chain_step, draw_kick,
                        run_chain, wasserstein1)
from pe3d.norms import norm_H, norm_report, norm_V, norm_V_K
from pe3d.projection import constraint_residual, project_H
from pe3d.sampling import random_smooth_field


@pytest.fixture(scope="module")
def grid6():
    return GridSpec(n1=6, n2=6, nz=6)


@pytest.fixture(scope="module")
def kick_cfg():
    return KickConfig(T=0.05, R=0.25, n_modes=2, seed=3, N=8, burn_in=2)


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
        rng = chain_rng(kick_cfg, 0)
        for _ in range(100):
            d = draw_kick(rng, grid6, kick_cfg)
            lap = laplacian3(d.xi)
            lap2 = float(np.sum((lap.u1 ** 2 + lap.u2 ** 2) * weights3(grid6)))
            assert lap2 <= kick_cfg.R * (1.0 + 1e-12)
            assert d.V2 <= kick_cfg.R * (1.0 + 1e-12)

    def test_kicks_live_in_H(self, grid6, kick_cfg):
        xi = draw_kick(chain_rng(kick_cfg, 1), grid6, kick_cfg).xi
        assert bc_residual(xi) == 0.0
        assert constraint_residual(xi) < 1e-10

    def test_zero_R_gives_zero_kick(self, grid6):
        cfg = KickConfig(T=0.1, R=0.0, N=4, burn_in=0)
        d = draw_kick(chain_rng(cfg, 0), grid6, cfg)
        assert np.all(d.xi.data == 0.0) and d.V2 == 0.0 and not d.rescaled

    def test_draws_are_seed_deterministic(self, grid6, kick_cfg):
        a = draw_kick(chain_rng(kick_cfg, 2), grid6, kick_cfg).xi
        b = draw_kick(chain_rng(kick_cfg, 2), grid6, kick_cfg).xi
        assert np.array_equal(a.data, b.data)


class TestChain:
    def test_trace_deterministic(self, grid6, kick_cfg, params):
        v0 = random_smooth_field(np.random.default_rng(0), grid6)
        t1 = run_chain(kick_cfg, params, v0, chain_index=1)
        t2 = run_chain(kick_cfg, params, v0, chain_index=1)
        assert np.array_equal(t1.n, np.arange(1, kick_cfg.N + 1))
        assert np.array_equal(t1.E2, t2.E2)
        assert np.array_equal(t1.H2, t2.H2)

    def test_rows_are_the_norms_of_the_chain_states(self, grid6, kick_cfg, params):
        # replay the chain step by step: each row holds the public norms of
        # X_n, bit for bit, and the draw that made it
        v0 = random_smooth_field(np.random.default_rng(4), grid6)
        trace = run_chain(kick_cfg, params, v0, chain_index=2)
        X, rng = project_H(v0), chain_rng(kick_cfg, 2)
        for i in range(kick_cfg.N):
            X, draw = chain_step(X, rng, kick_cfg, params)
            V, K = norm_V_K(X)
            assert (trace.H2[i], trace.E2[i], trace.K[i]) == (norm_H(X) ** 2, V ** 2, K)
            assert trace.J[i] == norm_report(X).J
            assert (trace.kick_V2[i], trace.rescaled[i]) == (draw.V2, draw.rescaled)

    def test_chain_indices_decorrelate(self, grid6, kick_cfg, params):
        v0 = random_smooth_field(np.random.default_rng(0), grid6)
        t1 = run_chain(kick_cfg, params, v0, chain_index=0)
        t2 = run_chain(kick_cfg, params, v0, chain_index=1)
        assert not np.array_equal(t1.E2, t2.E2)

    def test_checkpoint_restart_markov_surrogate(self, grid6, kick_cfg, params):
        # the future depends only on (X_k, rng state): duplicating both at
        # step k and continuing gives identical traces
        X = project_H(random_smooth_field(np.random.default_rng(1), grid6))
        rng = chain_rng(kick_cfg, 0)
        for _ in range(3):
            X, _ = chain_step(X, rng, kick_cfg, params)
        fork_X, fork_rng = X.copy(), copy.deepcopy(rng)
        tail_a, tail_b = [], []
        for _ in range(3):
            X, _ = chain_step(X, rng, kick_cfg, params)
            tail_a.append(X.data.copy())
        for _ in range(3):
            fork_X, _ = chain_step(fork_X, fork_rng, kick_cfg, params)
            tail_b.append(fork_X.data.copy())
        for a, b in zip(tail_a, tail_b):
            assert np.array_equal(a, b)

    def test_boundedness_induction_inequality(self, grid6, kick_cfg, params):
        # |X_{n+1}|_V^2 <= 2 |S(T) X_n|_V^2 + 2 |xi|_V^2 each step
        X = project_H(random_smooth_field(np.random.default_rng(2), grid6))
        rng = chain_rng(kick_cfg, 0)
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
