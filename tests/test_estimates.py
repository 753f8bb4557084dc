"""Growth control, interval partitioning, decay/absorbing detection, and the
continuity probe — mostly against brute-force oracles on synthetic data."""

import math

import numpy as np
import pytest

from pe3d import estimates
from pe3d.dynamics import SimulationParams, integrate
from pe3d.errors import InputError
from pe3d.estimates import (AbsorbReport, TrajectoryDiagnostics,
                            check_growth_bound, continuity_probe,
                            detect_absorbing, eta_partition,
                            fit_growth_constant, gamma, measure_decay_time,
                            record_trajectory)
from pe3d.fields import HorizontalField
from pe3d.grid import GridSpec
from pe3d.norms import norm_report
from pe3d.sampling import random_smooth_field


def _diag(t, E2, **kw):
    t = np.asarray(t, dtype=float)
    E2 = np.asarray(E2, dtype=float)
    z = np.zeros_like(t)
    return TrajectoryDiagnostics(t=t, H2=kw.get("H2", z), E2=E2, J=z, K=z,
                                 Kbar=z, budget_slack=z)


def _brute_force_partition(t, E2, eta):
    """Independent greedy reimplementation used as the oracle."""
    out = []
    i, n = 0, len(t) - 1
    while i < n:
        j = i + 1
        while j < n:
            nxt = j + 1
            if t[nxt] - t[i] > 1.0:
                break
            if np.trapezoid(E2[i:nxt + 1], t[i:nxt + 1]) > eta:
                break
            j = nxt
        out.append((i, j))
        i = j
    return out


class TestTrajectoryDiagnostics:
    def test_rejects_decreasing_time(self):
        with pytest.raises(InputError):
            _diag([0.0, 0.2, 0.1], [1.0, 1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            _diag([0.0, 0.1], [1.0, np.nan])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            TrajectoryDiagnostics(t=np.zeros(3), H2=np.zeros(2),
                                  E2=np.zeros(3), J=np.zeros(3), K=np.zeros(3),
                                  Kbar=np.zeros(3), budget_slack=np.zeros(3))


class TestGamma:
    def test_zero_C_is_affine(self):
        assert gamma(2.0, 0.0, f_H2=0.25) == pytest.approx(2.25)

    def test_monotone_in_y(self):
        ys = np.linspace(0.0, 3.0, 20)
        vals = [gamma(float(y), 0.3, f_H2=0.1) for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_overflow_clamps_to_inf(self):
        assert gamma(100.0, 1.0) == math.inf

    def test_negative_y_rejected(self):
        with pytest.raises(InputError):
            gamma(-1.0, 1.0)


class TestEtaPartition:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.02, 0.3, size=40))
        E2 = rng.uniform(0.0, 0.4, size=40)
        eta = 0.05
        ivs = eta_partition(_diag(t, E2), eta)
        assert [(iv.i_start, iv.i_end) for iv in ivs] == \
            _brute_force_partition(t, E2, eta)

    def test_tiles_the_record(self):
        t = np.linspace(0.0, 3.0, 31)
        ivs = eta_partition(_diag(t, np.full(31, 0.01)), eta=0.05)
        assert ivs[0].i_start == 0 and ivs[-1].i_end == 30
        for a, b in zip(ivs, ivs[1:]):
            assert a.i_end == b.i_start

    def test_respects_unit_length_cap(self):
        t = np.linspace(0.0, 5.0, 51)
        ivs = eta_partition(_diag(t, np.zeros(51)), eta=1.0)
        assert all(iv.t_end - iv.t_start <= 1.0 + 1e-12 for iv in ivs)

    def test_degenerate_single_step_flagged(self):
        d = _diag([0.0, 0.5, 1.0], [10.0, 10.0, 10.0])
        ivs = eta_partition(d, eta=0.05)
        assert all(iv.degenerate for iv in ivs)

    def test_empty_and_bad_eta(self):
        with pytest.raises(InputError):
            eta_partition(_diag([], []), eta=0.05)
        with pytest.raises(InputError):
            eta_partition(_diag([0.0, 1.0], [0.0, 0.0]), eta=0.0)


class TestGrowthConstant:
    def test_zero_for_decaying_data(self):
        t = np.linspace(0.0, 2.0, 40)
        d = _diag(t, 0.04 * np.exp(-t))
        ivs = eta_partition(d, eta=0.05)
        C = fit_growth_constant(d, ivs)
        assert C == 0.0
        assert check_growth_bound(d, ivs, C)

    def test_fitted_C_is_minimal(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 2.0, 60)
        E2 = 0.02 * (1.0 + 0.5 * np.sin(7.0 * t) + 0.1 * rng.uniform(size=60))
        d = _diag(t, E2)
        ivs = eta_partition(d, eta=0.05)
        C = fit_growth_constant(d, ivs)
        assert C > 0.0 and math.isfinite(C)
        assert check_growth_bound(d, ivs, C)
        assert not check_growth_bound(d, ivs, C * (1.0 - 1e-6))

    def test_forcing_enters_fit_and_check_alike(self):
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, 2.0, 60)
        d = _diag(t, 0.02 * (1.0 + 0.5 * np.sin(7.0 * t)
                             + 0.1 * rng.uniform(size=60)))
        ivs = eta_partition(d, eta=0.05)
        C = fit_growth_constant(d, ivs, f_H2=0.005)
        assert 0.0 < C < fit_growth_constant(d, ivs)
        assert check_growth_bound(d, ivs, C, f_H2=0.005)
        assert not check_growth_bound(d, ivs, C)

    def test_zero_base_growth_is_a_violation(self):
        d = _diag([0.0, 0.1, 0.2], [0.0, 1.0, 1.0])
        with pytest.raises(InputError):
            fit_growth_constant(d, eta_partition(d, eta=10.0))

    def test_negative_forcing_rejected(self):
        d = _diag([0.0, 0.1, 0.2], [0.01, 0.02, 0.01])
        with pytest.raises(InputError, match="f_H2"):
            fit_growth_constant(d, eta_partition(d, eta=10.0), f_H2=-0.1)

    def test_empty_partition_rejected(self):
        d = _diag([0.0], [0.01])
        with pytest.raises(InputError, match="no full interval"):
            fit_growth_constant(d, eta_partition(d, eta=0.05))


class TestDecayAndAbsorb:
    def test_decay_time_known_crossing(self):
        t = np.linspace(0.0, 1.0, 11)
        E2 = np.array([1.0, 0.5, 0.2, 0.05, 0.05, 0.2, 0.05, 0.01,
                       0.01, 0.01, 0.01])
        # last sample above eps=0.1 is t=0.5, so the decay time is t=0.6
        assert measure_decay_time(_diag(t, E2), 0.1) == pytest.approx(0.6)

    def test_decay_time_never_reached(self):
        t = np.linspace(0.0, 1.0, 5)
        assert measure_decay_time(_diag(t, np.ones(5)), 0.1) is None

    def test_decay_time_already_below(self):
        t = np.linspace(0.0, 1.0, 5)
        assert measure_decay_time(_diag(t, np.zeros(5)), 0.1) == 0.0

    def test_absorbing_detection(self):
        t = np.linspace(0.0, 10.0, 101)
        d1 = _diag(t, 1.0 * np.exp(-t) + 0.05)
        d2 = _diag(t, 0.5 * np.exp(-t) + 0.08)
        rep = detect_absorbing([d1, d2], window=3.0)
        assert isinstance(rep, AbsorbReport)
        assert not any(rep.inconclusive)
        assert rep.K_ball >= 0.08
        assert all(T < 7.0 for T in rep.T_V)

    def test_absorbing_flags_trending_tail(self):
        t = np.linspace(0.0, 10.0, 101)
        rep = detect_absorbing([_diag(t, 0.01 * t)], window=3.0)
        assert rep.inconclusive == [True]

    def test_absorbing_rejects_short_window(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(InputError):
            detect_absorbing([_diag(t, np.ones(11))], window=5.0)


class TestRecordedTrajectories:
    def test_record_trajectory_reaches_t_end(self):
        grid = GridSpec(n1=6, n2=6, nz=6)
        v0 = random_smooth_field(np.random.default_rng(1), grid)
        params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4, t_end=0.05)
        diag, final = record_trajectory(v0, params)
        assert diag.t[0] == 0.0
        assert diag.t[-1] == pytest.approx(0.05)
        assert np.all(np.diff(diag.E2) <= 0.0)  # unforced flow decays
        assert final.is_finite()

    def test_budget_slack_sums_its_steps(self):
        # each sample's slack is the sum, over the steps since the previous
        # sample, of H2(n+1) + 2 dt nu E2(n+1) - H2(n), and each sample
        # holds the norm report of the state at its time
        grid = GridSpec(n1=6, n2=6, nz=6)
        v0 = random_smooth_field(np.random.default_rng(2), grid)
        params = SimulationParams(nu=0.7, dt_max=0.01, cfl=0.4, t_end=0.05)
        steps = []    # (t, norm report, slack) of every step's new state

        def on_step(before, after):
            old, new = norm_report(before.v), norm_report(after.v)
            steps.append((after.t, new, new.H2 + 2.0 * after.dt * params.nu
                          * new.E2 - old.H2))

        integrate(v0, params.t_end, params, on_step=on_step)
        assert len(steps) == 5
        for record_every in (1, 3):
            diag, _ = record_trajectory(v0, params, record_every=record_every)
            k = 1
            acc = 0.0
            for t, report, slack in steps:
                acc += slack
                if t == diag.t[k]:
                    assert diag.budget_slack[k] == acc
                    assert (diag.H2[k], diag.E2[k], diag.K[k]) == (
                        report.H2, report.E2, report.K)
                    k, acc = k + 1, 0.0
            assert k == len(diag) == 1 + -(-len(steps) // record_every)
            assert diag.budget_slack[0] == 0.0

    def test_one_norm_report_per_recorded_state(self, monkeypatch):
        calls = []

        def counting(v):
            calls.append(1)
            return norm_report(v)

        monkeypatch.setattr(estimates, "norm_report", counting)
        grid = GridSpec(n1=6, n2=6, nz=6)
        v0 = random_smooth_field(np.random.default_rng(1), grid)
        params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4, t_end=0.05)
        diag, _ = record_trajectory(v0, params, record_every=1)
        assert len(calls) == len(diag)

    def test_record_every_thins_samples(self):
        grid = GridSpec(n1=6, n2=6, nz=6)
        v0 = random_smooth_field(np.random.default_rng(1), grid)
        params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4, t_end=0.05)
        dense, _ = record_trajectory(v0, params, record_every=1)
        thin, _ = record_trajectory(v0, params, record_every=2)
        assert len(thin) < len(dense)
        assert thin.t[-1] == pytest.approx(dense.t[-1])


class TestContinuityProbe:
    def test_ratios_bounded(self):
        grid = GridSpec(n1=6, n2=6, nz=6)
        rng = np.random.default_rng(4)
        v0 = random_smooth_field(rng, grid)
        w = random_smooth_field(rng, grid)
        params = SimulationParams(nu=0.1, dt_max=0.01, cfl=0.4)
        ratios = continuity_probe(v0, w, [1e-2, 1e-3], 0.05, params)
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        assert max(ratios) / min(ratios) < 3.0

    def test_zero_direction_rejected(self):
        grid = GridSpec(n1=6, n2=6, nz=6)
        v0 = random_smooth_field(np.random.default_rng(4), grid)
        with pytest.raises(InputError):
            continuity_probe(v0, HorizontalField.zeros(grid), [1e-2], 0.01,
                             SimulationParams())

    def test_bad_delta_rejected(self):
        grid = GridSpec(n1=6, n2=6, nz=6)
        v0 = random_smooth_field(np.random.default_rng(4), grid)
        with pytest.raises(InputError):
            continuity_probe(v0, v0, [0.0], 0.01, SimulationParams())
