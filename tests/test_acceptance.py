"""Acceptance gate: the eight top-level criteria, each printing one
pass/fail line.  Heavy trajectory ensembles are computed once in
module-scoped fixtures and shared between criteria.

Nominal tolerances and run parameters (grid sizes, horizons, seeds, sample
counts) are pinned here; loosening them requires a deliberate edit.
"""

import contextlib

import numpy as np
import pytest

from conftest import PROJ_TOL, inner_H, raw_field, smallest_eigenvalue_A
from pe3d.dynamics import SimState, SimulationParams, step
from pe3d.estimates import (check_growth_bound, detect_absorbing,
                            eta_partition, fit_growth_constant,
                            measure_decay_time, record_trajectory,
                            continuity_probe)
from pe3d.fields import HorizontalField, apply_bc
from pe3d.grid import GridSpec
from pe3d.kicks import KickConfig, run_chain, wasserstein1
from pe3d.norms import norm_H, norm_report, norm_V
from pe3d.projection import constraint_residual, project_H
from pe3d.sampling import random_smooth_field
from pe3d.verification import verify_manufactured

pytestmark = pytest.mark.slow

GRID16 = GridSpec(n1=16, n2=16, nz=16)
GRID24 = GridSpec(n1=24, n2=24, nz=24)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # pytest's fd-level capture swallows even sys.__stdout__, so _announce
    # needs the capfd handle to temporarily restore the real stdout
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _announce(num: int, name: str, ok: bool, detail: str) -> None:
    # write past pytest's capture so every criterion always prints its line
    ctx = _CAPTURE.disabled() if _CAPTURE is not None else contextlib.nullcontext()
    with ctx:
        print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}",
              flush=True)


def _scaled_ic(grid: GridSpec, seed: int, target_E2: float) -> HorizontalField:
    v = random_smooth_field(np.random.default_rng(seed), grid)
    return float(np.sqrt(target_E2 / norm_V(v) ** 2)) * v


def _forcing(grid: GridSpec, seed: int, target_H2: float) -> HorizontalField:
    f = random_smooth_field(np.random.default_rng(seed), grid)
    return float(np.sqrt(target_H2 / norm_H(f) ** 2)) * f


# ---------------------------------------------------------------------------
# Shared ensembles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lam1_24() -> float:
    return smallest_eigenvalue_A(GRID24)


@pytest.fixture(scope="module")
def decay_runs_24():
    """Criterion 3 ensemble: 5 unforced trajectories at 24^3, E2(0) = 1.

    dt must be small: the implicit Euler diffusion lags exp(-2 nu lam1 t) by
    a factor e^{2x}/(1+x)^2 per step (x = nu lam1 dt), which compounds over
    t_end/dt steps on a field dominated by the slowest mode.  At 10x this
    dt (1.5e-3), seed 303 ends at a ratio of 1.229, outside the 1.10
    allowance; at dt_max = 1.5e-4 the largest ratio over t > 0 is 0.985.
    t_end = 0.1 covers the measured decay times (<= 0.06)."""
    params = SimulationParams(nu=1.0, dt_max=1.5e-4, cfl=0.4, t_end=0.1)
    out = []
    for i in range(5):
        v0 = _scaled_ic(GRID24, 300 + i, 1.0)
        diag, _ = record_trajectory(v0, params)
        out.append(diag)
    return out


F_H2 = 0.1


def _absorb_run(v0: HorizontalField, t_end: float):
    """A forced trajectory at 16^3 from v0 to t_end, with its end state."""
    f = _forcing(GRID16, 4000, F_H2)
    params = SimulationParams(nu=1.0, dt_max=0.02, cfl=0.4, t_end=t_end)
    # record every step: with E2(0) = 1 a coarser record spacing makes
    # the first single-step integral alone exceed the eta budget in
    # criterion 5, which would force a degenerate partition interval
    return record_trajectory(v0, params, record_every=1, forcing_at=lambda t: f)


@pytest.fixture(scope="module")
def absorb_runs_16():
    """Criterion 4 ensemble: 5 forced trajectories at 16^3 to t = 20, each
    with its end state."""
    return [_absorb_run(_scaled_ic(GRID16, 400 + i, 1.0), 20.0)
            for i in range(5)]


# ---------------------------------------------------------------------------
# 1. Solver verification (manufactured-solution ladder)
# ---------------------------------------------------------------------------

def test_criterion_1_solver_verification():
    params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4)
    rep = verify_manufactured(params.nu)
    ok = rep.spatial_order >= 1.8 and rep.temporal_order >= 0.9
    _announce(1, "solver verification", ok,
              f"spatial order {rep.spatial_order:.2f} (>= 1.8), "
              f"temporal order {rep.temporal_order:.2f} (>= 0.9)")
    assert rep.spatial_order >= 1.8
    assert rep.temporal_order >= 0.9


# ---------------------------------------------------------------------------
# 2. Energy inequality
# ---------------------------------------------------------------------------

def test_criterion_2_energy_inequality():
    # (a) per-step slack on 100 random unforced steps at 24^3
    params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4)
    worst = -np.inf
    for i in range(20):
        amp = 0.2 + 1.8 * (i / 19.0)
        v = amp * _scaled_ic(GRID24, 200 + i, 1.0)
        state = SimState(t=0.0, v=v)
        old = norm_report(v)
        for _ in range(5):
            state = step(state, params)
            new = norm_report(state.v)
            slack = new.H2 + 2.0 * state.dt * params.nu * new.E2 - old.H2
            worst = max(worst, slack / old.H2)
            old = new
    per_step_ok = worst <= 1e-6

    # (b) cumulative dissipation budget over a T = 2 forced run:
    # 2 nu int E2 dt <= H2(0) + T |f|_H^2 (the Poincaré constant here is
    # far above 1, which is what lets the forcing term absorb into |f|^2)
    f = _forcing(GRID24, 4000, F_H2)
    fp = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4, t_end=2.0)
    diag, _ = record_trajectory(_scaled_ic(GRID24, 250, 1.0), fp,
                                forcing_at=lambda t: f)
    lhs = 2.0 * fp.nu * np.trapezoid(diag.E2, diag.t)
    rhs = diag.H2[0] + 2.0 * F_H2
    cumulative_ok = lhs <= rhs * (1.0 + 1e-4)

    ok = per_step_ok and cumulative_ok
    _announce(2, "energy inequality", ok,
              f"max per-step relative slack {worst:.2e} (<= 1e-6), "
              f"cumulative budget {lhs:.3f} <= {rhs:.3f}")
    assert per_step_ok
    assert cumulative_ok


# ---------------------------------------------------------------------------
# 3. Decay in the V norm + Poincaré H decay
# ---------------------------------------------------------------------------

def test_criterion_3_decay(decay_runs_24, lam1_24):
    eps = 1e-3
    times = [measure_decay_time(d, eps) for d in decay_runs_24]
    decayed = all(T is not None for T in times)

    # over t > 0: at t = 0 the ratio is 1 by definition
    worst_ratio = 0.0
    for d in decay_runs_24:
        bound = d.H2[0] * np.exp(-2.0 * lam1_24 * d.t[1:])
        worst_ratio = max(worst_ratio, float((d.H2[1:] / bound).max()))
    poincare_ok = worst_ratio <= 1.10

    ok = decayed and poincare_ok
    _announce(3, "V-norm decay", ok,
              f"decay times {['%.3f' % T for T in times]} (eps={eps}), "
              f"H2 vs exp(-2 nu lam1 t) over t > 0: max ratio {worst_ratio:.4f} (<= 1.10, "
              f"lam1={lam1_24:.2f})")
    assert decayed
    assert poincare_ok


# ---------------------------------------------------------------------------
# 4. Absorbing ball under constant forcing
# ---------------------------------------------------------------------------

def test_criterion_4_absorbing_ball(absorb_runs_16):
    rep = detect_absorbing([d for d, _ in absorb_runs_16], window=6.0)
    base_ok = not any(rep.inconclusive)

    # doubled horizon: the forcing is constant in time, so continuing each
    # trajectory from its t = 20 state for 20 more time units covers
    # t in [20, 40]; the trajectories stay inside the same ball
    doubled = [_absorb_run(v, 20.0)[0] for _, v in absorb_runs_16]
    stayed_doubled = all(float(d.E2.max()) <= rep.K_ball * (1.0 + 1e-3)
                         for d in doubled)

    ok = base_ok and stayed_doubled
    _announce(4, "absorbing ball", ok,
              f"K_ball={rep.K_ball:.4g}, entry times "
              f"{['%.2f' % T for T in rep.T_V]}, doubled-run stayed: "
              f"{stayed_doubled}")
    assert base_ok
    assert stayed_doubled


# ---------------------------------------------------------------------------
# 5. Growth control
# ---------------------------------------------------------------------------

def test_criterion_5_growth_control(decay_runs_24, absorb_runs_16):
    eta = 0.05
    all_diags = ([(d, 0.0) for d in decay_runs_24]
                 + [(d, F_H2) for d, _ in absorb_runs_16])
    finite_partitions = True
    bound_holds = True
    for d, f_H2 in all_diags:
        ivs = eta_partition(d, eta)
        finite_partitions &= len(ivs) > 0 and not any(iv.degenerate for iv in ivs)
        for iv in ivs:
            finite_partitions &= (iv.t_end - iv.t_start <= 1.0 + 1e-12
                                  and iv.integral_E2 <= eta * (1.0 + 1e-12))
        C = fit_growth_constant(d, ivs, f_H2)
        bound_holds &= np.isfinite(C) and check_growth_bound(d, ivs, C, f_H2)

    # fitted C stable within a factor of 2 between 16^3 and 24^3 forced runs
    Cs = []
    for grid in (GRID16, GRID24):
        f = _forcing(grid, 4000, F_H2)
        params = SimulationParams(nu=1.0, dt_max=5e-3, cfl=0.4, t_end=2.0)
        diag, _ = record_trajectory(_scaled_ic(grid, 500, 0.04), params,
                                    forcing_at=lambda t: f)
        Cs.append(fit_growth_constant(diag, eta_partition(diag, eta), F_H2))
    tiny = 1e-12
    stable = (max(Cs) < tiny) or (min(Cs) > 0
                                  and max(Cs) <= 2.0 * min(Cs))

    ok = finite_partitions and bound_holds and stable
    _announce(5, "growth control", ok,
              f"partitions finite: {finite_partitions}, Gamma bound holds: "
              f"{bound_holds}, C(16^3)={Cs[0]:.4g} vs C(24^3)={Cs[1]:.4g}")
    assert finite_partitions
    assert bound_holds
    assert stable


# ---------------------------------------------------------------------------
# 6. Kick chain and invariant measure
# ---------------------------------------------------------------------------

def test_criterion_6_kick_chain():
    R = 0.25
    # T = T_V(4R, R): worst decay time from |v|_V^2 = 4R down to R,
    # with a 2x safety factor
    dparams = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4, t_end=2.0)
    probes = []
    for i in range(3):
        diag, _ = record_trajectory(_scaled_ic(GRID16, 600 + i, 4.0 * R),
                                    dparams)
        T = measure_decay_time(diag, R)
        assert T is not None
        probes.append(T)
    T = max(2.0 * max(probes), 0.01)

    params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4)
    cfg = KickConfig(T=T, R=R, n_modes=2, seed=60, N=300, burn_in=50)
    traces = []
    pooled_post = []
    for k in range(10):
        v0 = _scaled_ic(GRID16, 700 + k, R)
        trace = run_chain(cfg, params, v0, chain_index=k)
        traces.append(trace)
        pooled_post.append(trace.E2[cfg.burn_in:])

    # (a) boundedness: the 2R + 2R = 4R induction
    max_E2 = max(float(tr.E2.max()) for tr in traces)
    bounded = max_E2 <= 4.0 * R * (1.0 + 1e-6)

    # (b) Krylov-Bogolyubov trend: the running-average empirical measures
    # (pooled across seeds) form a Cauchy sequence -- successive checkpoints
    # of the cumulative measure get closer, since the k-th increment carries
    # weight width/(k * width) ~ 1/k.  Disjoint windows cannot show this
    # here: T contracts 4R -> R within one chain step, so post-transient
    # windows are already stationary and their W1 distances are pure noise.
    n_checks = 6
    width = cfg.N // n_checks
    cumulative = [
        np.concatenate([tr.E2[:(k + 1) * width] for tr in traces])
        for k in range(n_checks)]
    series = [wasserstein1(a, b)
              for a, b in zip(cumulative, cumulative[1:])]
    trending = series[-1] <= 0.5 * series[0]

    # (c) disjoint-seed halves agree within 0.1 x interquartile range
    g1 = np.concatenate(pooled_post[:5])
    g2 = np.concatenate(pooled_post[5:])
    split = wasserstein1(g1, g2)
    iqr = float(np.subtract(*np.percentile(np.concatenate(pooled_post),
                                           [75, 25])))
    agree = split <= 0.1 * iqr

    ok = bounded and trending and agree
    _announce(6, "kick chain", ok,
              f"T={T:.3f}, max |X|_V^2={max_E2:.4g} (<= {4*R}), window W1 "
              f"{series[0]:.2e} -> {series[-1]:.2e}, split W1 {split:.2e} "
              f"vs 0.1*IQR {0.1*iqr:.2e}")
    assert bounded
    assert trending
    assert agree


# ---------------------------------------------------------------------------
# 7. Continuity of the solution map
# ---------------------------------------------------------------------------

def test_criterion_7_continuity():
    params = SimulationParams(nu=0.01, dt_max=0.01, cfl=0.4)
    v0 = _scaled_ic(GRID16, 800, 1.0)
    w = random_smooth_field(np.random.default_rng(801), GRID16)
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    ratios = continuity_probe(v0, w, deltas, 0.5, params)
    spread = max(ratios) / min(ratios)
    ok = spread <= 3.0
    _announce(7, "continuity", ok,
              f"sensitivity ratios {['%.4f' % r for r in ratios]}, "
              f"spread {spread:.4f} (<= 3)")
    assert ok


# ---------------------------------------------------------------------------
# 8. Projection suite
# ---------------------------------------------------------------------------

def test_criterion_8_projection_suite():
    rng = np.random.default_rng(900)
    worst = {"residual": 0.0, "idem": 0.0, "ortho": 0.0, "contract": 0.0}
    for _ in range(1000):
        w = apply_bc(raw_field(GRID16, rng))
        p = project_H(w)
        nw = max(norm_H(w), 1e-30)
        worst["residual"] = max(worst["residual"], constraint_residual(p))
        worst["idem"] = max(worst["idem"], norm_H(project_H(p) - p) / nw)
        worst["ortho"] = max(worst["ortho"],
                             abs(inner_H(p, w - p)) / nw ** 2)
        worst["contract"] = max(worst["contract"], norm_H(p) / norm_H(w))
    ok = (worst["residual"] <= PROJ_TOL and worst["idem"] <= 1e-10
          and worst["ortho"] <= 1e-10 and worst["contract"] <= 1.0 + 1e-12)
    _announce(8, "projection suite", ok,
              f"1000 fields at 16^3: residual {worst['residual']:.2e} "
              f"(<= {PROJ_TOL:.0e}), idempotence {worst['idem']:.2e}, "
              f"orthogonality {worst['ortho']:.2e}, contraction factor "
              f"{worst['contract']:.12f}")
    assert worst["residual"] <= PROJ_TOL
    assert worst["idem"] <= 1e-10
    assert worst["ortho"] <= 1e-10
    assert worst["contract"] <= 1.0 + 1e-12
