"""Acceptance gate: the eight top-level criteria, each printing one
pass/fail line.

Criteria 1 and 3-7 run the shipped configs (``configs/<experiment>.cfg``,
seeds included) through ``run_experiment`` and read their figures from
the drivers' reports and CSVs.  The checks that no driver makes (the
Poincaré ratio, the doubled horizon, the growth constant's stability
under refinement, the cumulative-measure trend and the split agreement)
stay here and read those artifacts.  The decay and absorb runs are made
once, in module-scoped fixtures, and shared between criteria.

Run parameters are pinned in the configs and tolerances here; loosening
either requires a deliberate edit.
"""

import contextlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import PROJ_TOL, inner_H, raw_field, smallest_eigenvalue_A
from pe3d.config import RunConfig, parse_config
from pe3d.dynamics import SimState, SimulationParams, step
from pe3d.estimates import record_trajectory
from pe3d.experiments import (CHAIN_HEADER, _forcing_field, _scaled_ic,
                              read_trajectory_csv, run_experiment)
from pe3d.fields import apply_bc
from pe3d.grid import GridSpec
from pe3d.kicks import wasserstein1
from pe3d.norms import norm_H, norm_report
from pe3d.projection import constraint_residual, project_H
from pe3d.verification import ConvergenceReport

pytestmark = pytest.mark.slow

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _config(experiment: str, **blocks) -> RunConfig:
    """``configs/<experiment>.cfg`` with the fields of its blocks replaced:
    ``sim={"t_end": 40.0}`` sets sim.t_end."""
    cfg = parse_config((CONFIGS / f"{experiment}.cfg").read_text())
    return replace(cfg, **{attr: replace(getattr(cfg, attr), **sets)
                           for attr, sets in blocks.items()})


def _run(cfg: RunConfig, outdir: Path) -> Path:
    run_experiment(cfg, output=str(outdir))
    return outdir


def _report(num: int, name: str, outdir: Path) -> dict:
    """The report of the run in ``outdir``; if the run failed, criterion
    ``num`` prints its FAIL line with the failure's detail and fails."""
    failure = outdir / "failure.json"
    if failure.exists():
        detail = json.loads(failure.read_text())["detail"]
        _announce(num, name, False, detail)
        pytest.fail(detail)
    return json.loads(next(outdir.glob("*_report.json")).read_text())


def _trajectories(outdir: Path):
    return [read_trajectory_csv(p) for p in sorted(outdir.glob("*.csv"))]


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def decay_dir(tmp_path_factory) -> Path:
    """Criterion 3's ensemble: 5 unforced trajectories at 24^3, E2(0) = 1."""
    return _run(_config("decay"), tmp_path_factory.mktemp("decay"))


@pytest.fixture(scope="module")
def absorb_dir(tmp_path_factory) -> Path:
    """Criterion 4's ensemble: 5 forced trajectories at 16^3 to t = 20."""
    return _run(_config("absorb"), tmp_path_factory.mktemp("absorb"))


# ---------------------------------------------------------------------------
# 1. Solver verification (manufactured-solution ladder)
# ---------------------------------------------------------------------------

def test_criterion_1_solver_verification(tmp_path):
    rep = ConvergenceReport(**_report(1, "solver verification",
                                      _run(_config("verify"), tmp_path)))
    spatial, temporal = rep.spatial_order, rep.temporal_order
    ok = spatial >= 1.8 and temporal >= 0.9
    _announce(1, "solver verification", ok,
              f"spatial order {spatial:.2f} (>= 1.8), "
              f"temporal order {temporal:.2f} (>= 0.9)")
    assert spatial >= 1.8
    assert temporal >= 0.9


# ---------------------------------------------------------------------------
# 2. Energy inequality
# ---------------------------------------------------------------------------

def test_criterion_2_energy_inequality():
    grid = GridSpec(n1=24, n2=24, nz=24)
    # (a) per-step slack on 100 random unforced steps at 24^3
    params = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4)
    worst = -np.inf
    for i in range(20):
        amp = 0.2 + 1.8 * (i / 19.0)
        v = amp * _scaled_ic(grid, 200 + i, 1.0, "experiment.R")
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
    f_H2 = 0.1
    f = _forcing_field(grid, 4000, f_H2)
    fp = SimulationParams(nu=1.0, dt_max=0.01, cfl=0.4, t_end=2.0)
    diag, _ = record_trajectory(_scaled_ic(grid, 250, 1.0, "experiment.R"), fp,
                                forcing_at=lambda t: f)
    lhs = 2.0 * fp.nu * np.trapezoid(diag.E2, diag.t)
    rhs = diag.H2[0] + 2.0 * f_H2
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

def test_criterion_3_decay(decay_dir):
    rep = _report(3, "V-norm decay", decay_dir)
    times = rep["T_V"]
    decayed = all(T is not None for T in times)

    # over t > 0: at t = 0 the ratio is 1 by definition
    lam1 = smallest_eigenvalue_A(_config("decay").grid)
    worst_ratio = 0.0
    for d in _trajectories(decay_dir):
        bound = d.H2[0] * np.exp(-2.0 * lam1 * d.t[1:])
        worst_ratio = max(worst_ratio, float((d.H2[1:] / bound).max()))
    poincare_ok = worst_ratio <= 1.10

    ok = decayed and poincare_ok
    _announce(3, "V-norm decay", ok,
              f"decay times {['%.3f' % T for T in times]} (eps={rep['eps']}), "
              f"H2 vs exp(-2 nu lam1 t) over t > 0: max ratio {worst_ratio:.4f} (<= 1.10, "
              f"lam1={lam1:.2f})")
    assert decayed
    assert poincare_ok


# ---------------------------------------------------------------------------
# 4. Absorbing ball under constant forcing
# ---------------------------------------------------------------------------

def test_criterion_4_absorbing_ball(absorb_dir, tmp_path):
    name = "absorbing ball"
    rep = _report(4, name, absorb_dir)
    base_ok = not any(rep["inconclusive"])

    # doubled horizon: the same runs to twice the end time stay inside
    # the ball found over the first half
    t_end = _config("absorb").sim.t_end
    doubled = _run(_config("absorb", sim={"t_end": 2.0 * t_end}), tmp_path)
    _report(4, name, doubled)
    stayed_doubled = all(float(d.E2[d.t > t_end].max()) <= rep["K_ball"] * (1.0 + 1e-3)
                         for d in _trajectories(doubled))

    ok = base_ok and stayed_doubled
    _announce(4, name, ok,
              f"K_ball={rep['K_ball']:.4g}, entry times "
              f"{['%.2f' % T for T in rep['T_V']]}, doubled-run stayed: "
              f"{stayed_doubled}")
    assert base_ok
    assert stayed_doubled


# ---------------------------------------------------------------------------
# 5. Growth control
# ---------------------------------------------------------------------------

def test_criterion_5_growth_control(decay_dir, absorb_dir, tmp_path):
    name = "growth control"
    f_H2 = _config("absorb").exp.f_H2

    def diag(src: Path, forcing_H2: float) -> list[dict]:
        """diag's per-trajectory entries for the CSVs in ``src``."""
        cfg = _config("diag", exp={"input": str(src), "f_H2": forcing_H2})
        return _report(5, name, _run(cfg, tmp_path / f"diag_{src.name}"))["trajectories"]

    # by construction a partition interval that is not degenerate is at
    # most 1 long and integrates E2 to at most eta
    entries = diag(decay_dir, 0.0) + diag(absorb_dir, f_H2)
    finite_partitions = all(e["n_intervals"] > 0 and e["n_degenerate"] == 0
                            for e in entries)
    bound_holds = all(np.isfinite(e["C"]) and e["bound_holds"] for e in entries)

    # fitted C stable within a factor of 2 between 16^3 and 24^3 forced runs
    Cs = []
    for n in (16, 24):
        cfg = _config("absorb", grid={"n1": n, "n2": n, "nz": n},
                      sim={"dt_max": 5e-3, "t_end": 2.0},
                      kick={"seed": 500}, exp={"R": 0.04, "n_ic": 1})
        Cs.append(diag(_run(cfg, tmp_path / f"absorb{n}"), f_H2)[0]["C"])
    tiny = 1e-12
    stable = (max(Cs) < tiny) or (min(Cs) > 0
                                  and max(Cs) <= 2.0 * min(Cs))

    ok = finite_partitions and bound_holds and stable
    _announce(5, name, ok,
              f"partitions finite: {finite_partitions}, Gamma bound holds: "
              f"{bound_holds}, C(16^3)={Cs[0]:.4g} vs C(24^3)={Cs[1]:.4g}")
    assert finite_partitions
    assert bound_holds
    assert stable


# ---------------------------------------------------------------------------
# 6. Kick chain and invariant measure
# ---------------------------------------------------------------------------

def test_criterion_6_kick_chain(tmp_path):
    rep = _report(6, "kick chain", _run(_config("kicks"), tmp_path))
    R, max_E2 = rep["R"], rep["max_E2"]
    E2_col = CHAIN_HEADER.split(",").index("E2")
    traces = [np.loadtxt(tmp_path / f"chain_{k}.csv", delimiter=",",
                         skiprows=1, usecols=E2_col)
              for k in range(rep["n_chains"])]

    # (a) boundedness: the 2R + 2R = 4R induction
    bounded = max_E2 <= 4.0 * R * (1.0 + 1e-6)

    # (b) Krylov-Bogolyubov trend: the running-average empirical measures
    # (pooled across seeds) form a Cauchy sequence -- successive checkpoints
    # of the cumulative measure get closer, since the k-th increment carries
    # weight width/(k * width) ~ 1/k.  Disjoint windows cannot show this
    # here: T contracts 4R -> R within one chain step, so post-transient
    # windows are already stationary and their W1 distances are pure noise.
    n_checks = 6
    width = rep["N"] // n_checks
    cumulative = [np.concatenate([E2[:(k + 1) * width] for E2 in traces])
                  for k in range(n_checks)]
    series = [wasserstein1(a, b)
              for a, b in zip(cumulative, cumulative[1:])]
    trending = series[-1] <= 0.5 * series[0]

    # (c) the post-burn-in samples of the two halves of the chains agree
    # within 0.1 x their pooled interquartile range
    split, iqr = rep["split_wasserstein_E2"], rep["pooled_iqr_E2"]
    agree = split <= 0.1 * iqr

    ok = bounded and trending and agree
    _announce(6, "kick chain", ok,
              f"T={rep['T']:.3f}, max |X|_V^2={max_E2:.4g} (<= {4*R}), window W1 "
              f"{series[0]:.2e} -> {series[-1]:.2e}, split W1 {split:.2e} "
              f"vs 0.1*IQR {0.1*iqr:.2e}")
    assert bounded
    assert trending
    assert agree


# ---------------------------------------------------------------------------
# 7. Continuity of the solution map
# ---------------------------------------------------------------------------

def test_criterion_7_continuity(tmp_path):
    rep = _report(7, "continuity", _run(_config("probe"), tmp_path))
    ratios, spread = rep["ratios"], rep["spread"]
    ok = spread <= 3.0
    _announce(7, "continuity", ok,
              f"sensitivity ratios {['%.4f' % r for r in ratios]}, "
              f"spread {spread:.4f} (<= 3)")
    assert ok


# ---------------------------------------------------------------------------
# 8. Projection suite
# ---------------------------------------------------------------------------

def test_criterion_8_projection_suite():
    grid = GridSpec(n1=16, n2=16, nz=16)
    rng = np.random.default_rng(900)
    worst = {"residual": 0.0, "idem": 0.0, "ortho": 0.0, "contract": 0.0}
    for _ in range(1000):
        w = apply_bc(raw_field(grid, rng))
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
