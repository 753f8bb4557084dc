"""Output checks for the benchmark workloads.

Each check recomputes what it can from the artifacts a run wrote (CSV
traces, JSON reports) or from closed forms, and never compares against a
stored copy of an earlier output.  A check returns the list of problems it
found; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: rounding headroom for inequalities the program guarantees exactly
REL_ROUND = 1e-12


def _read_csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


# ---------------------------------------------------------------------------
# kicks16
# ---------------------------------------------------------------------------

def check_kicks(outdir: Path, cfg, report: dict) -> list[str]:
    from scipy.stats import wasserstein_distance

    R, N, burn_in = cfg.kick.R, cfg.kick.N, cfg.kick.burn_in
    problems, pooled, max_E2 = [], [], 0.0
    for k in range(cfg.exp.n_chains):
        rows = _read_csv(outdir / f"chain_{k}.csv", "n,H2,E2,J,K,kick_V2,rescaled")
        n, E2, K, kick_V2 = rows[:, 0], rows[:, 2], rows[:, 4], rows[:, 5]
        if not np.array_equal(n, np.arange(1, N + 1)):
            problems.append(f"chain {k}: rows are not n = 1..{N}")
            continue
        if np.any(E2 > 4.0 * R):
            problems.append(f"chain {k}: E2 {E2.max():.6g} > 4R = {4.0 * R:.6g}")
        if np.any(kick_V2 > R):
            problems.append(f"chain {k}: kick_V2 {kick_V2.max():.6g} > R = {R:.6g}")
        if np.any(K * K > E2 * (1.0 + REL_ROUND)):
            problems.append(f"chain {k}: K^2 > E2 on some row")
        pooled.append(E2[burn_in:])
        max_E2 = max(max_E2, float(E2.max()))
    if problems:
        return problems
    if report["max_E2"] != max_E2:
        problems.append(f"report max_E2 {report['max_E2']!r} != chain CSV max {max_E2!r}")
    half = len(pooled) // 2
    w1 = wasserstein_distance(np.concatenate(pooled[:half]), np.concatenate(pooled[half:]))
    got = report["split_wasserstein_E2"]
    if not math.isclose(got, w1, rel_tol=1e-9, abs_tol=1e-15):
        problems.append(f"split_wasserstein_E2 {got!r} != scipy {w1!r}")
    return problems


# ---------------------------------------------------------------------------
# decay24
# ---------------------------------------------------------------------------

def laplacian_min_eigenvalue(g) -> float:
    """Smallest eigenvalue of the discrete -Laplacian on the free nodes of
    grid ``g``: Dirichlet-Dirichlet second differences in x and y,
    Dirichlet-Neumann in z."""
    def dd(n, L):
        return (4.0 * n * n / (L * L)) * math.sin(math.pi / (2 * n)) ** 2
    return (dd(g.n1, g.L1) + dd(g.n2, g.L2)
            + (4.0 * g.nz ** 2 / g.h ** 2) * math.sin(math.pi / (4 * g.nz)) ** 2)


def check_decay(outdir: Path, cfg, report: dict) -> list[str]:
    nu, eps, t_end = cfg.sim.nu, cfg.exp.eps, cfg.sim.t_end
    lam = laplacian_min_eigenvalue(cfg.grid)
    problems = []
    for i in range(cfg.exp.n_ic):
        rows = _read_csv(outdir / f"decay_{i}.csv", "t,H2,E2,J,K,Kbar,budget_slack")
        t, H2, E2 = rows[:, 0], rows[:, 1], rows[:, 2]
        above = np.flatnonzero(E2 > eps)
        if len(above) and above[-1] == len(t) - 1:
            problems.append(f"member {i}: E2 still above eps = {eps} at t_end")
            continue
        T = 0.0 if len(above) == 0 else float(t[above[-1] + 1])
        if not T < t_end or report["T_V"][i] != T:
            problems.append(f"member {i}: decay time {T!r} (report {report['T_V'][i]!r})")
        if np.any(np.diff(H2) > 0.0):
            problems.append(f"member {i}: H2 rises")
        # implicit Euler with the smallest Laplacian eigenvalue bounds H2
        bound = H2[0] * np.cumprod((1.0 + nu * np.diff(t) * lam) ** -2.0)
        if np.any(H2[1:] > bound * (1.0 + REL_ROUND)):
            worst = float(np.max(H2[1:] / bound))
            problems.append(f"member {i}: H2 exceeds the lam = {lam:.6g} "
                            f"implicit-Euler bound by a factor {worst:.6g}")
    return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def manufactured_solution(grid, t: float) -> np.ndarray:
    """The ladder's analytic solution on the grid nodes: the perpendicular
    gradient of psi = sin^2(pi x / L1) sin^2(pi y / L2), times
    cos(pi z / 2h) exp(-t)."""
    x = np.linspace(0.0, grid.L1, grid.n1 + 1)[:, None, None]
    y = np.linspace(0.0, grid.L2, grid.n2 + 1)[None, :, None]
    z = np.linspace(-grid.h, 0.0, grid.nz + 1)[None, None, :]
    a, b = np.pi / grid.L1, np.pi / grid.L2
    amp = math.exp(-t) * np.cos(np.pi * z / (2.0 * grid.h))
    v1 = amp * np.sin(a * x) ** 2 * b * np.sin(2.0 * b * y)
    v2 = -amp * a * np.sin(2.0 * a * x) * np.sin(b * y) ** 2
    return np.stack(np.broadcast_arrays(v1, v2))


def _trapezoid(n: int, d: float) -> np.ndarray:
    w = np.full(n + 1, d)
    w[0] = w[-1] = d / 2.0
    return w


def h_error(state) -> float:
    """H-norm (trapezoid-product quadrature) of the state minus the
    analytic solution at the state's time."""
    g = state.v.grid
    w = (_trapezoid(g.n1, g.L1 / g.n1)[:, None, None]
         * _trapezoid(g.n2, g.L2 / g.n2)[None, :, None]
         * _trapezoid(g.nz, g.h / g.nz)[None, None, :])
    diff = state.v.data - manufactured_solution(g, state.t)
    return float(np.sqrt(np.sum(w * (diff[0] ** 2 + diff[1] ** 2))))


def check_verify(report: dict, finals: list) -> list[str]:
    """``finals`` holds the last state of every ladder case, spatial cases
    first, as seen by the step counter."""
    grids, dts = report["spatial_grids"], report["temporal_dts"]
    es, et = report["spatial_errors"], report["temporal_errors"]
    problems = []
    if len(finals) != len(grids) + len(dts):
        return [f"{len(finals)} ladder cases ran, report lists {len(grids) + len(dts)}"]
    if [s.v.grid.n1 for s in finals[:len(grids)]] != grids:
        problems.append("spatial cases ran on other grids than the report lists")
    for s, err in zip(finals, es + et):
        mine = h_error(s)
        if not math.isclose(err, mine, rel_tol=1e-8):
            problems.append(f"error {err!r} at n = {s.v.grid.n1}, t = {s.t!r} "
                            f"!= {mine!r} against the analytic solution")
    if not all(a > b for a, b in zip(es, es[1:])):
        problems.append(f"spatial errors do not fall with refinement: {es}")
    if not all(a > b for a, b in zip(et, et[1:])):
        problems.append(f"temporal errors do not fall with refinement: {et}")
    spatial = [math.log(a / b) / math.log(nb / na)
               for a, b, na, nb in zip(es, es[1:], grids, grids[1:])]
    temporal = [math.log2((a - b) / (b - c)) for a, b, c in zip(et, et[1:], et[2:])]
    if min(spatial) < 1.8:
        problems.append(f"spatial order {min(spatial):.4f} < 1.8")
    if min(temporal) < 0.9:
        problems.append(f"temporal order {min(temporal):.4f} < 0.9")
    for mine, got in ((spatial, report["spatial_orders"]),
                      (temporal, report["temporal_orders"])):
        if not np.allclose(mine, got, rtol=1e-12, atol=0.0):
            problems.append(f"reported orders {got} != recomputed {mine}")
    return problems
