"""A priori estimate machinery: trajectory diagnostics, the growth-control
bound and its interval partitioning, absorbing-ball and decay-time
measurement, and the continuity probe.

The growth bound audited here is

    E2(tau2) <= exp(C (1 + E2(tau1))^4) * [E2(tau1) + |f|_H^2]

on intervals [tau1, tau3] with |tau3 - tau1| <= 1 and the trapezoidal
integral of E2 at most eta.  The constant C is not analytic: it is fitted
per configuration as the smallest value making the bound hold on recorded
data, and tracked for stability across refinements.  C, eta and |f|_H^2
are plain floats: the caller partitions a trajectory once with
eta_partition and hands the intervals to both fit_growth_constant and
check_growth_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import SimulationParams, integrate, reached, solve_S
from .errors import InputError
from .fields import HorizontalField
from .norms import norm_report, norm_V


# ---------------------------------------------------------------------------
# Trajectory diagnostics
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryDiagnostics:
    """Time-stamped series of the estimate quantities plus per-step energy
    budget slack (the slack at sample k covers the steps landing on t[k]
    since the previous sample).  The fields are the trajectory CSV's
    columns, in order."""

    t: np.ndarray
    H2: np.ndarray
    E2: np.ndarray
    J: np.ndarray
    K: np.ndarray
    Kbar: np.ndarray
    budget_slack: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        for f in fields(self):
            col = getattr(self, f.name)
            if len(col) != n:
                raise InputError(f"TrajectoryDiagnostics: {f.name} length mismatch")
            if not np.isfinite(col).all():
                raise InputError("TrajectoryDiagnostics: non-finite entries")
        if n and not np.all(np.diff(self.t) > 0):
            raise InputError("TrajectoryDiagnostics: timestamps must strictly increase")

    def __len__(self) -> int:
        return len(self.t)


def record_trajectory(v0: HorizontalField, params: SimulationParams,
                      record_every: int = 1,
                      forcing_at=None) -> tuple[TrajectoryDiagnostics, HorizontalField]:
    """Run the stepper to params.t_end, forced by ``forcing_at`` as in
    ``integrate``, sampling the norms every record_every accepted steps
    (plus the initial and final states).  Every state's norm report is
    taken once; each step's energy-budget slack
    H2(n+1) + 2 dt nu E2(n+1) - H2(n) reads the reports of both its ends."""
    samples = []      # (t, norm report, slack summed since the previous sample)
    acc_slack = 0.0
    prev = None       # the norm report of the state before the step

    def on_step(before, after):
        nonlocal acc_slack, prev
        if prev is None:
            prev = norm_report(before.v)
            samples.append((0.0, prev, 0.0))
        report = norm_report(after.v)
        acc_slack += report.H2 + 2.0 * after.dt * params.nu * report.E2 - prev.H2
        prev = report
        if after.step_count % record_every == 0 or reached(after.t, params.t_end):
            samples.append((after.t, report, acc_slack))
            acc_slack = 0.0

    state = integrate(v0, params.t_end, params, forcing_at, on_step)
    if not samples:
        samples.append((0.0, norm_report(state.v), 0.0))
    rows = [(t, r.H2, r.E2, r.J, r.K, r.Kbar, slack) for t, r, slack in samples]
    return TrajectoryDiagnostics(*(np.array(col) for col in zip(*rows))), state.v


# ---------------------------------------------------------------------------
# Growth control
# ---------------------------------------------------------------------------

def gamma(y: float, C: float, f_H2: float = 0.0) -> float:
    """The growth bound exp(C (1 + y)^4) * (y + f_H2); overflow clamps to
    +inf."""
    if y < 0:
        raise InputError("gamma: y must be nonnegative")
    expo = C * (1.0 + y) ** 4
    if expo > 700.0:
        return math.inf
    return math.exp(expo) * (y + f_H2)


def _trapz_E2(diag: TrajectoryDiagnostics, i: int, j: int) -> float:
    return float(np.trapezoid(diag.E2[i:j + 1], diag.t[i:j + 1]))


@dataclass(frozen=True)
class EtaInterval:
    i_start: int
    i_end: int
    t_start: float
    t_end: float
    integral_E2: float
    degenerate: bool = False      # a single step already over budget


def eta_partition(diag: TrajectoryDiagnostics, eta: float) -> list[EtaInterval]:
    """Greedy left-to-right partition into maximal intervals of length <= 1
    with trapezoidal integral of E2 <= eta; the intervals tile the recorded
    span.  A single step that alone violates the budget is reported as a
    degenerate interval."""
    if len(diag) == 0:
        raise InputError("eta_partition: empty trajectory")
    if eta <= 0:
        raise InputError("eta_partition: eta must be positive")
    out: list[EtaInterval] = []
    i = 0
    n = len(diag) - 1
    while i < n:
        j = i + 1
        integral = _trapz_E2(diag, i, j)
        first_bad = (diag.t[j] - diag.t[i] > 1.0) or (integral > eta)
        if not first_bad:
            while j < n:
                nxt = _trapz_E2(diag, i, j + 1)
                if diag.t[j + 1] - diag.t[i] > 1.0 or nxt > eta:
                    break
                j += 1
                integral = nxt
        out.append(EtaInterval(i, j, float(diag.t[i]), float(diag.t[j]),
                               integral, degenerate=first_bad))
        i = j
    return out


def fit_growth_constant(diag: TrajectoryDiagnostics, ivs: list[EtaInterval],
                        f_H2: float = 0.0) -> float:
    """Smallest C making the growth bound hold for every interval
    [tau1, tau3] of the eta-partition ``ivs`` of ``diag`` and every sample
    tau2 inside it (max over samples of the per-sample minimal C)."""
    if f_H2 < 0:
        raise InputError("fit_growth_constant: f_H2 must be nonnegative")
    if not ivs:
        raise InputError("fit_growth_constant: trajectory covers no full interval")
    C = 0.0
    for iv in ivs:
        base = float(diag.E2[iv.i_start]) + f_H2
        for k in range(iv.i_start, iv.i_end + 1):
            val = float(diag.E2[k])
            if base <= 0.0:
                if val > 0.0:
                    raise InputError(
                        "growth-bound violation: zero V-norm state with zero forcing "
                        f"grew to {val:.3e} at t={diag.t[k]:.6g} (solver bug?)")
                continue
            ratio = val / base
            if ratio > 1.0:
                C = max(C, math.log(ratio) / (1.0 + float(diag.E2[iv.i_start])) ** 4)
    return C


def check_growth_bound(diag: TrajectoryDiagnostics, ivs: list[EtaInterval],
                       C: float, f_H2: float = 0.0) -> bool:
    """Regression check: the bound with constant C holds on 100% of
    (interval, tau2) samples of the eta-partition ``ivs`` of ``diag``."""
    for iv in ivs:
        bound = gamma(float(diag.E2[iv.i_start]), C, f_H2)
        for k in range(iv.i_start, iv.i_end + 1):
            if diag.E2[k] > bound * (1.0 + 1e-12) + 1e-300:
                return False
    return True


# ---------------------------------------------------------------------------
# Absorbing ball and decay time
# ---------------------------------------------------------------------------

@dataclass
class AbsorbReport:
    K_ball: float
    T_V: list[float]
    inconclusive: list[bool]


def detect_absorbing(diags: list[TrajectoryDiagnostics],
                     window: float) -> AbsorbReport:
    """K_ball = max over trajectories of the tail-window supremum of E2;
    per-trajectory T_V = first time after which E2 never exceeds K_ball
    (scanned backward).  Every tail lies in the ball by construction, so
    whether trajectories stay in it is a question for a longer run.  A
    trajectory whose tail maximum sits at the last sample is flagged
    inconclusive (still trending upward); a tail that is flat to relative
    rounding precision does not count as trending, since a forced
    trajectory approaches its steady state from one side forever."""
    if not diags:
        raise InputError("detect_absorbing: no trajectories")
    K_ball = 0.0
    inconclusive = []
    for d in diags:
        t_tail = d.t[-1] - window
        if d.t[0] > t_tail:
            raise InputError("detect_absorbing: trajectory shorter than the tail window")
        mask = d.t >= t_tail
        tail = d.E2[mask]
        K_ball = max(K_ball, float(tail.max()))
        inconclusive.append(bool(np.argmax(tail) == len(tail) - 1
                                 and tail.max() > tail.min() * (1.0 + 1e-6)))
    T_V = []
    for d in diags:
        above = d.E2 > K_ball * (1.0 + 1e-12)
        idx = np.flatnonzero(above)
        T_V.append(0.0 if len(idx) == 0 else float(d.t[idx[-1]]))
    return AbsorbReport(K_ball=K_ball, T_V=T_V, inconclusive=inconclusive)


def measure_decay_time(diag: TrajectoryDiagnostics, eps: float) -> float | None:
    """First time after which E2 <= eps for the remainder of the recording;
    None if never reached."""
    if eps < 0:
        raise InputError("measure_decay_time: eps must be nonnegative")
    above = diag.E2 > eps
    idx = np.flatnonzero(above)
    if len(idx) == 0:
        return 0.0
    if idx[-1] == len(diag) - 1:
        return None
    return float(diag.t[idx[-1] + 1])


# ---------------------------------------------------------------------------
# Continuity probe
# ---------------------------------------------------------------------------

def continuity_probe(v0: HorizontalField, w: HorizontalField,
                     deltas: list[float], t: float,
                     params: SimulationParams) -> list[float]:
    """Finite-difference sensitivity of the solution map: for each delta,
    |S(t)[v0 + delta w] - S(t)[v0]|_V / (delta |w|_V)."""
    if any(d <= 0 for d in deltas):
        raise InputError("continuity_probe: deltas must be positive")
    wnorm = norm_V(w)
    if wnorm == 0:
        raise InputError("continuity_probe: direction field has zero V-norm")
    w = (1.0 / wnorm) * w
    base = solve_S(v0, t, params)
    out = []
    for d in deltas:
        pert = solve_S(v0 + d * w, t, params)
        out.append(norm_V(pert - base) / d)
    return out
