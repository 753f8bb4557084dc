"""Experiment drivers: the runnable surface behind the CLI.

Each driver takes a validated RunConfig, writes its artifacts (CSV traces,
JSON reports) into the output directory, and returns a JSON-serializable
report.  run_experiment maps outcomes to exit codes:

    0  success
    2  an asserted experimental property failed (ExperimentFailure)
    3  solver or input error, such as a key set that the experiment does
       not read (``_READS``)

All failures leave a diagnostic failure.json in the output directory: a
DivergenceError adds its diagnostics, a SolverError that carries its final
residual adds that residual, and any other exception is recorded
with its type and message, then re-raised.  Every CSV and JSON artifact is
written to a temp file and moved into place, so none is ever truncated.
"""

from __future__ import annotations

import glob
import json
import os
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import DivergenceError, InputError, SolverError
from .estimates import (TrajectoryDiagnostics, check_growth_bound,
                        continuity_probe, detect_absorbing, eta_partition,
                        fit_growth_constant, measure_decay_time,
                        record_trajectory)
from .fields import HorizontalField
from .grid import GridSpec
from .kicks import ChainTrace, run_chain, wasserstein1
from .norms import norm_H, norm_V
from .sampling import random_smooth_field
from .verification import verify_manufactured


class ExperimentFailure(Exception):
    """An asserted experimental property failed (exit code 2)."""


# ---------------------------------------------------------------------------
# CSV persistence (17 significant digits, lossless f64 round-trip)
# ---------------------------------------------------------------------------

def _header(record_type) -> str:
    return ",".join(f.name for f in fields(record_type))


TRAJECTORY_HEADER = _header(TrajectoryDiagnostics)
CHAIN_HEADER = _header(ChainTrace)


def _write_atomic(path, write) -> None:
    """Write through ``write(fh)`` to ``<path>.tmp``, then move it into
    place, so an interrupted write leaves neither a truncated ``path`` nor
    the temp file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_csv(path, record) -> None:
    """One column per field of the dataclass ``record``, headed by the field
    names; integer and boolean columns print with %d, the rest with %.17g."""
    cols = [np.asarray(getattr(record, f.name)) for f in fields(record)]
    fmt = ["%d" if c.dtype.kind in "biu" else "%.17g" for c in cols]
    _write_atomic(path, lambda fh: np.savetxt(
        fh, np.column_stack(cols), fmt=fmt, delimiter=",",
        header=_header(record), comments=""))


def write_trajectory_csv(path, diag: TrajectoryDiagnostics) -> None:
    _write_csv(path, diag)


def read_trajectory_csv(path) -> TrajectoryDiagnostics:
    with open(path) as fh:
        if fh.readline().strip() != TRAJECTORY_HEADER:
            raise InputError(f"{path}: expected header {TRAJECTORY_HEADER!r}")
        try:
            with warnings.catch_warnings():
                # a header-only file: rejected below by its column count
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:
            raise InputError(f"{path}: {e}")
    width = len(fields(TrajectoryDiagnostics))
    if data.shape[1] != width:
        raise InputError(f"{path}: expected {width} columns")
    return TrajectoryDiagnostics(*data.T)


def write_chain_csv(path, trace: ChainTrace) -> None:
    _write_csv(path, trace)


def _write_json(path, obj) -> None:
    def write(fh):
        json.dump(obj, fh, indent=1)
        fh.write("\n")

    _write_atomic(path, write)


# ---------------------------------------------------------------------------
# Shared setup
# ---------------------------------------------------------------------------

def _scaled_ic(grid: GridSpec, seed: int, target_E2: float,
               key: str) -> HorizontalField:
    """Random smooth field in H rescaled so |v|_V^2 equals target_E2, which
    the config key ``key`` sets; an InputError naming it if that field would
    overflow.  The check is float arithmetic, so it emits no numpy warning."""
    v = random_smooth_field(np.random.default_rng(seed), grid)
    if target_E2 == 0.0:
        return HorizontalField.zeros(grid)
    scale = float(np.sqrt(target_E2 / norm_V(v) ** 2))
    if not np.isfinite(scale * float(np.abs(v.data).max())):
        raise InputError(f"{key} too large: the initial field scaled to "
                         f"|v|_V^2 = {target_E2:.6g} overflows float64")
    return scale * v


def _forcing_field(grid: GridSpec, seed: int, target_H2: float) -> HorizontalField | None:
    """Fixed smooth forcing with |f|_H^2 equal to target_H2 (None if zero)."""
    if target_H2 == 0.0:
        return None
    f = random_smooth_field(np.random.default_rng(seed), grid)
    return float(np.sqrt(target_H2 / norm_H(f) ** 2)) * f


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _reject_ignored(cfg: RunConfig) -> None:
    """An InputError naming every key set to anything but its default that
    ``cfg.experiment`` does not read (``_READS``)."""
    read = _READS[cfg.experiment]
    if cfg.experiment == "kicks" and cfg.kick.T == 0:
        read += ("sim.t_end",)   # the horizon of the T_V probes
    ignored = [key for section, block in (("grid", cfg.grid), ("sim", cfg.sim),
                                          ("kick", cfg.kick), ("experiment", cfg.exp))
               for f in fields(block)
               if section not in read and (key := f"{section}.{f.name}") not in read
               and key != "kick.seed" and getattr(block, f.name) != f.default]
    if cfg.record_every != 1 and "record_every" not in read:
        ignored.append("record_every")
    if ignored:
        raise InputError(f"{cfg.experiment} reads only {', '.join(read)} from "
                         f"the config; remove {', '.join(ignored)}")


def run_verify(cfg: RunConfig, outdir: Path) -> dict:
    rep = verify_manufactured(cfg.sim.nu)
    report = asdict(rep)
    _write_json(outdir / "convergence.json", report)
    if rep.spatial_order < 1.8:
        raise ExperimentFailure(
            f"spatial convergence order {rep.spatial_order:.3f} < 1.8")
    if rep.temporal_order < 0.9:
        raise ExperimentFailure(
            f"temporal convergence order {rep.temporal_order:.3f} < 0.9")
    return report


def run_decay(cfg: RunConfig, outdir: Path) -> dict:
    T_V = []
    for i in range(cfg.exp.n_ic):
        v0 = _scaled_ic(cfg.grid, cfg.kick.seed + i, cfg.exp.R, "experiment.R")
        diag, _ = record_trajectory(v0, cfg.sim, cfg.record_every)
        write_trajectory_csv(outdir / f"decay_{i}.csv", diag)
        T_V.append(measure_decay_time(diag, cfg.exp.eps))
    report = {"R": cfg.exp.R, "eps": cfg.exp.eps, "T_V": T_V,
              "t_end": cfg.sim.t_end}
    if any(T is None for T in T_V):
        raise ExperimentFailure(
            f"some trajectories never settled below eps={cfg.exp.eps}: {T_V}")
    return report


def run_absorb(cfg: RunConfig, outdir: Path) -> dict:
    f = _forcing_field(cfg.grid, cfg.kick.seed + 9001, cfg.exp.f_H2)
    forcing_at = (lambda t: f) if f is not None else None
    diags = []
    for i in range(cfg.exp.n_ic):
        v0 = _scaled_ic(cfg.grid, cfg.kick.seed + i, cfg.exp.R, "experiment.R")
        diag, _ = record_trajectory(v0, cfg.sim, cfg.record_every, forcing_at)
        write_trajectory_csv(outdir / f"absorb_{i}.csv", diag)
        diags.append(diag)
    rep = detect_absorbing(diags, window=cfg.exp.window_frac * cfg.sim.t_end)
    report = {**asdict(rep), "f_H2": cfg.exp.f_H2}
    if any(rep.inconclusive):
        raise ExperimentFailure(
            f"tail still trending upward: inconclusive={rep.inconclusive}")
    return report


#: measure_T_V's probe count and the factor on the worst probe's decay time
T_V_PROBES = 3
T_V_SAFETY = 2.0


def measure_T_V(cfg: RunConfig) -> tuple[float, list[float]]:
    """The Theorem-3 inter-kick time: run T_V_PROBES unforced trajectories
    from |v0|_V^2 = 4R down to eps = R, take the worst decay time, and apply
    T_V_SAFETY (floored at 0.01 so the operator always advances).  The
    probes write no CSV, so they record every step whatever record_every
    says."""
    R = cfg.kick.R
    times = []
    for i in range(T_V_PROBES):
        v0 = _scaled_ic(cfg.grid, cfg.kick.seed + 5000 + i, 4.0 * R, "kick.R")
        diag, _ = record_trajectory(v0, cfg.sim)
        T = measure_decay_time(diag, R) if R > 0 else 0.0
        if T is None:
            raise ExperimentFailure(
                f"T_V(4R, R) not reached within t_end={cfg.sim.t_end}")
        times.append(T)
    return max(T_V_SAFETY * max(times), 0.01), times


def run_kicks(cfg: RunConfig, outdir: Path) -> dict:
    R = cfg.kick.R
    if cfg.kick.T > 0:
        T, probe_times = cfg.kick.T, []
    else:
        T, probe_times = measure_T_V(cfg)
    kc = replace(cfg.kick, T=T)
    traces = []
    for k in range(cfg.exp.n_chains):
        v0 = _scaled_ic(cfg.grid, cfg.kick.seed + 100 + k, R, "kick.R")
        traces.append(run_chain(kc, cfg.sim, v0, chain_index=k))
        write_chain_csv(outdir / f"chain_{k}.csv", traces[-1])
    pooled_E2 = [tr.E2[cfg.kick.burn_in:] for tr in traces]
    max_E2 = max(float(tr.E2.max()) for tr in traces)
    report = {
        "T": T, "T_probe_times": probe_times, "R": R,
        "n_chains": cfg.exp.n_chains, "N": cfg.kick.N,
        "burn_in": cfg.kick.burn_in,
        "max_E2": max_E2, "bound_4R": 4.0 * R,
        "rescale_fraction": float(np.mean(
            [tr.rescaled.mean() for tr in traces])),
    }
    if cfg.exp.n_chains >= 2:
        half = cfg.exp.n_chains // 2
        g1 = np.concatenate(pooled_E2[:half])
        g2 = np.concatenate(pooled_E2[half:])
        report["split_wasserstein_E2"] = wasserstein1(g1, g2)
        report["pooled_iqr_E2"] = float(np.subtract(
            *np.percentile(np.concatenate(pooled_E2), [75, 25])))
    if max_E2 > 4.0 * R * (1.0 + 1e-6):
        raise ExperimentFailure(
            f"chain boundedness violated: max |X|_V^2 = {max_E2:.6g} "
            f"> 4R = {4.0 * R:.6g}")
    return report


def run_diag(cfg: RunConfig, outdir: Path) -> dict:
    pattern = cfg.exp.input
    if not pattern:
        raise InputError("diag: experiment.input must name a directory or glob "
                         "of trajectory CSVs")
    if os.path.isdir(pattern):
        paths = sorted(glob.glob(os.path.join(pattern, "*.csv")))
    else:
        paths = sorted(glob.glob(pattern))
    if not paths:
        raise InputError(f"diag: no trajectory CSVs match {pattern!r}")
    entries = []
    all_ok = True
    for path in paths:
        diag = read_trajectory_csv(path)
        ivs = eta_partition(diag, cfg.exp.eta)
        C = fit_growth_constant(diag, ivs, cfg.exp.f_H2)
        ok = check_growth_bound(diag, ivs, C, cfg.exp.f_H2)
        all_ok = all_ok and ok
        entries.append({"path": path, "n_intervals": len(ivs),
                        "n_degenerate": sum(iv.degenerate for iv in ivs),
                        "C": C, "bound_holds": ok})
    report = {"eta": cfg.exp.eta, "f_H2": cfg.exp.f_H2, "trajectories": entries}
    if not all_ok:
        raise ExperimentFailure("fitted growth bound violated on some trajectory")
    return report


def run_probe(cfg: RunConfig, outdir: Path) -> dict:
    v0 = _scaled_ic(cfg.grid, cfg.kick.seed + 1, cfg.exp.R, "experiment.R")
    w = random_smooth_field(np.random.default_rng(cfg.kick.seed + 2), cfg.grid)
    ratios = continuity_probe(v0, w, list(cfg.exp.deltas), cfg.exp.probe_t, cfg.sim)
    spread = max(ratios) / min(ratios)
    report = {"t": cfg.exp.probe_t, "deltas": list(cfg.exp.deltas),
              "ratios": ratios, "spread": spread}
    if not all(np.isfinite(ratios)):
        raise ExperimentFailure(f"non-finite sensitivity ratios: {ratios}")
    if spread > 3.0:
        raise ExperimentFailure(
            f"sensitivity ratio spread {spread:.3f} > 3 across the delta ladder")
    return report


_DRIVERS = {"verify": run_verify, "decay": run_decay, "absorb": run_absorb,
            "kicks": run_kicks, "diag": run_diag, "probe": run_probe}

#: the config keys each driver reads, a section name standing for all its
#: keys (verify's ladder fixes its own grids and time steps); kicks also
#: reads sim.t_end when it measures T (kick.T = 0), and every driver reads
#: kick.seed, which run_experiment's seed argument sets
_READS = {
    "verify": ("sim.nu",),
    "decay": ("grid", "sim", "experiment.R", "experiment.eps", "experiment.n_ic",
              "record_every"),
    "absorb": ("grid", "sim", "experiment.R", "experiment.f_H2",
               "experiment.window_frac", "experiment.n_ic", "record_every"),
    "kicks": ("grid", "sim.nu", "sim.dt_max", "sim.cfl", "kick", "experiment.n_chains"),
    "diag": ("experiment.input", "experiment.eta", "experiment.f_H2"),
    "probe": ("grid", "sim.nu", "sim.dt_max", "sim.cfl", "experiment.R",
              "experiment.deltas", "experiment.probe_t"),
}


def run_experiment(cfg: RunConfig, seed: int | None = None,
                   output: str | None = None) -> int:
    """Run one experiment end to end; returns the process exit code."""
    if seed is not None:
        cfg = replace(cfg, kick=replace(cfg.kick, seed=seed))
    if output is not None:
        cfg = replace(cfg, output_dir=output)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        _reject_ignored(cfg)
        report = _DRIVERS[cfg.experiment](cfg, outdir)
    except ExperimentFailure as e:
        _write_json(outdir / "failure.json",
                    {"experiment": cfg.experiment, "kind": "assertion",
                     "detail": str(e)})
        print(f"FAIL ({cfg.experiment}): {e}")
        return 2
    except (InputError, SolverError) as e:
        failure = {"experiment": cfg.experiment, "kind": "error",
                   "detail": str(e)}
        if isinstance(e, DivergenceError):
            failure["diagnostics"] = e.diagnostics
        elif isinstance(e, SolverError) and e.residual is not None:
            failure["residual"] = e.residual
        _write_json(outdir / "failure.json", failure)
        print(f"ERROR ({cfg.experiment}): {e}")
        return 3
    except BaseException as e:
        _write_json(outdir / "failure.json",
                    {"experiment": cfg.experiment, "kind": "exception",
                     "type": type(e).__name__, "detail": str(e)})
        raise
    _write_json(outdir / f"{cfg.experiment}_report.json", report)
    print(f"OK ({cfg.experiment}): report in {outdir}")
    return 0
