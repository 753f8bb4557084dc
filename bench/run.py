"""pe3d benchmark: three experiment workloads timed end to end through
``pe3d.experiments.run_experiment`` (what ``pe3d <experiment>`` runs), with
every output checked, and a traced run that gives the per-layer table.

    python3 bench/run.py --workload kicks16 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import CG_LAYER, LAYERS, Patches, Recorder, StepCounter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh processes timed for setup_s, after one untimed warm-up
SETUP_REPEATS = 5

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import pe3d
with open(sys.argv[1]) as fh:
    pe3d.parse_config(fh.read())
print(repr(time.perf_counter() - t0))
"""

#: workload -> (config file, layers the workload must call)
_FLOW = ("dynamics.step", "linalg.weighted_cg", "dynamics.nonlinear_B",
         "dynamics.cfl_dt", "projection.project_H", "experiments.run_experiment")
WORKLOADS = {
    "kicks16": ("kicks16.cfg", _FLOW + ("kicks.draw_kick", "kicks.run_chain",
                                        "experiments.write_csv")),
    "decay24": ("decay24.cfg", _FLOW + ("norms.norm_report",
                                        "estimates.record_trajectory",
                                        "experiments.write_csv")),
    "verify": ("verify.cfg", _FLOW + ("verification.verify_manufactured",)),
}


def _pin_threads() -> None:
    """One ensemble worker and single-threaded BLAS.  numpy and scipy each
    load their own OpenBLAS, so two BLAS threads would already make three
    threads; the calls are no faster with them.  Must run before numpy is
    imported."""
    for var in ("PE3D_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _operations(cfg) -> int:
    """Operations in one run_experiment call: ensemble members, chains or
    ladder cases."""
    if cfg.experiment == "kicks":
        return cfg.exp.n_chains
    if cfg.experiment == "decay":
        return cfg.exp.n_ic
    return 7  # verify_manufactured: three grids plus four time steps


def measure_setup(cfg_path: Path) -> float:
    """Median fresh-process time of ``import pe3d`` plus ``parse_config``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(cfg_path)],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times[1:])


class Bench:
    def __init__(self, workload: str, seed: int, trace: int):
        import pe3d
        import pe3d.experiments

        if Path(pe3d.__file__).resolve().parent != SRC / "pe3d":
            raise RuntimeError(f"pe3d imported from {pe3d.__file__}, not {SRC}")
        self.seed = seed
        cfg_name, self.expected_layers = WORKLOADS[workload]
        self.cfg_path = HERE / "configs" / cfg_name
        self.cfg = pe3d.parse_config(self.cfg_path.read_text())
        self.ops = _operations(self.cfg)
        self.experiments = pe3d.experiments
        self.outdir = OUT / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.patches = Patches()
        self.steps = StepCounter(keep_finals=self.cfg.experiment == "verify")
        self.steps.install(self.patches)
        self.reps: list[dict] = []

    def close(self) -> None:
        self.patches.restore()

    def run_once(self, recorder=None) -> dict:
        """One run_experiment call, optionally traced; returns its record."""
        outdir = self.outdir / f"rep{len(self.reps)}"
        shutil.rmtree(outdir, ignore_errors=True)
        trace_patches = Patches()
        if recorder is not None:
            recorder.install(trace_patches)
        steps0 = self.steps.calls
        t0 = time.perf_counter()
        try:
            # the program's progress lines go to stderr; stdout carries the result
            with contextlib.redirect_stdout(sys.stderr):
                rc = self.experiments.run_experiment(self.cfg, seed=self.seed,
                                                     output=str(outdir))
        except Exception:
            traceback.print_exc()
            rc = None
        finally:
            wall = time.perf_counter() - t0
            trace_patches.restore()
        rep = {"outdir": outdir, "rc": rc, "run_s": wall,
               "steps": self.steps.calls - steps0, "traced": recorder is not None,
               "finals": self.steps.take_finals()}
        self.reps.append(rep)
        print(f"call {len(self.reps) - 1}: rc={rc} run_s={wall:.4f} steps={rep['steps']}"
              f"{' traced' if rep['traced'] else ''}", file=sys.stderr)
        return rep

    def check(self, rep: dict) -> list[str]:
        import checks

        if rep["rc"] != 0:
            return []  # counted as failed operations, not checked
        try:
            name = self.cfg.experiment
            with open(rep["outdir"] / f"{name}_report.json") as fh:
                report = json.load(fh)
            if name == "kicks":
                return checks.check_kicks(rep["outdir"], self.cfg, report)
            if name == "decay":
                return checks.check_decay(rep["outdir"], self.cfg, report)
            return checks.check_verify(report, rep["finals"])
        except Exception as e:  # a check that cannot run is a failed check
            return [f"check raised {type(e).__name__}: {e}"]

    def counts(self) -> tuple[int, int]:
        attempted = self.ops * len(self.reps)
        failed = self.ops * sum(r["rc"] != 0 for r in self.reps)
        return attempted, failed


def _repeat(run_once, seconds: float) -> None:
    """Call run_once until the next call would overrun ``seconds``; at
    least once."""
    start, times = time.perf_counter(), []
    while True:
        times.append(run_once())
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup_s = measure_setup(bench.cfg_path)
    _repeat(lambda: bench.run_once()["run_s"], seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reps = bench.reps
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": statistics.median(r["run_s"] for r in reps), "unit": "s"},
        "steps_per_s": {"value": statistics.median(r["steps"] / r["run_s"] for r in reps),
                        "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def traced(bench: Bench, seconds: float) -> tuple[dict, list[str], list]:
    """Alternate untraced and traced calls; per-layer values are medians
    over the traced calls."""
    tables, applies, spans = [], [], []

    def pair() -> float:
        plain = bench.run_once()
        rec = Recorder()
        traced_rep = bench.run_once(rec)
        tables.append(rec.table())
        applies.append(rec.op_applies)
        spans.append(rec.spans)
        return plain["run_s"] + traced_rep["run_s"]

    _repeat(pair, seconds)
    metrics = {}
    for layer in LAYERS:
        for key, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            metrics[f"{layer}.{key}"] = {
                "value": statistics.median(t[layer][key] for t in tables), "unit": unit}
    cg_calls = [t[CG_LAYER]["calls"] for t in tables]
    metrics[f"{CG_LAYER}.op_applies"] = {"value": statistics.median(applies),
                                         "unit": "count"}
    metrics[f"{CG_LAYER}.op_applies_per_call"] = {
        "value": statistics.median(a / max(c, 1) for a, c in zip(applies, cg_calls)),
        "unit": "count"}
    plain = [r["run_s"] for r in bench.reps if not r["traced"]]
    with_spans = [r["run_s"] for r in bench.reps if r["traced"]]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(with_spans) - statistics.median(plain), "unit": "s"}
    silent = [layer for layer in bench.expected_layers
              if any(t[layer]["calls"] == 0 for t in tables)]
    problems = [f"self-test: layer {layer} recorded no calls" for layer in silent]
    return metrics, problems, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pe3d" / "__init__.py").is_file():
        print(f"error: no pe3d sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed, args.trace)
    try:
        if args.trace:
            metrics, problems, spans = traced(bench, args.seconds)
            bench.outdir.mkdir(parents=True, exist_ok=True)
            with open(bench.outdir / "spans.json", "w") as fh:
                json.dump(spans, fh)
        else:
            metrics, problems = end_to_end(bench, args.seconds), []
    finally:
        bench.close()
    for rep in bench.reps:
        problems += bench.check(rep)
    for p in problems:
        print(f"{args.workload}: {p}", file=sys.stderr)
    attempted, failed = bench.counts()
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{bench.outdir.name}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
