"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --workloads kicks16 decay24 verify --seeds 0 1 2 3 4

Each (workload, seed) is one ``bench/run.py`` process with BENCHMARK.json's
run length.  For every metric the table gives the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median; end-to-end metrics whose spread reaches a third of
their bound are flagged.  All results are written to
``.bench_out/sweep-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            res = json.loads(lines[-1])
            results.setdefault(workload, []).append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                           if k in bounds or k.endswith("op_applies")
                           or k.startswith("trace.")),
                  flush=True)

    print(f"\n{'workload':10s} {'metric':42s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            flag = " !" if name in bounds and spread >= bounds[name] / 3 else ""
            print(f"{workload:10s} {name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f}{flag}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload:10s} {'failed share':42s} {sorted(shares)}")
    out = ROOT / ".bench_out" / f"sweep-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
