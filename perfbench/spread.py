#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        [--workload NAME ...] [--trace 0|1] [--save FILE]

Runs the command of ``BENCHMARK.json`` once per workload and seed, one
run at a time, and prints for every metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to a third of the
metric's bound.  ``--save`` writes these summaries, every run's output
digests and the platform record to a JSON file; ``baseline.json`` and
``digests.json`` are assembled from such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(bench["command"] + args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1])}
    record["digests"] = [ln.split()[2] for ln in lines if ln.startswith("  output sha256 ")]
    env = [ln[4:] for ln in lines if ln.startswith("env ")]
    record["env"] = json.loads(env[0]) if env else {}
    return record


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer" if args.trace else "end_to_end"]

    saved = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            rec = one_run(bench, workload, seed, args.trace)
            res = rec["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if not args.trace or k.startswith("trace.")),
                  flush=True)
            runs.append(rec)
        summaries = {}
        for m in specs:
            s = summaries[m["name"]] = summarize(
                [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            )
            limit = f" (a third of the bound: {m['bound'] / 3:.4f})" if "bound" in m else ""
            print(f"  {workload} {m['name']}: median {s['median']:.6g} {m['unit']}, "
                  f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.4f}{limit}",
                  flush=True)
        saved["env"] = runs[-1]["env"]
        saved["workloads"][workload] = {
            "seeds": args.seeds,
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": summaries,
            "digests": {str(r["seed"]): sorted(set(r["digests"])) for r in runs},
        }
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
