#!/usr/bin/env python3
"""fracmv benchmark: whole CLI runs, timed end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate-canonical [--seed N]
        [--seconds S] [--trace 0|1]

Each CLI call runs in a fresh process (``child.py``), one at a time,
with BLAS/OpenMP pinned to one thread and ``workers: 1``.  A run keeps
starting calls while the next one is expected to end within
``--seconds`` of the first; it always makes at least one.  Four more
processes only set up, so that ``setup_s`` is a median of several.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` skips the
set-up probes, makes one untraced and one traced call and reports the
per-layer metrics from the traced call's spans (see ``spans.py``),
including the tracing overhead.

Every call's outputs are checked; a failed check counts in ``failed``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go
to ``.perfbench_runs/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics, unit_of  # noqa: E402
from workloads import (  # noqa: E402
    CANONICAL_SEED,
    WORKLOADS,
    check_output,
    control_cost_from_csv,
    output_digest,
)

WORK = ROOT / ".perfbench_runs"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 4
# A run must end within 180 s; stop launching and kill a call at this mark.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def platform_record(child_env: dict) -> dict:
    """What the output bytes may depend on: the CPU and the numeric stack."""
    return {"cpu": cpu_model(), **child_env}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def reference_digest(platform: dict, workload: str, seed: int) -> str | None:
    """The seed-commit digest of this run's outputs, if one was recorded here."""
    if not DIGESTS.exists():
        return None
    for entry in json.loads(DIGESTS.read_text()):
        if entry["platform"] == platform:
            return entry["digests"].get(workload, {}).get(str(seed))
    return None


class Runner:
    """Launches the run processes of one benchmark run and checks their outputs."""

    def __init__(self, workload: str, seed: int, tiny: bool, work: Path, wrong_reference: bool):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.wrong_reference = wrong_reference
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = child_env()
        self.calls: list[dict] = []
        self.setups: list[float] = []
        self.platform: dict | None = None
        self._n = 0

    def launch(self, mode: str) -> dict:
        """Start one run process and wait for it; return what it reported."""
        k = self._n
        self._n += 1
        spec = {
            "workload": self.workload.name,
            "seed": self.seed,
            "tiny": self.tiny,
            "mode": mode,
            "run_id": f"{self.workload.name}/{self.seed}/{k}",
            # Relative to the repository root, the run process's working
            # directory: the rate manifest records the target path, and
            # the output digest must not depend on where the checkout is.
            "inputs": str((self.work / "inputs").relative_to(ROOT)),
            "out": str((self.work / f"out-{k}").relative_to(ROOT)),
            "result": str(self.work / f"result-{k}.json"),
            "spans": str(self.work / f"spans-{k}.json"),
        }
        log_path = self.work / f"log-{k}.txt"
        rec = {"k": k, "mode": mode, "spec": spec, "log": log_path}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            rec["error"] = "no time left in the run budget"
            return rec
        with open(log_path, "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rec["error"] = f"killed after {timeout:.0f} s"
                return rec
        rec["elapsed_s"] = time.monotonic() - start
        if code != 0:
            rec["error"] = f"run process exited with {code}"
            return rec
        res = json.loads(Path(spec["result"]).read_text())
        rec.update(res)
        rec["setup_s"] = res["ready"] - start
        self.setups.append(rec["setup_s"])
        return rec

    def setup_probe(self) -> None:
        rec = self.launch("setup")
        if "error" in rec:
            raise RuntimeError(f"set-up failed: {rec['error']}\n{rec['log'].read_text()[-2000:]}")

    def call(self, mode: str) -> dict:
        """One checked CLI call."""
        rec = self.launch(mode)
        out = ROOT / rec["spec"]["out"]
        rec["problems"] = []
        if "error" in rec:
            rec["problems"].append(rec["error"])
        elif rec["exit_code"] != 0:
            rec["problems"].append(f"fracmv exited with {rec['exit_code']}")
        else:
            refs = dict(rec["refs"])
            if self.workload.command == "rate":
                refs["reference_cost"] = control_cost_from_csv(self.work / "inputs" / "control.csv")
            if self.wrong_reference:
                refs = {k: v * 1e-12 for k, v in refs.items()}
            problems, rec["quality"] = check_output(self.workload, out, refs)
            rec["problems"].extend(problems)
            self.platform = self.platform or platform_record(rec["env"])
            rec["digest"] = output_digest(out)
            rec["digest_ref"] = reference_digest(self.platform, self.workload.name, self.seed)
        if "error" in rec or rec["exit_code"] != 0:
            print(rec["log"].read_text()[-2000:], file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        self.calls.append(rec)
        describe(rec)
        return rec


def describe(rec: dict) -> None:
    parts = [f"call {rec['k']} ({rec['mode']}):"]
    if "wall_s" in rec:
        parts.append(
            f"wall_s={rec['wall_s']:.4f} s cpu_s={rec['cpu_s']:.4f} s setup_s={rec['setup_s']:.4f} s "
            f"peak_rss_mb={rec['peak_rss_mb']:.1f} MB"
        )
    for name, (val, _unit) in rec.get("quality", {}).items():
        parts.append(f"{name}={val:.6g}")
    parts.append("ok" if not rec["problems"] else "FAILED: " + "; ".join(rec["problems"]))
    print(" ".join(parts))
    if "digest" in rec:
        ref = rec["digest_ref"]
        if ref is None:
            verdict = "no seed-commit digest recorded for this seed and platform"
        elif ref == rec["digest"]:
            verdict = "matches the seed-commit digest"
        else:
            verdict = f"MISMATCH: seed-commit digest is {ref}"
        print(f"  output sha256 {rec['digest']} ({verdict})")


def median_of(recs: list[dict], key: str) -> float:
    values = [r[key] for r in recs if key in r]
    return statistics.median(values) if values else 0.0


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    wrong_reference: bool = False,
) -> dict:
    """Run one benchmark run and return its result object.

    ``tiny`` shrinks the grids for the smoke test; ``wrong_reference``
    hands the output checks deliberately wrong references, so that the
    smoke test can see failed checks counted.
    """
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, tiny, work, wrong_reference)
    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")

    if trace:
        untraced = runner.call("run")
        traced = runner.call("trace")
        spans_path = Path(traced["spec"]["spans"])
        doc = json.loads(spans_path.read_text()) if spans_path.exists() else {"spans": [], "counters": {}}
        values = layer_metrics(doc, traced.get("wall_s", 0.0), untraced.get("wall_s", 0.0))
        quality = traced.get("quality", {})
        values["rate_function.value_ratio"] = float(quality.get("rate_value_ratio", (0.0,))[0])
        values["rate_function.gap_rel"] = float(quality.get("rate_gap_rel", (0.0,))[0])
        metrics = {name: (val, unit_of(name)) for name, val in values.items()}
    else:
        for _ in range(SETUP_PROBES):
            runner.setup_probe()
        first = time.monotonic()
        while True:
            rec = runner.call("run")
            if "error" in rec:
                break
            elapsed = time.monotonic() - first
            per_call = elapsed / len(runner.calls)
            if elapsed + per_call > seconds or time.monotonic() + per_call > runner.deadline:
                break
        values = {
            "wall_s": median_of(runner.calls, "wall_s"),
            "setup_s": statistics.median(runner.setups),
            "peak_rss_mb": median_of(runner.calls, "peak_rss_mb"),
        }
        metrics = {name: (val, END_TO_END_UNITS[name]) for name, val in values.items()}

    attempted = len(runner.calls)
    failed = sum(1 for r in runner.calls if r["problems"])
    print(
        "env "
        + json.dumps(
            {
                "nproc": os.cpu_count(),
                **(runner.platform or platform_record({})),
                "commit": git_commit(),
                "threads": {k: runner.env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
                "workers": 1,
            },
            sort_keys=True,
        )
    )
    for name, (val, unit) in metrics.items():
        print(f"{name} = {val:.6g} {unit}")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} calls failed)")
    checked = [r for r in runner.calls if "quality" in r]
    if checked:
        for name, (_val, unit) in checked[0]["quality"].items():
            print(f"{name} = {statistics.median(r['quality'][name][0] for r in checked):.6g} {unit}")
    walls = [r["wall_s"] for r in runner.calls if "wall_s" in r]
    print(f"wall_s samples ({len(walls)}): {' '.join(f'{s:.4f}' for s in walls)}")
    print(f"setup_s samples ({len(runner.setups)}): {' '.join(f'{s:.4f}' for s in runner.setups)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fracmv" / "cli.py").is_file():
        print(f"perfbench: no fracmv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
