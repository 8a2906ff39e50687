#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

Usage, from the repository root:

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced run and checks
that each metric ``BENCHMARK.json`` names is emitted with its unit,
printed by name and carried in the result object.  It then hands the
output checks a deliberately wrong reference and checks that every call
is counted as failed.  Last, it runs the benchmark command in a
directory holding only ``BENCHMARK.json`` and the benchmark's files and
checks that it exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run_quietly(**kwargs) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run_benchmark(seed=SEED, seconds=1, tiny=True, **kwargs)
    return result, buf.getvalue()


def check_metrics(result: dict, text: str, specs: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, (label, result)
    assert set(result["metrics"]) == {m["name"] for m in specs}, (
        label,
        sorted(set(result["metrics"]) ^ {m["name"] for m in specs}),
    )
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], float), (label, m["name"])
        line = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$"
        assert re.search(line, text, re.M), (label, m["name"])
    assert "\nfail_frac = 0 " in text, label
    json.dumps(result)


def check_bare_directory(bench: dict) -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for rel in bench["paths"]:
        shutil.copytree(run.ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        result, text = run_quietly(workload=name, trace=False)
        check_metrics(result, text, bench["end_to_end"], f"{name} trace=0")
        result, text = run_quietly(workload=name, trace=True)
        check_metrics(result, text, bench["per_layer"], f"{name} trace=1")
        result, text = run_quietly(workload=name, trace=False, wrong_reference=True)
        assert not result["correct"], name
        assert result["failed"] == result["attempted"] >= 1, (name, result)
        assert "\nfail_frac = 1 " in text, name
        print(f"{name}: ok")
    check_bare_directory(bench)
    print("bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
