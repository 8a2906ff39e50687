"""The benchmark's workloads: seeded program inputs and per-run output checks.

Each workload is one ``fracmv`` CLI run.  Its inputs are generated from
the benchmark seed: a YAML config (overrides on top of the canonical
experiment) and, for ``rate``, a manufactured-control CSV.  The program
receives only those files.

The seed becomes the config's master seed.  On the ``simulate``
workloads it drives the particle noise (and the initial jitter in 2-d);
the ``rate`` path is deterministic and uses no noise, so its inputs are
the same for every seed and its timing varies only with the machine.
Why each workload is in the benchmark is recorded next to it in
``BENCHMARK.json``.

Nothing here imports ``fracmv`` at module level: ``run.py`` uses the
checks without loading the program, and the run process imports it as
part of its measured set-up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

CANONICAL_SEED = 20260814

# Criterion 9's gate: the estimate may overshoot the known attaining
# control's cost by at most 5 %.
VALUE_SLACK = 1.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: dict
    tiny: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-canonical",
            "simulate",
            {},
            tiny={
                "grid": {"points_per_dim": 32},
                "time": {"steps": 20},
                "picard": {"n_particles": 8},
            },
        ),
        Workload(
            "simulate-2d-fixed",
            "simulate",
            {
                "grid": {"dim": 2, "points_per_dim": 32},
                "picard": {"n_particles": 64, "lambda_weight": 1.0},
                "initial": {"jitter": 0.1},
            },
            tiny={
                "grid": {"points_per_dim": 8},
                "time": {"steps": 20},
                "picard": {"n_particles": 8},
            },
        ),
        Workload(
            "rate-manufactured",
            "rate",
            {
                "grid": {"points_per_dim": 64},
                "noise": {"n_modes": 2},
                "time": {"steps": 20},
            },
            tiny={
                "grid": {"points_per_dim": 16},
                "time": {"steps": 4},
            },
        ),
    )
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, val in extra.items():
        out[key] = _merge(out[key], val) if isinstance(out.get(key), dict) else val
    return out


def config_doc(workload: Workload, seed: int, tiny: bool) -> dict:
    """The YAML overrides the program receives."""
    doc = _merge({"seed": int(seed), "workers": 1}, workload.overrides)
    return _merge(doc, workload.tiny) if tiny else doc


def write_inputs(workload: Workload, seed: int, tiny: bool, directory: Path) -> tuple[list[str], dict]:
    """Write the generated inputs; return the CLI arguments and check references.

    Runs inside the measured set-up of the run process, so it imports
    the program.  The references are what the output checks compare
    against: the Picard stopping threshold for ``simulate`` and the
    manufactured control's cost and the gap tolerance for ``rate``.
    """
    import numpy as np
    import yaml

    from fracmv.config import load_config
    from fracmv.dynamics import Control, save_control
    from fracmv.grid import l2_norm

    directory.mkdir(parents=True, exist_ok=True)
    cfg_path = directory / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config_doc(workload, seed, tiny), sort_keys=True))
    cfg = load_config(cfg_path)
    argv = [workload.command, "--config", str(cfg_path)]
    if workload.command == "simulate":
        refs = {"threshold": cfg.picard_config().tol * (1.0 + l2_norm(cfg.u0))}
        return argv, refs

    # The manufactured control of verify criterion 9; save_control writes
    # the grid's dt into the header, so the file matches the time grid.
    tgrid = cfg.tgrid
    t_left = tgrid.nodes[:-1]
    vbar = Control(
        np.stack(
            [
                0.6 * np.sin(2 * np.pi * t_left / tgrid.horizon),
                0.4 * np.cos(np.pi * t_left / tgrid.horizon),
            ],
            axis=1,
        ),
        tgrid.dt,
    )
    control_path = save_control(vbar, directory / "control.csv")
    argv += ["--target", f"manufactured:{control_path}"]
    return argv, {"gap_tol": float(cfg.raw["rate"]["gap_tol"])}


def control_cost_from_csv(path: Path) -> float:
    """``0.5 * dt * sum(v**2)`` of a control file, computed without the program."""
    lines = path.read_text().splitlines()
    dt = float(lines[0].split("dt=")[1].split()[0])
    total = sum(float(x) ** 2 for line in lines[1:] if line.strip() for x in line.split(","))
    return 0.5 * dt * total


def output_digest(out_dir: Path) -> str:
    """sha256 over every file of a run directory, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_output(workload: Workload, out_dir: Path, refs: dict) -> tuple[list[str], dict]:
    """Check one run's outputs.

    Returns the list of failed checks (empty when the run is correct)
    and the result-quality numbers ``run.py`` reports, as
    ``{name: (value, unit)}``.
    """
    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if not manifest.get("converged"):
        problems.append("manifest says the run did not converge")
    if workload.command == "simulate":
        distances = [float(r["distance"]) for r in _read_csv(out_dir / "picard_report.csv")]
        final = distances[-1] if distances else math.inf
        if not final <= refs["threshold"]:
            problems.append(
                f"final Picard distance {final:.6g} exceeds threshold {refs['threshold']:.6g}"
            )
        return problems, {"picard_iterations": (int(manifest.get("iterations", 0)), "count")}

    (est,) = _read_csv(out_dir / "rate_estimate.csv")
    value, gap_rel = float(est["value"]), float(est["gap_rel"])
    ref_cost = refs["reference_cost"]
    if est["converged"] != "True":
        problems.append("rate_estimate.csv says the estimate did not converge")
    if not value <= VALUE_SLACK * ref_cost:
        problems.append(f"value {value:.6g} exceeds {VALUE_SLACK} x reference cost {ref_cost:.6g}")
    if not gap_rel < refs["gap_tol"]:
        problems.append(f"gap_rel {gap_rel:.6g} is not below gap_tol {refs['gap_tol']:.6g}")
    return problems, {
        "rate_value_ratio": (value / ref_cost, "ratio"),
        "rate_gap_rel": (gap_rel, "ratio"),
        "rate_n_evaluations": (int(est["n_evaluations"]), "count"),
    }
