"""Command-line front end.

Four subcommands cover the pipeline: ``simulate`` streams the mean-field
fixed point to disk and writes the particle ensemble, ``skeleton`` solves the
zero-noise and (optionally) controlled deterministic equations,
``rate`` estimates the minimal steering cost to a target, and
``verify`` runs the property suites.  Every run directory gets a
manifest carrying the seed and the config hash; nothing in the outputs
depends on wall time, so reruns are byte-identical.

Exit codes: 0 success, 2 validation problems, 3 numerical failures
(blow-up, non-contraction), 4 verification-suite failures.  Flags may
also be supplied through ``FRACMV_``-prefixed environment variables
(``FRACMV_CONFIG``, ``FRACMV_OUT``, ``FRACMV_SEED``, ``FRACMV_SUITE``,
``FRACMV_CONTROL``, ``FRACMV_TARGET``); explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import locale  # noqa: F401  argparse's gettext imports it when main builds the parser; load it here
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .dynamics import (
    _SLAB_BYTES,
    Control,
    _TrajectoryWriter,
    _square_sums,
    energy_residual,
    load_control,
    load_trajectory,
    save_control,
    save_trajectory,
    solve_controlled,
    solve_deterministic,
    sup_distance,
)
from .errors import BlowUpError, FixedPointDivergenceError, GridMismatchError, ValidationError
from .grid import _le_f8, load_grid_function, tail_masses
from .measure import EmpiricalMeasure, save_measure
from .mckean_vlasov import _sweep_nodes
from .mckean_vlasov import picard_solve  # noqa: F401  perfbench/spans.py wraps it here
from .rate_function import check_target, control_cost, estimate_rate

__all__ = ["cmd_simulate", "cmd_skeleton", "cmd_rate", "cmd_verify", "main"]


def _manifest(cfg: RunConfig, command: str, extra: dict) -> dict:
    return {
        "command": command,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "grid": cfg.grid.geometry(),
        "time": {"horizon": cfg.tgrid.horizon, "steps": cfg.tgrid.steps},
        "n_modes": cfg.coeffs.sigma.n_modes,
        **extra,
    }


def _write_manifest(out: Path, doc: dict) -> None:
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(out: str | Path) -> Path:
    """Create the run directory; a path that cannot be one fails validation."""
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out {str(out)!r} is not a usable directory: {exc}") from None
    return out


# the bytes of nodes a run holds before appending them to each particle's trajectory, so
# what a run holds does not grow with its steps (a node larger than this is written alone).
# 1 MiB: a flush costs one gathered append per particle, about 4 us plus its bytes on a
# 2-vCPU Xeon, so fewer nodes a flush cost the run little time, and more are held for nothing
_BLOCK_BYTES = 1 << 20


def cmd_simulate(cfg: RunConfig, out: str | Path) -> Path:
    """Solve the mean-field fixed point and persist the ensemble, node by node.

    Each node of the causal sweep gives its ``flow_summary.csv`` row and tail
    mass, a slab at a time, and is held, not copied, until ``_BLOCK_BYTES`` of
    nodes are, then appended to the trajectories; the last is written as the
    blob ``final_measure.blob``.  An earlier run's particle files, final measure,
    manifest and CSV reports are removed first, and a blow-up removes the
    trajectories written so far, so a failed run leaves no file of the earlier one.
    """
    out = _out_dir(out)
    if (out / "final_measure").is_dir():
        raise ValidationError(
            f"{out / 'final_measure'}: an earlier version's final measure directory; simulate "
            "writes final_measure.blob, so remove it or choose another --out"
        )
    grid, times, n = cfg.grid, cfg.tgrid.nodes, cfg.picard_config().n_particles
    # the problem is built in the call, so no name keeps its start alive past node 0
    nodes = _sweep_nodes(cfg.problem(), n, None)
    margin = grid.half_width / 2.0
    delta = float(cfg.raw["verify"]["domain_margin_delta"])

    traj_dir = out / "trajectories"
    traj_dir.mkdir(exist_ok=True)
    for stale in [*traj_dir.glob("particle_*.traj"), out / "final_measure.blob",
                  out / "manifest.json", out / "flow_summary.csv", out / "picard_report.csv"]:
        stale.unlink(missing_ok=True)
    writers = [_TrajectoryWriter(traj_dir / f"particle_{i:03d}.traj", grid, times) for i in range(n)]
    row = 8 * grid.n_cells  # a particle's bytes at a node
    per_block = min(times.size, max(1, _BLOCK_BYTES // (n * row)))
    per_slab = max(1, min(n, _SLAB_BYTES // row))
    scratch, sums = np.empty((per_slab,) + grid.shape), np.empty(n)
    moments, worst, held = [], 0.0, []  # held: the bytes of each node not yet appended
    try:
        for vals in nodes:
            held.append(_le_f8(vals))
            for a in range(0, n, per_slab):
                slab = vals[a:a + per_slab]
                _square_sums(slab, scratch[:len(slab)], sums[a:a + per_slab])
                worst = max(worst, float(np.max(tail_masses(slab, grid, margin))))
            moments.append(float(np.mean(sums) * grid.cell_volume))  # second_moment's expression
            if len(held) == per_block or len(moments) == times.size:
                for i, writer in enumerate(writers):
                    writer.append([node[i * row:(i + 1) * row] for node in held])
                held = []
    except BlowUpError:
        for writer in writers:
            writer.discard()
        if not any(traj_dir.iterdir()):
            traj_dir.rmdir()
        raise
    save_measure(EmpiricalMeasure(grid, vals), out / "final_measure.blob")

    # one causal sweep is the fixed point, so this row and the manifest's converged and
    # iterations are constants; CI and perfbench/workloads.check_output read them
    _write_csv(out / "picard_report.csv", ["iteration", "distance", "ratio"], [(1, "0", "")])

    _write_csv(
        out / "flow_summary.csv",
        ["node", "time", "mean_second_moment"],
        [(s, f"{t:.17g}", f"{m:.17g}") for s, (t, m) in enumerate(zip(times, moments))],
    )

    if worst >= delta:
        warnings.warn(
            f"mass {worst:.3e} outside |x| >= {margin:g} exceeds {delta:g}; "
            "the domain may be too small for this run",
            stacklevel=2,
        )
    _write_manifest(
        out,
        _manifest(
            cfg,
            "simulate",
            {
                "n_particles": n,
                "epsilon": cfg.epsilon,
                "converged": True,
                "iterations": 1,
                "domain_margin": {"radius": margin, "worst_tail": worst, "delta": delta},
            },
        ),
    )
    return out


def _load_run_control(cfg: RunConfig, path: str | Path, what: str) -> Control:
    """Read a control file and check it against the run's time grid and modes."""
    v = load_control(path)
    v.check_shape(f"{what} {path}", cfg.tgrid.steps, cfg.coeffs.sigma.n_modes, cfg.tgrid.dt)
    return v


def cmd_skeleton(cfg: RunConfig, out: str | Path, control_path: str | Path | None = None) -> Path:
    """Solve the zero-noise path, plus a controlled run when given one."""
    v = None if control_path is None else _load_run_control(cfg, control_path, "control file")
    out = _out_dir(out)
    base = solve_deterministic(cfg.u0, cfg.coeffs, cfg.tgrid)
    save_trajectory(base, out / "skeleton.traj")

    def residual_rows(traj, control=None, base_traj=None):
        res = energy_residual(traj, cfg.coeffs, control=control, base=base_traj)
        return [
            (s, f"{cfg.tgrid.nodes[s]:.17g}", f"{res[s]:.17g}")
            for s in range(res.size)
        ]

    _write_csv(
        out / "energy_residual.csv",
        ["node", "time", "residual"],
        residual_rows(base),
    )

    extra: dict = {"control": None}
    if v is not None:
        controlled = solve_controlled(cfg.u0, v, base, cfg.coeffs, cfg.tgrid)
        save_trajectory(controlled, out / "controlled.traj")
        _write_csv(
            out / "controlled_energy_residual.csv",
            ["node", "time", "residual"],
            residual_rows(controlled, control=v, base_traj=base),
        )
        dist = sup_distance(controlled, base)
        extra["control"] = {
            "path": str(control_path),
            "cost": control_cost(v),
            "sup_distance_to_skeleton": dist,
        }
        if float(np.max(np.abs(v.values))) == 0.0:
            extra["control"]["zero_control_check"] = bool(dist <= 1e-12)
    _write_manifest(out, _manifest(cfg, "skeleton", extra))
    return out


def _parse_target(spec: str, cfg: RunConfig):
    """``(target, manufactured control)``; a file target is checked against the run's
    grid and nodes here, before any solve; None is a path the caller solves."""
    if spec == "deterministic":
        return None, None
    kind, _, path = spec.partition(":")
    if path and kind == "manufactured":
        return None, _load_run_control(cfg, path, "manufactured control")
    if path and kind in ("trajectory", "terminal"):
        target = load_trajectory(path) if kind == "trajectory" else load_grid_function(path)
        try:
            return check_target(target, cfg.grid, cfg.tgrid), None
        except GridMismatchError as exc:
            raise GridMismatchError(f"--target {spec}: {exc}") from None
    raise ValidationError(
        f"target spec must be 'deterministic', 'manufactured:PATH', "
        f"'trajectory:PATH', or 'terminal:PATH', got {spec!r}"
    )


def cmd_rate(cfg: RunConfig, out: str | Path, target_spec: str) -> Path:
    """Estimate the minimal control cost to reach a target."""
    target, vbar = _parse_target(target_spec, cfg)
    base = solve_deterministic(cfg.u0, cfg.coeffs, cfg.tgrid)
    if target is None:
        target = base if vbar is None else solve_controlled(cfg.u0, vbar, base, cfg.coeffs, cfg.tgrid)
    out = _out_dir(out)
    est = estimate_rate(cfg.rate_problem(target), cfg.u0, cfg.coeffs, cfg.tgrid, base=base)
    _write_csv(
        out / "rate_estimate.csv",
        ["value", "gap", "gap_rel", "converged", "n_evaluations", "iterations", "stop",
         "grad_max"],
        [(
            f"{est.value:.17g}",
            f"{est.gap:.17g}",
            f"{est.gap_rel:.17g}",
            est.converged,
            est.n_evaluations,
            est.iterations,
            est.stop,
            f"{est.grad_max:.17g}",
        )],
    )
    save_control(est.v_star, out / "optimal_control.csv")
    extra = {
        "target": target_spec,
        "value": est.value,
        "gap_rel": est.gap_rel,
        "converged": est.converged,
    }
    if vbar is not None:
        extra["reference_cost"] = control_cost(vbar)
    _write_manifest(out, _manifest(cfg, "rate", extra))
    return out


def cmd_verify(cfg: RunConfig, out: str | Path, suites: list[str] | None = None) -> int:
    """Run property suites; returns 0 when everything passed, 4 otherwise."""
    from .verify import check_suites, format_report, run_suites

    names = check_suites(suites)
    out = _out_dir(out)
    results = run_suites(cfg, names)
    print(format_report(results))
    _write_csv(
        out / "verify_report.csv",
        ["criterion", "name", "passed", "measured", "threshold", "seconds"],
        [
            (r.criterion, r.name, r.passed, r.measured, r.threshold, f"{r.seconds:.3f}")
            for r in results
        ],
    )
    _write_manifest(
        out,
        _manifest(
            cfg,
            "verify",
            {
                "suites": names,
                "passed": sum(1 for r in results if r.passed),
                "failed": sum(1 for r in results if not r.passed),
            },
        ),
    )
    return 0 if all(r.passed for r in results) else 4


def _env(name: str) -> str | None:
    return os.environ.get(f"FRACMV_{name}")


def _env_int(name: str) -> int | None:
    raw = _env(name)
    try:
        return None if raw is None else int(raw)
    except ValueError:
        raise ValidationError(f"FRACMV_{name} must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmv",
        description="Mean-field fractional reaction-diffusion laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run the mean-field fixed point and write the ensemble"),
        ("skeleton", "solve the zero-noise / controlled deterministic paths"),
        ("rate", "estimate the minimal steering cost to a target"),
        ("verify", "run property suites and report pass/fail"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="YAML config (default: built-in canonical)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "skeleton":
            p.add_argument("--control", default=None, help="control CSV to drive the dynamics")
        if name == "rate":
            p.add_argument(
                "--target",
                default=None,
                help="deterministic | manufactured:PATH | trajectory:PATH | terminal:PATH",
            )
        if name == "verify":
            p.add_argument(
                "--suite",
                default=None,
                help="comma-separated suite names (default all; an unknown name lists them)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config or _env("CONFIG"))
        seed = args.seed if args.seed is not None else _env_int("SEED")
        if seed is not None:
            cfg = cfg.with_overrides(seed=seed)
        out = args.out or _env("OUT") or f"runs/{args.command}-{cfg.seed}"

        if args.command == "simulate":
            cmd_simulate(cfg, out)
            print(f"wrote {out}")
            return 0
        if args.command == "skeleton":
            control = args.control or _env("CONTROL")
            cmd_skeleton(cfg, out, control)
            print(f"wrote {out}")
            return 0
        if args.command == "rate":
            target = args.target or _env("TARGET")
            if target is None:
                raise ValidationError("rate needs --target (or FRACMV_TARGET)")
            cmd_rate(cfg, out, target)
            print(f"wrote {out}")
            return 0
        suites = args.suite or _env("SUITE")
        names = [s.strip() for s in suites.split(",") if s.strip()] if suites else None
        if names == []:
            from .verify import SUITES

            raise ValidationError(f"--suite {suites!r} names no suite; available: {', '.join(SUITES)}")
        return cmd_verify(cfg, out, names)
    except ValidationError as exc:
        print(f"error[validation] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, FixedPointDivergenceError) as exc:
        print(f"error[numerical] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
