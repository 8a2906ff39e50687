"""``simulate`` writes the causal sweep node by node: its run directory must be
the collected solve's, byte for byte, while it holds a bounded block of nodes
and one file at a time, and a blow-up must leave no partial trajectory."""

import hashlib
import itertools
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import run_fresh

from fracmv import cli, dynamics
from fracmv.cli import cmd_simulate, main
from fracmv.config import load_config
from fracmv.dynamics import Trajectory, load_trajectory, save_trajectory
from fracmv.grid import tail_masses
from fracmv.measure import load_measure, save_measure, second_moment
from fracmv.mckean_vlasov import _sweep_nodes, picard_solve

TINY = {
    "grid": {"half_width": 4.0, "points_per_dim": 32},
    "time": {"horizon": 0.25, "steps": 20},
    "noise": {"n_modes": 2},
    "picard": {"n_particles": 5},
}


def _config(tmp_path: Path, name: str = "c.yaml", **sections) -> Path:
    doc = {key: dict(TINY.get(key, {}), **sections.get(key, {})) for key in {*TINY, *sections}}
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for name, data in _tree(root).items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


def _collected_simulate(cfg, out: Path) -> None:
    """``simulate`` as one collected solve, then each file from the whole flow."""
    out.mkdir()
    flow = picard_solve(cfg.problem(), cfg.picard_config())
    (out / "trajectories").mkdir()
    for i in range(flow.n_particles):
        save_trajectory(Trajectory(flow.grid, flow.times, flow.states[:, i]),
                        out / "trajectories" / f"particle_{i:03d}.traj")
    save_measure(flow.measure(flow.n_times - 1), out / "final_measure.blob")
    # the one causal sweep's report: one iteration at distance 0
    cli._write_csv(out / "picard_report.csv", ["iteration", "distance", "ratio"],
                   [(1, f"{0.0:.17g}", "")])
    cli._write_csv(
        out / "flow_summary.csv",
        ["node", "time", "mean_second_moment"],
        [(s, f"{flow.times[s]:.17g}", f"{second_moment(flow.measure(s)):.17g}")
         for s in range(flow.n_times)],
    )
    margin = cfg.grid.half_width / 2.0
    delta = float(cfg.raw["verify"]["domain_margin_delta"])
    worst = max(float(np.max(tail_masses(snap, cfg.grid, margin))) for snap in flow.states)
    cli._write_manifest(out, cli._manifest(cfg, "simulate", {
        "n_particles": flow.n_particles,
        "epsilon": cfg.epsilon,
        "converged": True,
        "iterations": 1,
        "domain_margin": {"radius": margin, "worst_tail": worst, "delta": delta},
    }))


def _streamed_is_collected(cfg, tmp_path: Path, monkeypatch) -> list:
    """Run ``simulate`` streamed and as the collected solve, assert the two run
    directories are equal byte for byte, and return the streamed run's node count
    of each trajectory append."""
    appends = []
    real = dynamics._TrajectoryWriter.append
    monkeypatch.setattr(dynamics._TrajectoryWriter, "append",
                        lambda self, nodes: appends.append(len(nodes)) or real(self, nodes))
    _collected_simulate(cfg, tmp_path / "collected")
    appends.clear()
    cmd_simulate(cfg, tmp_path / "streamed")
    collected, streamed = _tree(tmp_path / "collected"), _tree(tmp_path / "streamed")
    assert list(streamed) == list(collected)
    for name, data in collected.items():
        assert streamed[name] == data, name
    return appends


@pytest.mark.filterwarnings("ignore:mass .* outside")
@pytest.mark.parametrize("per_block", [4, 1])
@pytest.mark.parametrize("fmt", ["blob"])  # output.trajectory_format's one value, set explicitly
@pytest.mark.parametrize("dim,points", [(1, 32), (2, 8)])
def test_streamed_simulate_is_the_collected_solves_run_directory(dim, points, fmt, per_block,
                                                                 tmp_path, monkeypatch):
    """With blocks of 4 nodes, 5 particles and 21 nodes, neither count is a multiple
    of the block, so the last block is partial; a block of one node writes each
    node alone.  Either way every byte is the collected solve's."""
    cfg = load_config(_config(tmp_path, grid={"dim": dim, "points_per_dim": points},
                              output={"trajectory_format": fmt}))
    n, nodes = cfg.picard_config().n_particles, cfg.tgrid.steps + 1
    monkeypatch.setattr(cli, "_BLOCK_BYTES", per_block * 8 * n * cfg.grid.n_cells)
    appends = _streamed_is_collected(cfg, tmp_path, monkeypatch)
    assert per_block == 1 or (n % per_block and nodes % per_block)
    whole, rest = divmod(nodes, per_block)
    assert appends == [per_block] * n * whole + [rest] * n * bool(rest)


@pytest.mark.filterwarnings("ignore:mass .* outside")
def test_a_flush_of_more_nodes_than_one_gathered_write_takes(tmp_path, monkeypatch):
    """One particle on 64 cells makes 2,048 nodes a 1 MiB block, twice the 1,024
    buffers Linux lets one ``os.writev`` gather; over 1,100 steps the one flush
    holds 1,101 nodes, which go to the file in writes of at most ``_IOV_MAX``
    buffers, and every byte is the collected solve's."""
    cfg = load_config(_config(tmp_path, grid={"points_per_dim": 64}, time={"steps": 1100},
                              picard={"n_particles": 1}))
    nodes = cfg.tgrid.steps + 1
    assert nodes > dynamics._IOV_MAX
    gathered, real = [], os.writev
    monkeypatch.setattr(os, "writev", lambda fd, bufs: gathered.append(len(bufs)) or real(fd, bufs))
    assert _streamed_is_collected(cfg, tmp_path, monkeypatch) == [nodes]
    whole, rest = divmod(nodes, dynamics._IOV_MAX)
    assert gathered[-whole - bool(rest):] == [dynamics._IOV_MAX] * whole + [rest] * bool(rest)


@pytest.mark.filterwarnings("ignore:mass .* outside")
def test_a_short_gathered_write_is_finished_from_the_nodes(tmp_path, monkeypatch):
    """An ``os.writev`` that writes only the first half of its buffers and half of
    the next leaves the rest to the next call, which is handed views of the same
    nodes: no buffer is longer than one particle's node, so the block is never
    copied whole, and every byte is the collected solve's."""
    cfg = load_config(_config(tmp_path, grid={"dim": 2, "points_per_dim": 8}))
    n = cfg.picard_config().n_particles
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 4 * 8 * n * cfg.grid.n_cells)
    longest, real = [], os.writev

    def short(fd, bufs):
        half = len(bufs) // 2
        longest.append(max(len(b) for b in bufs))
        return real(fd, [*bufs[:half], bufs[half][:(len(bufs[half]) + 1) // 2]])

    monkeypatch.setattr(os, "writev", short)
    appends = _streamed_is_collected(cfg, tmp_path, monkeypatch)
    assert len(longest) > len(appends)
    assert max(longest) <= 8 * cfg.grid.n_cells


@pytest.mark.filterwarnings("ignore:mass .* outside")
@pytest.mark.parametrize("dim,points", [(1, 32), (2, 8)])
def test_simulate_final_measure_is_every_trajectorys_last_node(dim, points, tmp_path):
    """``final_measure.blob`` holds the ensemble at the last node: particle ``i`` is
    the last node of ``particle_{i}.traj``, bit for bit."""
    cfg = load_config(_config(tmp_path, grid={"dim": dim, "points_per_dim": points}))
    out = cmd_simulate(cfg, tmp_path / "sim")
    mu = load_measure(out / "final_measure.blob")
    assert (mu.grid, mu.n_particles) == (cfg.grid, cfg.picard_config().n_particles)
    for i in range(mu.n_particles):
        last = load_trajectory(out / "trajectories" / f"particle_{i:03d}.traj").values[-1]
        assert mu.states[i].tobytes() == last.tobytes(), i


@pytest.mark.filterwarnings("ignore:mass .* outside")
def test_a_reused_out_holds_only_this_runs_particles(tmp_path):
    """A 6-particle run followed by a 3-particle run into the same ``--out`` leaves
    the 3-particle run's directory, byte for byte: the earlier run's
    ``particle_003..005.traj`` are removed, not kept beside a manifest that says 3.
    A file of the user's in ``trajectories`` is kept."""
    out = tmp_path / "reused"
    assert main(["simulate", "--config", str(_config(tmp_path, picard={"n_particles": 6})),
                 "--out", str(out)]) == 0
    (out / "trajectories" / "notes.txt").write_text("mine\n")
    three = _config(tmp_path, "three.yaml", picard={"n_particles": 3})
    assert main(["simulate", "--config", str(three), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(three), "--out", str(tmp_path / "fresh")]) == 0
    (tmp_path / "fresh" / "trajectories" / "notes.txt").write_text("mine\n")
    assert _tree(out) == _tree(tmp_path / "fresh")
    assert sorted(p.name for p in (out / "trajectories").iterdir()) == [
        "notes.txt", "particle_000.traj", "particle_001.traj", "particle_002.traj"]


@pytest.mark.filterwarnings("ignore:mass .* outside")
def test_a_blow_up_in_a_reused_out_leaves_no_file_of_the_earlier_run(tmp_path, capsys):
    """A 3-particle run, then a run that blows up (``initial.amp: 1.0e120``) into the
    same ``--out``: it exits 3 and leaves none of the earlier run's files, its
    manifest and CSV reports included, which would read as a complete run that
    lost its particles.  A file of the user's is kept."""
    out = tmp_path / "reused"
    three = _config(tmp_path, "three.yaml", picard={"n_particles": 3})
    assert main(["simulate", "--config", str(three), "--out", str(out)]) == 0
    assert {"manifest.json", "flow_summary.csv", "picard_report.csv"} <= {
        p.name for p in out.iterdir()}
    (out / "notes.txt").write_text("mine\n")
    boom = _config(tmp_path, "boom.yaml", picard={"n_particles": 3}, initial={"amp": 1.0e120})
    assert main(["simulate", "--config", str(boom), "--out", str(out)]) == 3
    assert "error[numerical] BlowUpError" in capsys.readouterr().err
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["notes.txt"]


def test_simulate_refuses_a_retired_final_measure_directory(tmp_path, capsys):
    """An ``--out`` holding the retired ``final_measure/`` directory exits 2 naming it,
    before any file is written, and the directory is kept, not removed."""
    out = tmp_path / "old"
    (out / "final_measure").mkdir(parents=True)
    (out / "final_measure" / "measure_manifest.json").write_text("{}\n")
    assert main(["simulate", "--config", str(_config(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error[validation] ValidationError: {out / 'final_measure'}: " in err
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "final_measure", "final_measure/measure_manifest.json"]


@pytest.mark.parametrize("per_block", [None, 1])
@pytest.mark.parametrize("fmt", ["blob"])  # output.trajectory_format's one value, set explicitly
def test_simulate_blow_up_exits_3_and_leaves_no_trajectory(fmt, per_block, tmp_path, monkeypatch,
                                                           capsys):
    """A blow-up removes the trajectories this run wrote, whether none of its nodes
    had been appended yet (default block) or the first had (a block of one node),
    and the ``trajectories`` directory it made, so the run directory is left empty;
    a ``trajectories`` directory that was there before is kept."""
    if per_block is not None:
        monkeypatch.setattr(cli, "_BLOCK_BYTES", per_block)
    appends = []
    real = dynamics._TrajectoryWriter.append
    monkeypatch.setattr(dynamics._TrajectoryWriter, "append",
                        lambda self, nodes: appends.append(len(nodes)) or real(self, nodes))
    boom = _config(tmp_path, initial={"kind": "gaussian", "amp": 1.0e120, "width": 1.0},
                   output={"trajectory_format": fmt})
    out = tmp_path / "b"
    assert main(["simulate", "--config", str(boom), "--out", str(out)]) == 3
    assert "error[numerical] BlowUpError" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert appends == ([] if per_block is None else [1] * 5)
    (out / "trajectories").mkdir()
    (out / "trajectories" / "kept.txt").write_text("earlier\n")
    assert main(["simulate", "--config", str(boom), "--out", str(out)]) == 3
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "trajectories", "trajectories/kept.txt"]


@pytest.mark.filterwarnings("ignore:mass .* outside")
def test_simulate_holds_a_block_not_the_flow(tmp_path):
    """A 2-d run of 64 particles and 101 nodes makes a 53 MB flow; ``simulate``
    holds what the bare sweep holds, no copy of a node: the block it appends is
    the node arrays the sweep made, at most 1 MiB (two nodes here) of them, and
    its statistics take a slab at a time.  Its peak lies within half a node of
    the bare sweep's, where copying each node into a block of its own cost two
    nodes more."""
    path = _config(tmp_path, grid={"dim": 2, "points_per_dim": 32}, time={"steps": 100},
                   picard={"n_particles": 64})
    cfg = load_config(path)
    node_bytes = 8 * 64 * cfg.grid.n_cells
    # fill the per-grid caches outside the measurement
    cmd_simulate(cfg.with_overrides(picard={"n_particles": 2}), tmp_path / "warm")
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        cmd_simulate(cfg, tmp_path / "sim")
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert peak / node_bytes < _sweep_peak(cfg, 64) + 0.5


def _sweep_peak(cfg, n: int) -> float:
    """The ``tracemalloc`` peak of a bare causal sweep of ``n`` particles, in nodes of
    ``n * cells * 8`` bytes, the problem built outside the measurement."""
    problem = cfg.problem()
    two = cfg.with_overrides(picard={"n_particles": 2}).problem()
    for _ in itertools.islice(_sweep_nodes(two, 2, None), 2):
        pass  # one step fills the per-grid caches outside the measurement
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in _sweep_nodes(problem, n, None):
            pass
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    return peak / (8 * n * cfg.grid.n_cells)


def test_the_sweep_holds_a_few_nodes(tmp_path):
    """Read bare, the causal sweep of 64 particles on a 32 x 32 grid over 200 steps
    holds under 5.5 nodes of ``N * cells * 8`` bytes at its peak, noise included:
    the node it reads and the node it makes, and a slab of 16 fields each for the
    step's three buffers, the spectrum and sigma's state term; no ``(S, N, K)``
    noise stack, no batch-sized temporary and no copy of the start."""
    cfg = load_config(_config(tmp_path, grid={"dim": 2, "points_per_dim": 32},
                              time={"steps": 200}, picard={"n_particles": 64}))
    assert _sweep_peak(cfg, 64) < 5.5


def test_a_long_sweep_holds_as_few_nodes(tmp_path, monkeypatch):
    """Over 2,000 steps the sweep holds under the same 5.5 nodes as over 200: its
    noise is a chunk of 32 steps, not the 2,000-step stack (8 nodes here on its own).  The 1-d grid
    of 256 cells and 32 particles is small, so the slab is cut to 8 fields to keep
    four slabs a node, as the 2-d case has."""
    cfg = load_config(_config(tmp_path, grid={"points_per_dim": 256}, noise={"n_modes": 1},
                              time={"steps": 2000}, picard={"n_particles": 32}))
    monkeypatch.setattr(dynamics, "_SLAB_BYTES", 8 * 8 * cfg.grid.n_cells)
    assert _sweep_peak(cfg, 32) < 5.5


@pytest.mark.filterwarnings("ignore:mass .* outside")
def test_jittered_simulate_lets_its_start_go(tmp_path):
    """A jittered start is the problem's own array; ``simulate`` does not keep the
    problem, so the start is let go after node 0 and the run peaks within a quarter
    node of an unjittered one, where holding it would cost a whole node."""
    path = _config(tmp_path, grid={"dim": 2, "points_per_dim": 32}, picard={"n_particles": 64})
    cfg = load_config(path)
    node_bytes = 8 * 64 * cfg.grid.n_cells
    cmd_simulate(cfg.with_overrides(picard={"n_particles": 2}), tmp_path / "warm")
    peaks = []
    for jitter in (0.0, 0.1):
        run = cfg.with_overrides(initial={"jitter": jitter})
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            cmd_simulate(run, tmp_path / f"sim{jitter}")
            peaks.append(tracemalloc.get_traced_memory()[1] - baseline)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.25 * node_bytes


@pytest.mark.filterwarnings("ignore:mass .* outside")
@pytest.mark.parametrize("fmt", ["blob"])  # output.trajectory_format's one value, set explicitly
def test_simulate_writes_more_particles_than_it_may_open_files(fmt, tmp_path):
    """In a process whose soft ``RLIMIT_NOFILE`` is below the particle count,
    ``simulate`` exits 0 and writes the bytes of an unlimited run: it holds one
    file open at a time, whatever the number of particles."""
    path = _config(tmp_path, picard={"n_particles": 40}, output={"trajectory_format": fmt})
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "free")])
    seen = run_fresh(
        "import json, resource, warnings\n"
        "from fracmv import cli\n"
        "warnings.simplefilter('ignore')\n"
        "cli._BLOCK_BYTES = 4 * 8 * 40 * 32  # several blocks, each appended to every file\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (16, hard))\n"
        "rc = cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps({'rc': rc, 'soft': resource.getrlimit(resource.RLIMIT_NOFILE)[0]}))\n",
        path, tmp_path / "limited",
    )
    assert seen == {"rc": 0, "soft": 16}
    assert _digest(tmp_path / "limited") == _digest(tmp_path / "free")
