import csv
import json
import math
import textwrap

import numpy as np
import pytest
import yaml

from helpers import run_fresh

from fracmv.cli import cmd_verify, main
from fracmv.config import RunConfig, canonical_dict, load_config
from fracmv.dynamics import load_trajectory
from fracmv.errors import ValidationError

TINY_YAML = textwrap.dedent(
    """\
    grid: {half_width: 4.0, points_per_dim: 32}
    time: {horizon: 0.25, steps: 20}
    noise: {n_modes: 2}
    picard: {n_particles: 4}
    """
)


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    return path


# -- configuration -----------------------------------------------------------


def test_shipped_canonical_file_matches_defaults():
    from pathlib import Path

    shipped = Path(__file__).resolve().parents[1] / "configs" / "canonical.yaml"
    with open(shipped) as fh:
        doc = yaml.safe_load(fh)
    assert doc == canonical_dict()
    assert RunConfig(doc).config_hash() == RunConfig().config_hash()


def test_defaults_build_canonical_instance(canonical_cfg):
    assert canonical_cfg.grid.points_per_dim == 128
    assert canonical_cfg.grid.half_width == 8.0
    assert canonical_cfg.tgrid.steps == 200
    assert canonical_cfg.coeffs.sigma.n_modes == 4
    assert canonical_cfg.epsilon == pytest.approx(0.01)
    assert canonical_cfg.picard_config().n_particles == 64
    assert canonical_cfg.rate_problem(None).eta == 1e-6
    assert canonical_cfg.rate_problem(None).max_iters == 100


@pytest.mark.parametrize(
    "patch,needle",
    [
        ({"grid": {"points_per_dim": 33}}, "grid.points_per_dim"),
        ({"model": {"alpha": 1.5}}, "model.alpha"),
        ({"model": {"epsilon": 1.0}}, "model.epsilon"),
        ({"drift_f": {"p": 3}}, "drift_f.p"),
        ({"drift_g": {"c1": 1.2}}, "drift_g.c1"),
        ({"time": {"steps": 0}}, "time.steps"),
        ({"picard": {"lambda_weight": "car"}}, "picard.lambda_weight"),
        ({"output": {"trajectory_format": "parquet"}}, "output.trajectory_format"),
        ({"noise": {"shape": {"width": -1.0}}}, "noise.shape.width"),
        ({"grid": {"dim": 3}}, "grid.dim"),
        ({"grid": {"half_width": -1.0}}, "grid.half_width"),
        ({"time": {"horizon": 0.0}}, "time.horizon"),
        ({"model": {"c_v": 0.0}}, "model.c_v"),
        ({"drift_f": {"lambda_f": 0.0}}, "drift_f.lambda_f"),
        ({"drift_f": {"h_cap": 0.0}}, "drift_f.h_cap"),
        ({"drift_f": {"phi": {"kind": "cosine"}}}, "drift_f.phi.kind"),
        ({"drift_g": {"psi": {"width": 0.0}}}, "drift_g.psi.width"),
        ({"noise": {"n_modes": 0}}, "noise.n_modes"),
        ({"noise": {"beta": [0.2, -0.1, 0.1, 0.1]}}, "noise.beta"),
        ({"picard": {"n_particles": 0}}, "picard.n_particles"),
        ({"picard": {"tol": 0.0}}, "picard.tol"),
        ({"picard": {"max_iters": 0}}, "picard.max_iters"),
        # the retired penalty-ladder keys are refused by name, values and all
        ({"rate": {"eta_ladder": [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5, 1.0e-6]}}, "rate.eta_ladder"),
        ({"rate": {"max_stage_iters": 100}}, "rate.max_stage_iters"),
        ({"rate": {"gap_tol": 0.0}}, "rate.gap_tol"),
        ({"picard": {"max_iters": 1.5}}, "picard.max_iters"),
        ({"rate": {"eta": 0}}, "rate.eta"),
        ({"rate": {"eta": math.inf}}, "rate.eta"),
        ({"rate": {"max_iters": 0}}, "rate.max_iters"),
        # trajectories are blob files only; the retired csv value is refused by name
        ({"output": {"trajectory_format": "csv"}}, "output.trajectory_format"),
    ],
)
def test_validation_errors_name_the_field(patch, needle):
    raw = canonical_dict()
    for key, val in patch.items():
        if isinstance(val, dict):
            raw[key] = {**raw[key], **val}
        else:
            raw[key] = val
    with pytest.raises(ValidationError) as exc_info:
        RunConfig(raw)
    assert needle in str(exc_info.value)


def _leaf_paths(node, path=()):
    """Key paths of every leaf of a config document; list entries count too."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaf_paths(val, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for j in range(len(node)):
            yield path + (j,)


def _listed_weights() -> dict:
    """The canonical document with ``noise.beta`` and ``noise.gamma`` as the
    explicit lists their rules give."""
    raw = canonical_dict()
    for key in ("beta", "gamma"):
        raw["noise"][key] = [0.2 / k for k in range(1, 5)]
    return raw


# every leaf path, with the document it is a leaf of
_LEAVES = {path: make for make in (_listed_weights, canonical_dict) for path in _leaf_paths(make())}


@pytest.mark.parametrize("path", list(_LEAVES), ids=lambda p: ".".join(map(str, p)))
def test_every_leaf_rejects_bad_values_by_name(path):
    """A wrong type, a bool where no bool belongs, a non-finite number, or an
    integer too large for a float where a float belongs, at any key, raises a
    ValidationError naming the key; never anything else."""
    key = ".".join(p for p in path if isinstance(p, str))
    default = _LEAVES[path]()
    for part in path:
        default = default[part]
    bads = ["x", None, math.nan, math.inf, True]
    if isinstance(default, float):
        bads.append(10**400)
    for bad in bads:
        raw = _LEAVES[path]()
        node = raw
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = bad
        if bad is True and isinstance(default, bool):
            RunConfig(raw)
            continue
        with pytest.raises(ValidationError) as exc_info:
            RunConfig(raw)
        assert key in str(exc_info.value), (bad, str(exc_info.value))


def test_canonical_config_hash_is_pinned():
    """The normalized canonical document hashes as it always has, so every
    manifest written from it keeps its ``config_hash``."""
    assert RunConfig().config_hash() == (
        "2864a7e4eb311b08fa043550f9964de501500f3036f56badafa69ff74d7c5b47"
    )


def test_integer_spellings_give_float_fields(tmp_path):
    """``time.horizon: 1`` and ``grid.half_width: 4`` build the same float fields
    and manifest as ``1.0`` and ``4.0``; only the config hash tells them apart."""
    runs = {}
    for name, horizon, half_width in (("int", 1, 4), ("float", 1.0, 4.0)):
        path = tmp_path / f"{name}.yaml"
        path.write_text(TINY_YAML.replace("half_width: 4.0", f"half_width: {half_width}")
                        .replace("horizon: 0.25", f"horizon: {horizon}"))
        cfg = load_config(path)
        assert type(cfg.tgrid.horizon) is float and cfg.tgrid.horizon == 1.0
        assert type(cfg.grid.half_width) is float and cfg.grid.half_width == 4.0
        assert main(["skeleton", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        runs[name] = json.loads((tmp_path / name / "manifest.json").read_text())
    assert '"horizon": 1.0' in (tmp_path / "int" / "manifest.json").read_text()
    assert runs["int"].pop("config_hash") != runs["float"].pop("config_hash")
    assert runs["int"] == runs["float"]


def test_unknown_keys_are_rejected():
    with pytest.raises(ValidationError) as exc_info:
        RunConfig({"grdi": {"points_per_dim": 64}})
    assert "grdi" in str(exc_info.value)
    with pytest.raises(ValidationError):
        RunConfig({"grid": {"n_points": 64}})


def test_with_overrides_merges_one_level(canonical_cfg):
    small = canonical_cfg.with_overrides(
        grid={"points_per_dim": 32}, time={"steps": 20, "horizon": 0.25}
    )
    assert small.grid.points_per_dim == 32
    assert small.grid.half_width == 8.0  # untouched sibling key survives
    assert small.tgrid.steps == 20
    # the original is unchanged
    assert canonical_cfg.grid.points_per_dim == 128
    assert small.config_hash() != canonical_cfg.config_hash()


def test_initial_ensemble_jitter():
    cfg = RunConfig().with_overrides(initial={"jitter": 0.0})
    assert cfg.initial_ensemble(4) is None
    jittered = RunConfig().with_overrides(initial={"jitter": 0.1})
    states = jittered.initial_ensemble(4)
    assert states.shape == (4,) + jittered.grid.shape
    # reproducible across calls
    assert np.array_equal(states, jittered.initial_ensemble(4))
    amps = states.max(axis=tuple(range(1, states.ndim)))
    assert len(np.unique(amps)) == 4


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        load_config(tmp_path / "absent.yaml")
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    cfg = load_config(empty)
    assert cfg.config_hash() == RunConfig().config_hash()


@pytest.mark.parametrize("section,key,short,long", [
    ("picard", "tol", "1e-6", "1.0e-6"),
    ("model", "epsilon", "1e-2", "1.0e-2"),
])
def test_exponent_without_point_reads_as_a_number(section, key, short, long, tmp_path):
    """YAML 1.2 reads ``1e-6`` as a float; PyYAML's YAML 1.1 rules alone
    would leave it a string."""
    cfgs = []
    for spelling in (short, long):
        path = tmp_path / f"{spelling}.yaml"
        path.write_text(f"{section}: {{{key}: {spelling}}}\n")
        cfgs.append(load_config(path))
    assert cfgs[0].raw[section][key] == float(long)
    assert cfgs[0].config_hash() == cfgs[1].config_hash()


# -- command-line driver -------------------------------------------------


def test_skeleton_command_writes_artifacts(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["skeleton", "--config", str(tiny_config), "--out", str(out), "--seed", "123"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "skeleton"
    assert manifest["seed"] == 123
    assert (out / "skeleton.traj").exists()
    assert (out / "energy_residual.csv").exists()
    rows = (out / "energy_residual.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 20 + 1  # header + one line per node


def test_simulate_command_writes_artifacts(tiny_config, tmp_path):
    out = tmp_path / "sim"
    # the tiny domain legitimately trips the boundary-mass advisory
    with pytest.warns(UserWarning, match="domain may be too small"):
        rc = main(["simulate", "--config", str(tiny_config), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["converged"] is True
    assert sorted(p.name for p in (out / "trajectories").iterdir()) == [
        f"particle_{i:03d}.traj" for i in range(4)
    ]
    assert sorted(p.name for p in out.iterdir()) == [
        "final_measure.blob", "flow_summary.csv", "manifest.json", "picard_report.csv",
        "trajectories"]
    assert (out / "picard_report.csv").exists()
    summary = (out / "flow_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 20 + 1


def test_canonical_simulate_meets_its_recorded_second_moment(tmp_path):
    """The canonical run's last ``mean_second_moment`` against a recorded value:
    a figure a wrong trajectory misses, where the fixed-point certificate reads
    0 on any flow the step kernel makes.  Both the Picard iterate that stopped
    within tolerance (0.64579237366) and the causal sweep (0.64579237559) meet
    it."""
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out)]) == 0
    with open(out / "flow_summary.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert (last["node"], last["time"]) == ("200", "0.5")
    assert abs(float(last["mean_second_moment"]) - 0.645792376) <= 1e-8


@pytest.mark.filterwarnings("ignore:mass .* outside")
@pytest.mark.parametrize("dim,points", [(1, 32), (2, 16)])
def test_simulate_worst_tail_is_the_max_over_every_field(dim, points, tmp_path):
    """The manifest's worst tail equals the per-field tail masses' maximum
    over every particle and node, taken one field at a time."""
    doc = yaml.safe_load(TINY_YAML)
    doc["grid"].update(dim=dim, points_per_dim=points)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    margin = json.loads((out / "manifest.json").read_text())["domain_margin"]
    slow = []
    for path in sorted((out / "trajectories").iterdir()):
        traj = load_trajectory(path)
        mask = traj.grid.radius() >= margin["radius"]
        slow += [traj.grid.cell_volume * np.sum(vals[mask] ** 2) for vals in traj.values]
    assert len(slow) == 4 * 21
    assert margin["worst_tail"] == max(slow)


def test_environment_supplies_defaults_and_flags_win(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("FRACMV_SEED", "777")
    out1 = tmp_path / "a"
    assert main(["skeleton", "--config", str(tiny_config), "--out", str(out1)]) == 0
    assert json.loads((out1 / "manifest.json").read_text())["seed"] == 777

    out2 = tmp_path / "b"
    assert main(["skeleton", "--config", str(tiny_config), "--out", str(out2), "--seed", "5"]) == 0
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 5

    monkeypatch.setenv("FRACMV_OUT", str(tmp_path / "c"))
    assert main(["skeleton", "--config", str(tiny_config)]) == 0
    assert (tmp_path / "c" / "manifest.json").exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: {points_per_dim: 33}\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "grid.points_per_dim" in err


@pytest.mark.parametrize(
    "yaml_line,needle",
    [
        (f"time: {{horizon: {10**400}}}", "time.horizon"),
        (f"noise: {{beta: [0.2, {10**400}]}}", "noise.beta.1"),
        (f"seed: {10**400}", "seed"),
    ],
    ids=["time.horizon", "noise.beta", "seed"],
)
def test_integer_too_large_for_a_float_exits_2(yaml_line, needle, tmp_path, capsys):
    """A 401-digit integer is refused by name, not converted into an OverflowError."""
    bad = tmp_path / "huge.yaml"
    bad.write_text(yaml_line + "\n")
    out = tmp_path / "x"
    assert main(["skeleton", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error[validation] ValidationError: config: {needle} must be" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "yaml_line,needle",
    [
        (f"drift_f: {{p: {10**400}}}", "drift_f.p"),
        (f"time: {{steps: {10**400}}}", "time.steps"),
        (f"time: {{steps: {2**60}}}", "time.steps"),
    ],
    ids=["drift_f.p", "time.steps", "time.steps-2**60"],
)
def test_integer_leaf_too_large_for_its_arithmetic_exits_2(yaml_line, needle, tmp_path,
                                                           capsys):
    """An even ``p`` no float holds and a step count whose float64 nodes numpy cannot
    make are refused by name by ``DriftF`` and ``TimeGrid``, not met as an
    ``OverflowError`` or a ``ValueError`` in the run after ``--out`` is made."""
    bad = tmp_path / "huge.yaml"
    bad.write_text(yaml_line + "\n")
    out = tmp_path / "x"
    assert main(["skeleton", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error[validation] ValidationError: config: {needle} must be" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "block,needle",
    [
        ("noise: {shape: {width: 1.0e+300}}", "noise.shape.width"),
        ("noise: {kappa: {width: 1.0e+300}}", "noise.kappa.width"),
        ("initial: {width: 1.0e+300}", "initial.width"),
        ("drift_f: {phi: {width: 1.0e+300}}", "drift_f.phi.width"),
        ("drift_g: {psi: {width: 1.0e+300}}", "drift_g.psi.width"),
        (f"noise: {{shape: {{width: {10**200}}}}}", "noise.shape.width"),
        ("grid: {dim: 2, half_width: 1.0e+200, points_per_dim: 8}", "grid.half_width"),
        ("grid: {dim: 2, half_width: 1.0e+154, points_per_dim: 8}", "grid.half_width"),
        ("grid: {half_width: 1.0e+308}", "grid.half_width"),
        ("grid: {dim: 2, half_width: 1.0e-200, points_per_dim: 8}", "grid.half_width"),
        ("grid: {half_width: 1.0e-160}", "grid.half_width"),
    ],
    ids=["noise.shape", "noise.kappa", "initial", "drift_f.phi", "drift_g.psi", "integer",
         "grid-2d-1e200", "grid-2d-1e154", "grid-1d-1e308", "grid-2d-1e-200", "grid-1d-1e-160"],
)
def test_width_whose_square_overflows_exits_2(block, needle, tmp_path, capsys):
    """A width enters squared; one whose square is no float is refused by name, by
    the config's rule or by ``PsiField``, before ``--out`` is made.  A grid's half
    width enters as the cell volume ``(2L/M)^dim`` and the squared wavenumbers up to
    ``dim (pi M / 2L)^2``, and the tail masses as the squared corner radius
    ``dim L^2``; one that makes any of them no normal float (an overflow, an
    underflow, or one of each) is refused by ``SpatialGrid``, where it met an
    ``OverflowError``, a non-finite field, a ``nan`` residual or an infinite radius
    (``1.0e+154`` in 2-d, whose cell volume and wavenumbers are floats)."""
    bad = tmp_path / "wide.yaml"
    bad.write_text(block + "\n")
    out = tmp_path / "x"
    assert main(["skeleton", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error[validation] ValidationError: config: {needle} must be" in err
    assert not out.exists()


def test_eta_of_1e_300_still_stops_on_the_gradient(tmp_path):
    """``1/eta`` bounds ``eta`` from below only where the reciprocal overflows:
    ``1e-300`` runs to the zero control and stops on the gradient test."""
    out = tmp_path / "r"
    config = _tiny_with(tmp_path, rate={"eta": 1.0e-300})
    assert main(["rate", "--config", str(config), "--out", str(out), "--target", "deterministic"]) == 0
    with open(out / "rate_estimate.csv", newline="") as fh:
        assert list(csv.DictReader(fh))[0]["stop"] == "gradient"


@pytest.mark.parametrize("command", ["simulate", "skeleton"])
def test_csv_trajectory_format_exits_2(command, tmp_path, capsys):
    """Trajectories are blob files only; ``output.trajectory_format: csv`` is refused
    by name before ``--out`` is made."""
    out = tmp_path / "x"
    config = _tiny_with(tmp_path, output={"trajectory_format": "csv"})
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[validation] ValidationError: config: output.trajectory_format must" in err
    assert not out.exists()


def test_trajectory_directory_target_exits_2_naming_it(tiny_config, tmp_path, capsys):
    """A directory of blobs, like ``simulate``'s ``trajectories``, is not a
    trajectory: it is refused naming it, before ``--out`` is made."""
    from fracmv.dynamics import Trajectory, save_trajectory
    from fracmv.grid import SpatialGrid

    grid = SpatialGrid(1, 4.0, 32)
    traj_dir = tmp_path / "trajectories"
    traj_dir.mkdir()
    save_trajectory(Trajectory(grid, [0.0, 0.25], np.zeros((2, 32))), traj_dir / "particle_000.traj")
    out = tmp_path / "r"
    assert main(["rate", "--config", str(tiny_config), "--out", str(out),
                 "--target", f"trajectory:{traj_dir}"]) == 2
    err = capsys.readouterr().err
    assert f"error[validation] ValidationError: {traj_dir}: is a directory" in err
    assert not out.exists()


def test_bogus_rate_target_exits_2(tiny_config, tmp_path, capsys):
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", "bogus"])
    assert rc == 2
    assert "error[validation]" in capsys.readouterr().err


def test_blow_up_exits_3(tmp_path, capsys):
    boom = tmp_path / "boom.yaml"
    boom.write_text(TINY_YAML + "initial: {kind: gaussian, amp: 1.0e+120, width: 1.0}\n")
    rc = main(["skeleton", "--config", str(boom), "--out", str(tmp_path / "b")])
    assert rc == 3
    assert "error[numerical]" in capsys.readouterr().err


def test_unknown_suite_exits_2(tiny_config, tmp_path, capsys):
    """The refusal lists all 11 suites, the names the ``--suite`` help points to."""
    from fracmv.verify import SUITES

    rc = main(["verify", "--config", str(tiny_config), "--out", str(tmp_path / "v"),
               "--suite", "nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err
    assert len(SUITES) == 11 and f"available: {', '.join(SUITES)}" in err


def test_unknown_suite_is_caught_before_any_suite_runs(tiny_config, tmp_path, monkeypatch, capsys):
    from fracmv import verify

    ran = []
    monkeypatch.setitem(verify.SUITES, "recording", lambda cfg: ran.append(cfg) or [])
    rc = main(["verify", "--config", str(tiny_config), "--out", str(tmp_path / "v"),
               "--suite", "recording,nope"])
    assert rc == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err
    assert ran == []


def test_verify_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--suite" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "skeleton", "rate", "verify"])
def test_out_naming_a_file_exits_2(command, tiny_config, tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("not a directory\n")
    argv = [command, "--config", str(tiny_config), "--out", str(plain)]
    if command == "rate":
        argv += ["--target", "deterministic"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "--out" in err and str(plain) in err
    assert plain.read_text() == "not a directory\n"


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exits_2_naming_the_file(kind, source, tmp_path, monkeypatch, capsys):
    """A config path that is a directory, or a file that is not UTF-8, is
    refused by name from ``--config`` and from ``FRACMV_CONFIG`` alike."""
    if kind == "directory":
        path = tmp_path / "configs"
        path.mkdir()
    else:
        path = tmp_path / "utf16.yaml"
        path.write_bytes(b"\xff\xfe")
    out = tmp_path / "run"
    argv = ["skeleton", "--out", str(out)]
    if source == "flag":
        argv += ["--config", str(path)]
    else:
        monkeypatch.setenv("FRACMV_CONFIG", str(path))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error[validation] ValidationError: config: " in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "env"])
def test_empty_suite_list_exits_2(source, tiny_config, tmp_path, monkeypatch, capsys):
    from fracmv.verify import SUITES

    out = tmp_path / "v"
    argv = ["verify", "--config", str(tiny_config), "--out", str(out)]
    if source == "flag":
        argv += ["--suite", ",,"]
    else:
        monkeypatch.setenv("FRACMV_SUITE", ",")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "--suite" in err
    assert len(SUITES) == 11 and f"available: {', '.join(SUITES)}" in err
    assert not out.exists()


def test_verify_manifest_lists_the_suites_that_ran(tiny_config, tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "--config", str(tiny_config), "--out", str(out),
               "--suite", "spectral,wasserstein"])
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["suites"] == ["spectral", "wasserstein"]
    assert cmd_verify(load_config(tiny_config), tmp_path / "none", []) == 0
    manifest = json.loads((tmp_path / "none" / "manifest.json").read_text())
    assert (manifest["suites"], manifest["passed"]) == ([], 0)


@pytest.mark.parametrize(
    "command,flags",
    [
        ("skeleton", ["--control", "no/such/control.csv"]),
        ("rate", ["--target", "bogus"]),
        ("verify", ["--suite", "bogus"]),
        pytest.param("rate", ["--target", "trajectory:{tmp}/other.traj"], id="rate-trajectory-grid"),
        pytest.param("rate", ["--target", "terminal:{tmp}/other.csv"], id="rate-terminal-grid"),
    ],
)
def test_rejected_input_creates_no_out_directory(command, flags, tiny_config, tmp_path, capsys,
                                                 monkeypatch):
    """Input is refused before any solve and before ``--out`` is made; a
    target file on another grid is refused naming ``--target``."""
    from fracmv import cli
    from fracmv.dynamics import Trajectory, save_trajectory
    from fracmv.grid import GridFunction, SpatialGrid, save_grid_function

    other = SpatialGrid(1, 4.0, 16)
    save_trajectory(Trajectory(other, [0.0, 0.25], np.zeros((2, 16))), tmp_path / "other.traj")
    save_grid_function(GridFunction(other, np.zeros(16)), tmp_path / "other.csv")
    flags = [flag.format(tmp=tmp_path) for flag in flags]

    def no_solve(*args):
        raise AssertionError("solved before the input was checked")

    monkeypatch.setattr(cli, "solve_deterministic", no_solve)
    out = tmp_path / "run"
    assert main([command, "--config", str(tiny_config), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err
    if str(tmp_path) in flags[-1]:
        assert f"--target {flags[-1]}: " in err and "different grid" in err
    assert not out.exists()


def test_rate_deterministic_target_floor(tiny_config, tmp_path):
    out = tmp_path / "rate"
    rc = main(["rate", "--config", str(tiny_config), "--out", str(out),
               "--target", "deterministic"])
    assert rc == 0
    rows = (out / "rate_estimate.csv").read_text().strip().splitlines()
    header, data = rows[0].split(","), rows[1].split(",")
    record = dict(zip(header, data))
    assert float(record["value"]) <= 1e-6
    assert (out / "optimal_control.csv").exists()
    assert list(record)[4:] == ["n_evaluations", "iterations", "stop", "grad_max"]
    # the free path's zero control is stationary: Gauss-Newton takes no step
    assert (record["n_evaluations"], record["iterations"], record["stop"]) == ("1", "0", "gradient")
    assert float(record["grad_max"]) == 0.0
    assert not (out / "rate_stages.csv").exists()


def test_skeleton_with_control_reports_consistency(tiny_config, tmp_path):
    """A zero control file must reproduce the skeleton exactly, and the
    manifest must record the check."""
    from fracmv.dynamics import Control, save_control, TimeGrid

    v = Control(np.zeros((20, 2)), TimeGrid(horizon=0.25, steps=20).dt)
    vpath = tmp_path / "vzero.csv"
    save_control(v, vpath)
    out = tmp_path / "sk"
    rc = main(["skeleton", "--config", str(tiny_config), "--out", str(out),
               "--control", str(vpath)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["control"]["zero_control_check"] is True
    assert manifest["control"]["sup_distance_to_skeleton"] == 0.0
    assert (out / "controlled.traj").exists()


# -- malformed inputs at the boundary ------------------------------------------


def test_control_with_foreign_dt_exits_2(tiny_config, tmp_path, capsys):
    """A control whose header dt disagrees with the time grid would be
    integrated with the grid's dt but costed with its own."""
    from fracmv.dynamics import Control, save_control

    vpath = save_control(Control(np.ones((20, 2)), 1.0), tmp_path / "v.csv")
    rc = main(["skeleton", "--config", str(tiny_config), "--out", str(tmp_path / "s"),
               "--control", str(vpath)])
    assert rc == 2
    assert "dt" in capsys.readouterr().err
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"manufactured:{vpath}"])
    assert rc == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["--control", "manufactured"])
def test_control_of_the_wrong_shape_exits_2_naming_the_file(where, tiny_config, tmp_path, capsys):
    """A control one step short is refused before any solve, and the
    refusal names the file as well as the shape it should have."""
    from fracmv.dynamics import Control, save_control

    cfg = load_config(tiny_config)
    S, K = cfg.tgrid.steps, cfg.coeffs.sigma.n_modes
    vpath = save_control(Control(np.zeros((S - 1, K)), cfg.tgrid.dt), tmp_path / "short.csv")
    argv = (["skeleton", "--control", str(vpath)] if where == "--control"
            else ["rate", "--target", f"manufactured:{vpath}"])
    assert main(argv + ["--config", str(tiny_config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and str(vpath) in err
    assert f"has shape ({S - 1}, {K}), expected (steps, modes) = ({S}, {K})" in err


def test_retired_picard_keys_change_no_output_byte(tiny_config, tmp_path):
    """``picard.lambda_weight`` and ``picard.max_iters`` are retired: a run that
    sets them writes the default run's bytes, file for file, apart from the
    manifest's ``config_hash``."""
    retired = _tiny_with(tmp_path, picard={"lambda_weight": 1.0, "max_iters": 1})
    runs = {"default": tiny_config, "retired": retired}
    for name, config in runs.items():
        # the tiny domain legitimately trips the boundary-mass advisory
        with pytest.warns(UserWarning, match="domain may be too small"):
            assert main(["simulate", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    files = {name: sorted(p.relative_to(tmp_path / name) for p in (tmp_path / name).rglob("*")
                          if p.is_file()) for name in runs}
    assert files["default"] == files["retired"]
    for rel in files["default"]:
        default, other = ((tmp_path / name / rel).read_bytes() for name in runs)
        if rel.name == "manifest.json":
            default, other = json.loads(default), json.loads(other)
            assert default.pop("config_hash") != other.pop("config_hash")
        assert default == other, rel


def test_truncated_trajectory_target_exits_2(tiny_config, tmp_path, capsys):
    out = tmp_path / "sk"
    assert main(["skeleton", "--config", str(tiny_config), "--out", str(out)]) == 0
    blob = (out / "skeleton.traj").read_bytes()
    trunc = tmp_path / "trunc.traj"
    trunc.write_bytes(blob[: len(blob) - 100])
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"trajectory:{trunc}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "trunc.traj" in err


@pytest.mark.parametrize("kind", ["terminal-grid", "trajectory-grid", "trajectory-nodes"])
def test_refused_rate_target_names_the_file(kind, tiny_config, tmp_path, capsys):
    from fracmv.dynamics import Trajectory, save_trajectory
    from fracmv.grid import GridFunction, SpatialGrid, save_grid_function

    cfg = load_config(tiny_config)
    other = SpatialGrid(1, 4.0, 16)
    if kind == "terminal-grid":
        path = save_grid_function(GridFunction(other, np.zeros(16)), tmp_path / "other.csv")
    else:
        grid = other if kind == "trajectory-grid" else cfg.grid
        times = cfg.tgrid.nodes if kind == "trajectory-grid" else cfg.tgrid.nodes + 0.01
        path = save_trajectory(Trajectory(grid, times, np.zeros((times.size,) + grid.shape)),
                               tmp_path / "other.traj")
    spec = f"{kind.split('-')[0]}:{path}"
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", spec])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and f"--target {spec}: " in err
    assert ("time nodes" if kind == "trajectory-nodes" else "different grid") in err


def test_smallnoise_suite_runs_on_a_jittered_config(tiny_config, tmp_path, capsys):
    """The sweep starts every intensity at ``u0``, so a jittered initial
    ensemble of another size changes neither its rows nor the verdict."""
    from fracmv.verify import _smallnoise_rows

    plain = load_config(tiny_config)
    jittered = plain.with_overrides(initial={"jitter": 0.1})
    assert jittered.problem().initial_states.shape[0] == 4
    rows = [_smallnoise_rows(c.problem(), [0.0, 1e-2, 1e-3], 3) for c in (plain, jittered)]
    assert rows[0] == rows[1]
    jittered_yaml = tmp_path / "jittered.yaml"
    jittered_yaml.write_text(TINY_YAML + "initial: {jitter: 0.1}\n")
    lines = []
    for path in (tiny_config, jittered_yaml):
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / path.stem),
                     "--suite", "smallnoise"]) == 0
        lines.append([line.rsplit("(", 1)[0] for line in capsys.readouterr().out.splitlines()])
    assert lines[0] == lines[1]


def test_determinism_suite_compares_the_whole_run_directory(monkeypatch):
    """The rerun row hashes every file of both run directories, 12 for the suite's
    8 particles, so a rerun that writes a different ``final_measure.blob`` (its last
    byte flipped here) fails the row, as a different trajectory would."""
    from fracmv import cli, verify

    cfg = RunConfig()
    assert next(verify.suite_determinism(cfg))[:3] == (
        "simulate_byte_identical_rerun", True, "12 files compared")
    real, runs = cli.cmd_simulate, []

    def drifting(cfg, out):
        runs.append(real(cfg, out))
        if len(runs) == 2:
            blob = runs[-1] / "final_measure.blob"
            data = bytearray(blob.read_bytes())
            data[-1] ^= 1
            blob.write_bytes(bytes(data))
        return runs[-1]

    monkeypatch.setattr(cli, "cmd_simulate", drifting)
    row = next(verify.suite_determinism(cfg))
    assert len(runs) == 2
    assert row[:3] == ("simulate_byte_identical_rerun", False, "12 files compared")


def test_malformed_control_header_exits_2(tiny_config, tmp_path, capsys):
    vpath = tmp_path / "v.csv"
    vpath.write_text("# dt=abc steps=20 modes=2\n" + "0,0\n" * 20)
    rc = main(["skeleton", "--config", str(tiny_config), "--out", str(tmp_path / "s"),
               "--control", str(vpath)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "dt" in err


def test_terminal_target_without_sidecar_exits_2(tiny_config, tmp_path, capsys):
    from fracmv.grid import save_grid_function

    field = tmp_path / "field.csv"
    save_grid_function(load_config(tiny_config).u0, field)
    (tmp_path / "field.csv.meta.json").unlink()
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"terminal:{field}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "field.csv.meta.json" in err


@pytest.mark.parametrize(
    "sidecar",
    [
        '{"dim": 1',
        '{"dim": 1, "half_width": 4.0}',
        '{"dim": 3, "half_width": 4.0, "points_per_dim": 32}',
    ],
)
def test_terminal_target_with_malformed_sidecar_exits_2(sidecar, tiny_config, tmp_path, capsys):
    from fracmv.grid import save_grid_function

    field = tmp_path / "field.csv"
    save_grid_function(load_config(tiny_config).u0, field)
    (tmp_path / "field.csv.meta.json").write_text(sidecar)
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"terminal:{field}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "field.csv.meta.json" in err


@pytest.mark.parametrize("key,value", [("points_per_dim", 32.7), ("dim", 1.5),
                                       ("half_width", math.inf), ("half_width", "4.0"),
                                       ("half_width", True), ("half_width", 1.0e-160)])
@pytest.mark.parametrize("kind", ["terminal", "trajectory"])
def test_target_with_malformed_grid_geometry_exits_2(kind, key, value, tiny_config, tmp_path,
                                                     capsys):
    """A target whose grid has a fractional size, or a half width that is infinite,
    not a number or too narrow for its squared wavenumbers, is refused by the field's
    name before ``--out`` is made; a ``points_per_dim`` of 32.7 is not truncated to
    the run's 32 cells, nor a ``half_width`` of ``"4.0"`` or ``true`` read as 4.0 or
    1.0."""
    from fracmv.grid import save_grid_function

    if kind == "terminal":
        path = save_grid_function(load_config(tiny_config).u0, tmp_path / "field.csv")
        meta = tmp_path / "field.csv.meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), key: value}))
    else:
        path = _edited_blob(tiny_config, tmp_path, lambda h: h["grid"].update({key: value}))
    out = tmp_path / "r"
    rc = main(["rate", "--config", str(tiny_config), "--out", str(out),
               "--target", f"{kind}:{path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and path.name in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["SEED"])
def test_non_integer_environment_value_exits_2(name, tiny_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(f"FRACMV_{name}", "abc")
    rc = main(["skeleton", "--config", str(tiny_config), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert f"FRACMV_{name}" in capsys.readouterr().err


def _tiny_with(tmp_path, **sections):
    doc = yaml.safe_load(TINY_YAML)
    for key, val in sections.items():
        doc[key] = {**doc.get(key, {}), **val}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


@pytest.mark.parametrize(
    "command,sections,needle",
    [
        ("simulate", {"picard": {"lambda_weight": math.inf}}, "picard.lambda_weight"),
        ("skeleton", {"rate": {"eta": math.inf}}, "rate.eta"),
        ("rate", {"rate": {"eta": math.inf}}, "rate.eta"),
        # the penalty weighs the gap by 1/eta, which overflows here (a nan gradient)
        ("rate", {"rate": {"eta": 1.0e-309}}, "rate.eta"),
        ("rate", {"rate": {"eta": 5.0e-324}}, "rate.eta"),
    ],
    ids=["simulate-lambda_weight", "skeleton-eta", "rate-eta", "rate-eta-1e-309",
         "rate-eta-5e-324"],
)
def test_non_finite_weight_exits_2(command, sections, needle, tmp_path, capsys):
    config = _tiny_with(tmp_path, **sections)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    if command == "rate":
        argv += ["--target", "deterministic"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and needle in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "where,name,content",
    [
        ("--control", "empty.csv", ""),
        ("manufactured", "empty.csv", ""),
        ("--control", "text.csv", "# dt=0.0125 steps=20 modes=2\n" + "0,abc\n" * 20),
        ("--control", "missing.csv", None),
        ("trajectory", "missing.traj", None),
        ("trajectory", "no_times", "mkdir"),
    ],
    ids=["empty-control", "empty-manufactured", "non-numeric-control", "missing-control",
         "missing-trajectory", "trajectory-dir-without-times"],
)
def test_malformed_input_file_exits_2(where, name, content, tiny_config, tmp_path, capsys):
    path = tmp_path / name
    if content == "mkdir":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    if where == "--control":
        argv = ["skeleton", "--control", str(path)]
    else:
        argv = ["rate", "--target", f"{where}:{path}"]
    rc = main(argv + ["--config", str(tiny_config), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and name in err


def test_terminal_target_with_non_numeric_value_exits_2(tiny_config, tmp_path, capsys):
    from fracmv.grid import save_grid_function

    field = save_grid_function(load_config(tiny_config).u0, tmp_path / "field.csv")
    rows = field.read_text().splitlines()
    rows[5] = rows[5].split(",")[0] + ",abc"
    field.write_text("\n".join(rows) + "\n")
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"terminal:{field}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "field.csv" in err


def test_trajectory_directory_with_mixed_grids_exits_2(tiny_config, tmp_path, capsys):
    """A directory in the retired csv layout is refused naming it, whatever its
    node files hold (here two grids)."""
    from fracmv.grid import GridFunction, SpatialGrid, save_grid_function

    traj = tmp_path / "mixed"
    traj.mkdir()
    np.savetxt(traj / "times.csv", [0.0, 0.1], header="t", comments="")
    for s, m in enumerate((32, 16)):
        save_grid_function(GridFunction(SpatialGrid(1, 4.0, m), np.zeros(m)),
                           traj / f"node_{s:05d}.csv")
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"trajectory:{traj}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "mixed" in err


@pytest.mark.parametrize(
    "times", [[0.1, 0.0], [0.0, math.nan]], ids=["blob-decreasing", "blob-nan-time"]
)
def test_trajectory_with_bad_times_names_the_file(times, tiny_config, tmp_path, capsys):
    from fracmv.dynamics import Trajectory, save_trajectory
    from fracmv.grid import SpatialGrid

    grid = SpatialGrid(1, 4.0, 32)
    path = save_trajectory(Trajectory(grid, [0.0, 0.1], np.zeros((2, 32))),
                           tmp_path / "bad_times")
    blob = path.read_bytes()
    start = blob.index(b"\n", blob.index(b"\n") + 1) + 1
    path.write_bytes(blob[:start] + np.array(times, "<f8").tobytes() + blob[start + 16:])
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"trajectory:{path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "bad_times" in err and "increasing" in err


_NOT_AN_INTEGER = "header field n_nodes must be an integer"


def _edited_blob(tiny_config, tmp_path, edit_header, tail=b""):
    """The skeleton's blob with its JSON header edited, and ``tail`` appended."""
    out = tmp_path / "sk"
    assert main(["skeleton", "--config", str(tiny_config), "--out", str(out)]) == 0
    magic, header, data = (out / "skeleton.traj").read_bytes().split(b"\n", 2)
    doc = json.loads(header)
    edit_header(doc)
    path = tmp_path / "edited.traj"
    path.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + data + tail)
    return path


@pytest.mark.parametrize(
    "edit,tail,field",
    [
        (lambda h: h.update(n_nodes=-1), b"", "n_nodes"),
        (lambda h: h.update(n_nodes=0), b"", "n_nodes"),
        (lambda h: None, b"\0" * 8, "n_nodes"),
        (lambda h: h.update(dtype="<f4"), b"", "dtype"),
        (lambda h: h.update(dtype="object"), b"", "dtype"),
        # not truncated to 201 nodes, nor reported as a byte count (true is 1)
        (lambda h: h.update(n_nodes=h["n_nodes"] + 0.5), b"", _NOT_AN_INTEGER),
        (lambda h: h.update(n_nodes=float(h["n_nodes"])), b"", _NOT_AN_INTEGER),
        (lambda h: h.update(n_nodes=str(h["n_nodes"])), b"", _NOT_AN_INTEGER),
        (lambda h: h.update(n_nodes=True), b"", _NOT_AN_INTEGER),
    ],
    ids=["n-nodes-negative", "n-nodes-zero", "overlong", "dtype-f4", "dtype-object",
         "n-nodes-fractional", "n-nodes-float", "n-nodes-string", "n-nodes-true"],
)
def test_trajectory_blob_with_a_bad_header_field_exits_2(edit, tail, field, tiny_config,
                                                          tmp_path, capsys):
    path = _edited_blob(tiny_config, tmp_path, edit, tail)
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"trajectory:{path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "edited.traj" in err and field in err


@pytest.mark.parametrize(
    "header,needle",
    [
        ("dt=0.0125 steps=9 modes=7", "steps=9 modes=7"),
        ("dt=0.0125 steps=19 modes=2", "steps=19 modes=2"),
        ("dt=nan steps=20 modes=2", "header dt must be finite and positive, got nan"),
        ("dt=inf steps=20 modes=2", "header dt must be finite and positive, got inf"),
        ("dt=0.0125 steps=2.5 modes=2", "steps=<int>"),
        ("dt=0.0125", "steps=<int>"),
    ],
    ids=["foreign-shape", "one-step-off", "nan-dt", "inf-dt", "fractional-steps", "no-shape"],
)
def test_control_header_must_match_its_values(header, needle, tiny_config, tmp_path, capsys):
    """A control file's header is checked, not skipped: its ``dt`` must be finite
    and positive and its ``steps`` and ``modes`` the values' shape, and the
    refusal names the header."""
    path = tmp_path / "v.csv"
    path.write_text(f"# {header}\n" + "0,0\n" * 20)
    rc = main(["skeleton", "--config", str(tiny_config), "--out", str(tmp_path / "s"),
               "--control", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "v.csv" in err and "control header" in err
    assert needle in err
    assert not (tmp_path / "s").exists()


def test_terminal_target_with_a_nan_value_names_the_file(tiny_config, tmp_path, capsys):
    from fracmv.grid import save_grid_function

    field = save_grid_function(load_config(tiny_config).u0, tmp_path / "field.csv")
    rows = field.read_text().splitlines()
    rows[5] = rows[5].split(",")[0] + ",nan"
    field.write_text("\n".join(rows) + "\n")
    rc = main(["rate", "--config", str(tiny_config), "--out", str(tmp_path / "r"),
               "--target", f"terminal:{field}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[validation]" in err and "field.csv" in err and "non-finite" in err


# -- what each command loads ---------------------------------------------------

COMMAND_LOADS = """
import json
from pathlib import Path

import numpy

bare = "numpy.random" in sys.modules
import fracmv.cli

def loaded():
    return [m for m in ("fracmv.verify", "numpy.random") if m in sys.modules]

tmp = Path(sys.argv[1])
cfg = tmp / "tiny.yaml"
cfg.write_text("time: {horizon: 0.25, steps: 20}\\nnoise: {n_modes: 2}\\npicard: {n_particles: 4}\\n")
seen = {"bare": bare, "import": loaded()}
if len(sys.argv) > 2:
    argv = sys.argv[2:]
    assert fracmv.cli.main([argv[0], "--config", str(cfg), "--out", str(tmp / "out"), *argv[1:]]) == 0
seen["run"] = loaded()
print(json.dumps(seen))
"""

# (arguments, the watched modules loaded once they have run)
LOAD_CASES = {
    "import": ([], []),
    "rate": (["rate", "--target", "deterministic"], []),
    "skeleton": (["skeleton"], []),
    "simulate": (["simulate"], ["numpy.random"]),
    "verify": (["verify", "--suite", "spectral"], ["fracmv.verify", "numpy.random"]),
}


@pytest.fixture(scope="module", params=list(LOAD_CASES))
def command_loads(request, tmp_path_factory):
    """What a fresh interpreter has loaded after ``import fracmv.cli`` and
    after one tiny run of the command, and what it should have loaded."""
    argv, expected = LOAD_CASES[request.param]
    return run_fresh(COMMAND_LOADS, tmp_path_factory.mktemp(request.param), *argv), expected


def test_only_verify_loads_the_verify_suites(command_loads):
    seen, expected = command_loads
    assert "fracmv.verify" not in seen["import"]
    assert ("fracmv.verify" in seen["run"]) == ("fracmv.verify" in expected)


def test_only_a_noise_draw_loads_numpy_random(command_loads):
    seen, expected = command_loads
    if seen["bare"]:
        pytest.skip("a bare `import numpy` loads numpy.random under this numpy")
    assert "numpy.random" not in seen["import"]
    assert ("numpy.random" in seen["run"]) == ("numpy.random" in expected)
