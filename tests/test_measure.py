import itertools
import json
import math
import re

import numpy as np
import pytest

from helpers import build_grid, full_sweep_sup, random_field, run_fresh

from fracmv import measure
from fracmv.errors import GridMismatchError, InvalidFieldError, ValidationError
from fracmv.grid import GridFunction
from fracmv.measure import (
    EmpiricalMeasure,
    FlowPairW2,
    MeasureFlow,
    flow_distance,
    load_measure,
    save_measure,
    second_moment,
    wasserstein2,
)
from fracmv.mckean_vlasov import _LAMBDA_GRID


def brute_force_w2(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Independent oracle: enumerate every assignment with direct costs."""
    w = mu.grid.cell_volume
    n = mu.n_particles
    a, b = mu.flat(), nu.flat()
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            diff = a[i] - b[j]
            total += w * float(np.dot(diff, diff))
        best = min(best, total)
    return math.sqrt(best / n)


def random_measure(grid, rng, n, scale=1.0):
    return EmpiricalMeasure(grid, scale * rng.standard_normal((n,) + grid.shape))


def test_assignment_solver_matches_permutation_oracle(rng):
    g = build_grid(half_width=2.0, points=8)
    for trial in range(40):
        n = 2 + trial % 5
        mu = random_measure(g, rng, n)
        nu = random_measure(g, rng, n)
        assert abs(wasserstein2(mu, nu) - brute_force_w2(mu, nu)) <= 1e-10


def test_metric_axioms(rng):
    g = build_grid(half_width=2.0, points=8)
    for _ in range(20):
        n = 3
        mu = random_measure(g, rng, n)
        nu = random_measure(g, rng, n)
        rho = random_measure(g, rng, n)
        d_mn = wasserstein2(mu, nu)
        assert wasserstein2(nu, mu) == pytest.approx(d_mn, abs=1e-12)
        assert wasserstein2(mu, mu) <= 1e-12
        assert d_mn <= wasserstein2(mu, rho) + wasserstein2(rho, nu) + 1e-12
        # translating both ensembles by the same field changes nothing
        h = rng.standard_normal(g.shape)
        mu_h = EmpiricalMeasure(g, mu.states + h)
        nu_h = EmpiricalMeasure(g, nu.states + h)
        assert wasserstein2(mu_h, nu_h) == pytest.approx(d_mn, abs=1e-12)


def test_dirac_distance_is_root_second_moment(rng):
    g = build_grid(half_width=2.0, points=8)
    mu = random_measure(g, rng, 5)
    zero = EmpiricalMeasure(g, np.zeros((5,) + g.shape))
    assert wasserstein2(mu, zero) == pytest.approx(math.sqrt(second_moment(mu)), rel=1e-12)


def test_unequal_ensembles_rejected(rng):
    g = build_grid(points=8)
    with pytest.raises(ValidationError):
        wasserstein2(random_measure(g, rng, 3), random_measure(g, rng, 4))
    other = build_grid(points=16)
    with pytest.raises(GridMismatchError):
        wasserstein2(random_measure(g, rng, 3), random_measure(other, rng, 3))


def test_flow_distance_matches_node_loop(rng):
    g = build_grid(half_width=2.0, points=8)
    times = np.linspace(0.0, 1.0, 6)
    mu = MeasureFlow(g, times, rng.standard_normal((6, 4) + g.shape))
    nu = MeasureFlow(g, times, rng.standard_normal((6, 4) + g.shape))
    for lam in (0.0, 1.0, 5.0):
        oracle = max(
            math.exp(-lam * times[s]) * wasserstein2(mu.measure(s), nu.measure(s))
            for s in range(6)
        )
        assert flow_distance(mu, nu, lam) == pytest.approx(oracle, rel=1e-14)
    assert flow_distance(mu, mu, 0.0) <= 1e-12
    with pytest.raises(ValidationError):
        flow_distance(mu, nu, -1.0)


def _oracle_flow_pairs(rng):
    """Flow pairs that exercise every way the identity bound can sit."""
    g = build_grid(half_width=2.0, points=8)
    times = np.linspace(0.0, 0.5, 21)
    mu = MeasureFlow(g, times, rng.standard_normal((21, 5) + g.shape))
    nu = MeasureFlow(g, times, rng.standard_normal((21, 5) + g.shape))
    # close to mu but with the particles shuffled per node: the identity
    # matching is far from optimal, so the bound is loose everywhere
    near = mu.states + 1e-3 * rng.standard_normal(mu.states.shape)
    shuffled = MeasureFlow(g, times, np.stack([x[rng.permutation(5)] for x in near]))
    # constant flows: at lam = 0 every node's bound ties
    still_mu = MeasureFlow.constant(random_measure(g, rng, 5), times)
    still_nu = MeasureFlow.constant(random_measure(g, rng, 5), times)
    return {
        "random": (mu, nu),
        "shuffled": (mu, shuffled),
        "constant": (still_mu, still_nu),
        "zero": (mu, MeasureFlow(g, times, mu.states.copy())),
    }


def test_flow_pair_sup_is_the_full_node_sweep_byte_for_byte(rng):
    for name, (mu, nu) in _oracle_flow_pairs(rng).items():
        pair = FlowPairW2(mu, nu)
        for lam in (0.0, 0.25, 16.0, 128.0, 256.0):
            oracle = full_sweep_sup(mu, nu, lam)
            assert pair.sup(lam) == oracle, (name, lam)
            assert flow_distance(mu, nu, lam) == oracle, (name, lam)
        if name == "zero":
            assert pair.sup(0.0) == 0.0
    g, times = mu.grid, mu.times
    with pytest.raises(GridMismatchError):
        FlowPairW2(mu, MeasureFlow(g, times + 0.5, nu.states))
    with pytest.raises(GridMismatchError):
        FlowPairW2(mu, MeasureFlow(build_grid(half_width=2.0, points=16), times,
                                   rng.standard_normal((times.size, 5, 16))))
    with pytest.raises(ValidationError):
        FlowPairW2(mu, MeasureFlow(g, times, nu.states[:, :3]))


def test_flow_pair_solves_only_nodes_that_can_hold_the_sup(rng, monkeypatch):
    """Equal node pairs share one solve, and a tight bound stops the sweep."""
    pairs = _oracle_flow_pairs(rng)
    solved = []
    real = measure.wasserstein2
    monkeypatch.setattr(measure, "wasserstein2", lambda a, b: solved.append(1) or real(a, b))
    still = FlowPairW2(*pairs["constant"])
    for lam in (0.0, 0.25, 16.0):
        still.sup(lam)
    assert len(solved) == 1
    solved.clear()
    mu, _ = pairs["random"]
    # each particle moves a little: the identity matching is optimal
    moved = MeasureFlow(mu.grid, mu.times, mu.states + 0.01 * rng.standard_normal(mu.states.shape))
    assert FlowPairW2(mu, moved).sup(0.0) == full_sweep_sup(mu, moved, 0.0)
    assert len(solved) == 1


def test_flow_distance_equals_the_scalar_weight_loop_bitwise(rng):
    """The pruned sup reproduces the per-node scalar loop, bit for bit,
    for every weight of the calibration grid."""
    g = build_grid(half_width=2.0, points=8)
    times = np.linspace(0.0, 0.5, 201)
    mu = MeasureFlow(g, times, rng.standard_normal((201, 4) + g.shape))
    nu = MeasureFlow(g, times, rng.standard_normal((201, 4) + g.shape))
    pair = FlowPairW2(mu, nu)
    for lam in _LAMBDA_GRID:
        best = 0.0
        for s in range(mu.n_times):
            d = wasserstein2(mu.measure(s), nu.measure(s))
            best = max(best, float(np.exp(-float(lam) * mu.times[s])) * d)
        assert flow_distance(mu, nu, lam) == best
        assert pair.sup(lam) == best
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValidationError, match="lam"):
            pair.sup(bad)


def test_discount_weight_reduces_late_discrepancies(rng):
    """A late-time-only difference fades as lam grows."""
    g = build_grid(half_width=2.0, points=8)
    times = np.linspace(0.0, 1.0, 4)
    states = rng.standard_normal((4, 3) + g.shape)
    bumped = states.copy()
    bumped[-1] += 1.0
    mu = MeasureFlow(g, times, states)
    nu = MeasureFlow(g, times, bumped)
    d0 = flow_distance(mu, nu, 0.0)
    d5 = flow_distance(mu, nu, 5.0)
    assert d5 == pytest.approx(d0 * math.exp(-5.0), rel=1e-12)


def test_constant_flow_and_particle_access(rng):
    g = build_grid(points=8)
    mu = random_measure(g, rng, 3)
    flow = MeasureFlow.constant(mu, np.linspace(0.0, 1.0, 5))
    assert flow.n_times == 5 and flow.n_particles == 3
    for s in range(5):
        assert np.array_equal(flow.measure(s).states, mu.states)
    assert isinstance(mu.particle(1), GridFunction)


def test_constant_flow_is_a_read_only_view_of_its_own_copy(rng):
    g = build_grid(points=8)
    mu = random_measure(g, rng, 3)
    before = mu.states.copy()
    flow = MeasureFlow.constant(mu, np.linspace(0.0, 1.0, 5))
    assert flow.states.strides[0] == 0 and not flow.states.flags.writeable
    with pytest.raises(ValueError):
        flow.states[0, 0, 0] = 1.0
    mu.states[...] = 7.0
    assert all(np.array_equal(node, before) for node in flow.states)


def test_constant_flow_checks_its_one_node_once(rng, monkeypatch):
    g = build_grid(points=8)
    node = rng.standard_normal((3,) + g.shape)
    times = np.linspace(0.0, 1.0, 201)
    checked = []
    real = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: checked.append(a.shape) or real(a))
    MeasureFlow(g, times, np.broadcast_to(node, (201,) + node.shape))
    assert checked == [node.shape]
    node[1, 2] = np.nan
    with pytest.raises(InvalidFieldError, match="non-finite"):
        MeasureFlow(g, times, np.broadcast_to(node, (201,) + node.shape))


def test_flow_rejects_a_non_finite_entry_at_its_last_node(rng):
    g = build_grid(points=8)
    states = rng.standard_normal((4, 3) + g.shape)
    states[-1, 2, -1] = np.inf
    with pytest.raises(InvalidFieldError, match="^measure flow contains non-finite values$"):
        MeasureFlow(g, np.linspace(0.0, 1.0, 4), states)


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0], [0.0, 0.5, np.inf],
                                   [-np.inf, 0.5, 1.0], [np.nan]])
def test_flow_refuses_nan_and_inf_times(times, rng):
    g = build_grid(points=8)
    states = rng.standard_normal((len(times), 3) + g.shape)
    with pytest.raises(ValidationError, match="^measure flow times must be .*finite"):
        MeasureFlow(g, times, states)


def test_from_functions_requires_common_grid(rng):
    g = build_grid(points=8)
    other = build_grid(points=16)
    with pytest.raises(GridMismatchError):
        EmpiricalMeasure.from_functions([random_field(g, rng), random_field(other, rng)])
    with pytest.raises(ValidationError):
        EmpiricalMeasure.from_functions([])


def test_measure_roundtrip_is_exact(tmp_path, rng):
    g = build_grid(half_width=2.0, points=8)
    mu = random_measure(g, rng, 4)
    path = save_measure(mu, tmp_path / "m.blob")
    back = load_measure(path)
    assert back.n_particles == 4
    assert np.array_equal(back.states, mu.states)


@pytest.mark.parametrize("dim,points", [(1, 16), (2, 8)])
def test_measure_blob_roundtrip_is_bit_exact(tmp_path, rng, dim, points):
    """The blob is a magic line, the sorted header and the atoms' bytes, particle
    by particle, so equal ensembles give equal files, and every bit, signed zeros
    and subnormals included, reads back."""
    g = build_grid(dim=dim, half_width=2.0, points=points)
    states = rng.standard_normal((3,) + g.shape)
    states.reshape(-1)[:4] = [-0.0, 5e-324, -1e300, 1e-300]
    mu = EmpiricalMeasure(g, states)
    path = save_measure(mu, tmp_path / "a.blob")
    assert path.read_bytes() == save_measure(mu, tmp_path / "b.blob").read_bytes()
    header = json.dumps({"dtype": "<f8", "grid": g.geometry(), "n_particles": 3}, sort_keys=True)
    assert path.read_bytes() == (b"FRACMVMEAS1\n" + header.encode() + b"\n"
                                 + states.astype("<f8").tobytes())
    back = load_measure(path)
    assert back.grid == g
    assert back.states.tobytes() == states.tobytes()


def _edited_measure(tmp_path, rng, edit_header, tail=b"", cut=0):
    """A saved 4-particle measure blob with its JSON header edited, ``tail`` appended
    and its last ``cut`` bytes removed."""
    g = build_grid(half_width=2.0, points=8)
    path = save_measure(random_measure(g, rng, 4), tmp_path / "edited.blob")
    magic, header, data = path.read_bytes().split(b"\n", 2)
    doc = json.loads(header)
    edit_header(doc)
    path.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + data[:len(data) - cut]
                     + tail)
    return path


@pytest.mark.parametrize(
    "field,value",
    [("n_particles", 4.0), ("n_particles", 3.5), ("n_particles", "4"), ("n_particles", True),
     ("dtype", "<f4"), ("dtype", "object")],
    ids=["count-float", "count-fractional", "count-string", "count-true", "dtype-f4",
         "dtype-object"],
)
def test_load_measure_refuses_a_mistyped_manifest_field_by_name(tmp_path, rng, field, value):
    """A header count that is not a JSON integer is refused, not truncated (true is
    not 1), and a ``dtype`` other than little-endian float64 is refused, not read."""
    path = _edited_measure(tmp_path, rng, lambda h: h.update({field: value}))
    with pytest.raises(ValidationError, match=f"edited.blob: header field {field} must be"):
        load_measure(path)


@pytest.mark.parametrize(
    "grid",
    [{"dim": 2, "half_width": 2.0, "points_per_dim": 64},
     {"dim": 1, "half_width": 2.0, "points_per_dim": 16}, {"dim": 1, "points_per_dim": 8},
     {"dim": 1, "half_width": "2.0", "points_per_dim": 8}, "1-d, 8 cells", None],
    ids=["other-dim", "other-points", "no-width", "width-string", "string", "null"],
)
def test_load_measure_refuses_a_manifest_grid_unlike_its_particles(tmp_path, rng, grid):
    """The header's grid must be one whose cells make the file's values: one of other
    cells, or a malformed one, is refused naming the file and the grid."""
    path = _edited_measure(tmp_path, rng, lambda h: h.update(grid=grid))
    with pytest.raises(ValidationError, match=r"edited\.blob: .*(grid|malformed measure header)"):
        load_measure(path)


@pytest.mark.parametrize(
    "manifest",
    [None, "{not json", '{"n_particles": 4, "grid": {}}'],
    ids=["missing", "not-json", "no-particle-files"],
)
def test_load_measure_names_the_directory(tmp_path, rng, manifest):
    """A missing measure, or one whose header is not JSON or lacks its fields, is
    refused naming the measure's path."""
    path = save_measure(random_measure(build_grid(half_width=2.0, points=8), rng, 4),
                        tmp_path / "m.blob")
    if manifest is None:
        path.unlink()
    else:
        magic, _, data = path.read_bytes().split(b"\n", 2)
        path.write_bytes(magic + b"\n" + manifest.encode() + b"\n" + data)
    with pytest.raises(ValidationError, match=re.escape(str(path))):
        load_measure(path)


@pytest.mark.parametrize(
    "edit,tail,cut,needle",
    [
        (lambda h: h.update(n_particles=-1), b"", 0, "n_particles must be an integer >= 1"),
        (lambda h: h.update(n_particles=0), b"", 0, "n_particles must be an integer >= 1"),
        (lambda h: h.update(n_particles=5), b"", 0, "n_particles = 5"),
        (lambda h: None, b"\0" * 8, 0, "n_particles = 4"),
        (lambda h: None, b"", 8, "n_particles = 4"),
    ],
    ids=["n-particles-negative", "n-particles-zero", "n-particles-over", "overlong", "truncated"],
)
def test_measure_blob_with_a_bad_header_field_is_refused(edit, tail, cut, needle, tmp_path, rng):
    """The measure blob's refusals mirror the trajectory blob's, from the same reader:
    a count below 1, or one the file's size does not hold, is refused by the field's
    name and the file's."""
    path = _edited_measure(tmp_path, rng, edit, tail, cut)
    with pytest.raises(ValidationError, match=f"edited.blob: .*{needle}"):
        load_measure(path)


@pytest.mark.parametrize("what", ["magic", "trajectory", "nan", "directory"])
def test_load_measure_refuses_what_is_no_measure_blob(what, tmp_path, rng):
    """A file with another magic line, a trajectory blob among them, a blob with a
    non-finite value, and a directory such as the retired ``final_measure/`` are
    refused naming the path."""
    from fracmv.dynamics import Trajectory, save_trajectory

    g = build_grid(half_width=2.0, points=8)
    path = tmp_path / "m.blob"
    if what == "directory":
        path.mkdir()
        needle = "is a directory; a measure is one blob file"
    elif what == "trajectory":
        save_trajectory(Trajectory(g, [0.0], np.zeros((1,) + g.shape)), path)
        needle = "not a measure blob"
    else:
        blob = bytearray(save_measure(random_measure(g, rng, 2), path).read_bytes())
        if what == "magic":
            blob[:len(b"FRACMVJUNK1\n")] = b"FRACMVJUNK1\n"
        else:
            blob[-8:] = np.array([np.nan], "<f8").tobytes()
        path.write_bytes(blob)
        needle = "not a measure blob" if what == "magic" else "empirical measure contains non-finite"
    with pytest.raises(ValidationError, match=re.escape(f"{path}: ") + needle):
        load_measure(path)


SOLVER_PATHS = """
import json
from pathlib import Path

import numpy as np

import fracmv.cli
from fracmv.grid import SpatialGrid
from fracmv.measure import EmpiricalMeasure, _cost_matrix, wasserstein2

seen = {"import": scipy_modules()}
tmp = Path(sys.argv[1])
cfg = tmp / "tiny.yaml"
cfg.write_text("time: {horizon: 0.25, steps: 20}\\nnoise: {n_modes: 2}\\npicard: {n_particles: 4}\\n")
for command, flags in (("simulate", []), ("rate", ["--target", "deterministic"])):
    assert fracmv.cli.main([command, "--config", str(cfg), "--out", str(tmp / command), *flags]) == 0
    seen[command] = scipy_modules()

grid = SpatialGrid(1, 4.0, 32)
rng = np.random.default_rng(7)
mu, nu = (EmpiricalMeasure(grid, rng.standard_normal((6, 32))) for _ in range(2))
seen["w2"] = wasserstein2(mu, nu)
seen["solve"] = scipy_modules()

from scipy.optimize import linear_sum_assignment

cost = _cost_matrix(mu, nu)
rows, cols = linear_sum_assignment(cost)
seen["oracle"] = float(np.sqrt(cost[rows, cols].sum() / 6))
print(json.dumps(seen))
"""


def test_only_a_w2_solve_loads_scipy(tmp_path):
    """``simulate`` and ``rate`` solve no W2 and load no scipy module; the
    first ``wasserstein2`` call imports scipy's assignment solve, and gives
    the float that solve gives on the same cost matrix."""
    seen = run_fresh(SOLVER_PATHS, tmp_path)
    assert seen["import"] == seen["simulate"] == seen["rate"] == []
    assert "scipy.optimize" in seen["solve"]
    assert seen["w2"] == seen["oracle"] > 0.0
