import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (build_coeffs, build_grid, build_tgrid, build_u0, full_sweep_sup,
                     run_kernel)

from fracmv import dynamics, measure, mckean_vlasov
from fracmv.cli import main
from fracmv.config import RunConfig
from fracmv.coefficients import NodeFields
from fracmv.dynamics import NoisePath, TimeGrid, Trajectory, solve_frozen, sup_distance
from fracmv.errors import BlowUpError, ValidationError
from fracmv.grid import GridFunction, SpatialGrid, l2_norm
from fracmv.measure import EmpiricalMeasure, MeasureFlow, flow_distance, second_moment
from fracmv.mckean_vlasov import (
    _LAMBDA_GRID,
    MeanFieldProblem,
    PicardConfig,
    _initial_flow,
    apply_phi,
    auto_lambda,
    picard_solve,
    small_noise_sweep,
)


def make_problem(grid, coeffs, tgrid, u0=None, eps=0.01, seed=99, **kw):
    return MeanFieldProblem(
        grid=grid,
        tgrid=tgrid,
        coeffs=coeffs,
        u0=u0 if u0 is not None else build_u0(grid),
        epsilon=eps,
        master_seed=seed,
        **kw,
    )


def constant_flow(grid, values, n, nodes):
    mu = EmpiricalMeasure(grid, np.broadcast_to(values, (n,) + grid.shape).copy())
    return MeasureFlow.constant(mu, nodes)


def off_table(real):
    """``real``, the law-table builder, with every table it builds 5 % off."""
    return lambda *a: NodeFields(*(1.05 * col for col in real(*a)))


def noise_stack(p, n):
    """Particles ``0 .. n-1``'s ``NoisePath.generate`` increments, stacked ``(S, n, K)``."""
    K = p.coeffs.sigma.n_modes
    return np.stack([NoisePath.generate(p.tgrid, K, p.master_seed, i).increments
                     for i in range(n)], axis=1)


def sweep_states(p, n):
    """The states of ``n`` particles stepped against their own law, each driven by
    its own noise path: one run of the step kernel with ``law=None``, fed sigma's
    drive ``sqrt(eps) dW`` from the stacked noise paths."""
    return run_kernel(p.grid, p.coeffs, mckean_vlasov._initial_states(p, n), p.tgrid, None,
                      math.sqrt(p.epsilon) * noise_stack(p, n))


def retired_config(**picard):
    """The solver settings a config document with these ``picard`` keys builds;
    the retired keys ``lambda_weight`` and ``max_iters`` are checked, then dropped."""
    return RunConfig({"picard": picard}).picard_config()


# -- the frozen-measure map ----------------------------------------------


def test_apply_phi_matches_single_particle_solves(rng):
    """The batched update is a pure function of the input flow and equals,
    byte for byte, one ``solve_frozen`` run per particle with that
    particle's noise, in 1-d and 2-d."""
    tgrid = TimeGrid(horizon=0.25, steps=30)
    for grid in (build_grid(points=32), build_grid(dim=2, points=16)):
        coeffs = build_coeffs(grid, n_modes=3)
        u0 = build_u0(grid)
        n = 5
        states = u0.values[None] * (1.0 + 0.2 * rng.standard_normal((n,) + (1,) * grid.dim))
        p = make_problem(grid, coeffs, tgrid, u0=u0, eps=0.05, initial_states=states)
        # a time-varying frozen law: the image of the initial ensemble
        flow = apply_phi(p, MeasureFlow.constant(EmpiricalMeasure(grid, states), tgrid.nodes))
        out = apply_phi(p, flow)
        assert np.array_equal(out.states, apply_phi(p, flow).states)
        for i in range(n):
            noise = NoisePath.generate(tgrid, coeffs.sigma.n_modes, p.master_seed, particle=i)
            ref = solve_frozen(GridFunction(grid, states[i]), flow, coeffs, tgrid,
                               eps=0.05, noise=noise)
            assert out.states[:, i].tobytes() == ref.values.tobytes()


def test_flow_from_the_kernel_is_not_scanned_again(small_grid, small_coeffs, small_tgrid,
                                                  monkeypatch):
    """The kernel checks each node it makes, so neither apply_phi nor the
    solve builds its flow through MeasureFlow's node-by-node scan; the solve
    builds no constant initial view either."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    flow0 = _initial_flow(p, 4)
    scanned = []
    real = MeasureFlow.__post_init__
    monkeypatch.setattr(MeasureFlow, "__post_init__",
                        lambda self: scanned.append(self.states.strides[0]) or real(self))
    image = apply_phi(p, flow0)
    assert scanned == []
    flow = picard_solve(p, PicardConfig(n_particles=4))
    assert scanned == []
    assert np.isfinite(image.states).all() and np.isfinite(flow.states).all()


def test_blow_up_names_the_first_failing_particle(small_grid, small_coeffs, small_tgrid):
    """Rows 2 and 3 overflow at the first step; the lowest index is named."""
    u0 = build_u0(small_grid)
    states = np.stack([u0.values] * 4)
    states[2:] *= 1e120
    p = make_problem(small_grid, small_coeffs, small_tgrid, initial_states=states)
    flow = constant_flow(small_grid, u0.values, 4, small_tgrid.nodes)
    with pytest.raises(BlowUpError) as exc_info:
        apply_phi(p, flow)
    err = exc_info.value
    assert err.particle == 2
    assert err.step == 0
    assert err.time == pytest.approx(small_tgrid.dt)
    assert "particle 2" in str(err)


def test_particles_differ_but_share_the_initial_state(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    flow = constant_flow(small_grid, p.u0.values, 4, small_tgrid.nodes)
    out = apply_phi(p, flow)
    assert np.array_equal(out.states[0, 0], p.u0.values)
    assert not np.array_equal(out.states[-1, 0], out.states[-1, 1])


def test_contraction_on_separated_probe_flows(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    mu = constant_flow(small_grid, p.u0.values, 8, small_tgrid.nodes)
    nu = constant_flow(small_grid, 1.5 * p.u0.values, 8, small_tgrid.nodes)
    d0 = flow_distance(mu, nu, 0.0)
    d1 = flow_distance(apply_phi(p, mu), apply_phi(p, nu), 0.0)
    assert d1 < 0.5 * d0


def test_measure_independent_coefficients_decouple(small_grid, small_tgrid):
    """Kill every law-coupling channel; the map then ignores its argument
    and the fixed point is found immediately."""
    coeffs = build_coeffs(small_grid, phi_amp=0.0, c2=0.0, beta_amp=0.0)
    p = make_problem(small_grid, coeffs, small_tgrid, eps=0.02)
    flow_a = constant_flow(small_grid, p.u0.values, 4, small_tgrid.nodes)
    flow_b = constant_flow(small_grid, 5.0 * p.u0.values, 4, small_tgrid.nodes)
    out_a = apply_phi(p, flow_a)
    out_b = apply_phi(p, flow_b)
    assert np.array_equal(out_a.states, out_b.states)

    flow = picard_solve(p, PicardConfig(n_particles=4))
    assert flow.states.tobytes() == out_a.states.tobytes()
    # each particle solves the frozen equation with its own noise
    noise = NoisePath.generate(small_tgrid, coeffs.sigma.n_modes, p.master_seed, particle=2)
    ref = solve_frozen(p.u0, flow_a, coeffs, small_tgrid, eps=0.02, noise=noise)
    assert sup_distance(Trajectory(small_grid, flow.times, flow.states[:, 2]), ref) <= 1e-12


# -- the fixed-point loop ------------------------------------------------


def test_picard_converges_and_iterates_contract(small_grid, small_coeffs, small_tgrid):
    """The solve returns the flow of its particles, started at ``u0``, which the
    freezing map gives back: a fixed point, not one within a tolerance."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    flow = picard_solve(p, PicardConfig(n_particles=8, tol=1e-6))
    assert isinstance(flow, MeasureFlow) and flow.n_particles == 8
    assert np.array_equal(flow.states[0], np.broadcast_to(p.u0.values, (8,) + small_grid.shape))
    assert flow_distance(apply_phi(p, flow), flow, 0.0) == 0.0


def test_picard_fixed_weight_matches_auto_outcome(small_grid, small_coeffs, small_tgrid):
    """Configs whose retired ``lambda_weight`` reads ``auto`` or a fixed weight, and
    whose retired ``max_iters`` reads any budget, build one set of solver settings;
    the problem holds no state between solves, so two solves agree bit for bit."""
    cfgs = [retired_config(n_particles=6, lambda_weight=w, max_iters=m)
            for w, m in (("auto", 20), (0.0, 1), (1.0, 5))]
    assert cfgs == [PicardConfig(n_particles=6)] * 3
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    first, second = (picard_solve(p, cfg) for cfg in cfgs[:2])
    assert first.states.tobytes() == second.states.tobytes()


@pytest.mark.filterwarnings("ignore:mass .* outside")
def test_only_a_failed_calibration_exits_3(small_grid, small_coeffs, small_tgrid, monkeypatch,
                                         tmp_path, capsys):
    """A solve reads no law table, so one 5 % off leaves its flow as it was and
    ``simulate`` exits 0.  Exit 3 stays reachable through ``verify``: the
    picard suite's calibration raises the divergence error when no metric weight
    reaches the target contraction ratio."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    exact = picard_solve(p, PicardConfig(n_particles=4))
    monkeypatch.setattr(mckean_vlasov, "_law_table", off_table(mckean_vlasov._law_table))
    off = picard_solve(p, PicardConfig(n_particles=4))
    assert off.states.tobytes() == exact.states.tobytes()

    config = tmp_path / "tiny.yaml"
    config.write_text("grid: {half_width: 4.0, points_per_dim: 32}\n"
                      "time: {horizon: 0.25, steps: 20}\n"
                      "picard: {n_particles: 4}\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 0
    monkeypatch.setattr(mckean_vlasov, "_TARGET_RATIO", -1.0)
    assert main(["verify", "--config", str(config), "--suite", "picard",
                 "--out", str(tmp_path / "v")]) == 3
    assert "error[numerical] FixedPointDivergenceError" in capsys.readouterr().err


def test_custom_initial_ensemble(small_grid, small_coeffs, small_tgrid, rng):
    u0 = build_u0(small_grid)
    states = u0.values[None] * (1.0 + 0.1 * rng.standard_normal((4, 1)))
    p = make_problem(small_grid, small_coeffs, small_tgrid, initial_states=states)
    flow = picard_solve(p, PicardConfig(n_particles=4))
    assert np.array_equal(flow.states[0], states)
    with pytest.raises(ValidationError):
        picard_solve(p, PicardConfig(n_particles=8))


def test_problem_validation(small_grid, small_coeffs, small_tgrid):
    with pytest.raises(ValidationError):
        make_problem(small_grid, small_coeffs, small_tgrid, eps=1.0)
    with pytest.raises(ValidationError):
        make_problem(small_grid, small_coeffs, small_tgrid,
                     initial_states=np.zeros((4, 7)))
    other = build_grid(points=16)
    with pytest.raises(Exception):
        make_problem(other, small_coeffs, small_tgrid)
    # the solve reads two settings
    assert [f.name for f in dataclasses.fields(PicardConfig)] == ["n_particles", "tol"]
    with pytest.raises(ValidationError, match="n_particles"):
        PicardConfig(n_particles=0)
    with pytest.raises(ValidationError, match="tol"):
        PicardConfig(tol=float("inf"))


def test_auto_lambda_rejects_identical_probes(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    flow = constant_flow(small_grid, p.u0.values, 4, small_tgrid.nodes)
    image = apply_phi(p, flow)
    with pytest.raises(ValidationError):
        auto_lambda(p, [flow, flow], [image, image])


def per_weight_auto_lambda(problem, probes, images, target_ratio=0.5):
    """The calibration loop as it was before node curves were reused:
    two full flow distances per probe pair and candidate weight."""
    tiny = 1e3 * np.finfo(float).eps * (1.0 + l2_norm(problem.u0))
    curve, chosen = [], None
    for lam in _LAMBDA_GRID:
        worst, resolved = 0.0, False
        for a, b in itertools.combinations(range(len(probes)), 2):
            denom = flow_distance(probes[a], probes[b], lam)
            if denom <= tiny:
                continue
            resolved = True
            worst = max(worst, flow_distance(images[a], images[b], lam) / denom)
        assert resolved
        curve.append((float(lam), float(worst)))
        if chosen is None and worst <= target_ratio:
            chosen = float(lam)
    return 2.0 * chosen, tuple(curve)


def test_auto_lambda_matches_the_per_weight_distance_loop(small_grid, small_coeffs,
                                                          small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    nodes = small_tgrid.nodes
    mu = constant_flow(small_grid, p.u0.values, 4, nodes)
    nu = constant_flow(small_grid, 1.5 * p.u0.values, 4, nodes)
    # differs from mu only at the last node, by an amount that the
    # larger weights push below the resolution floor
    late_states = mu.states.copy()
    late_states[-1, 0] += 1e-9
    late = MeasureFlow(small_grid, nodes, late_states)
    twin = MeasureFlow(small_grid, nodes, mu.states.copy())  # never resolved against mu
    probes = [mu, twin, nu, late]
    tiny = 1e3 * np.finfo(float).eps * (1.0 + l2_norm(p.u0))
    assert flow_distance(mu, late, _LAMBDA_GRID[0]) > tiny
    assert flow_distance(mu, late, _LAMBDA_GRID[-1]) <= tiny
    images = [apply_phi(p, f) for f in probes]
    lam, curve = auto_lambda(p, probes, images=images)
    oracle_lam, oracle_curve = per_weight_auto_lambda(p, probes, images)
    assert float(lam).hex() == float(oracle_lam).hex()
    assert [tuple(x.hex() for x in row) for row in curve] == [
        tuple(x.hex() for x in row) for row in oracle_curve
    ]


def test_picard_distances_match_recomputed_flow_distances(small_grid, small_coeffs,
                                                          small_tgrid):
    """The distance ``simulate`` reports, 0 by construction, is flow_distance
    between the solved flow and its image, recomputed."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    flow = picard_solve(p, PicardConfig(n_particles=6, tol=1e-8))
    assert flow_distance(flow, apply_phi(p, flow), 0.0).hex() == (0.0).hex()


def test_successive_iterates_take_few_node_solves(small_grid, small_coeffs, small_tgrid,
                                                  monkeypatch):
    """Common random numbers keep particle i of one iterate closest to
    particle i of the next, so the identity bound is tight and the
    flow metric between successive iterates needs only a few solves."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    first = apply_phi(p, _initial_flow(p, 8))
    second = apply_phi(p, first)
    solved = []
    real = measure.wasserstein2
    monkeypatch.setattr(measure, "wasserstein2", lambda a, b: solved.append(1) or real(a, b))
    for lam in (0.0, 1.0, 16.0):
        assert flow_distance(first, second, lam) == full_sweep_sup(first, second, lam)
    assert len(solved) <= small_tgrid.nodes.size // 8


# -- the causal sweep -------------------------------------------------------


def reference_picard(p, n, weight, threshold):
    """The retired loop, holding each iterate and its image whole: ``apply_phi``
    from the constant initial flow until ``flow_distance`` at ``weight`` between
    successive iterates is within ``threshold``.  An ``auto`` weight is the one
    ``auto_lambda`` calibrates on the first two iterates and a 1.25x scaled start,
    as the picard verify suite does.  Returns the distances and the last iterate."""
    flow = _initial_flow(p, n)
    lam = weight
    if weight == "auto":
        scaled = MeasureFlow.constant(EmpiricalMeasure(p.grid, 1.25 * flow.states[0]), flow.times)
        probes = [flow, apply_phi(p, flow), scaled]
        lam, _ = auto_lambda(p, probes, [apply_phi(p, f) for f in probes])
    distances = []
    while not distances or distances[-1] > threshold:
        assert len(distances) < 20
        image = apply_phi(p, flow)
        distances.append(flow_distance(flow, image, lam))
        flow = image
    return distances, flow


def in_place_cases():
    one, two = build_grid(points=32), build_grid(dim=2, points=8)
    for grid, steps in ((one, 40), (two, 20)):
        for weight in (0.0, 1.0, "auto"):
            yield pytest.param(grid, steps, weight, id=f"{grid.dim}d-{weight}")


@pytest.mark.parametrize("grid,steps,weight", in_place_cases())
def test_in_place_loop_equals_the_two_flow_loop(grid, steps, weight):
    """With and without noise, from sampled ensembles of 6, 1, 8 and 64 particles:
    the freezing map gives back the solved flow bit for bit; and the loop that
    iterates the map holding each iterate and its image whole, stopped by the
    distance at ``weight``, ends within the threshold of the 6-particle solve in
    the plain sup."""
    coeffs = build_coeffs(grid)
    u0 = build_u0(grid)
    rng = np.random.default_rng(7)
    ensembles = {n: u0.values[None] * (1.0 + 0.2 * rng.standard_normal((n,) + (1,) * grid.dim))
                 for n in (6, 1, 8, 64)}
    threshold = 1e-9 * (1.0 + l2_norm(u0))
    for eps in (0.0, 0.01):
        for n in (1, 8, 64, 6):  # 6 last: the reference loop below starts from it
            p = make_problem(grid, coeffs, build_tgrid(steps=steps), u0=u0, eps=eps,
                             initial_states=ensembles[n])
            flow = picard_solve(p, PicardConfig(n_particles=n, tol=1e-9))
            assert apply_phi(p, flow).states.tobytes() == flow.states.tobytes(), n
        distances, ref = reference_picard(p, 6, weight, threshold)
        assert len(distances) >= 3
        assert flow_distance(ref, flow, 0.0) <= threshold


@pytest.mark.parametrize("weight", [0.0, 1.0, "auto"])
def test_tolerated_certificate_returns_the_sweep_it_certified(small_grid, small_coeffs,
                                                              small_tgrid, monkeypatch, weight):
    """Whatever the retired ``lambda_weight`` key reads, the solve solves no W2 and
    returns the causal sweep, whose image is itself byte for byte.  A law table
    5 % off, which an earlier streamed certificate read and tolerated, no longer
    changes the flow."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    n = 6
    solved = []
    real_w2 = measure.wasserstein2
    monkeypatch.setattr(measure, "wasserstein2", lambda a, b: solved.append(1) or real_w2(a, b))
    exact = picard_solve(p, retired_config(n_particles=n, tol=1e-9, lambda_weight=weight))
    assert solved == []
    sweep = sweep_states(p, n)
    assert exact.states.tobytes() == sweep.tobytes()
    assert apply_phi(p, exact).states.tobytes() == sweep.tobytes()
    monkeypatch.setattr(mckean_vlasov, "_law_table", off_table(mckean_vlasov._law_table))
    loose = picard_solve(p, retired_config(n_particles=n, tol=1.0, lambda_weight=weight))
    assert loose.states.tobytes() == sweep.tobytes()


def test_last_sweep_reads_no_law_table(small_grid, small_coeffs, small_tgrid, monkeypatch):
    """A solve is one run of the step kernel: it reads its ensemble's law once per
    step from the paths' squared sums and builds no law table, applies the spectral
    resolvent once per step and slab (three slabs of 2, 2 and 1 paths here), solves
    no W2, and returns the sweep of the particles against their own law, driven by
    their stacked noise paths, in the default single slab."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    n, reads, tables, resolvents, solved = 5, [], [], [], []
    ref = sweep_states(p, n)
    real_read, real_table = dynamics.law_from_sums, dynamics.law_statistics
    monkeypatch.setattr(dynamics, "law_from_sums", lambda *a: reads.append(1) or real_read(*a))
    for module in (dynamics, mckean_vlasov):  # the solver module must hold no copy of its own
        monkeypatch.setattr(module, "law_statistics",
                            lambda *a: tables.append(1) or real_table(*a), raising=False)
    real_mult, real_w2 = SpatialGrid.apply_multiplier, measure.wasserstein2
    monkeypatch.setattr(SpatialGrid, "apply_multiplier",
                        lambda *a, **k: resolvents.append(1) or real_mult(*a, **k))
    monkeypatch.setattr(measure, "wasserstein2", lambda a, b: solved.append(1) or real_w2(a, b))
    monkeypatch.setattr(dynamics, "_SLAB_BYTES", 2 * 8 * small_grid.n_cells)
    flow = picard_solve(p, PicardConfig(n_particles=n, tol=1e-9))
    assert len(reads) == small_tgrid.steps
    assert tables == []
    assert len(resolvents) == 3 * small_tgrid.steps
    assert solved == []
    assert flow.states.tobytes() == ref.tobytes()


@pytest.mark.parametrize("steps", [1, 31, 32, 33, 200])
def test_noise_rows_are_the_stacked_noise_paths(small_grid, small_coeffs, steps):
    """The sweep's drive stream, drawn 32 steps at a time, gives row by row
    ``sqrt(eps)`` times the stacked ``NoisePath.generate`` increments bit for bit, for
    horizons shorter than a chunk, one chunk, one step past it and several chunks.
    Each row is a fresh C-contiguous array, not a view of the chunk, so it may be
    kept as it is read."""
    p = make_problem(small_grid, small_coeffs, build_tgrid(steps=steps))
    rows = list(mckean_vlasov._noise_rows(p, 3))
    assert len(rows) == steps
    assert all(row.flags.c_contiguous and row.base is None for row in rows)
    assert np.stack(rows).tobytes() == (math.sqrt(p.epsilon) * noise_stack(p, 3)).tobytes()
    assert mckean_vlasov._noise_rows(dataclasses.replace(p, epsilon=0.0), 3) is None


def test_law_table_reads_a_sweep_stream_as_its_collected_flow(small_grid, small_coeffs,
                                                              small_tgrid, monkeypatch):
    """The law table over a ``_sweep_nodes`` stream equals the table over the
    collected flow bit for bit, and it never asks for the last node, so the stream
    runs S - 1 steps (one law read from the batch each)."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    times = small_tgrid.nodes
    flow = picard_solve(p, PicardConfig(n_particles=5))
    collected = dynamics._law_table(p.coeffs, p.grid, times, flow.states)
    reads, real_read = [], dynamics.law_from_sums
    monkeypatch.setattr(dynamics, "law_from_sums", lambda *a: reads.append(1) or real_read(*a))
    streamed = dynamics._law_table(p.coeffs, p.grid, times, mckean_vlasov._sweep_nodes(p, 5, None))
    assert len(reads) == small_tgrid.steps - 1
    assert [col.tobytes() for col in streamed] == [col.tobytes() for col in collected]


@pytest.mark.parametrize("weight", [1.0, "auto"])
def test_solve_draws_each_particles_noise_once(small_grid, small_coeffs, small_tgrid,
                                               monkeypatch, weight):
    """Whatever the retired ``lambda_weight`` key reads, a solve makes each
    particle's noise generator once; the problem holds no noise, so ``apply_phi``
    makes its own."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    made = []
    real = NoisePath.generator
    monkeypatch.setattr(NoisePath, "generator",
                        staticmethod(lambda *a: made.append(a[1]) or real(*a)))
    picard_solve(p, retired_config(n_particles=5, lambda_weight=weight))
    assert made == [0, 1, 2, 3, 4]
    apply_phi(p, _initial_flow(p, 5))
    assert made == [0, 1, 2, 3, 4] * 2


def test_fixed_weight_solve_holds_one_flow():
    """A solve is one causal sweep, so it holds one flow and a few nodes (under 20
    here: the step's buffers, the node in hand and a chunk of noise), where a
    two-flow loop holds two flows."""
    g = build_grid(points=64)
    p = make_problem(g, build_coeffs(g), build_tgrid(steps=100))
    cfg = PicardConfig(n_particles=16)
    picard_solve(p, cfg)  # fill the per-grid caches outside the measurement
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        flow = picard_solve(p, cfg)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert peak < flow.states.nbytes + 20 * flow.states[0].nbytes


# -- stability of the mean-field estimate ---------------------------------


def test_particle_doubling_moves_the_law_estimate_little(small_grid, small_coeffs, small_tgrid):
    cfgs = [(8, None), (16, None)]
    moments = []
    for n, _ in cfgs:
        p = make_problem(small_grid, small_coeffs, small_tgrid)
        flow = picard_solve(p, PicardConfig(n_particles=n))
        moments.append(second_moment(flow.measure(small_tgrid.steps)))
    assert abs(moments[0] - moments[1]) / moments[1] < 0.05


def test_second_moment_stays_bounded_by_initial_scale(small_grid, small_coeffs, small_tgrid):
    """E sup_t ||u||^2 <= C (1 + ||u0||^2) with one C across scales; the
    dissipative drift keeps C at 1 for this family."""
    for amp in (0.5, 1.0, 2.0):
        u0 = build_u0(small_grid, amp=amp)
        p = make_problem(small_grid, small_coeffs, small_tgrid, u0=u0)
        flow = picard_solve(p, PicardConfig(n_particles=8))
        w = small_grid.cell_volume
        norms_sq = w * np.sum(flow.states**2, axis=tuple(range(2, 2 + small_grid.dim)))
        est = float(np.mean(np.max(norms_sq, axis=0)))
        assert est <= 1.0 * (1.0 + l2_norm(u0) ** 2)


# -- small-noise sweep -----------------------------------------------------


def test_small_noise_sweep_zero_row_and_slope(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [0.0, 3e-3, 1e-2], 4)
    eps0, est0, err0 = sweep.rows[0]
    assert eps0 == 0.0 and est0 == 0.0 and err0 == 0.0
    assert 0.8 <= sweep.slope <= 1.2
    assert all(est > 0.0 for _, est, _ in sweep.rows[1:])


def test_small_noise_sweep_rows_are_bitwise_unchanged(small_grid, small_coeffs, small_tgrid):
    """The per-node deviations of the causal sweep give the bits recorded from
    one whole-flow deviation of the same flow."""
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [0.0, 3e-3, 1e-2], 4)
    assert [tuple(v.hex() for v in row) for row in sweep.rows] == [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.89374bc6a7efap-9", "0x1.29a70f22510f4p-11", "0x1.b2f464f33f4bap-13"),
        ("0x1.47ae147ae147bp-7", "0x1.f23b2a43d28f7p-10", "0x1.6ca04d1ddba2bp-11"),
    ]
    assert sweep.slope.hex() == "0x1.00eaaff3371b1p+0"


def test_sweep_deviation_shrinks_with_epsilon(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [1e-3, 1e-2], 4)
    assert sweep.rows[0][1] < sweep.rows[1][1]


@pytest.mark.parametrize("n_replicas", [2.5, True], ids=["fractional", "bool"])
def test_small_noise_sweep_refuses_a_count_that_is_not_one(small_grid, small_coeffs,
                                                           small_tgrid, n_replicas):
    """2.5 replicas are not truncated to 2, nor True read as 1: the sweep refuses
    both by name, as ``PicardConfig`` refuses such an ``n_particles``."""
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    with pytest.raises(ValidationError, match="^n_replicas must be an integer >= 1"):
        small_noise_sweep(p, [1e-2], n_replicas)


def test_small_noise_sweep_holds_less_than_one_flow():
    """The sweep reads each intensity's causal sweep node by node, so it holds its
    noise chunk, the zero-noise path and one deviation per particle and node, less
    than the ``(S+1) x n`` flow a collected solve holds."""
    g, tgrid, n = build_grid(points=64), build_tgrid(steps=100), 16
    p = make_problem(g, build_coeffs(g), tgrid, eps=0.0)
    small_noise_sweep(p, [1e-2], n)  # fill the per-grid caches outside the measurement
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        small_noise_sweep(p, [1e-2], n)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert peak < (tgrid.steps + 1) * n * g.n_cells * 8
