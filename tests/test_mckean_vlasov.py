import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import build_coeffs, build_grid, build_tgrid, build_u0, full_sweep_sup

from fracmv import dynamics, measure, mckean_vlasov
from fracmv.cli import main
from fracmv.config import RunConfig
from fracmv.dynamics import NoisePath, TimeGrid, solve_frozen, sup_distance
from fracmv.errors import BlowUpError, FixedPointDivergenceError, ValidationError
from fracmv.grid import GridFunction, l2_norm
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
    result = picard_solve(p, PicardConfig(n_particles=4))
    assert scanned == []
    assert np.isfinite(image.states).all() and np.isfinite(result.flow.states).all()


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

    result = picard_solve(p, PicardConfig(n_particles=4))
    assert result.report.converged
    assert result.report.iterations <= 2
    # each particle solves the frozen equation with its own noise
    noise = NoisePath.generate(small_tgrid, coeffs.sigma.n_modes, p.master_seed, particle=2)
    ref = solve_frozen(p.u0, flow_a, coeffs, small_tgrid, eps=0.02, noise=noise)
    assert sup_distance(result.particle_trajectory(2), ref) <= 1e-12


# -- the fixed-point loop ------------------------------------------------


def test_picard_converges_and_iterates_contract(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    result = picard_solve(p, PicardConfig(n_particles=8, tol=1e-6))
    rep = result.report
    assert rep.converged
    assert rep.iterations == 1
    assert rep.distance <= rep.threshold

    # the returned flow is a fixed point up to the solve's own tolerance
    residual = flow_distance(apply_phi(p, result.flow), result.flow, 0.0)
    assert residual <= 2.0 * rep.threshold


def test_picard_fixed_weight_matches_auto_outcome(small_grid, small_coeffs, small_tgrid):
    """Configs whose retired ``lambda_weight`` reads ``auto`` or a fixed weight, and
    whose retired ``max_iters`` reads any budget, build one set of solver settings;
    the problem holds no state between solves, so two solves agree bit for bit."""
    cfgs = [retired_config(n_particles=6, lambda_weight=w, max_iters=m)
            for w, m in (("auto", 20), (0.0, 1), (1.0, 5))]
    assert cfgs == [PicardConfig(n_particles=6)] * 3
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    first, second = (picard_solve(p, cfg) for cfg in cfgs[:2])
    assert first.flow.states.tobytes() == second.flow.states.tobytes()
    assert first.report == second.report


def test_certificate_is_the_plain_sup(small_grid, small_coeffs, small_tgrid, monkeypatch):
    """Read from a law table 5 % off, the certificate is no longer 0; it is the
    plain sup distance of the causal sweep from its image, at least the distance
    at a positive weight."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    flow = picard_solve(p, PicardConfig(n_particles=6)).flow
    real = mckean_vlasov._law_on_nodes
    monkeypatch.setattr(mckean_vlasov, "_law_on_nodes", lambda *a: 1.05 * real(*a))
    image = apply_phi(p, flow)
    d = picard_solve(p, PicardConfig(n_particles=6, tol=1.0)).report.distance
    assert d == flow_distance(flow, image, 0.0)
    assert d >= flow_distance(flow, image, 1.0) > 0.0


def test_uncertified_sweep_raises_with_report(small_grid, small_coeffs, small_tgrid,
                                             monkeypatch, tmp_path, capsys):
    """A certificate read from a law table 5 % off finds an image away from the
    sweep: the solve raises with its report attached, and ``simulate`` exits 3."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    real = mckean_vlasov._law_on_nodes
    monkeypatch.setattr(mckean_vlasov, "_law_on_nodes", lambda *a: 1.05 * real(*a))
    with pytest.raises(FixedPointDivergenceError) as exc_info:
        picard_solve(p, PicardConfig(n_particles=4))
    rep = exc_info.value.report
    assert rep is not None
    assert rep.iterations == 1
    assert not rep.converged
    assert rep.distance > rep.threshold

    config = tmp_path / "tiny.yaml"
    config.write_text("grid: {half_width: 4.0, points_per_dim: 32}\n"
                      "time: {horizon: 0.25, steps: 20}\n"
                      "picard: {n_particles: 4}\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 3
    assert "error[numerical] FixedPointDivergenceError" in capsys.readouterr().err


def test_custom_initial_ensemble(small_grid, small_coeffs, small_tgrid, rng):
    u0 = build_u0(small_grid)
    states = u0.values[None] * (1.0 + 0.1 * rng.standard_normal((4, 1)))
    p = make_problem(small_grid, small_coeffs, small_tgrid, initial_states=states)
    result = picard_solve(p, PicardConfig(n_particles=4))
    assert np.array_equal(result.flow.states[0], states)
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
    """The streamed certificate equals flow_distance between the solved flow
    and its image."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    result = picard_solve(p, PicardConfig(n_particles=6, tol=1e-8))
    recomputed = flow_distance(result.flow, apply_phi(p, result.flow), 0.0)
    assert result.report.distance.hex() == recomputed.hex()


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


# -- the causal sweep and its certificate -----------------------------------


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
    """With and without noise, from a sampled ensemble: the freezing map gives
    back the solved flow bit for bit, its certificate reads 0, and the loop that
    iterates the map holding each iterate and its image whole, stopped by the
    distance at ``weight``, ends within the threshold of it in the plain sup."""
    coeffs = build_coeffs(grid)
    u0 = build_u0(grid)
    rng = np.random.default_rng(7)
    states = u0.values[None] * (1.0 + 0.2 * rng.standard_normal((6,) + (1,) * grid.dim))
    for eps in (0.0, 0.01):
        p = make_problem(grid, coeffs, build_tgrid(steps=steps), u0=u0, eps=eps,
                         initial_states=states)
        result = picard_solve(p, PicardConfig(n_particles=6, tol=1e-9))
        rep = result.report
        assert apply_phi(p, result.flow).states.tobytes() == result.flow.states.tobytes()
        assert rep.distance == 0.0 and rep.iterations == 1 and rep.converged
        distances, ref = reference_picard(p, 6, weight, rep.threshold)
        assert len(distances) >= 3
        assert flow_distance(ref, result.flow, 0.0) <= rep.threshold


@pytest.mark.parametrize("weight", [0.0, 1.0, "auto"])
def test_tolerated_certificate_returns_the_sweep_it_certified(small_grid, small_coeffs,
                                                              small_tgrid, monkeypatch, weight):
    """Whatever the retired ``lambda_weight`` key reads: an exact certificate
    streams the image once and solves no node.  One read from a law table 5 % off
    is positive but within a loose threshold: the solve returns the causal sweep,
    not the image, and reports the sweep's plain sup distance from that image."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    n = 6
    solved, streams = [], []
    real_w2, real_nodes = measure.wasserstein2, mckean_vlasov._image_nodes
    monkeypatch.setattr(measure, "wasserstein2", lambda a, b: solved.append(1) or real_w2(a, b))
    monkeypatch.setattr(mckean_vlasov, "_image_nodes",
                        lambda *a: streams.append(1) or real_nodes(*a))
    exact = picard_solve(p, retired_config(n_particles=n, tol=1e-9, lambda_weight=weight))
    assert exact.report.distance == 0.0
    assert solved == [] and streams == [1]
    real_law = mckean_vlasov._law_on_nodes
    monkeypatch.setattr(mckean_vlasov, "_law_on_nodes", lambda *a: 1.05 * real_law(*a))
    result = picard_solve(p, retired_config(n_particles=n, tol=1.0, lambda_weight=weight))
    rep = result.report
    assert rep.converged and rep.distance > 0.0
    sweep = mckean_vlasov._image(p, None, n, mckean_vlasov._noise_stack(p, n))
    assert result.flow.states.tobytes() == sweep.tobytes()
    image = apply_phi(p, result.flow)
    assert rep.distance.hex() == flow_distance(result.flow, image, 0.0).hex()
    assert streams == [1, 1]


def test_last_sweep_reads_no_law_table(small_grid, small_coeffs, small_tgrid, monkeypatch):
    """The causal sweep reads its ensemble's law once per step, and the
    certificate reads the same law table once per left node of the solved
    flow; the certificate's own sweep steps against that table and reads none."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    calls = []
    real = dynamics.law_statistics
    counted = lambda *a: calls.append(1) or real(*a)  # noqa: E731
    for module in (dynamics, mckean_vlasov):  # the solver module must hold no copy of its own
        monkeypatch.setattr(module, "law_statistics", counted, raising=False)
    rep = picard_solve(p, PicardConfig(n_particles=5, tol=1e-9)).report
    assert rep.distance == 0.0
    assert len(calls) == 2 * small_tgrid.steps


@pytest.mark.parametrize("weight", [1.0, "auto"])
def test_solve_draws_each_particles_noise_once(small_grid, small_coeffs, small_tgrid,
                                               monkeypatch, weight):
    """Whatever the retired ``lambda_weight`` key reads, a solve draws each
    particle's noise once and drives its sweep and its certificate with it; the
    problem holds no noise, so ``apply_phi`` draws its own."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    drawn = []
    real = NoisePath.generate.__func__
    monkeypatch.setattr(NoisePath, "generate",
                        classmethod(lambda cls, *a, **k: drawn.append(1) or real(cls, *a, **k)))
    picard_solve(p, retired_config(n_particles=5, lambda_weight=weight))
    assert len(drawn) == 5
    apply_phi(p, _initial_flow(p, 5))
    assert len(drawn) == 10


def test_fixed_weight_solve_holds_one_flow():
    """The certificate streams the image node by node against the solved flow,
    which it only reads, so a solve holds one flow and a few nodes (under 20 here:
    the step's buffers, the node in hand and the noise stack), where a two-flow
    loop holds two flows."""
    g = build_grid(points=64)
    p = make_problem(g, build_coeffs(g), build_tgrid(steps=100))
    cfg = PicardConfig(n_particles=16)
    picard_solve(p, cfg)  # fill the per-grid caches outside the measurement
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        res = picard_solve(p, cfg)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert peak < res.flow.states.nbytes + 20 * res.flow.states[0].nbytes


# -- stability of the mean-field estimate ---------------------------------


def test_particle_doubling_moves_the_law_estimate_little(small_grid, small_coeffs, small_tgrid):
    cfgs = [(8, None), (16, None)]
    moments = []
    for n, _ in cfgs:
        p = make_problem(small_grid, small_coeffs, small_tgrid)
        r = picard_solve(p, PicardConfig(n_particles=n))
        moments.append(second_moment(r.flow.measure(small_tgrid.steps)))
    assert abs(moments[0] - moments[1]) / moments[1] < 0.05


def test_second_moment_stays_bounded_by_initial_scale(small_grid, small_coeffs, small_tgrid):
    """E sup_t ||u||^2 <= C (1 + ||u0||^2) with one C across scales; the
    dissipative drift keeps C at 1 for this family."""
    for amp in (0.5, 1.0, 2.0):
        u0 = build_u0(small_grid, amp=amp)
        p = make_problem(small_grid, small_coeffs, small_tgrid, u0=u0)
        r = picard_solve(p, PicardConfig(n_particles=8))
        w = small_grid.cell_volume
        norms_sq = w * np.sum(r.flow.states**2, axis=tuple(range(2, 2 + small_grid.dim)))
        est = float(np.mean(np.max(norms_sq, axis=0)))
        assert est <= 1.0 * (1.0 + l2_norm(u0) ** 2)


# -- small-noise sweep -----------------------------------------------------


def test_small_noise_sweep_zero_row_and_slope(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [0.0, 3e-3, 1e-2], 4,
                              PicardConfig(n_particles=4))
    eps0, est0, err0 = sweep.rows[0]
    assert eps0 == 0.0 and est0 == 0.0 and err0 == 0.0
    assert 0.8 <= sweep.slope <= 1.2
    assert all(est > 0.0 for _, est, _ in sweep.rows[1:])


def test_small_noise_sweep_rows_are_bitwise_unchanged(small_grid, small_coeffs, small_tgrid):
    """The per-node deviations of the causal sweep give the bits recorded from
    one whole-flow deviation of the same flow."""
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [0.0, 3e-3, 1e-2], 4,
                              PicardConfig(n_particles=4))
    assert [tuple(v.hex() for v in row) for row in sweep.rows] == [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.89374bc6a7efap-9", "0x1.29a70f22510f4p-11", "0x1.b2f464f33f4bap-13"),
        ("0x1.47ae147ae147bp-7", "0x1.f23b2a43d28f7p-10", "0x1.6ca04d1ddba2bp-11"),
    ]
    assert sweep.slope.hex() == "0x1.00eaaff3371b1p+0"


def test_sweep_deviation_shrinks_with_epsilon(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [1e-3, 1e-2], 4,
                              PicardConfig(n_particles=4))
    assert sweep.rows[0][1] < sweep.rows[1][1]
