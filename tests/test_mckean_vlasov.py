import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import build_coeffs, build_grid, build_tgrid, build_u0, full_sweep_sup

from fracmv import measure, mckean_vlasov
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
    solve builds its flow through MeasureFlow's node-by-node scan; only the
    solve's constant initial view, one node, is checked there."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    flow0 = _initial_flow(p, 4)
    scanned = []
    real = MeasureFlow.__post_init__
    monkeypatch.setattr(MeasureFlow, "__post_init__",
                        lambda self: scanned.append(self.states.strides[0]) or real(self))
    image = apply_phi(p, flow0)
    assert scanned == []
    result = picard_solve(p, PicardConfig(n_particles=4, lambda_weight=0.0))
    assert scanned == [0]
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

    result = picard_solve(p, PicardConfig(n_particles=4, lambda_weight=0.0))
    assert result.report.converged
    assert result.report.iterations <= 2
    # each particle solves the frozen equation with its own noise
    noise = NoisePath.generate(small_tgrid, coeffs.sigma.n_modes, p.master_seed, particle=2)
    ref = solve_frozen(p.u0, flow_a, coeffs, small_tgrid, eps=0.02, noise=noise)
    assert sup_distance(result.particle_trajectory(2), ref) <= 1e-12


# -- the fixed-point loop ------------------------------------------------


def test_picard_converges_and_iterates_contract(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    result = picard_solve(p, PicardConfig(n_particles=8, tol=1e-6, max_iters=20,
                                          lambda_weight="auto"))
    rep = result.report
    assert rep.converged
    assert rep.iterations <= 20
    assert rep.distances[-1] <= rep.threshold
    assert all(r <= 0.5 for r in rep.ratios[1:])
    assert rep.lambda_weight >= 0.0
    assert rep.auto_curve  # calibration curve recorded when auto

    # the returned flow is a fixed point up to the loop's own tolerance
    residual = flow_distance(apply_phi(p, result.flow), result.flow, rep.lambda_weight)
    assert residual <= 2.0 * rep.threshold


def test_picard_fixed_weight_matches_auto_outcome(small_grid, small_coeffs, small_tgrid):
    """On a dissipative instance the plain sup metric already contracts,
    so a fixed zero weight converges to the same flow."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    r_auto = picard_solve(p, PicardConfig(n_particles=6, lambda_weight="auto"))
    r_zero = picard_solve(p, PicardConfig(n_particles=6, lambda_weight=0.0))
    assert flow_distance(r_auto.flow, r_zero.flow, 0.0) <= 10 * r_auto.report.threshold


def test_exhausted_iterations_raise_with_report(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    with pytest.raises(FixedPointDivergenceError) as exc_info:
        picard_solve(p, PicardConfig(n_particles=4, tol=1e-30, max_iters=1,
                                     lambda_weight=0.0))
    rep = exc_info.value.report
    assert rep is not None
    assert rep.iterations == 1
    assert not rep.converged


def test_custom_initial_ensemble(small_grid, small_coeffs, small_tgrid, rng):
    u0 = build_u0(small_grid)
    states = u0.values[None] * (1.0 + 0.1 * rng.standard_normal((4, 1)))
    p = make_problem(small_grid, small_coeffs, small_tgrid, initial_states=states)
    result = picard_solve(p, PicardConfig(n_particles=4, lambda_weight=0.0))
    assert np.array_equal(result.flow.states[0], states)
    with pytest.raises(ValidationError):
        picard_solve(p, PicardConfig(n_particles=8, lambda_weight=0.0))


def test_problem_validation(small_grid, small_coeffs, small_tgrid):
    with pytest.raises(ValidationError):
        make_problem(small_grid, small_coeffs, small_tgrid, eps=1.0)
    with pytest.raises(ValidationError):
        make_problem(small_grid, small_coeffs, small_tgrid,
                     initial_states=np.zeros((4, 7)))
    other = build_grid(points=16)
    with pytest.raises(Exception):
        make_problem(other, small_coeffs, small_tgrid)
    with pytest.raises(ValidationError):
        PicardConfig(lambda_weight="fast")
    with pytest.raises(ValidationError):
        PicardConfig(lambda_weight=-1.0)
    with pytest.raises(ValidationError, match="lambda_weight"):
        PicardConfig(lambda_weight=float("inf"))


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
    lam, curve, _ = auto_lambda(p, probes, images=images)
    oracle_lam, oracle_curve = per_weight_auto_lambda(p, probes, images)
    assert float(lam).hex() == float(oracle_lam).hex()
    assert [tuple(x.hex() for x in row) for row in curve] == [
        tuple(x.hex() for x in row) for row in oracle_curve
    ]


def test_picard_distances_match_recomputed_flow_distances(small_grid, small_coeffs,
                                                          small_tgrid):
    """The distances reused from calibration, and those the loop computes,
    equal flow_distance between the successive iterates."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    result = picard_solve(p, PicardConfig(n_particles=6, tol=1e-8, lambda_weight="auto"))
    rep = result.report
    flows = [_initial_flow(p, 6)]
    for _ in range(rep.iterations):
        flows.append(apply_phi(p, flows[-1]))
    assert np.array_equal(flows[-1].states, result.flow.states)
    recomputed = tuple(
        flow_distance(prev, cur, rep.lambda_weight) for prev, cur in zip(flows, flows[1:])
    )
    assert [d.hex() for d in rep.distances] == [d.hex() for d in recomputed]


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


# -- the in-place loop ----------------------------------------------------


def reference_picard(p, cfg, lam, iterations):
    """The loop as two held flows: ``apply_phi`` and ``flow_distance`` between
    the latest iterate and its image; ``iterations`` steps from the initial flow."""
    flows = [_initial_flow(p, cfg.n_particles)]
    for _ in range(iterations):
        flows = [flows[-1], apply_phi(p, flows[-1])]
        yield flow_distance(flows[0], flows[1], lam), flows[1]


def in_place_cases():
    one, two = build_grid(points=32), build_grid(dim=2, points=8)
    for grid, steps in ((one, 40), (two, 20)):
        for weight in (0.0, 1.0, "auto"):
            yield pytest.param(grid, steps, weight, id=f"{grid.dim}d-{weight}")


@pytest.mark.parametrize("grid,steps,weight", in_place_cases())
def test_in_place_loop_equals_the_two_flow_loop(grid, steps, weight):
    """Distances, ratios and the final flow of the solve equal, bit for bit,
    those of the loop that holds each iterate and its image whole."""
    coeffs = build_coeffs(grid)
    u0 = build_u0(grid)
    rng = np.random.default_rng(7)
    states = u0.values[None] * (1.0 + 0.2 * rng.standard_normal((6,) + (1,) * grid.dim))
    p = make_problem(grid, coeffs, build_tgrid(steps=steps), u0=u0, initial_states=states)
    cfg = PicardConfig(n_particles=6, tol=1e-9, lambda_weight=weight)
    result = picard_solve(p, cfg)
    rep = result.report
    assert rep.iterations >= 3
    ref = list(reference_picard(p, cfg, rep.lambda_weight, rep.iterations))
    assert [d.hex() for d in rep.distances] == [d.hex() for d, _ in ref]
    tiny = 10.0 * np.finfo(float).eps * (1.0 + rep.initial_scale)
    ds = [d for d, _ in ref]
    ratios = [b / a for a, b in zip(ds, ds[1:]) if a > tiny]
    assert [r.hex() for r in rep.ratios] == [r.hex() for r in ratios]
    assert result.flow.states.tobytes() == ref[-1][1].states.tobytes()


@pytest.mark.parametrize("weight", [0.0, 1.0, "auto"])
def test_forced_regeneration_gives_the_same_bits(small_grid, small_coeffs, small_tgrid,
                                                 monkeypatch, weight):
    """With no node held back, every step's sup lies on an overwritten node,
    so the old iterate is rebuilt from its law table; the bits do not move."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    cfg = PicardConfig(n_particles=6, tol=1e-9, lambda_weight=weight)
    held = picard_solve(p, cfg)
    rebuilt = []
    real = mckean_vlasov._image_nodes

    def counted(problem, law, n, law_out=None):
        if law_out is None:
            rebuilt.append(1)
        return real(problem, law, n, law_out)

    monkeypatch.setattr(mckean_vlasov, "_image_nodes", counted)
    monkeypatch.setattr(measure, "_HELD_NODES", 0)
    forced = picard_solve(p, cfg)
    assert [d.hex() for d in forced.report.distances] == [d.hex() for d in held.report.distances]
    assert forced.flow.states.tobytes() == held.flow.states.tobytes()
    # every in-place step rebuilds once; the first loop step reads its intact start
    loop_steps = held.report.iterations - (2 if weight == "auto" else 0)
    assert loop_steps >= 2
    assert len(rebuilt) == loop_steps - 1


@pytest.mark.parametrize("weight", [1.0, "auto"])
def test_solve_draws_each_particles_noise_once(small_grid, small_coeffs, small_tgrid,
                                               monkeypatch, weight):
    """Every application of the freezing map in one solve, the auto start's
    three included, shares one noise stack."""
    p = make_problem(small_grid, small_coeffs, small_tgrid)
    drawn = []
    real = NoisePath.generate.__func__
    monkeypatch.setattr(NoisePath, "generate",
                        classmethod(lambda cls, *a, **k: drawn.append(1) or real(cls, *a, **k)))
    rep = picard_solve(p, PicardConfig(n_particles=5, lambda_weight=weight)).report
    assert rep.iterations >= 3
    assert len(drawn) == 5


def test_fixed_weight_solve_holds_one_flow():
    """Each iterate is written over the last, node by node, so a fixed-weight
    solve holds one flow and a few nodes (about 20 here: the held nodes and the
    step's buffers), where the two-flow loop held two flows."""
    g = build_grid(points=64)
    p = make_problem(g, build_coeffs(g), build_tgrid(steps=100))
    cfg = PicardConfig(n_particles=16, lambda_weight=1.0)
    picard_solve(p, cfg)  # fill the per-grid caches outside the measurement
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        res = picard_solve(p, cfg)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert res.report.iterations >= 3
    assert peak < 1.5 * res.flow.states.nbytes


# -- stability of the mean-field estimate ---------------------------------


def test_auto_weight_solve_holds_at_most_three_flows():
    """The constant probes are one-node views, so the auto start holds only
    its three images; the first later step holds the last of them and the
    buffer it writes, and every step after that one flow."""
    g = build_grid(points=64)
    p = make_problem(g, build_coeffs(g), build_tgrid(steps=50))
    cfg = PicardConfig(n_particles=16, lambda_weight="auto")
    picard_solve(p, cfg)  # fill the per-grid caches outside the measurement
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        res = picard_solve(p, cfg)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert res.report.auto_curve is not None
    assert peak < 4 * res.flow.states.nbytes


def test_particle_doubling_moves_the_law_estimate_little(small_grid, small_coeffs, small_tgrid):
    cfgs = [(8, None), (16, None)]
    moments = []
    for n, _ in cfgs:
        p = make_problem(small_grid, small_coeffs, small_tgrid)
        r = picard_solve(p, PicardConfig(n_particles=n, lambda_weight=0.0))
        moments.append(second_moment(r.flow.measure(small_tgrid.steps)))
    assert abs(moments[0] - moments[1]) / moments[1] < 0.05


def test_second_moment_stays_bounded_by_initial_scale(small_grid, small_coeffs, small_tgrid):
    """E sup_t ||u||^2 <= C (1 + ||u0||^2) with one C across scales; the
    dissipative drift keeps C at 1 for this family."""
    for amp in (0.5, 1.0, 2.0):
        u0 = build_u0(small_grid, amp=amp)
        p = make_problem(small_grid, small_coeffs, small_tgrid, u0=u0)
        r = picard_solve(p, PicardConfig(n_particles=8, lambda_weight=0.0))
        w = small_grid.cell_volume
        norms_sq = w * np.sum(r.flow.states**2, axis=tuple(range(2, 2 + small_grid.dim)))
        est = float(np.mean(np.max(norms_sq, axis=0)))
        assert est <= 1.0 * (1.0 + l2_norm(u0) ** 2)


# -- small-noise sweep -----------------------------------------------------


def test_small_noise_sweep_zero_row_and_slope(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [0.0, 3e-3, 1e-2], 4,
                              PicardConfig(n_particles=4, lambda_weight=0.0))
    eps0, est0, err0 = sweep.rows[0]
    assert eps0 == 0.0 and est0 == 0.0 and err0 == 0.0
    assert 0.8 <= sweep.slope <= 1.2
    assert all(est > 0.0 for _, est, _ in sweep.rows[1:])


def test_small_noise_sweep_rows_are_bitwise_unchanged(small_grid, small_coeffs, small_tgrid):
    """The per-node deviations give the bits recorded from one whole-flow deviation."""
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [0.0, 3e-3, 1e-2], 4,
                              PicardConfig(n_particles=4, lambda_weight=0.0))
    assert [tuple(v.hex() for v in row) for row in sweep.rows] == [
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.89374bc6a7efap-9", "0x1.29a70f2075cccp-11", "0x1.b2f464ede23e6p-13"),
        ("0x1.47ae147ae147bp-7", "0x1.f23b2a437c532p-10", "0x1.6ca04d1d615ccp-11"),
    ]
    assert sweep.slope.hex() == "0x1.00eaaff465ce3p+0"


def test_sweep_deviation_shrinks_with_epsilon(small_grid, small_coeffs, small_tgrid):
    p = make_problem(small_grid, small_coeffs, small_tgrid, eps=0.0)
    sweep = small_noise_sweep(p, [1e-3, 1e-2], 4,
                              PicardConfig(n_particles=4, lambda_weight=0.0))
    assert sweep.rows[0][1] < sweep.rows[1][1]
