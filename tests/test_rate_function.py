import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from helpers import build_coeffs, build_grid, build_u0

from fracmv import dynamics, rate_function
from fracmv.config import RunConfig
from fracmv.dynamics import (
    Control,
    TimeGrid,
    Trajectory,
    integrated_v_distance,
    solve_controlled,
    solve_deterministic,
)
from fracmv.errors import GridMismatchError, ValidationError
from fracmv.coefficients import law_statistics
from fracmv.grid import GridFunction, l2_norm, sq_norms
from fracmv.rate_function import (
    RateProblem,
    control_cost,
    estimate_rate,
    weak_convergence_experiment,
)


@pytest.fixture(scope="module")
def instance():
    """One small controllable instance shared by the expensive tests."""
    g = build_grid(half_width=4.0, points=32)
    coeffs = build_coeffs(g, n_modes=2)
    u0 = build_u0(g)
    tg = TimeGrid(horizon=0.3, steps=30)
    base = solve_deterministic(u0, coeffs, tg)
    return g, coeffs, u0, tg, base


@pytest.fixture(scope="module")
def manufactured(instance):
    """A known control, its trajectory, and the recovered estimate."""
    g, coeffs, u0, tg, base = instance
    t_left = tg.nodes[:-1]
    vbar = Control(
        np.column_stack(
            [
                0.6 * np.sin(2.0 * np.pi * t_left / tg.horizon),
                0.4 * np.cos(np.pi * t_left / tg.horizon),
            ]
        ),
        tg.dt,
    )
    target = solve_controlled(u0, vbar, base, coeffs, tg)
    problem = RateProblem(target=target, eta_ladder=(1e-2, 1e-3, 1e-4, 1e-5),
                          max_stage_iters=80)
    est = estimate_rate(problem, u0, coeffs, tg, base=base)
    return vbar, target, est


# -- the cost functional ---------------------------------------------------


def test_control_cost_closed_form_and_brute(rng):
    tg = TimeGrid(horizon=0.5, steps=20)
    c = 0.7
    v_const = Control(np.full((tg.steps, 3), c), tg.dt)
    assert control_cost(v_const) == pytest.approx(0.5 * tg.horizon * 3 * c**2, rel=1e-14)

    v = Control(rng.standard_normal((tg.steps, 3)), tg.dt)
    brute = 0.0
    for s in range(tg.steps):
        for k in range(3):
            brute += 0.5 * tg.dt * v.values[s, k] ** 2
    assert control_cost(v) == pytest.approx(brute, rel=1e-12)
    # quadratic scaling
    assert control_cost(v.scaled(2.0)) == pytest.approx(4.0 * control_cost(v), rel=1e-14)
    assert control_cost(v.scaled(0.0)) == 0.0


# -- floor and recovery ------------------------------------------------------


def test_cost_floor_at_the_free_path(instance, monkeypatch):
    """Steering onto the uncontrolled path costs nothing; the last rung starts at
    a stationary point, so it stops on its gradient test without a matrix."""
    g, coeffs, u0, tg, base = instance

    def refuse(*args):
        raise AssertionError("Gauss-Newton matrix built at a stationary start")

    monkeypatch.setattr(rate_function._Penalized, "normal", refuse)
    est = estimate_rate(RateProblem(target=base), u0, coeffs, tg, base=base)
    assert est.value <= 1e-6
    assert est.converged
    assert float(np.max(np.abs(est.v_star.values))) <= 1e-4
    assert est.stages[-1][3:] == ("Gauss-Newton", 0, 1, "gradient", 0.0)


def test_manufactured_control_is_recovered(manufactured):
    vbar, target, est = manufactured
    ref = control_cost(vbar)
    assert est.converged
    assert est.gap_rel <= 1e-3
    assert est.value <= 1.05 * ref
    # feasibility of vbar also bounds the optimum from above in exact
    # arithmetic; allow the optimizer a generous floor for rounding
    assert est.value >= 0.0


def test_stage_ladder_accounting(manufactured):
    vbar, target, est = manufactured
    etas = [s[0] for s in est.stages]
    assert etas == [1e-2, 1e-3, 1e-4, 1e-5]
    values = [s[1] for s in est.stages]
    gaps = [s[2] for s in est.stages]
    assert all(v >= 0.0 for v in values) and all(g >= 0.0 for g in gaps)
    # tightening the penalty buys attainment
    assert gaps[-1] < gaps[0]
    # the reported value is exactly the cost of the final stage control
    assert est.value == pytest.approx(values[-1], rel=1e-12)
    assert est.n_evaluations == sum(st.evaluations for st in est.stages) > 0
    # every rung but the last runs L-BFGS-B; the last ends on its gradient test
    assert [st.method for st in est.stages] == ["L-BFGS-B"] * 3 + ["Gauss-Newton"]
    last = est.stages[-1]
    assert last.stop == "gradient" and last.grad_max <= rate_function._GN_GTOL
    assert all(1 <= st.iterations < st.evaluations for st in est.stages)
    assert all(st.grad_max > 0.0 and st.stop for st in est.stages[:-1])


def test_last_rung_stops_at_its_iteration_cap(instance, manufactured):
    """``max_stage_iters`` caps the Gauss-Newton steps too, and the row says so."""
    g, coeffs, u0, tg, base = instance
    vbar, target, _ = manufactured
    problem = RateProblem(target=target, eta_ladder=(1e-6,), max_stage_iters=1)
    (stage,) = estimate_rate(problem, u0, coeffs, tg, base=base).stages
    assert stage[3:7] == ("Gauss-Newton", 1, 2, "iteration limit")
    assert stage.grad_max > rate_function._GN_GTOL


def rate_instance(steps):
    """Verify criterion 9's instance at ``steps`` steps (20: the benchmark's rate
    inputs): the canonical config on 64 cells with 2 modes, and its control."""
    cfg = RunConfig().with_overrides(
        grid={"points_per_dim": 64}, noise={"n_modes": 2}, time={"steps": steps}
    )
    t_left = cfg.tgrid.nodes[:-1]
    waves = [0.6 * np.sin(2 * np.pi * t_left / cfg.tgrid.horizon),
             0.4 * np.cos(np.pi * t_left / cfg.tgrid.horizon)]
    return cfg, Control(np.stack(waves, axis=1), cfg.tgrid.dt)


def manufactured_value(cfg, vbar, u0):
    base = solve_deterministic(u0, cfg.coeffs, cfg.tgrid)
    target = solve_controlled(u0, vbar, base, cfg.coeffs, cfg.tgrid)
    return estimate_rate(cfg.rate_problem(target), u0, cfg.coeffs, cfg.tgrid, base=base).value


@pytest.mark.parametrize("steps", [20, 50])
def test_one_ulp_of_u0_moves_the_value_by_rounding_only(steps):
    """The value is the last rung's minimum, not where an optimizer's path ended:
    a one-ulp bump of u0's largest cell moves it by at most 1e-9 relative."""
    cfg, vbar = rate_instance(steps)
    bumped = cfg.u0.values.copy()
    cell = np.unravel_index(np.argmax(np.abs(bumped)), bumped.shape)
    bumped[cell] = np.nextafter(bumped[cell], np.inf)
    value = manufactured_value(cfg, vbar, cfg.u0)
    moved = manufactured_value(cfg, vbar, GridFunction(cfg.grid, bumped))
    assert abs(moved / value - 1.0) <= 1e-9


def test_stage_gaps_reuse_the_one_solve_map(instance, monkeypatch):
    """Each stage's gap comes from the map built at the start, so the run
    is checked and its node fields built once per ``estimate_rate``."""
    g, coeffs, u0, tg, base = instance
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    real = dynamics._controlled_solver
    monkeypatch.setattr(dynamics, "_controlled_solver", counted)
    monkeypatch.setattr(rate_function, "_controlled_solver", counted)
    est = estimate_rate(RateProblem(target=base, eta_ladder=(1e-2, 1e-4)), u0, coeffs, tg, base=base)
    assert len(calls) == 1 and len(est.stages) == 2


def test_unreachable_target_reports_non_attainment(instance):
    """Weak noise cannot bridge an O(1) terminal offset: the estimator
    must say so rather than return a pretend-finite certificate."""
    g, coeffs, u0, tg, _ = instance
    sig = coeffs.sigma
    from fracmv.coefficients import CoefficientSet, NoiseSigma

    feeble = NoiseSigma(
        shapes=tuple(GridFunction(g, 1e-4 * s.values) for s in sig.shapes),
        kappa=GridFunction(g, np.zeros(g.shape)),
        beta=np.zeros(sig.n_modes),
        gamma=np.zeros(sig.n_modes),
        profile=sig.profile,
    )
    weak_coeffs = CoefficientSet(f=coeffs.f, g=coeffs.g, sigma=feeble, alpha=coeffs.alpha)
    base = solve_deterministic(u0, weak_coeffs, tg)
    far = GridFunction(g, u0.values + 3.0)
    problem = RateProblem(target=far, eta_ladder=(1e-2, 1e-3), max_stage_iters=40)
    est = estimate_rate(problem, u0, weak_coeffs, tg, base=base)
    assert not est.converged
    assert math.isfinite(est.value)
    assert est.gap_rel > 1e-3
    # the penalty of an O(1) gap dwarfs what is left to gain: J_eta's rounding
    # hides the last step's decrease before the gradient test can pass
    assert est.stages[-1].stop == "no decrease"


def test_target_validation(instance):
    g, coeffs, u0, tg, base = instance
    other = build_grid(points=16)
    with pytest.raises(GridMismatchError):
        estimate_rate(RateProblem(target=build_u0(other)), u0, coeffs, tg, base=base)
    short = solve_deterministic(u0, coeffs, TimeGrid(horizon=0.15, steps=15))
    with pytest.raises(GridMismatchError):
        estimate_rate(RateProblem(target=short), u0, coeffs, tg, base=base)
    with pytest.raises(ValidationError):
        RateProblem(target=base, eta_ladder=())
    with pytest.raises(ValidationError):
        RateProblem(target=base, gap_tol=0.0)
    with pytest.raises(ValidationError, match="eta_ladder"):
        RateProblem(target=base, eta_ladder=(1e-2, float("inf")))


# -- adjoint gradient against finite differences ----------------------------


def make_instance(dim, points, n_modes, steps, p=4):
    """A small instance with a control-reachable trajectory and terminal target."""
    g = build_grid(dim=dim, half_width=4.0, points=points)
    coeffs = build_coeffs(g, n_modes=n_modes)
    if p != coeffs.f.p:
        coeffs = replace(coeffs, f=replace(coeffs.f, p=p))
    u0 = build_u0(g)
    tg = TimeGrid(horizon=0.1, steps=steps)
    base = solve_deterministic(u0, coeffs, tg)
    t_left = tg.nodes[:-1]
    waves = [np.sin(7 * t_left), np.cos(5 * t_left), t_left, np.sin(3 * t_left + 1.0)]
    vbar = Control(np.column_stack(waves[:n_modes]), tg.dt)
    path = solve_controlled(u0, vbar, base, coeffs, tg)
    terminal = GridFunction(g, path.values[-1])
    return g, coeffs, u0, tg, base, {"trajectory": path, "terminal": terminal}


@pytest.fixture(scope="module")
def odd_instance():
    """S*K = 21 control coefficients on a 1-d grid."""
    return make_instance(1, 32, 3, 7)


def penalized(x, path, eta, target, dt):
    """The objective of one control row, from its path."""
    if isinstance(target, Trajectory):
        sq = sq_norms(path - target.values, target.grid)
        gap = math.sqrt(dt * float(np.sum(sq[:-1])) + float(sq[-1]))
    else:
        gap = l2_norm(GridFunction(target.grid, path[-1] - target.values))
    return 0.5 * dt * float(np.dot(x, x)) + gap**2 / (2.0 * eta)


def single_solve_objective(x, eta, target, u0, coeffs, tg, base):
    S, K, dt = tg.steps, coeffs.sigma.n_modes, tg.dt
    traj = solve_controlled(u0, Control(x.reshape(S, K), dt), base, coeffs, tg)
    return penalized(x, traj.values, eta, target, dt)


def forward_difference_gradient(x, eta, target, u0, coeffs, tg, base):
    """The slow path: the base point and its S*K forward differences, step
    ``sqrt(eps) (1 + |x|)``, solved as the rows of one batch."""
    S, K, dt = tg.steps, coeffs.sigma.n_modes, tg.dt
    n = S * K
    steps = math.sqrt(np.finfo(float).eps) * (1.0 + np.abs(x))
    xs = np.repeat(x[None], n + 1, axis=0)
    xs[np.arange(1, n + 1), np.arange(n)] += steps
    paths = dynamics._controlled_solver(u0, base, coeffs, tg)[0](xs.reshape(-1, S, K))
    f = np.array([penalized(row, path, eta, target, dt) for row, path in zip(xs, paths)])
    return (f[1:] - f[0]) / steps


def central_difference_gradient(x, eta, target, u0, coeffs, tg, base, h=1e-6):
    fun = lambda y: single_solve_objective(y, eta, target, u0, coeffs, tg, base)  # noqa: E731
    return np.array([(fun(x + h * e) - fun(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


CASES = {"1d-p4": (1, 4), "1d-p2": (1, 2), "2d-p4": (2, 4), "2d-p2": (2, 2)}


def case_instance(case):
    dim, p = CASES[case]
    return make_instance(*((1, 32, 3, 7) if dim == 1 else (2, 8, 4, 6)), p)


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("kind", ["trajectory", "terminal"])
def test_adjoint_gradient_matches_finite_differences(kind, case):
    """The objective every rung's solver reads: the value is the single-solve
    objective bit for bit, the path is that solve's, and the gradient is the
    exact derivative of the discrete scheme."""
    g, coeffs, u0, tg, base, targets = case_instance(case)
    target, eta = targets[kind], 1e-3
    x = 0.5 * np.random.default_rng(3).standard_normal(tg.steps * coeffs.sigma.n_modes)
    f, grad, path = rate_function._Penalized(u0, target, coeffs, tg, base)(x, eta)
    args = (x, eta, target, u0, coeffs, tg, base)
    assert f == single_solve_objective(*args)
    v = Control(x.reshape(tg.steps, -1), tg.dt)
    assert path.tobytes() == solve_controlled(u0, v, base, coeffs, tg).values.tobytes()
    assert rel_err(grad, forward_difference_gradient(*args)) <= 1e-5
    assert rel_err(grad, central_difference_gradient(*args)) <= 1e-6


# -- the Gauss-Newton matrix against the tangent-linear scheme ---------------


def reference_tangent(coeffs, tg, base, path, v, dv):
    """``J dv``, shape ``(S+1, *grid)``: the scheme linearized along ``path`` in the
    control direction ``dv``, one direction and one node at a time, every
    coefficient written out from its formula at the law frozen along ``base``."""
    f, g, sig = coeffs.f, coeffs.g, coeffs.sigma
    grid, dt = base.grid, tg.dt
    res_mult = grid.resolvent_multiplier(coeffs.alpha, dt)
    stats = law_statistics(base.values[:-1, None], grid, f.h_cap)
    du = np.zeros_like(path)
    for s in range(tg.steps):
        t, u = float(tg.nodes[s]), path[s]
        hbar_f, _, root_m2 = stats[s]
        f_vals = f.lambda_f * u ** (f.p - 1) + f.phi.values(t, grid) * hbar_f
        tamed = f.lambda_f * (f.p - 1) * u ** (f.p - 2) / (1.0 + dt * np.abs(f_vals)) ** 2
        dg = g.psi.values(t, grid) * g.c1 * (1.0 - np.tanh(u) ** 2)
        dsig = sig.kappa.values * float(dt * v[s] @ sig.gamma)
        tilde = (1.0 + dt * (dg - tamed) + dsig) * du[s]
        tilde += dt * np.tensordot(dv[s], sig.fields(t, u, root_m2), axes=1)
        du[s + 1] = grid.apply_multiplier(tilde, res_mult)
    return du


@pytest.fixture(scope="module", params=[(c, k) for c in CASES for k in ("trajectory", "terminal")],
                ids=lambda ck: f"{ck[1]}-{ck[0]}")
def linearized(request):
    """An instance, a control point, its path, the objective and ``J`` column by
    column from single-direction reference sweeps, shape ``(S K, S+1, *grid)``."""
    case, kind = request.param
    g, coeffs, u0, tg, base, targets = case_instance(case)
    S, K = tg.steps, coeffs.sigma.n_modes
    v = 0.5 * np.random.default_rng(5).standard_normal((S, K))
    obj = rate_function._Penalized(u0, targets[kind], coeffs, tg, base)
    path = obj.solve(v[None])[0]
    units = np.eye(S * K).reshape(S * K, S, K)
    cols = np.stack([reference_tangent(coeffs, tg, base, path, v, e) for e in units])
    return SimpleNamespace(coeffs=coeffs, u0=u0, tg=tg, base=base, kind=kind, v=v, obj=obj,
                           path=path, cols=cols)


def test_tangent_sweep_is_the_adjoint_of_the_pullback(linearized):
    """The dot-product test: ``<J dv, j> = <dv, J^T j>`` to rounding, with ``J^T``
    the pullback and ``j`` any derivative at the nodes."""
    lin = linearized
    rng = np.random.default_rng(11)
    dv = rng.standard_normal(lin.v.size)
    j_u = rng.standard_normal(lin.path.shape)
    tangent = np.tensordot(dv, lin.cols, axes=1)
    lhs = float(np.sum(tangent * j_u))
    rhs = float(np.dot(dv, lin.obj.pullback(lin.v, lin.path, j_u)))
    assert abs(lhs - rhs) <= 1e-13 * np.sqrt(np.sum(tangent**2) * np.sum(j_u**2))


def test_tangent_sweep_matches_central_differences_of_the_path(linearized):
    lin = linearized
    h, S, K = 1e-6, *lin.v.shape
    steps = h * np.eye(S * K).reshape(S * K, S, K)
    fd = (lin.obj.solve(lin.v + steps) - lin.obj.solve(lin.v - steps)) / (2.0 * h)
    assert rel_err(lin.cols, fd) <= 1e-6


def test_streamed_normal_matrix_is_the_dense_gram_of_the_tangents(linearized):
    """The causal, streamed ``J^T W J`` equals the one assembled from the dense
    ``J``, with the path norm's node weights: ``dt`` inside and 1 at the end for a
    trajectory target, the end alone for a field."""
    lin = linearized
    S, dt, grid = lin.tg.steps, lin.tg.dt, lin.u0.grid
    node_w = np.append(np.full(S, dt if lin.kind == "trajectory" else 0.0), 1.0)
    flat = lin.cols.reshape(S * lin.v.shape[1], S + 1, -1)
    dense = grid.cell_volume * np.einsum("s,isx,jsx->ij", node_w, flat, flat)
    got = lin.obj.normal(lin.v.ravel(), lin.path)
    assert got.shape == dense.shape
    assert rel_err(got, dense) <= 1e-13
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("kind", ["trajectory", "terminal"])
def test_fused_objective_walks_the_same_path_as_separate_callables(
    odd_instance, kind, monkeypatch
):
    """L-BFGS-B fed the value and the gradient by two callables, the way
    scipy calls them when ``jac`` is a function, takes the same iterates."""
    g, coeffs, u0, tg, base, targets = odd_instance
    problem = RateProblem(targets[kind], eta_ladder=(1e-2, 1e-3), max_stage_iters=8)
    fused = estimate_rate(problem, u0, coeffs, tg, base=base)

    def separate(vg, x0, method, jac, options):
        assert jac is True
        return minimize(
            lambda x: vg(x)[0], x0, method=method, jac=lambda x: vg(x)[1], options=options
        )

    monkeypatch.setattr(rate_function, "minimize", separate)
    split = estimate_rate(problem, u0, coeffs, tg, base=base)
    assert split.v_star.values.tobytes() == fused.v_star.values.tobytes()
    assert split.stages == fused.stages
    assert (split.value, split.gap) == (fused.value, fused.gap)


# -- weak-convergence experiment --------------------------------------------


def test_oscillatory_perturbations_fade(instance):
    """Responses collapse onto u_v as the frequency grows while the
    control offsets hold at the exact whole-period value A sqrt(T/2)."""
    g, coeffs, u0, _, _ = instance
    T = 2.0 * math.pi
    tg = TimeGrid(horizon=T, steps=128)
    t_left = tg.nodes[:-1]
    v = Control(
        np.column_stack([0.3 * np.ones_like(t_left), 0.1 * np.sin(t_left / 2.0)]),
        tg.dt,
    )
    A = 0.5
    table = weak_convergence_experiment(v, 0, A, [1, 2, 4, 8], u0, coeffs, tg)
    sups = [row[1] for row in table.rows]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    exact_offset = A * math.sqrt(T / 2.0)
    for row in table.rows:
        assert row[4] == pytest.approx(exact_offset, rel=1e-12)


def test_zero_amplitude_gives_identical_paths(instance):
    g, coeffs, u0, tg, base = instance
    v = Control(np.zeros((tg.steps, coeffs.sigma.n_modes)), tg.dt)
    table = weak_convergence_experiment(v, 1, 0.0, [1, 3], u0, coeffs, tg, base=base)
    for row in table.rows:
        assert row[1] == 0.0  # sup distance
        assert row[4] == 0.0  # control offset


def test_weak_experiment_validation(instance):
    g, coeffs, u0, tg, base = instance
    v = Control(np.zeros((tg.steps, coeffs.sigma.n_modes)), tg.dt)
    with pytest.raises(ValidationError):
        weak_convergence_experiment(v, 5, 0.5, [1], u0, coeffs, tg)
    bad_v = Control(np.zeros((tg.steps + 1, coeffs.sigma.n_modes)), tg.dt)
    with pytest.raises(ValidationError):
        weak_convergence_experiment(bad_v, 0, 0.5, [1], u0, coeffs, tg)


def test_weak_experiment_batch_matches_single_solves(instance):
    g, coeffs, u0, tg, base = instance
    t_left = tg.nodes[:-1]
    v = Control(np.column_stack([0.3 * np.ones_like(t_left), 0.1 * np.sin(t_left)]), tg.dt)
    freqs, A = [1, 2, 4, 8], 0.5
    table = weak_convergence_experiment(v, 0, A, freqs, u0, coeffs, tg, base=base)
    u_ref = solve_controlled(u0, v, base, coeffs, tg)
    for row, i in zip(table.rows, freqs):
        vals = v.values.copy()
        vals[:, 0] += A * np.sin(i * t_left)
        ui = solve_controlled(u0, Control(vals, tg.dt), base, coeffs, tg)
        sup_h = math.sqrt(float(np.max(sq_norms(ui.values - u_ref.values, g))))
        assert row[1] == sup_h
        assert row[2] == integrated_v_distance(ui, u_ref, coeffs.alpha, coeffs.c_v)


# -- level sets --------------------------------------------------------------


def test_level_sets_separate_cheap_and_dear(instance, manufactured):
    """The free path and the manufactured target both lie in the level set
    ``{I <= 2 I_ref}``; the target lies outside ``{I <= I_ref / 4}``."""
    g, coeffs, u0, tg, base = instance
    vbar, target, est = manufactured
    settings = dict(eta_ladder=(1e-2, 1e-3, 1e-4, 1e-5), max_stage_iters=80)
    free = estimate_rate(RateProblem(base, **settings), u0, coeffs, tg, base=base)
    dear = estimate_rate(RateProblem(target, **settings), u0, coeffs, tg, base=base)
    assert free.converged and dear.converged
    assert free.value <= 2.0 * est.value and dear.value <= 2.0 * est.value
    assert dear.value > 0.25 * est.value
