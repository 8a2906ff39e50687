import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from helpers import build_coeffs, build_grid, build_u0

from fracmv import dynamics, rate_function
from fracmv.dynamics import (
    Control,
    TimeGrid,
    Trajectory,
    integrated_v_distance,
    solve_controlled,
    solve_deterministic,
)
from fracmv.errors import GridMismatchError, ValidationError
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


def test_cost_floor_at_the_free_path(instance):
    """Steering onto the uncontrolled path costs nothing."""
    g, coeffs, u0, tg, base = instance
    est = estimate_rate(RateProblem(target=base), u0, coeffs, tg, base=base)
    assert est.value <= 1e-6
    assert est.converged
    assert float(np.max(np.abs(est.v_star.values))) <= 1e-4


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
    assert est.n_evaluations > 0


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


@pytest.mark.parametrize("case", ["1d-p4", "1d-p2", "2d-p4", "2d-p2"])
@pytest.mark.parametrize("kind", ["trajectory", "terminal"])
def test_adjoint_gradient_matches_finite_differences(kind, case, monkeypatch):
    """The value is the single-solve objective bit for bit; the gradient is
    the exact derivative of the discrete scheme."""
    dim, p = int(case[0]), int(case[-1])
    shape = (1, 32, 3, 7) if dim == 1 else (2, 8, 4, 6)
    g, coeffs, u0, tg, base, targets = make_instance(*shape, p)
    target, eta = targets[kind], 1e-3
    x = 0.5 * np.random.default_rng(3).standard_normal(tg.steps * coeffs.sigma.n_modes)
    seen = {}

    def probe(fun, x0, method, jac, options):
        assert jac is True
        seen["f"], seen["g"] = fun(x)
        return SimpleNamespace(x=x0)

    monkeypatch.setattr(rate_function, "minimize", probe)
    est = estimate_rate(RateProblem(target, eta_ladder=(eta,)), u0, coeffs, tg, base=base)
    args = (x, eta, target, u0, coeffs, tg, base)
    assert seen["f"] == single_solve_objective(*args)
    assert rel_err(seen["g"], forward_difference_gradient(*args)) <= 1e-5
    assert rel_err(seen["g"], central_difference_gradient(*args)) <= 1e-6
    assert est.n_evaluations == 1


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
