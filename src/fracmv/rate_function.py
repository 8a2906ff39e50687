"""Action functional over controls and its variational estimation.

The cost of steering the controlled deterministic dynamics to a target
is half the squared L2 norm of the control; the minimal cost over all
controls attaining the target is estimated by penalized minimisation:

    J_eta(v) = control_cost(v) + dist(u_v, target)^2 / (2 eta)

driven down an eta-ladder with warm starts, so the soft constraint
tightens gradually.  Each evaluation gives the objective and its gradient
together: one controlled solve gives the value, bit-identical to that
solve alone, and the discrete adjoint of the scheme, one backward sweep
along the stored path, gives the exact gradient over the control
coefficients.  L-BFGS-B runs every rung but the last.  The last, whose
minimizer is the estimate, runs damped Gauss-Newton to a gradient test:
the penalty is a least-squares term, and the tangent sweep of the scheme
gives its exact Gauss-Newton matrix, so the estimate is the rung's
minimum to rounding, not where an iteration budget ran out.
``n_evaluations`` counts the controlled paths solved, one per optimizer
evaluation.

A target that the optimizer cannot attain within budget is reported
with its best finite value and ``converged = False`` plus the residual
gap; no infinities are ever serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .coefficients import CoefficientSet
from .dynamics import (
    Control,
    TimeGrid,
    Trajectory,
    _controlled_solver,
    integrated_v_distance,
    solve_controlled,  # unused here, but perfbench/spans.py traces this name
    solve_deterministic,
    sup_distance,
)
from .errors import ValidationError
from .grid import GridFunction, SpatialGrid, _check_nodes, sq_norms

__all__ = [
    "RateProblem",
    "RateEstimate",
    "RateStage",
    "check_target",
    "control_cost",
    "estimate_rate",
    "WeakConvergenceTable",
    "weak_convergence_experiment",
]


_GN_GTOL = 1e-9  # the last rung's gradient test: max |grad J_eta| at its minimizer
_ARMIJO = 1e-4  # the fraction of the promised decrease a Gauss-Newton step must deliver
_EPS = float(np.finfo(float).eps)


def control_cost(v: Control) -> float:
    """Half the squared L2(0,T) norm of the control, exact for the
    piecewise-constant class."""
    return 0.5 * v.l2_norm_sq()


@dataclass(frozen=True)
class RateProblem:
    """Variational problem: cheapest control steering onto ``target``.

    ``target`` is either a full trajectory (matched in integrated plus
    terminal distance) or a single field (matched at the final time
    only).  The penalty ladder runs from loose to tight; each rung is
    warm-started from the previous minimizer.  ``target = None`` holds
    validated settings only, for ``dataclasses.replace`` to complete.
    """

    target: Trajectory | GridFunction | None
    eta_ladder: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    max_stage_iters: int = 100
    gap_tol: float = 1e-3

    def __post_init__(self):
        ladder = tuple(float(e) for e in self.eta_ladder)
        if len(ladder) < 1 or not all(0.0 < e < math.inf for e in ladder):
            raise ValidationError(
                "eta_ladder must be a non-empty sequence of finite positive numbers, "
                f"got {self.eta_ladder!r}"
            )
        object.__setattr__(self, "eta_ladder", ladder)
        if not (isinstance(self.max_stage_iters, (int, np.integer)) and self.max_stage_iters >= 1):
            raise ValidationError(
                f"max_stage_iters must be an integer >= 1, got {self.max_stage_iters!r}"
            )
        if not (0.0 < float(self.gap_tol) < math.inf):
            raise ValidationError(f"gap_tol must be finite and positive, got {self.gap_tol!r}")


class RateStage(NamedTuple):
    """One penalty rung: its ``eta``, the cost and the gap of its minimizer, and how
    its solver ran.  ``method`` is ``L-BFGS-B`` or ``Gauss-Newton``; ``stop`` is
    scipy's message, or ``gradient``, ``no decrease`` or ``iteration limit``;
    ``grad_max`` is ``max |grad J_eta|`` at the minimizer."""

    eta: float
    value: float
    gap: float
    method: str
    iterations: int
    evaluations: int
    stop: str
    grad_max: float


@dataclass(frozen=True)
class RateEstimate:
    """Best value found, its control, and how close the target came.

    ``value == control_cost(v_star)`` exactly.  ``converged`` means the
    relative attainment gap fell below the problem's tolerance; a large
    gap with ``converged = False`` is the finite stand-in for an
    unreachable target.  ``n_evaluations`` is the number of controlled
    paths solved inside the optimizers, one per evaluation of the objective
    and its adjoint gradient; the per-stage gaps are not counted.
    """

    value: float
    v_star: Control
    gap: float
    gap_rel: float
    converged: bool
    n_evaluations: int
    stages: tuple[RateStage, ...]


def _path_norm(values: np.ndarray, grid: SpatialGrid, dt: float) -> float:
    """Left-sum integrated plus terminal L2 norm of a path of fields; ``dt = 0``
    weighs the terminal node alone."""
    sq = sq_norms(values, grid)
    return math.sqrt(dt * float(np.sum(sq[:-1])) + float(sq[-1]))


def check_target(target, grid: SpatialGrid, tgrid: TimeGrid):
    """Refuse a target unless it is a path on ``grid`` sampled at ``tgrid``'s
    nodes or a field on ``grid``; return it."""
    if isinstance(target, Trajectory):
        _check_nodes("target trajectory", target, grid, tgrid.nodes)
    elif isinstance(target, GridFunction):
        _check_nodes("target field", target, grid)
    else:
        raise ValidationError(
            f"target must be a Trajectory or a GridFunction, got {type(target).__name__}"
        )
    return target


class _Penalized:
    """``J_eta(x) = dt |x|^2 / 2 + gap(x)^2 / (2 eta)`` for the flat control ``x`` steering
    ``u0`` towards ``target``, and the parts of it that the rung solvers read.

    A field target is a path of one node, matched at the final time only: the path norm
    with interior weight 0."""

    def __init__(self, u0: GridFunction, target, coeffs: CoefficientSet, tgrid: TimeGrid,
                 base: Trajectory):
        self.grid, self.dt, self.shape = u0.grid, tgrid.dt, (tgrid.steps, coeffs.sigma.n_modes)
        self.solve, self.pullback, self.gram = _controlled_solver(u0, base, coeffs, tgrid)
        self.goal = target.values.reshape((-1,) + u0.grid.shape)
        self.interior = tgrid.dt if isinstance(target, Trajectory) else 0.0
        # half the derivative of gap^2 at each node: the weights of the path norm
        node_w = np.append(np.full(tgrid.steps, self.interior), 1.0)
        self.node_w = u0.grid.cell_volume * node_w.reshape((-1,) + (1,) * u0.grid.dim)

    def __call__(self, x: np.ndarray, eta: float) -> tuple[float, np.ndarray, np.ndarray]:
        """``J_eta(x)``, its exact gradient and the path of ``x``: one forward solve, then
        the adjoint sweep back along its path."""
        v = x.reshape(self.shape)
        path = self.solve(v[None])[0]
        diff = path - self.goal
        f = 0.5 * self.dt * float(np.dot(x, x)) + self.gap(diff) ** 2 / (2.0 * eta)
        return f, self.pullback(v, path, self.node_w / eta * diff) + self.dt * x, path

    def gap(self, diff: np.ndarray) -> float:
        """The path norm of ``diff``, a path less the goal, or of the goal itself."""
        return _path_norm(diff, self.grid, self.interior)

    def normal(self, x: np.ndarray, path: np.ndarray) -> np.ndarray:
        """``J^T W J`` at ``x``, whose path is ``path``: the Gauss-Newton matrix of ``gap^2 / 2``."""
        return self.gram(x.reshape(self.shape), path, self.node_w)


def _gauss_newton(evaluate, normal, x: np.ndarray, dt: float, eta: float, max_iters: int):
    """Minimize ``J_eta`` from ``x`` by damped Gauss-Newton: solve
    ``(dt I + J^T W J / eta) d = -grad J_eta``, then halve the step until ``J_eta`` falls
    by an Armijo fraction of the decrease its slope promises.

    ``evaluate(x)`` gives ``J_eta``, its gradient and the path of ``x``; ``normal(x, path)``
    gives ``J^T W J``.  The first test that holds stops it: ``gradient``, when
    ``max |grad J_eta| <= _GN_GTOL`` (a start that passes builds no matrix); ``no
    decrease``, when the decrease the step promises is below ``J_eta``'s rounding; and
    ``iteration limit`` after ``max_iters`` steps.  A trial point that passes the gradient
    test is taken even if rounding hides its decrease: near the minimum the adjoint
    gradient resolves far smaller changes than ``J_eta``'s value.  Returns ``(x,
    gradient, path, iterations, evaluations, stop)``."""
    f, grad, path = evaluate(x)
    evals, iters = 1, 0
    while True:
        if np.max(np.abs(grad)) <= _GN_GTOL:
            return x, grad, path, iters, evals, "gradient"
        if iters == max_iters:
            return x, grad, path, iters, evals, "iteration limit"
        lhs = normal(x, path) / eta
        lhs[np.diag_indices_from(lhs)] += dt
        step = np.linalg.solve(lhs, -grad)
        slope, t = float(np.dot(grad, step)), 1.0
        while -t * slope > _EPS * abs(f):
            trial = x + t * step
            f_t, g_t, p_t = evaluate(trial)
            evals += 1
            if f_t <= f + _ARMIJO * t * slope or np.max(np.abs(g_t)) <= _GN_GTOL:
                break
            t *= 0.5
        else:
            return x, grad, path, iters, evals, "no decrease"
        x, f, grad, path = trial, f_t, g_t, p_t
        iters += 1


def estimate_rate(
    problem: RateProblem,
    u0: GridFunction,
    coeffs: CoefficientSet,
    tgrid: TimeGrid,
    base: Trajectory | None = None,
) -> RateEstimate:
    """Minimize the penalized steering objective over controls.

    ``base`` is the zero-noise solution from ``u0`` (computed when not
    supplied); the controlled dynamics freeze their measure argument
    along it.  The returned value is the exact cost of the best control
    found, never the penalized objective.
    """
    target = check_target(problem.target, u0.grid, tgrid)
    if base is None:
        base = solve_deterministic(u0, coeffs, tgrid)
    obj = _Penalized(u0, target, coeffs, tgrid, base)
    stages = []

    def finish(eta, x, grad, path, method, iterations, evaluations, stop):
        cost, gap = 0.5 * tgrid.dt * float(np.dot(x, x)), obj.gap(path - obj.goal)
        stages.append(RateStage(eta, cost, gap, method, int(iterations), int(evaluations),
                                str(stop), float(np.max(np.abs(grad)))))

    x = np.zeros(tgrid.steps * coeffs.sigma.n_modes)
    *rungs, last = problem.eta_ladder
    for eta in rungs:
        res = minimize(
            lambda y, eta=eta: obj(y, eta)[:2],
            x,
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": problem.max_stage_iters},
        )
        x = res.x
        path = obj.solve(x.reshape((1,) + obj.shape))[0]
        finish(eta, x, res.jac, path, "L-BFGS-B", res.nit, res.nfev, res.message)
    x, grad, path, *run = _gauss_newton(
        lambda y: obj(y, last), obj.normal, x, tgrid.dt, last, problem.max_stage_iters
    )
    finish(last, x, grad, path, "Gauss-Newton", *run)

    v_star = Control(x.reshape(obj.shape), tgrid.dt)
    gap = stages[-1].gap
    gap_rel = gap / (1.0 + obj.gap(obj.goal))
    return RateEstimate(
        value=control_cost(v_star),
        v_star=v_star,
        gap=gap,
        gap_rel=gap_rel,
        converged=bool(gap_rel <= problem.gap_tol),
        n_evaluations=sum(st.evaluations for st in stages),
        stages=tuple(stages),
    )


# -- weak-convergence experiment -----------------------------------------


@dataclass(frozen=True)
class WeakConvergenceTable:
    """Distances of oscillatory perturbations to the reference path.

    Row ``(i, sup_h, l2_v, v_norm, offset_norm)`` records, for the
    perturbation oscillating at frequency ``i``, the sup distance and
    the integrated graph-norm distance of ``u_{v_i}`` to ``u_v``, the
    control norm ``||v_i||``, and ``||v_i - v||``.  The offset norms
    stay bounded away from zero while the solution distances shrink:
    the convergence is driven by oscillation, not by control smallness.
    """

    rows: tuple[tuple[int, float, float, float, float], ...]


def weak_convergence_experiment(
    v: Control,
    mode_index: int,
    amplitude: float,
    i_list: list[int],
    u0: GridFunction,
    coeffs: CoefficientSet,
    tgrid: TimeGrid,
    base: Trajectory | None = None,
) -> WeakConvergenceTable:
    """Drive the dynamics with ``v + A sin(i t) e_k`` for increasing ``i``.

    The perturbations all carry (asymptotically) the same extra energy
    but oscillate themselves to irrelevance; the solver responses must
    collapse onto ``u_v``.
    """
    K = coeffs.sigma.n_modes
    if not (0 <= mode_index < K):
        raise ValidationError(
            f"mode_index must lie in [0, {K}), got {mode_index!r}"
        )
    v.check_shape("control", tgrid.steps, K, tgrid.dt)
    if base is None:
        base = solve_deterministic(u0, coeffs, tgrid)
    t_left = tgrid.nodes[:-1]
    alpha, c_v = coeffs.alpha, coeffs.c_v

    # The reference control and every perturbation, solved as one batch.
    controls = np.repeat(v.values[None], len(i_list) + 1, axis=0)
    for row, i in enumerate(i_list, start=1):
        controls[row, :, mode_index] += amplitude * np.sin(i * t_left)
    paths = _controlled_solver(u0, base, coeffs, tgrid)[0](controls)
    u_ref = Trajectory(u0.grid, tgrid.nodes, paths[0])

    rows = []
    for i, vals, path in zip(i_list, controls[1:], paths[1:]):
        ui = Trajectory(u0.grid, tgrid.nodes, path)
        rows.append((
            int(i),
            sup_distance(ui, u_ref),
            integrated_v_distance(ui, u_ref, alpha, c_v),
            math.sqrt(Control(vals, v.dt).l2_norm_sq()),
            math.sqrt(Control(vals - v.values, v.dt).l2_norm_sq()),
        ))
    return WeakConvergenceTable(rows=tuple(rows))
