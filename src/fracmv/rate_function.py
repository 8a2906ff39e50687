"""Action functional over controls and its variational estimation.

The cost of steering the controlled deterministic dynamics to a target
is half the squared L2 norm of the control; the minimal cost over all
controls attaining the target is estimated by penalized minimisation:

    J_eta(v) = control_cost(v) + dist(u_v, target)^2 / (2 eta)

at one small penalty ``eta``.  The penalty is a least-squares term, so
damped Gauss-Newton minimizes J_eta from the zero control to a gradient
test.  Each evaluation gives the objective and its gradient together: one
controlled solve gives the value, bit-identical to that solve alone, and
the discrete adjoint of the scheme, one backward sweep along the stored
path, gives the exact gradient over the control coefficients.  The
tangent sweep of the scheme gives the exact Gauss-Newton matrix, so the
estimate is J_eta's minimum to rounding, not where an iteration budget
ran out.  ``n_evaluations`` counts the controlled paths solved, one per
evaluation.

A target that the optimizer cannot attain within budget is reported
with its best finite value and ``converged = False`` plus the residual
gap; no infinities are ever serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .dynamics import (
    Control,
    TimeGrid,
    Trajectory,
    _controlled_solver,
    solve_controlled,  # unused here, but perfbench/spans.py traces this name
    solve_deterministic,
)
from .errors import ValidationError
from .grid import GridFunction, SpatialGrid, _check_count, _check_nodes, _check_positive, sq_norms

__all__ = [
    "RateProblem",
    "RateEstimate",
    "check_target",
    "control_cost",
    "estimate_rate",
]


_GN_GTOL = 1e-9  # the gradient test: max |grad J_eta| at the returned control
_ARMIJO = 1e-4  # the fraction of the promised decrease a Gauss-Newton step must deliver
_EPS = float(np.finfo(float).eps)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    Nothing here calls it: the estimator is the Gauss-Newton loop below.
    The name stays only because ``perfbench/spans.py`` wraps it, and as a
    function it keeps scipy unloaded until someone does call it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def control_cost(v: Control) -> float:
    """Half the squared L2(0,T) norm of the control, exact for the
    piecewise-constant class."""
    return 0.5 * v.l2_norm_sq()


@dataclass(frozen=True)
class RateProblem:
    """Variational problem: cheapest control steering onto ``target``.

    ``target`` is either a full trajectory (matched in integrated plus
    terminal distance) or a single field (matched at the final time
    only).  ``eta`` is the penalty of ``J_eta`` and ``max_iters`` caps the
    Gauss-Newton steps.  ``target = None`` holds validated settings only,
    for ``dataclasses.replace`` to complete.
    """

    target: Trajectory | GridFunction | None
    eta: float = 1e-6
    max_iters: int = 100
    gap_tol: float = 1e-3

    def __post_init__(self):
        _check_positive("eta", self.eta)
        if not 1.0 / self.eta < math.inf:  # the penalty weighs the gap by 1/eta
            raise ValidationError(f"eta must have a finite reciprocal, got {self.eta!r}")
        _check_positive("gap_tol", self.gap_tol)
        _check_count("max_iters", self.max_iters)


@dataclass(frozen=True)
class RateEstimate:
    """Best value found, its control, and how close the target came.

    ``value == control_cost(v_star)`` exactly.  ``converged`` means the
    relative attainment gap fell below the problem's tolerance; a large
    gap with ``converged = False`` is the finite stand-in for an
    unreachable target.  ``iterations`` counts the Gauss-Newton steps and
    ``n_evaluations`` the controlled paths solved, one per evaluation of the
    objective and its adjoint gradient.  ``stop`` names the test that ended
    the run, ``gradient``, ``no decrease`` or ``iteration limit``, and
    ``grad_max`` is ``max |grad J_eta|`` at ``v_star``.
    """

    value: float
    v_star: Control
    gap: float
    gap_rel: float
    converged: bool
    n_evaluations: int
    iterations: int
    stop: str
    grad_max: float


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
    ``u0`` towards ``target``, and the parts of it that Gauss-Newton reads.

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
    """Minimize the penalized steering objective over controls by
    Gauss-Newton from the zero control.

    ``base`` is the zero-noise solution from ``u0`` (computed when not
    supplied); the controlled dynamics freeze their measure argument
    along it.  The returned value is the exact cost of the best control
    found, never the penalized objective.
    """
    target = check_target(problem.target, u0.grid, tgrid)
    if base is None:
        base = solve_deterministic(u0, coeffs, tgrid)
    obj = _Penalized(u0, target, coeffs, tgrid, base)
    x, grad, path, iterations, evaluations, stop = _gauss_newton(
        lambda y: obj(y, problem.eta), obj.normal, np.zeros(tgrid.steps * coeffs.sigma.n_modes),
        tgrid.dt, problem.eta, problem.max_iters,
    )
    v_star = Control(x.reshape(obj.shape), tgrid.dt)
    gap = obj.gap(path - obj.goal)
    gap_rel = gap / (1.0 + obj.gap(obj.goal))
    return RateEstimate(
        value=control_cost(v_star),
        v_star=v_star,
        gap=gap,
        gap_rel=gap_rel,
        converged=bool(gap_rel <= problem.gap_tol),
        n_evaluations=evaluations,
        iterations=iterations,
        stop=stop,
        grad_max=float(np.max(np.abs(grad))),
    )
