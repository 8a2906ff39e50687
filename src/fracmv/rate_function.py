"""Action functional over controls and its variational estimation.

The cost of steering the controlled deterministic dynamics to a target
is half the squared L2 norm of the control; the minimal cost over all
controls attaining the target is estimated by penalized minimisation:

    J_eta(v) = control_cost(v) + dist(u_v, target)^2 / (2 eta)

driven down an eta-ladder with warm starts, so the soft constraint
tightens gradually.  L-BFGS-B gets the objective and its gradient from
one call: one controlled solve gives the value, bit-identical to that
solve alone, and the discrete adjoint of the scheme, one backward sweep
along the stored path, gives the exact gradient over the control
coefficients.  ``n_evaluations`` counts the controlled paths solved, one
per optimizer evaluation.

A target that the optimizer cannot attain within budget is reported
with its best finite value and ``converged = False`` plus the residual
gap; no infinities are ever serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .coefficients import CoefficientSet
from .dynamics import (
    Control,
    TimeGrid,
    Trajectory,
    _check_nodes,
    _controlled_solver,
    integrated_v_distance,
    solve_controlled,  # unused here, but perfbench/spans.py traces this name
    solve_deterministic,
    sup_distance,
)
from .errors import ValidationError
from .grid import GridFunction, SpatialGrid, l2_norm, sq_norms

__all__ = [
    "RateProblem",
    "RateEstimate",
    "check_target",
    "control_cost",
    "estimate_rate",
    "WeakConvergenceTable",
    "weak_convergence_experiment",
]


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


@dataclass(frozen=True)
class RateEstimate:
    """Best value found, its control, and how close the target came.

    ``value == control_cost(v_star)`` exactly.  ``converged`` means the
    relative attainment gap fell below the problem's tolerance; a large
    gap with ``converged = False`` is the finite stand-in for an
    unreachable target.  ``n_evaluations`` is the number of controlled
    paths solved inside the optimizer, one per evaluation of the objective
    and its adjoint gradient; the per-stage gaps are not counted.
    """

    value: float
    v_star: Control
    gap: float
    gap_rel: float
    converged: bool
    n_evaluations: int
    stages: tuple[tuple[float, float, float], ...]


def _path_norm(values: np.ndarray, grid: SpatialGrid, dt: float) -> float:
    """Left-sum integrated plus terminal L2 norm of a path of fields."""
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

    S, K, dt = tgrid.steps, coeffs.sigma.n_modes, tgrid.dt
    n_evals = 0
    solve_batch, pullback = _controlled_solver(u0, base, coeffs, tgrid)
    # half the derivative of gap^2 at each node: the weights of the path norm
    node_w = np.append(np.full(S, dt if isinstance(target, Trajectory) else 0.0), 1.0)
    node_w = u0.grid.cell_volume * node_w.reshape((-1,) + (1,) * u0.grid.dim)

    def gap_to_target(path: np.ndarray) -> float:
        if isinstance(target, Trajectory):
            return _path_norm(path - target.values, u0.grid, dt)
        return math.sqrt(float(sq_norms(path[-1] - target.values, u0.grid)))

    def objective(eta: float):
        def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
            """The penalized objective at ``x`` and its exact gradient: one
            forward solve, then the adjoint sweep back along its path."""
            nonlocal n_evals
            n_evals += 1
            path = solve_batch(x.reshape(1, S, K))[0]
            f = 0.5 * dt * float(np.dot(x, x)) + gap_to_target(path) ** 2 / (2.0 * eta)
            return f, pullback(x.reshape(S, K), path, node_w / eta * (path - target.values)) + dt * x

        return value_and_grad

    x = np.zeros(S * K)
    stages = []
    for eta in problem.eta_ladder:
        res = minimize(
            objective(eta),
            x,
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": problem.max_stage_iters},
        )
        x = res.x
        gap = gap_to_target(solve_batch(x.reshape(1, S, K))[0])
        stages.append((eta, 0.5 * dt * float(np.dot(x, x)), gap))

    v_star = Control(x.reshape(S, K), dt)
    scale = (
        _path_norm(target.values, target.grid, dt)
        if isinstance(target, Trajectory)
        else l2_norm(target)
    )
    gap_rel = gap / (1.0 + scale)
    return RateEstimate(
        value=control_cost(v_star),
        v_star=v_star,
        gap=gap,
        gap_rel=gap_rel,
        converged=bool(gap_rel <= problem.gap_tol),
        n_evaluations=n_evals,
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
    v.check_shape("control", tgrid.steps, K)
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
