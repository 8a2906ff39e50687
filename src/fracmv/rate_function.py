"""Action functional over controls and its variational estimation.

The cost of steering the controlled deterministic dynamics to a target
is half the squared L2 norm of the control; the minimal cost over all
controls attaining the target is estimated by penalized minimisation:

    J_eta(v) = control_cost(v) + dist(u_v, target)^2 / (2 eta)

driven down an eta-ladder with warm starts, so the soft constraint
tightens gradually.  Gradients are batched forward differences over the
control coefficients: the base point and all ``S*K`` perturbed controls
are solved as rows of one batch, each row bit-identical to its own
single solve, which keeps every run bit-reproducible.

A target that the optimizer cannot attain within budget is reported
with its best finite value and ``converged = False`` plus the residual
gap; no infinities are ever serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .coefficients import CoefficientSet
from .dynamics import (
    Control,
    TimeGrid,
    Trajectory,
    _controlled_solver,
    integrated_v_distance,
    solve_controlled,
    solve_deterministic,
    sup_distance,
)
from .errors import GridMismatchError, ValidationError
from .grid import GridFunction, SpatialGrid, l2_norm, lp_norms, sq_norms

__all__ = [
    "RateProblem",
    "RateEstimate",
    "control_cost",
    "estimate_rate",
    "WeakConvergenceTable",
    "weak_convergence_experiment",
    "LevelSetReport",
    "level_set_probe",
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
    unreachable target.
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


def estimate_rate(
    problem: RateProblem,
    u0: GridFunction,
    coeffs: CoefficientSet,
    tgrid: TimeGrid,
    base: Trajectory | None = None,
    v_init: Control | None = None,
) -> RateEstimate:
    """Minimize the penalized steering objective over controls.

    ``base`` is the zero-noise solution from ``u0`` (computed when not
    supplied); the controlled dynamics freeze their measure argument
    along it.  The returned value is the exact cost of the best control
    found, never the penalized objective.
    """
    target = problem.target
    if isinstance(target, Trajectory):
        if target.grid != u0.grid:
            raise GridMismatchError("target trajectory lives on a different grid")
        if target.n_nodes != tgrid.steps + 1 or not np.array_equal(
            target.times, tgrid.nodes
        ):
            raise GridMismatchError("target trajectory is not sampled on the solver's time nodes")
    elif isinstance(target, GridFunction):
        if target.grid != u0.grid:
            raise GridMismatchError("target field lives on a different grid")
    else:
        raise ValidationError(
            f"target must be a Trajectory or a GridFunction, got {type(target).__name__}"
        )
    if base is None:
        base = solve_deterministic(u0, coeffs, tgrid)

    S, K, dt = tgrid.steps, coeffs.sigma.n_modes, tgrid.dt
    n = S * K
    n_evals = 0
    solve_batch = _controlled_solver(u0, base, coeffs, tgrid)

    def gap_to_target(path: np.ndarray) -> float:
        if isinstance(target, Trajectory):
            return _path_norm(path - target.values, u0.grid, dt)
        return math.sqrt(float(sq_norms(path[-1] - target.values, u0.grid)))

    def gap_of(x: np.ndarray) -> float:
        traj = solve_controlled(u0, Control(x.reshape(S, K), dt), base, coeffs, tgrid)
        return gap_to_target(traj.values)

    h0 = math.sqrt(np.finfo(float).eps)

    def objective(eta: float):
        def rows(xs: np.ndarray) -> np.ndarray:
            """The penalized objective of each row of a stack of controls."""
            nonlocal n_evals
            n_evals += len(xs)
            paths = solve_batch(xs.reshape(-1, S, K))
            return np.array([
                0.5 * dt * float(np.dot(x, x)) + gap_to_target(path) ** 2 / (2.0 * eta)
                for x, path in zip(xs, paths)
            ])

        def fun(x: np.ndarray) -> float:
            return float(rows(x[None])[0])

        def jac(x: np.ndarray) -> np.ndarray:
            # The base point and its S*K forward perturbations, one batch.
            steps = h0 * (1.0 + np.abs(x))
            xs = np.repeat(x[None], n + 1, axis=0)
            xs[np.arange(1, n + 1), np.arange(n)] += steps
            f = rows(xs)
            return (f[1:] - f[0]) / steps

        return fun, jac

    if v_init is not None and v_init.values.shape != (S, K):
        raise ValidationError(
            f"v_init must have shape ({S}, {K}), got {v_init.values.shape}"
        )
    x = v_init.values.reshape(-1).copy() if v_init is not None else np.zeros(n)
    stages = []
    for eta in problem.eta_ladder:
        fun, jac = objective(eta)
        res = minimize(
            fun,
            x,
            method="L-BFGS-B",
            jac=jac,
            options={"maxiter": problem.max_stage_iters},
        )
        x = res.x
        stages.append((eta, 0.5 * dt * float(np.dot(x, x)), gap_of(x)))

    v_star = Control(x.reshape(S, K), dt)
    gap = stages[-1][2]
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
    ``lp_diag`` (optional) carries integrated p-norm distances.
    """

    rows: tuple[tuple[int, float, float, float, float], ...]
    lp_diag: tuple[float, ...] | None = None


def weak_convergence_experiment(
    v: Control,
    mode_index: int,
    amplitude: float,
    i_list: list[int],
    u0: GridFunction,
    coeffs: CoefficientSet,
    tgrid: TimeGrid,
    base: Trajectory | None = None,
    include_lp: bool = False,
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
    if v.n_modes != K or v.steps != tgrid.steps:
        raise ValidationError(
            f"control must have shape ({tgrid.steps}, {K}), got {v.values.shape}"
        )
    if base is None:
        base = solve_deterministic(u0, coeffs, tgrid)
    t_left = tgrid.nodes[:-1]
    alpha, c_v, p = coeffs.alpha, coeffs.c_v, coeffs.f.p

    # The reference control and every perturbation, solved as one batch.
    controls = np.repeat(v.values[None], len(i_list) + 1, axis=0)
    for row, i in enumerate(i_list, start=1):
        controls[row, :, mode_index] += amplitude * np.sin(i * t_left)
    paths = _controlled_solver(u0, base, coeffs, tgrid)(controls)
    u_ref = Trajectory(u0.grid, tgrid.nodes, next(paths))

    rows = []
    lp_rows = []
    for i, vals, path in zip(i_list, controls[1:], paths):
        ui = Trajectory(u0.grid, tgrid.nodes, path)
        rows.append((
            int(i),
            sup_distance(ui, u_ref),
            integrated_v_distance(ui, u_ref, alpha, c_v),
            math.sqrt(Control(vals, v.dt).l2_norm_sq()),
            math.sqrt(Control(vals - v.values, v.dt).l2_norm_sq()),
        ))
        if include_lp:
            lp_s = lp_norms(path[:-1] - u_ref.values[:-1], u0.grid, p) ** p
            lp_rows.append(float((v.dt * np.sum(lp_s)) ** (1.0 / p)))
    return WeakConvergenceTable(
        rows=tuple(rows), lp_diag=tuple(lp_rows) if include_lp else None
    )


# -- level-set probing -----------------------------------------------------


@dataclass(frozen=True)
class LevelSetReport:
    """Which candidate targets the estimator places inside ``{I <= c}``."""

    level: float
    rows: tuple[tuple[int, float, float, bool, bool], ...]

    def inside(self) -> list[int]:
        return [i for i, _, _, _, ins in self.rows if ins]


def level_set_probe(
    level: float,
    targets: list[Trajectory | GridFunction],
    u0: GridFunction,
    coeffs: CoefficientSet,
    tgrid: TimeGrid,
    settings: RateProblem = RateProblem(None),
    base: Trajectory | None = None,
) -> LevelSetReport:
    """Run the estimator on each candidate and compare against ``level``.

    ``settings`` is a target-free :class:`RateProblem` whose penalty
    ladder, stage budget and gap tolerance every candidate shares.  A
    candidate is reported inside the level set only when its estimate
    both attained the target (converged) and costs at most ``level``;
    non-attained candidates are reported outside with their best finite
    value.
    """
    if not (float(level) >= 0.0):
        raise ValidationError(f"level must be >= 0, got {level!r}")
    if base is None:
        base = solve_deterministic(u0, coeffs, tgrid)
    rows = []
    for idx, target in enumerate(targets):
        est = estimate_rate(replace(settings, target=target), u0, coeffs, tgrid, base=base)
        rows.append(
            (
                idx,
                est.value,
                est.gap_rel,
                est.converged,
                bool(est.converged and est.value <= float(level)),
            )
        )
    return LevelSetReport(level=float(level), rows=tuple(rows))
