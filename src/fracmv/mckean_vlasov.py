"""Measure-freezing fixed-point solver for the mean-field dynamics.

The mean-field equation couples each path to the law of the solution.
Numerically the law is an ``N``-particle empirical flow and the
coupling is resolved by iterating the freezing map: given a candidate
flow, solve ``N`` frozen-measure paths driven by per-particle noise
(all ``N`` advanced together by the batched step kernel), and return
the empirical flow of the solved ensemble.  Under the
weighted sup metric ``d(., .; lam)`` the map contracts once ``lam`` is
large enough; ``auto_lambda`` measures the contraction ratio on probe
flows and picks the weight empirically.

Noise is keyed by ``(master seed, particle)`` only, never by the
iteration count, so successive applications of the freezing map see
common random numbers and the iteration is a deterministic map between
flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, combinations

import numpy as np

from .coefficients import CoefficientSet
from .dynamics import (
    NoisePath,
    TimeGrid,
    Trajectory,
    _check_epsilon,
    _check_nodes,
    _law_on_nodes,
    _run_steps,
    _step_nodes,
    solve_deterministic,
)
from .errors import FixedPointDivergenceError, GridMismatchError, ValidationError
from .grid import GridFunction, SpatialGrid, l2_norm, sq_norms
from .measure import EmpiricalMeasure, FlowPairW2, MeasureFlow, _streamed_sup
from .measure import flow_distance  # noqa: F401  perfbench/spans.py wraps it here

__all__ = [
    "MeanFieldProblem",
    "PicardConfig",
    "PicardReport",
    "PicardResult",
    "apply_phi",
    "auto_lambda",
    "picard_solve",
    "SmallNoiseSweep",
    "small_noise_sweep",
]

_LAMBDA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
_TARGET_RATIO = 0.5


@dataclass(frozen=True, eq=False)
class MeanFieldProblem:
    """Bundle of everything that defines one mean-field solve.

    ``u0`` is the deterministic initial state; an optional
    ``initial_states`` array of shape ``(N, *grid.shape)`` replaces the
    all-atoms-at-``u0`` initial ensemble with a sampled one (``u0``
    then still serves as the reference state for deviation reports).
    """

    grid: SpatialGrid
    tgrid: TimeGrid
    coeffs: CoefficientSet
    u0: GridFunction
    epsilon: float
    master_seed: int
    initial_states: np.ndarray | None = None
    # particle count -> that many particles' noise stack, see ``_noise_stack``
    _noise: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.u0.grid != self.grid or self.coeffs.sigma.grid != self.grid:
            raise GridMismatchError("problem components live on different grids")
        _check_epsilon(self.epsilon)
        if self.initial_states is not None:
            arr = np.asarray(self.initial_states, dtype=float)
            if arr.ndim != 1 + self.grid.dim or arr.shape[1:] != self.grid.shape:
                raise ValidationError(
                    f"initial_states must have shape (N, {self.grid.shape}), got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError("initial_states contains non-finite entries")
            object.__setattr__(self, "initial_states", arr)


@dataclass(frozen=True)
class PicardConfig:
    n_particles: int = 64
    tol: float = 1e-6
    max_iters: int = 20
    lambda_weight: float | str = "auto"

    def __post_init__(self):
        if not (isinstance(self.n_particles, (int, np.integer)) and self.n_particles >= 1):
            raise ValidationError(
                f"n_particles must be an integer >= 1, got {self.n_particles!r}"
            )
        if not (0.0 < float(self.tol) < math.inf):
            raise ValidationError(f"tol must be finite and positive, got {self.tol!r}")
        lw = self.lambda_weight
        if lw != "auto" and (isinstance(lw, str) or not 0.0 <= float(lw) < math.inf):
            raise ValidationError(
                f"lambda_weight must be 'auto' or a finite number >= 0, got {lw!r}"
            )
        least = 2 if lw == "auto" else 1  # the auto weight's start takes two iterates
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= least):
            raise ValidationError(
                f"max_iters must be an integer >= {least} with lambda_weight {lw!r}, "
                f"got {self.max_iters!r}"
            )


@dataclass(frozen=True)
class PicardReport:
    """Iteration log of one fixed-point run.

    ``distances[m]`` is the weighted flow distance between iterates
    ``m+1`` and ``m``; ``ratios`` are successive quotients where the
    previous distance is resolvable above round-off.
    """

    iterations: int
    distances: tuple[float, ...]
    ratios: tuple[float, ...]
    converged: bool
    lambda_weight: float
    threshold: float
    initial_scale: float
    auto_curve: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class PicardResult:
    flow: MeasureFlow
    report: PicardReport

    def particle_trajectory(self, i: int) -> Trajectory:
        return Trajectory(self.flow.grid, self.flow.times, self.flow.states[:, i])


def _initial_states(problem: MeanFieldProblem, n_particles: int) -> np.ndarray:
    if problem.initial_states is not None:
        if problem.initial_states.shape[0] != n_particles:
            raise ValidationError(
                f"initial_states holds {problem.initial_states.shape[0]} particles "
                f"but the run asks for {n_particles}"
            )
        return problem.initial_states
    return np.broadcast_to(
        problem.u0.values, (n_particles,) + problem.grid.shape
    ).copy()


def _initial_flow(problem: MeanFieldProblem, n_particles: int) -> MeasureFlow:
    """Constant-in-time law of the initial ensemble."""
    mu0 = EmpiricalMeasure(problem.grid, _initial_states(problem, n_particles))
    return MeasureFlow.constant(mu0, problem.tgrid.nodes)


def _noise_stack(problem: MeanFieldProblem, n: int) -> np.ndarray | None:
    """The increments of particles ``0 .. n-1``, shape ``(S, n, K)``, or None without
    noise: built once per problem and count, and shared, read-only, by every
    application of the freezing map."""
    if problem.epsilon == 0.0:
        return None
    if n not in problem._noise:
        K, tgrid = problem.coeffs.sigma.n_modes, problem.tgrid
        stack = np.stack(
            [NoisePath.generate(tgrid, K, problem.master_seed, i).increments for i in range(n)],
            axis=1,
        )
        stack.flags.writeable = False
        problem._noise[n] = stack
    return problem._noise[n]


def apply_phi(problem: MeanFieldProblem, flow: MeasureFlow) -> MeasureFlow:
    """One application of the freezing map.

    Solves one frozen path per particle of ``flow`` (common random
    numbers across applications) and returns the empirical flow of the
    solved ensemble.  All particles advance together, one batched step
    per node; particle ``i`` is driven by ``NoisePath.generate(...,
    particle=i)``, so its path equals the single-particle
    ``solve_frozen`` run byte for byte.
    """
    grid, tgrid, n = problem.grid, problem.tgrid, flow.n_particles
    _check_nodes("flow", flow, grid, tgrid.nodes)
    stats = _law_on_nodes(flow.states, grid, problem.coeffs.f.h_cap)
    paths = _run_steps(grid, problem.coeffs, _initial_states(problem, n), tgrid, stats,
                       float(problem.epsilon), None, _noise_stack(problem, n))
    return MeasureFlow._checked(grid, tgrid.nodes, paths)


def _image_nodes(problem: MeanFieldProblem, law: np.ndarray, n: int):
    """The nodes ``0 .. S`` of the freezing map's image of a flow whose law table is
    ``law``, as :func:`apply_phi` makes them, yielded one by one by the step kernel."""
    starts = _initial_states(problem, n)
    return chain([starts], _step_nodes(problem.grid, problem.coeffs, starts, problem.tgrid, law,
                                       float(problem.epsilon), None, _noise_stack(problem, n)))


def auto_lambda(
    problem: MeanFieldProblem,
    probe_flows: list[MeasureFlow],
    images: list[MeasureFlow],
) -> tuple[float, tuple[tuple[float, float], ...], list[tuple[FlowPairW2, FlowPairW2]]]:
    """Pick the metric weight empirically from probe contraction ratios.

    ``images[i]`` is ``phi(probe_flows[i])``.  For each candidate weight
    in ``_LAMBDA_GRID`` the worst ratio ``d(phi(a), phi(b); lam) /
    d(a, b; lam)`` over probe pairs is measured; the smallest weight
    pushing it to ``_TARGET_RATIO`` or below is returned doubled, as a
    safety margin, together with the full ``(lam, worst ratio)`` curve
    and the ``(probe pair, image pair)`` :class:`FlowPairW2` objects,
    whose node solves serve every candidate weight and any later ``sup``.
    """
    if len(probe_flows) < 2:
        raise ValidationError("auto_lambda needs at least two probe flows")
    if len(images) != len(probe_flows):
        raise ValidationError("images must align with probe_flows")
    pairs = [
        (FlowPairW2(probe_flows[a], probe_flows[b]), FlowPairW2(images[a], images[b]))
        for a, b in combinations(range(len(probe_flows)), 2)
    ]
    tiny = 1e3 * np.finfo(float).eps * (1.0 + l2_norm(problem.u0))
    curve = []
    chosen = None
    for lam in _LAMBDA_GRID:
        worst = 0.0
        resolved = False
        for probe_pair, image_pair in pairs:
            denom = probe_pair.sup(lam)
            if denom <= tiny:
                continue
            resolved = True
            worst = max(worst, image_pair.sup(lam) / denom)
        if not resolved:
            raise ValidationError("probe flows are indistinguishable; cannot calibrate")
        curve.append((float(lam), float(worst)))
        if chosen is None and worst <= _TARGET_RATIO:
            chosen = float(lam)
    if chosen is None:
        raise FixedPointDivergenceError(
            "no metric weight on the grid reaches the target contraction ratio; "
            "measured curve: " + ", ".join(f"(lam={l:g}, r={r:.3g})" for l, r in curve)
        )
    return 2.0 * chosen, tuple(curve), pairs


def _auto_start(
    problem: MeanFieldProblem, flow0: MeasureFlow
) -> tuple[float, tuple[tuple[float, float], ...], list[float], MeasureFlow]:
    """Calibrate the weight on the first two iterates and a scaled start.

    Returns the weight, the ``(lam, worst ratio)`` curve, the first two
    iterate distances and the second iterate.  The probe pair (flow0,
    image0) and its image pair (image0, image1) are the first two
    iterate steps.  The constant probes ``flow0`` and ``scaled`` are
    one-node views, so the three images are the only flows held; every
    flow but ``image1`` is released on return.
    """
    image0 = apply_phi(problem, flow0)
    image1 = apply_phi(problem, image0)
    scaled = MeasureFlow.constant(EmpiricalMeasure(flow0.grid, 1.25 * flow0.states[0]), flow0.times)
    image_s = apply_phi(problem, scaled)
    lam, curve, pairs = auto_lambda(problem, [flow0, image0, scaled], [image0, image1, image_s])
    return lam, curve, [pair.sup(lam) for pair in pairs[0]], image1


def picard_solve(problem: MeanFieldProblem, cfg: PicardConfig = PicardConfig()) -> PicardResult:
    """Iterate the freezing map to its fixed point.

    Stops when the weighted distance between successive flows drops
    below ``tol * (1 + initial ensemble scale)``.  Raises a divergence
    error (with the report attached) if the budget is exhausted or the
    measured ratios sit at or above 1 on two consecutive steps.

    The initial flow is a one-node view, and the auto-weight start holds
    three flows (see ``_auto_start``).  After that one flow is held: each
    iterate is written over the one before it, node by node, as the step
    kernel makes it, while the distance between the two is bounded node by
    node and settled by a few exact solves (``measure._streamed_sup``).  The
    first step writes into a buffer of its own, since the flow it starts
    from is the read-only initial view or the auto start's, and reads that
    flow's nodes again from it; a later step rebuilds them, if it must, from
    the law table they were made from.  Each step begins by reading the law
    table of the flow it starts from, so the last step builds none.  The
    noise stack is built once and shared by every application of the map.
    """
    n = cfg.n_particles
    latest = _initial_flow(problem, n)
    initial_scale = l2_norm(problem.u0)
    threshold = cfg.tol * (1.0 + initial_scale)
    tiny = 10.0 * np.finfo(float).eps * (1.0 + initial_scale)

    auto_curve = None
    distances: list[float] = []
    if cfg.lambda_weight == "auto":
        lam, auto_curve, distances, latest = _auto_start(problem, latest)
    else:
        lam = float(cfg.lambda_weight)
    iterations = len(distances)

    def ratios_of(ds: list[float]) -> list[float]:
        return [b / a for a, b in zip(ds, ds[1:]) if a > tiny]

    def report(converged: bool) -> PicardReport:
        return PicardReport(
            iterations=iterations,
            distances=tuple(distances),
            ratios=tuple(ratios_of(distances)),
            converged=converged,
            lambda_weight=lam,
            threshold=threshold,
            initial_scale=initial_scale,
            auto_curve=auto_curve,
        )

    if any(d <= threshold for d in distances):
        return PicardResult(flow=latest, report=report(True))
    grid, times = problem.grid, problem.tgrid.nodes
    states = latest.states
    built_from = None  # the law table ``states`` was made from, once it is the loop's own
    del latest
    while iterations < cfg.max_iters:
        law = _law_on_nodes(states, grid, problem.coeffs.f.h_cap)
        if built_from is None:
            out, old_nodes = np.empty(states.shape), partial(iter, states)
        else:
            out, old_nodes = states, partial(_image_nodes, problem, built_from, n)
        nodes = _image_nodes(problem, law, n)
        with np.errstate(over="ignore", invalid="ignore"):  # the step kernel's, see _step_nodes
            distances.append(_streamed_sup(grid, times, lam, states, nodes, out, old_nodes))
        states, built_from = out, law
        iterations += 1
        if distances[-1] <= threshold:
            return PicardResult(MeasureFlow._checked(grid, times, states), report(True))
        rs = ratios_of(distances)
        if len(rs) >= 2 and rs[-1] >= 1.0 and rs[-2] >= 1.0:
            raise FixedPointDivergenceError(
                "freezing map is not contracting (two successive ratios >= 1)", report(False)
            )
    raise FixedPointDivergenceError(
        f"no convergence within {cfg.max_iters} iterations "
        f"(last distance {distances[-1]:.3e} vs threshold {threshold:.3e})",
        report(False),
    )


@dataclass(frozen=True)
class SmallNoiseSweep:
    """Mean squared sup deviation from the zero-noise path, per intensity.

    Rows are ``(epsilon, estimate, stderr)`` with the standard error
    taken over replicas; the slope is the log-log regression of the
    estimate against the positive intensities.
    """

    rows: tuple[tuple[float, float, float], ...]
    slope: float


def small_noise_sweep(
    problem: MeanFieldProblem,
    eps_list: list[float],
    n_replicas: int,
    cfg: PicardConfig | None = None,
) -> SmallNoiseSweep:
    """Estimate ``E sup_t ||u_eps - u_0||^2`` across noise intensities.

    Each intensity gets its own fixed-point solve with ``n_replicas``
    particles sharing the master seed, so the estimates use common
    random numbers across the sweep.  Every particle starts at ``u0``,
    the state the deviation is measured from, so a sampled
    ``initial_states`` ensemble is set aside.  The zero intensity
    decouples: the law rides the deterministic path exactly, so its row is 0.
    """
    base_cfg = cfg or PicardConfig()
    cfg = replace(base_cfg, n_particles=int(n_replicas))
    base = solve_deterministic(problem.u0, problem.coeffs, problem.tgrid)
    rows = []
    for eps in eps_list:
        e = float(eps)
        if e == 0.0:
            rows.append((0.0, 0.0, 0.0))
            continue
        sub = replace(problem, epsilon=e, initial_states=None)
        res = picard_solve(sub, cfg)
        # node by node, so no deviation the size of the flow is built
        dev = [sq_norms(mu - u, problem.grid) for mu, u in zip(res.flow.states, base.values)]
        sup_sq = np.max(dev, axis=0)
        stderr = (
            float(np.std(sup_sq, ddof=1) / math.sqrt(sup_sq.size))
            if sup_sq.size > 1
            else 0.0
        )
        rows.append((e, float(np.mean(sup_sq)), stderr))
    pos = [(e, v) for e, v, _ in rows if e > 0.0 and v > 0.0]
    if len(pos) >= 2:
        xs = np.log([e for e, _ in pos])
        ys = np.log([v for _, v in pos])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return SmallNoiseSweep(rows=tuple(rows), slope=slope)
