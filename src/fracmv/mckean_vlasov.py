"""Measure-freezing fixed-point solver for the mean-field dynamics.

The mean-field equation couples each path to the law of the solution.
Numerically the law is an ``N``-particle empirical flow, and the freezing
map takes a candidate flow to the empirical flow of ``N`` frozen-measure
paths driven by per-particle noise, advanced together by the batched step
kernel.  The scheme freezes the law at each step's left node, so the map's
fixed point is the particle system stepped against its own empirical law,
which ``picard_solve`` makes in one causal sweep and returns as its flow.
That the map gives the sweep back bit for bit is measured by the tier-1 tests
and the ``picard`` verify suite, not by each solve.  The map hands its frozen
law to the step kernel as one table of node fields
(:func:`~fracmv.dynamics._law_table`).  Under the weighted sup metric
``d(., .; lam)`` the map contracts once ``lam`` is large enough;
``auto_lambda`` measures the contraction ratio on probe flows and picks the
weight empirically, for the verify suite that iterates the map.  The solve
itself needs no contraction: the fixed point exists by causality.

Noise is keyed by ``(master seed, particle)`` only, never by the
iteration count, so successive applications of the freezing map see
common random numbers and the map is a deterministic map between flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .coefficients import CoefficientSet
from .dynamics import (
    NoisePath,
    TimeGrid,
    _check_epsilon,
    _collect,
    _law_table,
    _step_nodes,
    solve_deterministic,
)
from .errors import FixedPointDivergenceError, GridMismatchError, ValidationError
from .grid import (GridFunction, SpatialGrid, _check_count, _check_nodes, _check_positive,
                   _field_array, l2_norm, sq_norms)
from .measure import EmpiricalMeasure, FlowPairW2, MeasureFlow
from .measure import flow_distance  # noqa: F401  perfbench/spans.py wraps it here

__all__ = [
    "MeanFieldProblem",
    "PicardConfig",
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
    then still serves as the reference state for deviation reports), checked
    by :func:`~fracmv.grid._field_array`.
    """

    grid: SpatialGrid
    tgrid: TimeGrid
    coeffs: CoefficientSet
    u0: GridFunction
    epsilon: float
    master_seed: int
    initial_states: np.ndarray | None = None

    def __post_init__(self):
        if self.u0.grid != self.grid or self.coeffs.sigma.grid != self.grid:
            raise GridMismatchError("problem components live on different grids")
        _check_epsilon(self.epsilon)
        if self.initial_states is not None:
            arr = _field_array("initial_states", self.initial_states, self.grid, ("N",))
            object.__setattr__(self, "initial_states", arr)


@dataclass(frozen=True)
class PicardConfig:
    n_particles: int = 64
    tol: float = 1e-6

    def __post_init__(self):
        _check_count("n_particles", self.n_particles)
        _check_positive("tol", self.tol)


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


# Steps of each particle's noise drawn per generator call.  The chunk is 32 N K floats
# whatever S is, where the (S, N, K) stack grew with the horizon.  Measured on a
# 2-vCPU Xeon at the canonical 200 steps and 4 modes, N = 4,096 draws in 1.8 s a step
# at a time, 0.39 s 8 at a time, 0.17 s 32 at a time and 0.14 s all at once.
_NOISE_CHUNK = 32


def _noise_rows(problem: MeanFieldProblem, n: int):
    """sigma's drive ``sqrt(eps) dW`` for particles ``0 .. n-1``, one ``(n, K)`` row per step,
    or None without noise.  Each particle's generator is made here, when the sweep is built;
    the increments are drawn ``_NOISE_CHUNK`` steps at a time into one chunk, and each row is
    scaled into a fresh C-contiguous array, since sigma's product slows on a strided row.
    Row ``s`` is ``sqrt(eps)`` times the step-``s`` rows of ``NoisePath.generate``."""
    if problem.epsilon == 0.0:
        return None
    gens = [NoisePath.generator(problem.master_seed, i) for i in range(n)]
    return _drawn_rows(gens, problem.tgrid, problem.coeffs.sigma.n_modes,
                       math.sqrt(problem.epsilon))


def _drawn_rows(gens: list, tgrid: TimeGrid, n_modes: int, scale: float):
    chunk = np.empty((len(gens), _NOISE_CHUNK, n_modes))  # particle-major: a draw fills a block
    for first in range(0, tgrid.steps, _NOISE_CHUNK):
        size = min(_NOISE_CHUNK, tgrid.steps - first)
        for gen, block in zip(gens, chunk):
            NoisePath.draw(gen, block[:size], tgrid.dt)
        yield from (scale * row for row in chunk[:, :size].swapaxes(0, 1))


def apply_phi(problem: MeanFieldProblem, flow: MeasureFlow) -> MeasureFlow:
    """One application of the freezing map.

    Solves one frozen path per particle of ``flow`` (common random
    numbers across applications) and returns the empirical flow of the
    solved ensemble.  All particles advance together, one batched step
    per node; particle ``i`` is driven by ``NoisePath.generate(...,
    particle=i)``, so its path equals the single-particle
    ``solve_frozen`` run byte for byte.
    """
    grid, tgrid = problem.grid, problem.tgrid
    _check_nodes("flow", flow, grid, tgrid.nodes)
    law = _law_table(problem.coeffs, grid, tgrid.nodes, flow.states)
    states = _collect(_sweep_nodes(problem, flow.n_particles, law), tgrid.steps + 1)
    return MeasureFlow._checked(grid, tgrid.nodes, states)


def _sweep_nodes(problem: MeanFieldProblem, n: int, law):
    """The sweep of ``n`` particles, each driven by its own noise path, against the
    frozen law ``law`` (:func:`_law_table`) or, with None, stepped against their
    ensemble's own law (the causal sweep): the nodes ``0 .. S`` as :func:`_step_nodes`
    yields them, to be read and not written into.  The start is checked and the
    particles' noise generators are made here, before the first node is asked for; the
    sweep holds neither ``problem`` nor a noise stack."""
    return _step_nodes(problem.grid, problem.coeffs, _initial_states(problem, n), problem.tgrid,
                       law, _noise_rows(problem, n))


def auto_lambda(
    problem: MeanFieldProblem,
    probe_flows: list[MeasureFlow],
    images: list[MeasureFlow],
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Pick the metric weight empirically from probe contraction ratios.

    ``images[i]`` is ``phi(probe_flows[i])``.  For each candidate weight
    in ``_LAMBDA_GRID`` the worst ratio ``d(phi(a), phi(b); lam) /
    d(a, b; lam)`` over probe pairs is measured, each pair's node solves
    serving every candidate weight; the smallest weight pushing it to
    ``_TARGET_RATIO`` or below is returned doubled, as a safety margin,
    together with the full ``(lam, worst ratio)`` curve.
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
    return 2.0 * chosen, tuple(curve)


def picard_solve(problem: MeanFieldProblem, cfg: PicardConfig = PicardConfig()) -> MeasureFlow:
    """The fixed point of the freezing map, the flow of ``cfg.n_particles`` particles.

    The scheme freezes the law at the left node, so the fixed point is the
    particle system stepped against its own empirical law, which one sweep of
    the step kernel makes, reading the law from the batch at each step; so the
    solve has no iterations and no stopping rule, and reads no ``tol``.  This
    collects :func:`_sweep_nodes` into a flow; ``simulate`` and
    :func:`small_noise_sweep` stream it.  That ``apply_phi`` gives the sweep back
    bit for bit is measured by ``test_in_place_loop_equals_the_two_flow_loop``
    and by the ``picard`` verify suite's row
    ``picard_iterates_reach_the_solved_fixed_point``.
    """
    times = problem.tgrid.nodes
    states = _collect(_sweep_nodes(problem, cfg.n_particles, None), times.size)
    return MeasureFlow._checked(problem.grid, times, states)


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
) -> SmallNoiseSweep:
    """Estimate ``E sup_t ||u_eps - u_0||^2`` across noise intensities.

    Each intensity gets its own causal sweep of ``n_replicas`` particles
    (an integer >= 1) sharing the master seed, so the estimates use common
    random numbers across the sweep.  Every particle starts at ``u0``,
    the state the deviation is measured from, so a sampled
    ``initial_states`` ensemble is set aside.  The zero intensity
    decouples: the law rides the deterministic path exactly, so its row is 0.
    The sweep is read node by node, so no flow is held.
    """
    _check_count("n_replicas", n_replicas)
    base = solve_deterministic(problem.u0, problem.coeffs, problem.tgrid)
    rows = []
    for eps in eps_list:
        e = float(eps)
        if e == 0.0:
            rows.append((0.0, 0.0, 0.0))
            continue
        sub = replace(problem, epsilon=e, initial_states=None)
        nodes = _sweep_nodes(sub, n_replicas, None)
        dev = [sq_norms(mu - u, problem.grid) for mu, u in zip(nodes, base.values)]
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
