"""Empirical measures on field space and Wasserstein-2 machinery.

An empirical measure is a uniform mixture of ``N`` field-valued atoms.
Between two such measures with equal particle counts the quadratic
Wasserstein distance reduces to an optimal assignment problem over the
pairwise squared L2 distances, which is solved exactly.  A flow of
measures (one per time node) carries the weighted sup metric

    d(mu, nu; lam) = sup_t exp(-lam * t) * W2(mu(t), nu(t)),

the contraction metric of the measure-freezing fixed-point iteration.
It is evaluated lazily by :class:`FlowPairW2`.  The identity matching
pairs particle ``i`` of one flow with particle ``i`` of the other, so
its cost bounds the optimal assignment's from above at every node; one
pass over the flows gives that bound for all nodes, and the weighted
sup solves exact assignments only at nodes whose weighted bound still
exceeds the best exact value found.  Under common random numbers
successive Picard iterates keep particle ``i`` closest to particle
``i``, the bound is tight and a handful of solves decide the sup.  A
skipped node provably cannot hold the maximum, so the result is the
same float as the maximum over every node's solve.

The same bound and pruning rule also run node by node over a flow that
is still being made (``_streamed_sup``): each new node is bounded
against the old node it replaces and then written over it, except the
few with the largest weighted bounds, which are held back until the
sweep ends and solved there.  Only if an overwritten node could still
hold the maximum is the old flow made again, node by node, to solve it;
either way the result is ``flow_distance``'s float, and the fixed-point
loop holds one flow instead of an iterate and its image.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import GridMismatchError, InvalidFieldError, ValidationError
from .grid import GridFunction, SpatialGrid, load_grid_function, save_grid_function

__all__ = [
    "EmpiricalMeasure",
    "MeasureFlow",
    "second_moment",
    "wasserstein2",
    "flow_distance",
    "FlowPairW2",
    "save_measure",
    "load_measure",
]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Equal-weight particle ensemble representing a law on field space.

    ``states`` has shape ``(N, *grid.shape)`` with ``N >= 1``.
    """

    grid: SpatialGrid
    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim != self.grid.dim + 1 or arr.shape[1:] != self.grid.shape:
            raise ValidationError(
                f"particle array shape {arr.shape} does not match (N, *{self.grid.shape})"
            )
        if arr.shape[0] < 1:
            raise ValidationError("empirical measure needs at least one particle")
        if not np.all(np.isfinite(arr)):
            raise InvalidFieldError("empirical measure contains non-finite particle values")
        object.__setattr__(self, "states", arr)

    @classmethod
    def from_functions(cls, particles: list[GridFunction]) -> "EmpiricalMeasure":
        if not particles:
            raise ValidationError("empirical measure needs at least one particle")
        g = particles[0].grid
        for p in particles[1:]:
            if p.grid != g:
                raise GridMismatchError("all particles must share one grid")
        return cls(g, np.stack([p.values for p in particles]))

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    def particle(self, i: int) -> GridFunction:
        return GridFunction(self.grid, self.states[i])

    def flat(self) -> np.ndarray:
        """Particles flattened to shape ``(N, n_cells)``."""
        return self.states.reshape(self.n_particles, -1)


def second_moment(mu: EmpiricalMeasure) -> float:
    """Mean squared L2 norm of the atoms, ``mu(||.||^2)``."""
    w = mu.grid.cell_volume
    return float(np.mean(np.sum(mu.flat() ** 2, axis=1)) * w)


def _cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> np.ndarray:
    """Pairwise squared L2 distances between atoms, shape (N, N).

    Computed from explicit differences rather than the expanded
    ``|a|^2 + |b|^2 - 2ab`` form: the expansion cancels catastrophically
    for nearby atoms, which would put a spurious ~1e-8 floor under the
    distance between equal ensembles.
    """
    a, b = mu.flat(), nu.flat()
    w = mu.grid.cell_volume
    cost = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        d = b - a[i]
        cost[i] = w * np.einsum("jk,jk->j", d, d)
    return cost


def wasserstein2(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Quadratic Wasserstein distance between equal-size ensembles.

    Solved as an exact optimal assignment over the squared-distance
    cost matrix; ensembles of different particle counts are rejected
    rather than resampled.
    """
    if mu.grid != nu.grid:
        raise GridMismatchError("measures live on different grids")
    if mu.n_particles != nu.n_particles:
        raise ValidationError(
            f"particle counts differ ({mu.n_particles} vs {nu.n_particles}); "
            "equal-size ensembles are required"
        )
    cost = _cost_matrix(mu, nu)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum() / mu.n_particles))


@dataclass(frozen=True)
class MeasureFlow:
    """A time-indexed family of empirical measures on a common grid.

    ``states`` has shape ``(n_times, N, *grid.shape)``; the particle
    count is constant along the flow.
    """

    grid: SpatialGrid
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        arr = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValidationError("flow needs a one-dimensional, non-empty time array")
        if np.any(np.diff(t) <= 0.0):
            raise ValidationError("flow times must be strictly increasing")
        expected_nd = self.grid.dim + 2
        if arr.ndim != expected_nd or arr.shape[0] != t.size or arr.shape[2:] != self.grid.shape:
            raise ValidationError(
                f"flow state array shape {arr.shape} does not match "
                f"(n_times={t.size}, N, *{self.grid.shape})"
            )
        # node by node: one isfinite over the flow would build a mask an eighth its
        # size; a time stride of 0 repeats one node, so that node is checked once
        if not all(np.isfinite(node).all() for node in (arr[:1] if arr.strides[0] == 0 else arr)):
            raise InvalidFieldError("measure flow contains non-finite values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", arr)

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def n_particles(self) -> int:
        return self.states.shape[1]

    def measure(self, s: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.grid, self.states[s])

    @classmethod
    def _checked(cls, grid: SpatialGrid, times: np.ndarray, states: np.ndarray) -> "MeasureFlow":
        """The flow of float arrays already checked finite node by node, as the step
        kernel checks each node it makes: built without scanning them again."""
        flow = object.__new__(cls)
        for name, value in (("grid", grid), ("times", times), ("states", states)):
            object.__setattr__(flow, name, value)
        return flow

    @classmethod
    def constant(cls, mu: EmpiricalMeasure, times: np.ndarray) -> "MeasureFlow":
        """The flow frozen at ``mu`` for every node: a read-only view, with time
        stride 0, of one copy of ``mu``'s atoms, so it holds one node's data."""
        t = np.asarray(times, dtype=float)
        return cls(mu.grid, t, np.broadcast_to(mu.states.copy(), (t.size,) + mu.states.shape))


# The optimal assignment costs no more than the identity matching, but
# both are computed as float sums of non-negative terms (at most N * cells
# of them: 65,536 for 64 particles on a 32 x 32 grid), each off by at most
# that count times 2**-53 relative, below 1e-11 here.  Inflating the
# bound by 1e-9 keeps it above the solver's computed optimum for any flow
# with fewer than about 4 million particle-cells per node; rounding is
# monotone, so the weighted bound stays above the weighted exact value
# and a node whose bound cannot beat the running maximum is safely skipped.
_BOUND_MARGIN = 1e-9

# New nodes that a streamed sweep holds back from overwriting the old flow:
# those with the largest weighted bounds, the likeliest to hold the sup.
_HELD_NODES = 8


def _weights(times: np.ndarray, lam: float) -> np.ndarray:
    if not (0.0 <= float(lam) < np.inf):
        raise ValidationError(f"lam must be finite and >= 0, got {lam!r}")
    return np.exp(-float(lam) * times)


def _identity_bound(a: np.ndarray, b: np.ndarray, diff: np.ndarray, w: float) -> float:
    """W2 between the ensembles ``a`` and ``b`` at most: the identity matching's
    cost, inflated by ``_BOUND_MARGIN``.  ``diff`` is a buffer of their shape."""
    d = np.subtract(b, a, out=diff).reshape(-1)
    return np.sqrt(w * np.dot(d, d) / a.shape[0]) * (1.0 + _BOUND_MARGIN)


def _pruned_sup(bounds: np.ndarray, weight: np.ndarray, solve) -> float:
    """``max_s weight[s] * solve(s)``, given ``bounds[s]`` at or above each term:
    nodes are solved in descending bound order until no bound beats the running
    maximum, which a node left unsolved then cannot hold."""
    best = 0.0
    for s in np.argsort(-bounds, kind="stable"):
        if bounds[s] <= best:
            break
        best = max(best, float(weight[s] * solve(s)))
    return best


def _node_w2(grid: SpatialGrid, a: np.ndarray, b: np.ndarray) -> float:
    return wasserstein2(EmpiricalMeasure(grid, a), EmpiricalMeasure(grid, b))


class FlowPairW2:
    """The weighted sup metric between two flows, solved node by node on demand.

    ``sup(lam)`` is ``max_s exp(-lam t_s) W2(mu(t_s), nu(t_s))``, the
    same float as solving every node.  Node solves are cached across
    ``lam``, and a node whose pair of ensembles equals the previous
    node's bit for bit reuses that node's solve.  Both flows must share
    the grid, the time nodes and the particle count; no temporal
    interpolation is attempted.
    """

    def __init__(self, mu: MeasureFlow, nu: MeasureFlow):
        if mu.grid != nu.grid:
            raise GridMismatchError("flows live on different grids")
        if mu.times.shape != nu.times.shape or not np.array_equal(mu.times, nu.times):
            raise GridMismatchError("flows are sampled on different time nodes")
        if mu.n_particles != nu.n_particles:
            raise ValidationError(
                f"flow particle counts differ ({mu.n_particles} vs {nu.n_particles})"
            )
        self.mu, self.nu = mu, nu
        self._bound = np.empty(mu.n_times)
        diff = np.empty(mu.states.shape[1:])
        # rep[s]: the first node of the run of bitwise-equal pairs holding s;
        # equal pairs give equal bounds, so only tied bounds are compared
        self._rep = list(range(mu.n_times))
        for s, (a, b) in enumerate(zip(mu.states, nu.states)):
            self._bound[s] = _identity_bound(a, b, diff, mu.grid.cell_volume)
            if (s and self._bound[s] == self._bound[s - 1] and np.array_equal(a, mu.states[s - 1])
                    and np.array_equal(b, nu.states[s - 1])):
                self._rep[s] = self._rep[s - 1]
        self._solved: dict[int, float] = {}

    def _node(self, s: int) -> float:
        r = self._rep[s]
        if r not in self._solved:
            self._solved[r] = _node_w2(self.mu.grid, self.mu.states[r], self.nu.states[r])
        return self._solved[r]

    def sup(self, lam: float) -> float:
        """Exact weighted sup; ``lam = 0`` gives the plain sup."""
        weight = _weights(self.mu.times, lam)
        return _pruned_sup(weight * self._bound, weight, self._node)


def flow_distance(mu: MeasureFlow, nu: MeasureFlow, lam: float) -> float:
    """Weighted sup distance ``sup_t exp(-lam t) W2(mu(t), nu(t))``.

    See :class:`FlowPairW2` for the checks on the flows and on ``lam``.
    """
    return FlowPairW2(mu, nu).sup(lam)


def _streamed_sup(
    grid: SpatialGrid, times: np.ndarray, lam: float, old: np.ndarray, nodes, out: np.ndarray,
    old_nodes,
) -> float:
    """Store the flow that ``nodes`` yields, node 0 first, in ``out``, shape
    ``(S+1, N, *grid.shape)``, and return its weighted sup distance from the flow
    ``old``: the float ``flow_distance`` gives, with one flow held, not two.

    ``out`` may be ``old`` itself.  Each new node overwrites its slot once it is
    bounded against the old node there, except the ``_HELD_NODES`` with the largest
    weighted bounds, which are held back and solved after the sweep under the
    pruning rule of :meth:`FlowPairW2.sup`.  Should an overwritten node still beat
    the running maximum, ``old_nodes()`` yields the old flow's nodes, node 0 first:
    ``old``'s own if ``out`` is a buffer apart, or else rebuilt; every such node
    is then solved against its new one.
    """
    weight, w = _weights(times, lam), grid.cell_volume
    bounds = np.empty(times.size)
    diff = np.empty(old.shape[1:])
    held: dict[int, np.ndarray] = {}
    smallest: list[tuple[float, int]] = []  # heap of the held nodes' bounds
    for s, node in enumerate(nodes):
        bounds[s] = weight[s] * _identity_bound(old[s], node, diff, w)
        held[s] = node
        heapq.heappush(smallest, (bounds[s], s))
        if len(held) > _HELD_NODES:
            evicted = heapq.heappop(smallest)[1]
            out[evicted] = held.pop(evicted)

    exact: dict[int, float] = {}

    def solve(s: int) -> float:
        if s in held:
            exact[s] = _node_w2(grid, old[s], held[s])
        elif s not in exact:  # overwritten: solve every overwritten node that may still hold the max
            floor = max((weight[r] * v for r, v in exact.items()), default=0.0)
            for t, node in enumerate(old_nodes()):
                if t not in held and bounds[t] > floor:
                    exact[t] = _node_w2(grid, node, out[t])
        return exact[s]

    dist = _pruned_sup(bounds, weight, solve)
    for s, node in held.items():
        out[s] = node
    return dist


# -- persistence -------------------------------------------------------


def save_measure(mu: EmpiricalMeasure, directory: str | Path) -> Path:
    """Write one CSV per particle plus a manifest into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(mu.n_particles - 1)))
    for i in range(mu.n_particles):
        save_grid_function(mu.particle(i), directory / f"particle_{i:0{width}d}.csv")
    manifest = {
        "n_particles": mu.n_particles,
        "grid": mu.grid.geometry(),
        "particle_files": [f"particle_{i:0{width}d}.csv" for i in range(mu.n_particles)],
    }
    (directory / "measure_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return directory


def load_measure(directory: str | Path) -> EmpiricalMeasure:
    """Read an ensemble written by :func:`save_measure`."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "measure_manifest.json").read_text())
        names, count = manifest["particle_files"], int(manifest["n_particles"])
    except (OSError, UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(
            f"{directory}: missing or malformed measure_manifest.json: {type(exc).__name__} {exc}"
        ) from None
    mu = EmpiricalMeasure.from_functions([load_grid_function(directory / n) for n in names])
    if mu.n_particles != count:
        raise ValidationError(f"{directory}: manifest particle count mismatch")
    return mu
