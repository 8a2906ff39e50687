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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridMismatchError, ValidationError
from .grid import GridFunction, SpatialGrid, _check_nodes, _field_array, _le_f8, _load_blob
from .grid import _time_nodes, _write_blob

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

    ``states`` has shape ``(N, *grid.shape)`` with ``N >= 1``, checked by
    :func:`~fracmv.grid._field_array`.
    """

    grid: SpatialGrid
    states: np.ndarray

    def __post_init__(self):
        arr = _field_array("empirical measure", self.states, self.grid, ("N",))
        if arr.shape[0] < 1:
            raise ValidationError("empirical measure needs at least one particle")
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


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's exact assignment solve of ``cost``, its rows and columns.

    scipy is imported on the first call, so a run that solves no W2
    (``simulate``, ``skeleton``, ``rate``) never loads it.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


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
    count is constant along the flow.  The times pass :func:`~fracmv.grid._time_nodes`,
    the states :func:`~fracmv.grid._field_array` node by node.
    """

    grid: SpatialGrid
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = _time_nodes("measure flow", self.times)
        arr = _field_array("measure flow", self.states, self.grid, (t.size, "N"), by_node=True)
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
        _check_nodes("second flow", nu, mu.grid, mu.times)
        if mu.n_particles != nu.n_particles:
            raise ValidationError(
                f"flow particle counts differ ({mu.n_particles} vs {nu.n_particles})"
            )
        self.mu, self.nu = mu, nu
        # _bound[s]: the identity matching's cost at node s, inflated by _BOUND_MARGIN
        self._bound = np.empty(mu.n_times)
        diff = np.empty(mu.states.shape[1:])
        w, n = mu.grid.cell_volume, mu.n_particles
        # rep[s]: the first node of the run of bitwise-equal pairs holding s;
        # equal pairs give equal bounds, so only tied bounds are compared
        self._rep = list(range(mu.n_times))
        for s, (a, b) in enumerate(zip(mu.states, nu.states)):
            d = np.subtract(b, a, out=diff).reshape(-1)
            self._bound[s] = np.sqrt(w * np.dot(d, d) / n) * (1.0 + _BOUND_MARGIN)
            if (s and self._bound[s] == self._bound[s - 1] and np.array_equal(a, mu.states[s - 1])
                    and np.array_equal(b, nu.states[s - 1])):
                self._rep[s] = self._rep[s - 1]
        self._solved: dict[int, float] = {}

    def _node(self, s: int) -> float:
        r = self._rep[s]
        if r not in self._solved:
            g = self.mu.grid
            self._solved[r] = wasserstein2(EmpiricalMeasure(g, self.mu.states[r]),
                                           EmpiricalMeasure(g, self.nu.states[r]))
        return self._solved[r]

    def sup(self, lam: float) -> float:
        """Exact weighted sup; ``lam = 0`` gives the plain sup.  Nodes are solved in
        descending bound order until no bound beats the running maximum, which a node
        left unsolved then cannot hold."""
        if not (0.0 <= float(lam) < np.inf):
            raise ValidationError(f"lam must be finite and >= 0, got {lam!r}")
        weight = np.exp(-float(lam) * self.mu.times)
        bounds = weight * self._bound
        best = 0.0
        for s in np.argsort(-bounds, kind="stable"):
            if bounds[s] <= best:
                break
            best = max(best, float(weight[s] * self._node(s)))
        return best


def flow_distance(mu: MeasureFlow, nu: MeasureFlow, lam: float) -> float:
    """Weighted sup distance ``sup_t exp(-lam t) W2(mu(t), nu(t))``.

    See :class:`FlowPairW2` for the checks on the flows and on ``lam``.
    """
    return FlowPairW2(mu, nu).sup(lam)


# -- persistence -------------------------------------------------------


_MEASURE_MAGIC = b"FRACMVMEAS1\n"


def save_measure(mu: EmpiricalMeasure, path: str | Path) -> Path:
    """Write the ensemble as one blob file (:func:`~fracmv.grid._write_blob`): a magic
    line, the header ``{dtype, grid, n_particles}``, then the atoms' values, particle by
    particle, as little-endian float64, written from ``mu.states`` without a copy."""
    header = {"grid": mu.grid.geometry(), "n_particles": mu.n_particles}
    return _write_blob(path, _MEASURE_MAGIC, header, _le_f8(mu.states))


def load_measure(path: str | Path) -> EmpiricalMeasure:
    """Read an ensemble written by :func:`save_measure`."""
    return _load_blob(path, _MEASURE_MAGIC, "measure", "n_particles", 0, lambda grid, n, data:
                      EmpiricalMeasure(grid, data.reshape((n,) + grid.shape)))
