"""Time stepping for the frozen-measure, deterministic, and controlled equations.

One semi-implicit step from node ``s`` reads::

    u~      = u_s + dt * (g_s - f_s / (1 + dt |f_s|))
              + sigma_s(dt * v_s + sqrt(eps) * dW_s)
    u_{s+1} = (I + dt (-lap)^alpha)^(-1) u~

with every coefficient evaluated at the left node (the measure argument
is frozen there as well); ``sigma_s`` is linear, so it is applied once, to
the drive in parentheses, ``theta_s``, which the caller forms: the particle
system, the controlled skeleton and a tilted path differ only in it.  The
polynomial drift is tamed pointwise, the fractional diffusion is treated by
the exact spectral resolvent, and a non-finite state aborts the run with the
offending step attached.

The law enters only through three scalars per node, so all solvers
share one batched kernel that advances ``N`` paths against one such
triple per step: the particle ensemble of the fixed-point map, and with
``N = 1`` the three single-path solvers, which differ only in where the
measure comes from: a caller-supplied flow (``solve_frozen``), the Dirac
mass at the current state (``solve_deterministic``), or the Dirac mass
along a precomputed deterministic path (``solve_controlled``).  Stacks
of controls against one such path run as rows of one batch.

A node's triple fixes the step's state-free fields
(:meth:`CoefficientSet.node_fields`), so the kernel does only the work that
depends on the state.  Where the law moves with the state they are built node
by node while stepping; a frozen law, a given flow or the Dirac mass along
``base``, is one table of them built before the first step, which the
controlled solver shares with its adjoint sweeps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coefficients import CoefficientSet, NodeFields, law_from_sums, law_statistics
from .errors import BlowUpError, ValidationError
from .grid import (
    GridFunction,
    SpatialGrid,
    _check_count,
    _check_nodes,
    _check_positive,
    _field_array,
    _time_nodes,
    sq_norms,
    sq_seminorms,
    sq_v_norms,
)
from .measure import MeasureFlow

__all__ = [
    "TimeGrid",
    "NoisePath",
    "Control",
    "Trajectory",
    "stable_seed_key",
    "solve_frozen",
    "solve_deterministic",
    "solve_controlled",
    "energy_residual",
    "sup_distance",
    "integrated_v_distance",
    "save_trajectory",
    "load_trajectory",
    "save_control",
    "load_control",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time nodes ``t_s = s * T / S`` for ``s = 0 .. S``."""

    horizon: float
    steps: int

    def __post_init__(self):
        _check_positive("horizon", self.horizon)
        object.__setattr__(self, "horizon", float(self.horizon))
        _check_count("steps", self.steps)
        most = np.iinfo(np.intp).max // 8  # float64 nodes: numpy holds no more bytes than an intp
        if self.steps >= most:
            raise ValidationError(f"steps must be below {most}, got {self.steps!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


def stable_seed_key(master_seed: int, role: str, index: int = 0) -> int:
    """Derive a 128-bit stream key from ``(master, role, index)``.

    Hash-based so distinct roles and indices give independent streams
    and the derivation is stable across platforms and processes.
    """
    payload = f"{int(master_seed)}|{role}|{int(index)}".encode()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Control:
    """Piecewise-constant control, one row of mode coefficients per step."""

    values: np.ndarray
    dt: float
    _what = "control"  # the path's name in its refusals

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(f"{self._what} values must be 2-d, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{self._what} contains non-finite values")
        _check_positive(f"{self._what} dt", self.dt, "must be finite and positive")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "dt", float(self.dt))

    @classmethod
    def zero(cls, tgrid: TimeGrid, n_modes: int) -> "Control":
        _check_count("n_modes", n_modes)
        return cls(np.zeros((tgrid.steps, n_modes)), tgrid.dt)

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def check_shape(self, what: str, steps: int, n_modes: int, dt: float) -> None:
        """Refuse the path unless it has one row per step, one column per mode and
        the run's step size ``dt`` (to a relative 1e-12): a path drawn or costed
        with another step would be integrated with ``dt`` all the same."""
        if self.values.shape != (steps, n_modes):
            raise ValidationError(
                f"{what} has shape {self.values.shape}, "
                f"expected (steps, modes) = ({steps}, {n_modes})"
            )
        if abs(self.dt - dt) > 1e-12 * dt:
            raise ValidationError(f"{what} has dt={self.dt!r}, but the time grid has dt={dt!r}")

    def l2_norm_sq(self) -> float:
        """Squared norm in L2(0, T; l2): ``sum_s dt * |v_s|^2``."""
        return float(self.dt * np.sum(self.values**2))

    def scaled(self, c: float) -> "Control":
        return Control(float(c) * self.values, self.dt)


class NoisePath(Control):
    """Brownian increments ``dW``: a :class:`Control` whose rows are the steps'
    increments, with its checks, and ``increments`` a read-only name for them.

    Entry ``(s, k)`` is draw number ``s * K + k`` of a counter-based
    stream keyed by ``(master seed, particle index)``, hence a pure
    function of ``(seed, particle, step, mode)`` regardless of how many
    paths are generated or in what order.
    """

    _what = "noise"

    @classmethod
    def generate(
        cls, tgrid: TimeGrid, n_modes: int, master_seed: int, particle: int = 0
    ) -> "NoisePath":
        _check_count("n_modes", n_modes)
        gen = cls.generator(master_seed, particle)
        return cls(cls.draw(gen, np.empty((tgrid.steps, n_modes)), tgrid.dt), tgrid.dt)

    @staticmethod
    def generator(master_seed: int, particle: int) -> np.random.Generator:
        """The stream of particle ``particle`` under ``master_seed``, at its first draw."""
        key = stable_seed_key(master_seed, "noise", particle)
        return np.random.Generator(np.random.Philox(key=key))

    @staticmethod
    def draw(gen: np.random.Generator, out: np.ndarray, dt: float) -> np.ndarray:
        """The next ``out.size`` draws of ``gen`` as increments over a step ``dt``, written
        in order into ``out`` (C-contiguous, ``(steps, K)``): drawn a block of steps at a
        time, a stream gives the rows of one call."""
        gen.standard_normal(out=out)
        out *= math.sqrt(dt)
        return out

    @property
    def increments(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class Trajectory:
    """A path of fields over the time nodes, shape ``(S+1, *grid.shape)``; the times
    pass :func:`~fracmv.grid._time_nodes`, the values :func:`~fracmv.grid._field_array`."""

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _time_nodes("trajectory", self.times)
        arr = _field_array("trajectory", self.values, self.grid, (t.size,))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", arr)

    @property
    def n_nodes(self) -> int:
        return self.times.size

    def state(self, s: int) -> GridFunction:
        return GridFunction(self.grid, self.values[s])


def _check_epsilon(eps: float) -> float:
    e = float(eps)
    if not (0.0 <= e < 1.0):
        raise ValidationError(f"epsilon must lie in [0, 1), got {eps!r}")
    return e


# The state-dependent part of a step runs over particle slabs of at most this many
# bytes of fields, so its buffers, the spectrum and sigma's state term are slab-sized
# and a slab stays in cache from f to the squared sums of its next node.  Measured on
# a 2-vCPU Xeon (2 MiB L2 a core): 64-512 KiB slabs swept 2-d 32^2 at N = 1,024 in
# 1.5-1.7 s and 1-d 128 cells at N = 4,096 in 1.3-1.6 s, against 2.3 s and 1.7 s as
# one batch; 32 KiB lost it to per-slab overhead (0.52 s against 0.37 s at 2-d N = 64).
_SLAB_BYTES = 128 * 1024


def _square_sums(fields: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """Each field's sum of squared values over its cells, into ``out``, with the
    squares in ``scratch`` (shaped like ``fields``): :func:`law_statistics`'s sums."""
    np.sum(np.square(fields, out=scratch).reshape(len(fields), -1), axis=-1, out=out)


def _step_nodes(
    grid: SpatialGrid,
    coeffs: CoefficientSet,
    starts: np.ndarray,
    tgrid: TimeGrid,
    law: NodeFields | None,
    theta=None,
):
    """Advance ``N`` paths from ``starts``, shape ``(N, *grid.shape)``, one step of
    the scheme per node, yielding the nodes ``0 .. S`` as they are made: ``starts``
    itself, then each step's state, checked finite.  A yielded node is the kernel's
    state: read it, keep it, but never write into it.  Each whole step, the law read
    included, runs under ``np.errstate(over="ignore", invalid="ignore")`` and leaves
    it before the ``yield``: a step that overflows is caught by the finite check, not
    warned about, and no consumer sees the state.

    ``law`` is the table of a frozen law (:func:`_law_table`), or None to take the
    law from the current state (the Dirac mass of a single path).  ``theta`` is
    sigma's drive, any iterable of one ``(N, K)`` row of mode coefficients per step,
    ``theta_s = dt v_s + sqrt(eps) dW_s``, such as an ``(S, N, K)`` array or
    :func:`~fracmv.mckean_vlasov._noise_rows`; each row is read in its own step,
    before the next is asked for.  None drives nothing: sigma is not applied.

    A step makes its node into a fresh array, slab by slab (``_SLAB_BYTES``): f, its
    taming, g, sigma's drive and the resolvent run on one slab of paths at a time,
    through three slab-sized buffers reused every step, and the inverse transform
    writes the slab straight into the node.  With ``law`` None the law is read from
    each path's sum of squares, which the kernel takes slab by slab as it writes the
    slab, so no node is squared whole; node 0's sums are taken in the first step.  A
    row of the batch sees the same arithmetic in any slab, so it equals its one-row
    run bit for bit.  ``starts`` is let go once yielded, so the stream holds the node
    it reads, the one it makes and the slab.
    """
    S, dt, nodes = tgrid.steps, tgrid.dt, tgrid.nodes
    res_mult = grid.resolvent_multiplier(coeffs.alpha, dt)
    rows = None if theta is None else iter(theta)
    n = starts.shape[0]
    per_slab = max(1, min(n, _SLAB_BYTES // (8 * grid.n_cells)))
    # one buffer each for f, its taming and g, reused every step and slab: fresh
    # batches each step can be handed back to the system and faulted in again
    bufs = np.empty((3, per_slab) + grid.shape)
    slabs = []  # (paths, f's buffer, the taming's, g's), sliced once
    for a in range(0, n, per_slab):
        k = min(per_slab, n - a)
        slabs.append((slice(a, a + k), *bufs[:, :k]))
    sq = np.empty(n) if law is None else None
    vals = starts
    del starts
    yield vals
    for s in range(S):
        with np.errstate(over="ignore", invalid="ignore"):
            if law is None:
                if s == 0:
                    for sl, _, scratch, _ in slabs:
                        _square_sums(vals[sl], scratch, sq[sl])
                row = law_from_sums(sq, grid, coeffs.f.h_cap)
                node = coeffs.node_fields(grid, float(nodes[s]), row)
            else:
                node = NodeFields._make(col[s] for col in law)
            if rows is not None:
                theta_s = next(rows)
            made = np.empty(vals.shape)
            for sl, f_buf, tamed_buf, g_buf in slabs:
                u = vals[sl]
                f = coeffs.f.values(u, node.phi_h, f_buf)
                tamed = np.abs(f, out=tamed_buf)
                tamed *= dt
                tamed += 1.0
                f /= tamed
                tilde = coeffs.g.values(u, node.psi, node.c2_h, g_buf)
                tilde -= f
                tilde *= dt
                tilde += u
                if rows is not None:
                    tilde += coeffs.sigma.drive(node.free, u, theta_s[sl], out=f)
                out = grid.apply_multiplier(tilde, res_mult, out=made[sl])
                if not np.isfinite(out).all():
                    finite = np.isfinite(out.reshape(len(out), -1)).all(axis=1)
                    particle = sl.start + int(np.argmin(finite)) if n > 1 else None
                    raise BlowUpError(s, float(nodes[s + 1]), particle)
                if law is None:
                    _square_sums(out, tamed_buf, sq[sl])
            vals = made
            del u  # a view of the node read: held past the yield, it would keep that node
        yield vals


def _collect(nodes, n_nodes: int) -> np.ndarray:
    """The ``n_nodes`` nodes a :func:`_step_nodes` stream yields, collected into one
    array shaped ``(n_nodes, *node.shape)`` by the first node read."""
    for s, vals in enumerate(nodes):
        if s == 0:
            out = np.empty((n_nodes,) + vals.shape)
        out[s] = vals
    return out


def _law_table(coeffs: CoefficientSet, grid: SpatialGrid, times: np.ndarray, nodes) -> NodeFields:
    """The node fields of the law frozen at each left node, stacked into one table indexed
    by step.  ``nodes``, a flow's states or a :func:`_step_nodes` stream, is read node by
    node through ``zip(times[:-1], nodes)``, so a stream's last step is never run and no
    call squares a copy of a flow."""
    by_node = [coeffs.node_fields(grid, t, law_statistics(mu, grid, coeffs.f.h_cap))
               for t, mu in zip(times[:-1], nodes)]
    return NodeFields(*map(np.stack, zip(*by_node)))


def _single_path(u0: GridFunction, coeffs: CoefficientSet, tgrid: TimeGrid, frozen=None,
                 theta=None) -> Trajectory:
    """The path of :func:`_step_nodes` from ``u0`` alone, on the coefficients' grid, against
    the law frozen along the nodes ``frozen`` (:func:`_law_table`) or, with None, the Dirac
    mass at the path itself; ``theta`` as there, with rows of shape ``(1, K)``."""
    grid = u0.grid
    _check_nodes("initial state", u0, coeffs.sigma.grid)
    law = None if frozen is None else _law_table(coeffs, grid, tgrid.nodes, frozen)
    nodes = _step_nodes(grid, coeffs, u0.values[None], tgrid, law, theta)
    return Trajectory(grid, tgrid.nodes, _collect(nodes, tgrid.steps + 1)[:, 0])


def solve_frozen(
    u0: GridFunction,
    mu_flow: MeasureFlow,
    coeffs: CoefficientSet,
    tgrid: TimeGrid,
    eps: float = 0.0,
    noise: NoisePath | None = None,
) -> Trajectory:
    """Integrate against a prescribed measure flow (left-node freezing)."""
    eps, theta = _check_epsilon(eps), None
    if eps > 0.0:
        if noise is None:
            raise ValidationError("epsilon > 0 requires a noise path")
        noise.check_shape("noise", tgrid.steps, coeffs.sigma.n_modes, tgrid.dt)
        theta = math.sqrt(eps) * noise.increments[:, None]
    _check_nodes("measure flow", mu_flow, coeffs.sigma.grid, tgrid.nodes)
    return _single_path(u0, coeffs, tgrid, mu_flow.states, theta)


def solve_deterministic(u0: GridFunction, coeffs: CoefficientSet, tgrid: TimeGrid) -> Trajectory:
    """Zero-noise dynamics with the measure argument set to the current state.

    Self-consistent because the law of a deterministic path is the
    point mass travelling along it.
    """
    return _single_path(u0, coeffs, tgrid)


def _controlled_solver(u0: GridFunction, base: Trajectory, coeffs: CoefficientSet, tgrid: TimeGrid):
    """Check a controlled run's start and base; return the controlled map, its exact adjoint
    and its Gauss-Newton matrix, which share one table of node fields of the law along
    ``base``, built once here.

    ``paths`` maps a stack of controls ``(m, S, K)`` to their paths ``(m, S+1, *grid.shape)``.
    Each row of a stack equals its own solve bit for bit, and a blow-up names its row (none
    for a single path).  ``pullback`` maps (control, path, an objective's derivative ``j_u``
    at each node) to the flat derivative in the control.  The law is frozen, ``R``
    self-adjoint: ``lam_S = j_u[S]``, ``lam_s = R lam_{s+1} du~/du_s + j_u[s]``.

    ``normal`` maps (control, path, one weight per node ``w``, shape ``(S+1, ...)``) to
    ``sum_s w_s J_s^T J_s``, shape ``(S K, S K)``, where ``J_s`` is the path's node ``s``
    differentiated in the flat control.  A tangent sweep carries the unit directions:
    ``du_{s+1} = R (du~/du_s du_s + dt sigma_s(u_s) dv_s)``.  Causality bounds it, since
    before step ``s`` only the directions of steps ``< s`` have moved the path; each node's
    ``J_s`` is folded into the sum and dropped, so no ``J`` is stored."""
    grid = u0.grid
    _check_nodes("initial state", u0, coeffs.sigma.grid)
    _check_nodes("base trajectory", base, grid, tgrid.nodes)
    if not np.array_equal(base.values[0], u0.values):
        raise ValidationError("base trajectory does not start at the given initial state")
    table = _law_table(coeffs, grid, tgrid.nodes, base.values[:, None])
    f, g, sig = coeffs.f, coeffs.g, coeffs.sigma
    S, K, dt = tgrid.steps, sig.n_modes, tgrid.dt
    res_mult = grid.resolvent_multiplier(coeffs.alpha, dt)

    def paths(controls: np.ndarray) -> np.ndarray:
        starts = np.repeat(u0.values[None], len(controls), axis=0)
        theta = dt * np.ascontiguousarray(controls.transpose(1, 0, 2))
        nodes = _step_nodes(grid, coeffs, starts, tgrid, table, theta)
        return _collect(nodes, S + 1).swapaxes(0, 1)

    def step_jacobian(v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``du~_s/du_s`` at the left nodes ``u`` (diagonal): taming, g and sigma."""
        tamed = f.power_derivative(u) / (1.0 + dt * np.abs(f.values(u, table.phi_h))) ** 2
        return 1.0 + dt * (g.derivative(table.psi, u) - tamed) + sig.derivative(dt * v)

    def pullback(v: np.ndarray, u: np.ndarray, j_u: np.ndarray) -> np.ndarray:
        u = u[:-1]
        jac = step_jacobian(v, u)
        mu, lam = np.empty_like(u), j_u[S]
        for s in range(S - 1, -1, -1):
            mu[s] = grid.apply_multiplier(lam, res_mult)
            lam = mu[s] * jac[s] + j_u[s]
        return dt * sig.drive_adjoint(table.free, u, mu).ravel()

    def normal(v: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        u, root_w = u[:-1], np.sqrt(w.reshape(-1))
        jac = step_jacobian(v, u)
        units, k_shape = dt * np.eye(K), (K,) + grid.shape
        out = np.zeros((S * K, S * K))
        tangents = np.empty((S * K,) + grid.shape)  # row s K + k: direction (s, k)
        for s in range(S):
            m = (s + 1) * K
            tangents[: m - K] *= jac[s]
            tangents[m - K : m] = sig.drive(table.free[s], np.broadcast_to(u[s], k_shape), units)
            tangents[:m] = grid.apply_multiplier(tangents[:m], res_mult)
            if root_w[s + 1]:
                rows = root_w[s + 1] * tangents[:m].reshape(m, -1)
                out[:m, :m] += rows @ rows.T
        return out

    return paths, pullback, normal


def solve_controlled(
    u0: GridFunction,
    control: Control,
    base: Trajectory,
    coeffs: CoefficientSet,
    tgrid: TimeGrid,
) -> Trajectory:
    """Deterministic dynamics driven by a control through the noise operator.

    The measure argument is frozen to the point mass along ``base``, the
    zero-noise solution from the same initial state; it is not the law
    of the controlled path itself.
    """
    control.check_shape("control", tgrid.steps, coeffs.sigma.n_modes, tgrid.dt)
    paths = _controlled_solver(u0, base, coeffs, tgrid)[0]
    return Trajectory(u0.grid, tgrid.nodes, paths(control.values[None])[0])


# -- energy bookkeeping --------------------------------------------------


def energy_residual(
    traj: Trajectory,
    coeffs: CoefficientSet,
    control: Control | None = None,
    base: Trajectory | None = None,
) -> np.ndarray:
    """Per-node defect of the zero-noise energy balance.

    The continuous identity balances ``||u(t)||^2`` against the initial
    energy, the fractional dissipation, the drift work, and (for
    controlled paths) the control work::

        ||u(t)||^2 + 2 int (|u|_alpha^2 + <f, u>) = ||u_0||^2
                   + 2 int (<g, u> + <sigma v, u>)

    Discretely, dissipation is charged at the right node (matching the
    implicit resolvent) and the drift terms at the left node (matching
    the explicit evaluation), giving a first-order residual in ``dt``.
    The untamed drift enters here: the defect includes what taming
    discarded, which is itself first order.  ``base`` supplies the
    measure argument for controlled paths; by default the measure is
    the point mass at the trajectory's own state.
    """
    g = traj.grid
    sig = coeffs.sigma
    S = traj.n_nodes - 1
    if S < 1:
        raise ValidationError("trajectory must contain at least one step")
    dt = float(traj.times[1] - traj.times[0])
    if control is not None:
        control.check_shape("control", S, sig.n_modes, dt)
    if base is not None:
        _check_nodes("base trajectory", base, g, traj.times)
    w = g.cell_volume
    law = _law_table(coeffs, g, traj.times, (traj if base is None else base).values[:, None])
    energy = sq_norms(traj.values, g)
    semi_sq = sq_seminorms(traj.values[1:], g, coeffs.alpha)

    work = np.zeros(S)
    for s in range(S):
        u_s = traj.values[s]
        node = NodeFields._make(col[s] for col in law)
        f_vals = coeffs.f.values(u_s, node.phi_h)
        g_vals = coeffs.g.values(u_s, node.psi, node.c2_h)
        work[s] = w * float(np.sum((f_vals - g_vals) * u_s))
        if control is not None:
            drive = sig.drive(node.free, u_s[None], control.values[s][None])[0]
            work[s] -= w * float(np.sum(drive * u_s))
    res = np.zeros(S + 1)
    res[1:] = energy[1:] - energy[0] + np.cumsum(2.0 * dt * (semi_sq + work))
    return res


# -- trajectory comparisons ----------------------------------------------


def sup_distance(a: Trajectory, b: Trajectory) -> float:
    """``sup_s || a(t_s) - b(t_s) ||`` in the discrete L2 norm."""
    _check_nodes("second trajectory", b, a.grid, a.times)
    return float(np.sqrt(np.max(sq_norms(a.values - b.values, a.grid))))


def integrated_v_distance(a: Trajectory, b: Trajectory, alpha: float, c_v: float = 1.0) -> float:
    """Left-sum approximation of the L2(0, T; V) distance."""
    _check_nodes("second trajectory", b, a.grid, a.times)
    sq = sq_v_norms(a.values[:-1] - b.values[:-1], a.grid, alpha, c_v)
    return math.sqrt(float(a.times[1] - a.times[0]) * float(np.sum(sq)))


# -- persistence ---------------------------------------------------------

_TRAJ_MAGIC = b"FRACMVTRAJ1\n"


def _le_f8(values) -> memoryview:
    """The bytes of ``values`` as little-endian float64, flat, without a copy where
    they already are."""
    return memoryview(np.ascontiguousarray(values, dtype="<f8").reshape(-1).view(np.uint8))


class _TrajectoryWriter:
    """The one trajectory writer, fed one path's nodes in order, a block of them
    at a time.

    A trajectory is a single self-describing binary file: a magic line, a JSON
    header, then the time and value arrays as little-endian float64.  The
    bytes are a pure function of the payload, so equal trajectories give
    identical files.  The head (header and times) is written here; each
    :meth:`append` opens, writes and closes, so writers hold no file open
    between blocks and a run holds one file open however many it writes.
    """

    def __init__(self, path: str | Path, grid: SpatialGrid, times: np.ndarray):
        self.path = Path(path)
        header = {"grid": grid.geometry(), "n_nodes": len(times), "dtype": "<f8"}
        with open(self.path, "wb") as fh:
            fh.write(_TRAJ_MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(_le_f8(times))

    def append(self, values: np.ndarray) -> None:
        """Write the next nodes, ``values`` of shape ``(b, *grid.shape)``."""
        data = _le_f8(values)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)

    def discard(self) -> None:
        """Remove what this writer has written."""
        self.path.unlink(missing_ok=True)


def save_trajectory(traj: Trajectory, path: str | Path) -> Path:
    """Persist a trajectory as the one file :class:`_TrajectoryWriter` writes."""
    writer = _TrajectoryWriter(path, traj.grid, traj.times)
    writer.append(traj.values)
    return writer.path


def load_trajectory(path: str | Path) -> Trajectory:
    """Read a trajectory file written by :func:`save_trajectory`."""
    path = Path(path)
    if not path.is_file():
        what = "is a directory; a trajectory is one blob file" if path.is_dir() else "not found"
        raise ValidationError(f"{path}: {what}")
    with open(path, "rb") as fh:
        magic = fh.read(len(_TRAJ_MAGIC))
        if magic != _TRAJ_MAGIC:
            raise ValidationError(f"{path}: not a trajectory blob")
        try:
            header = json.loads(fh.readline().decode())
            grid = SpatialGrid.from_geometry(header["grid"])
            n, dtype = header["n_nodes"], header["dtype"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}: malformed trajectory header ({exc})") from exc
        if dtype != "<f8":
            raise ValidationError(f"{path}: header field dtype must be '<f8', got {dtype!r}")
        if type(n) is not int or n < 1:  # JSON's true is an int to isinstance
            raise ValidationError(
                f"{path}: header field n_nodes must be an integer >= 1, got {n!r}"
            )
        count = n * grid.n_cells
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * (n + count):
            raise ValidationError(
                f"{path}: {size} data bytes, but header fields n_nodes = {n} and grid "
                f"({grid.n_cells} cells) make {8 * (n + count)}"
            )
        times, values = fh.read(8 * n), fh.read(8 * count)
    values = np.frombuffer(values, dtype="<f8").reshape((n,) + grid.shape)
    try:
        return Trajectory(grid, np.frombuffer(times, dtype="<f8"), values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_control(v: Control, path: str | Path) -> Path:
    """Write a control matrix as CSV with the step size in the header."""
    path = Path(path)
    header = f"dt={v.dt!r} steps={v.steps} modes={v.n_modes}"
    np.savetxt(path, v.values, delimiter=",", header=header, fmt="%.17g")
    return path


def load_control(path: str | Path) -> Control:
    """Read a control written by :func:`save_control`, refused unless its header's ``dt``
    is finite and positive and its ``steps`` and ``modes`` are the values' shape."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError):
        raise ValidationError(f"{path}: control file not found or not text") from None
    if not lines or not lines[0].startswith("# dt="):
        raise ValidationError(f"{path}: missing control header")
    head = dict(word.partition("=")[::2] for word in lines[0][1:].split())
    try:
        dt = float(head["dt"])
        shape = (int(head["steps"]), int(head["modes"]))
    except (KeyError, ValueError):
        raise ValidationError(
            f"{path}: control header must read 'dt=<number> steps=<int> modes=<int>', "
            f"got {lines[0]!r}"
        ) from None
    if not (0.0 < dt < math.inf):
        raise ValidationError(f"{path}: control header dt must be finite and positive, got {dt!r}")
    try:
        control = Control(np.loadtxt(lines, delimiter=",", ndmin=2), dt)
    except ValueError as exc:  # a ValidationError from Control is one too
        raise ValidationError(f"{path}: malformed control values ({exc})") from None
    if control.values.shape != shape:
        raise ValidationError(
            f"{path}: control header has steps={shape[0]} modes={shape[1]}, "
            f"but the values have shape {control.values.shape}"
        )
    return control
