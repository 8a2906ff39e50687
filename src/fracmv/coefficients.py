"""Coefficient families for the mean-field reaction-diffusion dynamics.

Three ingredients enter the equation: a polynomial dissipative drift
``f``, a bounded reaction term ``g``, and a countable family of noise
modes ``sigma``.  Every family here is parametric with derived
structural constants (dissipation rate, Lipschitz rates, growth bound
fields), and :func:`verify_conditions` audits the claimed inequalities
on randomized draws, reporting worst-case slack per condition.

The measure enters through bounded statistics of the particle
ensemble (:func:`law_statistics`): capped mean norms (drift coupling)
and the root second moment (noise coupling).  All are 1-Lipschitz
along Wasserstein-2, which is what makes the audit's Lipschitz
conditions uniform in the ensemble.  At a time node those scalars fix
the state-free parts of ``f``, ``g`` and ``sigma``
(:meth:`CoefficientSet.node_fields`); each formula is written once, as a
method on field arrays and those parts, and the steppers, the adjoint,
the energy balance and the audit all call it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, ValidationError
from .grid import GridFunction, SpatialGrid, check_fractional_order, l2_norm
from .measure import EmpiricalMeasure, second_moment, wasserstein2

__all__ = [
    "PsiField",
    "TimeProfile",
    "DriftF",
    "DriftG",
    "NoiseSigma",
    "CoefficientSet",
    "NodeFields",
    "law_statistics",
    "law_from_sums",
    "hs_bound_constant",
    "sigma_lipschitz_constant",
    "ConditionCheck",
    "ConditionReport",
    "verify_conditions",
]


@dataclass(frozen=True)
class PsiField:
    """Space-time bound field, positive and integrable in space.

    Two built-in shapes:

    - ``gaussian``: ``amp * exp(-|x|^2 / width^2)``, constant in time;
    - ``separable``: ``amp * (1 + t) * exp(-|x| / width)``.
    """

    kind: str
    amp: float
    width: float = 1.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("gaussian", "separable"):
            raise ValidationError(f"kind must be gaussian or separable, got {self.kind!r}")
        if not (float(self.amp) >= 0.0):
            raise ValidationError(f"amp must be >= 0, got {self.amp!r}")
        if not (float(self.width) > 0.0 and float(self.width) * float(self.width) < math.inf):
            raise ValidationError(f"width must be > 0, with a finite square, got {self.width!r}")

    def spatial(self, grid: SpatialGrid) -> np.ndarray:
        key = ("spatial", grid)
        if key not in self._cache:
            r = grid.radius()
            if self.kind == "gaussian":
                arr = self.amp * np.exp(-(r**2) / self.width**2)
            else:
                arr = self.amp * np.exp(-r / self.width)
            self._cache[key] = arr
        return self._cache[key]

    def time_factor(self, t: float) -> float:
        return 1.0 if self.kind == "gaussian" else 1.0 + float(t)

    def values(self, t: float, grid: SpatialGrid) -> np.ndarray:
        return self.time_factor(t) * self.spatial(grid)


@dataclass(frozen=True)
class TimeProfile:
    """Scalar modulation ``c(t) = offset + amp * sin(freq t + phase)``."""

    offset: float = 1.0
    amp: float = 0.0
    freq: float = 1.0
    phase: float = 0.0

    def __call__(self, t: float) -> float:
        return self.offset + self.amp * math.sin(self.freq * float(t) + self.phase)

    def sup_abs(self, horizon: float) -> float:
        """Exact ``sup_{0 <= t <= T} |c(t)|``.

        The extrema of a sinusoid are its endpoints plus interior
        critical points where the cosine vanishes, all enumerable.
        """
        T = float(horizon)
        if T < 0.0:
            raise ValidationError(f"horizon must be >= 0, got {horizon!r}")
        candidates = [0.0, T]
        if self.amp != 0.0 and self.freq != 0.0:
            a_lo, a_hi = sorted((self.phase, self.freq * T + self.phase))
            k_lo = math.floor((a_lo - math.pi / 2) / math.pi) - 1
            k_hi = math.ceil((a_hi - math.pi / 2) / math.pi) + 1
            for k in range(k_lo, k_hi + 1):
                t_crit = (math.pi / 2 + k * math.pi - self.phase) / self.freq
                if 0.0 <= t_crit <= T:
                    candidates.append(t_crit)
        return max(abs(self(t)) for t in candidates)


def law_statistics(states: np.ndarray, grid: SpatialGrid, h_cap: float) -> np.ndarray:
    """The scalars through which an ensemble enters the coefficients.

    ``states`` holds ``N`` atoms, shape ``(..., N, *grid.shape)``; the
    result has shape ``(..., 3)`` with ``(hbar_f, hbar1, root_m2)``: the
    mean of ``min(||atom||, h_cap)``, the mean of ``min(||atom||, 1)``
    and ``sqrt(mu(||.||^2))``.  The Dirac mass at a field is the
    one-atom ensemble.
    """
    lead = states.shape[: states.ndim - grid.dim]
    return law_from_sums(np.sum(states.reshape(lead + (-1,)) ** 2, axis=-1), grid, h_cap)


def law_from_sums(sq: np.ndarray, grid: SpatialGrid, h_cap: float) -> np.ndarray:
    """The triple of :func:`law_statistics` from each atom's sum of squared values
    over the cells, ``sq`` of shape ``(..., N)``, so a caller that has the sums
    need not square its atoms again."""
    w = grid.cell_volume
    norms = np.sqrt(sq * w)
    return np.stack(
        [
            np.mean(np.minimum(norms, float(h_cap)), axis=-1),
            np.mean(np.minimum(norms, 1.0), axis=-1),
            np.sqrt(np.mean(sq, axis=-1) * w),
        ],
        axis=-1,
    )


# -- drift f -----------------------------------------------------------


@dataclass(frozen=True)
class DriftF:
    """Polynomial dissipative drift with a bounded measure coupling.

    Pointwise form::

        f(t, x, u, mu) = lambda_f * |u|^(p-2) * u + phi(t, x) * hbar(mu)

    with ``hbar`` the capped mean norm of the ensemble.  ``p`` must be
    an even integer >= 2.  ``lambda_f`` is the dissipation rate; the
    model contract requires it positive, which :func:`verify_conditions`
    checks (construction with ``validate=False`` admits broken instances
    for audit exercises).
    """

    p: int
    lambda_f: float
    h_cap: float
    phi: PsiField
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not (isinstance(self.p, (int, np.integer)) and 2 <= self.p <= sys.float_info.max
                and self.p % 2 == 0):
            raise ValidationError(f"p must be an even integer >= 2 that a float holds, got {self.p!r}")
        if not (float(self.h_cap) > 0.0):
            raise ValidationError(f"h_cap must be positive, got {self.h_cap!r}")
        if validate and not (float(self.lambda_f) > 0.0):
            raise ValidationError(f"lambda_f must be positive, got {self.lambda_f!r}")

    # claimed structural constants

    @property
    def dissipation_rate(self) -> float:
        return float(self.lambda_f)

    @property
    def lipschitz_rate(self) -> float:
        return float(self.lambda_f) * (self.p - 1)

    @property
    def growth_rate(self) -> float:
        return float(self.lambda_f)

    @property
    def strong_dissipation_rate(self) -> float:
        """Rate of the strengthened difference form, ``2^(2-p) * lambda_f``."""
        return float(self.lambda_f) * 2.0 ** (2 - self.p)

    def dissipation_bound_values(self, t: float, grid: SpatialGrid) -> np.ndarray:
        """Bound field absorbing the measure coupling, ``(h_cap/2) |phi|``."""
        return 0.5 * self.h_cap * np.abs(self.phi.values(t, grid))

    def measure_coupling_values(self, t: float, grid: SpatialGrid) -> np.ndarray:
        """Bound field in front of the Wasserstein term, ``|phi|``."""
        return np.abs(self.phi.values(t, grid))

    def values(self, u: np.ndarray, phi_h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``f`` at field values ``u`` (any batch of fields), into ``out`` if given: the
        monotone part ``lambda_f |u|^(p-2) u`` (even p) plus the node's ``phi_h = phi(t) hbar_f``."""
        out = np.power(u, self.p - 1, out=out)
        out *= self.lambda_f
        out += phi_h
        return out

    def power_derivative(self, u_values: np.ndarray) -> np.ndarray:
        """The monotone part's derivative ``lambda_f (p-1) u^(p-2)``: ``lambda_f`` when p = 2."""
        return self.lambda_f * (self.p - 1) * u_values ** (self.p - 2)


# -- drift g -----------------------------------------------------------


@dataclass(frozen=True)
class DriftG:
    """Bounded reaction term ``psi(t,x) * (c0 + c1 tanh(u) + c2 hbar1(mu))``.

    ``hbar1`` is the unit-capped mean norm, so both nonlinear slots are
    bounded by 1 and 1-Lipschitz.  The model contract requires
    ``max(|c0|, |c1|, |c2|) <= 1`` so ``psi`` itself bounds the term;
    the audit reports a violation when the contract is broken.
    """

    c0: float
    c1: float
    c2: float
    psi: PsiField
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        for name in ("c0", "c1", "c2"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
            if validate and abs(v) > 1.0:
                raise ValidationError(f"{name} must satisfy |{name}| <= 1, got {v!r}")

    def bound_values(self, t: float, grid: SpatialGrid) -> np.ndarray:
        """The claimed envelope field (``psi`` itself)."""
        return np.abs(self.psi.values(t, grid))

    def values(self, u: np.ndarray, psi_values: np.ndarray, c2_h: float,
               out: np.ndarray | None = None) -> np.ndarray:
        """``g`` at field values ``u`` (any batch of fields), into ``out`` if given, for
        the node's ``psi(t)`` and ``c2_h = c2 hbar1``, the law's unit-capped mean norm."""
        out = np.tanh(u, out=out)
        out *= self.c1
        out += self.c0
        out += c2_h
        out *= psi_values
        return out

    def derivative(self, psi_values: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``dg/du = psi c1 (1 - tanh(u)^2)``, ``psi`` sampled at the nodes of ``u``."""
        return psi_values * self.c1 * (1.0 - np.tanh(u) ** 2)


# -- noise family ------------------------------------------------------


@dataclass(frozen=True)
class NoiseSigma:
    """K-mode diffusion coefficient.

    Mode ``k`` maps a scalar ``theta_k`` to the field::

        (sigma1_k(t, x) + kappa(x) * sigma2_k(t, u(x), mu)) * theta_k

    where ``sigma1_k(t, x) = profile(t) * shape_k(x)`` and
    ``sigma2_k(t, s, mu) = beta_k * sqrt(mu(||.||^2)) + gamma_k * s``.
    The per-mode Lipschitz rate is ``max(beta_k, gamma_k)``.
    """

    shapes: tuple[GridFunction, ...]
    kappa: GridFunction
    beta: np.ndarray
    gamma: np.ndarray
    profile: TimeProfile = TimeProfile()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        shapes = tuple(self.shapes)
        if len(shapes) < 1:
            raise ValidationError("n_modes must be >= 1, got no mode shapes")
        g = self.kappa.grid
        for s in shapes:
            if s.grid != g:
                raise GridMismatchError("noise mode shapes and kappa must share one grid")
        for name in ("beta", "gamma"):
            w = np.asarray(getattr(self, name), dtype=float)
            if w.shape != (len(shapes),):
                raise ValidationError(f"{name} must have shape ({len(shapes)},), got {w.shape}")
            if not np.all((w >= 0.0) & (w < np.inf)):
                raise ValidationError(f"{name} entries must be finite and >= 0, got {w.tolist()}")
            object.__setattr__(self, name, w)
        object.__setattr__(self, "shapes", shapes)

    @property
    def grid(self) -> SpatialGrid:
        return self.kappa.grid

    @property
    def n_modes(self) -> int:
        return len(self.shapes)

    def shape_stack(self) -> np.ndarray:
        key = "stack"
        if key not in self._cache:
            self._cache[key] = np.stack([s.values for s in self.shapes])
        return self._cache[key]

    def mode_lipschitz(self) -> np.ndarray:
        """Per-mode Lipschitz rates ``max(beta_k, gamma_k)``."""
        return np.maximum(self.beta, self.gamma)

    def sigma2(self, u: np.ndarray, root_m2: float) -> np.ndarray:
        """``sigma2_k(t, u, mu) = beta_k root_m2 + gamma_k u`` for every mode.

        ``u`` is one field or a batch ``(N, *grid.shape)``; the mode
        axis is inserted in front of the grid axes, giving
        ``(K, *grid.shape)`` or ``(N, K, *grid.shape)``.
        """
        col = (self.n_modes,) + (1,) * self.grid.dim
        u_col = np.expand_dims(u, -1 - self.grid.dim)
        return self.beta.reshape(col) * root_m2 + self.gamma.reshape(col) * u_col

    def fields(self, t: float, u: np.ndarray, root_m2: float) -> np.ndarray:
        """The mode fields ``sigma1_k(t) + kappa * sigma2_k(t, u, mu)``,
        shaped like :meth:`sigma2`."""
        sig2 = self.sigma2(u, root_m2)
        return self.profile(t) * self.shape_stack() + self.kappa.values[None] * sig2

    def free_fields(self, t: float, root_m2: float) -> np.ndarray:
        """The fields' state-free part ``profile(t) shape_k + kappa beta_k root_m2``."""
        free = np.multiply.outer(self.beta * root_m2, self.kappa.values)
        return self.profile(t) * self.shape_stack() + free

    def drive(self, free: np.ndarray, u: np.ndarray, theta: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """The noise operator applied to mode coefficients, path by path, into
        ``out`` (a contiguous array shaped like ``u``) if given.

        ``u`` is a batch ``(N, *grid.shape)`` and ``theta`` has shape
        ``(N, K)``; path ``n`` gets ``sum_k theta[n, k] * field_k(u[n])``.
        The fields are affine in ``u``: the node's state-free stack ``free``
        (:meth:`free_fields`) is contracted with ``theta[n]`` and
        ``kappa u[n]`` is scaled by ``theta[n] . gamma``, one matrix product
        per path each, so a row equals its one-path call bit for bit and no
        ``(N, K, *grid.shape)`` stack is built; the state term is the one
        batch made here.
        """
        col, flat = (-1,) + (1,) * self.grid.dim, (len(u), 1, -1)
        out = np.matmul(theta[:, None, :], free.reshape(1, self.n_modes, -1),
                        out=None if out is None else out.reshape(flat)).reshape(u.shape)
        slope = np.matmul(theta[:, None, :], self.gamma[:, None]).reshape(col)
        state = slope * u
        state *= self.kappa.values
        out += state
        return out

    def derivative(self, theta: np.ndarray) -> np.ndarray:
        """``d drive / du = kappa (theta[n] . gamma)`` for each row of ``theta``, ``(N, K)``."""
        return self.kappa.values * (theta @ self.gamma).reshape((-1,) + (1,) * self.grid.dim)

    def drive_adjoint(self, free: np.ndarray, u: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`drive` in ``theta``: ``sum_x field_k(u[n]) lam[n]`` for
        every path and mode, ``(N, K)``, with ``free`` each path's stack ``(N, K, *grid.shape)``."""
        n, col = len(u), (-1,) + (1,) * self.grid.dim
        fields = free + (self.kappa.values * u)[:, None] * self.gamma.reshape(col)
        return np.matmul(fields.reshape(n, self.n_modes, -1), lam.reshape(n, -1, 1))[..., 0]


def hs_bound_constant(sig: NoiseSigma, horizon: float) -> float:
    """Growth constant ``M_T`` of the Hilbert-Schmidt bound.

    ``sum_k ||field_k(t, u, mu)||^2 <= M_T (1 + ||u||^2 + mu(||.||^2))``
    with::

        M_T = 2 sup_t sum_k ||sigma1_k(t)||^2
            + 8 ||kappa||^2 |beta|^2 + 4 ||kappa||_inf^2 |gamma|^2
    """
    sup_profile = sig.profile.sup_abs(horizon)
    sum_shapes = sum(l2_norm(s) ** 2 for s in sig.shapes)
    kappa_l2_sq = l2_norm(sig.kappa) ** 2
    kappa_inf_sq = float(np.max(np.abs(sig.kappa.values))) ** 2
    return (
        2.0 * sup_profile**2 * sum_shapes
        + 8.0 * kappa_l2_sq * float(np.sum(sig.beta**2))
        + 4.0 * kappa_inf_sq * float(np.sum(sig.gamma**2))
    )


def sigma_lipschitz_constant(sig: NoiseSigma) -> float:
    """Lipschitz constant of the mode family in ``(u, mu)``.

    ``sum_k ||Delta sigma_k||^2 <= L (||u1 - u2||^2 + W2(mu1, mu2)^2)``
    with ``L = 2 sum_k max(beta_k, gamma_k)^2 (||kappa||_inf^2 + ||kappa||^2)``.
    """
    kappa_l2_sq = l2_norm(sig.kappa) ** 2
    kappa_inf_sq = float(np.max(np.abs(sig.kappa.values))) ** 2
    return 2.0 * float(np.sum(sig.mode_lipschitz() ** 2)) * (kappa_inf_sq + kappa_l2_sq)


@dataclass(frozen=True)
class CoefficientSet:
    """Everything the steppers need: drifts, noise, diffusion order."""

    f: DriftF
    g: DriftG
    sigma: NoiseSigma
    alpha: float
    c_v: float = 1.0

    def __post_init__(self):
        check_fractional_order(self.alpha)
        if not (float(self.c_v) > 0.0):
            raise ValidationError(f"c_v must be positive, got {self.c_v!r}")

    def node_fields(self, grid: SpatialGrid, t: float, law) -> NodeFields:
        """The parts of ``f``, ``g`` and ``sigma`` that time ``t`` and the law triple
        ``(hbar_f, hbar1, root_m2)`` fix; neither the state nor the control enters them."""
        hbar_f, hbar1, root_m2 = law
        return NodeFields(self.f.phi.values(t, grid) * hbar_f, self.g.psi.values(t, grid),
                          self.g.c2 * hbar1, self.sigma.free_fields(t, root_m2))


class NodeFields(NamedTuple):
    """One node's law parts (:meth:`CoefficientSet.node_fields`); stacked over nodes, a table."""

    phi_h: np.ndarray  # phi(t) hbar_f, the law part of f
    psi: np.ndarray  # psi(t)
    c2_h: float  # c2 hbar1, the law part of g
    free: np.ndarray  # sigma's state-free stack (K, *grid.shape)


# -- randomized condition audit ----------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    passed: bool
    worst_slack: float
    detail: str = ""

    def __str__(self) -> str:
        return self.condition + (f" ({self.detail})" if self.detail else "")


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[ConditionCheck]:
        return [c for c in self.checks if not c.passed]


def _random_field(rng: np.random.Generator, grid: SpatialGrid) -> np.ndarray:
    """A smooth random field with a widely varying amplitude scale."""
    L = grid.half_width
    vals = np.zeros(grid.shape)
    for axis_coord in grid.coordinates():
        for j in range(1, 4):
            amp = rng.standard_normal()
            phase = rng.uniform(0.0, 2.0 * np.pi)
            vals = vals + amp * np.cos(np.pi * j * axis_coord / L + phase)
    vals += rng.standard_normal()
    scale = 10.0 ** rng.uniform(-1.3, 0.9)
    return scale * vals


def _random_measure(rng: np.random.Generator, grid: SpatialGrid, n: int) -> EmpiricalMeasure:
    return EmpiricalMeasure(grid, np.stack([_random_field(rng, grid) for _ in range(n)]))


# Worst normalized slack that passes: round-off in a tight but true inequality.
_SLACK_TOL = 1e-9


def verify_conditions(
    coeffs: CoefficientSet,
    grid: SpatialGrid,
    horizon: float,
    n_draws: int = 1000,
    seed: int = 0,
    include_strong_dissipativity: bool = False,
) -> ConditionReport:
    """Randomized audit of every structural inequality of the model.

    Each draw picks a time, a pair of random fields, and a pair of
    small random ensembles, then checks the pointwise and integrated
    inequalities with the instance's claimed constants.  Writing a
    condition as ``lhs <= rhs``, its slack at a sample point is the
    scale-free gap ``(rhs - lhs) / (1 + |lhs| + |rhs|)``, so a tight
    but true inequality sits at round-off level regardless of the draw
    amplitude.  A condition passes when its worst observed slack stays
    above ``-_SLACK_TOL``.  Structural facts (positivity of rates, coefficient
    caps) are folded into the condition they underwrite.
    """
    if n_draws < 1:
        raise ValidationError(f"n_draws must be >= 1, got {n_draws!r}")
    rng = np.random.default_rng(seed)
    f, g, sig = coeffs.f, coeffs.g, coeffs.sigma
    T = float(horizon)

    worst: dict[str, float] = {}
    notes: dict[str, str] = {}

    def track(name: str, lhs, rhs) -> None:
        """Record the worst normalized slack of ``lhs <= rhs``."""
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        gap = (rhs - lhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
        worst[name] = min(worst.get(name, np.inf), float(np.min(gap)))

    # structural parts
    if not (f.dissipation_rate > 0.0):
        worst["f_dissipativity"] = -np.inf
        notes["f_dissipativity"] = f"dissipation rate {f.lambda_f!r} is not positive"
    if not (f.lipschitz_rate > 0.0):
        worst["f_lipschitz"] = -np.inf
        notes["f_lipschitz"] = "lipschitz rate is not positive"
    if not (f.growth_rate > 0.0):
        worst["f_growth"] = -np.inf
        notes["f_growth"] = "growth rate is not positive"
    if abs(g.c0) > 1.0:
        notes["g_bound_at_zero"] = f"|c0| = {abs(g.c0):.3g} exceeds the unit cap"
    if max(abs(g.c1), abs(g.c2)) > 1.0:
        notes["g_lipschitz"] = (
            f"max(|c1|,|c2|) = {max(abs(g.c1), abs(g.c2)):.3g} exceeds the unit cap"
        )
    if max(abs(g.c0), abs(g.c1), abs(g.c2)) > 1.0:
        notes["g_growth"] = "a reaction coefficient exceeds the unit cap"

    M_T = hs_bound_constant(sig, T)
    L_sig = sigma_lipschitz_constant(sig)
    L_modes = sig.mode_lipschitz().reshape((sig.n_modes,) + (1,) * grid.dim)
    kappa_vals = sig.kappa.values
    w = grid.cell_volume

    zero_u = np.zeros(grid.shape)

    p = f.p
    lam1, lam2, lam3 = f.dissipation_rate, f.lipschitz_rate, f.growth_rate
    lam4 = f.strong_dissipation_rate

    for _ in range(int(n_draws)):
        t = rng.uniform(0.0, T)
        u1 = _random_field(rng, grid)
        u2 = _random_field(rng, grid)
        mu1 = _random_measure(rng, grid, 4)
        mu2 = _random_measure(rng, grid, 4)
        w2 = wasserstein2(mu1, mu2)
        m2_1 = second_moment(mu1)
        law1 = law_statistics(mu1.states, grid, f.h_cap)
        law2 = law_statistics(mu2.states, grid, f.h_cap)
        r1, r2 = law1[2], law2[2]
        node1, node2 = coeffs.node_fields(grid, t, law1), coeffs.node_fields(grid, t, law2)

        f1 = f.values(u1, node1.phi_h)
        f2 = f.values(u2, node2.phi_h)
        psi1 = f.dissipation_bound_values(t, grid)
        psi3 = f.measure_coupling_values(t, grid)

        track("f_dissipativity", lam1 * np.abs(u1) ** p - psi1 * (1.0 + u1**2 + m2_1), f1 * u1)
        lip_rhs = lam2 * (np.abs(u1) ** (p - 2) + np.abs(u2) ** (p - 2)) * np.abs(u1 - u2)
        track("f_lipschitz", np.abs(f1 - f2), lip_rhs + psi3 * w2)
        track("f_growth", np.abs(f1), lam3 * np.abs(u1) ** (p - 1) + psi3 * (1.0 + r1))
        # monotonicity in the state alone: both fields against mu1's law
        f2_mu = f.values(u2, node1.phi_h)
        track("f_monotonicity", 0.0, (f1 - f2_mu) * (u1 - u2))
        if include_strong_dissipativity:
            track(
                "f_strong_dissipativity",
                lam4 * np.abs(u1 - u2) ** p,
                (f1 - f2_mu) * (u1 - u2),
            )

        bound = g.bound_values(t, grid)
        # the Dirac mass at the zero field has capped mean norm 0
        node0 = coeffs.node_fields(grid, t, (0.0, 0.0, 0.0))
        g0 = g.values(zero_u, node0.psi, node0.c2_h)
        track("g_bound_at_zero", np.abs(g0), bound)
        g1 = g.values(u1, node1.psi, node1.c2_h)
        g2 = g.values(u2, node2.psi, node2.c2_h)
        track("g_lipschitz", np.abs(g1 - g2), bound * (np.abs(u1 - u2) + w2))
        track("g_growth", np.abs(g1), bound * (1.0 + np.abs(u1) + r1))

        sig2_1 = sig.sigma2(u1, r1)
        sig2_2 = sig.sigma2(u2, r2)
        # the growth envelope beta_k (1 + root_m2) + gamma_k |u| has the sigma2 form
        track("sigma2_growth", np.abs(sig2_1), sig.sigma2(np.abs(u1), 1.0 + r1))
        lip = L_modes * (np.abs(u1 - u2)[None] + w2)
        track("sigma2_lipschitz", np.abs(sig2_1 - sig2_2), lip)

        fields1 = sig.fields(t, u1, r1)
        hs1 = w * np.sum(fields1**2)
        norm_u1_sq = w * np.sum(u1**2)
        track("hs_growth", hs1, M_T * (1.0 + norm_u1_sq + m2_1))
        diff = kappa_vals[None] * (sig2_1 - sig2_2)
        hs_diff = w * np.sum(diff**2)
        norm_du_sq = w * np.sum((u1 - u2) ** 2)
        track("hs_lipschitz", hs_diff, L_sig * (norm_du_sq + w2**2))

    order = [
        "f_dissipativity",
        "f_lipschitz",
        "f_growth",
        "f_monotonicity",
        "g_bound_at_zero",
        "g_lipschitz",
        "g_growth",
        "sigma2_growth",
        "sigma2_lipschitz",
        "hs_growth",
        "hs_lipschitz",
    ]
    if include_strong_dissipativity:
        order.insert(4, "f_strong_dissipativity")

    checks = []
    for name in order:
        slack = worst.get(name, np.inf)
        passed = slack >= -_SLACK_TOL and name not in notes
        checks.append(
            ConditionCheck(
                condition=name,
                passed=bool(passed),
                worst_slack=float(slack),
                detail=notes.get(name, ""),
            )
        )
    return ConditionReport(tuple(checks))
