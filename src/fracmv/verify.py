"""Runnable property suites tying each module's claims to a measured check.

Every suite yields one ``(name, passed, measured, threshold)`` row per
check: the measured value and the gate it was held to.  ``run_suites``
turns the rows into ``CheckResult`` records, numbered by the suite's
place in ``SUITES`` and timed from the end of the previous check.  The
gates here are the package's acceptance thresholds; the CLI renders
them as a pass/fail table and the test suite asserts them one by one.
Where a check needs its own scale (a wide domain for tail decay, a long
horizon for oscillatory controls, a coarse grid for brute-force
transport), the suite derives a dedicated instance from the given
config rather than trusting the config to be suitable.  The experiments
that only a suite runs live beside it: the randomized condition audit
(``verify_conditions``), the small-noise sweep and the oscillatory-control
batch.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import permutations
from pathlib import Path

import numpy as np

from .coefficients import (
    CoefficientSet,
    DriftF,
    DriftG,
    hs_bound_constant,
    law_statistics,
    sigma_lipschitz_constant,
)
from .config import RunConfig
from .dynamics import (
    Control,
    NoisePath,
    TimeGrid,
    Trajectory,
    _controlled_solver,
    energy_residual,
    integrated_v_distance,
    solve_controlled,
    solve_deterministic,
    solve_frozen,
    sup_distance,
)
from .errors import ValidationError
from .grid import (
    GridFunction,
    SpatialGrid,
    apply_fractional_laplacian,
    l2_norm,
    sq_norms,
    tail_masses,
)
from .measure import EmpiricalMeasure, MeasureFlow, flow_distance, second_moment, wasserstein2
from .mckean_vlasov import (
    MeanFieldProblem,
    _initial_flow,
    _sweep_nodes,
    apply_phi,
    auto_lambda,
    picard_solve,
)
from .rate_function import _GN_GTOL, control_cost, estimate_rate

__all__ = [
    "CheckResult",
    "SUITES",
    "SUITE_BUDGETS",
    "check_suites",
    "run_suites",
    "format_report",
    "ConditionCheck",
    "ConditionReport",
    "verify_conditions",
]


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    measured: str
    threshold: str
    seconds: float


# per-criterion wall-time budgets, seconds
SUITE_BUDGETS = {
    "spectral": 1.0,
    "wasserstein": 10.0,
    "conditions": 30.0,
    "energy": 60.0,
    "picard": 120.0,
    "smallnoise": 300.0,
    "controlled": 60.0,
    "tails": 60.0,
    "rate": 300.0,
    "weak": 120.0,
    "determinism": 60.0,
}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


# -- 1: spectral exactness -------------------------------------------------


def suite_spectral(cfg: RunConfig) -> Iterator[tuple]:
    """Single Fourier modes are exact eigenfunctions of the operator."""
    grid = cfg.grid
    rng = _rng(101)
    M, L = grid.points_per_dim, grid.half_width
    worst = 0.0
    for _ in range(20):
        js = rng.integers(1, M // 2, size=grid.dim)
        amp = float(rng.uniform(0.5, 2.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        xi = np.pi * js / L
        axes = grid.coordinates()
        arg = sum(x * w for x, w in zip(axes, xi)) + phase
        u = GridFunction(grid, amp * np.cos(arg))
        xi_sq = float(np.sum(xi**2))
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            out = apply_fractional_laplacian(u, alpha)
            exact = xi_sq**alpha * u.values
            err = float(np.max(np.abs(out.values - exact))) / (xi_sq**alpha * amp)
            worst = max(worst, err)
    yield (
        "spectral_single_modes",
        worst <= 1e-12,
        f"max rel err {worst:.3e} (20 modes x 5 exponents)",
        "<= 1e-12",
    )


# -- 2: transport distance against brute force ------------------------------


def suite_wasserstein(cfg: RunConfig) -> Iterator[tuple]:
    """Assignment-based W2 equals the brute-force permutation minimum."""
    grid = SpatialGrid(dim=1, half_width=2.0, points_per_dim=8)
    w = grid.cell_volume
    rng = _rng(202)
    worst = 0.0
    for trial in range(200):
        n = 2 + trial % 5
        a = rng.standard_normal((n,) + grid.shape) * rng.uniform(0.2, 3.0)
        b = rng.standard_normal((n,) + grid.shape) * rng.uniform(0.2, 3.0)
        fast = wasserstein2(EmpiricalMeasure(grid, a), EmpiricalMeasure(grid, b))
        cost = np.array(
            [[w * float(np.sum((a[i] - b[j]) ** 2)) for j in range(n)] for i in range(n)]
        )
        brute = math.sqrt(
            min(
                sum(cost[i, pi[i]] for i in range(n)) / n
                for pi in permutations(range(n))
            )
        )
        worst = max(worst, abs(fast - brute))
    yield (
        "wasserstein_vs_brute_force",
        worst <= 1e-10,
        f"max |fast - brute| {worst:.3e} (200 pairs, 2..6 atoms)",
        "<= 1e-10",
    )


# -- 3: structural condition audit ------------------------------------------


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


def suite_conditions(cfg: RunConfig) -> Iterator[tuple]:
    """The coefficient family's claimed inequalities hold on random draws,
    and deliberately broken instances are caught."""
    strong = bool(cfg.raw["verify"]["strong_dissipativity"])
    report = verify_conditions(
        cfg.coeffs,
        cfg.grid,
        cfg.tgrid.horizon,
        n_draws=1000,
        seed=0,
        include_strong_dissipativity=strong,
    )
    finite = [c.worst_slack for c in report.checks if np.isfinite(c.worst_slack)]
    yield (
        "conditions_hold_on_draws",
        report.ok,
        f"worst slack {min(finite):.2e} over {len(report.checks)} conditions, 1000 draws"
        + ("" if report.ok else "; failed: " + ", ".join(map(str, report.failed()))),
        ">= -1e-9",
    )

    c = cfg.coeffs
    broken = (
        (1, "f", DriftF(p=c.f.p, lambda_f=-0.5, h_cap=c.f.h_cap, phi=c.f.phi, validate=False),
         "violation_detected_antidissipative_drift", "drift"),
        (2, "g", DriftG(c0=c.g.c0, c1=1.8, c2=c.g.c2, psi=c.g.psi, validate=False),
         "violation_detected_unbounded_reaction", "reaction"),
    )
    for seed, slot, part, name, clause in broken:
        rep = verify_conditions(
            replace(c, **{slot: part}), cfg.grid, cfg.tgrid.horizon, n_draws=200, seed=seed
        )
        failed = rep.failed()
        yield (
            name,
            any(x.condition.startswith(slot + "_") for x in failed),
            "flagged: " + (", ".join(map(str, failed)) if failed else "nothing"),
            f"audit names a {clause} clause",
        )


# -- 4: discrete energy identity --------------------------------------------


def suite_energy(cfg: RunConfig) -> Iterator[tuple]:
    """The per-step energy balance closes at first order in dt."""
    base = cfg.with_overrides(grid={"points_per_dim": 128})
    metrics = []
    dts = []
    for steps in (200, 400, 800):
        run = base.with_overrides(time={"steps": steps})
        traj = solve_deterministic(run.u0, run.coeffs, run.tgrid)
        res = energy_residual(traj, run.coeffs)
        scale = 1.0 + float(np.max(sq_norms(traj.values, run.grid)))
        metrics.append(float(np.max(np.abs(res))) / scale)
        dts.append(run.tgrid.dt)
    slope = float(np.polyfit(np.log(dts), np.log(metrics), 1)[0])
    detail = ", ".join(f"S={s}: {m:.2e}" for s, m in zip((200, 400, 800), metrics))
    yield "energy_residual_order", slope >= 0.9, f"order {slope:.3f} ({detail})", ">= 0.9"


# -- 5: fixed-point contraction ----------------------------------------------


def suite_picard(cfg: RunConfig) -> Iterator[tuple]:
    """The freezing map contracts at the weight ``auto_lambda`` calibrates on its
    first two iterates and a scaled start, and its iterates reach ``picard_solve``'s
    flow within ``tol (1 + ||u0||)``, and the map gives that flow back bit for bit."""
    run = cfg.with_overrides(
        noise={"n_modes": 4}, time={"steps": 200}, picard={"n_particles": 64, "tol": 1e-6}
    )
    problem, pcfg = run.problem(), run.picard_config()
    threshold = pcfg.tol * (1.0 + l2_norm(problem.u0))
    solved = picard_solve(problem, pcfg)
    flow0 = _initial_flow(problem, pcfg.n_particles)
    iterates = [flow0, apply_phi(problem, flow0)]
    iterates.append(apply_phi(problem, iterates[1]))
    scaled = MeasureFlow.constant(EmpiricalMeasure(flow0.grid, 1.25 * flow0.states[0]), flow0.times)
    lam, _ = auto_lambda(problem, [*iterates[:2], scaled],
                         [*iterates[1:], apply_phi(problem, scaled)])
    distances = [flow_distance(a, b, lam) for a, b in zip(iterates, iterates[1:])]
    flow = iterates[-1]
    del iterates, scaled
    while distances[-1] > threshold and len(distances) < 20:
        image = apply_phi(problem, flow)
        distances.append(flow_distance(flow, image, lam))
        flow = image
    tiny = 10.0 * np.finfo(float).eps * (1.0 + l2_norm(problem.u0))
    ratios = [b / a for a, b in zip(distances, distances[1:]) if a > tiny]
    converged = distances[-1] <= threshold
    yield (
        "picard_converges",
        converged,
        f"{'converged' if converged else 'stopped'} in {len(distances)} iterations, "
        f"last distance {distances[-1]:.2e}",
        f"<= threshold {threshold:.2e} (tol {pcfg.tol:g}) within the loop's 20 iterations",
    )
    late = ratios[1:]
    yield (
        "picard_contraction_ratios",
        bool(late) and max(late) <= 0.5,
        f"ratios {', '.join(f'{r:.3f}' for r in ratios)} (weight {lam:g})",
        "<= 0.5 from the second ratio on",
    )
    gap = flow_distance(flow, solved, 0.0)
    del flow
    # the map gives the causal sweep back bit for bit, which every solve relies on
    identity = flow_distance(solved, apply_phi(problem, solved), 0.0)
    yield (
        "picard_iterates_reach_the_solved_fixed_point",
        gap <= threshold and identity == 0.0,
        f"last iterate {gap:.2e} from the solved flow (plain sup), "
        f"which the map gives back at {identity:.1e}",
        f"<= threshold {threshold:.2e}; map's image at 0",
    )


# -- 6: small-noise deviation scaling ----------------------------------------


def _smallnoise_rows(problem: MeanFieldProblem, eps_list: list[float], n: int) -> list[float]:
    """``E sup_t ||u_eps - u_0||^2`` at each intensity: the mean over ``n`` particles of
    one causal sweep each, read node by node, so no flow is held.

    Every intensity's sweep shares the master seed (common random numbers) and
    starts at ``u0``, the state the deviation is measured from, so a sampled
    ``initial_states`` ensemble is set aside.  Intensity 0 is swept like the others."""
    base = solve_deterministic(problem.u0, problem.coeffs, problem.tgrid)
    rows = []
    for eps in eps_list:
        nodes = _sweep_nodes(replace(problem, epsilon=eps, initial_states=None), n, None)
        dev = [sq_norms(mu - u, problem.grid) for mu, u in zip(nodes, base.values)]
        rows.append(float(np.mean(np.max(dev, axis=0))))
    return rows


def suite_smallnoise(cfg: RunConfig) -> Iterator[tuple]:
    """Mean squared sup deviation from the zero-noise path scales linearly, and
    vanishes at intensity 0."""
    eps = [1e-2, 3e-3, 1e-3, 3e-4]
    zero, *devs = _smallnoise_rows(cfg.problem(), [0.0, *eps], 16)
    slope = float(np.polyfit(np.log(eps), np.log(devs), 1)[0])
    rows = ", ".join(f"{e:.0e}: {v:.2e}" for e, v in zip(eps, devs))
    yield "smallnoise_slope", 0.8 <= slope <= 1.2, f"slope {slope:.3f} ({rows})", "in [0.8, 1.2]"
    yield "smallnoise_zero_limit", zero <= 1e-12, f"intensity-0 deviation {zero:.1e}", "<= 1e-12"


# -- 7: controlled-equation consistency ---------------------------------------


def suite_controlled(cfg: RunConfig) -> Iterator[tuple]:
    """Zero control reproduces the base path; the response to joint
    initial-state and control perturbations is Lipschitz with a stable
    constant."""
    grid, tgrid, coeffs, u0 = cfg.grid, cfg.tgrid, cfg.coeffs, cfg.u0
    base = solve_deterministic(u0, coeffs, tgrid)
    K, S = coeffs.sigma.n_modes, tgrid.steps
    v0 = Control.zero(tgrid, K)
    dist0 = sup_distance(solve_controlled(u0, v0, base, coeffs, tgrid), base)
    yield "zero_control_reproduces_base", dist0 <= 1e-12, f"sup distance {dist0:.2e}", "<= 1e-12"

    rng = _rng(707)
    axes = grid.coordinates()
    v_ref_vals = np.zeros((S, K))
    v_ref_vals[:, 0] = 0.2
    v_ref = Control(v_ref_vals, tgrid.dt)
    uref = solve_controlled(u0, v_ref, base, coeffs, tgrid)

    def solve_pair(du_vals: np.ndarray, dv_vals: np.ndarray) -> float:
        """Squared sup distance between the perturbed and reference runs."""
        u0p = GridFunction(grid, u0.values + du_vals)
        basep = solve_deterministic(u0p, coeffs, tgrid)
        up = solve_controlled(u0p, Control(v_ref.values + dv_vals, tgrid.dt), basep, coeffs, tgrid)
        return sup_distance(up, uref) ** 2

    ratios_full, ratios_half = [], []
    for _ in range(10):
        du = np.zeros(grid.shape)
        for axis_x in axes:
            for _m in range(2):
                kfreq = rng.integers(1, 4)
                du = du + rng.normal(0.0, 0.1) * np.cos(
                    kfreq * np.pi * axis_x / grid.half_width + rng.uniform(0, 2 * np.pi)
                )
        dv = 0.1 * rng.standard_normal((S, K))
        for scale, sink in ((1.0, ratios_full), (0.5, ratios_half)):
            d_sq = solve_pair(scale * du, scale * dv)
            denom = float(sq_norms(scale * du, grid)) + Control(scale * dv, tgrid.dt).l2_norm_sq()
            sink.append(d_sq / denom)
    drift = max(abs(h - f) / f for f, h in zip(ratios_full, ratios_half))
    yield (
        "lipschitz_constant_stability",
        drift <= 0.25,
        f"max constant {max(ratios_full):.3e}, drift under halving {100 * drift:.2f}%",
        "per-pair drift <= 25%",
    )


# -- 8: tail mass on a wide domain --------------------------------------------


def suite_tails(cfg: RunConfig) -> Iterator[tuple]:
    """Mass outside a ball of radius m0 < L/2 stays below delta for every
    control in a norm ball, uniformly in time."""
    run = cfg.with_overrides(
        grid={"dim": 1, "half_width": 100.0, "points_per_dim": 800},
        time={"horizon": 0.5, "steps": 200},
        initial={"kind": "bump", "amp": 1.0, "width": 2.0, "jitter": 0.0},
    )
    delta = float(run.raw["verify"]["tail_delta"])
    grid, tgrid, coeffs, u0 = run.grid, run.tgrid, run.coeffs, run.u0
    base = solve_deterministic(u0, coeffs, tgrid)
    S, K = tgrid.steps, coeffs.sigma.n_modes
    rng = _rng(808)
    trajs = [base]
    for _ in range(5):
        v = Control(rng.standard_normal((S, K)), tgrid.dt)
        trajs.append(
            solve_controlled(u0, v.scaled(1.0 / math.sqrt(v.l2_norm_sq())), base, coeffs, tgrid)
        )

    def worst_tail(m: float) -> float:
        return max(float(np.max(tail_masses(tr.values, grid, m))) for tr in trajs)

    m0, worst = None, None
    for m in np.arange(2.0, grid.half_width / 2, 2.0):
        w = worst_tail(float(m))
        if w < delta:
            m0, worst = float(m), w
            break
    found = m0 is not None
    yield (
        "tail_mass_uniform_over_controls",
        found,
        (
            f"m0 = {m0:g} (< L/2 = {grid.half_width / 2:g}), worst tail {worst:.2e} "
            f"over 6 trajectories, all nodes"
            if found
            else f"no radius below L/2 = {grid.half_width / 2:g} reaches delta"
        ),
        f"tail < {delta:g} at some m0 < L/2",
    )


# -- 9: action floor, manufactured upper bound, stationary minimizer -----------


def suite_rate(cfg: RunConfig) -> Iterator[tuple]:
    """The estimator finds the zero floor, never overshoots a known attaining
    control by more than 5%, and returns a stationary point of its penalized
    objective."""
    run = cfg.with_overrides(
        grid={"points_per_dim": 64},
        noise={"n_modes": 2},
        time={"steps": 50},
    )
    grid, tgrid, coeffs, u0 = run.grid, run.tgrid, run.coeffs, run.u0
    base = solve_deterministic(u0, coeffs, tgrid)
    est0 = estimate_rate(run.rate_problem(base), u0, coeffs, tgrid, base=base)
    yield (
        "rate_floor_at_base_path",
        est0.value <= 1e-6 and control_cost(est0.v_star) <= 1e-6,
        f"value {est0.value:.2e}, gap {est0.gap:.2e}",
        "value and control cost <= 1e-6",
    )

    t_left = tgrid.nodes[:-1]
    vbar = Control(
        np.stack(
            [
                0.6 * np.sin(2 * np.pi * t_left / tgrid.horizon),
                0.4 * np.cos(np.pi * t_left / tgrid.horizon),
            ],
            axis=1,
        ),
        tgrid.dt,
    )
    target = solve_controlled(u0, vbar, base, coeffs, tgrid)
    ref_cost = control_cost(vbar)
    est = estimate_rate(run.rate_problem(target), u0, coeffs, tgrid, base=base)
    yield (
        "rate_manufactured_upper_bound",
        est.value <= 1.05 * ref_cost and est.gap_rel < 1e-3 and est.converged,
        f"value {est.value:.5f} vs reference {ref_cost:.5f} "
        f"(ratio {est.value / ref_cost:.3f}), rel gap {est.gap_rel:.1e}",
        "value <= 1.05 x reference, rel gap < 1e-3",
    )
    yield (
        "rate_minimizer_stationary",
        est.grad_max <= _GN_GTOL,
        f"Gauss-Newton stopped on {est.stop!r} after {est.iterations} steps, "
        f"max |grad| {est.grad_max:.1e}",
        f"max |grad J_eta| <= {_GN_GTOL:g} at the returned control",
    )


# -- 10: oscillatory-control collapse ------------------------------------------


def _weak_rows(v: Control, amplitude: float, i_list: list[int], u0: GridFunction,
               coeffs: CoefficientSet, tgrid: TimeGrid) -> list[tuple]:
    """Drive the dynamics with ``v + amplitude sin(i t) e_0`` for each frequency ``i``.

    Row ``(sup_h, l2_v, offset)`` holds the sup distance and the integrated
    graph-norm distance of ``u_{v_i}`` to ``u_v``, and ``||v_i - v||``.  The
    reference control and every perturbation are solved as one batch."""
    t_left = tgrid.nodes[:-1]
    controls = np.repeat(v.values[None], len(i_list) + 1, axis=0)
    for row, i in enumerate(i_list, start=1):
        controls[row, :, 0] += amplitude * np.sin(i * t_left)
    base = solve_deterministic(u0, coeffs, tgrid)
    paths = _controlled_solver(u0, base, coeffs, tgrid)[0](controls)
    u_ref = Trajectory(u0.grid, tgrid.nodes, paths[0])
    rows = []
    for vals, path in zip(controls[1:], paths[1:]):
        ui = Trajectory(u0.grid, tgrid.nodes, path)
        rows.append((
            sup_distance(ui, u_ref),
            integrated_v_distance(ui, u_ref, coeffs.alpha, coeffs.c_v),
            math.sqrt(Control(vals - v.values, v.dt).l2_norm_sq()),
        ))
    return rows


def suite_weak(cfg: RunConfig) -> Iterator[tuple]:
    """Faster-oscillating control perturbations of fixed energy produce
    vanishing solution responses: the perturbations' offsets from the
    reference control stay bounded away from zero while the solution
    distances shrink, so the collapse is driven by oscillation, not by
    control smallness."""
    # whole periods of sin(i t) for every integer i need horizon 2 pi
    tgrid = TimeGrid(horizon=2.0 * math.pi, steps=640)
    coeffs, u0 = cfg.coeffs, cfg.u0
    K = coeffs.sigma.n_modes
    t_left = tgrid.nodes[:-1]
    vals = np.zeros((tgrid.steps, K))
    vals[:, 0] = 0.3
    if K > 1:
        vals[:, 1] = 0.2 * np.sin(t_left / 2.0)
    amp = 0.5
    rows = _weak_rows(Control(vals, tgrid.dt), amp, [1, 2, 4, 8, 16, 32], u0, coeffs, tgrid)
    # the LDP topology is C([0,T];H) and L2(0,T;V): both distances must collapse
    for name, col, norm in (("weak_convergence_envelope", 0, "sup"),
                            ("weak_convergence_v_envelope", 1, "L2(0,T;V)")):
        dists = [r[col] for r in rows]
        decreasing = all(b <= a * 1.0001 for a, b in zip(dists, dists[1:]))
        yield (
            name,
            decreasing and dists[-1] < dists[0] / 4.0,
            f"{norm} distances {', '.join(f'{d:.3e}' for d in dists)}",
            "decreasing, final < initial/4",
        )
    offset = min(r[2] for r in rows)
    offset_floor = 0.5 * amp * math.sqrt(tgrid.horizon / 2.0)
    yield (
        "weak_convergence_offsets_stay_large",
        offset >= offset_floor,
        f"min control offset {offset:.3f}",
        f">= {offset_floor:.3f}",
    )


# -- 11: byte-level determinism -------------------------------------------------


def _hash_tree(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def suite_determinism(cfg: RunConfig) -> Iterator[tuple]:
    """Every file of a simulate run directory is byte-reproducible, and the
    batched freezing map equals one single-particle solve per particle."""
    from .cli import cmd_simulate

    small = cfg.with_overrides(
        grid={"points_per_dim": 64},
        time={"horizon": 0.25, "steps": 100},
        picard={"n_particles": 8},
    )
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("a", "b"):
            out_dir = Path(tmp) / tag
            cmd_simulate(small, out_dir)
            tree = _hash_tree(out_dir)
            if not any(name.startswith("trajectories") for name in tree):
                raise ValidationError("simulate wrote no trajectory files")
            hashes.append(tree)
    yield (
        "simulate_byte_identical_rerun",
        hashes[0] == hashes[1],
        f"{len(hashes[0])} files compared",
        "identical hashes",
    )

    problem, tgrid = small.problem(), small.tgrid
    n = small.picard_config().n_particles
    # freeze a time-varying law: the image of the initial ensemble
    mu0 = EmpiricalMeasure(small.grid, np.broadcast_to(small.u0.values, (n,) + small.grid.shape))
    frozen = apply_phi(problem, MeasureFlow.constant(mu0, tgrid.nodes))
    batched = apply_phi(problem, frozen)
    K = small.coeffs.sigma.n_modes
    single = [
        solve_frozen(
            GridFunction(small.grid, batched.states[0, i]), frozen, small.coeffs, tgrid,
            eps=small.epsilon, noise=NoisePath.generate(tgrid, K, small.seed, particle=i),
        ).values
        for i in range(n)
    ]
    across_batch = all(
        batched.states[:, i].tobytes() == single[i].tobytes() for i in range(n)
    )
    yield (
        "apply_phi_byte_identical_across_batch_size",
        across_batch,
        f"{n}-particle batch vs {n} one-particle solve_frozen runs",
        "identical bytes",
    )


SUITES = {
    "spectral": suite_spectral,
    "wasserstein": suite_wasserstein,
    "conditions": suite_conditions,
    "energy": suite_energy,
    "picard": suite_picard,
    "smallnoise": suite_smallnoise,
    "controlled": suite_controlled,
    "tails": suite_tails,
    "rate": suite_rate,
    "weak": suite_weak,
    "determinism": suite_determinism,
}


def check_suites(names: list[str] | None) -> list[str]:
    """The suites a run covers: all for ``None``, else ``names``, each checked to exist."""
    if names is None:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValidationError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}"
            )
    return names


def run_suites(cfg: RunConfig, names: list[str] | None = None) -> list[CheckResult]:
    """Run the named suites (all for ``None``).  Each check takes its
    suite's place in ``SUITES`` as criterion number, and its seconds run
    from the end of the previous check."""
    number = {name: i for i, name in enumerate(SUITES, start=1)}
    results = []
    for name in check_suites(names):
        t0 = time.perf_counter()
        for check, passed, measured, threshold in SUITES[name](cfg):
            t1 = time.perf_counter()
            results.append(CheckResult(number[name], check, passed, measured, threshold, t1 - t0))
            t0 = t1
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.criterion:2d} {r.name:42s} {r.measured}  [{r.threshold}]"
            f"  ({r.seconds:.1f}s)"
        )
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
