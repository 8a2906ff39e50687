import dataclasses
import math
import os
import re
from functools import partial

import numpy as np
import pytest

from helpers import build_coeffs, build_grid, build_tgrid, build_u0, run_kernel

from fracmv.coefficients import (
    CoefficientSet,
    DriftF,
    DriftG,
    NodeFields,
    NoiseSigma,
    PsiField,
    TimeProfile,
    law_statistics,
)
from fracmv.dynamics import (
    Control,
    NoisePath,
    TimeGrid,
    Trajectory,
    energy_residual,
    integrated_v_distance,
    load_control,
    load_trajectory,
    save_control,
    save_trajectory,
    solve_controlled,
    solve_deterministic,
    solve_frozen,
    stable_seed_key,
    sup_distance,
)
from fracmv.errors import BlowUpError, GridMismatchError, ValidationError
from fracmv.grid import GridFunction, apply_fractional_laplacian, l2_norm
from fracmv.measure import EmpiricalMeasure, MeasureFlow
from fracmv.mckean_vlasov import MeanFieldProblem, PicardConfig, apply_phi
from fracmv.rate_function import RateProblem, estimate_rate


def diffusion_only_coeffs(grid, n_modes=2, alpha=0.6):
    """All reaction, coupling, and noise terms identically zero."""
    f = DriftF(p=4, lambda_f=0.0, h_cap=1.0,
               phi=PsiField("gaussian", 0.0, 1.0), validate=False)
    g = DriftG(c0=0.0, c1=0.0, c2=0.0, psi=PsiField("gaussian", 0.0, 2.0))
    zero = np.zeros(grid.shape)
    sigma = NoiseSigma(
        shapes=tuple(GridFunction(grid, zero) for _ in range(n_modes)),
        kappa=GridFunction(grid, zero),
        beta=np.zeros(n_modes),
        gamma=np.zeros(n_modes),
        profile=TimeProfile(),
    )
    return CoefficientSet(f=f, g=g, sigma=sigma, alpha=alpha)


def constant_flow(u0, n, nodes):
    mu = EmpiricalMeasure(u0.grid, np.broadcast_to(u0.values, (n,) + u0.grid.shape).copy())
    return MeasureFlow.constant(mu, nodes)


# -- scheme structure ---------------------------------------------------


def test_pure_diffusion_is_exact_resolvent_powers(small_grid):
    """With every drift and noise term zero, each step is exactly the
    implicit resolvent, so the path equals its power applied to u0."""
    tg = build_tgrid(steps=25)
    coeffs = diffusion_only_coeffs(small_grid)
    u0 = build_u0(small_grid)
    traj = solve_deterministic(u0, coeffs, tg)
    mult = small_grid.resolvent_multiplier(coeffs.alpha, tg.dt)
    cur = u0.values
    for s in range(1, tg.steps + 1):
        cur = small_grid.apply_multiplier(cur, mult)
        assert np.array_equal(traj.values[s], cur)


def test_first_order_in_time(small_grid, small_coeffs):
    """Difference against the finest run shrinks with the 3:1 ratio of a
    first-order scheme (error C*h vs C*h/2, both measured against C*h/4)."""
    u0 = build_u0(small_grid)

    def terminal(steps):
        tg = TimeGrid(horizon=0.25, steps=steps)
        return solve_deterministic(u0, small_coeffs, tg).values[-1]

    t1, t2, t4 = terminal(40), terminal(80), terminal(160)
    e1 = l2_norm(GridFunction(small_grid, t1 - t4))
    e2 = l2_norm(GridFunction(small_grid, t2 - t4))
    assert 2.5 <= e1 / e2 <= 3.5


def test_energy_residual_is_first_order(small_grid, small_coeffs):
    u0 = build_u0(small_grid)

    def worst(steps):
        tg = TimeGrid(horizon=0.25, steps=steps)
        traj = solve_deterministic(u0, small_coeffs, tg)
        return float(np.max(np.abs(energy_residual(traj, small_coeffs))))

    r1, r2, r4 = worst(50), worst(100), worst(200)
    order1 = np.log2(r1 / r2)
    order2 = np.log2(r2 / r4)
    assert order1 >= 0.8 and order2 >= 0.8


def test_dissipativity_contracts_large_states(small_grid, small_coeffs):
    """The superlinear sink pulls a large initial state down fast; taming
    keeps the explicit increment finite instead of overshooting."""
    tg = build_tgrid(steps=40)
    u0 = build_u0(small_grid, amp=50.0)
    traj = solve_deterministic(u0, small_coeffs, tg)
    norms = [l2_norm(traj.state(s)) for s in range(traj.n_nodes)]
    assert norms[-1] < norms[0]
    assert np.all(np.isfinite(traj.values))


# -- controlled dynamics -------------------------------------------------


def test_zero_control_reproduces_deterministic_path(small_grid, small_coeffs, small_tgrid):
    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, small_tgrid)
    v0 = Control.zero(small_tgrid, small_coeffs.sigma.n_modes)
    ctrl = solve_controlled(u0, v0, base, small_coeffs, small_tgrid)
    assert sup_distance(ctrl, base) == 0.0


def test_small_control_response_is_nearly_linear(small_grid, small_coeffs, small_tgrid):
    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, small_tgrid)
    rng = np.random.default_rng(7)
    v = Control(0.01 * rng.standard_normal((small_tgrid.steps, small_coeffs.sigma.n_modes)),
                small_tgrid.dt)
    d1 = sup_distance(solve_controlled(u0, v, base, small_coeffs, small_tgrid), base)
    d2 = sup_distance(solve_controlled(u0, v.scaled(2.0), base, small_coeffs, small_tgrid), base)
    assert d1 > 0.0
    assert d2 / d1 == pytest.approx(2.0, rel=0.05)


def test_controlled_requires_matching_base(small_grid, small_coeffs, small_tgrid):
    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, small_tgrid)
    v0 = Control.zero(small_tgrid, small_coeffs.sigma.n_modes)
    other = build_u0(small_grid, amp=2.0)
    with pytest.raises(ValidationError):
        solve_controlled(other, v0, base, small_coeffs, small_tgrid)
    short = TimeGrid(horizon=small_tgrid.horizon / 2, steps=small_tgrid.steps // 2)
    with pytest.raises(GridMismatchError):
        solve_controlled(u0, Control.zero(short, small_coeffs.sigma.n_modes),
                         base, small_coeffs, short)
    with pytest.raises(ValidationError):
        solve_controlled(u0, Control.zero(small_tgrid, small_coeffs.sigma.n_modes + 1),
                         base, small_coeffs, small_tgrid)


# -- noise handling ------------------------------------------------------


def test_noise_is_a_pure_function_of_seed_and_particle():
    tg = build_tgrid(steps=12)
    a = NoisePath.generate(tg, 3, master_seed=42, particle=5)
    b = NoisePath.generate(tg, 3, master_seed=42, particle=5)
    c = NoisePath.generate(tg, 3, master_seed=42, particle=6)
    d = NoisePath.generate(tg, 3, master_seed=43, particle=5)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)
    assert not np.array_equal(a.increments, d.increments)
    assert stable_seed_key(42, "noise", 5) != stable_seed_key(42, "init", 5)


def test_frozen_solver_is_deterministic_given_noise(small_grid, small_coeffs):
    tg = build_tgrid(steps=20)
    u0 = build_u0(small_grid)
    flow = constant_flow(u0, 4, tg.nodes)
    noise = NoisePath.generate(tg, small_coeffs.sigma.n_modes, master_seed=9)
    t1 = solve_frozen(u0, flow, small_coeffs, tg, eps=0.05, noise=noise)
    t2 = solve_frozen(u0, flow, small_coeffs, tg, eps=0.05, noise=noise)
    assert np.array_equal(t1.values, t2.values)
    quiet = solve_frozen(u0, flow, small_coeffs, tg, eps=0.0)
    assert sup_distance(t1, quiet) > 0.0


def test_epsilon_range_is_enforced(small_grid, small_coeffs):
    tg = build_tgrid(steps=5)
    u0 = build_u0(small_grid)
    flow = constant_flow(u0, 2, tg.nodes)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValidationError):
            solve_frozen(u0, flow, small_coeffs, tg, eps=bad)


def test_frozen_solver_validates_flow_sampling(small_grid, small_coeffs):
    tg = build_tgrid(steps=10)
    u0 = build_u0(small_grid)
    wrong_nodes = constant_flow(u0, 2, np.linspace(0.0, 1.0, tg.steps + 1))
    with pytest.raises(GridMismatchError):
        solve_frozen(u0, wrong_nodes, small_coeffs, tg)
    other = build_grid(points=16)
    wrong_grid = constant_flow(build_u0(other), 2, tg.nodes)
    with pytest.raises(GridMismatchError):
        solve_frozen(u0, wrong_grid, small_coeffs, tg)


@pytest.mark.parametrize("mismatch", ["grid", "nodes"])
@pytest.mark.parametrize(
    "caller",
    ["solve_frozen", "apply_phi", "solve_controlled", "energy_residual", "estimate_rate",
     "sup_distance", "integrated_v_distance"],
)
def test_every_caller_refuses_a_wrong_grid_and_shifted_nodes(caller, mismatch, small_grid,
                                                             small_coeffs):
    """The flow, base, target or compared path each caller checks is
    refused on another grid and on nodes shifted by half a step."""
    tg = build_tgrid(steps=10)
    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, tg)
    grid = build_grid(points=16) if mismatch == "grid" else small_grid
    times = tg.nodes if mismatch == "grid" else tg.nodes + 0.5 * tg.dt
    bad = Trajectory(grid, times, np.zeros((times.size,) + grid.shape))
    bad_flow = constant_flow(GridFunction(grid, bad.values[0]), 2, times)
    problem = MeanFieldProblem(small_grid, tg, small_coeffs, u0, 0.0, 3)
    calls = {
        "solve_frozen": lambda: solve_frozen(u0, bad_flow, small_coeffs, tg),
        "apply_phi": lambda: apply_phi(problem, bad_flow),
        "solve_controlled": lambda: solve_controlled(
            u0, Control.zero(tg, small_coeffs.sigma.n_modes), bad, small_coeffs, tg),
        "energy_residual": lambda: energy_residual(base, small_coeffs, None, bad),
        "estimate_rate": lambda: estimate_rate(RateProblem(bad), u0, small_coeffs, tg, base=base),
        "sup_distance": lambda: sup_distance(base, bad),
        "integrated_v_distance": lambda: integrated_v_distance(base, bad, small_coeffs.alpha),
    }
    needle = "different grid" if mismatch == "grid" else "not sampled on the solver's time nodes"
    with pytest.raises(GridMismatchError, match=needle):
        calls[caller]()


@pytest.mark.parametrize("axis", ["steps", "modes", "dt"])
@pytest.mark.parametrize(
    "caller", ["solve_frozen", "solve_controlled", "energy_residual", "weak_convergence_experiment"]
)
def test_every_caller_refuses_a_wrong_mode_path_shape(caller, axis, small_grid, small_coeffs):
    """A noise path or control one row or one mode off is refused, naming the
    shape it has and the ``(steps, modes)`` it should have; one drawn or costed
    with twice the step is refused, naming both step sizes."""
    from fracmv.rate_function import weak_convergence_experiment

    tg = build_tgrid(steps=10)
    K = small_coeffs.sigma.n_modes
    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, tg)
    shape = {"steps": (tg.steps + 1, K), "modes": (tg.steps, K + 1), "dt": (tg.steps, K)}[axis]
    dt = 2.0 * tg.dt if axis == "dt" else tg.dt
    noise, v = NoisePath(np.zeros(shape), dt), Control(np.zeros(shape), dt)
    calls = {
        "solve_frozen": lambda: solve_frozen(u0, constant_flow(u0, 2, tg.nodes), small_coeffs, tg,
                                             eps=0.01, noise=noise),
        "solve_controlled": lambda: solve_controlled(u0, v, base, small_coeffs, tg),
        "energy_residual": lambda: energy_residual(base, small_coeffs, control=v),
        "weak_convergence_experiment": lambda: weak_convergence_experiment(
            v, 0, 0.5, [1], u0, small_coeffs, tg, base=base),
    }
    what = "noise" if caller == "solve_frozen" else "control"
    needle = f"{what} has shape {shape}, expected (steps, modes) = ({tg.steps}, {K})"
    if axis == "dt":
        needle = f"{what} has dt={dt!r}, but the time grid has dt={tg.dt!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(needle)}$"):
        calls[caller]()


@pytest.mark.parametrize("cls,what", [(Control, "control"), (NoisePath, "noise")])
def test_mode_paths_refuse_flat_non_finite_and_step_free_arrays(cls, what):
    """A control and a noise path each refuse a 1-d array, a NaN entry and
    a step size that is not a finite positive number, by name, and store the
    step as a float; ``Control.zero`` and ``NoisePath.generate`` refuse a mode
    count that is not an integer >= 1, where ``int`` would draw 2 or 1 modes."""
    with pytest.raises(ValidationError, match=f"^{what} values must be 2-d, got shape \\(4,\\)$"):
        cls(np.zeros(4), 0.1)
    bad = np.zeros((4, 2))
    bad[2, 1] = np.nan
    with pytest.raises(ValidationError, match=f"^{what} contains non-finite values$"):
        cls(bad, 0.1)
    for dt in (0.0, -0.1, float("nan"), float("inf"), "0.1", True):
        with pytest.raises(ValidationError, match=f"^{what} dt must be finite and positive"):
            cls(np.zeros((4, 2)), dt)
    path = cls(np.ones((4, 2)), 0.1)
    assert path.values.shape == (4, 2) and path.steps == 4 and path.n_modes == 2
    assert type(cls(np.ones((4, 2)), 1).dt) is float
    tg = build_tgrid(steps=4)
    make = Control.zero if cls is Control else partial(NoisePath.generate, master_seed=1)
    for n_modes in (2.5, True, 0):
        with pytest.raises(ValidationError,
                           match=f"^n_modes must be an integer >= 1, got {re.escape(repr(n_modes))}$"):
            make(tg, n_modes)
    if cls is NoisePath:
        assert path.increments is path.values


def table_bytes(table):
    return [np.asarray(col).tobytes() for col in table]


def test_law_on_nodes_matches_one_call_over_a_path(small_grid, small_coeffs, small_tgrid):
    """The law table, read node by node, equals the node fields of one
    ``law_statistics`` call over the left nodes of a path, bit for bit."""
    from fracmv import dynamics

    path = solve_deterministic(build_u0(small_grid), small_coeffs, small_tgrid)
    table = dynamics._law_table(small_coeffs, small_grid, small_tgrid.nodes, path.values[:, None])
    one = law_statistics(path.values[:-1, None], small_grid, small_coeffs.f.h_cap)
    rows = [small_coeffs.node_fields(small_grid, float(t), row)
            for t, row in zip(small_tgrid.nodes, one)]
    assert table.phi_h.shape == (small_tgrid.steps,) + small_grid.shape
    assert table_bytes(table) == table_bytes(NodeFields(*map(np.stack, zip(*rows))))


def test_law_on_a_constant_view_is_the_node_by_node_table(small_grid, small_coeffs, rng):
    """A stride-0 view repeats one node; its law table equals the one of a
    materialized copy, bit for bit."""
    from fracmv import dynamics

    node = rng.standard_normal((5,) + small_grid.shape)
    view = np.broadcast_to(node, (41,) + node.shape)
    times = build_tgrid(steps=40).nodes
    table = dynamics._law_table(small_coeffs, small_grid, times, view)
    assert table.free.shape == (40, small_coeffs.sigma.n_modes) + small_grid.shape
    copy = dynamics._law_table(small_coeffs, small_grid, times, view.copy())
    assert table_bytes(table) == table_bytes(copy)


# -- blow-up reporting ---------------------------------------------------


def test_overflowing_state_raises_blow_up(small_grid, small_coeffs):
    """Overflow in the cubic drift poisons taming (inf/inf), which the
    step guard must surface as a blow-up at the failing node."""
    tg = build_tgrid(steps=16)
    u0 = build_u0(small_grid, amp=1e120)
    with pytest.raises(BlowUpError) as exc_info:
        solve_deterministic(u0, small_coeffs, tg)
    err = exc_info.value
    assert err.step == 0
    assert err.time == pytest.approx(tg.dt)
    assert err.particle is None
    assert "non-finite" in str(err)


@pytest.mark.parametrize(
    "amp,law",
    [(1e120, "frozen"), (1e120, "dirac"), (1e160, "dirac")],
    ids=["power-overflow-frozen", "power-overflow-dirac", "square-overflow-in-the-law-read"],
)
def test_node_stream_owns_its_floating_point_state(amp, law, small_grid, small_coeffs):
    """The step kernel's stream, consumed directly and with no ``np.errstate``
    around it, starts with ``starts`` itself and ends an overflowing step in a
    blow-up, not a ``RuntimeWarning`` (which the test run turns into an error):
    at 1e120 the drift's power overflows, at 1e160 already the square in the
    law read from the batch (``law=None``), before any arithmetic of the step."""
    from fracmv import dynamics

    tg = build_tgrid(steps=16)
    starts = build_u0(small_grid, amp=amp).values[None] * np.array([[1.0], [0.5]])
    table = None
    if law == "frozen":
        base = solve_deterministic(build_u0(small_grid), small_coeffs, tg)
        table = dynamics._law_table(small_coeffs, small_grid, tg.nodes, base.values[:, None])
    stream = dynamics._step_nodes(small_grid, small_coeffs, starts, tg, table)
    assert next(stream) is starts
    with pytest.raises(BlowUpError) as exc_info:
        next(stream)
    assert (exc_info.value.step, exc_info.value.particle) == (0, 0)


@pytest.mark.parametrize("bad", [1, 2, 64])
def test_controlled_batch_blow_up_names_the_row(small_grid, small_coeffs, small_tgrid, bad,
                                                monkeypatch):
    """Row ``bad`` of a stack of controls overflows; that row is named
    wherever it sits in the batch, in one slab or in the last of several, and a
    single controlled path still names none."""
    from fracmv import dynamics

    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, small_tgrid)
    controls = np.zeros((bad + 2, small_tgrid.steps, small_coeffs.sigma.n_modes))
    controls[bad] = 1e300
    solve = dynamics._controlled_solver(u0, base, small_coeffs, small_tgrid)[0]
    with pytest.raises(BlowUpError) as exc_info:
        solve(controls)
    assert exc_info.value.particle == bad
    # in slabs of 4 rows the bad row sits in the last slab: the 2-row slab 64-65 at
    # bad = 64, the 3- and 4-row single slabs at bad = 1 and 2
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_SLAB_BYTES", 4 * 8 * small_grid.n_cells)
        with pytest.raises(BlowUpError) as exc_info:
            solve(controls)
    assert exc_info.value.particle == bad
    with pytest.raises(BlowUpError) as exc_info:
        solve_controlled(u0, Control(controls[bad], small_tgrid.dt), base, small_coeffs, small_tgrid)
    assert exc_info.value.particle is None


@pytest.mark.parametrize("dim", [1, 2])
def test_run_steps_rows_with_control_and_noise_match_one_row_runs(dim, rng):
    """A batch driven by both a control and noise, sigma's drive formed here as
    ``dt v + sqrt(eps) dW``: each row equals its own one-row run bit for bit, so the
    batch size never shows."""
    from fracmv import dynamics

    grid = build_grid(dim=dim, points=16)
    coeffs = build_coeffs(grid, n_modes=3)
    tg = build_tgrid(steps=12)
    n, K = 6, coeffs.sigma.n_modes
    u0 = build_u0(grid)
    starts = u0.values[None] * (1.0 + 0.2 * rng.standard_normal((n,) + (1,) * dim))
    base = solve_deterministic(u0, coeffs, tg)
    table = dynamics._law_table(coeffs, grid, tg.nodes, base.values[:, None])
    control = 0.5 * rng.standard_normal((tg.steps, n, K))
    noise = np.sqrt(tg.dt) * rng.standard_normal((tg.steps, n, K))
    theta = tg.dt * control + math.sqrt(0.05) * noise
    out = run_kernel(grid, coeffs, starts, tg, table, theta)
    for i in range(n):
        one = run_kernel(grid, coeffs, starts[i : i + 1], tg, table, theta[:, i : i + 1])
        assert out[:, i].tobytes() == one[:, 0].tobytes()


def _reference_step(grid, coeffs, vals, stats, t, dt, res_mult, eps, v_s, dw_s):
    """The step as the kernel wrote it before its node fields were shared:
    f, g and sigma's drive from the law triple at every step, then the
    resolvent through ``grid.apply_multiplier``."""
    f, g, sig = coeffs.f, coeffs.g, coeffs.sigma
    hbar_f, hbar1, root_m2 = stats
    with np.errstate(over="ignore", invalid="ignore"):
        f_vals = f.lambda_f * vals ** (f.p - 1) + f.phi.values(t, grid) * hbar_f
        tamed = f_vals / (1.0 + dt * np.abs(f_vals))
        g_vals = g.psi.values(t, grid) * (g.c0 + g.c1 * np.tanh(vals) + g.c2 * hbar1)
        tilde = vals + dt * (g_vals - tamed)
        parts = [] if v_s is None else [dt * v_s]
        if dw_s is not None and eps > 0.0:
            parts.append(np.sqrt(eps) * dw_s)
        if parts:
            theta = np.sum(parts, axis=0)
            col = (-1,) + (1,) * grid.dim
            free = sig.free_fields(t, root_m2).reshape(1, sig.n_modes, -1)
            out = np.matmul(theta[:, None, :], free).reshape(vals.shape)
            slope = np.matmul(theta[:, None, :], sig.gamma[:, None]).reshape(col)
            tilde = tilde + (out + sig.kappa.values * (slope * vals))
        return grid.apply_multiplier(tilde, res_mult)


def _reference_run(grid, coeffs, starts, tg, stats, eps, control, noise):
    res_mult = grid.resolvent_multiplier(coeffs.alpha, tg.dt)
    out = [starts]
    for s in range(tg.steps):
        row = law_statistics(out[-1], grid, coeffs.f.h_cap) if stats is None else stats[s]
        out.append(_reference_step(
            grid, coeffs, out[-1], row, float(tg.nodes[s]), tg.dt, res_mult, eps,
            None if control is None else control[s], None if noise is None else noise[s],
        ))
    return np.stack(out)


@pytest.mark.parametrize("law", ["frozen", "dirac", "controlled"])
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("dim", [1, 2])
def test_run_steps_matches_the_per_step_kernel_byte_for_byte(dim, n, law, rng):
    """The kernel that builds each node's fields once equals the step that
    built them at every step, bit for bit: against a frozen law's table
    (:func:`_law_table`) with control and noise, against the Dirac law of the batch itself
    (``law=None``), and through the controlled solver's prebuilt node fields.  The
    kernel is fed sigma's drive ``dt v + sqrt(eps) dW`` formed here; the reference forms
    it from the control and the noise at each step."""
    from fracmv import dynamics

    grid = build_grid(dim=dim, points=16)
    coeffs = build_coeffs(grid, n_modes=3)
    coeffs = dataclasses.replace(
        coeffs,
        g=dataclasses.replace(coeffs.g, psi=PsiField("separable", 0.5, 2.0)),
        sigma=dataclasses.replace(coeffs.sigma, profile=TimeProfile(1.0, 0.5, 3.0, 0.2)),
    )
    tg = build_tgrid(steps=10)
    u0 = build_u0(grid)
    K = coeffs.sigma.n_modes
    base = solve_deterministic(u0, coeffs, tg)
    stats = law_statistics(base.values[:-1, None], grid, coeffs.f.h_cap)
    control = 2.0 * rng.standard_normal((tg.steps, n, K))
    if law == "controlled":
        starts = np.repeat(u0.values[None], n, axis=0)
        got = dynamics._controlled_solver(u0, base, coeffs, tg)[0](control.transpose(1, 0, 2))
        ref = _reference_run(grid, coeffs, starts, tg, stats, 0.0, control, None)
        assert got.tobytes() == ref.swapaxes(0, 1).tobytes()
        return
    starts = u0.values[None] * (1.0 + 0.3 * rng.standard_normal((n,) + (1,) * dim))
    noise = np.sqrt(tg.dt) * rng.standard_normal((tg.steps, n, K))
    table = dynamics._law_table(coeffs, grid, tg.nodes, base.values[:, None])
    law_arg, ref_law = (table, stats) if law == "frozen" else (None, None)
    root_eps = math.sqrt(0.05)
    cases = (
        (0.05, control, noise, tg.dt * control + root_eps * noise),
        (0.05, None, noise, root_eps * noise),
        (0.0, control, None, tg.dt * control),
    )
    for eps, ctl, dw, theta in cases:
        got = run_kernel(grid, coeffs, starts, tg, law_arg, theta)
        ref = _reference_run(grid, coeffs, starts, tg, ref_law, eps, ctl, dw)
        assert got.tobytes() == ref.tobytes()


def test_slabs_of_four_and_one_rows_match_one_row_runs(rng):
    """On a 64 x 64 grid a slab holds 4 fields, so 5 paths run as slabs of 4 rows
    and 1.  Each row equals its one-row run bit for bit: a sweep against its own law
    (``law=None``, read from sums taken slab by slab) is the ``solve_frozen`` run of
    each path against the swept flow and the whole-batch reference step; a
    frozen-table ``apply_phi`` is one ``solve_frozen`` per particle; a controlled
    stack is one ``solve_controlled`` per control."""
    from fracmv import dynamics

    grid = build_grid(dim=2, points=64)
    assert dynamics._SLAB_BYTES // (8 * grid.n_cells) == 4
    coeffs = build_coeffs(grid, n_modes=3)
    tg, n, K, eps, seed = build_tgrid(steps=6), 5, coeffs.sigma.n_modes, 0.05, 11
    u0 = build_u0(grid)
    starts = u0.values[None] * (1.0 + 0.2 * rng.standard_normal((n, 1, 1)))
    paths = [NoisePath.generate(tg, K, seed, i) for i in range(n)]
    noise = np.stack([w.increments for w in paths], axis=1)

    sweep = run_kernel(grid, coeffs, starts, tg, None, math.sqrt(eps) * noise)
    ref = _reference_run(grid, coeffs, starts, tg, None, eps, None, noise)
    assert sweep.tobytes() == ref.tobytes()
    flow = MeasureFlow(grid, tg.nodes, sweep)
    for i in range(n):
        one = solve_frozen(GridFunction(grid, starts[i]), flow, coeffs, tg, eps, paths[i])
        assert sweep[:, i].tobytes() == one.values.tobytes()

    problem = MeanFieldProblem(grid, tg, coeffs, u0, eps, seed, initial_states=starts)
    flow0 = MeasureFlow.constant(EmpiricalMeasure(grid, starts), tg.nodes)
    image = apply_phi(problem, flow0)
    for i in range(n):
        one = solve_frozen(GridFunction(grid, starts[i]), flow0, coeffs, tg, eps, paths[i])
        assert image.states[:, i].tobytes() == one.values.tobytes()

    base = solve_deterministic(u0, coeffs, tg)
    controls = rng.standard_normal((n, tg.steps, K))
    stack = dynamics._controlled_solver(u0, base, coeffs, tg)[0](controls)
    for v, path in zip(controls, stack, strict=True):
        one = solve_controlled(u0, Control(v, tg.dt), base, coeffs, tg)
        assert path.tobytes() == one.values.tobytes()


def test_controlled_solver_builds_node_fields_once(small_grid, small_coeffs, small_tgrid,
                                                   monkeypatch, rng):
    """The controlled map, its adjoint and its Gauss-Newton matrix share one
    table of node fields: three evaluations (a forward solve, a pullback and a
    normal matrix each) build sigma's state-free stack once per node, not once
    per node and evaluation."""
    from fracmv import dynamics

    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, small_tgrid)
    calls = []
    original = NoiseSigma.free_fields

    def counted(self, t, root_m2):
        calls.append(t)
        return original(self, t, root_m2)

    monkeypatch.setattr(NoiseSigma, "free_fields", counted)
    paths, pullback, normal = dynamics._controlled_solver(u0, base, small_coeffs, small_tgrid)
    S, K = small_tgrid.steps, small_coeffs.sigma.n_modes
    for _ in range(3):
        v = rng.standard_normal((S, K))
        path = paths(v[None])[0]
        assert pullback(v, path, np.ones_like(path)).shape == (S * K,)
        assert normal(v, path, np.ones(S + 1)).shape == (S * K, S * K)
    assert len(calls) == S


def test_controlled_stack_rows_match_single_solves(small_grid, small_coeffs, rng):
    """A stack of controls runs as one batch; every row of the
    ``(m, S+1, *grid)`` result equals its own ``solve_controlled`` bit for bit."""
    from fracmv import dynamics

    tg = build_tgrid(steps=8)
    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, tg)
    controls = rng.standard_normal((7, tg.steps, small_coeffs.sigma.n_modes))
    paths = dynamics._controlled_solver(u0, base, small_coeffs, tg)[0](controls)
    assert paths.shape == (7, tg.steps + 1) + small_grid.shape
    for v, path in zip(controls, paths, strict=True):
        ref = solve_controlled(u0, Control(v, tg.dt), base, small_coeffs, tg)
        assert path.tobytes() == ref.values.tobytes()


def test_no_step_path_builds_the_mode_stack(small_grid, small_coeffs, small_tgrid, monkeypatch):
    """The stepper and the energy balance apply the noise operator
    without the ``(N, K, *grid)`` stack of mode fields."""
    def refuse(*args, **kwargs):
        raise AssertionError("NoiseSigma.fields called on a step path")

    monkeypatch.setattr(NoiseSigma, "fields", refuse)
    u0 = build_u0(small_grid)
    problem = MeanFieldProblem(small_grid, small_tgrid, small_coeffs, u0, 0.05, 3)
    apply_phi(problem, constant_flow(u0, 4, small_tgrid.nodes))
    base = solve_deterministic(u0, small_coeffs, small_tgrid)
    v = Control(0.3 * np.ones((small_tgrid.steps, small_coeffs.sigma.n_modes)), small_tgrid.dt)
    path = solve_controlled(u0, v, base, small_coeffs, small_tgrid)
    assert np.all(np.isfinite(energy_residual(path, small_coeffs, v, base)))


# -- persistence ---------------------------------------------------------


def test_blob_roundtrip_and_byte_determinism(tmp_path, small_grid, small_coeffs):
    tg = build_tgrid(steps=10)
    u0 = build_u0(small_grid)
    traj = solve_deterministic(u0, small_coeffs, tg)
    p1 = save_trajectory(traj, tmp_path / "a.traj")
    p2 = save_trajectory(traj, tmp_path / "b.traj")
    assert p1.read_bytes() == p2.read_bytes()
    back = load_trajectory(p1)
    assert back.grid == traj.grid
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.values, traj.values)


def test_blob_append_survives_short_writes(tmp_path, small_grid, small_coeffs, monkeypatch):
    """``os.write`` may write fewer bytes than it is given: a blob appended through
    one that writes at most 1,000 bytes a call is the file of a whole write."""
    traj = solve_deterministic(build_u0(small_grid), small_coeffs, build_tgrid(steps=10))
    whole = save_trajectory(traj, tmp_path / "whole.traj").read_bytes()
    real, calls = os.write, []

    def short(fd, data):
        calls.append(len(data))
        return real(fd, data[:1000])

    monkeypatch.setattr(os, "write", short)
    path = save_trajectory(traj, tmp_path / "short.traj")
    monkeypatch.undo()
    assert len(calls) == math.ceil(traj.values.nbytes / 1000) > 1
    assert path.read_bytes() == whole


def test_load_trajectory_refuses_a_directory(tmp_path):
    """A trajectory is one blob file; a directory, such as one in the retired csv
    layout, is refused naming it."""
    (tmp_path / "nodes").mkdir()
    with pytest.raises(ValidationError, match=r"nodes: is a directory; a trajectory is one blob"):
        load_trajectory(tmp_path / "nodes")


def test_control_roundtrip(tmp_path):
    tg = build_tgrid(steps=8)
    rng = np.random.default_rng(3)
    v = Control(rng.standard_normal((tg.steps, 3)), tg.dt)
    path = save_control(v, tmp_path / "v.csv")
    back = load_control(path)
    assert back.dt == pytest.approx(v.dt, rel=1e-15)
    assert np.array_equal(back.values, v.values)


# -- distances and bookkeeping -------------------------------------------


def test_distance_helpers_against_direct_sums(small_grid, small_coeffs):
    tg = build_tgrid(steps=10)
    a = solve_deterministic(build_u0(small_grid), small_coeffs, tg)
    b = solve_deterministic(build_u0(small_grid, amp=1.3), small_coeffs, tg)
    w = small_grid.cell_volume
    brute_sup = max(
        np.sqrt(w * np.sum((a.values[s] - b.values[s]) ** 2)) for s in range(tg.steps + 1)
    )
    assert sup_distance(a, b) == pytest.approx(brute_sup, rel=1e-14)
    alpha = small_coeffs.alpha
    brute_int = np.sqrt(
        sum(
            tg.dt
            * (
                l2_norm(GridFunction(small_grid, a.values[s] - b.values[s])) ** 2
                + l2_norm(apply_fractional_laplacian(
                    GridFunction(small_grid, a.values[s] - b.values[s]), alpha / 2)) ** 2
            )
            for s in range(tg.steps)
        )
    )
    assert integrated_v_distance(a, b, alpha) == pytest.approx(brute_int, rel=1e-12)
    short = solve_deterministic(build_u0(small_grid), small_coeffs, build_tgrid(steps=5))
    with pytest.raises(GridMismatchError):
        sup_distance(a, short)


def test_energy_residual_shape_checks(small_grid, small_coeffs):
    tg = build_tgrid(steps=10)
    traj = solve_deterministic(build_u0(small_grid), small_coeffs, tg)
    res = energy_residual(traj, small_coeffs)
    assert res.shape == (tg.steps + 1,)
    assert res[0] == 0.0
    bad_v = Control.zero(build_tgrid(steps=5), small_coeffs.sigma.n_modes)
    with pytest.raises(ValidationError):
        energy_residual(traj, small_coeffs, control=bad_v)


def test_trajectory_validation(small_grid):
    tg = build_tgrid(steps=4)
    good = np.zeros((tg.steps + 1,) + small_grid.shape)
    traj = Trajectory(small_grid, tg.nodes, good)
    assert traj.n_nodes == tg.steps + 1
    with pytest.raises(ValidationError):
        Trajectory(small_grid, tg.nodes, good[:-1])
    with pytest.raises(ValidationError):
        Trajectory(small_grid, tg.nodes[::-1].copy(), good)


def test_time_grid_validation():
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="horizon"):
            TimeGrid(horizon=bad, steps=10)
    with pytest.raises(ValidationError):
        TimeGrid(horizon=1.0, steps=0)
    tg = TimeGrid(horizon=1.0, steps=4)
    assert np.allclose(tg.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert tg.dt == pytest.approx(0.25)


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: TimeGrid(0.5, True), "steps"),
        (lambda: TimeGrid("0.5", 10), "horizon"),
        (lambda: PicardConfig(n_particles=True), "n_particles"),
        (lambda: PicardConfig(tol="1e-6"), "tol"),
        (lambda: RateProblem(None, max_iters=True), "max_iters"),
        (lambda: RateProblem(None, eta="1e-6"), "eta"),
        (lambda: RateProblem(None, gap_tol="1e-3"), "gap_tol"),
    ],
    ids=["steps-bool", "horizon-str", "n_particles-bool", "tol-str", "max_iters-bool",
         "eta-str", "gap_tol-str"],
)
def test_settings_refuse_a_bool_count_and_a_string_real(build, field):
    """A bool is not a count and a string is not a real: each is refused by name,
    as ``SpatialGrid`` refuses them, not read as 1 or stored as text."""
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        build()
