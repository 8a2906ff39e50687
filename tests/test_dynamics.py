import numpy as np
import pytest

from helpers import build_coeffs, build_grid, build_tgrid, build_u0

from fracmv.coefficients import CoefficientSet, DriftF, DriftG, NoiseSigma, PsiField, TimeProfile
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
from fracmv.grid import (
    GridFunction,
    apply_fractional_laplacian,
    apply_semigroup_resolvent,
    l2_norm,
)
from fracmv.measure import EmpiricalMeasure, MeasureFlow


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
    cur = u0
    for s in range(1, tg.steps + 1):
        cur = apply_semigroup_resolvent(cur, coeffs.alpha, tg.dt)
        assert np.array_equal(traj.values[s], cur.values)


def test_first_order_in_time(small_grid, small_coeffs):
    """Difference against the finest run shrinks with the 3:1 ratio of a
    first-order scheme (error C*h vs C*h/2, both measured against C*h/4)."""
    u0 = build_u0(small_grid)

    def terminal(steps):
        tg = TimeGrid(horizon=0.25, steps=steps)
        return solve_deterministic(u0, small_coeffs, tg).terminal()

    t1, t2, t4 = terminal(40), terminal(80), terminal(160)
    e1 = l2_norm(GridFunction(small_grid, t1.values - t4.values))
    e2 = l2_norm(GridFunction(small_grid, t2.values - t4.values))
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


@pytest.mark.parametrize("chunk", [1, 2, 64])
def test_controlled_batch_blow_up_names_the_row(small_grid, small_coeffs, small_tgrid,
                                                chunk, monkeypatch):
    """Row 3 of a stack of controls overflows; the row is named whatever
    the chunking, and a single controlled path still names none."""
    from fracmv import dynamics

    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    u0 = build_u0(small_grid)
    base = solve_deterministic(u0, small_coeffs, small_tgrid)
    controls = np.zeros((5, small_tgrid.steps, small_coeffs.sigma.n_modes))
    controls[3] = 1e300
    solve = dynamics._controlled_solver(u0, base, small_coeffs, small_tgrid)
    with pytest.raises(BlowUpError) as exc_info:
        list(solve(controls))
    assert exc_info.value.particle == 3
    with pytest.raises(BlowUpError) as exc_info:
        solve_controlled(u0, Control(controls[3], small_tgrid.dt), base, small_coeffs, small_tgrid)
    assert exc_info.value.particle is None


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


def test_csv_trajectory_roundtrip(tmp_path, small_coeffs):
    g = build_grid(points=16)
    tg = build_tgrid(steps=4)
    coeffs = build_coeffs(g)
    traj = solve_deterministic(build_u0(g), coeffs, tg)
    d = save_trajectory(traj, tmp_path / "nodes", fmt="csv")
    back = load_trajectory(d)
    assert np.array_equal(back.values, traj.values)
    assert np.array_equal(back.times, traj.times)
    with pytest.raises(ValidationError):
        save_trajectory(traj, tmp_path / "x", fmt="parquet")


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
    with pytest.raises(ValidationError):
        TimeGrid(horizon=0.0, steps=10)
    with pytest.raises(ValidationError):
        TimeGrid(horizon=1.0, steps=0)
    tg = TimeGrid(horizon=1.0, steps=4)
    assert np.allclose(tg.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert tg.dt == pytest.approx(0.25)
