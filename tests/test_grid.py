import json
import math
import re

import numpy as np
import pytest

from helpers import build_coeffs, build_grid, build_tgrid, build_u0, random_field

from fracmv.coefficients import PsiField
from fracmv.errors import InvalidFieldError, ValidationError
from fracmv.grid import (
    GridFunction,
    SpatialGrid,
    apply_fractional_laplacian,
    check_fractional_order,
    l2_norm,
    load_grid_function,
    save_grid_function,
    sq_norms,
    sq_seminorms,
    sq_v_norms,
    tail_masses,
)


@pytest.mark.parametrize("alpha", [0.2, 0.6, 0.95, 1.0])
@pytest.mark.parametrize("dim,points", [(1, 64), (2, 16)])
def test_single_modes_are_exact_eigenfunctions(alpha, dim, points, rng):
    """cos(xi.x + theta) maps to |xi|^(2 alpha) times itself."""
    g = build_grid(dim=dim, half_width=3.0, points=points)
    coords = g.coordinates()
    for _ in range(10):
        ks = rng.integers(1, points // 2 - 1, size=dim)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        xi = np.pi * ks / g.half_width
        phase = sum(xi[i] * coords[i] for i in range(dim)) + theta
        u = GridFunction(g, np.cos(phase))
        lam = float(np.sum(xi**2)) ** alpha
        out = apply_fractional_laplacian(u, alpha)
        err = np.max(np.abs(out.values - lam * u.values)) / lam
        assert err <= 1e-12


def test_half_order_composition_matches_full_order(rng):
    g = build_grid()
    u = random_field(g, rng)
    alpha = 0.7
    once = apply_fractional_laplacian(apply_fractional_laplacian(u, alpha / 2), alpha / 2)
    full = apply_fractional_laplacian(u, alpha)
    assert np.allclose(once.values, full.values, rtol=0.0, atol=1e-11 * np.max(np.abs(full.values)))


def test_resolvent_inverts_forward_operator(rng):
    g = build_grid()
    u = random_field(g, rng)
    alpha, tau = 0.6, 0.01
    mult = g.resolvent_multiplier(alpha, tau)
    w = GridFunction(g, g.apply_multiplier(u.values, mult))
    recon = w.values + tau * apply_fractional_laplacian(w, alpha).values
    assert np.max(np.abs(recon - u.values)) <= 1e-12 * max(1.0, np.max(np.abs(u.values)))
    # the resolvent is a contraction: no Fourier coefficient grows
    assert np.all((0.0 < mult) & (mult <= 1.0))
    assert l2_norm(w) <= l2_norm(u) + 1e-14


@pytest.mark.parametrize("dim,points", [(1, 64), (2, 16)])
def test_apply_multiplier_matches_the_n_d_transform(dim, points, rng):
    """The split transforms agree with numpy's ``irfftn(mult * rfftn(x))`` over
    the grid axes, for one field and for a batch, and every batch row equals
    the single-field call byte for byte.  The n-d comparison is at 1e-13, not
    bytes, since ``irfftn`` scales once per axis, not once in all."""
    g = build_grid(dim=dim, points=points)
    axes = tuple(range(-dim, 0))
    half = g.symbol_sq().shape
    for mult in (g.resolvent_multiplier(0.6, 0.01), rng.uniform(-1.0, 1.0, half)):
        batch = 10.0 ** rng.uniform(-3, 3, (7,) + (1,) * dim) * rng.standard_normal((7,) + g.shape)
        got = g.apply_multiplier(batch, mult)
        ref = np.fft.irfftn(mult * np.fft.rfftn(batch, axes=axes), s=g.shape, axes=axes)
        assert got.shape == batch.shape
        for row, got_row, ref_row in zip(batch, got, ref):
            np.testing.assert_allclose(got_row, ref_row, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref_row)))
            one = g.apply_multiplier(row, mult)
            np.testing.assert_allclose(one, ref_row, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref_row)))
            assert one.tobytes() == got_row.tobytes()


@pytest.mark.parametrize(
    "dim,points,lead",
    [(1, 32, ()), (1, 64, (7,)), (1, 128, (64,)), (2, 8, (7,)), (2, 16, ()), (2, 16, (7,)),
     (2, 32, (64,)), (2, 6, (5,)), (2, 24, (3,))],
    ids=["1d-32", "1d-64-batch", "1d-128-particles", "2d-8-batch", "2d-16", "2d-16-batch",
         "2d-32-particles", "2d-6-batch", "2d-24-batch"],
)
def test_apply_multiplier_gives_scipy_fft_bits(dim, points, lead, rng):
    """numpy's FFT in every dimension gives ``scipy.fft``'s bits: the spectrum
    equals ``rfftn``'s and the multiplier's result ``irfftn``'s, on the test
    grids, the 2-d particle stack (64, 32, 32) and sides that are not a power
    of two, where a scaling per pass would round twice."""
    import scipy.fft

    g = build_grid(dim=dim, points=points)
    axes = tuple(range(-dim, 0))
    values = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(lead + g.shape)
    spec = scipy.fft.rfftn(values, axes=axes)
    assert g.spectrum(values).tobytes() == spec.tobytes()
    for mult in (g.resolvent_multiplier(0.6, 0.01), rng.uniform(-1.0, 1.0, g.symbol_sq().shape)):
        ref = scipy.fft.irfftn(spec * mult, s=g.shape, axes=axes)
        assert g.apply_multiplier(values, mult).tobytes() == ref.tobytes()


def test_seminorm_agrees_with_operator_routes(rng):
    """Parseval value == half-order operator norm == quadratic form."""
    g = build_grid(points=64)
    u = random_field(g, rng)
    for alpha in (0.3, 0.6, 0.9):
        semi = np.sqrt(sq_seminorms(u.values, g, alpha))
        via_half = l2_norm(apply_fractional_laplacian(u, alpha / 2))
        form = g.cell_volume * np.sum(u.values * apply_fractional_laplacian(u, alpha).values)
        via_form = np.sqrt(form)
        assert semi == pytest.approx(via_half, rel=1e-10)
        assert semi == pytest.approx(via_form, rel=1e-10)


def test_v_norm_combines_parts(rng):
    g = build_grid()
    u = random_field(g, rng)
    alpha, c_v = 0.6, 2.5
    expected = l2_norm(u) ** 2 + c_v * sq_seminorms(u.values, g, alpha)
    assert sq_v_norms(u.values, g, alpha, c_v) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValidationError):
        sq_v_norms(u.values, g, alpha, c_v=0.0)


def test_tail_mass_endpoints_and_monotonicity():
    g = build_grid(half_width=8.0, points=128)
    u = build_u0(g, amp=1.0, width=1.0)
    assert tail_masses(u.values, g, 0.0) == pytest.approx(l2_norm(u) ** 2, rel=1e-14)
    ms = np.linspace(0.0, g.half_width, 33)
    vals = [tail_masses(u.values, g, m) for m in ms]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValidationError):
        tail_masses(u.values, g, g.half_width + 1.0)


def per_field_seminorm_sq(u: GridFunction, alpha: float) -> float:
    """The Parseval sum of one field, with the full spectrum's multiplicities."""
    g = u.grid
    m = g.points_per_dim
    mult = np.full(m // 2 + 1, 2.0)
    mult[0] = mult[-1] = 1.0
    weights = mult if g.dim == 1 else np.broadcast_to(mult, (m, m // 2 + 1))
    power = (np.abs(np.fft.rfftn(u.values)) ** 2) * g.fractional_symbol(alpha)
    return np.sum(weights * power) * g.cell_volume / g.n_cells


@pytest.mark.parametrize("dim,points", [(1, 64), (2, 16)])
def test_batched_norms_equal_each_field_taken_alone(dim, points, rng):
    """Every entry of an (S, N, *shape) stack equals the norm of that field
    taken alone, and the per-field formulas, bit for bit."""
    g = build_grid(dim=dim, half_width=3.0, points=points)
    stack = rng.standard_normal((3, 4) + g.shape) * rng.uniform(0.1, 3.0, (3, 4) + (1,) * dim)
    alpha, c_v, w = 0.6, 2.5, g.cell_volume
    radii = (0.0, 1.1, g.half_width / 2, g.half_width)
    # |x| >= 1.1 keeps both ends of each row: the gathered cells are not one block
    assert np.count_nonzero(np.diff((g.radius() >= 1.1).ravel().astype(int))) >= 2
    sq, semi = sq_norms(stack, g), sq_seminorms(stack, g, alpha)
    sq_v = sq_v_norms(stack, g, alpha, c_v)
    tails = {m: tail_masses(stack, g, m) for m in radii}
    assert sq.shape == semi.shape == sq_v.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        u = GridFunction(g, stack[idx])
        assert sq[idx] == sq_norms(u.values, g) == w * np.sum(u.values**2)
        assert np.sqrt(sq[idx]) == l2_norm(u)
        assert semi[idx] == sq_seminorms(u.values, g, alpha) == per_field_seminorm_sq(u, alpha)
        assert sq_v[idx] == sq_v_norms(u.values, g, alpha, c_v) == sq[idx] + c_v * semi[idx]
        for m, vals in tails.items():
            outside = u.values[g.radius() >= m]
            assert vals[idx] == tail_masses(u.values, g, m) == w * np.sum(outside**2)
    # a strided view of the stack reads the same fields
    for m, vals in tails.items():
        assert np.array_equal(tail_masses(stack[::2, ::-1], g, m), vals[::2, ::-1])
    assert np.array_equal(sq_seminorms(stack[:, 1:3], g, alpha), semi[:, 1:3])


def test_save_load_roundtrip_is_exact(tmp_path, rng):
    g = build_grid(dim=2, half_width=2.0, points=8)
    u = random_field(g, rng)
    path = save_grid_function(u, tmp_path / "field.csv")
    back = load_grid_function(path)
    assert back.grid == g
    assert np.array_equal(back.values, u.values)


@pytest.mark.parametrize("dim,points", [(1, 16), (2, 4)])
def test_saved_csv_is_savetxt_byte_for_byte(tmp_path, rng, dim, points):
    g = build_grid(dim=dim, half_width=2.0, points=points)
    vals = rng.standard_normal(g.n_cells)
    vals[:6] = [-0.0, 1e-300, -1e-300, 1e300, -1e300, -2.5]
    path = save_grid_function(GridFunction(g, vals.reshape(g.shape)), tmp_path / "field.csv")
    data = np.column_stack([c.ravel() for c in g.coordinates()] + [vals])
    header = ",".join([f"x{i + 1}" for i in range(dim)] + ["value"])
    np.savetxt(tmp_path / "ref.csv", data, delimiter=",", header=header, comments="", fmt="%.17g")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b",-0\n" in path.read_bytes() and b",1.0000000000000001e+300\n" in path.read_bytes()


def test_load_rejects_geometry_mismatch(tmp_path, rng):
    g = build_grid(points=16)
    u = random_field(g, rng)
    path = save_grid_function(u, tmp_path / "field.csv")
    meta = path.with_suffix(path.suffix + ".meta.json")
    meta.write_text(meta.read_text().replace("16", "32"))
    with pytest.raises(ValidationError):
        load_grid_function(path)


def test_field_validation():
    g = build_grid(points=8)
    bad = np.zeros(g.shape)
    bad[0] = np.nan
    with pytest.raises(InvalidFieldError):
        GridFunction(g, bad)
    with pytest.raises(ValidationError):
        GridFunction(g, np.zeros(5))


def _containers():
    """Each container of fields, built from an array of its lead shape plus the
    trailing shape given, on the 2-d grid ``g``."""
    from fracmv.dynamics import Trajectory
    from fracmv.measure import EmpiricalMeasure, MeasureFlow
    from fracmv.mckean_vlasov import MeanFieldProblem

    g = build_grid(dim=2, points=8)
    coeffs, tg = build_coeffs(g), build_tgrid(steps=3)
    return g, {
        "grid function": ((), lambda a: GridFunction(g, a).values),
        "empirical measure": ((3,), lambda a: EmpiricalMeasure(g, a).states),
        "measure flow": ((4, 3), lambda a: MeasureFlow(g, tg.nodes, a).states),
        "trajectory": ((4,), lambda a: Trajectory(g, tg.nodes, a).values),
        "initial_states": ((3,), lambda a: MeanFieldProblem(
            g, tg, coeffs, build_u0(g), 0.0, 1, initial_states=a).initial_states),
    }


@pytest.mark.parametrize(
    "what", ["grid function", "empirical measure", "measure flow", "trajectory", "initial_states"]
)
def test_every_field_container_refuses_a_wrong_shape_and_a_nan_by_name(what, rng):
    """Each container of fields takes an integer array of its shape as floats,
    and refuses, by its own name, a trailing shape one cell short on the last
    axis and a NaN in its last entry."""
    g, containers = _containers()
    lead, build = containers[what]
    stored = build(rng.integers(-3, 3, size=lead + g.shape))
    assert stored.dtype == np.float64 and stored.shape == lead + g.shape
    with pytest.raises(ValidationError, match=f"^{what} has shape {re.escape(str(lead + (8, 7)))}"):
        build(np.zeros(lead + (8, 7)))
    bad = rng.standard_normal(lead + g.shape)
    bad.reshape(-1)[-1] = np.nan
    with pytest.raises(InvalidFieldError, match=f"^{what} contains non-finite values$"):
        build(bad)


def test_grid_and_order_validation():
    with pytest.raises(ValidationError):
        SpatialGrid(dim=1, half_width=4.0, points_per_dim=33)
    with pytest.raises(ValidationError):
        SpatialGrid(dim=4, half_width=4.0, points_per_dim=8)
    with pytest.raises(ValidationError):
        SpatialGrid(dim=1, half_width=-1.0, points_per_dim=8)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="half_width"):
            SpatialGrid(dim=1, half_width=bad, points_per_dim=8)
    for key in ("dim", "points_per_dim"):  # refused, not truncated
        geometry = {"dim": 1, "half_width": 4.0, "points_per_dim": 8, key: 1.5}
        with pytest.raises(ValidationError, match=key):
            SpatialGrid.from_geometry(geometry)
    with pytest.raises(ValidationError, match="dim"):
        SpatialGrid(dim=True, half_width=4.0, points_per_dim=8)
    with pytest.raises(ValidationError):
        check_fractional_order(0.0)
    with pytest.raises(ValidationError):
        check_fractional_order(1.0)  # closed endpoint needs allow_one
    assert check_fractional_order(1.0, allow_one=True) == 1.0
    with pytest.raises(ValidationError):
        check_fractional_order(1.2, allow_one=True)


# -- grid identity -------------------------------------------------------


def test_warm_cache_does_not_change_equality_or_hash():
    warm = SpatialGrid(dim=1, half_width=4.0, points_per_dim=32)
    warm.symbol_sq(), warm.radius(), warm.resolvent_multiplier(0.6, 0.01)
    fresh = SpatialGrid(dim=1, half_width=4.0, points_per_dim=32)
    assert warm == fresh and hash(warm) == hash(fresh)
    assert SpatialGrid(dim=1, half_width=5.0, points_per_dim=32) != fresh


@pytest.mark.parametrize("dim,points", [(1, 64), (2, 16)])
def test_geometry_round_trips_through_json(dim, points):
    g = SpatialGrid(dim=dim, half_width=3.0, points_per_dim=points)
    meta = json.loads(json.dumps(g.geometry(), sort_keys=True))
    assert meta == {"dim": dim, "half_width": 3.0, "points_per_dim": points}
    assert SpatialGrid.from_geometry(meta) == g


def test_psi_field_cache_serves_an_equal_fresh_grid():
    psi = PsiField("gaussian", 0.5, 1.0)
    first = psi.spatial(SpatialGrid(dim=1, half_width=4.0, points_per_dim=32))
    assert psi.spatial(SpatialGrid(dim=1, half_width=4.0, points_per_dim=32)) is first
    assert psi.spatial(SpatialGrid(dim=1, half_width=5.0, points_per_dim=32)) is not first
