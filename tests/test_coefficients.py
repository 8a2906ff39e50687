import dataclasses
import math

import numpy as np
import pytest

from helpers import build_coeffs, build_grid, random_field

from fracmv.coefficients import (
    CoefficientSet,
    DriftF,
    DriftG,
    NoiseSigma,
    PsiField,
    TimeProfile,
    hs_bound_constant,
    law_statistics,
    sigma_lipschitz_constant,
)
from fracmv.errors import ValidationError
from fracmv.grid import GridFunction, l2_norm
from fracmv.measure import EmpiricalMeasure, second_moment, wasserstein2
from fracmv.verify import verify_conditions


def random_measure(grid, rng, n=4, scale=1.0):
    return EmpiricalMeasure(grid, scale * rng.standard_normal((n,) + grid.shape))


def law(mu, h_cap=1.0):
    """``(hbar_f, hbar1, root_m2)`` of an ensemble."""
    return law_statistics(mu.states, mu.grid, h_cap)


# -- scalar pieces -----------------------------------------------------


@pytest.mark.parametrize(
    "profile",
    [
        TimeProfile(),
        TimeProfile(offset=0.5, amp=1.5, freq=2.7, phase=0.4),
        TimeProfile(offset=-0.2, amp=0.3, freq=9.0),
        TimeProfile(offset=1.0, amp=2.0, freq=0.0, phase=1.0),
        TimeProfile(offset=-0.2, amp=0.3, freq=-9.0),
    ],
)
def test_time_profile_sup_matches_dense_scan(profile):
    T = 3.0
    ts = np.linspace(0.0, T, 100001)
    brute = float(np.max(np.abs([profile(t) for t in ts])))
    exact = profile.sup_abs(T)
    assert exact >= brute - 1e-12
    assert exact <= brute + 1e-6


def test_capped_mean_norm_oracle(rng):
    g = build_grid(points=16)
    mu = random_measure(g, rng, n=6, scale=2.0)
    cap = 1.3
    norms = [l2_norm(mu.particle(i)) for i in range(6)]
    hbar_f, hbar1, root_m2 = law(mu, cap)
    assert hbar_f == pytest.approx(np.mean([min(n, cap) for n in norms]), rel=1e-14)
    assert hbar1 == pytest.approx(np.mean([min(n, 1.0) for n in norms]), rel=1e-14)
    assert hbar_f <= min(cap, root_m2) and hbar1 <= min(1.0, root_m2)
    assert root_m2 == np.sqrt(second_moment(mu))


def test_capped_mean_norm_is_w2_lipschitz(rng):
    g = build_grid(points=16)
    for _ in range(20):
        mu = random_measure(g, rng, n=5)
        nu = random_measure(g, rng, n=5)
        lhs = np.abs(law(mu, 1.7)[:2] - law(nu, 1.7)[:2])
        assert np.all(lhs <= wasserstein2(mu, nu) + 1e-12)


# -- drift closed forms ------------------------------------------------


def test_eval_f_closed_form(rng):
    g = build_grid(points=16)
    f = DriftF(p=4, lambda_f=0.7, h_cap=1.2, phi=PsiField("gaussian", 0.5, 1.0))
    u = random_field(g, rng)
    mu = random_measure(g, rng)
    hbar = law(mu, f.h_cap)[0]
    expected = 0.7 * u.values**3 + f.phi.values(0.3, g) * hbar
    got = f.values(u.values, f.phi.values(0.3, g) * hbar)
    assert np.allclose(got, expected, rtol=1e-14, atol=0.0)


def test_eval_f_quadratic_case(rng):
    g = build_grid(points=16)
    f = DriftF(p=2, lambda_f=0.9, h_cap=1.0, phi=PsiField("gaussian", 0.0, 1.0))
    u = random_field(g, rng)
    mu = random_measure(g, rng)
    got = f.values(u.values, f.phi.values(0.0, g) * law(mu)[0])
    assert np.allclose(got, 0.9 * u.values, rtol=1e-14)


def test_eval_g_closed_form_and_bound(rng):
    g = build_grid(points=16)
    gg = DriftG(c0=0.3, c1=0.5, c2=0.4, psi=PsiField("separable", 0.5, 2.0))
    u = random_field(g, rng, scale=3.0)
    mu = random_measure(g, rng)
    t = 0.7
    hbar1 = law(mu)[1]
    expected = gg.psi.values(t, g) * (0.3 + 0.5 * np.tanh(u.values) + 0.4 * hbar1)
    got = gg.values(u.values, gg.psi.values(t, g), gg.c2 * hbar1)
    assert np.allclose(got, expected, rtol=1e-14, atol=0.0)
    # both nonlinear slots are capped by 1, so psi scaled by the
    # coefficient-sum envelopes the term pointwise
    assert np.all(np.abs(got) <= (0.3 + 0.5 + 0.4) * np.abs(gg.bound_values(t, g)) + 1e-12)


def test_drift_validation_and_bypass():
    with pytest.raises(ValidationError):
        DriftF(p=3, lambda_f=1.0, h_cap=1.0, phi=PsiField("gaussian", 0.5))
    with pytest.raises(ValidationError):
        DriftF(p=4, lambda_f=-1.0, h_cap=1.0, phi=PsiField("gaussian", 0.5))
    # the bypass keeps the object constructible for audit counterexamples
    bad = DriftF(p=4, lambda_f=-1.0, h_cap=1.0, phi=PsiField("gaussian", 0.5), validate=False)
    assert bad.lambda_f == -1.0
    with pytest.raises(ValidationError):
        DriftG(c0=0.0, c1=1.5, c2=0.0, psi=PsiField("gaussian", 0.5))
    assert DriftG(c0=0.0, c1=1.5, c2=0.0, psi=PsiField("gaussian", 0.5), validate=False).c1 == 1.5
    with pytest.raises(ValidationError):
        PsiField("triangle", 1.0)


# -- noise family ------------------------------------------------------


def test_apply_sigma_matches_mode_sum_and_is_linear(rng):
    g = build_grid(points=16)
    coeffs = build_coeffs(g, n_modes=3)
    sig = coeffs.sigma
    u = random_field(g, rng)
    mu = random_measure(g, rng)
    t = 0.2
    theta = rng.standard_normal(3)
    root_m2 = math.sqrt(second_moment(mu))
    manual = np.zeros(g.shape)
    for k in range(3):
        field_k = (
            sig.profile(t) * sig.shapes[k].values
            + sig.kappa.values * (sig.beta[k] * root_m2 + sig.gamma[k] * u.values)
        )
        manual += theta[k] * field_k

    def apply_sigma(th):
        return sig.drive(sig.free_fields(t, root_m2), u.values[None], th[None])[0]

    assert np.allclose(apply_sigma(theta), manual, rtol=1e-13, atol=1e-15)

    th2 = rng.standard_normal(3)
    lhs = apply_sigma(theta + th2)
    rhs = apply_sigma(theta) + apply_sigma(th2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError):
        apply_sigma(np.zeros(5))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_modes", [1, 4])
@pytest.mark.parametrize("n", [1, 7])
def test_drive_matches_the_mode_stack_contraction(dim, n_modes, n, rng):
    """``drive`` equals the slow path it replaces, the ``(N, K, *grid)``
    stack of mode fields contracted over the modes, and each row equals
    its own one-path call bit for bit."""
    g = build_grid(dim=dim, points=16)
    sig = dataclasses.replace(
        build_coeffs(g, n_modes=n_modes).sigma, profile=TimeProfile(1.0, 0.5, 3.0, 0.2)
    )
    u = rng.standard_normal((n,) + g.shape)
    theta = rng.standard_normal((n, n_modes))
    t, root_m2 = 0.3, 0.8
    stack = sig.fields(t, u, root_m2).reshape(n, n_modes, -1)
    slow = np.einsum("nk,nkj->nj", theta, stack).reshape(u.shape)
    free = sig.free_fields(t, root_m2)
    fast = sig.drive(free, u, theta)
    assert fast.shape == u.shape
    np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=1e-15)
    for i in range(n):
        assert sig.drive(free, u[i : i + 1], theta[i : i + 1]).tobytes() == fast[i].tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [1, 5])
def test_drive_into_a_buffer_equals_a_fresh_drive(dim, n, rng):
    """``drive(..., out=buf)`` writes into ``buf`` the bits of the call that makes
    its own array, and returns ``buf`` shaped like ``u``."""
    g = build_grid(dim=dim, points=16)
    sig = build_coeffs(g, n_modes=3).sigma
    u = rng.standard_normal((n,) + g.shape)
    theta = rng.standard_normal((n, 3))
    free = sig.free_fields(0.3, 0.8)
    buf = np.full_like(u, np.nan)
    into = sig.drive(free, u, theta, out=buf)
    assert into.shape == u.shape and np.shares_memory(into, buf)
    assert buf.tobytes() == sig.drive(free, u, theta).tobytes()


def test_hs_norm_and_growth_bound(rng):
    g = build_grid(points=16)
    coeffs = build_coeffs(g, n_modes=3)
    sig = coeffs.sigma
    T = 1.0
    M_T = hs_bound_constant(sig, T)
    for _ in range(50):
        t = float(rng.uniform(0.0, T))
        u = random_field(g, rng, scale=float(rng.uniform(0.1, 3.0)))
        mu = random_measure(g, rng, scale=float(rng.uniform(0.1, 3.0)))
        fields = sig.fields(t, u.values, law(mu)[2])
        hs = g.cell_volume * float(np.sum(fields**2))
        direct = sum(
            l2_norm(GridFunction(g, fields[k])) ** 2 for k in range(sig.n_modes)
        )
        assert hs == pytest.approx(direct, rel=1e-12)
        assert hs <= M_T * (1.0 + l2_norm(u) ** 2 + second_moment(mu)) + 1e-12


def test_hs_bound_constant_hand_value():
    """Single unit-norm shape, no state coupling: the constant is exactly 2."""
    g = build_grid(points=32)
    raw = np.exp(-g.radius() ** 2)
    unit = raw / l2_norm(GridFunction(g, raw))
    sig = NoiseSigma(
        shapes=(GridFunction(g, unit),),
        kappa=GridFunction(g, np.zeros(g.shape)),
        beta=np.zeros(1),
        gamma=np.zeros(1),
        profile=TimeProfile(),
    )
    assert hs_bound_constant(sig, 1.0) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
def test_noise_weights_must_be_finite_and_nonnegative(bad):
    g = build_grid(points=16)
    shape = GridFunction(g, np.ones(g.shape))
    for name in ("beta", "gamma"):
        weights = {"beta": np.zeros(1), "gamma": np.zeros(1), name: np.array([bad])}
        with pytest.raises(ValidationError, match=name):
            NoiseSigma(shapes=(shape,), kappa=shape, **weights)


def test_sigma_lipschitz_bound_on_draws(rng):
    g = build_grid(points=16)
    sig = build_coeffs(g, n_modes=3).sigma
    L = sigma_lipschitz_constant(sig)
    w = g.cell_volume
    for _ in range(30):
        t = float(rng.uniform(0.0, 1.0))
        u1, u2 = random_field(g, rng), random_field(g, rng)
        mu1, mu2 = random_measure(g, rng), random_measure(g, rng)
        d_fields = sig.fields(t, u1.values, law(mu1)[2]) - sig.fields(t, u2.values, law(mu2)[2])
        lhs = float(w * np.sum(d_fields**2))
        du = l2_norm(GridFunction(g, u1.values - u2.values))
        dw = wasserstein2(mu1, mu2)
        assert lhs <= L * (du**2 + dw**2) + 1e-12


# -- randomized audit (the ``conditions`` verify suite's experiment) ------


def test_audit_passes_on_small_instance(rng):
    g = build_grid(points=32)
    coeffs = build_coeffs(g, n_modes=2)
    report = verify_conditions(coeffs, g, 0.5, n_draws=200, seed=3,
                               include_strong_dissipativity=True)
    assert report.ok, report.failed()
    assert all(c.worst_slack >= -1e-9 for c in report.checks if np.isfinite(c.worst_slack))


def test_audit_flags_antidissipative_drift(rng):
    g = build_grid(points=32)
    c = build_coeffs(g, n_modes=2)
    bad = CoefficientSet(
        f=DriftF(p=4, lambda_f=-0.5, h_cap=1.0, phi=c.f.phi, validate=False),
        g=c.g,
        sigma=c.sigma,
        alpha=c.alpha,
    )
    report = verify_conditions(bad, g, 0.5, n_draws=100, seed=4)
    failed = [x.condition for x in report.failed()]
    assert failed and any(name.startswith("f_") for name in failed)


def test_audit_flags_oversized_reaction(rng):
    g = build_grid(points=32)
    c = build_coeffs(g, n_modes=2)
    bad = CoefficientSet(
        f=c.f,
        g=DriftG(c0=c.g.c0, c1=1.8, c2=c.g.c2, psi=c.g.psi, validate=False),
        sigma=c.sigma,
        alpha=c.alpha,
    )
    report = verify_conditions(bad, g, 0.5, n_draws=100, seed=5)
    failed = [x.condition for x in report.failed()]
    assert failed and any(name.startswith("g_") for name in failed)


def test_failed_condition_reads_as_its_name_and_note():
    g = build_grid(points=32)
    c = build_coeffs(g, n_modes=2)
    bad = dataclasses.replace(
        c, f=DriftF(p=4, lambda_f=-0.5, h_cap=1.0, phi=c.f.phi, validate=False)
    )
    named = [str(c) for c in verify_conditions(bad, g, 0.5, n_draws=20, seed=4).failed()]
    assert "f_dissipativity (dissipation rate -0.5 is not positive)" in named
    # a condition failed on the draws alone carries no note
    assert "f_monotonicity" in named
