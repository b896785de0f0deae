"""Geometry layer: log helpers, ball volumes, section radii and volumes.

Frozen reference values were computed independently with 40-digit mpmath
quadrature of the defining integrals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypfluct.errors import DomainError, UnsupportedDimensionError
from hypfluct.hyperbolic import (
    LOG2,
    ModelConfig,
    arcosh1p_from_log,
    ball_kappa,
    ball_volume,
    gauss_legendre,
    graded_rule,
    intersection_volume,
    intersection_volume_bound,
    lambda_geometry,
    log_ball_volume,
    log_intersection_volume,
    log_sinh_power_integral,
    logcosh,
    logsinh,
    rho,
    rho_bounds,
    rho_ugly,
    scale_constant,
    sphere_area,
)


# ---------------------------------------------------------------------------
# log-space helpers
# ---------------------------------------------------------------------------

@given(st.floats(min_value=-700.0, max_value=700.0))
def test_logcosh_matches_direct(x):
    if abs(x) < 700.0:
        direct = math.log(math.cosh(x)) if abs(x) < 350 else None
        if direct is not None:
            assert logcosh(x) == pytest.approx(direct, rel=1e-14, abs=1e-14)
    assert math.isfinite(logcosh(x))
    assert logcosh(x) == logcosh(-x)


@given(st.floats(min_value=1e-12, max_value=700.0))
def test_logsinh_matches_direct(x):
    if x < 350.0:
        assert logsinh(x) == pytest.approx(math.log(math.sinh(x)), rel=1e-12)
    assert math.isfinite(logsinh(x))


@given(st.floats(min_value=1e-6, max_value=690.0))
def test_arcosh1p_from_log_roundtrip(y):
    # arcosh(1 + x) == y for x = cosh y - 1 = 2 sinh^2(y/2), taken in log
    # space; given x itself, arcosh(1 + x) is well conditioned at every y
    log_x = LOG2 + 2.0 * logsinh(0.5 * y)
    assert arcosh1p_from_log(log_x) == pytest.approx(y, rel=1e-14)


def test_arcosh_edge_cases():
    assert arcosh1p_from_log(-math.inf) == 0.0
    # huge argument branch: arcosh(1 + x) ~ log(2x)
    assert arcosh1p_from_log(500.0) == pytest.approx(500.0 + math.log(2.0))


# ---------------------------------------------------------------------------
# Gauss-Legendre rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 600])
def test_gauss_legendre_is_symmetric_and_exact(n):
    """Ascending, exactly symmetric, and sum w x^k = 2/(k + 1) to 1e-13 for
    every even k < 2n (odd moments vanish by symmetry)."""
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    k = np.arange(0, 2 * n, 2)
    moments = np.array([np.sum(w * x ** j) for j in k])
    np.testing.assert_allclose(moments, 2.0 / (k + 1.0), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [16, 600])
def test_gauss_legendre_nodes_match_leggauss(n):
    """numpy's eigen-solve rule is the oracle for the nodes (tests only)."""
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    x, w = gauss_legendre(n)
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("edge,c,panels", [(-3.0, 0.5, 128), (3.0, 0.5, 64), (0.0, 40.0, 38),
                                            (2.0, -1e-3, 1)])
def test_graded_rule_weights_and_grading(edge, c, panels):
    """The weights sum to |c - edge| and integrate s exactly; the nodes lie
    in the interval, ordered from edge, and the node next to edge lies far
    closer to it than the last node to c.  c < edge counts downwards."""
    s, log_w = graded_rule(edge, c, panels)
    w = np.exp(log_w)
    assert s.shape == w.shape == (16 * panels,)
    assert math.fsum(w) == pytest.approx(abs(c - edge), rel=1e-14)
    assert math.fsum(s * w) == pytest.approx(abs(c - edge) * 0.5 * (edge + c),
                                             rel=1e-14, abs=1e-14 * abs(c - edge) ** 2)
    dist = np.abs(s - edge)
    assert np.all(np.diff(dist) > 0.0) and dist[-1] < abs(c - edge)
    assert dist[0] < 0.1 * (abs(c - edge) - dist[-1])


def test_gauss_legendre_is_shared_and_read_only():
    x, w = gauss_legendre(16)
    assert gauss_legendre(16)[0] is x
    with pytest.raises(ValueError):
        w[0] = 1.0


# ---------------------------------------------------------------------------
# dimension constants and ball volume
# ---------------------------------------------------------------------------

def test_unit_ball_constants():
    assert ball_kappa(2) == pytest.approx(math.pi, rel=1e-15)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    with pytest.raises(DomainError):
        ball_kappa(0)


@pytest.mark.parametrize("d", [1, 2, 3, 10, 100, 343, 400])
def test_ball_kappa_against_mpmath(d):
    """Formed in log space, kappa_d stays finite where Gamma(d/2 + 1) alone
    overflows (d >= 343); exp of a log near -600 costs a few hundred ulps."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1)
    assert ball_kappa(d) == pytest.approx(float(ref), rel=2e-13)


def test_ball_volume_frozen_values():
    # mpmath oracles of omega_d * int_0^R sinh^{d-1}
    assert ball_volume(2, 1.0) == pytest.approx(3.4122762652849023, rel=1e-13)
    assert ball_volume(3, 2.0) == pytest.approx(73.167432769211135, rel=1e-13)
    assert ball_volume(4, 3.0) == pytest.approx(6528.6332118215068, rel=1e-11)
    assert ball_volume(5, 2.0) == pytest.approx(1066.0484491146749, rel=1e-11)
    assert ball_volume(6, 2.0) == pytest.approx(3673.3571635434934576, rel=1e-13)
    assert ball_volume(8, 1.5) == pytest.approx(806.84967256489750542, rel=1e-13)


def test_ball_volume_closed_forms():
    # d=2: 2 pi (cosh R - 1); d=3: pi (sinh 2R - 2R)/... = pi (sinh 2R)/2 - 2 pi R
    for R in (0.5, 3.0, 10.0):
        assert ball_volume(2, R) == pytest.approx(
            2.0 * math.pi * (math.cosh(R) - 1.0), rel=1e-13)
        assert ball_volume(3, R) == pytest.approx(
            math.pi * (math.sinh(2.0 * R) - 2.0 * R), rel=1e-13)


def test_ball_volume_trivia():
    assert ball_volume(2, 0.0) == 0.0
    assert log_ball_volume(3, 0.0) == -math.inf
    with pytest.raises(DomainError):
        ball_volume(2, -1.0)


def test_log_ball_volume_finite_at_huge_radius():
    for d in (2, 3, 4, 7):
        lv = log_ball_volume(d, 700.0)
        assert math.isfinite(lv)
        # leading order (d-1) R + log(omega_d / (2^{d-1} (d-1)))
        lead = (d - 1) * 700.0 + math.log(sphere_area(d) / (2.0 ** (d - 1) * (d - 1)))
        assert lv == pytest.approx(lead, rel=1e-10)
        if d >= 3:
            assert ball_volume(d, 700.0) == math.inf


@pytest.mark.parametrize("n", [*range(8), 20, 28, 38, 58])
def test_log_sinh_power_integral_against_mpmath(n):
    """J_n = int_0^rho sinh^n to 1e-13 against 50-digit mpmath.

    The oracle is the hypergeometric form
    J_n = sinh^{n+1} rho / (n+1) 2F1(1/2, (n+1)/2; (n+3)/2; -sinh^2 rho),
    which has no cancellation and shares nothing with the series, the
    polynomial or the reduction formula of the code.  The radii cover the
    old n = 2, rho < 0.1 branch, the kernels' cut-over x = 0.25 at
    rho = log 2, and x from 0.255 to 0.433 around the log path's cut-over
    x = sqrt(2) - 1 (rho = 0.8814), where a reduction started below it loses
    digits at large even n.  All radii go in one array call, which mixes the
    series with the reduction and small x with huge x.
    """
    mpmath = pytest.importorskip("mpmath")
    radii = np.array([1e-6, 1e-3, 0.05, 0.5, 0.69, 0.7, 0.75, 0.8, 0.85, 0.88, 0.9,
                      3.0, 30.0, 700.0])
    got = log_sinh_power_integral(n, LOG2 + 2.0 * logsinh(0.5 * radii))
    assert got.shape == radii.shape
    with mpmath.workdps(50):
        for rho_val, got_i in zip(radii, got):
            sh = mpmath.sinh(mpmath.mpf(float(rho_val)))
            exact = (sh ** (n + 1) / (n + 1)
                     * mpmath.hyp2f1(0.5, mpmath.mpf(n + 1) / 2,
                                     mpmath.mpf(n + 3) / 2, -sh ** 2))
            log_exact = float(mpmath.log(exact))
            # relative 1e-13 in J_n, plus the rounding of log J_n itself
            # (one ulp of log J_7(700) = 4893.2 is 9e-13)
            tol = 1e-13 + 4.0 * math.ulp(abs(log_exact))
            assert abs(got_i - log_exact) <= tol, (n, rho_val, got_i - log_exact)


def test_log_sinh_power_integral_edges():
    # rho = 0 is x = 0, i.e. log x = -inf
    for n in (0, 3, 4):
        assert log_sinh_power_integral(n, -math.inf) == -math.inf
    # n = 0 is the radius itself
    assert log_sinh_power_integral(0, -1.0) == math.log(arcosh1p_from_log(-1.0))
    # the reduction tends to the leading term (n-1) logsinh + logcosh - log n
    log_x = LOG2 + 2.0 * logsinh(30.0)
    for n in (2, 5, 12, 40):
        lead = (n - 1) * logsinh(60.0) + logcosh(60.0) - math.log(n)
        assert log_sinh_power_integral(n, log_x) == pytest.approx(lead, rel=1e-15)
    # -inf among finite log x, on every branch: only its own element is -inf
    mixed = np.array([-3.0, -math.inf, -0.5, 0.5, -math.inf, 700.0])
    for n in range(6):
        got = log_sinh_power_integral(n, mixed)
        assert np.array_equal(np.isneginf(got), np.isneginf(mixed)), n
        assert np.all(np.isfinite(got[np.isfinite(mixed)])), n


def test_logsinh_rejects_nonpositive_float_and_array():
    for bad in (0.0, -1.0, np.array([1.0, 0.0]), np.array([[2.0], [-1e-300]])):
        with pytest.raises(DomainError):
            logsinh(bad)


# ---------------------------------------------------------------------------
# section radius
# ---------------------------------------------------------------------------

def test_rho_geodesic_closed_form():
    geom = lambda_geometry(0.0)
    for s, R in ((0.0, 3.0), (1.0, 3.0), (-2.5, 4.0), (2.999, 3.0)):
        assert rho(geom, s, R) == pytest.approx(
            math.acosh(math.cosh(R) / math.cosh(s)), rel=1e-12, abs=1e-9)


def test_rho_outside_ball_and_edges():
    geom = lambda_geometry(0.4)
    assert math.isnan(rho(geom, 5.0, 3.0))
    assert math.isnan(rho(geom, -5.0, 3.0))
    assert rho(geom, 3.0, 3.0) == 0.0
    assert rho(geom, -3.0, 3.0) == 0.0
    with pytest.raises(UnsupportedDimensionError):
        rho(lambda_geometry(1.0), 0.0, 1.0)


def _mp_section(mpmath, d, lam, R, s):
    """40-digit (x, volume) of the section at s, from the defining formulas."""
    lam, R, s = mpmath.mpf(lam), mpmath.mpf(R), mpmath.mpf(s)
    gap = mpmath.cosh(R) - mpmath.cosh(s)
    kappa = mpmath.pi ** (mpmath.mpf(d - 1) / 2) / mpmath.gamma(mpmath.mpf(d + 1) / 2)
    if lam == 1:
        return None, kappa * (2 * mpmath.exp(s) * gap) ** (mpmath.mpf(d - 1) / 2)
    mu = mpmath.sqrt(1 - lam ** 2)
    x = mu * gap / mpmath.cosh(s - mpmath.atanh(lam))
    rho_val = mpmath.acosh(1 + x)
    J = mpmath.quad(lambda u: mpmath.sinh(u) ** (d - 2), [0, rho_val])
    return x, (d - 1) * kappa * J / mu ** (d - 1)


@pytest.mark.parametrize("d,lam,R", [(3, 0.5, 5.0), (4, 0.0, 4.0), (2, 1.0, 4.0)])
def test_section_edge_precision_against_mpmath(d, lam, R):
    """rho and the section volume keep full precision as |s| -> R.

    cosh R - cosh s is formed as a product of sinh terms, so nothing cancels
    at s = +-(R - 10^-k), k = 2..6; both match 40-digit mpmath to 1e-13.
    """
    mpmath = pytest.importorskip("mpmath")
    config = ModelConfig(d=d, lam=lam, R=R)
    with mpmath.workdps(40):
        for s in [sign * (R - 10.0 ** -k) for k in range(2, 7) for sign in (1, -1)]:
            x, vol = _mp_section(mpmath, d, lam, R, s)
            got = intersection_volume(config, s)
            assert got == pytest.approx(float(vol), rel=1e-13, abs=0.0), s
            if x is not None:
                got = rho(config.geometry, s, R)
                assert got == pytest.approx(float(mpmath.acosh(1 + x)), rel=1e-13, abs=0.0), s


def test_rho_matches_ugly_form():
    # moderate radii only: the two-square-root form loses ~q^2 ulps near the
    # boundary and is documented as a moderate-R cross-check
    rng = np.random.default_rng(5)
    for _ in range(2000):
        lam = float(rng.uniform(0.0, 0.999))
        R = float(rng.uniform(0.1, 6.0))
        s = float(rng.uniform(-R, R))
        geom = lambda_geometry(lam)
        a = rho(geom, s, R)
        b = rho_ugly(geom, s, R)
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_rho_bounds_hold_on_randomized_grid():
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(10000):
        lam = float(rng.uniform(0.0, 0.999))
        R = float(rng.uniform(0.05, 30.0))
        s = float(rng.uniform(-R, R))
        geom = lambda_geometry(lam)
        r = rho(geom, s, R)
        alo, ahi, llo, lhi = rho_bounds(geom, s, R)
        tol = 1e-9 * max(1.0, R)
        if not (alo <= r + tol and r <= ahi + tol):
            violations += 1
        if not (llo <= r + tol and r <= lhi + tol):
            violations += 1
    assert violations == 0


def test_rho_bounds_where_shifted_radius_is_not_positive():
    # R - Delta <= 0: the lower arcosh bound is 0, nothing raises
    geom = lambda_geometry(0.9)             # Delta = 1.47
    for s, R in ((0.1, 0.3), (0.3, 0.3), (-0.3, 0.3), (1.0, 1.47), (0.0, 1e-4)):
        alo, ahi, llo, lhi = rho_bounds(geom, s, R)
        r = rho(geom, s, R)
        assert alo == 0.0
        assert alo <= r <= ahi + 1e-12 and llo <= r <= lhi


def test_rho_finite_at_huge_radius():
    geom = lambda_geometry(0.5)
    r = rho(geom, 100.0, 700.0)
    assert math.isfinite(r)
    alo, ahi, llo, lhi = rho_bounds(geom, 100.0, 700.0)
    assert llo <= r <= lhi


# ---------------------------------------------------------------------------
# section volumes
# ---------------------------------------------------------------------------

def test_intersection_volume_frozen_values():
    cases = [
        (ModelConfig(d=2, lam=0.0, R=3.0), 1.0, 5.1255388613442354),
        (ModelConfig(d=4, lam=0.5, R=3.0), 1.0, 541.00071369641628),
        (ModelConfig(d=3, lam=1.0, R=2.0), 0.5, 27.292090725001316),
        (ModelConfig(d=6, lam=0.3, R=2.5), 0.7, 5998.8513410041726),
    ]
    for config, s, expected in cases:
        assert intersection_volume(config, s) == pytest.approx(expected, rel=1e-10)


def test_intersection_volume_empty_outside_ball():
    for lam in (0.0, 0.5, 1.0):
        config = ModelConfig(d=3, lam=lam, R=2.0)
        assert intersection_volume(config, 2.5) == 0.0
        assert intersection_volume(config, -2.5) == 0.0
        assert log_intersection_volume(config, 3.0) == -math.inf


def test_intersection_volume_d2_geodesic():
    config = ModelConfig(d=2, lam=0.0, R=4.0)
    for s in (-3.0, 0.0, 1.7):
        expected = 2.0 * math.acosh(math.cosh(4.0) / math.cosh(s))
        assert intersection_volume(config, s) == pytest.approx(expected, rel=1e-12)


def test_intersection_volume_d3_closed_form():
    # (2 pi / mu) (cosh R - cosh s) / cosh(s - Delta)
    config = ModelConfig(d=3, lam=0.6, R=3.0)
    geom = config.geometry
    for s in (-2.0, 0.3, 2.9):
        expected = (2.0 * math.pi / geom.mu) * (math.cosh(3.0) - math.cosh(s)) \
            / math.cosh(s - geom.delta)
        assert intersection_volume(config, s) == pytest.approx(expected, rel=1e-11)


def test_intersection_volume_bound_dominates():
    rng = np.random.default_rng(3)
    config_cache = {}
    for _ in range(500):
        R = float(rng.uniform(0.5, 12.0))
        s = float(rng.uniform(-R, R))
        config = ModelConfig(d=4, lam=0.5, R=R)
        assert intersection_volume_bound(config, s) >= intersection_volume(config, s)


def test_intersection_volume_bound_requires_d3_plus():
    with pytest.raises(UnsupportedDimensionError):
        intersection_volume_bound(ModelConfig(d=2, lam=0.0, R=1.0), 0.0)
    with pytest.raises(UnsupportedDimensionError):
        intersection_volume_bound(ModelConfig(d=4, lam=1.0, R=1.0), 0.0)


def test_asymptote_ratio_monotone_to_one():
    """The section volume over its fixed-s asymptote c e^{(d-2)(R - log cosh(s - delta))}."""
    s = 1.0
    ratios = []
    for R in (4.0, 6.0, 8.0, 10.0):
        config = ModelConfig(d=4, lam=0.5, R=R)
        geom = config.geometry
        asymptote = scale_constant(4, geom) * math.exp(2 * (R - logcosh(s - geom.delta)))
        ratios.append(intersection_volume(config, s) / asymptote)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("d", range(2, 9))
def test_log_intersection_volume_array_equals_float_calls(d, lam):
    """One array call equals its per-element float calls bit for bit.

    s runs past +-R, so empty sections (-inf), the edge and the interior sit
    in one array; a masked branch that leaked across elements would show.
    """
    for R in (1e-4, 0.5, 4.0, 30.0):
        config = ModelConfig(d=d, lam=lam, R=R)
        s = np.concatenate((np.linspace(-1.5 * R, 1.5 * R, 61), [-R, R, 0.0]))
        got = log_intersection_volume(config, s)
        want = np.array([log_intersection_volume(config, float(v)) for v in s])
        assert np.array_equal(got, want), R
        assert np.all(np.isneginf(got[np.abs(s) >= R]))
        assert np.all(np.isfinite(got[np.abs(s) < R]))


def test_log_intersection_volume_finite_at_huge_radius():
    for lam in (0.0, 0.5, 1.0):
        config = ModelConfig(d=4, lam=lam, R=700.0)
        lv = log_intersection_volume(config, 10.0)
        assert math.isfinite(lv)
        assert lv > 100.0


def test_log_intersection_volume_d2_at_a_radius_whose_x_underflows():
    """At d = 2 and R = 1e-200, x = cosh rho - 1 is below 1e-400, and the
    chord 2 rho = 2 sqrt(R^2 - s^2) comes from log x alone, to 1e-14."""
    R = 1e-200
    s = np.array([-R / 2, 0.0, R / 2])
    got = log_intersection_volume(ModelConfig(d=2, lam=0.0, R=R), s)
    want = LOG2 + math.log(R) + 0.5 * np.log1p(-(s / R) ** 2)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# model config validation
# ---------------------------------------------------------------------------

def test_model_config_validation():
    for d in (1, 2.5, 2.0):
        with pytest.raises(DomainError, match="integer"):
            ModelConfig(d=d, lam=0.0, R=1.0)
    with pytest.raises(DomainError):
        ModelConfig(d=2, lam=1.5, R=1.0)
    for R in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            ModelConfig(d=2, lam=0.0, R=R)
    for mult in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            ModelConfig(d=2, lam=0.0, R=1.0, intensity_multiplier=mult)


def test_lambda_geometry_sentinels():
    g0 = lambda_geometry(0.0)
    g1 = lambda_geometry(1.0)
    assert g0.mu == 1.0 and g0.delta == 0.0
    assert g1.delta == math.inf and g1.is_horospheric
    gh = lambda_geometry(0.5)
    assert gh.mu == pytest.approx(math.sqrt(0.75))
    # density identity constant: cosh s - lam sinh s = mu cosh(s - delta)
    for s in (-3.0, 0.0, 1.2, 7.0):
        lhs = math.cosh(s) - 0.5 * math.sinh(s)
        rhs = gh.mu * math.cosh(s - gh.delta)
        assert lhs == pytest.approx(rhs, rel=1e-14)
