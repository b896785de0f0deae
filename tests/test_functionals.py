"""Surface functional: sums, exact moment integrals, asymptotic regimes.

Frozen constants come from independent 40-digit mpmath quadrature of the
defining integrals (not from this package).
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from hypfluct import functionals, kernels, sampling
from hypfluct.errors import DomainError, QuadratureError
from hypfluct.hyperbolic import ModelConfig, ball_volume, lambda_geometry
from hypfluct.sampling import (
    ProcessSample,
    inverse_cdf,
    make_rng,
    mean_count,
    sample_process,
)
from hypfluct.functionals import (
    REPLICATES_PER_STREAM,
    berry_esseen_indicator,
    cumulant_integral,
    expected_surface_area,
    limit_profile,
    normalized_cumulant_limit,
    normalized_profile,
    simulate_surface,
    total_surface_area,
    variance,
    variance_order,
)
from hypfluct.hyperbolic import (
    intersection_volume,
    intersection_volume_bound,
    log_intersection_volume,
    scale_constant,
)
from hypfluct.limitlaw import (
    cosh_power_integral,
    limit_cumulant,
    limit_law_spec,
    sample_limit,
)

from conftest import _run_in_child


# ---------------------------------------------------------------------------
# total surface area
# ---------------------------------------------------------------------------

def test_total_surface_area_empty_sample():
    config = ModelConfig(d=2, lam=0.0, R=1e-8)
    result = total_surface_area(sample_process(config, seed=0))
    assert result.value == 0.0
    assert result.positive_part == 0.0 and result.negative_part == 0.0


def test_total_surface_area_sign_split():
    config = ModelConfig(d=2, lam=0.0, R=4.0)
    sample = sample_process(config, seed=3)
    result = total_surface_area(sample)
    assert result.value == pytest.approx(
        result.positive_part + result.negative_part, rel=1e-15)
    assert result.positive_part > 0.0 and result.negative_part > 0.0
    # exact split: recompute from the definition
    pos = math.fsum(intersection_volume(config, float(s))
                    for s in sample.s if s >= 0.0)
    assert result.positive_part == pytest.approx(pos, rel=1e-10)


def test_total_surface_area_d2_beyond_square_range():
    # d = 2, R = 400: x = cosh rho - 1 reaches ~1e173, so x (x + 2) would
    # overflow; the sum is 2R + 2 arcosh(cosh R / cosh 100) = 800 + 601.39...
    config = ModelConfig(d=2, lam=0.0, R=400.0)
    s = np.array([0.0, 100.0])
    result = total_surface_area(ProcessSample(config=config, s=s, u=None, seed=0))
    expected = math.fsum(intersection_volume(config, float(v)) for v in s)
    assert result.positive_part == pytest.approx(expected, rel=1e-14)
    assert result.negative_part == 0.0


# ---------------------------------------------------------------------------
# moment integrals
# ---------------------------------------------------------------------------

def test_expected_surface_area_is_lambda_free():
    vals = [expected_surface_area(ModelConfig(d=3, lam=lam, R=2.0))
            for lam in (0.0, 0.5, 1.0)]
    assert vals[0] == vals[1] == vals[2]
    assert vals[0] == pytest.approx(ball_volume(3, 2.0), rel=1e-15)


def test_crofton_identity_via_quadrature():
    """First moment quadrature reproduces the ball volume independently."""
    from hypfluct.functionals import _cumulant_quadrature
    for d, lam in ((2, 0.0), (3, 0.5), (4, 1.0), (4, 0.5), (6, 0.3), (8, 0.9)):
        config = ModelConfig(d=d, lam=lam, R=3.0)
        assert _cumulant_quadrature(config, 1) == pytest.approx(
            ball_volume(d, 3.0), rel=1e-12)


def test_variance_frozen_values():
    assert variance(ModelConfig(d=2, lam=0.0, R=4.0)) == pytest.approx(
        691.88999864186696, rel=1e-9)
    assert variance(ModelConfig(d=2, lam=0.5, R=4.0)) == pytest.approx(
        732.23169822286067, rel=1e-9)
    assert variance(ModelConfig(d=2, lam=1.0, R=4.0)) == pytest.approx(
        1311.0882263510111, rel=1e-9)
    # horocycles in H^2: I_2 = 16 (R cosh R - sinh R), from tiny R to R = 400
    mpmath = pytest.importorskip("mpmath")
    for R in (1e-3, 10.0, 400.0):
        with mpmath.workdps(50):
            r = mpmath.mpf(R)
            exact = float(16 * (r * mpmath.cosh(r) - mpmath.sinh(r)))
        got = variance(ModelConfig(d=2, lam=1.0, R=R))
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_variance_d3_closed_form_matches_quadrature():
    """The d = 3 closed form (2 pi)^2 (2R cosh^2 R - 3 sinh R cosh R + R) at R = 3."""
    from hypfluct.functionals import _cumulant_quadrature
    config = ModelConfig(d=3, lam=0.5, R=3.0)
    assert _cumulant_quadrature(config, 2) == pytest.approx(12182.138471702879, rel=1e-12)


def test_variance_d3_lambda_independent():
    """I_2 = (2 pi)^2 (2R cosh^2 R - 3 sinh R cosh R + R) at d = 3 for every lambda < 1.

    The closed form cancels down to O(R^5) as R -> 0, so the oracle is 50-digit
    mpmath; the quadrature must match it from R = 1e-4 to 8.
    """
    mpmath = pytest.importorskip("mpmath")
    for R in (1e-4, 1e-2, 3.0, 8.0):
        with mpmath.workdps(50):
            r = mpmath.mpf(R)
            exact = float((2 * mpmath.pi) ** 2 * (2 * r * mpmath.cosh(r) ** 2
                                                  - 3 * mpmath.sinh(r) * mpmath.cosh(r) + r))
        for lam in (0.0, 0.5, 0.9):
            got = variance(ModelConfig(d=3, lam=lam, R=R))
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0), (R, lam)


def test_cumulant_integral_multiplier_linearity():
    base = cumulant_integral(ModelConfig(d=3, lam=0.2, R=2.0), 3)
    scaled = cumulant_integral(
        ModelConfig(d=3, lam=0.2, R=2.0, intensity_multiplier=2.5), 3)
    assert scaled == pytest.approx(2.5 * base, rel=1e-8)


def test_cumulant_integral_domain():
    config = ModelConfig(d=2, lam=0.0, R=1.0)
    with pytest.raises(DomainError):
        cumulant_integral(config, 0)
    with pytest.raises(DomainError):
        cumulant_integral(config, 9)


def test_cumulant_integral_small_radius_vanishes():
    config = ModelConfig(d=2, lam=0.0, R=1e-4)
    assert variance(config) < 1e-10


@pytest.mark.parametrize("R", [1.45e-315, 5e-324])
@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_cumulant_integral_at_subnormal_radius(d, lam, R):
    """A subnormal R is a valid radius: (R - |s|)/2 rounds to 0 at some node
    inside (-R, R), yet the moments are 0.0 and a section inside has a
    finite log volume, with no error or warning."""
    config = ModelConfig(d=d, lam=lam, R=R)
    assert variance(config) == 0.0
    assert cumulant_integral(config, 3) == 0.0
    lv = log_intersection_volume(config, np.array([0.0, -R, R]))
    assert np.isfinite(lv[0]) and np.all(lv[1:] == -math.inf)


@pytest.mark.parametrize("d, lam, R, k", [(30, 0.0, 0.7, 8), (40, 0.0, 0.7, 2),
                                          (60, 0.5, 0.8, 4), (100, 0.9, 1.5, 8)])
def test_cumulant_integral_at_large_even_d(d, lam, R, k):
    """Section volumes with x = cosh rho - 1 just above 0.25 at even d - 2:
    the log path's even-n reduction starts where it is stable, so the 128-
    and 64-panel rules agree and no QuadratureError is raised."""
    value = cumulant_integral(ModelConfig(d=d, lam=lam, R=R), k)
    assert 0.0 < value < math.inf


def test_cumulant_integral_beyond_kernel_range():
    """At R of several hundred, where linear-space volumes or the intensity
    would overflow, the log-space rule gives the plain value: inf beyond
    double range, and the finite value where it is not."""
    assert cumulant_integral(ModelConfig(d=4, lam=0.0, R=400.0), 2) == math.inf
    assert cumulant_integral(ModelConfig(d=2, lam=1.0, R=800.0), 2) == math.inf
    assert cumulant_integral(ModelConfig(d=4, lam=0.5, R=800.0), 3) == math.inf
    # d = 2, lambda = 0, R = 400: x = cosh rho - 1 reaches ~1e173, while
    # I_2 = int (2 rho)^2 cosh s ds is about 7.7e174
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        R = mpmath.mpf(400)
        f = lambda s: 4 * mpmath.acosh(mpmath.cosh(R) / mpmath.cosh(s)) ** 2 * mpmath.cosh(s)
        exact = float(2 * mpmath.quad(f, [0, R - 40, R - 10, R - 2, R - 0.5, R]))
    got = cumulant_integral(ModelConfig(d=2, lam=0.0, R=400.0), 2)
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
    scaled = cumulant_integral(
        ModelConfig(d=2, lam=0.0, R=400.0, intensity_multiplier=2.5), 2)
    assert scaled == pytest.approx(2.5 * got, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_moment_rule_against_tanh_sinh(d):
    """The graded Gauss-Legendre rule against scipy's adaptive tanh-sinh at
    1e-12 relative, over lambda in {0, .5, .9, 1}, R from 1e-3 to 100 and
    k in {2, 3, 4, 8}; where the log-space reference passes double range the
    rule gives inf.  tanh-sinh splits at min(delta, R), not at the rule's c."""
    from scipy.integrate import tanhsinh
    for lam in (0.0, 0.5, 0.9, 1.0):
        for R in (1e-3, 0.5, 3.0, 10.0, 20.0, 100.0):
            config = ModelConfig(d=d, lam=lam, R=R)
            geom = config.geometry
            c = 0.0 if geom.is_horospheric else min(geom.delta, R)
            for k in (2, 3, 4, 8):
                a, b = np.array([-R, c]), np.array([c, R])
                ref = tanhsinh(
                    lambda s: (k * log_intersection_volume(config, s)
                               + sampling.log_intensity_density(config, s)),
                    a, b, log=True, rtol=math.log(1e-13))
                assert np.all(ref.success | (a == b))    # an empty half [R, R] is exact
                log_ref = float(np.logaddexp.reduce(ref.integral))
                got = functionals._cumulant_quadrature(config, k)
                if log_ref > math.log(sys.float_info.max):
                    assert got == math.inf, (d, lam, R, k)
                else:
                    assert got == pytest.approx(math.exp(log_ref), rel=1e-12, abs=0.0), (
                        d, lam, R, k)


def test_moment_rule_reports_the_error_it_reached(monkeypatch):
    """A jump in the integrand inside a half keeps the 128- and 64-panel rules
    apart by far more than 1e-12; the error names that finite difference."""
    config = ModelConfig(d=3, lam=0.5, R=3.0)
    density = sampling.log_intensity_density
    monkeypatch.setattr(functionals, "log_intensity_density",
                        lambda cfg, s: density(cfg, s) + np.where(s > 1.9, 1.0, 0.0))
    with pytest.raises(QuadratureError) as info:
        functionals._cumulant_quadrature(config, 2)
    assert 1e-12 < info.value.achieved < 1.0


# ---------------------------------------------------------------------------
# growth orders and limits
# ---------------------------------------------------------------------------

def test_variance_order_cases():
    assert variance_order(ModelConfig(d=2, lam=0.0, R=3.0)) == pytest.approx(math.exp(3.0))
    assert variance_order(ModelConfig(d=3, lam=0.5, R=3.0)) == pytest.approx(3.0 * math.exp(6.0))
    assert variance_order(ModelConfig(d=5, lam=0.0, R=2.0)) == pytest.approx(math.exp(12.0))
    assert variance_order(ModelConfig(d=3, lam=1.0, R=2.0)) == pytest.approx(2.0 * math.exp(4.0))


def test_horosphere_variance_order_constant():
    # Var / (R e^{(d-1)R}) climbs towards 2 kappa_{d-1}^2 = 8 at d = 2
    ratios = [variance(ModelConfig(d=2, lam=1.0, R=R)) / (R * math.exp(R))
              for R in (10.0, 20.0, 40.0, 80.0)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(8.0, rel=0.02)


def test_cosh_power_integral():
    # h=1: pi; h=2: 2; checked against the Gamma closed form and direct quad
    assert cosh_power_integral(1.0) == pytest.approx(math.pi, rel=1e-14)
    assert cosh_power_integral(2.0) == pytest.approx(2.0, rel=1e-14)
    from scipy.integrate import quad
    direct, _ = quad(lambda y: math.exp(-3.0 * abs(y)) * (2.0 / (1.0 + math.exp(-2.0 * abs(y)))) ** 3.0,
                     -np.inf, np.inf)
    assert cosh_power_integral(3.0) == pytest.approx(direct, rel=1e-9)
    with pytest.raises(DomainError):
        cosh_power_integral(0.0)


def test_normalized_cumulant_limit_d4():
    assert normalized_cumulant_limit(4, 0.0, 2) == pytest.approx(
        math.pi ** 3 / 4.0, rel=1e-13)
    assert normalized_cumulant_limit(4, 0.0, 3) == pytest.approx(
        math.pi ** 4 / 16.0, rel=1e-13)
    with pytest.raises(DomainError):
        normalized_cumulant_limit(3, 0.0, 2)
    with pytest.raises(DomainError):
        normalized_cumulant_limit(4, 1.0, 2)


@pytest.mark.parametrize("d", range(4, 8))
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7])
def test_limit_constants_agree_across_modules(d, lam):
    """The cumulant limits, the limit law and the profile share one constant."""
    spec = limit_law_spec(d, lam)
    for k in (2, 3, 4):
        assert normalized_cumulant_limit(d, lam, k) == pytest.approx(
            scale_constant(d, lambda_geometry(lam)) ** k * limit_cumulant(spec, k),
            rel=1e-14)


def test_normalized_profile_converges_to_limit_profile():
    s = 0.8
    lam = 0.3
    target = limit_profile(4, lam, s)
    errs = [abs(normalized_profile(ModelConfig(d=4, lam=lam, R=R), s) / target - 1.0)
            for R in (6.0, 9.0, 12.0)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-4


def test_normalized_profile_dominated_bound():
    config = ModelConfig(d=4, lam=0.5, R=6.0)
    geom = lambda_geometry(0.5)
    C = intersection_volume_bound(config, geom.delta) * math.exp(-2.0 * config.R)
    for s in np.linspace(-5.9, 5.9, 61):
        prof = normalized_profile(config, float(s))
        dominator = C * math.cosh(float(s) - geom.delta) ** -2.0
        assert prof <= dominator * (1.0 + 1e-12)


def test_normalized_profile_edges():
    config = ModelConfig(d=4, lam=0.0, R=3.0)
    assert normalized_profile(config, 3.0) == 0.0
    assert normalized_profile(config, 5.0) == 0.0


# ---------------------------------------------------------------------------
# Berry-Esseen indicator trends
# ---------------------------------------------------------------------------

def test_berry_esseen_d2_exponential_decay():
    # indicator ~ c e^{-R/2}: per +2 in R the ratio is near e^{-1}
    a = berry_esseen_indicator(ModelConfig(d=2, lam=0.0, R=6.0))
    b = berry_esseen_indicator(ModelConfig(d=2, lam=0.0, R=8.0))
    assert b / a == pytest.approx(math.exp(-1.0), rel=0.15)


def test_berry_esseen_d3_R_inverse():
    vals = [berry_esseen_indicator(ModelConfig(d=3, lam=0.0, R=R)) * R
            for R in (4.0, 8.0, 12.0)]
    assert all(0.5 < v < 1.5 for v in vals)


def test_berry_esseen_d4_no_clt():
    vals = [berry_esseen_indicator(ModelConfig(d=4, lam=0.0, R=R))
            for R in (4.0, 6.0, 8.0)]
    assert all(v > 0.25 for v in vals)


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------

def test_simulate_surface_deterministic():
    config = ModelConfig(d=2, lam=0.5, R=3.0)
    a = simulate_surface(config, 100, seed=5)
    b = simulate_surface(config, 100, seed=5)
    np.testing.assert_array_equal(a[0], b[0])
    assert not np.array_equal(a[0], simulate_surface(config, 100, seed=6)[0])


def test_values_do_not_depend_on_n():
    """A partial last block draws a whole block of counts, so replicate i
    (draw i) reads the same stream whatever n is."""
    config = ModelConfig(d=2, lam=0.5, R=3.0)
    for a, b in zip(simulate_surface(config, 100, 0), simulate_surface(config, 101, 0)):
        np.testing.assert_array_equal(a, b[:100])
    spec = limit_law_spec(4)
    np.testing.assert_array_equal(sample_limit(spec, 5, 1), sample_limit(spec, 6, 1)[:5])


@pytest.mark.parametrize("d, lam, R", [(2, 0.0, 50.0), (2, 0.0, 800.0), (2, 1.0, 800.0)])
def test_mean_count_beyond_poisson_limit_is_refused(d, lam, R):
    """A mean count beyond numpy's Poisson limit (5.2e21 at R = 50) or beyond
    double range (inf at R = 800) is a DomainError naming it and R, before
    anything is drawn."""
    config = ModelConfig(d=d, lam=lam, R=R)
    assert mean_count(config) > 1e21
    for draw in (lambda: sample_process(config, 0), lambda: simulate_surface(config, 3, 0)):
        with pytest.raises(DomainError, match=f"mean count .* at R = {R}"):
            draw()


def test_simulate_surface_split_consistency():
    config = ModelConfig(d=3, lam=0.0, R=2.0)
    S, Sp, Sn = simulate_surface(config, 50, seed=1)
    np.testing.assert_allclose(S, Sp + Sn, rtol=1e-15)
    assert np.all(Sp >= 0.0) and np.all(Sn >= 0.0)


def test_simulate_surface_matches_analytic_moments():
    config = ModelConfig(d=2, lam=0.0, R=3.0)
    S, _, _ = simulate_surface(config, 20000, seed=2)
    mean = expected_surface_area(config)
    var = variance(config)
    assert abs(S.mean() - mean) < 5.0 * math.sqrt(var / 20000.0)
    assert np.var(S, ddof=1) == pytest.approx(var, rel=0.1)


def test_simulate_surface_agrees_with_per_replicate_path():
    """Statistical cross-check of the two sampling paths."""
    config = ModelConfig(d=2, lam=1.0, R=3.0)
    S, _, _ = simulate_surface(config, 4000, seed=3)
    loop = np.array([total_surface_area(sample_process(config, 90, i)).value
                     for i in range(4000)])
    assert abs(S.mean() - loop.mean()) < 5.0 * math.sqrt(2.0 * variance(config) / 4000.0)


def test_simulate_surface_d6_matches_per_replicate_sums():
    """d = 6 batch volumes against the same points summed replicate by replicate.

    The points are redrawn from the stream simulate_surface uses for its first
    block, which draws the counts of a whole block and keeps the first n; each
    replicate is summed by total_surface_area and, independently of the batch
    kernel, by fsum of the log-space scalar section volumes.
    """
    config = ModelConfig(d=6, lam=0.3, R=2.5)
    n, seed = 4, 9
    S, Sp, Sn = simulate_surface(config, n, seed=seed)
    rng = make_rng(seed, 0)
    counts = rng.poisson(mean_count(config), size=REPLICATES_PER_STREAM)[:n]
    s_all = inverse_cdf(config, rng.random(int(counts.sum())))
    for i, s in enumerate(np.split(s_all, np.cumsum(counts)[:-1])):
        sample = ProcessSample(config=config, s=s, u=None, seed=seed,
                               replicate_index=i)
        result = total_surface_area(sample)
        assert Sp[i] == pytest.approx(result.positive_part, rel=1e-13)
        assert Sn[i] == pytest.approx(result.negative_part, rel=1e-13)
        scalar = math.fsum(intersection_volume(config, float(v)) for v in s)
        assert S[i] == pytest.approx(scalar, rel=1e-10)


@pytest.mark.parametrize("d, lam, R", [(2, 0.5, 4.0), (3, 1.0, 4.0), (4, 0.5, 3.0),
                                     (6, 0.3, 2.5)])
def test_simulate_surface_independent_of_point_budget(monkeypatch, d, lam, R):
    """S, S+ and S- are bit-identical whether the points are reduced one
    replicate at a time, 4096 at a time or at the default pass size: the
    pass size ceil(mean) makes every call hold exactly one replicate."""
    config = ModelConfig(d=d, lam=lam, R=R)
    per_call = []

    def signed_sums(pos, neg, offsets):
        per_call.append(offsets.size - 1)
        return reduce(pos, neg, offsets)

    reduce = kernels.signed_sums
    monkeypatch.setattr(kernels, "signed_sums", signed_sums)
    runs = []
    for budget in (math.ceil(mean_count(config)), 4096, sampling.SUB_CHUNK):
        monkeypatch.setattr(sampling, "SUB_CHUNK", budget)
        runs.append(simulate_surface(config, 300, seed=4))
        if len(runs) == 1:
            assert set(per_call) == {1}
    for run in runs[1:]:
        for a, b in zip(run, runs[0]):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d, lam, R", [(2, 0.5, 4.0), (3, 1.0, 4.0), (4, 0.5, 3.0),
                                     (6, 0.3, 2.5)])
def test_simulate_surface_independent_of_sub_chunk(monkeypatch, d, lam, R):
    """S, S+ and S- are bit-identical at pass sizes of 1024 points, one BLOCK,
    the default and 8 times the default.  1024 takes one replicate per call
    at every d >= 3 here, and several passes per replicate of about 6700
    points at (6, 0.3, 2.5)."""
    config = ModelConfig(d=d, lam=lam, R=R)
    runs = []
    for size in (1024, kernels.BLOCK, sampling.SUB_CHUNK, 8 * sampling.SUB_CHUNK):
        monkeypatch.setattr(sampling, "SUB_CHUNK", size)
        runs.append(simulate_surface(config, 300, seed=4))
    for run in runs[1:]:
        for a, b in zip(run, runs[0]):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d, lam, R", [(2, 1.0, 10.0), (4, 0.5, 4.0)])
def test_simulate_surface_block_rebuilt_by_hand(d, lam, R):
    """The first block, rebuilt from its stream without the passes: the
    counts of a whole block and the uniforms of its first n replicates, then
    inverse_cdf, section_volumes, the split by the sign of s and one reduceat
    per part over all the points, which span more than one pass."""
    config = ModelConfig(d=d, lam=lam, R=R)
    n, seed = 5, 8
    S, Sp, Sn = simulate_surface(config, n, seed)
    rng = make_rng(seed, 0)
    counts = rng.poisson(mean_count(config), size=REPLICATES_PER_STREAM)[:n]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    assert sampling.SUB_CHUNK < offsets[-1]
    s = inverse_cdf(config, rng.random(offsets[-1]))
    vol = kernels.section_volumes(s, config)
    positive = s >= 0.0
    pos = np.add.reduceat(np.where(positive, vol, 0.0), offsets[:-1])
    neg = np.add.reduceat(np.where(positive, 0.0, vol), offsets[:-1])
    np.testing.assert_array_equal(Sp, pos)
    np.testing.assert_array_equal(Sn, neg)
    np.testing.assert_array_equal(S, pos + neg)


def test_simulate_surface_call_holds_two_point_arrays():
    """At d = 2, lambda = 1, R = 10 one call reduces 2 replicates of about
    22026 points, within one pass of 2^16 points and 0.35 MB per workspace
    row: the volumes of s >= 0 over the uniforms and those of s < 0 in the
    second row, with the temporaries of that pass, stay below 2.5 MB (they
    reached 3.4 MB at 2^17 points per call)."""
    config = ModelConfig(d=2, lam=1.0, R=10.0)
    tracemalloc.start()
    try:
        simulate_surface(config, REPLICATES_PER_STREAM, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_simulate_surface_memory_is_bounded():
    """d = 4, lambda = 0, R = 6 has 5.5e6 points per replicate; a child
    process simulating 3 replicates peaks below 200 MB.

    The peak is the child's own VmHWM: on Linux a child's ru_maxrss starts
    from the parent's peak across fork and exec, so it would measure the
    test runner rather than the simulation.
    """
    code = ("from hypfluct.functionals import simulate_surface\n"
            "from hypfluct.hyperbolic import ModelConfig\n"
            "simulate_surface(ModelConfig(d=4, lam=0.0, R=6.0), 3, seed=0)\n"
            "with open('/proc/self/status') as f:\n"
            "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n")
    peak_mb = int(_run_in_child(code)) / 1024.0  # VmHWM is in kB
    assert peak_mb <= 200.0


def test_simulate_surface_resident_growth_is_bounded():
    """d = 3, lambda = 1, R = 6 has about 81000 points per replicate, one
    replicate per call: a child simulating 256 replicates grows its peak RSS
    (VmHWM after the call minus VmRSS before it) by less than 8 MB.

    Unlike tracemalloc, this sees what the allocator keeps and what fresh
    pages cost: per-call arrays above glibc's mmap threshold grew it by
    17 MB, the per-block workspace by 3 MB.
    """
    code = ("from hypfluct.functionals import simulate_surface\n"
            "from hypfluct.hyperbolic import ModelConfig\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as f:\n"
            "        return int(next(line.split()[1] for line in f\n"
            "                        if line.startswith(key + ':')))\n"
            "before = status('VmRSS')\n"
            "simulate_surface(ModelConfig(d=3, lam=1.0, R=6.0), 256, seed=0)\n"
            "print(status('VmHWM') - before)\n")
    growth_mb = int(_run_in_child(code)) / 1024.0  # both fields are in kB
    assert growth_mb < 8.0


def test_package_import_leaves_out_scipy_integrate():
    """The moment rule needs no scipy.integrate, whose import costs about
    25 MB of peak RSS and 0.2-0.3 s in every process that imports hypfluct."""
    code = ("import sys\n"
            "import hypfluct, hypfluct.cli, hypfluct.functionals\n"
            "print('scipy.integrate' in sys.modules)\n")
    assert _run_in_child(code).strip() == "False"
