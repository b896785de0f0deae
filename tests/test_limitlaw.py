"""Infinitely divisible limit law: cumulants, Levy measure, CF, sampler."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from hypfluct import hyperbolic, kernels, limitlaw, sampling
from hypfluct.errors import DomainError
from hypfluct.limitlaw import (
    CF_BLOCK,
    CF_PANELS,
    COS_HALF_WIDTH,
    DRAWS_PER_STREAM,
    _compensated_cis,
    cdf_via_inversion,
    characteristic_function,
    levy_density,
    limit_cumulant,
    limit_law_spec,
    log_characteristic_function,
    log_moment,
    sample_limit,
    zeta_mean_count,
)
from hypfluct.stats import ks_distance

from conftest import SUB_CHUNK_AND_BLOCK, _run_in_child


@pytest.fixture(scope="module")
def spec4():
    return limit_law_spec(4, 0.0, multiplier=0.5)


# ---------------------------------------------------------------------------
# closed-form cumulants and scale constant
# ---------------------------------------------------------------------------

def test_limit_cumulants_d4_rate1(spec4):
    assert limit_cumulant(spec4, 2) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert limit_cumulant(spec4, 3) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert limit_cumulant(spec4, 4) == pytest.approx(3.0 * math.pi / 16.0, rel=1e-14)
    assert limit_cumulant(spec4, 1) == 0.0


def test_limit_cumulant_divergence_guard(spec4):
    with pytest.raises(DomainError):
        limit_cumulant(spec4, 0)
    with pytest.raises(DomainError, match="integer"):
        limit_cumulant(limit_law_spec(4), 2.5)
    # l = 1 has h = -1 and returns 0 before the divergence guard; d = 5, l = 2 has h = 2
    spec5 = limit_law_spec(5, 0.0, multiplier=0.5)
    assert limit_cumulant(spec5, 2) > 0.0


def test_limit_cumulant_scales_with_rate():
    a = limit_law_spec(4, 0.0, multiplier=0.5)
    b = limit_law_spec(4, 0.0, multiplier=1.0)
    for ell in (2, 3, 4):
        assert limit_cumulant(b, ell) == pytest.approx(
            2.0 * limit_cumulant(a, ell), rel=1e-14)


def test_limit_scale_constant_values():
    assert limit_law_spec(4).scale_constant == pytest.approx(math.pi / 2.0, rel=1e-14)


def test_default_rate_matches_oriented_convention():
    spec = limit_law_spec(4, 0.6)
    assert spec.rate == pytest.approx(2.0 * (1.0 - 0.36) ** 1.5, rel=1e-14)
    assert limit_law_spec(4).rate == 2.0
    assert limit_law_spec(4, multiplier=0.5).rate == 1.0


# ---------------------------------------------------------------------------
# Levy measure
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:The algorithm does not converge")
def test_levy_density_moments_match_cumulants(spec4):
    """Independent check: int y^l levy = cumulant at unit rate, to 1e-8."""
    for ell, target in ((2, math.pi / 2.0), (3, math.pi / 4.0),
                        (4, 3.0 * math.pi / 16.0)):
        val, err = quad(lambda y: y ** ell * levy_density(4, y), 0.0, 1.0,
                        limit=400, epsabs=1e-13, epsrel=1e-13)
        assert abs(val - target) < 1e-8


def test_levy_density_support():
    with pytest.raises(DomainError):
        levy_density(4, 0.0)
    with pytest.raises(DomainError):
        levy_density(4, 1.0)
    with pytest.raises(DomainError):
        levy_density(3, 0.5)
    arr = levy_density(4, np.array([0.2, 0.5, 0.9]))
    assert arr.shape == (3,) and np.all(arr > 0.0)


def test_levy_density_change_of_variables():
    # density of y = cosh^{-(d-2)}(s) under cosh^{d-1}(s) ds at d = 4
    for s in (0.5, 1.0, 2.0):
        y = math.cosh(s) ** -2.0
        dy_ds = 2.0 * math.cosh(s) ** -3.0 * math.sinh(s)
        assert levy_density(4, y) == pytest.approx(
            math.cosh(s) ** 3.0 / dy_ds, rel=1e-12)


# ---------------------------------------------------------------------------
# spec construction and tail bookkeeping
# ---------------------------------------------------------------------------

def test_spec_cutoff_hits_point_budget(spec4):
    assert zeta_mean_count(spec4, spec4.T0) == pytest.approx(1000.0, rel=1e-9)


@pytest.mark.parametrize("d", [102, 150, 300])
def test_spec_at_high_dimension(d):
    """T0 comes from a cosh^{d-1} inverse whose Halley step count grows with d:
    past d = 101 it still hits the point budget, and the draws are finite."""
    spec = limit_law_spec(d)
    assert zeta_mean_count(spec, spec.T0) == pytest.approx(1000.0, rel=1e-13)
    assert np.all(np.isfinite(sample_limit(spec, 20, 1)))


@pytest.mark.parametrize("d", [343, 1026, 1500])
def test_spec_beyond_double_range_gamma(d):
    """From d = 343 Gamma(d/2 + 1) and from d = 1026 2^{d-2} leave double
    range, and near n = 500 so did n 2^n K in the Halley start; the spec is
    still built, and K_{d-1} rounds about d times."""
    spec = limit_law_spec(d)
    assert zeta_mean_count(spec, spec.T0) == pytest.approx(1000.0, rel=4 * d * 2.0 ** -52)


@pytest.mark.parametrize("d", [2220, 2221, 3000])
def test_spec_where_the_halley_start_overflows(d):
    """At lambda = 0.5, from d = 2220 cosh^{d-1} of the log-space Halley start
    passes double range; the spec is still built, with no warning.  The stop
    rule leaves T0 within 4 (d - 1) ulps, up to 1e-9 relative in K_{d-1} here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = limit_law_spec(d, 0.5)
        mean = zeta_mean_count(spec, spec.T0)
    assert mean == pytest.approx(1000.0, rel=1e-10)


def test_spec_refuses_a_cutoff_beyond_double_range():
    """At lambda = 0.5, d = 4828 is the last d whose Halley start
    cosh^{d-1} = 2 (d - 1) 1000 / rate is a double; from d = 4829 it is not,
    and at d = 6000 the rate underflows to 0.  Both raise DomainError naming
    d, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = limit_law_spec(4828, 0.5)
        assert math.isfinite(spec.T0) and spec.T0 > 0.0
        for d in (4829, 6000):
            with pytest.raises(DomainError, match=f"d = {d},"):
                limit_law_spec(d, 0.5)


@pytest.mark.parametrize("d,ell,T", [(4, 2, 0.5), (4, 2, 3.1), (6, 2, 7.5), (8, 2, 2.0),
                                     (4, 3, 1.0), (5, 4, 2.5)])
def test_limit_cumulant_beyond_T_against_mpmath(d, ell, T):
    """rate * int_T^inf cosh^{(d-1) - ell (d-2)} against 40-digit mpmath (rate 1)."""
    mpmath = pytest.importorskip("mpmath")
    p = (d - 1) - ell * (d - 2)
    with mpmath.workdps(40):
        tail = mpmath.quad(lambda s: mpmath.cosh(s) ** p, [T, mpmath.inf])
    spec = limit_law_spec(d, 0.0, multiplier=0.5)
    assert limit_cumulant(spec, ell, T) == pytest.approx(float(tail), rel=1e-13)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_limit_cumulant_falls_with_T(spec4, ell):
    values = [limit_cumulant(spec4, ell, T) for T in (0.0, 0.5, spec4.T0)]
    assert values[0] > values[1] > values[2] > 0.0
    # far out the tail underflows to 0 rather than overflowing cosh
    assert limit_cumulant(spec4, ell, 1000.0) == 0.0


def test_variance_splits_at_cutoff(spec4):
    assert spec4.tail_variance == limit_cumulant(spec4, 2, spec4.T0)
    # at d = 4, rate 1 the head int_0^T0 sech is the Gudermannian 2 atan(tanh(T0/2))
    head = 2.0 * math.atan(math.tanh(0.5 * spec4.T0))
    assert limit_cumulant(spec4, 2) - spec4.tail_variance == pytest.approx(head, rel=1e-12)


def test_tail_third_cumulant_is_negligible(spec4):
    # the Gaussian tail substitution bias, relative to cum_3
    assert limit_cumulant(spec4, 3, spec4.T0) < 1e-3 * limit_cumulant(spec4, 3)


@pytest.mark.parametrize("T", [-1.0, math.nan])
def test_limit_cumulant_refuses_bad_cutoff(spec4, T):
    with pytest.raises(DomainError, match="cutoff"):
        limit_cumulant(spec4, 2, T)


def test_spec_domain_guards():
    with pytest.raises(DomainError):
        limit_law_spec(3, 0.0)
    with pytest.raises(DomainError, match="integer d >= 4"):
        limit_law_spec(4.5, 0.0)
    with pytest.raises(DomainError):
        limit_law_spec(4, 1.0)
    with pytest.raises(DomainError, match="lambda"):
        limit_law_spec(4, math.nan)
    for multiplier in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="multiplier"):
            limit_law_spec(4, 0.0, multiplier=multiplier)


# ---------------------------------------------------------------------------
# the half-line process zeta
# ---------------------------------------------------------------------------

def test_zeta_mean_count_matches_quadrature():
    direct, _ = quad(lambda s: math.cosh(s) ** 3, 0.0, 2.0)
    assert zeta_mean_count(limit_law_spec(4, 0.0), 2.0) == pytest.approx(2.0 * direct, rel=1e-8)
    assert zeta_mean_count(limit_law_spec(4, 0.0, multiplier=0.5), 2.0) == pytest.approx(
        direct, rel=1e-8)


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------

def test_cf_at_zero_is_one(spec4):
    assert characteristic_function(spec4, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)
    # the rule's range shrinks with d, so cosh^{d-1} stays finite
    for d in (20, 40):
        assert characteristic_function(limit_law_spec(d), 0.0) == 1.0


def test_cf_finite_difference_cumulants(spec4):
    """log CF derivatives at 0 reproduce the closed-form cumulants."""
    h = 1e-3
    t = np.array([-2.0 * h, -h, 0.0, h, 2.0 * h])
    lc = log_characteristic_function(spec4, t)
    # second derivative: cum_2 = -d^2/dt^2 log psi(0)
    d2 = (lc[1] - 2.0 * lc[2] + lc[3]) / h ** 2
    assert -d2.real == pytest.approx(math.pi / 2.0, rel=1e-6)
    d3 = (lc[4] - 2.0 * lc[3] + 2.0 * lc[1] - lc[0]) / (2.0 * h ** 3)
    assert -d3.imag == pytest.approx(math.pi / 4.0, rel=1e-4)


def test_compensated_cis_against_mpmath():
    """e^{iz} - 1 - iz to a few ulps in both parts, across the series cut-off."""
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate([np.geomspace(1e-30, 30.0, 400), [-1e-3, -0.4999, -0.5, -7.0]])
    got = _compensated_cis(z)
    with mpmath.workdps(100):
        ref = [complex(mpmath.expj(x) - 1 - 1j * x) for x in map(mpmath.mpf, z)]
    np.testing.assert_allclose(got.real, [r.real for r in ref], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(got.imag, [r.imag for r in ref], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("d, t", [(4, 1.0), (5, 2.0), (20, 1.0), (40, 1.0)])
def test_cf_against_mpmath(d, t):
    """The CF quadrature rule against 110-digit mpmath, to 1e-14: it is off by
    at most 1.3e-16 (numpy's leggauss nodes left 7.5e-14 at (4, 1)).

    e^{ix} - 1 - ix cancels down to x ~ 1e-35 at s = 40, so the oracle needs
    about 100 digits; at 30 it is itself off by ~1e-10.
    """
    mpmath = pytest.importorskip("mpmath")
    spec = limit_law_spec(d, 0.0)
    with mpmath.workdps(110):
        def integrand(s):
            x = t * mpmath.cosh(s) ** (2 - d)
            return (mpmath.expj(x) - 1 - 1j * x) * mpmath.cosh(s) ** (d - 1)
        log_psi = spec.rate * mpmath.quad(integrand, [0, 1, 3, 10, 40, mpmath.inf])
        psi = complex(mpmath.exp(log_psi))
    assert abs(characteristic_function(spec, t) - psi) <= 1e-14


def test_cf_semigroup_in_rate():
    a = limit_law_spec(4, 0.0, multiplier=0.5)
    b = limit_law_spec(4, 0.0, multiplier=1.0)
    t = np.linspace(0.1, 8.0, 17)
    la = log_characteristic_function(a, t)
    lb = log_characteristic_function(b, t)
    np.testing.assert_allclose(lb, 2.0 * la, rtol=1e-12)


def test_cf_blocks_match_pointwise(spec4):
    """A grid that crosses a block boundary gives the per-point values."""
    t = np.linspace(0.0, 30.0, CF_BLOCK + 37)
    blocked = log_characteristic_function(spec4, t)
    single = np.array([log_characteristic_function(spec4, v) for v in t])
    np.testing.assert_allclose(blocked, single, rtol=1e-14, atol=0.0)


def test_cf_peak_memory_is_bounded():
    """The 401-point CF of `hypfluct limit` holds a few CF_BLOCK x 16 CF_PANELS
    complex matrices at a time, 0.6 MB each: its peak stays below 4 MB."""
    spec = limit_law_spec(5, 0.3)
    t = np.linspace(0.0, 20.0, 401)
    tracemalloc.start()
    try:
        characteristic_function(spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_cf_nodes_call_no_linear_algebra(monkeypatch):
    """The CF rule is built by Newton on the Legendre recurrence, with no
    eigen-solve: every numpy.linalg routine raises while it is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        routine = getattr(np.linalg, name)
        if callable(routine) and not isinstance(routine, type):
            monkeypatch.setattr(np.linalg, name, refuse)
    hyperbolic.gauss_legendre.cache_clear()
    limitlaw._cf_nodes.cache_clear()
    log_h, log_wd = limitlaw._cf_nodes(4)
    assert log_h.shape == log_wd.shape == (16 * CF_PANELS,)
    assert np.all(np.isfinite(log_wd)) and np.all(log_h <= 0.0)


@pytest.mark.parametrize("d", [4, 5, 8, 12, 20, 40])
def test_cf_nodes_reproduce_the_closed_form_cumulants(d):
    """zeta's node set, summed by the moment rule's log_moment, gives the
    incomplete-beta cumulants of limit_cumulant (measured: within 2e-14)."""
    spec = limit_law_spec(d)
    for k in (2, 3, 4):
        quadrature = spec.rate * math.exp(log_moment(*limitlaw._cf_nodes(d), k))
        assert quadrature == pytest.approx(limit_cumulant(spec, k), rel=1e-12)


def test_cf_keeps_the_shape_of_t(spec4):
    """A (2, 3) grid of t gives a (2, 3) result equal to per-point values."""
    t = np.linspace(0.0, 5.0, 6).reshape(2, 3)
    for fn in (log_characteristic_function, characteristic_function):
        grid = fn(spec4, t)
        assert grid.shape == (2, 3)
        single = np.array([[fn(spec4, v) for v in row] for row in t])
        np.testing.assert_allclose(grid, single, rtol=1e-14, atol=0.0)


def test_cf_modulus_decays(spec4):
    t = np.array([1.0, 4.0, 16.0])
    mods = np.abs(characteristic_function(spec4, t))
    assert mods[0] > mods[1] > mods[2]
    assert mods[2] < 1e-6


# ---------------------------------------------------------------------------
# CDF inversion
# ---------------------------------------------------------------------------

def test_cdf_inversion_shape(spec4):
    x = np.linspace(-6.0, 10.0, 401)
    F = cdf_via_inversion(spec4, x)
    assert np.all(np.diff(F) >= 0.0)
    assert np.all((F >= 0.0) & (F <= 1.0))
    assert F[0] < 1e-6
    assert F[-1] > 1.0 - 1e-6


def test_cdf_inversion_median_negative(spec4):
    # mean 0 with positive skew forces a negative median
    x = np.linspace(-2.0, 2.0, 2001)
    F = cdf_via_inversion(spec4, x)
    median = x[int(np.searchsorted(F, 0.5))]
    assert -1.0 < median < 0.0


def test_cdf_inversion_rejects_unsorted(spec4):
    with pytest.raises(DomainError):
        cdf_via_inversion(spec4, np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        cdf_via_inversion(spec4, np.array([0.0, 1.0]), n_t=0)


@pytest.mark.parametrize("x", [[math.nan], [-1.0, math.nan, 1.0], [0.0, 1.0, math.nan]])
def test_cdf_inversion_rejects_nan(spec4, x):
    """A lone NaN gave F = 0 and a NaN inside a grid a non-monotone
    QuadratureError; both are domain errors."""
    with pytest.raises(DomainError, match="NaN"):
        cdf_via_inversion(spec4, np.array(x))


@pytest.mark.parametrize("n_t", [2.5, 256.0, "256"])
def test_cdf_inversion_rejects_a_non_integer_term_count(spec4, n_t):
    with pytest.raises(DomainError, match="integer"):
        cdf_via_inversion(spec4, np.array([0.0, 1.0]), n_t=n_t)


def test_cdf_inversion_at_infinities(spec4):
    F = cdf_via_inversion(spec4, np.array([-math.inf, 0.0, math.inf]))
    assert F[0] == 0.0 and F[2] == 1.0 and 0.0 < F[1] < 1.0
    np.testing.assert_array_equal(cdf_via_inversion(spec4, np.array([math.inf, math.inf])),
                                  [1.0, 1.0])
    assert cdf_via_inversion(spec4, np.array([-math.inf]))[0] == 0.0
    assert cdf_via_inversion(spec4, np.array([0.0]), n_t=np.int64(256))[0] == F[1]


@pytest.mark.parametrize("d, lam", [(4, 0.0), (5, 0.3), (6, 0.0), (8, 0.5)])
def test_cdf_moments_match_closed_form_cumulants(d, lam):
    """Mean 0 and variance k2 from F alone; F is 0 and 1 far outside [a, b].

    By parts on [a, b]: E Z = b - int F and E Z^2 = b^2 - 2 int x F.  At
    (8, 0.5) a fixed 256-term series is off by ~1e-8 in F, so this case
    pins the term count to the CF truncation point.
    """
    spec = limit_law_spec(d, lam)
    k2 = limit_cumulant(spec, 2)
    b = COS_HALF_WIDTH * math.sqrt(k2 + math.sqrt(limit_cumulant(spec, 4)))
    x = np.linspace(-b, b, 20001)
    F = cdf_via_inversion(spec, x)
    mean = b - simpson(F, x=x)
    var = b * b - 2.0 * simpson(x * F, x=x) - mean * mean
    assert abs(mean) <= 1e-8 * k2
    assert abs(var - k2) <= 1e-8 * k2
    far = cdf_via_inversion(spec, np.array([-3.0 * b, -2.0 * b, 2.0 * b, 3.0 * b]))
    np.testing.assert_array_equal(far, [0.0, 0.0, 1.0, 1.0])


def test_cdf_peak_memory_is_bounded():
    """The 20001-point grid of the cumulant test at (8, 0.5), with 467 CF
    points: the sine series is summed CF_BLOCK rows at a time, so the call
    peaks near 0.9 MB in tracemalloc.  One 20001 x 467 sine matrix and its
    matrix product peaked at 150 MB."""
    spec = limit_law_spec(8, 0.5)
    b = COS_HALF_WIDTH * math.sqrt(limit_cumulant(spec, 2) + math.sqrt(limit_cumulant(spec, 4)))
    x = np.linspace(-b, b, 20001)
    limitlaw._cf_nodes(spec.d)
    tracemalloc.start()
    try:
        cdf_via_inversion(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_cli_grids_resident_growth_is_bounded():
    """The CDF (801 points) and CF (401 points) grids of `hypfluct limit` at
    (4, 0) and (5, 0.3): a child computing both grows its peak RSS (VmHWM
    after minus VmRSS before) by 1.0 MB; leggauss's eigen-solve and the
    whole sine matrix grew it by 7.0 MB.  No rule is built at import: the
    moment rule builds its nodes per call, and the CF's on first use."""
    code = ("import math\n"
            "import numpy as np\n"
            "import hypfluct.cli\n"
            "from hypfluct import hyperbolic, limitlaw\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as f:\n"
            "        return int(next(line.split()[1] for line in f\n"
            "                        if line.startswith(key + ':')))\n"
            "specs = [limitlaw.limit_law_spec(d, lam) for d, lam in ((4, 0.0), (5, 0.3))]\n"
            "print(limitlaw._cf_nodes.cache_info().currsize,\n"
            "      hyperbolic.gauss_legendre.cache_info().currsize)\n"
            "before = status('VmRSS')\n"
            "for spec in specs:\n"
            "    sd = math.sqrt(limitlaw.limit_cumulant(spec, 2))\n"
            "    limitlaw.cdf_via_inversion(spec, np.linspace(-10.0 * sd, 14.0 * sd, 801))\n"
            "    limitlaw.characteristic_function(spec, np.linspace(0.0, 20.0, 401))\n"
            "print(status('VmHWM') - before)\n")
    cf_rules, gauss_rules, growth_kb = map(int, _run_in_child(code).split())
    assert cf_rules == 0 and gauss_rules == 0
    assert growth_kb / 1024.0 < 3.0  # both fields are in kB


def test_cdf_explicit_term_count_agrees_with_default(spec4):
    x = np.linspace(-8.0, 14.0, 201)
    np.testing.assert_allclose(cdf_via_inversion(spec4, x, n_t=2048),
                               cdf_via_inversion(spec4, x), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# hybrid sampler
# ---------------------------------------------------------------------------

def test_sample_limit_deterministic(spec4):
    a = sample_limit(spec4, 500, seed=1)
    b = sample_limit(spec4, 500, seed=1)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_limit(spec4, 500, seed=2))


@pytest.mark.parametrize("d, lam", [(4, 0.0), (5, 0.3)])
def test_sample_limit_block_rebuilt_by_hand(d, lam):
    """The partial second block, rebuilt from its streams: the counts of a
    whole block and the jump uniforms of its first m draws from the stream
    (seed, 1), the tail normals from that stream's first child."""
    spec = limit_law_spec(d, lam)
    m, seed = 7, 4
    draws = sample_limit(spec, DRAWS_PER_STREAM + m, seed)[DRAWS_PER_STREAM:]
    rng = sampling.make_rng(seed, 1)
    counts = rng.poisson(zeta_mean_count(spec, spec.T0), size=DRAWS_PER_STREAM)[:m]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    jumps = sampling._cosh_power_quantile(d - 1, 0.0, spec.T0, rng.random(offsets[-1]))
    sums = kernels.zeta_increment_sums(np.cosh(jumps) ** -(d - 2), offsets)
    tail = sampling.make_rng(seed, 1).spawn(1)[0].standard_normal(m)
    expected = (sums - spec.rate * math.sinh(spec.T0)
                + math.sqrt(spec.tail_variance) * tail)
    np.testing.assert_array_equal(draws, expected)


@pytest.mark.parametrize("d, lam, multiplier, n, seed", [
    pytest.param(4, 0.3, 1.0, 1500, 6, id="4"),
    pytest.param(5, 0.3, 1.0, 1500, 6, id="5"),
    pytest.param(4, 0.0, 0.5, 500, 3, id="spec4"),
])
def test_sample_limit_independent_of_sub_chunk(monkeypatch, d, lam, multiplier, n, seed):
    """Draws are bit-identical over the (call, window) sizes of
    SUB_CHUNK_AND_BLOCK; a 1024-jump call takes one draw of about 1000 jumps,
    which 1000-point windows often split in two."""
    spec = limit_law_spec(d, lam, multiplier)
    runs = []
    for sub_chunk, block in SUB_CHUNK_AND_BLOCK:
        monkeypatch.setattr(sampling, "SUB_CHUNK", sub_chunk)
        monkeypatch.setattr(sampling, "BLOCK", block)
        runs.append(sample_limit(spec, n, seed=seed))
    for run in runs[1:]:
        np.testing.assert_array_equal(run, runs[0])


def test_sample_limit_holds_one_jump_array():
    """The jump sizes are written over their uniforms in the block's one-row
    workspace: 65 draws of about 1000 jumps per call fill one call of 2^16
    points, 0.52 MB, and that row with the temporaries of one 8192-point
    window stays below 1.1 MB (it reached 1.3 MB with 2^16-point windows)."""
    spec = limit_law_spec(4, 0.0)
    tracemalloc.start()
    try:
        sample_limit(spec, 4000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1e6


def test_sample_limit_builds_one_stream_per_block(monkeypatch):
    """Each block's counts, uniforms and tail normals come from one stream:
    three blocks build three generators."""
    calls = []

    def counting_make_rng(seed, index=0):
        calls.append(index)
        return sampling.make_rng(seed, index)

    monkeypatch.setattr(limitlaw, "make_rng", counting_make_rng)
    sample_limit(limit_law_spec(4, 0.0), 2 * DRAWS_PER_STREAM + 5, seed=2)
    assert calls == [0, 1, 2]


def test_sample_limit_moments(spec4):
    draws = sample_limit(spec4, 40000, seed=4)
    assert abs(draws.mean()) < 5.0 * math.sqrt(math.pi / 2.0 / 40000.0)
    assert np.var(draws, ddof=1) == pytest.approx(math.pi / 2.0, rel=0.05)


def test_sample_limit_matches_inversion_cdf(spec4):
    draws = sample_limit(spec4, 40000, seed=5)
    sd = math.sqrt(math.pi / 2.0)
    x = np.linspace(-8.0 * sd, 14.0 * sd, 1201)
    F = cdf_via_inversion(spec4, x)
    ks = ks_distance(draws, lambda v: np.interp(v, x, F, left=0.0, right=1.0))
    assert ks < 0.015
