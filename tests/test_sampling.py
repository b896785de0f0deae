"""Poisson sampling layer: intensity, quantile function, streams, dumps."""

import math
import struct
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hypfluct import kernels
from hypfluct.errors import DomainError, QuadratureError
from hypfluct.hyperbolic import LOG2, ModelConfig
from hypfluct.sampling import (
    LOG_MAX,
    MAGIC,
    ProcessSample,
    SUB_CHUNK,
    _cosh_power_inverse,
    _cosh_power_primitive,
    _cosh_power_quantile,
    _halley_converged,
    _halley_step,
    inverse_cdf,
    intensity_density,
    make_rng,
    mean_count,
    poisson_block_sums,
    read_sample_dump,
    sample_process,
    write_sample_dump,
)
from hypfluct.stats import ks_two_sample


# ---------------------------------------------------------------------------
# intensity density
# ---------------------------------------------------------------------------

def test_intensity_geodesic_symmetric_cosh_power():
    config = ModelConfig(d=3, lam=0.0, R=5.0)
    s = np.linspace(-4.0, 4.0, 41)
    dens = intensity_density(config, s)
    np.testing.assert_allclose(dens, np.cosh(s) ** 2, rtol=1e-14)
    np.testing.assert_allclose(dens, dens[::-1], rtol=1e-14)


def test_intensity_density_identity():
    # cosh s - lam sinh s = mu cosh(s - Delta), so the two evaluations agree
    config = ModelConfig(d=3, lam=0.5, R=5.0)
    for s in np.linspace(-5.0, 5.0, 101):
        direct = (math.cosh(s) - 0.5 * math.sinh(s)) ** 2
        assert intensity_density(config, float(s)) == pytest.approx(direct, rel=1e-12)


def test_intensity_horospheric_exponential():
    config = ModelConfig(d=4, lam=1.0, R=3.0)
    for s in (-2.0, 0.0, 1.5):
        assert intensity_density(config, s) == pytest.approx(math.exp(-3.0 * s), rel=1e-14)


def test_intensity_multiplier_scales_linearly():
    base = ModelConfig(d=3, lam=0.3, R=4.0)
    double = ModelConfig(d=3, lam=0.3, R=4.0, intensity_multiplier=2.0)
    assert intensity_density(double, 0.7) == pytest.approx(
        2.0 * intensity_density(base, 0.7), rel=1e-14)
    assert mean_count(double) == pytest.approx(2.0 * mean_count(base), rel=1e-12)


# ---------------------------------------------------------------------------
# mean count
# ---------------------------------------------------------------------------

def test_mean_count_matches_quadrature():
    for d, lam in ((2, 0.0), (2, 0.8), (3, 0.5), (4, 0.5), (3, 1.0)):
        config = ModelConfig(d=d, lam=lam, R=3.0)
        direct, _ = quad(lambda s: intensity_density(config, s), -3.0, 3.0, limit=200)
        assert mean_count(config) == pytest.approx(direct, rel=1e-9)


def test_mean_count_frozen_value():
    # mpmath oracle of int_{-3}^{3} (mu cosh(s - Delta))^3 ds at lam = 0.5
    config = ModelConfig(d=4, lam=0.5, R=3.0)
    assert mean_count(config) == pytest.approx(1192.9698307341499, rel=1e-10)


def test_mean_count_vanishes_with_radius():
    vals = [mean_count(ModelConfig(d=3, lam=0.5, R=R)) for R in (1.0, 0.1, 0.01)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05


# ---------------------------------------------------------------------------
# inverse CDF
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,lam", [(2, 0.0), (2, 0.6), (3, 0.4), (4, 0.5), (3, 1.0),
                                   (6, 0.3), (8, 0.9)])
def test_inverse_cdf_monotone_with_correct_range(d, lam):
    config = ModelConfig(d=d, lam=lam, R=3.0)
    p = np.linspace(0.0, 1.0, 201)
    s = inverse_cdf(config, p)
    assert np.all(np.diff(s) > 0.0)
    assert s[0] == pytest.approx(-3.0, abs=1e-7)
    assert s[-1] == pytest.approx(3.0, abs=1e-7)


def test_inverse_cdf_rejects_bad_quantiles():
    config = ModelConfig(d=2, lam=0.0, R=1.0)
    with pytest.raises(DomainError):
        inverse_cdf(config, 1.5)
    with pytest.raises(DomainError):
        inverse_cdf(config, np.array([0.2, -0.1]))


@pytest.mark.parametrize("d,lam", [(2, 0.5), (3, 0.5), (2, 1.0)])
def test_inverse_cdf_rejects_nan(d, lam):
    """Each quantile path (arcsinh, Halley, horosphere) names the bad input."""
    config = ModelConfig(d=d, lam=lam, R=3.0)
    with pytest.raises(DomainError):
        inverse_cdf(config, [0.3, math.nan])
    with pytest.raises(DomainError):
        inverse_cdf(config, math.nan)


@pytest.mark.parametrize("d,lam", [(2, 0.0), (3, 0.6), (4, 0.5), (2, 1.0), (6, 0.3),
                                   (8, 0.9)])
def test_inverse_cdf_agrees_with_rejection_sampler(d, lam):
    """Independent oracle: accept-reject from the uniform envelope."""
    config = ModelConfig(d=d, lam=lam, R=2.5)
    rng = np.random.default_rng(42)
    bound = max(intensity_density(config, s)
                for s in np.linspace(-2.5, 2.5, 4001)) * 1.0000001
    accepted = []
    while len(accepted) < 20000:
        cand = rng.uniform(-2.5, 2.5, size=50000)
        keep = rng.uniform(0.0, bound, size=50000) < intensity_density(config, cand)
        accepted.extend(cand[keep].tolist())
    oracle = np.array(accepted[:20000])
    draws = inverse_cdf(config, rng.random(20000))
    # two-sample KS below the 1% critical value for n = m = 20000
    crit = 1.6276 * math.sqrt(2.0 / 20000.0)
    assert ks_two_sample(draws, oracle) < crit


@pytest.mark.parametrize("n", range(2, 8))
def test_cosh_power_quantile_is_exact(n):
    """Q inverts F = (K_n(u) - K_n(a)) / (K_n(b) - K_n(a)) to rounding, and
    K_n = int_0^u cosh^n agrees with 40-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    p = np.concatenate(([0.0, 1e-300, 1e-12], np.linspace(0.0, 1.0, 2001)[1:-1],
                        [1.0 - 1e-12, 1.0]))
    R, delta = 3.0, math.atanh(0.5)
    for a, b in ((-R - delta, R - delta), (0.0, 3.4)):
        u = _cosh_power_quantile(n, a, b, p)
        assert u[0] == a and u[-1] == b
        assert np.all(np.diff(u) >= 0.0)
        K, _ = _cosh_power_primitive(n, u)
        Ka, _ = _cosh_power_primitive(n, a)
        Kb, _ = _cosh_power_primitive(n, b)
        assert np.max(np.abs((K - Ka) / (Kb - Ka) - p)) <= 1e-14
    u = np.array([1e-6, 0.01, 0.3, 1.0, 3.0, 10.0, 30.0, -0.7, -12.0])
    K, ch_pow = _cosh_power_primitive(n, u)
    with mpmath.workdps(40):
        ref = [mpmath.quad(lambda x: mpmath.cosh(x) ** n, [0, x]) for x in u]
    np.testing.assert_allclose(K, np.array(ref, dtype=np.float64), rtol=1e-14)
    np.testing.assert_allclose(ch_pow, np.cosh(u) ** n, rtol=1e-14)
    np.testing.assert_allclose(_cosh_power_inverse(n, K), u, rtol=1e-14)


@pytest.mark.parametrize("n", [*range(2, 8), 15, 30, 60, 500, 1024, 1500])
def test_cosh_power_inverse_stop_rule_at_every_n(n):
    """The n^2 e^3 stop rule ends every point within 12 + n // 8 steps, within
    4 n ulps of the 40-digit root of the same reduction for K_n; at n = 3 the
    closed form meets the same bound.  The log-space start keeps n >= 500
    finite, and t = 0 gives exactly 0 also where 2^-n underflows (n = 1500)."""
    mpmath = pytest.importorskip("mpmath")
    top, _ = _cosh_power_primitive(n, 700.0 / n)
    K3, _ = _cosh_power_primitive(n, min(3.0, 700.0 / n))
    t = np.concatenate([np.geomspace(1e-300, top, 64), K3 * make_rng(n).random(64)])
    u = _cosh_power_inverse(n, t)
    assert _cosh_power_inverse(n, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def K_mp(x):
        sh, ch = mpmath.sinh(x), mpmath.cosh(x)
        K, ch_pow = (sh, ch) if n % 2 else (x, mpmath.mpf(1))
        for k in range(2 + n % 2, n + 1, 2):
            ch_pow *= ch
            K = sh * ch_pow / k + mpmath.mpf(k - 1) / k * K
            ch_pow *= ch
        return K

    with mpmath.workdps(40):
        ref = []
        for ti, ui in zip(t, u):
            root = mpmath.mpf(float(ui))
            for _ in range(4):  # Newton from within a few ulps
                root -= (K_mp(root) - mpmath.mpf(float(ti))) / mpmath.cosh(root) ** n
            ref.append(float(root))
    ref = np.array(ref)
    assert np.all(np.abs(u - ref) <= 4 * n * np.spacing(ref))


@pytest.mark.parametrize("n", [2220, 10000])
def test_cosh_power_inverse_where_the_start_overflows(n):
    """Where cosh^n of the start log 2 + log(n t)/n passes double range, the
    start cosh^n u = 2 n t takes over: t from 1e-300 to 1e300 inverts with no
    warning, and a Newton step from each root is within the stop rule's 4 n ulps."""
    t = np.geomspace(1e-300, 1e300, 121)
    old_start = LOG2 + math.log(n * t[-1]) / n
    assert n * math.log(math.cosh(old_start)) > LOG_MAX     # the new start is reached
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _cosh_power_inverse(n, t)
        K, dK = _cosh_power_primitive(n, u)
    assert np.all(np.abs((K - t) / dK) <= 4 * n * np.spacing(u))


def test_cosh_power_inverse_raises_at_step_cap():
    """A point that never converges, here a NaN, raises QuadratureError once
    the 12 + n // 8 Halley steps are spent."""
    with pytest.raises(QuadratureError, match="12 Halley steps"):
        _cosh_power_inverse(4, np.array([1.0, np.nan]))


def _n3_arguments():
    top, _ = _cosh_power_primitive(3, 700.0 / 3)
    t = np.geomspace(1e-300, top, 400)
    return np.concatenate([-t[::-1], [0.0], t])


def test_cosh_power_inverse_closed_form_at_n3():
    """At n = 3 the nested arcsinh/sinh root of x + x^3/3 = t, x = sinh u, is
    within 1e-15 relative of the 40-digit root, odd in t and exactly 0 at 0."""
    mpmath = pytest.importorskip("mpmath")
    t = _n3_arguments()
    u = _cosh_power_inverse(3, t)
    assert u[t.size // 2] == 0.0
    np.testing.assert_array_equal(u, -u[::-1])
    with mpmath.workdps(40):
        ref = []
        for ti, ui in zip(t, u):
            x, target = mpmath.sinh(mpmath.mpf(float(ui))), mpmath.mpf(float(ti))
            for _ in range(6):  # Newton on the cubic from within a few ulps
                x -= (x + x ** 3 / 3 - target) / (1 + x * x)
            ref.append(float(mpmath.asinh(x)))
    np.testing.assert_allclose(u, np.array(ref), rtol=1e-15, atol=0.0)


def test_cosh_power_inverse_n3_agrees_with_halley():
    """The closed form at n = 3 agrees at 1e-15 with Halley steps on K_3 from
    the start the other n take, run until every point meets the stop rule."""
    t = np.concatenate([_n3_arguments(), 30.0 * make_rng(3).random(400)])
    a = np.abs(t)
    u = np.minimum(a, np.log1p(24.0 * a) / 3)
    done = np.zeros(t.size, dtype=bool)
    for _ in range(12):
        e = _halley_step(3, a, u)
        done |= _halley_converged(3, e, u)
        if done.all():
            break
    assert done.all()
    np.testing.assert_allclose(_cosh_power_inverse(3, t), np.copysign(u, t),
                               rtol=1e-15, atol=0.0)


# an index of make_rng(0).random(200_000) whose p needs a third Halley step
# on [-3.5, 2.5], so its one-element piece cuts the per-point tail of a block
THIRD_STEP_INDEX = {2: 3, 3: 7, 4: 12, 5: 153, 6: 187, 7: 3563, 15: 55411}


@pytest.mark.parametrize("n", [*range(2, 8), 15])
def test_cosh_power_quantile_is_pointwise(n):
    """A quantile depends only on its own p: 2e5 uniforms cut into pieces
    give the values of the whole array, bit for bit."""
    p = make_rng(0).random(200_000)
    i = THIRD_STEP_INDEX[n]
    pieces = np.split(p, sorted([1, 777, 8192, 50_000, 123_457, i, i + 1]))
    for a, b in ((-3.5, 2.5), (-6.5, 5.4), (0.0, 4.0)):
        whole = _cosh_power_quantile(n, a, b, p)
        np.testing.assert_array_equal(
            np.concatenate([_cosh_power_quantile(n, a, b, q) for q in pieces]), whole)


# ---------------------------------------------------------------------------
# process sampling
# ---------------------------------------------------------------------------

def test_sample_process_deterministic():
    config = ModelConfig(d=3, lam=0.5, R=3.0)
    a = sample_process(config, seed=7, replicate_index=2)
    b = sample_process(config, seed=7, replicate_index=2)
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(a.u, b.u)


def test_sample_process_streams_are_split():
    config = ModelConfig(d=3, lam=0.5, R=3.0)
    a = sample_process(config, seed=7, replicate_index=0)
    b = sample_process(config, seed=7, replicate_index=1)
    c = sample_process(config, seed=8, replicate_index=0)
    assert not (len(a) == len(b) and np.array_equal(a.s, b.s))
    assert not (len(a) == len(c) and np.array_equal(a.s, c.s))


def test_sample_process_shapes_and_unit_directions():
    config = ModelConfig(d=4, lam=0.2, R=2.0)
    sample = sample_process(config, seed=1)
    assert sample.u.shape == (len(sample), 4)
    np.testing.assert_allclose(np.linalg.norm(sample.u, axis=1), 1.0, rtol=1e-12)
    assert np.all(np.abs(sample.s) <= 2.0)


def test_sample_process_empty_at_tiny_radius():
    config = ModelConfig(d=2, lam=0.0, R=1e-8)
    sample = sample_process(config, seed=0)
    assert len(sample) == 0


def test_sample_process_count_matches_mean():
    config = ModelConfig(d=2, lam=0.0, R=5.0)
    counts = [len(sample_process(config, seed=0, replicate_index=i))
              for i in range(400)]
    mean = mean_count(config)
    # Poisson mean test at ~4 sigma
    assert abs(np.mean(counts) - mean) < 4.0 * math.sqrt(mean / 400.0)


def test_make_rng_reproducible():
    a = make_rng(3, 5).random(10)
    b = make_rng(3, 5).random(10)
    c = make_rng(3, 6).random(10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# binary dump
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mean", [0.5, 20.0, 3000.0, 70000.0])
def test_poisson_block_sums_contract(mean):
    """fill sees the uniforms in windows at most one pass wide, and the
    reducer, kernels.zeta_increment_sums, sees whole replicates per call, at
    most one pass of points unless the call holds one larger replicate.  With
    a fill that writes 1.0, the sums are the block's Poisson counts."""
    n, block, seed = 100, 64, 5
    calls = []

    def fill(window):
        assert window.shape[0] == 1 and window.shape[1] <= SUB_CHUNK
        assert np.all((window >= 0.0) & (window < 1.0))
        window[:] = 1.0

    def reduce(values, offsets):
        assert values.size == offsets[-1]
        calls.append(offsets)
        return kernels.zeta_increment_sums(values, offsets)

    for start, sums, _ in poisson_block_sums(mean, n, lambda b: make_rng(seed, b),
                                             block, 1, fill, reduce):
        counts = make_rng(seed, start // block).poisson(mean, size=block)[:n - start]
        np.testing.assert_array_equal(sums, counts)
        # the calls' segments are the block's replicates, in order
        np.testing.assert_array_equal(np.concatenate([np.diff(o) for o in calls]), counts)
        assert all(o[-1] <= SUB_CHUNK or o.size == 2 for o in calls)
        calls.clear()


def test_sample_dump_roundtrip(tmp_path):
    config = ModelConfig(d=3, lam=0.5, R=3.0)
    samples = [sample_process(config, seed=9, replicate_index=i) for i in range(3)]
    path = tmp_path / "dump.hypf"
    write_sample_dump(path, samples)
    back = read_sample_dump(path)
    assert len(back) == 3
    for orig, rec in zip(samples, back):
        np.testing.assert_array_equal(orig.s, rec.s)
        np.testing.assert_array_equal(orig.u, rec.u)
        assert rec.config.d == 3 and rec.config.lam == 0.5 and rec.config.R == 3.0
        assert rec.seed == 9


def test_sample_dump_deterministic_bytes(tmp_path):
    config = ModelConfig(d=2, lam=0.0, R=2.0)
    samples = [sample_process(config, seed=4, replicate_index=i) for i in range(2)]
    p1, p2 = tmp_path / "a.hypf", tmp_path / "b.hypf"
    write_sample_dump(p1, samples)
    write_sample_dump(p2, samples)
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hypf"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        read_sample_dump(path)
    path.write_bytes(MAGIC + struct.pack("<H", 7) + b"\x00" * 40)
    with pytest.raises(DomainError, match="version 7"):
        read_sample_dump(path)


def test_sample_dump_keeps_multiplier_and_replicate(tmp_path):
    config = ModelConfig(d=3, lam=0.0, R=2.5, intensity_multiplier=0.5)
    samples = [sample_process(config, seed=2, replicate_index=i) for i in range(3)]
    path = tmp_path / "v2.hypf"
    write_sample_dump(path, samples)
    back = read_sample_dump(path)
    assert [rec.replicate_index for rec in back] == [0, 1, 2]
    for orig, rec in zip(samples, back):
        assert rec.config == config
        assert rec.config.intensity_multiplier == 0.5
        np.testing.assert_array_equal(orig.s, rec.s)
        np.testing.assert_array_equal(orig.u, rec.u)


def test_sample_dump_refuses_sample_without_directions(tmp_path):
    sample = ProcessSample(config=ModelConfig(d=2, lam=0.0, R=2.0),
                           s=np.array([0.5, -1.0]), u=None, seed=0)
    path = tmp_path / "nodirs.hypf"
    with pytest.raises(ValueError, match="without directions"):
        write_sample_dump(path, [sample])
    assert path.read_bytes() == b""


def test_sample_dump_truncated_raises_domain_error(tmp_path):
    config = ModelConfig(d=2, lam=0.3, R=2.0)
    path = tmp_path / "cut.hypf"
    write_sample_dump(path, [sample_process(config, seed=1)])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    payload = len(data) - 4 - 2 - struct.calcsize("<HdddQQQ")
    with pytest.raises(DomainError,
                       match=f"payload needs {payload} bytes, {payload - 8} are left"):
        read_sample_dump(path)
    path.write_bytes(data[:20])
    with pytest.raises(DomainError, match="header needs 50 bytes, 14 are left"):
        read_sample_dump(path)


def test_sample_dump_rejects_non_finite_radius(tmp_path):
    path = tmp_path / "nan.hypf"
    write_sample_dump(path, [sample_process(ModelConfig(d=2, lam=0.3, R=2.0), seed=1)])
    data = bytearray(path.read_bytes())
    # R follows MAGIC, the version, d and lambda
    data[16:24] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(data))
    with pytest.raises(DomainError, match="R must lie in"):
        read_sample_dump(path)


def test_sample_dump_reads_version_1(tmp_path):
    rows = np.array([[0.5, 1.0, 0.0], [-1.25, 0.6, -0.8]])
    path = tmp_path / "v1.hypf"
    path.write_bytes(MAGIC + struct.pack("<HHddQQ", 1, 2, 0.25, 3.0, 11, 2)
                     + rows.astype("<f8").tobytes())
    (rec,) = read_sample_dump(path)
    assert rec.config == ModelConfig(d=2, lam=0.25, R=3.0)
    assert rec.config.intensity_multiplier == 1.0
    assert rec.seed == 11 and rec.replicate_index == 0
    np.testing.assert_array_equal(rec.s, rows[:, 0])
    np.testing.assert_array_equal(rec.u, rows[:, 1:])
