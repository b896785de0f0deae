"""Surface functional: sums, exact moment integrals, asymptotic regimes.

Frozen constants come from independent 40-digit mpmath quadrature of the
defining integrals (not from this package).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hypfluct
from hypfluct import sampling
from hypfluct.errors import DomainError
from hypfluct.hyperbolic import ModelConfig, ball_volume, lambda_geometry
from hypfluct.sampling import (
    ProcessSample,
    inverse_cdf,
    make_rng,
    mean_count,
    sample_process,
)
from hypfluct.functionals import (
    berry_esseen_indicator,
    cosh_power_integral,
    cumulant_integral,
    expected_surface_area,
    limit_profile,
    normalized_cumulant_limit,
    normalized_profile,
    simulate_surface,
    total_surface_area,
    variance,
    variance_order,
    write_cumulant_csv,
    write_surface_csv,
)
from hypfluct.hyperbolic import intersection_volume, intersection_volume_bound


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
    loop = np.array([total_surface_area(sample_process(config, 90, i,
                                                       with_directions=False)).value
                     for i in range(4000)])
    assert abs(S.mean() - loop.mean()) < 5.0 * math.sqrt(2.0 * variance(config) / 4000.0)


def test_simulate_surface_d6_matches_per_replicate_sums():
    """d = 6 batch volumes against the same points summed replicate by replicate.

    The points are redrawn from the stream simulate_surface uses for its first
    block; each replicate is summed by total_surface_area and, independently
    of the batch kernel, by fsum of the log-space scalar section volumes.
    """
    config = ModelConfig(d=6, lam=0.3, R=2.5)
    n, seed = 4, 9
    S, Sp, Sn = simulate_surface(config, n, seed=seed)
    rng = make_rng(seed, 0)
    counts = rng.poisson(mean_count(config), size=n)
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
    replicate at a time, 4096 at a time or at the default budget."""
    config = ModelConfig(d=d, lam=lam, R=R)
    runs = []
    for budget in (1, 4096, sampling.POINT_BUDGET):
        monkeypatch.setattr(sampling, "POINT_BUDGET", budget)
        runs.append(simulate_surface(config, 300, seed=4))
    for run in runs[1:]:
        for a, b in zip(run, runs[0]):
            np.testing.assert_array_equal(a, b)


def test_simulate_surface_memory_is_bounded():
    """d = 4, lambda = 0, R = 6 has 5.5e6 points per replicate; a child
    process simulating 3 replicates peaks below 400 MB.

    The peak is the child's own VmHWM: on Linux a child's ru_maxrss starts
    from the parent's peak across fork and exec, so it would measure the
    test runner rather than the simulation.
    """
    code = ("from hypfluct.functionals import simulate_surface\n"
            "from hypfluct.hyperbolic import ModelConfig\n"
            "simulate_surface(ModelConfig(d=4, lam=0.0, R=6.0), 3, seed=0)\n"
            "with open('/proc/self/status') as f:\n"
            "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n")
    path = [os.path.dirname(os.path.dirname(hypfluct.__file__)),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / 1024.0  # VmHWM is in kB
    assert peak_mb <= 400.0


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_write_cumulant_csv_roundtrip(tmp_path):
    rows = [(2, 0.0, 3.0, 2, 123.4567890123), (3, 0.5, 2.0, 3, 1e-15)]
    path = tmp_path / "cum.csv"
    write_cumulant_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "d,lambda,R,k,I_value"
    d, lam, R, k, val = lines[1].split(",")
    assert (int(d), float(lam), float(R), int(k)) == (2, 0.0, 3.0, 2)
    assert float(val) == 123.4567890123


def test_write_surface_csv(tmp_path):
    path = tmp_path / "surf.csv"
    write_surface_csv(path, [1.5, 2.5], [1.0, 2.0], [0.5, 0.5])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "replicate,S,S_plus,S_minus"
    assert lines[1] == "0,1.5,1.0,0.5"
