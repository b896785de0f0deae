"""Empirical statistics: k-statistics, distances, regime report."""

import math
from itertools import combinations

import numpy as np
import pytest

from hypfluct.errors import DomainError
from hypfluct.stats import (
    KOLMOGOROV_CRITICAL,
    k_statistics,
    kolmogorov_critical,
    ks_distance,
    ks_two_sample,
    normal_cdf,
    regime_report,
    wasserstein1,
    REPORT_COLUMNS,
)


# ---------------------------------------------------------------------------
# k-statistics
# ---------------------------------------------------------------------------

def _kstats_power_sum_oracle(x):
    """Independent implementation from raw power sums S_r = sum x^r."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    S1, S2, S3, S4 = (np.sum(x ** r) for r in (1, 2, 3, 4))
    k2 = (n * S2 - S1 ** 2) / (n * (n - 1))
    k3 = (2 * S1 ** 3 - 3 * n * S1 * S2 + n ** 2 * S3) / (n * (n - 1) * (n - 2))
    k4 = ((-6 * S1 ** 4 + 12 * n * S1 ** 2 * S2 - 3 * n * (n - 1) * S2 ** 2
           - 4 * n * (n + 1) * S1 * S3 + n ** 2 * (n + 1) * S4)
          / (n * (n - 1) * (n - 2) * (n - 3)))
    return S1 / n, k2, k3, k4


def test_k_statistics_match_power_sum_oracle():
    rng = np.random.default_rng(0)
    for n in (4, 5, 8, 50, 1000):
        x = rng.standard_gamma(2.0, size=n)
        got = k_statistics(x)
        want = _kstats_power_sum_oracle(x)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


def test_k_statistics_unbiasedness_exhaustive():
    """Average of k2 over all subsets of size m equals k2 of the full set."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=7)
    m = 4
    full_k2 = k_statistics(x)[1]
    sub_k2 = [k_statistics(np.array(c))[1] for c in combinations(x, m)]
    assert np.mean(sub_k2) == pytest.approx(full_k2, rel=1e-10)


def test_k_statistics_constant_sample():
    mean, k2, k3, k4 = k_statistics(np.full(10, 3.7))
    assert mean == pytest.approx(3.7, rel=1e-15)
    assert k2 == pytest.approx(0.0, abs=1e-28)
    assert k3 == pytest.approx(0.0, abs=1e-28)
    assert k4 == pytest.approx(0.0, abs=1e-28)


def test_k_statistics_known_cumulants():
    # Poisson(5): all cumulants equal 5
    rng = np.random.default_rng(2)
    x = rng.poisson(5.0, size=400000).astype(np.float64)
    mean, k2, k3, k4 = k_statistics(x)
    assert mean == pytest.approx(5.0, abs=0.05)
    assert k2 == pytest.approx(5.0, rel=0.02)
    assert k3 == pytest.approx(5.0, rel=0.1)
    assert k4 == pytest.approx(5.0, rel=0.3)


def test_k_statistics_needs_four_points():
    with pytest.raises(DomainError):
        k_statistics([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_ks_distance_point_mass_at_median():
    # all mass at the reference median: sup gap is 1/2
    x = np.zeros(1000)
    assert ks_distance(x, lambda v: normal_cdf(v, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_ks_distance_self_consistency():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50000)
    ks = ks_distance(x, lambda v: normal_cdf(v, 1.0))
    assert ks < kolmogorov_critical(50000, 0.01)


def test_ks_two_sample_disjoint_supports():
    a = np.arange(10, dtype=np.float64)
    b = a + 100.0
    assert ks_two_sample(a, b) == 1.0


def test_ks_two_sample_identical():
    a = np.arange(10, dtype=np.float64)
    assert ks_two_sample(a, a.copy()) == 0.0


def test_wasserstein_identical_quantiles():
    rng = np.random.default_rng(4)
    x = np.sort(rng.normal(size=1000))
    quantile = lambda p: np.quantile(x, p, method="inverted_cdf")
    assert wasserstein1(x, quantile) < 1e-12


def test_wasserstein_shift():
    rng = np.random.default_rng(5)
    x = rng.normal(size=200000)
    from scipy.special import ndtri
    w = wasserstein1(x + 1.0, ndtri)
    assert w == pytest.approx(1.0, rel=0.02)


def test_kolmogorov_critical_table():
    assert KOLMOGOROV_CRITICAL[0.05] == pytest.approx(
        math.sqrt(-math.log(0.025) / 2.0), rel=1e-12)
    assert kolmogorov_critical(10000, 0.05) == pytest.approx(
        KOLMOGOROV_CRITICAL[0.05] / 100.0)
    with pytest.raises(DomainError):
        kolmogorov_critical(100, 0.2)


# ---------------------------------------------------------------------------
# regime report
# ---------------------------------------------------------------------------

def test_regime_report_d2_columns():
    rows = regime_report(2, 0.0, [3.0, 4.0], 400, seed=0)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(REPORT_COLUMNS)
        assert math.isnan(row["ks_limit"])
        assert 0.0 < row["ks_normal1"] < 1.0
        assert row["n"] == 400


def test_regime_report_d4_has_limit_distances():
    rows = regime_report(4, 0.0, [3.0], 400, seed=0)
    row = rows[0]
    assert math.isfinite(row["ks_limit"])
    assert math.isfinite(row["w1_limit"])
    assert row["be_indicator"] > 0.25
