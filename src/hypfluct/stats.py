"""Empirical distribution machinery: k-statistics, KS/W1 distances, reports."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import DomainError
from .hyperbolic import ModelConfig
from . import functionals, limitlaw

# Asymptotic Kolmogorov critical coefficients c(alpha): reject when
# KS > c/sqrt(n).  c = sqrt(-ln(alpha/2)/2).
KOLMOGOROV_CRITICAL = {0.10: 1.2238734153404083,
                       0.05: 1.3581015157406195,
                       0.01: 1.6276236115189504}


def k_statistics(samples):
    """(mean, k2, k3, k4): unbiased cumulant estimates from power sums."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 4:
        raise DomainError("k-statistics up to order 4 need n >= 4")
    mean = float(x.mean())
    c = x - mean
    m2 = float(np.mean(c ** 2))
    m3 = float(np.mean(c ** 3))
    m4 = float(np.mean(c ** 4))
    k2 = n / (n - 1.0) * m2
    k3 = n * n / ((n - 1.0) * (n - 2.0)) * m3
    k4 = (n * n * ((n + 1.0) * m4 - 3.0 * (n - 1.0) * m2 * m2)
          / ((n - 1.0) * (n - 2.0) * (n - 3.0)))
    return mean, k2, k3, k4


def ks_distance(samples, reference_cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n == 0:
        raise DomainError("need at least one sample")
    F = np.asarray(reference_cdf(x), dtype=np.float64)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - F, F - (i - 1) / n)))


def ks_two_sample(a, b) -> float:
    """Two-sample KS distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    Fa = np.searchsorted(a, grid, side="right") / a.size
    Fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(Fa - Fb)))


def wasserstein1(samples, reference_quantile) -> float:
    """W1 via the quantile coupling (1/n) sum |x_(i) - Q((i-1/2)/n)|."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n == 0:
        raise DomainError("need at least one sample")
    q = np.asarray(reference_quantile((np.arange(n) + 0.5) / n), dtype=np.float64)
    return float(np.mean(np.abs(x - q)))


def kolmogorov_critical(n: int, level: float) -> float:
    try:
        return KOLMOGOROV_CRITICAL[level] / math.sqrt(n)
    except KeyError:
        raise DomainError(f"level must be one of {sorted(KOLMOGOROV_CRITICAL)}")


def normal_cdf(x, sigma2: float = 1.0):
    return ndtr(np.asarray(x) / math.sqrt(sigma2))


# ---------------------------------------------------------------------------
# regime report
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("d", "lambda", "R", "n", "mean", "k2", "k3", "k4",
                  "ks_normal1", "ks_normal_half", "ks_limit", "w1_limit",
                  "be_indicator")


def _limit_reference(d, lam, multiplier):
    """(z, F) grid of the CDF of the rescaled d>=4 limit scale * Z_{d,lambda}."""
    spec = limitlaw.limit_law_spec(d, lam, multiplier=multiplier)
    scale = spec.scale_constant
    sd = scale * math.sqrt(limitlaw.limit_cumulant(spec, 2))
    z = np.linspace(-12.0 * sd, 16.0 * sd, 1201)
    F = limitlaw.cdf_via_inversion(spec, z / scale)
    return z, F


def regime_report(d: int, lam: float, R_list, n_replicates: int, seed: int,
                  multiplier: float = 1.0):
    """Simulate each R and report distances of the normalized functional.

    Normalization uses the analytic mean and variance.  For d >= 4 and
    lambda < 1 the report additionally compares the e^{-(d-2)R}-rescaled
    fluctuation against the inversion CDF of its infinitely divisible limit.
    """
    limit_ref = None
    if d >= 4 and lam < 1.0:
        limit_ref = _limit_reference(d, lam, multiplier)
    rows = []
    for idx, R in enumerate(R_list):
        config = ModelConfig(d=d, lam=lam, R=float(R),
                             intensity_multiplier=multiplier)
        S, _, _ = functionals.simulate_surface(config, n_replicates,
                                               seed=seed + idx)
        mean_a = functionals.expected_surface_area(config)
        var_a = functionals.variance(config)
        z = (S - mean_a) / math.sqrt(var_a)
        mean, k2, k3, k4 = k_statistics(z)
        row = {
            "d": d, "lambda": lam, "R": float(R), "n": n_replicates,
            "mean": mean, "k2": k2, "k3": k3, "k4": k4,
            "ks_normal1": ks_distance(z, lambda x: normal_cdf(x, 1.0)),
            "ks_normal_half": ks_distance(z, lambda x: normal_cdf(x, 0.5)),
            "ks_limit": float("nan"),
            "w1_limit": float("nan"),
            "be_indicator": functionals.berry_esseen_indicator(config),
        }
        if limit_ref is not None:
            zg, Fg = limit_ref
            y = (S - mean_a) / math.exp((d - 2) * R)
            ref_cdf = lambda x: np.interp(x, zg, Fg, left=0.0, right=1.0)
            row["ks_limit"] = ks_distance(y, ref_cdf)
            quant = lambda p: np.interp(p, Fg, zg)
            row["w1_limit"] = wasserstein1(y, quant)
        rows.append(row)
    return rows

