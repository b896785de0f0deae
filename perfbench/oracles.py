"""Closed forms and statistics that the benchmark checks hypfluct against.

Nothing here imports hypfluct: every expected value is computed from the
formulas of the model, so a check stays valid when the program changes how it
computes (or how it keys its random streams).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chdtri

# False-alarm rate of every statistical check whose level the benchmark sets.
# A check that fired on correct code would make the failed share of a run
# depend on its seed; at this level a few hundred runs stay clear of it.
ALPHA = 1e-6
MEAN_Z = 4.0          # mean checks: |mean - expected| <= 4 standard errors
CUMULANT_Z = 5.0      # k-statistic checks, about ALPHA for a normal pull


def cosh_power_integral(n: int, a: float, b: float) -> float:
    """int_a^b cosh^n u du from cosh^n u = 2^-n sum_k C(n,k) e^{(n-2k)u}.

    Every term is positive for b > a, so the sum has no cancellation.
    """
    terms = []
    for k in range(n + 1):
        m = n - 2 * k
        span = (b - a) if m == 0 else (math.exp(m * b) - math.exp(m * a)) / m
        terms.append(math.comb(n, k) * span)
    return math.fsum(terms) / 2.0 ** n


def sinh_power_integral(n: int, R: float) -> float:
    """int_0^R sinh^n u du by J_n = sinh^{n-1}R cosh R / n - (n-1)/n J_{n-2}."""
    if n == 0:
        return R
    if n == 1:
        return math.cosh(R) - 1.0
    return (math.sinh(R) ** (n - 1) * math.cosh(R) / n
            - (n - 1) / n * sinh_power_integral(n - 2, R))


def sphere_area(d: int) -> float:
    """omega_d = 2 pi^{d/2} / Gamma(d/2), the area of S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d: int, R: float) -> float:
    """V_d(R) = omega_d int_0^R sinh^{d-1}, the Crofton mean of S_R."""
    return sphere_area(d) * sinh_power_integral(d - 1, R)


def expected_count(d: int, lam: float, R: float, multiplier: float = 1.0) -> float:
    """Mean number of hyperplanes hitting B_R: the intensity over [-R, R]."""
    if lam == 1.0:
        return multiplier * 2.0 * math.sinh((d - 1) * R) / (d - 1)
    mu = math.sqrt(1.0 - lam * lam)
    delta = math.atanh(lam)
    return multiplier * mu ** (d - 1) * cosh_power_integral(d - 1, -R - delta, R - delta)


def closed_variance(d: int, lam: float, R: float, multiplier: float = 1.0):
    """I_2(R) where the paper gives it in closed form, else None.

    d = 2, lambda = 1: 16 (R cosh R - sinh R).
    d = 3, lambda < 1: (2 pi)^2 (2R cosh^2 R - 3 sinh R cosh R + R), free of lambda.
    """
    c, s = math.cosh(R), math.sinh(R)
    if d == 2 and lam == 1.0:
        return multiplier * 16.0 * (R * c - s)
    if d == 3 and lam < 1.0:
        return multiplier * (2.0 * math.pi) ** 2 * (2.0 * R * c * c - 3.0 * s * c + R)
    return None


def zeta_rate(d: int, lam: float) -> float:
    """Default rate 2 (1 - lambda^2)^{(d-1)/2} of the limit law's jump process."""
    return 2.0 * (1.0 - lam * lam) ** (0.5 * (d - 1))


def expected_jumps(d: int, rate: float, T0: float) -> float:
    """Mean number of exactly sampled jumps per limit draw: rate int_0^T0 cosh^{d-1}."""
    return rate * cosh_power_integral(d - 1, 0.0, T0)


def limit_cumulant(d: int, lam: float, ell: int) -> float:
    """kappa_ell = rate (sqrt(pi)/2) Gamma(h/2) / Gamma((h+1)/2), h = (d-2) ell - (d-1)."""
    h = (d - 2) * ell - (d - 1)
    return zeta_rate(d, lam) * 0.5 * math.sqrt(math.pi) * math.exp(
        math.lgamma(h / 2.0) - math.lgamma((h + 1.0) / 2.0))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def k_statistics(x: np.ndarray):
    """(mean, k2, k3): unbiased estimates of the first three cumulants."""
    n = x.size
    mean = float(x.mean())
    c = x - mean
    m2 = float(np.mean(c * c))
    m3 = float(np.mean(c * c * c))
    return mean, n / (n - 1.0) * m2, n * n / ((n - 1.0) * (n - 2.0)) * m3


def k2_standard_error(n: int, k2: float, k4: float) -> float:
    return math.sqrt(k4 / n + 2.0 * k2 * k2 / (n - 1.0))


def k3_standard_error(n: int, k2: float, k3: float, k4: float, k6: float) -> float:
    return math.sqrt(k6 / n + 9.0 * k2 * k4 / (n - 1.0) + 9.0 * k3 * k3 / (n - 1.0)
                     + 6.0 * n * k2 ** 3 / ((n - 1.0) * (n - 2.0)))


def variance_ratio_bounds(n: int, i2: float, i4: float):
    """Range of sample variance / I_2 for n draws with cumulants I_2, I_4.

    The ratio has variance I_4/(n I_2^2) + 2/(n-1); it is matched by a
    chi-square law chi2_nu / nu, whose two ALPHA/2 quantiles bound it.
    """
    nu = 2.0 / (i4 / (n * i2 * i2) + 2.0 / (n - 1.0))
    return chdtri(nu, 1.0 - 0.5 * ALPHA) / nu, chdtri(nu, 0.5 * ALPHA) / nu


def kolmogorov_critical(n: int) -> float:
    """Asymptotic Kolmogorov critical value at level ALPHA for n draws."""
    return math.sqrt(-0.5 * math.log(0.5 * ALPHA)) / math.sqrt(n)


def ks_distance(draws: np.ndarray, x: np.ndarray, F: np.ndarray) -> float:
    """sup |F_n - F| with F given on the grid x and linear in between."""
    d = np.sort(draws)
    n = d.size
    Fd = np.interp(d, x, F, left=0.0, right=1.0)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - Fd, Fd - (i - 1) / n)))
