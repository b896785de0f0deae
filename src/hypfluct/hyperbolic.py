"""Closed-form hyperbolic geometry for lambda-geodesic hyperplanes.

Everything here is a pure function of its inputs.  Quantities that grow like
e^{cR} are evaluated in log space so that radii up to several hundred remain
representable; the plain-value entry points exponentiate the log-space result
with :func:`exp_or_inf`, which gives inf when the value exceeds double range.

Every section formula is built from one quantity, log x with
x = cosh rho - 1 = mu (cosh R - cosh s) / cosh(s - delta), and
cosh R - cosh s is taken as the product 2 sinh((R+|s|)/2) sinh((R-|s|)/2),
which has no cancellation as |s| -> R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from scipy.special import gammaln

from .errors import DomainError, UnsupportedDimensionError

LOG2 = math.log(2.0)

# int_0^rho sinh^n for even n: below x = cosh rho - 1 = SERIES_CUTOFF a
# binomial series (cut at relative SERIES_TOL), above it the reduction formula.
SERIES_CUTOFF = 0.25
LOG_SERIES_CUTOFF = math.log(SERIES_CUTOFF)
SERIES_TOL = 1e-16


# ---------------------------------------------------------------------------
# log-space elementary helpers
# ---------------------------------------------------------------------------

def logcosh(x: float) -> float:
    """log(cosh x), valid for any |x| (no overflow)."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - LOG2


def logsinh(x: float) -> float:
    """log(sinh x) for x > 0."""
    if x <= 0.0:
        raise DomainError("logsinh requires x > 0")
    if x < 1e-8:
        return math.log(x)
    # expm1 avoids the 1 - e^{-2x} cancellation for small x
    return x + math.log(-math.expm1(-2.0 * x)) - LOG2


def exp_or_inf(log_value: float) -> float:
    """exp(log_value); inf instead of OverflowError beyond double range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def arcosh(t: float) -> float:
    """Inverse hyperbolic cosine via the logarithmic representation."""
    if t < 1.0:
        raise DomainError(f"arcosh argument {t} < 1")
    if t < 1e150:
        return math.log(t + math.sqrt(t * t - 1.0))
    # sqrt(t^2-1) ~ t for huge t
    return math.log(t) + LOG2


def arcosh1p_from_log(log_x: float) -> float:
    """arcosh(1 + x) given log x, for any x >= 0 (0 at log x = -inf)."""
    if log_x > 40.0:
        # arcosh(1 + x) = log(2x) + O(1/x), and 1/x < 5e-18
        return log_x + LOG2
    x = math.exp(log_x)
    return math.log1p(x + math.sqrt(x * (x + 2.0)))


def _log_cosh_gap(A: float, s: float) -> float:
    """log(cosh A - cosh s) = log 2 + logsinh((A+|s|)/2) + logsinh((A-|s|)/2).

    The product has no cancellation as |s| -> A; -inf when |s| >= A.
    """
    a = abs(s)
    if a >= A:
        return -math.inf
    return LOG2 + logsinh(0.5 * (A + a)) + logsinh(0.5 * (A - a))


# ---------------------------------------------------------------------------
# dimension constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionConstants:
    """Euclidean unit-ball volume and surface area in a given dimension."""

    d: int
    kappa: float
    omega: float


def unit_ball_constants(d: int) -> DimensionConstants:
    """kappa_d = pi^{d/2}/Gamma(d/2+1) and omega_d = d*kappa_d.

    omega_d equals the surface measure of the unit sphere S^{d-1} in R^d,
    e.g. omega_2 = 2*pi, omega_3 = 4*pi.
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    kappa = math.pi ** (d / 2.0) / math.exp(gammaln(d / 2.0 + 1.0))
    return DimensionConstants(d=d, kappa=kappa, omega=d * kappa)


def sphere_area(d: int) -> float:
    """Surface measure of S^{d-1}, i.e. omega_d."""
    return unit_ball_constants(d).omega


def ball_kappa(d: int) -> float:
    return unit_ball_constants(d).kappa


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaGeometry:
    """Derived constants of the curvature parameter lambda in [0, 1].

    theta is the boundary intersection angle (cos theta = lambda), mu its
    sine, m its tangent and delta the distance of the equidistant to its base
    geodesic.  m and delta are ``math.inf`` exactly in the degenerate cases
    lambda = 0 and lambda = 1 respectively; consumers must special-case the
    sentinels rather than feed them into further arithmetic.
    """

    lam: float
    theta: float
    mu: float
    m: float
    delta: float

    @property
    def is_horospheric(self) -> bool:
        return self.lam == 1.0


def lambda_geometry(lam: float) -> LambdaGeometry:
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    theta = math.acos(lam)
    mu = math.sqrt((1.0 - lam) * (1.0 + lam))
    m = math.inf if lam == 0.0 else mu / lam
    delta = math.inf if lam == 1.0 else math.atanh(lam)
    return LambdaGeometry(lam=lam, theta=theta, mu=mu, m=m, delta=delta)


@dataclass(frozen=True)
class ModelConfig:
    """A single (d, lambda, R) model with its intensity convention.

    intensity_multiplier = 1 is the oriented Lambda_lambda convention; 0.5 at
    lambda = 0 reproduces the unoriented half-line process.
    """

    d: int
    lam: float
    R: float
    intensity_multiplier: float = 1.0
    geometry: LambdaGeometry = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"d must be >= 2, got {self.d}")
        if self.R <= 0.0:
            raise DomainError(f"R must be > 0, got {self.R}")
        if self.intensity_multiplier <= 0.0:
            raise DomainError("intensity_multiplier must be > 0")
        object.__setattr__(self, "geometry", lambda_geometry(self.lam))


# ---------------------------------------------------------------------------
# ball volume
# ---------------------------------------------------------------------------

def log_ball_volume(d: int, R: float) -> float:
    """log of the hyperbolic ball volume omega_d * int_0^R sinh^{d-1}."""
    if d < 2:
        raise DomainError("d must be >= 2")
    if R < 0.0:
        raise DomainError("R must be >= 0")
    if R == 0.0:
        return -math.inf
    return (math.log(sphere_area(d))
            + log_sinh_power_integral(d - 1, LOG2 + 2.0 * logsinh(0.5 * R)))


def ball_volume(d: int, R: float) -> float:
    """Hyperbolic volume of B_R^d."""
    return exp_or_inf(log_ball_volume(d, R))


# ---------------------------------------------------------------------------
# section radius rho(s; R) and bounds
# ---------------------------------------------------------------------------

def _log_section_x(geom: LambdaGeometry, s: float, R: float) -> float:
    """log x, x = cosh rho - 1 = mu (cosh R - cosh s) / cosh(s - delta), lambda < 1.

    -inf (rho = 0) when |s| >= R.
    """
    return math.log(geom.mu) + _log_cosh_gap(R, s) - logcosh(s - geom.delta)


def rho(geom: LambdaGeometry, s: float, R: float) -> float:
    """Intrinsic radius of the section H(s) cap B_R^d, lambda < 1.

    Returns nan (empty section) when |s| > R and exactly 0 at |s| = R.
    """
    if geom.is_horospheric:
        raise UnsupportedDimensionError(
            "rho is undefined for lambda = 1; horosphere sections are "
            "Euclidean balls, use intersection_volume"
        )
    if abs(s) > R:
        return math.nan
    return arcosh1p_from_log(_log_section_x(geom, s, R))


def rho_ugly(geom: LambdaGeometry, s: float, R: float) -> float:
    """The unsimplified two-square-root form of the section radius.

    Only meaningful at moderate R (direct cosh/sinh evaluation); used as an
    independent cross-check of :func:`rho`.
    """
    if geom.is_horospheric:
        raise UnsupportedDimensionError("rho_ugly requires lambda < 1")
    if abs(s) > R:
        return math.nan
    u = s - geom.delta
    q = (geom.mu * math.cosh(R) - geom.lam * math.sinh(u)) / math.cosh(u)
    if q < 1.0:
        return 0.0
    w = math.sqrt(1.0 - q ** -2)
    return 0.5 * math.log((1.0 + w) / (1.0 - w)) if w < 1.0 else arcosh(q)


def rho_bounds(geom: LambdaGeometry, s: float, R: float):
    """Bounding chain (arcosh_lo, arcosh_hi, linear_lo, linear_hi) for rho."""
    if geom.is_horospheric:
        raise UnsupportedDimensionError("rho_bounds requires lambda < 1")
    if abs(s) > R:
        return math.nan, math.nan, math.nan, math.nan
    delta = geom.delta
    u = s - delta

    def bound(Rshift):
        # arcosh(cosh Rshift / cosh u), 0 when |u| >= Rshift
        return arcosh1p_from_log(_log_cosh_gap(Rshift, u) - logcosh(u))

    arcosh_lo = bound(R - delta)
    arcosh_hi = bound(R + delta)
    linear_lo = R - delta - abs(u)
    linear_hi = R + delta - abs(u) + LOG2
    return arcosh_lo, arcosh_hi, linear_lo, linear_hi


# ---------------------------------------------------------------------------
# section volumes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def odd_power_coefficients(m: int) -> tuple:
    """c_j with int_0^rho sinh^{2m+1} = sum_j c_j x^{m+1+j}, x = cosh rho - 1.

    The binomial expansion of (t (t + 2))^m, integrated; every c_j > 0.
    """
    return tuple(math.comb(m, j) * 2.0 ** (m - j) / (m + j + 1) for j in range(m + 1))


@lru_cache(maxsize=None)
def even_series_coefficients(m: int) -> tuple:
    """c_k with int_0^rho sinh^{2m} = x^{m+1/2} sum_k c_k x^k, x = cosh rho - 1.

    The binomial series of (t (t + 2))^{m-1/2} in t/2, integrated; it is cut
    once a term is below SERIES_TOL of the first at x = SERIES_CUTOFF, where
    its ratio is at most 1/8, so the dropped tail is below SERIES_TOL/7.
    """
    a = m - 0.5
    coeffs, binom, k = [], 1.0, 0
    while True:
        coeffs.append(2.0 ** (a - k) * binom / (a + k + 1.0))
        if k > m and abs(coeffs[-1]) * SERIES_CUTOFF ** k < SERIES_TOL * coeffs[0]:
            return tuple(coeffs)
        binom *= (a - k) / (k + 1.0)
        k += 1


def horner(coeffs, x):
    """sum_k coeffs[k] x^k for a float or an array x."""
    acc = coeffs[-1] + 0.0 * x
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def log_sinh_power_integral(n: int, log_x: float) -> float:
    """log of J_n = int_0^rho sinh^n(u) du given log x, x = cosh rho - 1.

    Exact for every n >= 0, through J_n = int_0^x (t (t + 2))^{(n-1)/2} dt;
    log x = -inf (rho = 0) gives -inf.  The radius itself is
    rho = :func:`arcosh1p_from_log` (log x).

    * n = 0: J_0 = rho.
    * odd n = 2m + 1: the polynomial of :func:`odd_power_coefficients`, whose
      terms are all positive; summed in powers of 1/x when x > 1.
    * even n >= 2, x < SERIES_CUTOFF: the series of
      :func:`even_series_coefficients` (truncation below SERIES_TOL/7).
    * even n >= 2, x >= SERIES_CUTOFF: the reduction
      J_k = sinh^{k-1} cosh / k - (k-1)/k J_{k-2}, run on
      r_k = J_k / (sinh^{k-1} rho cosh rho), i.e.
      r_k = 1/k - (k-1)/k r_{k-2} / sinh^2 rho from r_0 = rho tanh rho.
      r_k tends to 1/k, so there is no large-rho cut-over and nothing
      overflows at any n or rho; the asymptote
      log J_n = (n-1) logsinh rho + logcosh rho - log n is what the
      reduction gives once 1/sinh^2 rho < 1e-17 (rho > 21).

    Rounding is the only other error.  J_n grows like x^{(n+1)/2} for small x
    and like x^n for large x, so an error e in log x becomes at most
    max(n, 1) e in log J_n; the even-n reduction just above the cut-off adds
    an error that grows by about 2 per step of 2 in n.  Against 50-digit
    mpmath at 400 radii in [1e-8, 700] and on both sides of the cut-off, with
    log x = log 2 + 2 logsinh(rho/2), log J_n is off by at most 1.4e-15
    (n <= 4) and 2.9e-14 (n <= 10) beyond two ulps of itself.
    """
    if log_x == -math.inf:
        return -math.inf
    if n == 0:
        return math.log(arcosh1p_from_log(log_x))
    m, odd = divmod(n, 2)
    if odd:
        coeffs = odd_power_coefficients(m)
        if log_x <= 0.0:
            return (m + 1) * log_x + math.log(horner(coeffs, math.exp(log_x)))
        return n * log_x + math.log(horner(coeffs[::-1], math.exp(-log_x)))
    if log_x < LOG_SERIES_CUTOFF:
        return ((m + 0.5) * log_x
                + math.log(horner(even_series_coefficients(m), math.exp(log_x))))
    rho_val = arcosh1p_from_log(log_x)
    log_sh = logsinh(rho_val)
    inv_sh2 = math.exp(-2.0 * log_sh)
    r = rho_val * math.tanh(rho_val)
    for k in range(2, n + 1, 2):
        r = 1.0 / k - (k - 1.0) / k * r * inv_sh2
    return (n - 1) * log_sh + logcosh(rho_val) + math.log(r)


def log_intersection_volume(config: ModelConfig, s: float) -> float:
    """log of the (d-1)-volume of H(s) cap B_R^d (-inf when empty)."""
    d, R = config.d, config.R
    geom = config.geometry
    if geom.is_horospheric:
        # kappa_{d-1} [2 e^s (cosh R - cosh s)]^{(d-1)/2}
        return (math.log(ball_kappa(d - 1))
                + 0.5 * (d - 1) * (LOG2 + s + _log_cosh_gap(R, s)))
    log_prefactor = math.log(sphere_area(d - 1)) - (d - 1) * math.log(geom.mu)
    return log_prefactor + log_sinh_power_integral(d - 2, _log_section_x(geom, s, R))


def intersection_volume(config: ModelConfig, s: float) -> float:
    """(d-1)-volume of the section of B_R^d by H(s); 0 when |s| > R."""
    return exp_or_inf(log_intersection_volume(config, s))


def log_intersection_volume_bound(config: ModelConfig, s: float) -> float:
    """log of the uniform upper bound on the section volume (d >= 3)."""
    d = config.d
    geom = config.geometry
    if d <= 2:
        raise UnsupportedDimensionError("the volume bound requires d >= 3")
    if geom.is_horospheric:
        raise UnsupportedDimensionError("the volume bound requires lambda < 1")
    delta = geom.delta
    log_ratio = logcosh(config.R + delta) - logcosh(s - delta)
    return (math.log(sphere_area(d - 1)) - (d - 1) * math.log(geom.mu)
            - math.log(d - 2) + (d - 2) * log_ratio)


def intersection_volume_bound(config: ModelConfig, s: float) -> float:
    return exp_or_inf(log_intersection_volume_bound(config, s))


def log_intersection_volume_asymptote(config: ModelConfig, s: float) -> float:
    """log of the fixed-s, large-R asymptote of the section volume (d >= 3)."""
    d = config.d
    geom = config.geometry
    if d <= 2:
        raise UnsupportedDimensionError("the asymptote requires d >= 3")
    if geom.is_horospheric:
        raise UnsupportedDimensionError("the asymptote requires lambda < 1")
    return (math.log(sphere_area(d - 1)) - math.log(d - 2) - (d - 2) * LOG2
            - math.log(geom.mu) + (d - 2) * config.R
            - (d - 2) * logcosh(s - geom.delta))


def intersection_volume_asymptote(config: ModelConfig, s: float) -> float:
    return exp_or_inf(log_intersection_volume_asymptote(config, s))
