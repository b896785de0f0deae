"""Closed-form hyperbolic geometry for lambda-geodesic hyperplanes.

Everything here is a pure function of its inputs.  Quantities that grow like
e^{cR} are evaluated in log space so that radii up to several hundred remain
representable; the plain-value entry points exponentiate the log-space result
with :func:`exp_or_inf`, which gives inf when the value exceeds double range.

Every section formula is built from one quantity, log x with
x = cosh rho - 1 = mu (cosh R - cosh s) / cosh(s - delta), and
cosh R - cosh s is taken as the product 2 sinh((R+|s|)/2) sinh((R-|s|)/2),
which has no cancellation as |s| -> R.  The log-space functions take a float
or an array: each branch runs on the whole array from an input clamped to its
own range and np.where picks, so a discarded branch neither warns nor leaks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedDimensionError

LOG2 = math.log(2.0)

# int_0^rho sinh^n for even n: below a cut-off in x = cosh rho - 1 a binomial
# series (cut at relative SERIES_TOL), above it the reduction formula.  The
# linear kernels cut over at SERIES_CUTOFF; the log-space path at
# LOG_PATH_CUTOFF, from where the upward reduction is stable (sinh^2 rho =
# x (x + 2) >= 1).
SERIES_CUTOFF = 0.25
LOG_PATH_CUTOFF = math.sqrt(2.0) - 1.0
LOG_SERIES_CUTOFF = math.log(LOG_PATH_CUTOFF)
SERIES_TOL = 1e-16


# ---------------------------------------------------------------------------
# log-space elementary helpers
# ---------------------------------------------------------------------------

def logcosh(x):
    """log(cosh x) for a float or an array, valid for any |x| (no overflow)."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - LOG2


def logsinh(x):
    """log(sinh x) for a float or an array of x > 0."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise DomainError("logsinh requires x > 0")
    # expm1 avoids the 1 - e^{-2x} cancellation; below 1e-8, sinh x = x
    big = np.maximum(x, 1e-8)
    return np.where(x < 1e-8, np.log(x), big + np.log(-np.expm1(-2.0 * big)) - LOG2)[()]


def exp_or_inf(log_value: float) -> float:
    """exp(log_value); inf instead of OverflowError beyond double range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def arcosh1p_from_log(log_x):
    """arcosh(1 + x) given log x, for a float or an array (0 at log x = -inf)."""
    # above log x = 40, arcosh(1 + x) = log(2x) + O(1/x), and 1/x < 5e-18
    x = np.exp(np.minimum(log_x, 40.0))
    return np.where(log_x > 40.0, log_x + LOG2, np.log1p(x + np.sqrt(x * (x + 2.0))))[()]


def _log_sinh_half(x):
    """log(sinh(x/2)) for a float or an array of x > 0, also where x/2 underflows.

    Below x = 1e-300 the half of a subnormal x may round to 0; there
    sinh(x/2) = x/2 and the result is log x - log 2.
    """
    x = np.asarray(x, dtype=np.float64)
    tiny = x < 1e-300
    return np.where(tiny, np.log(np.where(tiny, x, 1.0)) - LOG2,
                    logsinh(0.5 * np.maximum(x, 1e-300)))[()]


def _log_cosh_gap(A: float, s):
    """log(cosh A - cosh s) = log 2 + logsinh((A+|s|)/2) + logsinh((A-|s|)/2).

    The product has no cancellation as |s| -> A; -inf when |s| >= A, any A.
    """
    a = np.abs(s)
    inside = a < A
    hi = np.where(inside, A + a, 1.0)
    lo = np.where(inside, A - a, 1.0)
    return np.where(inside, LOG2 + _log_sinh_half(hi) + _log_sinh_half(lo), -np.inf)[()]


# ---------------------------------------------------------------------------
# dimension constants
# ---------------------------------------------------------------------------

def ball_kappa(d: int) -> float:
    """Volume kappa_d = pi^{d/2}/Gamma(d/2+1) of the Euclidean unit ball in R^d."""
    if d < 1:
        raise DomainError("dimension must be >= 1")
    # in log space: Gamma(d/2 + 1) alone overflows from d = 343
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


def sphere_area(d: int) -> float:
    """Surface measure omega_d = d kappa_d of S^{d-1}, e.g. omega_2 = 2 pi, omega_3 = 4 pi."""
    return d * ball_kappa(d)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaGeometry:
    """Derived constants of the curvature parameter lambda in [0, 1].

    mu = sqrt(1 - lambda^2) is the sine of the boundary intersection angle and
    delta = artanh(lambda) the distance of the equidistant to its base
    geodesic; delta is ``math.inf`` exactly at lambda = 1 (horospheres), where
    consumers take the horosphere branch instead.
    """

    lam: float
    mu: float
    delta: float

    @property
    def is_horospheric(self) -> bool:
        return self.lam == 1.0


def lambda_geometry(lam: float) -> LambdaGeometry:
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    mu = math.sqrt((1.0 - lam) * (1.0 + lam))
    delta = math.inf if lam == 1.0 else math.atanh(lam)
    return LambdaGeometry(lam=lam, mu=mu, delta=delta)


def scale_constant(d: int, geom: LambdaGeometry) -> float:
    """c_{d,lambda} = omega_{d-1} / ((d-2) 2^{d-2} mu), d >= 3, lambda < 1.

    At large R the section volume tends to c e^{(d-2)R} cosh^{-(d-2)}(s - delta),
    so c scales the profile, its bound and the d >= 4 limit law.
    """
    if d < 3:
        raise UnsupportedDimensionError("the scale constant requires d >= 3")
    if geom.is_horospheric:
        raise UnsupportedDimensionError("the scale constant requires lambda < 1")
    # ldexp scales by 2^{2-d} exactly, where 2.0 ** (d - 2) overflows from d = 1026
    return math.ldexp(sphere_area(d - 1) / ((d - 2) * geom.mu), 2 - d)


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
        if not (isinstance(self.d, numbers.Integral) and self.d >= 2):
            raise DomainError(f"d must be an integer >= 2, got {self.d!r}")
        if not 0.0 < self.R < math.inf:
            raise DomainError(f"R must lie in (0, inf), got {self.R}")
        if not 0.0 < self.intensity_multiplier < math.inf:
            raise DomainError("intensity_multiplier must lie in (0, inf), "
                              f"got {self.intensity_multiplier}")
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
            + log_sinh_power_integral(d - 1, LOG2 + 2.0 * _log_sinh_half(R)))


def ball_volume(d: int, R: float) -> float:
    """Hyperbolic volume of B_R^d."""
    return exp_or_inf(log_ball_volume(d, R))


# ---------------------------------------------------------------------------
# section radius rho(s; R) and bounds
# ---------------------------------------------------------------------------

def _log_section_x(geom: LambdaGeometry, s, R: float):
    """log x, x = cosh rho - 1 = mu (cosh R - cosh s) / cosh(s - delta), lambda < 1.

    For a float or an array s; -inf (rho = 0) when |s| >= R.
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
    return 0.5 * math.log((1.0 + w) / (1.0 - w)) if w < 1.0 else math.acosh(q)


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
def even_series_coefficients(m: int, cutoff: float = SERIES_CUTOFF) -> tuple:
    """c_k with int_0^rho sinh^{2m} = x^{m+1/2} sum_k c_k x^k, x = cosh rho - 1.

    The binomial series of (t (t + 2))^{m-1/2} in t/2, integrated; it is cut
    once a term is below SERIES_TOL of the first at x = cutoff, where its
    ratio is at most cutoff/2, so the dropped tail is below SERIES_TOL/7 at
    SERIES_CUTOFF and below SERIES_TOL/3 at LOG_PATH_CUTOFF.
    """
    a = m - 0.5
    coeffs, binom, k = [], 1.0, 0
    while True:
        coeffs.append(2.0 ** (a - k) * binom / (a + k + 1.0))
        if k > m and abs(coeffs[-1]) * cutoff ** k < SERIES_TOL * coeffs[0]:
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


def log_sinh_power_integral(n: int, log_x):
    """log of J_n = int_0^rho sinh^n(u) du given log x, x = cosh rho - 1.

    Exact for every n >= 0, through J_n = int_0^x (t (t + 2))^{(n-1)/2} dt, for
    a float or an array log x; log x = -inf (rho = 0) gives -inf.  The radius
    itself is rho = :func:`arcosh1p_from_log` (log x).

    * n = 0: J_0 = rho, and log rho = (log 2 + log x) / 2 below
      log x = -40, where exp(log x) would underflow.
    * odd n = 2m + 1: the polynomial of :func:`odd_power_coefficients`, whose
      terms are all positive; summed in powers of 1/x when x > 1.
    * even n >= 2, x < LOG_PATH_CUTOFF = sqrt(2) - 1: the series of
      :func:`even_series_coefficients` (truncation below SERIES_TOL/3).
    * even n >= 2, x >= LOG_PATH_CUTOFF: the reduction
      J_k = sinh^{k-1} cosh / k - (k-1)/k J_{k-2}, run on
      r_k = J_k / (sinh^{k-1} rho cosh rho), i.e.
      r_k = 1/k - (k-1)/k r_{k-2} / sinh^2 rho from r_0 = rho tanh rho.
      Each step scales the error it is given by (k-1) / (k sinh^2 rho) < 1,
      as sinh^2 rho = x (x + 2) >= 1 there; below the cut-over that factor
      exceeds 1 and the error would grow with n.  r_k tends to 1/k, so there
      is no large-rho cut-over and nothing overflows at any n or rho; the
      asymptote
      log J_n = (n-1) logsinh rho + logcosh rho - log n is what the
      reduction gives once 1/sinh^2 rho < 1e-17 (rho > 21).

    Rounding is the only other error.  J_n grows like x^{(n+1)/2} for small x
    and like x^n for large x, so an error e in log x becomes at most
    max(n, 1) e in log J_n.  Against 50-digit mpmath at 400 radii in
    [1e-8, 700] and on both sides of the cut-off, with
    log x = log 2 + 2 logsinh(rho/2), log J_n is off by at most 1.4e-15
    (n <= 4) and 2.9e-14 (n <= 10) beyond two ulps of itself; for x in
    [0.25, 0.6] and n in {2, 4, 20, 28, 38, 58} by at most 2.7e-14 relative.
    """
    log_x = np.asarray(log_x, dtype=np.float64)
    if n == 0:
        # rho = sqrt(2x) (1 - x/12 + O(x^2)): below log x = -40 the dropped -x/12
        # in log rho is under 4e-19, and exp(log x) underflows below -745
        with np.errstate(divide="ignore"):    # log 0 = -inf at rho = 0
            return np.where(log_x < -40.0, 0.5 * (LOG2 + log_x),
                            np.log(arcosh1p_from_log(log_x)))[()]
    m, odd = divmod(n, 2)
    if odd:
        coeffs = odd_power_coefficients(m)
        small, big = np.minimum(log_x, 0.0), np.maximum(log_x, 0.0)
        return np.where(log_x <= 0.0,
                        (m + 1) * small + np.log(horner(coeffs, np.exp(small))),
                        n * big + np.log(horner(coeffs[::-1], np.exp(-big))))[()]
    series = ((m + 0.5) * log_x + np.log(horner(
        even_series_coefficients(m, LOG_PATH_CUTOFF),
        np.exp(np.minimum(log_x, LOG_SERIES_CUTOFF)))))
    rho_val = arcosh1p_from_log(np.maximum(log_x, LOG_SERIES_CUTOFF))
    log_sh = logsinh(rho_val)
    inv_sh2 = np.exp(-2.0 * log_sh)
    r = rho_val * np.tanh(rho_val)
    for k in range(2, n + 1, 2):
        r = 1.0 / k - (k - 1.0) / k * r * inv_sh2
    reduction = (n - 1) * log_sh + logcosh(rho_val) + np.log(r)
    return np.where(log_x < LOG_SERIES_CUTOFF, series, reduction)[()]


def log_intersection_volume(config: ModelConfig, s):
    """log of the (d-1)-volume of H(s) cap B_R^d (-inf when empty), s float or array."""
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


def intersection_volume_bound(config: ModelConfig, s: float) -> float:
    """The uniform upper bound on the section volume (d >= 3)."""
    geom = config.geometry
    return exp_or_inf(math.log(scale_constant(config.d, geom)) + (config.d - 2) * (
        LOG2 - math.log(geom.mu) + logcosh(config.R + geom.delta) - logcosh(s - geom.delta)))

