"""The total surface functional, its exact moments and their asymptotics.

The moment integrals I_k(R) integrate the k-th power of the section volume
against the invariant measure; I_1 is the Crofton mean and I_2 the variance
of the total surface area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from . import kernels
from .errors import DomainError, QuadratureError
from .hyperbolic import (
    ModelConfig,
    ball_kappa,
    ball_volume,
    log_intersection_volume,
    logcosh,
    sphere_area,
)
from .sampling import inverse_cdf, make_rng, mean_count, poisson_block_sums

MAX_CUMULANT_ORDER = 8
REPLICATES_PER_STREAM = 256


@dataclass(frozen=True)
class SurfaceResult:
    """Total section volume of one realization, split by the sign of s."""

    positive_part: float
    negative_part: float

    @property
    def value(self) -> float:
        return self.positive_part + self.negative_part


def _batch_volumes(config: ModelConfig, s: np.ndarray) -> np.ndarray:
    geom = config.geometry
    return kernels.section_volumes(s, config.R, config.d, geom.lam, geom.mu,
                                   geom.delta, ball_kappa(config.d - 1))


def total_surface_area(sample) -> SurfaceResult:
    """Sum of section volumes of one ProcessSample, sign-split.

    Uses compensated summation; s = 0 counts towards the positive part.
    """
    s = np.asarray(sample.s, dtype=np.float64)
    if s.size == 0:
        return SurfaceResult(0.0, 0.0)
    vols = _batch_volumes(sample.config, s)
    pos = math.fsum(vols[s >= 0.0])
    neg = math.fsum(vols[s < 0.0])
    return SurfaceResult(positive_part=pos, negative_part=neg)


def expected_surface_area(config: ModelConfig) -> float:
    """Crofton mean: multiplier times the ball volume, independent of lambda."""
    return config.intensity_multiplier * ball_volume(config.d, config.R)


# ---------------------------------------------------------------------------
# moment integrals I_k(R)
# ---------------------------------------------------------------------------

def _cumulant_quadrature(config: ModelConfig, k: int, epsrel=1e-9) -> float:
    """Log-space adaptive quadrature of vol(s)^k against the intensity."""
    d, R = config.d, config.R
    geom = config.geometry
    mult = config.intensity_multiplier

    if geom.is_horospheric:
        def log_f(s):
            lv = log_intersection_volume(config, s)
            return -math.inf if lv == -math.inf else k * lv - (d - 1) * s
    else:
        mu, delta = geom.mu, geom.delta
        log_mu = math.log(mu)

        def log_f(s):
            lv = log_intersection_volume(config, s)
            if lv == -math.inf:
                return -math.inf
            return k * lv + (d - 1) * (log_mu + logcosh(s - delta))

    # running-max shift over a scan grid; the integrand spans many e-folds
    grid = np.linspace(-R, R, 2001)
    log_vals = np.array([log_f(s) for s in grid])
    shift = float(np.max(log_vals))
    if shift == -math.inf:
        return 0.0

    def integrand(s):
        lf = log_f(s)
        return 0.0 if lf == -math.inf else math.exp(lf - shift)

    split = 0.0 if geom.is_horospheric else geom.delta
    points = sorted({-R, min(max(split, -R), R), float(grid[np.argmax(log_vals)]), R})
    total = 0.0
    err = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if a == b:
            continue
        val, e = quad(integrand, a, b, limit=400, epsrel=epsrel, epsabs=0.0)
        total += val
        err += e
    if total <= 0.0 or err > 1e-6 * total:
        raise QuadratureError(
            f"moment quadrature did not converge (rel err {err / max(total, 1e-300):.2e})",
            achieved=err / max(total, 1e-300))
    return mult * math.exp(shift) * total


def cumulant_integral(config: ModelConfig, k: int) -> float:
    """k-th moment integral of section volumes (the k-th cumulant of S_R)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if k > MAX_CUMULANT_ORDER:
        raise DomainError(f"k capped at {MAX_CUMULANT_ORDER}")
    if k == 1:
        return expected_surface_area(config)
    d, R = config.d, config.R
    if k == 2 and d == 3 and not config.geometry.is_horospheric:
        # closed form, lambda-free
        closed = (2.0 * math.pi) ** 2 * (
            2.0 * R * math.cosh(R) ** 2 - 3.0 * math.sinh(R) * math.cosh(R) + R)
        return config.intensity_multiplier * closed
    return _cumulant_quadrature(config, k)


def variance(config: ModelConfig) -> float:
    return cumulant_integral(config, 2)


def variance_order(config: ModelConfig) -> float:
    """Growth-order expression of the variance for the (d, lambda) regime."""
    d, R = config.d, config.R
    if config.geometry.is_horospheric:
        return R * math.exp((d - 1) * R)
    if d == 2:
        return math.exp(R)
    if d == 3:
        return R * math.exp(2.0 * R)
    return math.exp(2.0 * (d - 2) * R)


def cosh_power_integral(h: float) -> float:
    """int_{-inf}^{inf} cosh(y)^{-h} dy = B(h/2, 1/2) = sqrt(pi) Gamma(h/2)/Gamma((h+1)/2)."""
    if h <= 0.0:
        raise DomainError("divergent integral: exponent must be positive")
    return math.sqrt(math.pi) * math.exp(gammaln(h / 2.0) - gammaln((h + 1.0) / 2.0))


def normalized_cumulant_limit(d: int, lam: float, k: int,
                              multiplier: float = 1.0) -> float:
    """Limit of I_k(R) e^{-k(d-2)R} for d >= 4, lambda < 1."""
    if d < 4:
        raise DomainError("the normalized cumulant limit requires d >= 4")
    if lam >= 1.0:
        raise DomainError("requires lambda < 1")
    if k < 2:
        raise DomainError("requires k >= 2")
    h = k * (d - 2) - (d - 1)
    mu = math.sqrt(1.0 - lam * lam)
    c = sphere_area(d - 1) / ((d - 2) * 2.0 ** (d - 2))
    return multiplier * c ** k * mu ** (d - 1 - k) * cosh_power_integral(h)


def normalized_profile(config: ModelConfig, s: float) -> float:
    """Section volume rescaled by e^{-(d-2)R} (d >= 3, lambda < 1)."""
    if config.d < 3:
        raise DomainError("profile requires d >= 3")
    if config.geometry.is_horospheric:
        raise DomainError("profile requires lambda < 1")
    lv = log_intersection_volume(config, s)
    if lv == -math.inf:
        return 0.0
    return math.exp(lv - (config.d - 2) * config.R)


def limit_profile(d: int, lam: float, s: float) -> float:
    """Pointwise large-R limit of the normalized profile."""
    if d < 3 or lam >= 1.0:
        raise DomainError("limit profile requires d >= 3 and lambda < 1")
    mu = math.sqrt(1.0 - lam * lam)
    delta = math.atanh(lam)
    c = sphere_area(d - 1) / ((d - 2) * 2.0 ** (d - 2))
    return c / mu * math.exp(-(d - 2) * logcosh(s - delta))


def berry_esseen_indicator(config: ModelConfig) -> float:
    """sqrt(I_4)/I_2, the Berry-Esseen bound without its unknown constant."""
    return math.sqrt(cumulant_integral(config, 4)) / cumulant_integral(config, 2)


# ---------------------------------------------------------------------------
# vectorized Monte Carlo over replicates
# ---------------------------------------------------------------------------

def simulate_surface(config: ModelConfig, n_replicates: int, seed: int):
    """Simulate n_replicates values of the surface functional.

    Returns (S, S_plus, S_minus) float arrays; a value depends only on
    (config, seed, replicate).  Block b of REPLICATES_PER_STREAM replicates
    draws its Poisson counts, then its uniforms in replicate order, from the
    stream (seed, b).  About max(POINT_BUDGET, one replicate) points are held.
    """
    def sums_of(p, offsets):
        s = inverse_cdf(config, p)
        return np.stack(kernels.signed_sums(_batch_volumes(config, s), s, offsets))

    sums = np.empty((2, n_replicates))
    for start, _, block_sums in poisson_block_sums(
            mean_count(config), n_replicates, lambda b: make_rng(seed, b),
            REPLICATES_PER_STREAM, sums_of):
        sums[:, start:start + block_sums.shape[1]] = block_sums
    pos, neg = sums
    return pos + neg, pos, neg


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) or hasattr(x, "dtype") else str(x)


def write_cumulant_csv(path, rows) -> None:
    """rows of (d, lambda, R, k, I_value); floats as round-trip decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d,lambda,R,k,I_value\n")
        for d, lam, R, k, val in rows:
            fh.write(f"{d},{_fmt(lam)},{_fmt(R)},{k},{_fmt(val)}\n")


def write_surface_csv(path, S, S_plus, S_minus) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate,S,S_plus,S_minus\n")
        for i, (a, b, c) in enumerate(zip(S, S_plus, S_minus)):
            fh.write(f"{i},{_fmt(a)},{_fmt(b)},{_fmt(c)}\n")
