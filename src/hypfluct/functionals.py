"""The total surface functional, its exact moments and their asymptotics.

The moment integrals I_k(R) integrate the k-th power of the section volume
against the invariant measure; I_1 is the Crofton mean and I_2 the variance
of the total surface area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, QuadratureError
from .hyperbolic import (
    ModelConfig,
    ball_volume,
    exp_or_inf,
    lambda_geometry,
    log_intersection_volume,
    logcosh,
    scale_constant,
)
from .limitlaw import limit_cumulant, limit_law_spec
from .sampling import (_poisson_mean, inverse_cdf, log_intensity_density, make_rng,
                       poisson_block_sums)

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


def total_surface_area(sample) -> SurfaceResult:
    """Sum of section volumes of one ProcessSample, sign-split.

    Uses compensated summation; s = 0 counts towards the positive part.
    """
    s = np.asarray(sample.s, dtype=np.float64)
    if s.size == 0:
        return SurfaceResult(0.0, 0.0)
    vols = kernels.section_volumes(s, sample.config)
    pos = math.fsum(vols[s >= 0.0])
    neg = math.fsum(vols[s < 0.0])
    return SurfaceResult(positive_part=pos, negative_part=neg)


def expected_surface_area(config: ModelConfig) -> float:
    """Crofton mean: multiplier times the ball volume, independent of lambda."""
    return config.intensity_multiplier * ball_volume(config.d, config.R)


# ---------------------------------------------------------------------------
# moment integrals I_k(R)
# ---------------------------------------------------------------------------

# I_k(R) is a sum over fixed nodes: composite GAUSS_ORDER-point Gauss-Legendre
# on QUADRATURE_PANELS equal panels of v in [0, 1], and on half as many panels
# for the error estimate.  _UNIT_RULES holds the nodes v and log(2 v w) of both
# rules, w their weights on [0, 1]
GAUSS_ORDER = 16
QUADRATURE_PANELS = 128
QUADRATURE_RTOL = 1e-12


def _graded_unit_rule(panels: int):
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    v = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
    # a panel of width 1/panels has the weights w / (2 panels)
    return v, np.log(v * np.tile(w / panels, panels))


_UNIT_RULES = tuple(_graded_unit_rule(p) for p in (QUADRATURE_PANELS, QUADRATURE_PANELS // 2))


def _log_graded_sum(config: ModelConfig, k: int, v, log_vw) -> float:
    """log of one graded rule for I_k on [-R, c] and [c, R]."""
    geom = config.geometry
    R = config.R
    c = 0.0 if geom.is_horospheric or geom.delta >= R else geom.delta
    terms = []
    for edge in (-R, R):
        s = edge + (c - edge) * v * v
        terms.append(k * log_intersection_volume(config, s) + log_intensity_density(config, s)
                     + math.log(abs(c - edge)) + log_vw)
    terms = np.concatenate(terms)
    top = float(np.max(terms))
    return top + math.log(math.fsum(np.exp(terms - top)))


def _cumulant_quadrature(config: ModelConfig, k: int) -> float:
    """I_k(R) = int vol(s)^k Lambda(ds) by one fixed graded Gauss-Legendre rule.

    The summand is k log vol + log Lambda + log weight, over the log-space
    path of :mod:`hypfluct.hyperbolic`.  The range splits at c = delta for
    lambda < 1 and delta < R, else at c = 0.  Each half [edge, c] maps to
    s = edge + (c - edge) v^2, weight 2 |c - edge| v dv, which grades the nodes
    towards the algebraic edge vol ~ (R - |s|)^{(d-1)/2}; v in [0, 1] takes
    composite 16-point Gauss-Legendre on 128 equal panels.  The terms are
    summed by math.fsum after a max shift.  Error budget: the same rule on 64
    panels must agree within 1e-12 relative, or QuadratureError is raised.
    The rule is within 2e-13 relative of tanh-sinh for d in {2, 3, 4, 6, 8},
    lambda in {0, .5, .9, 1}, R from 1e-3 to 100 and k in {2, 3, 4, 8}, and
    within 1.2e-13 of the closed forms for I_1 and I_2.  Nothing overflows at
    any R, and a value beyond double range comes back as inf.
    """
    log_total, log_coarse = (_log_graded_sum(config, k, v, log_vw) for v, log_vw in _UNIT_RULES)
    total = exp_or_inf(log_total)
    if 0.0 < total < math.inf:
        achieved = abs(math.expm1(log_coarse - log_total))
        if achieved > QUADRATURE_RTOL:
            raise QuadratureError(
                f"moment quadrature: {QUADRATURE_PANELS} and {QUADRATURE_PANELS // 2} "
                f"panels differ by {achieved:.2e} relative", achieved=achieved)
    return total


def cumulant_integral(config: ModelConfig, k: int) -> float:
    """k-th moment integral of section volumes (the k-th cumulant of S_R)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if k > MAX_CUMULANT_ORDER:
        raise DomainError(f"k capped at {MAX_CUMULANT_ORDER}")
    if k == 1:
        return expected_surface_area(config)
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


def normalized_cumulant_limit(d: int, lam: float, k: int,
                              multiplier: float = 1.0) -> float:
    """Limit c^k kappa_k of I_k(R) e^{-k(d-2)R} (d >= 4, lambda < 1).

    kappa_k is the k-th cumulant of the limit law of the same (d, lambda, m).
    """
    if k < 2:
        raise DomainError("requires k >= 2")
    spec = limit_law_spec(d, lam, multiplier)
    return spec.scale_constant ** k * limit_cumulant(spec, k)


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
    """Pointwise large-R limit c cosh^{-(d-2)}(s - delta) of the normalized profile."""
    geom = lambda_geometry(lam)
    return scale_constant(d, geom) * math.exp(-(d - 2) * logcosh(s - geom.delta))


def berry_esseen_indicator(config: ModelConfig) -> float:
    """sqrt(I_4)/I_2, the Berry-Esseen bound without its unknown constant."""
    return math.sqrt(cumulant_integral(config, 4)) / cumulant_integral(config, 2)


# ---------------------------------------------------------------------------
# vectorized Monte Carlo over replicates
# ---------------------------------------------------------------------------

def simulate_surface(config: ModelConfig, n_replicates: int, seed: int):
    """Simulate n_replicates values of the surface functional.

    Returns (S, S_plus, S_minus) float arrays.  Block b of REPLICATES_PER_STREAM
    replicates draws its Poisson counts, then its uniforms in replicate order,
    from the stream (seed, b), so a value depends only on (config, seed,
    replicate), not on n.  poisson_block_sums chunks the points; fill writes
    the volumes of s >= 0 over the uniforms and those of s < 0 into the
    second row of the block's workspace.
    """
    def fill(work):
        p, neg = work
        s = inverse_cdf(config, p)
        vol = kernels.section_volumes(s, config)
        positive = s >= 0.0
        p[:] = np.where(positive, vol, 0.0)
        neg[:] = np.where(positive, 0.0, vol)

    sums = np.empty((2, n_replicates))
    for start, block_sums, _ in poisson_block_sums(
            _poisson_mean(config), n_replicates, lambda b: make_rng(seed, b),
            REPLICATES_PER_STREAM, 2, fill, kernels.signed_sums):
        sums[:, start:start + block_sums.shape[1]] = block_sums
    pos, neg = sums
    return pos + neg, pos, neg
