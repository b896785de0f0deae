"""The infinitely divisible limit laws of the surface-area fluctuations.

For d >= 4 and lambda < 1 the limit variable is a compensated sum of jump
sizes h(s) = cosh^{-(d-2)}(s) over the half-line process zeta: a Poisson
process on [0, infinity) with density rate * cosh^{d-1}(s), where
rate = 2 m mu^{d-1} is the model's intensity m (mu cosh(s - delta))^{d-1}
folded onto the half-line about delta.  This module owns zeta: the spec
derives its rate, and its mean count and its one sampler, sample_limit, live
here.  Simulation is hybrid: jumps below a cutoff T0 are sampled exactly,
the compensated small-jump tail beyond T0 is replaced by a Gaussian with the
matching variance (the standard small-jump normal approximation; the bias is
controlled by the third cumulant of the tail, limit_cumulant(spec, 3, spec.T0)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, gammaln

from . import kernels
from .errors import DomainError, QuadratureError
from .hyperbolic import horner, lambda_geometry, logcosh, scale_constant
from .sampling import (
    _cosh_power_inverse,
    _cosh_power_primitive,
    _cosh_power_quantile,
    make_rng,
    poisson_block_sums,
)

DEFAULT_POINTS_PER_DRAW = 1000.0
CF_TRUNCATION_EPS = 1e-10
# COS interval half-width in units of sqrt(k2 + sqrt(k4))
COS_HALF_WIDTH = 12.0
# t-values per block in log_characteristic_function: a 64 x CF_NODES complex
# matrix is 0.6 MB, so the CF's temporaries stay below the sampler's workspace
CF_BLOCK = 64
# Gauss-Legendre rule of the CF on s in [0, s_max]: the integrand decays like
# t^2 cosh^{3-d}(s), so s_max = min(CF_S_MAX, arcosh e^{CF_S_MAX/(d-3)}) drops a
# tail below 2 e^{-CF_S_MAX} and keeps cosh^{d-1}(s_max) below e^{120} for every
# d (a fixed s_max = 40 overflows at d >= 20).  Against 110-digit mpmath the CF
# is off by 7.5e-14 at (d, t) = (4, 1), 2.0e-14 at (5, 2) and 1.7e-14 at
# (20, 1); 2000 nodes are off by 4.5e-13 at (4, 1), so more nodes only add
# rounding
CF_NODES = 600
CF_S_MAX = 40.0
MONOTONE_TOL = 1e-6
DRAWS_PER_STREAM = 10000
# (sin z - z) / z^3 as a series in z^2, to z^13
_SIN_SERIES = tuple((-1) ** (k + 1) / math.factorial(2 * k + 3) for k in range(6))


def cosh_power_integral(h: float) -> float:
    """int_{-inf}^{inf} cosh(y)^{-h} dy = B(h/2, 1/2) = sqrt(pi) Gamma(h/2)/Gamma((h+1)/2)."""
    if h <= 0.0:
        raise DomainError("divergent integral: exponent must be positive")
    return math.sqrt(math.pi) * math.exp(gammaln(h / 2.0) - gammaln((h + 1.0) / 2.0))


@dataclass(frozen=True)
class LimitLawSpec:
    """Parameters of one limit law (d >= 4, lambda < 1).

    tail_variance, the variance of the compensated jumps beyond T0 that
    sample_limit replaces by a Gaussian, is derived: limit_cumulant(spec, 2, T0).
    """

    d: int
    lam: float
    rate: float
    T0: float
    scale_constant: float

    @property
    def tail_variance(self) -> float:
        return limit_cumulant(self, 2, self.T0)


def limit_law_spec(d: int, lam: float = 0.0, multiplier: float = 1.0) -> LimitLawSpec:
    """The limit law of the model (d, lambda) with intensity multiplier m.

    The rate of zeta is 2 m mu^{d-1}, with m in the units of
    ModelConfig.intensity_multiplier (m = 1/2 at lambda = 0 is the unoriented
    variant, rate 1).  T0 is chosen so that the exactly-simulated jump count
    per draw is about DEFAULT_POINTS_PER_DRAW.
    """
    if not (isinstance(d, numbers.Integral) and d >= 4):
        raise DomainError(f"the limit law requires an integer d >= 4, got {d!r}")
    geom = lambda_geometry(lam)
    if geom.is_horospheric:
        raise DomainError("the limit law requires lambda < 1 (Gaussian regime)")
    if not 0.0 < multiplier < math.inf:
        raise DomainError(f"the limit law requires a multiplier in (0, inf), got {multiplier}")
    rate = 2.0 * multiplier * geom.mu ** (d - 1)
    # the Halley start of the cutoff has cosh^{d-1} = 2 (d - 1) budget / rate,
    # which must be a double: at lambda = 0.5 it is not from d = 4829, and
    # mu^{d-1} underflows to 0 from d = 5182
    if not (rate > 0.0 and 2.0 * (d - 1) * DEFAULT_POINTS_PER_DRAW / rate < math.inf):
        raise DomainError(
            f"the limit law at d = {d}, lambda = {lam}, multiplier = {multiplier} has "
            f"zeta rate {rate:.3g}: cosh^{d - 1} of its cutoff T0 is beyond double range")
    T0 = float(_cosh_power_inverse(d - 1, DEFAULT_POINTS_PER_DRAW / rate))
    return LimitLawSpec(d=d, lam=lam, rate=rate, T0=T0,
                        scale_constant=scale_constant(d, geom))


# ---------------------------------------------------------------------------
# the half-line process zeta
# ---------------------------------------------------------------------------

def zeta_mean_count(spec: LimitLawSpec, T: float) -> float:
    """Mean number of points of zeta on [0, T]: rate K_{d-1}(T), K_n = int_0^T cosh^n."""
    K, _ = _cosh_power_primitive(spec.d - 1, float(T))
    return spec.rate * K


def limit_cumulant(spec: LimitLawSpec, ell: int, T: float = 0.0) -> float:
    """ell-th cumulant of zeta's compensated jumps beyond T.

    rate * int_T^inf cosh^{-h} = rate * B(h/2, 1/2) I_{sech^2 T}(h/2, 1/2) / 2
    with h = (d-2) ell - (d-1): T = 0 gives the cumulants of the limit law,
    T = spec.T0 those of the tail that sample_limit replaces by a Gaussian.
    """
    if ell < 1:
        raise DomainError("cumulant order must be >= 1")
    if not T >= 0.0:
        raise DomainError(f"the cutoff T must be >= 0, got {T}")
    if ell == 1:
        return 0.0
    h = (spec.d - 2) * ell - (spec.d - 1)
    # sech^2 T through logcosh, which does not overflow at large T
    sech2 = math.exp(-2.0 * logcosh(T))
    return spec.rate * (0.5 * cosh_power_integral(h) * float(betainc(0.5 * h, 0.5, sech2)))


def levy_density(d: int, y) -> float:
    """Lebesgue density of the Levy measure on (0, 1), per unit rate."""
    if d < 4:
        raise DomainError("requires d >= 4")
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any((y_arr <= 0.0) | (y_arr >= 1.0)):
        raise DomainError("the Levy measure lives on (0, 1)")
    n = d - 2
    out = 1.0 / (n * y_arr ** ((2.0 * d - 3.0) / n)
                 * np.sqrt(1.0 - y_arr ** (2.0 / n)))
    return float(out) if y_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# characteristic function and CDF inversion
# ---------------------------------------------------------------------------

def _compensated_cis(z):
    """e^{iz} - 1 - iz = -2 sin^2(z/2) + i (sin z - z), without cancellation.

    sin z - z is its Taylor series to z^13 where |z| < 0.5 (truncation below
    2e-15 relative) and direct elsewhere (rounding below 6 eps / z^2 = 6e-15).
    """
    z = np.asarray(z, dtype=np.float64)
    z2 = z * z
    im = np.where(np.abs(z) < 0.5, z * z2 * horner(_SIN_SERIES, z2), np.sin(z) - z)
    return -2.0 * np.sin(0.5 * z) ** 2 + 1j * im


@lru_cache(maxsize=16)
def _cf_nodes(d: int):
    """Gauss-Legendre nodes/weights and precomputed h, cosh^{d-1} factors."""
    x, w = np.polynomial.legendre.leggauss(CF_NODES)
    half = 0.5 * min(CF_S_MAX, math.acosh(math.exp(CF_S_MAX / (d - 3))))
    s = half * (x + 1.0)
    w = half * w
    h = np.cosh(s) ** (-(d - 2))
    dens = np.cosh(s) ** (d - 1)
    return h, w * dens


def log_characteristic_function(spec: LimitLawSpec, t):
    """log E e^{itZ} = rate * int (e^{ith}-1-ith) cosh^{d-1}, vectorized in t.

    t is taken CF_BLOCK (64) values at a time, so a call of any size holds
    at most a few CF_BLOCK x CF_NODES complex matrices, 0.6 MB each, besides
    its result; each value is its own row sum, so it does not depend on the
    other t.
    """
    h, wd = _cf_nodes(spec.d)
    t_arr = np.ravel(np.asarray(t, dtype=np.float64))
    vals = np.empty(t_arr.size, dtype=np.complex128)
    for i in range(0, t_arr.size, CF_BLOCK):
        terms = _compensated_cis(np.outer(t_arr[i:i + CF_BLOCK], h))
        vals[i:i + CF_BLOCK] = (terms * wd).sum(axis=1)
    out = spec.rate * vals.reshape(np.shape(t))
    return out if np.ndim(t) else complex(out)


def characteristic_function(spec: LimitLawSpec, t):
    out = np.exp(log_characteristic_function(spec, t))
    return out if np.ndim(t) else complex(out)


def _cf_truncation_point(spec: LimitLawSpec) -> float:
    t = 1.0
    for _ in range(60):
        if abs(characteristic_function(spec, t)) < CF_TRUNCATION_EPS:
            return t
        t *= 2.0
    raise QuadratureError("characteristic function does not decay; no "
                          "truncation point found", achieved=t)


def cdf_via_inversion(spec: LimitLawSpec, x_grid, n_t: int | None = None):
    """CDF at the sorted points x_grid by the Fourier-cosine (COS) series.

    The law is truncated to [a, b] = +-COS_HALF_WIDTH * sqrt(k2 + sqrt(k4)),
    with k2, k4 the closed-form cumulants (the mean is 0), and its density is
    expanded in cos(u_k (x - a)), u_k = k pi / (b - a), k = 0..N-1, with
    coefficients F_k = 2/(b - a) Re[psi(u_k) e^{-i u_k a}] (Fang & Oosterlee,
    SIAM J. Sci. Comput. 31, 2008).  Integrating term by term gives

        F(x) = (x - a)/(b - a) + sum_{k>=1} F_k sin(u_k (x - a)) / u_k

    on [a, b], F = 0 below a and F = 1 above b.  n_t is the number of CF
    points u_0..u_{N-1} (psi(u_0) = 1); by default N = ceil(t* (b - a)/pi) + 1,
    so that the last term reaches the truncation point t*, the first power
    of 2 with |psi(t*)| < CF_TRUNCATION_EPS.

    Error budget: the probability mass outside [a, b], which lies at least
    COS_HALF_WIDTH standard deviations from the mean, plus the dropped
    terms k >= N, each at most 2 |psi(u_k)| / (pi k); they start beyond t*,
    so |psi| < CF_TRUNCATION_EPS there.  The result is clipped to [0, 1] and
    corrected to be monotone (the correction must stay below MONOTONE_TOL).
    """
    x = np.asarray(x_grid, dtype=np.float64)
    if x.ndim != 1 or np.any(np.diff(x) < 0.0):
        raise DomainError("x_grid must be a sorted 1-d array")
    b = COS_HALF_WIDTH * math.sqrt(
        limit_cumulant(spec, 2) + math.sqrt(limit_cumulant(spec, 4)))
    a, width = -b, 2.0 * b
    if n_t is None:
        n_t = math.ceil(_cf_truncation_point(spec) * width / math.pi) + 1
    elif n_t < 1:
        raise DomainError("n_t must be at least 1")
    u = np.arange(1, n_t) * (math.pi / width)
    coef = (2.0 / width) * (characteristic_function(spec, u)
                            * np.exp(-1j * u * a)).real / u
    inside = (x > a) & (x < b)
    y = x[inside] - a
    F = (x >= b).astype(np.float64)
    F[inside] = y / width + np.sin(np.outer(y, u)) @ coef
    F = np.clip(F, 0.0, 1.0)
    F_mono = np.maximum.accumulate(F)
    correction = float(np.max(F_mono - F)) if F.size else 0.0
    if correction > MONOTONE_TOL:
        raise QuadratureError(
            f"inversion CDF non-monotone beyond tolerance ({correction:.2e})",
            achieved=correction)
    return F_mono


# ---------------------------------------------------------------------------
# hybrid sampler
# ---------------------------------------------------------------------------

def sample_limit(spec: LimitLawSpec, n: int, seed: int) -> np.ndarray:
    """n hybrid-sampler draws of the limit variable.

    Each draw is the compensated jump sum over [0, T0] plus an independent
    Gaussian carrying the small-jump tail variance.  Block b of
    DRAWS_PER_STREAM draws takes its jump counts and its jump uniforms in draw
    order from the stream (seed, b), and its tail normals from that stream's
    first child, spawned from the same generator once its uniforms are drawn.
    The jump sizes of max(POINT_BUDGET, one draw) jumps are written over their
    uniforms in the one row of the block's workspace, kernels.SUB_CHUNK at a
    time, so one such row is held, plus temporaries of one sub-chunk, and no
    call allocates a jump array.  A draw depends only on (spec, seed, draw
    index), not on n.
    """
    mean_jumps = zeta_mean_count(spec, spec.T0)
    compensator = spec.rate * math.sinh(spec.T0)
    sigma_tail = math.sqrt(spec.tail_variance)

    def sums_of(work, offsets):
        # h = cosh^{-(d-2)}(s); the quantile has read its sub-chunk of p
        # before h is written over it
        (p,) = work
        for i in range(0, p.size, kernels.SUB_CHUNK):
            chunk = p[i:i + kernels.SUB_CHUNK]
            h = _cosh_power_quantile(spec.d - 1, 0.0, spec.T0, chunk)
            np.cosh(h, out=h)
            np.power(h, -(spec.d - 2), out=chunk)
        return kernels.zeta_increment_sums(p, offsets)

    out = np.empty(n)
    for start, sums, rng in poisson_block_sums(mean_jumps, n, lambda b: make_rng(seed, b),
                                               DRAWS_PER_STREAM, 1, sums_of):
        tail = rng.spawn(1)[0]
        out[start:start + sums.size] = (sums - compensator
                                        + sigma_tail * tail.standard_normal(sums.size))
    return out
