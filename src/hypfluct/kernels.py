"""Hot numeric kernels: batch section volumes and per-replicate sums.

Pure numpy, elementwise; callers map windows from ``sampling.point_windows``.
The section volume of a ModelConfig (d, lambda, R; mu and delta from its
geometry) is omega_{d-1} mu^{1-d} J_{d-2} with J_n = int_0^rho sinh^n,
evaluated for every n in x = cosh rho - 1 = mu (cosh R - cosh s) / cosh(s - delta):

* odd n: a polynomial in x with positive coefficients, exact up to rounding;
* n = 0: rho = log1p(x + sqrt(x) sqrt(x + 2)), which does not overflow;
* even n >= 2: the reduction J_k = sinh^{k-1} cosh / k - (k-1)/k J_{k-2},
  replaced below x = SERIES_CUTOFF (0.25) by a binomial series whose dropped
  tail is below 1.5e-17 relative.

The kernel forms cosh R - cosh s as 2 (sinh^2(R/2) - sinh^2(s/2)), which
costs about eps (cosh R - 1) / (cosh R - cosh s) relative: the error grows
only as |s| -> R, where the volume is negligible, not as R -> 0, where the
plain difference of cosh values costs eps / (cosh R - cosh s) (4e-7 at
R = 1e-4).  The log-space path's product 2 sinh((R+|s|)/2) sinh((R-|s|)/2)
has no cancellation at all but costs more transcendentals.  Horospheres take
kappa_{d-1} (2 e^{s/2} sqrt(sinh^2(R/2) - sinh^2(s/2)))^{d-1}, which never
forms e^{2R}.

Measured against 50-digit mpmath, the relative error of J_n given x is at most
1.2e-15 for n <= 4, 3.0e-15 at n = 6 and 1.1e-14 at n = 10.  These kernels
serve the sampler and ``total_surface_area`` only: they work in linear space,
which is fine for the volumes of a simulated ball, of order e^{(d-2)R}
(e^{(d-1)R} for horospheres).  Everything else (moment integrals, single
volumes, radii) takes the overflow-safe log-space path of the same closed
form, :func:`hypfluct.hyperbolic.log_intersection_volume`.  Segment sums use
``np.add.reduceat``.
"""

from __future__ import annotations

import math

import numpy as np

from .hyperbolic import (
    SERIES_CUTOFF,
    ModelConfig,
    ball_kappa,
    even_series_coefficients,
    horner,
    odd_power_coefficients,
)


def _sinh_power_integral(n, x):
    """J_n = int_0^rho sinh^n for an array of x = cosh rho - 1 >= 0."""
    m, odd = divmod(n, 2)
    if odd:
        return x ** (m + 1) * horner(odd_power_coefficients(m), x)
    if n == 0:
        # sqrt(x) sqrt(x + 2), unlike sqrt(x (x + 2)), does not form x^2
        return np.log1p(x + np.sqrt(x) * np.sqrt(x + 2.0))
    # the reduction formula and the series both on every point; the series
    # replaces the reduction below the cut-off, where the latter cancels
    sh = np.sqrt(x * (x + 2.0))
    out = np.log1p(x + sh)
    p = sh * (1.0 + x)                # sinh^{k-1} cosh, from k = 2
    sh2 = sh * sh
    for k in range(2, n + 1, 2):
        out *= (1.0 - k) / k
        out += p / k
        p *= sh2
    xs = np.minimum(x, SERIES_CUTOFF)
    series = horner(even_series_coefficients(m), xs)
    series *= np.sqrt(xs)
    series *= xs ** m
    np.copyto(out, series, where=x < SERIES_CUTOFF)
    return out


def section_volumes(s, config: ModelConfig):
    """Closed-form (d-1)-volumes of the sections H(s) cap B_R^d of a model, any d >= 2."""
    s = np.asarray(s, dtype=np.float64)
    flat = s.reshape(-1)
    d = config.d
    geom = config.geometry
    kappa_dm1 = ball_kappa(d - 1)
    # (cosh R - cosh s) / 2 = sinh^2(R/2) - sinh^2(s/2) loses ~eps (cosh R - 1)
    # / (cosh R - cosh s) relative, only near |s| = R where the volume is negligible
    half_s = 0.5 * flat
    half_gap = np.sinh(half_s)
    half_gap *= half_gap
    np.subtract(math.sinh(0.5 * config.R) ** 2, half_gap, out=half_gap)
    np.maximum(half_gap, 0.0, out=half_gap)
    if geom.is_horospheric:
        # kappa_{d-1} [2 e^s (cosh R - cosh s)]^{(d-1)/2}
        # = kappa_{d-1} (2 e^{s/2} sqrt(half_gap))^{d-1}, which never forms e^{2R}
        root = np.sqrt(half_gap, out=half_gap)
        root *= np.exp(half_s, out=half_s)
        return ((kappa_dm1 * 2.0 ** (d - 1)) * root ** (d - 1)).reshape(s.shape)
    # x = cosh rho - 1 = mu (cosh R - cosh s) / cosh(s - delta)
    x = np.divide(half_gap, np.cosh(flat - geom.delta), out=half_gap)
    x *= 2.0 * geom.mu
    # omega_{d-1} mu^{1-d} J_{d-2}, with omega_{d-1} = (d-1) kappa_{d-1}
    vols = ((d - 1) * kappa_dm1 / geom.mu ** (d - 1)) * _sinh_power_integral(d - 2, x)
    return vols.reshape(s.shape)


def _segment_sums(values, offsets):
    """Sums of values[offsets[i]:offsets[i+1]]; 0 for an empty segment."""
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    starts = offsets[:-1]
    out = np.zeros(starts.size)
    nonempty = offsets[1:] > starts
    if nonempty.any():
        # the nonempty segments tile values[starts[0]:offsets[-1]]
        out[nonempty] = np.add.reduceat(values[:offsets[-1]], starts[nonempty])
    return out


def signed_sums(pos, neg, offsets):
    """Per-replicate sums of the sign-split volumes pos (s >= 0) and neg (s < 0).

    Each holds a point's volume on its side of s = 0 and 0 on the other;
    offsets[i] is the start index of replicate i; offsets[-1] == len(pos).
    """
    return _segment_sums(pos, offsets), _segment_sums(neg, offsets)


def zeta_increment_sums(h_vals, offsets):
    """Per-draw sums of jump sizes h over contiguous segments."""
    return _segment_sums(h_vals, offsets)
