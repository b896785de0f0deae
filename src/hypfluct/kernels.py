"""Hot numeric kernels: batch section volumes and per-replicate sums.

Pure numpy, in blocks of BLOCK points.  The section volume is
omega_{d-1} mu^{1-d} J_{d-2} with J_n = int_0^rho sinh^n, evaluated for every
n in x = cosh rho - 1 = mu (cosh R - cosh s) / cosh(s - delta):

* odd n: a polynomial in x with positive coefficients, exact up to rounding;
* n = 0: rho = log1p(x + sqrt(x (x + 2)));
* even n >= 2: the reduction J_k = sinh^{k-1} cosh / k - (k-1)/k J_{k-2},
  replaced below x = SERIES_CUTOFF (0.25) by a binomial series whose dropped
  tail is below 1.5e-17 relative.

Forming cosh R - cosh s costs about eps cosh R / (cosh R - cosh s) relative
as |s| -> R: up to 1.5e-10 against mpmath at d = 3, lambda = 0.5, R = 5 and
s about 1e-6 below R.  Those points carry negligible volume.  The kernel
keeps the difference because it is faster per block than the
cancellation-free product 2 sinh((R+|s|)/2) sinh((R-|s|)/2) of the scalar
path.

Measured against 50-digit mpmath, the relative error of J_n given x is at most
1.2e-15 for n <= 4, 3.0e-15 at n = 6 and 1.1e-14 at n = 10.  The kernels
work in linear space, which is fine while the volume, of order e^{(d-2)R},
stays in float range ((d - 2) R < ~700); the overflow-safe log-space scalar
path of the same closed form is
:func:`hypfluct.hyperbolic.log_sinh_power_integral`.  Segment sums use
``np.add.reduceat``.
"""

from __future__ import annotations

import math

import numpy as np

from .hyperbolic import (
    SERIES_CUTOFF,
    even_series_coefficients,
    horner,
    odd_power_coefficients,
)

# Points per block: the arrays of one block stay in cache.
BLOCK = 8192


def _sinh_power_integral(n, x):
    """J_n = int_0^rho sinh^n for an array of x = cosh rho - 1 >= 0."""
    m, odd = divmod(n, 2)
    if odd:
        return x ** (m + 1) * horner(odd_power_coefficients(m), x)
    if n == 0:
        return np.log1p(x + np.sqrt(x * (x + 2.0)))
    # the reduction formula and the series both on the whole block; the series
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


def _section_volumes_block(s, R, d, lam, mu, delta, kappa_dm1):
    if lam == 1.0:
        arg = 2.0 * np.exp(s) * np.maximum(math.cosh(R) - np.cosh(s), 0.0)
        return kappa_dm1 * arg ** (0.5 * (d - 1))
    # x = cosh rho - 1 = mu (cosh R - cosh s) / cosh(s - delta); the difference
    # loses ~eps cosh R / (cosh R - cosh s) relative near |s| = R, where the
    # volume is negligible, and is faster here than the scalar path's sinh product
    x = np.maximum(mu * (math.cosh(R) - np.cosh(s)) / np.cosh(s - delta), 0.0)
    # omega_{d-1} mu^{1-d} J_{d-2}, with omega_{d-1} = (d-1) kappa_{d-1}
    return ((d - 1) * kappa_dm1 / mu ** (d - 1)) * _sinh_power_integral(d - 2, x)


def section_volumes(s, R, d, lam, mu, delta, kappa_dm1):
    """Closed-form (d-1)-volumes of the sections H(s) cap B_R^d, any d >= 2."""
    s = np.asarray(s, dtype=np.float64)
    flat = s.reshape(-1)
    out = np.empty(flat.size)
    for i in range(0, flat.size, BLOCK):
        out[i:i + BLOCK] = _section_volumes_block(flat[i:i + BLOCK], R, d, lam, mu,
                                                  delta, kappa_dm1)
    return out.reshape(s.shape)


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


def signed_sums(vol, s, offsets):
    """Per-replicate sums of vol, split by sign of s (s >= 0 counts positive).

    offsets[i] is the start index of replicate i; offsets[-1] == len(vol).
    """
    vol = np.asarray(vol, dtype=np.float64)
    pos_mask = np.asarray(s) >= 0.0
    return (_segment_sums(np.where(pos_mask, vol, 0.0), offsets),
            _segment_sums(np.where(pos_mask, 0.0, vol), offsets))


def zeta_increment_sums(h_vals, offsets):
    """Per-draw sums of jump sizes h over contiguous segments."""
    return _segment_sums(h_vals, offsets)
