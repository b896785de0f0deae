"""Poisson sampling of hyperplane coordinates under the invariant measure.

Coordinates are (s, u) with s the signed distance to the origin and u a unit
direction vector; the intensity in s is
``multiplier * (cosh s - lambda sinh s)^{d-1}`` on [-R, R].  Streams are
keyed by (seed, replicate or block index) through a counter-based Philox
generator, so values do not depend on execution order or memory budget.

Every density sampled here is cosh^n on an interval [a, b] (the s-density in
u = s - Delta, with n = d - 1), and one exact quantile serves them all: it
solves K_n(u) = K_n(a) + p (K_n(b) - K_n(a)) with K_n = int_0^u cosh^n in closed
form: by arcsinh at n = 1, by the nested arcsinh/sinh root of the cubic
K_3 = x + x^3/3 (x = sinh u) at n = 3, and by Halley steps otherwise.  There
every point takes two steps, and a point whose last step e still has
n^2 e^3 > 4 n eps u (the bound on the error that step leaves) goes on alone
until one does, within 12 + n // 8 steps.  |F(Q(p)) - p| is within a few
ulps, and the error in s is about eps max|K_n| / cosh^n(s).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .hyperbolic import LOG2, ModelConfig, logcosh

# a point stops once the n^2 e^3 error bound of its step e is within 4 n ulps
# of u: the n-term reduction for K_n rounds about n times
HALLEY_TOL_PER_N = 4.0 * np.finfo(np.float64).eps
# log of the largest double
LOG_MAX = math.log(np.finfo(np.float64).max)
# points per window of point_windows: the arrays of one window stay in cache
BLOCK = 8192
# points per call of poisson_block_sums: a call takes whole replicates up to
# SUB_CHUNK, which bounds the workspace rows to 512 KB each
SUB_CHUNK = 2 ** 16
# the largest mean numpy's Poisson sampler accepts
POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)

MAGIC = b"HYPF"
DUMP_VERSION = 2
# header fields after MAGIC and the uint16 version: d, lam, R, [multiplier,]
# seed, [replicate_index,] n; version 1 lacks the bracketed ones
_DUMP_HEADERS = {1: struct.Struct("<HddQQ"), 2: struct.Struct("<HdddQQQ")}


def point_windows(size: int):
    """Slices of BLOCK points (the last shorter) that tile range(size); the one cut of points."""
    return (slice(j, j + BLOCK) for j in range(0, size, BLOCK))


def make_rng(seed: int, replicate_index: int = 0) -> np.random.Generator:
    """Counter-based splittable stream keyed by (seed, replicate_index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate_index,))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# intensity
# ---------------------------------------------------------------------------

def log_intensity_density(config: ModelConfig, s):
    """log of Lambda(ds)/ds = multiplier (mu cosh(s - delta))^{d-1}, or multiplier e^{-(d-1)s}.

    For a float or an array s; finite at every finite s.
    """
    geom = config.geometry
    log_dens = -s if geom.is_horospheric else math.log(geom.mu) + logcosh(s - geom.delta)
    return (config.d - 1) * log_dens + math.log(config.intensity_multiplier)


def intensity_density(config: ModelConfig, s) -> float:
    """multiplier * (cosh s - lambda sinh s)^{d-1}, the exp of :func:`log_intensity_density`."""
    out = np.exp(log_intensity_density(config, np.asarray(s, dtype=np.float64)))
    return float(out) if out.ndim == 0 else out


def mean_count(config: ModelConfig) -> float:
    """Integral of the intensity density over [-R, R]; inf beyond double range."""
    d, R = config.d, config.R
    mult = config.intensity_multiplier
    geom = config.geometry
    try:
        if geom.is_horospheric:
            return mult * 2.0 * math.sinh((d - 1) * R) / (d - 1)
        K_left, _ = _cosh_power_primitive(d - 1, R + geom.delta)
        K_right, _ = _cosh_power_primitive(d - 1, R - geom.delta)
        return mult * geom.mu ** (d - 1) * (K_left + K_right)
    except OverflowError:                         # from math.sinh
        return math.inf


def _poisson_mean(config: ModelConfig) -> float:
    """mean_count(config), refused with DomainError where numpy cannot draw the count."""
    mean = mean_count(config)
    if not mean <= POISSON_MAX_MEAN:
        raise DomainError(f"the mean count {mean:.4g} at R = {config.R} is beyond the "
                          f"{POISSON_MAX_MEAN:.4g} a Poisson draw takes")
    return mean


# ---------------------------------------------------------------------------
# the density cosh^n: primitive, its inverse, quantiles
# ---------------------------------------------------------------------------

def _cosh_power_primitive(n: int, u):
    """(K_n(u), cosh^n u) for a float or an array u; K_n(u) = int_0^u cosh^n."""
    # a float goes through math, so the d = 2 quantile stays exactly
    # delta + arcsinh(sinh a + p (sinh b - sinh a)) with the math.sinh endpoints
    if isinstance(u, float):
        return _cosh_power_reduction(n, u, math.sinh(u), math.cosh(u))
    u = np.asarray(u, dtype=np.float64)
    return _cosh_power_reduction(n, u, np.sinh(u), np.cosh(u))


def _cosh_power_reduction(n: int, u, sh, ch):
    """(K_n(u), cosh^n u) from sh = sinh u and ch = cosh u.

    By K_k = sinh cosh^{k-1} / k + (k-1)/k K_{k-2} from K_0 = u or K_1 = sinh u;
    every term has the sign of u, so nothing cancels.  For n >= 2 both
    results are new, so a caller may overwrite sh and ch.
    """
    K, ch_pow = (sh, ch) if n % 2 else (u, 1.0)
    for k in range(2 + n % 2, n + 1, 2):
        ch_pow = ch_pow * ch                      # cosh^{k-1}
        K = sh * ch_pow / k + ((k - 1) / k) * K
        ch_pow *= ch                              # cosh^k
    return K, ch_pow


def _halley_step(n: int, a, u):
    """One Halley step on K_n(u) = a, n >= 2, in place on u; returns the step."""
    sh, ch = np.sinh(u), np.cosh(u)
    e, dK = _cosh_power_reduction(n, u, sh, ch)
    e -= a
    e /= dK                                       # Newton step (K_n - a) / K_n'
    sh /= ch                                      # tanh u; K_n''/K_n' = n tanh u
    sh *= e
    sh *= -0.5 * n
    sh += 1.0
    e /= sh
    u -= e
    return e


def _halley_converged(n: int, e, u):
    """Where the Halley step e to u leaves an error below HALLEY_TOL_PER_N n u.

    As K_n''/K_n' = n tanh u and K_n'''/K_n' = n (n - 1) tanh^2 u + n, the
    error after a step of size e is below n^2 e^3.  Overwrites e.
    """
    bound = e * e
    bound *= np.abs(e, out=e)
    bound *= n
    return bound <= HALLEY_TOL_PER_N * u


def _cosh_power_inverse(n: int, t):
    """The u with K_n(u) = t, for an array t and n >= 1."""
    t = np.asarray(t, dtype=np.float64)
    if n == 1:
        return np.arcsinh(t)
    if n == 3:
        # K_3 = x + x^3/3 in x = sinh u, and x = 2 sinh(theta) turns K_3 = t into
        # sinh(3 theta) = 3t/2; odd in t, so no sign handling
        u = 1.5 * t.reshape(-1)
        np.arcsinh(u, out=u)
        u /= 3.0
        np.sinh(u, out=u)
        u *= 2.0
        return np.arcsinh(u, out=u).reshape(t.shape)
    a = np.abs(t.reshape(-1))
    # K_n(u) >= u and K_n(u) >= (e^{nu} - 1) / (n 2^n): u starts above the root,
    # and Halley steps on the convex increasing K_n stay above it.  The second
    # bound is log 2 + log(n a + 2^-n) / n, which cannot overflow; where 2^-n
    # underflows (n >= 1075) the larger ulp(0) keeps it a bound and a = 0 at 0
    floor = max(math.ldexp(1.0, -n), math.ulp(0.0))
    u = np.minimum(a, LOG2 + np.log(n * a + floor) / n)
    # for n in the thousands cosh^n of that start can pass double range.  There
    # n a >= 1, and the start cosh^n u = 2 n a is above the root: log cosh lies
    # above its tangent at u, so K_n(u) >= cosh^n u (1 - e^{-n u tanh u}) / (n tanh u),
    # and n u tanh u >= n log cosh u = log(2 n a) >= log 2.  The start rises
    # with a, so its largest value tells whether any point needs this
    if n * logcosh(np.max(u, initial=0.0)) > LOG_MAX:
        beyond = n * logcosh(u) > LOG_MAX
        u[beyond] = np.arccosh(np.exp((math.log(2 * n) + np.log(a[beyond])) / n))
    # every point takes two steps; the rest go on alone, each stopping at its
    # own first converged step, so a root does not depend on the other points
    _halley_step(n, a, u)
    todo = np.flatnonzero(~_halley_converged(n, _halley_step(n, a, u), u))
    # the start's error grows with n, and so does the step count: 2-9 steps
    # for n <= 60 over t in [1e-300, K_n(700/n)], 34 at n = 299, t = 1000
    max_steps = 12 + n // 8
    for _ in range(max_steps - 2):
        if not todo.size:
            break
        # repeating the points up to a multiple of 512 keeps the work arrays to
        # a few sizes: arrays of every length fragmented the heap and raised
        # the limit-law peak RSS by 8 MB in about 4 runs of 10
        idx = np.resize(todo, -(-todo.size // 512) * 512)
        u_todo = u[idx]
        converged = _halley_converged(n, _halley_step(n, a[idx], u_todo), u_todo)
        u[idx] = u_todo
        todo = todo[~converged[:todo.size]]
    if todo.size:
        raise QuadratureError(f"cosh^{n} inverse did not converge in "
                              f"{max_steps} Halley steps")
    return np.copysign(u.reshape(t.shape), t)


def _unit_extremes(p):
    """(min, max) of the flat array p, or None if p is empty.

    Raises DomainError if some p lies outside [0, 1] or is NaN.
    """
    if not p.size:
        return None
    lo, hi = p.min(), p.max()
    # both are NaN if one p is, and NaN fails both comparisons
    if not (lo >= 0.0 and hi <= 1.0):
        raise DomainError("quantile argument must lie in [0, 1]")
    return lo, hi


def _cosh_power_quantile(n: int, a: float, b: float, p):
    """Quantile at p of the density cosh^n on [a, b]; exactly a at 0, b at 1.

    Checks p as _unit_extremes does, then inverts every point in one pass;
    each quantile depends only on its own p.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.reshape(-1)
    ends = _unit_extremes(flat)
    lo, _ = _cosh_power_primitive(n, a)
    hi, _ = _cosh_power_primitive(n, b)
    if not hi - lo < math.inf:
        raise OverflowError(f"the mass of cosh^{n} on [{a}, {b}] is beyond double range")
    u = _cosh_power_inverse(n, lo + flat * (hi - lo))
    np.maximum(u, a, out=u)
    np.minimum(u, b, out=u)
    # a uniform draw is 0 with chance 2^-53, so the masks are rarely built
    if ends and (ends[0] == 0.0 or ends[1] == 1.0):
        u[flat == 0.0] = a
        u[flat == 1.0] = b
    return u.reshape(p.shape)


def inverse_cdf(config: ModelConfig, p):
    """Quantile function of the normalized s-density on [-R, R]; p is left as it is.

    Exactly R at p = 1; a DomainError where the mass on [-R, R] is beyond double range.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    flat = p_arr.reshape(-1)
    d, R = config.d, config.R
    geom = config.geometry
    try:
        if geom.is_horospheric:
            ends = _unit_extremes(flat)
            a = d - 1
            lo, hi = math.exp(-a * R), math.exp(a * R)
            # -log(hi - p (hi - lo)) / a, in place on one array
            out = flat * (hi - lo)
            np.subtract(hi, out, out=out)
            with np.errstate(divide="ignore"):    # log 0 where p (hi - lo) rounds to hi
                np.log(out, out=out)
            out /= -a
            if ends and ends[1] == 1.0:           # hi - (hi - lo) need not round to lo
                out[flat == 1.0] = R
        else:
            # in u = s - Delta the density is cosh^{d-1}(u); the quantile checks p
            delta = geom.delta
            out = _cosh_power_quantile(d - 1, -R - delta, R - delta, flat)
            out += delta
    except OverflowError:
        raise DomainError(f"the s-density's mass at R = {R} is beyond double range") from None
    np.clip(out, -R, R, out=out)
    return float(out[0]) if p_arr.ndim == 0 else out.reshape(p_arr.shape)


# ---------------------------------------------------------------------------
# process samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessSample:
    """One realization of the hyperplane process.

    s holds the signed distances in draw order, u the matching unit
    directions (shape (n, d)), or None in a sample built without them.
    """

    config: ModelConfig
    s: np.ndarray
    u: np.ndarray | None
    seed: int
    replicate_index: int = 0

    def __len__(self):
        return self.s.shape[0]


def sample_process(config: ModelConfig, seed: int, replicate_index: int = 0) -> ProcessSample:
    """Draw one Poisson realization of the process restricted to [-R, R]."""
    rng = make_rng(seed, replicate_index)
    n = int(rng.poisson(_poisson_mean(config)))
    s = rng.random(n)
    for w in point_windows(n):
        s[w] = inverse_cdf(config, s[w])
    g = rng.standard_normal((n, config.d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    u = g / np.where(norms == 0.0, 1.0, norms)
    return ProcessSample(config=config, s=s, u=u, seed=seed,
                         replicate_index=replicate_index)


def poisson_block_sums(mean: float, n: int, rng_of, block: int, rows: int, fill, reduce):
    """Yield (start, sums, rng) per block of replicates of Poisson(mean) points.

    Block b covers replicates [b block, b block + m), m = min(block, n - b block),
    and draws from rng = rng_of(b) the counts of a whole block, then the
    uniforms of its first m replicates in replicate order; so no value depends
    on n.  A call takes max(1, SUB_CHUNK // ceil(mean)) whole replicates, so
    about SUB_CHUNK points or one larger replicate, and draws their uniforms
    into row 0 of work, a (rows, points) view of one workspace per block,
    sized from the block's counts to its largest call; no call allocates a
    point array.  fill(window) maps each column window of work from
    point_windows in place, from the uniforms in its row 0 to the values
    summed, in any of its rows; then reduce(*work, offsets) sums them per
    replicate (i-th at offsets[i]).  fill maps each point alone and reduce
    sums each replicate alone, so no sum depends on SUB_CHUNK or BLOCK
    either.  rng is yielded so that a caller can spawn children of the
    block's stream without building it again.
    """
    per_call = max(1, SUB_CHUNK // max(1, math.ceil(mean)))
    for b, start in enumerate(range(0, n, block)):
        rng = rng_of(b)
        counts = rng.poisson(mean, size=block)[:n - start]
        firsts = range(0, counts.size, per_call)
        workspace = np.empty((rows, int(np.add.reduceat(counts, firsts).max())))
        sums = []
        for i in firsts:
            offsets = np.concatenate(([0], np.cumsum(counts[i:i + per_call])))
            work = workspace[:, :offsets[-1]]
            rng.random(out=work[0])
            for w in point_windows(offsets[-1]):
                fill(work[:, w])
            sums.append(reduce(*work, offsets))
        yield start, np.concatenate(sums, axis=-1), rng


# ---------------------------------------------------------------------------
# binary dump
# ---------------------------------------------------------------------------

def write_sample_dump(path, samples) -> None:
    """Little-endian dump: one (header, payload) block per ProcessSample.

    Header: MAGIC, the uint16 DUMP_VERSION and its _DUMP_HEADERS fields;
    payload: n rows of (s, u_1..u_d) as float64.
    """
    header = _DUMP_HEADERS[DUMP_VERSION]
    with open(path, "wb") as fh:
        for sample in samples:
            if sample.u is None:
                raise ValueError("cannot dump a sample without directions")
            cfg = sample.config
            n = len(sample)
            fh.write(MAGIC)
            fh.write(struct.pack("<H", DUMP_VERSION))
            fh.write(header.pack(cfg.d, cfg.lam, cfg.R, cfg.intensity_multiplier,
                                 sample.seed, sample.replicate_index, n))
            rec = np.empty((n, 1 + cfg.d))
            rec[:, 0] = sample.s
            rec[:, 1:] = sample.u
            fh.write(rec.astype("<f8").tobytes())


def _read_exact(fh, size: int, what: str) -> bytes:
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise DomainError(f"truncated dump: the {what} needs {size} bytes, "
                          f"{left} are left")
    return fh.read(size)


def read_sample_dump(path):
    """Inverse of :func:`write_sample_dump`, for format versions 1 and 2.

    Version 1 stores no multiplier or replicate index; they read back as 1
    and 0.  A bad magic, an unknown version or a short block raises
    DomainError.
    """
    out = []
    with open(path, "rb") as fh:
        while True:
            magic = fh.read(len(MAGIC))
            if not magic:
                break
            if magic != MAGIC:
                raise DomainError(f"bad magic {magic!r}")
            (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
            header = _DUMP_HEADERS.get(version)
            if header is None:
                raise DomainError(f"unsupported dump version {version}")
            fields = header.unpack(_read_exact(fh, header.size, "header"))
            if version == 1:
                (d, lam, R, seed, n), mult, replicate = fields, 1.0, 0
            else:
                d, lam, R, mult, seed, replicate, n = fields
            cfg = ModelConfig(d=d, lam=lam, R=R, intensity_multiplier=mult)
            rec = np.frombuffer(_read_exact(fh, 8 * n * (1 + d), "payload"),
                                dtype="<f8").reshape(n, 1 + d)
            out.append(ProcessSample(config=cfg, s=rec[:, 0].copy(),
                                     u=rec[:, 1:].copy(), seed=seed,
                                     replicate_index=replicate))
    return out
