"""The three benchmark workloads: their configs, operations and output checks.

One operation is one timed call into hypfluct's public API.  A workload is a
list of operations; a round calls every one of them once, in order.  Every
call goes through a module attribute (``functionals.simulate_surface``, not a
name bound at import), so the timing wrappers of a traced run see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypfluct import ModelConfig, functionals, limitlaw, sampling

import oracles

# (d, lambda, R): d = 2 across lambda plus the d = 3 horosphere, all with a
# closed-form inverse CDF and tens of points per replicate.
MANY_SMALL = ((2, 0.0, 3.0), (2, 0.5, 3.0), (2, 1.0, 4.0), (3, 1.0, 2.5))

# (d, lambda, R, replicates at full size): 10^4 - 10^5 points per replicate.
# d = 3, lambda = 1, R = 6 is one 2e7-point batch; d = 3, 4, 5 with
# lambda < 1 take the tabulated (PCHIP) inverse CDF; d = 6 takes per-point
# quadrature of section volumes, about 30k points/s, hence few replicates.
# A round takes about 9 s, so a 30 s run has a median of three.
FEW_LARGE = ((2, 1.0, 10.0, 256), (3, 1.0, 6.0, 256), (3, 0.5, 5.0, 256),
             (4, 0.5, 4.0, 256), (5, 0.2, 3.5, 128), (6, 0.3, 2.5, 8))

# (d, lambda) of the infinitely divisible limit law.
LIMIT = ((4, 0.0), (5, 0.3))

# Grids of `hypfluct limit`: the CDF on [-10 sd, 14 sd], the CF on [0, 20].
CDF_SPAN = (-10.0, 14.0)
CF_GRID = np.linspace(0.0, 20.0, 401)

SIZES = {
    # full size keeps cdf_via_inversion's own CF resolution, as the CLI does
    "full": {"small_n": 100_000, "large_scale": 1, "limit_n": 20_000,
             "cdf_points": 801, "cdf_options": {}},
    # for the benchmark's own tests: every operation and check, in seconds
    "tiny": {"small_n": 2_000, "large_scale": 64, "limit_n": 2_000,
             "cdf_points": 201, "cdf_options": {"n_t": 2048}},
}

WORKLOADS = ("surface-many-small", "surface-few-large", "limit-law")


@dataclass
class Op:
    """One timed call.

    call(outputs) runs it, given the outputs of the earlier operations of
    the round; points(outputs) is the expected number of Poisson points it
    draws (0 for calls that draw none); check(output, outputs) returns the
    list of problems found in its output.
    """

    key: str
    call: Callable
    check: Callable
    points: Callable = lambda outs: 0.0


@dataclass
class Workload:
    name: str
    ops: list
    setup: Callable


def _config_label(cfg: ModelConfig) -> str:
    return f"d={cfg.d} lam={cfg.lam:g} R={cfg.R:g}"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _finite_positive(value) -> list:
    return [] if math.isfinite(value) and value > 0.0 else [f"not a positive number: {value!r}"]


def _rel_close(value, expected, rtol) -> list:
    if abs(value - expected) <= rtol * abs(expected):
        return []
    rel = abs(value / expected - 1.0)
    return [f"{value!r} differs from {expected!r} (rel {rel:.2e} > {rtol:g})"]


def check_mean_count(cfg: ModelConfig, value) -> list:
    expected = oracles.expected_count(cfg.d, cfg.lam, cfg.R, cfg.intensity_multiplier)
    return _rel_close(value, expected, 1e-8)


def check_moment(cfg: ModelConfig, k: int, value) -> list:
    """I_k(R) > 0, and equal to the closed form of I_2 where there is one."""
    problems = _finite_positive(value)
    closed = oracles.closed_variance(cfg.d, cfg.lam, cfg.R, cfg.intensity_multiplier)
    if not problems and k == 2 and closed is not None:
        problems = _rel_close(value, closed, 1e-8)
    return problems


def check_surface(cfg: ModelConfig, n: int, out, i2, i4) -> list:
    """S = S+ + S-, both parts >= 0, Crofton mean and variance of S.

    i2, i4 are the moment integrals I_2, I_4; I_2 is replaced by its closed
    form where there is one.
    """
    S, Sp, Sm = (np.asarray(a, dtype=np.float64) for a in out)
    if not S.shape == Sp.shape == Sm.shape == (n,):
        return [f"shapes {S.shape}, {Sp.shape}, {Sm.shape}, expected ({n},)"]
    problems = []
    if not np.all(np.isfinite(S)):
        problems.append("non-finite S")
    if np.any(Sp < 0.0) or np.any(Sm < 0.0):
        problems.append("negative part of S")
    if np.any(np.abs(Sp + Sm - S) > 1e-12 * np.abs(S)):
        problems.append("S+ + S- != S")
    if problems:
        return problems
    i2 = oracles.closed_variance(cfg.d, cfg.lam, cfg.R, cfg.intensity_multiplier) or i2
    crofton = cfg.intensity_multiplier * oracles.ball_volume(cfg.d, cfg.R)
    dev = abs(float(S.mean()) - crofton)
    bound = oracles.MEAN_Z * math.sqrt(i2 / n)
    if dev > bound:
        problems.append(f"|mean S - V_d(R)| = {dev:.6g} > {bound:.6g}")
    if n > 1:
        ratio = float(np.var(S, ddof=1)) / i2
        lo, hi = oracles.variance_ratio_bounds(n, i2, i4)
        if not lo <= ratio <= hi:
            problems.append(f"var S / I_2 = {ratio:.5f} outside [{lo:.5f}, {hi:.5f}]")
    return problems


def check_spec(d: int, lam: float, spec) -> list:
    """Rate, and T0 placing about 1000 exact jumps per draw (the default)."""
    problems = _rel_close(spec.rate, oracles.zeta_rate(d, lam), 1e-12)
    jumps = oracles.expected_jumps(d, spec.rate, spec.T0)
    problems += _rel_close(jumps, limitlaw.DEFAULT_POINTS_PER_DRAW, 1e-6)
    if not 0.0 < spec.tail_variance < oracles.limit_cumulant(d, lam, 2):
        problems.append(f"tail variance {spec.tail_variance!r} outside (0, kappa_2)")
    return problems


def check_draws(d: int, lam: float, n: int, draws) -> list:
    """Mean 0, and k2, k3 within their standard errors of kappa_2, kappa_3."""
    x = np.asarray(draws, dtype=np.float64)
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        return [f"expected {n} finite draws"]
    k2, k3, k4, k6 = (oracles.limit_cumulant(d, lam, ell) for ell in (2, 3, 4, 6))
    mean, s2, s3 = oracles.k_statistics(x)
    problems = []
    bound = oracles.MEAN_Z * math.sqrt(k2 / n)
    if abs(mean) > bound:
        problems.append(f"|mean| = {abs(mean):.6g} > {bound:.6g}")
    se2 = oracles.k2_standard_error(n, k2, k4)
    if abs(s2 - k2) > oracles.CUMULANT_Z * se2:
        problems.append(f"k2 = {s2:.6g}, kappa_2 = {k2:.6g}, pull {(s2 - k2) / se2:.2f}")
    se3 = oracles.k3_standard_error(n, k2, k3, k4, k6)
    if abs(s3 - k3) > oracles.CUMULANT_Z * se3:
        problems.append(f"k3 = {s3:.6g}, kappa_3 = {k3:.6g}, pull {(s3 - k3) / se3:.2f}")
    return problems


def check_cf(d: int, lam: float, t, psi) -> list:
    """psi(0) = 1, |psi| <= 1, and -log|psi(t)| ~ kappa_2 t^2 / 2 at the first t > 0."""
    psi = np.asarray(psi)
    if psi.shape != t.shape or not np.all(np.isfinite(psi)):
        return [f"expected {t.size} finite values"]
    problems = []
    if abs(psi[0] - 1.0) > 1e-12:
        problems.append(f"psi(0) = {psi[0]!r}")
    if np.max(np.abs(psi)) > 1.0 + 1e-12:
        problems.append(f"max |psi| = {np.max(np.abs(psi))!r} > 1")
    # the next term of the series is kappa_4 t^4 / 24, relatively ~1e-4 here
    problems += _rel_close(-math.log(abs(psi[1])),
                           0.5 * oracles.limit_cumulant(d, lam, 2) * t[1] ** 2, 1e-3)
    return problems


def check_cdf(x, F, draws) -> list:
    """F in [0, 1], non-decreasing, ~0 and ~1 at the ends, and KS-close to the draws."""
    F = np.asarray(F, dtype=np.float64)
    if F.shape != x.shape or not np.all(np.isfinite(F)):
        return [f"expected {x.size} finite values"]
    problems = []
    if np.any(F < 0.0) or np.any(F > 1.0):
        problems.append("F outside [0, 1]")
    if np.any(np.diff(F) < 0.0):
        problems.append(f"F decreases at {int(np.argmax(np.diff(F) < 0.0))}")
    if not (F[0] < 1e-3 and F[-1] > 1.0 - 1e-3):
        problems.append(f"F(x_0) = {F[0]:.3g}, F(x_end) = {F[-1]:.3g}")
    if draws is not None and not problems:
        ks = oracles.ks_distance(np.asarray(draws, dtype=np.float64), x, F)
        crit = oracles.kolmogorov_critical(len(draws))
        if ks > crit:
            problems.append(f"KS(draws, F) = {ks:.5f} > {crit:.5f}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _surface_ops(cfg: ModelConfig, n: int, seed: int, moments) -> list:
    """mean_count, simulate_surface and the moment calls of one config.

    moments lists the k of the cumulant_integral calls; None stands for one
    `variance` call (I_4 for the check is then computed outside the timing).
    """
    tag = _config_label(cfg)
    ops = [Op(f"mean_count {tag}",
              lambda outs: sampling.mean_count(cfg),
              lambda out, outs: check_mean_count(cfg, out))]
    ops.append(Op(
        f"simulate_surface {tag}",
        lambda outs: functionals.simulate_surface(cfg, n, seed),
        lambda out, outs: check_surface(cfg, n, out, *moments_for_check(outs)),
        lambda outs: n * oracles.expected_count(cfg.d, cfg.lam, cfg.R,
                                                cfg.intensity_multiplier)))
    if moments is None:
        ops.append(Op(f"variance {tag}",
                      lambda outs: functionals.variance(cfg),
                      lambda out, outs: check_moment(cfg, 2, out)))

        def moments_for_check(outs):
            return outs[f"variance {tag}"], functionals.cumulant_integral(cfg, 4)
    else:
        for k in moments:
            ops.append(Op(f"cumulant_integral k={k} {tag}",
                          lambda outs, k=k: functionals.cumulant_integral(cfg, k),
                          lambda out, outs, k=k: check_moment(cfg, k, out)))

        def moments_for_check(outs):
            return (outs[f"cumulant_integral k=2 {tag}"],
                    outs[f"cumulant_integral k=4 {tag}"])
    return ops


def _limit_ops(d: int, lam: float, n: int, seed: int, size: dict) -> list:
    tag = f"d={d} lam={lam:g}"
    sd = math.sqrt(oracles.limit_cumulant(d, lam, 2))
    x = np.linspace(CDF_SPAN[0] * sd, CDF_SPAN[1] * sd, size["cdf_points"])
    spec_key, draws_key = f"limit_law_spec {tag}", f"sample_limit {tag}"
    return [
        Op(spec_key,
           lambda outs: limitlaw.limit_law_spec(d, lam),
           lambda out, outs: check_spec(d, lam, out)),
        Op(draws_key,
           lambda outs: limitlaw.sample_limit(outs[spec_key], n, seed),
           lambda out, outs: check_draws(d, lam, n, out),
           lambda outs: n * oracles.expected_jumps(d, outs[spec_key].rate,
                                                   outs[spec_key].T0)),
        Op(f"characteristic_function {tag}",
           lambda outs: limitlaw.characteristic_function(outs[spec_key], CF_GRID),
           lambda out, outs: check_cf(d, lam, CF_GRID, out)),
        Op(f"cdf_via_inversion {tag}",
           lambda outs: limitlaw.cdf_via_inversion(outs[spec_key], x, **size["cdf_options"]),
           lambda out, outs: check_cdf(x, out, outs.get(draws_key))),
    ]


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload `name`, with inputs drawn from `seed`."""
    p = SIZES[size]
    if name == "surface-many-small":
        cfgs = [ModelConfig(d=d, lam=lam, R=R) for d, lam, R in MANY_SMALL]
        ops = [op for i, cfg in enumerate(cfgs)
               for op in _surface_ops(cfg, p["small_n"], 1000 * seed + i, None)]
        return Workload(name, ops, lambda: _surface_setup(cfgs))
    if name == "surface-few-large":
        cfgs = [ModelConfig(d=d, lam=lam, R=R) for d, lam, R, _ in FEW_LARGE]
        ops = [op for i, (cfg, row) in enumerate(zip(cfgs, FEW_LARGE))
               for op in _surface_ops(cfg, max(2, row[3] // p["large_scale"]),
                                      1000 * seed + i, (2, 3, 4))]
        return Workload(name, ops, lambda: _surface_setup(cfgs))
    if name == "limit-law":
        ops = [op for i, (d, lam) in enumerate(LIMIT)
               for op in _limit_ops(d, lam, p["limit_n"], 1000 * seed + i, p)]
        return Workload(name, ops, lambda: _limit_setup(LIMIT))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _surface_setup(cfgs) -> None:
    """Fill the lazy inverse-CDF tables once per config."""
    for cfg in cfgs:
        sampling.inverse_cdf(cfg, 0.5)


def _limit_setup(pairs) -> None:
    """Fill the jump-quantile table and the CF quadrature nodes once per config."""
    for d, lam in pairs:
        spec = limitlaw.limit_law_spec(d, lam)
        limitlaw.sample_limit(spec, 1, seed=0)
        limitlaw.characteristic_function(spec, 0.5)
