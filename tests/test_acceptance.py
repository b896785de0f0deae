"""Acceptance gate: one test per headline claim, each printing a verdict line.

Criterion 7's first clause is asserted as stated and is expected to fail:
at R = 10 the normalized horosphere functional (d = 2, lambda = 1) is still
measurably closer to the unit normal than to the variance-1/2 limit
(confirmed at 40000 replicates). The crossover lies between R = 12 and
12.5: the exact-law table of ROADMAP item 1, from a scratch exact-law
computation not yet in the repo, gives Kolmogorov distances to N(0, 1) /
N(0, 1/2) of 0.0552 / 0.0570 at R = 12 and 0.0557 / 0.0551 at R = 12.5.
The decreasing trend clause is true and holds.

The red is not a normalization error: ``variance`` equals the closed form
16 (R cosh R - sinh R) and ``expected_surface_area`` equals
2 pi (cosh R - 1) to about 1e-15 at R = 6, 8, 10. The variance is split
about half and half between horocycles with s < 0 and those with s > 0
(empirical shares 0.476 and 0.488 at R = 10 over the 5000 replicates used
below). The s > 0 half comes from rare horocycles that reach deep into the
ball; their contribution vanishes in probability as R -> oo, which is why
the limit variance is 1/2 and not 1. That happens slowly, at rate O(1/R),
so at moderate R the bulk of the distribution is still much wider than the
limit: the standard deviation of the central 98 % of z is 0.93, 0.87, 0.83
at R = 6, 8, 10, against 0.66 for the central 98 % of N(0, 1/2) (whose full
standard deviation is 0.71); the gap times R stays near 1.6-1.7.
"""

import math

import numpy as np
import pytest

from hypfluct import functionals, limitlaw, stats
from hypfluct.hyperbolic import ModelConfig, ball_volume, lambda_geometry, rho, \
    rho_bounds, rho_ugly
from hypfluct.sampling import mean_count


def _verdict(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def _normalized(config, n, seed):
    S, _, _ = functionals.simulate_surface(config, n, seed=seed)
    mean = functionals.expected_surface_area(config)
    sd = math.sqrt(functionals.variance(config))
    return (S - mean) / sd


@pytest.fixture(scope="module")
def z4_draws():
    """10^6 hybrid draws of the rate-1 limit variable, shared by 4 and 5."""
    spec = limitlaw.limit_law_spec(4, 0.0, multiplier=0.5)
    return spec, limitlaw.sample_limit(spec, 1_000_000, seed=0)


def test_criterion_1_crofton_mean():
    n = 2000
    failures = []
    for d in (2, 3, 4):
        for lam in (0.0, 0.5, 1.0):
            config = ModelConfig(d=d, lam=lam, R=3.0)
            S, _, _ = functionals.simulate_surface(config, n, seed=0)
            dev = abs(float(S.mean()) - ball_volume(d, 3.0))
            bound = 4.0 * math.sqrt(functionals.variance(config) / n)
            if dev > bound:
                failures.append((d, lam, dev, bound))
    ok = not failures
    _verdict(1, "Crofton mean", ok,
             f"9 configs, worst-case slack ok" if ok else f"failures: {failures}")
    assert ok, failures


def test_criterion_2_variance_identity():
    details = []
    ok = True
    for lam in (0.0, 0.5, 1.0):
        config = ModelConfig(d=2, lam=lam, R=4.0)
        S, _, _ = functionals.simulate_surface(config, 100_000, seed=0)
        ratio = float(np.var(S, ddof=1)) / functionals.variance(config)
        details.append(f"d2 lam={lam} ratio={ratio:.4f}")
        ok = ok and abs(ratio - 1.0) < 0.10
    emp = []
    for lam in (0.0, 0.7):
        config = ModelConfig(d=3, lam=lam, R=3.0)
        S, _, _ = functionals.simulate_surface(config, 100_000, seed=0)
        emp.append(float(np.var(S, ddof=1)))
    cross = emp[0] / emp[1]
    details.append(f"d3 cross-lambda ratio={cross:.4f}")
    ok = ok and abs(cross - 1.0) < 0.10
    _verdict(2, "variance identity", ok, "; ".join(details))
    assert ok, details


def test_criterion_3_non_clt_cumulants():
    config = ModelConfig(d=4, lam=0.0, R=10.0)
    r2 = functionals.cumulant_integral(config, 2) * math.exp(-4.0 * 10.0) \
        / (math.pi ** 3 / 4.0)
    r3 = functionals.cumulant_integral(config, 3) * math.exp(-6.0 * 10.0) \
        / (math.pi ** 4 / 16.0)
    ok = abs(r2 - 1.0) < 0.02 and abs(r3 - 1.0) < 0.03
    _verdict(3, "deterministic non-CLT cumulants", ok,
             f"k=2 ratio {r2:.5f} (tol 0.02), k=3 ratio {r3:.5f} (tol 0.03)")
    assert ok, (r2, r3)


def test_criterion_4_limit_law_cumulants(z4_draws):
    _, draws = z4_draws
    targets = {2: math.pi / 2.0, 3: math.pi / 4.0, 4: 3.0 * math.pi / 16.0}
    full = stats.k_statistics(draws)
    blocks = draws.reshape(50, 20_000)
    block_stats = np.array([stats.k_statistics(b) for b in blocks])
    details = []
    ok = True
    for order, target in targets.items():
        value = full[order - 1]
        se = float(np.std(block_stats[:, order - 1], ddof=1)) / math.sqrt(50.0)
        pull = abs(value - target) / se
        details.append(f"k{order}={value:.5f} target={target:.5f} pull={pull:.2f}")
        ok = ok and pull < 5.0
    _verdict(4, "limit-law cumulants", ok, "; ".join(details))
    assert ok, details


def test_criterion_5_cf_sampler_agreement(z4_draws):
    spec, draws = z4_draws
    sd = math.sqrt(limitlaw.limit_cumulant(spec, 2))
    x = np.linspace(-10.0 * sd, 16.0 * sd, 1601)
    F = limitlaw.cdf_via_inversion(spec, x)
    ks = stats.ks_distance(draws, lambda v: np.interp(v, x, F, left=0.0, right=1.0))
    ok = ks < 0.01
    _verdict(5, "CF/sampler agreement", ok, f"KS={ks:.5f} (bound 0.01)")
    assert ok, ks


def test_criterion_6_gaussian_regime_d2():
    # fixed seed: the true KS trend sits near the 1/sqrt(N) noise floor
    seed = 17
    details = []
    ok = True
    for lam in (0.0, 0.9):
        chain = []
        for R in (4.0, 6.0, 8.0):
            z = _normalized(ModelConfig(d=2, lam=lam, R=R), 5000, seed)
            chain.append(stats.ks_distance(z, lambda x: stats.normal_cdf(x, 1.0)))
        details.append(f"lam={lam}: " + "->".join(f"{k:.4f}" for k in chain))
        ok = ok and chain[0] > chain[1] > chain[2] and chain[2] < 0.05
    _verdict(6, "Gaussian regime d=2", ok, "; ".join(details))
    assert ok, details


def test_criterion_7_horosphere_regime():
    seed = 0
    half = []
    for R in (6.0, 8.0, 10.0):
        z = _normalized(ModelConfig(d=2, lam=1.0, R=R), 5000, seed)
        half.append(stats.ks_distance(z, lambda x: stats.normal_cdf(x, 0.5)))
        if R == 10.0:
            one = stats.ks_distance(z, lambda x: stats.normal_cdf(x, 1.0))
    decreasing = half[0] > half[1] > half[2]
    closer_to_half = half[2] < one
    ok = decreasing and closer_to_half
    _verdict(7, "horosphere regime", ok,
             f"KS_half chain {'->'.join(f'{k:.4f}' for k in half)} "
             f"(decreasing={decreasing}); at R=10 KS_half={half[2]:.4f} vs "
             f"KS_one={one:.4f} (closer_to_half={closer_to_half})")
    # The closer_to_half clause is false at R=10: the crossover towards the
    # variance-1/2 limit happens beyond R=14 at this replication level.
    assert ok, (half, one)


def test_criterion_8_non_gaussian_regime_d4():
    config = ModelConfig(d=4, lam=0.0, R=4.0)
    S, _, _ = functionals.simulate_surface(config, 2000, seed=0)
    y = (S - functionals.expected_surface_area(config)) / math.exp(2.0 * config.R)

    spec = limitlaw.limit_law_spec(4, 0.0)  # oriented rate 2
    scale = spec.scale_constant
    var_lim = scale ** 2 * limitlaw.limit_cumulant(spec, 2)
    sd = math.sqrt(var_lim)
    x = np.linspace(-12.0 * sd, 16.0 * sd, 1201)
    F = limitlaw.cdf_via_inversion(spec, x / scale)
    ks_limit = stats.ks_distance(y, lambda v: np.interp(v, x, F, left=0.0, right=1.0))
    ks_normal = stats.ks_distance(y, lambda v: stats.normal_cdf(v, var_lim))
    ok = ks_limit < 0.10 and ks_limit < ks_normal
    _verdict(8, "non-Gaussian regime d=4", ok,
             f"KS_limit={ks_limit:.4f} (bound 0.10), KS_normal={ks_normal:.4f}")
    assert ok, (ks_limit, ks_normal)


@pytest.mark.filterwarnings("ignore:The algorithm does not converge")
def test_criterion_9_geometry_identity_suite():
    rng = np.random.default_rng(123)
    details = []

    # density identity to 1e-12
    worst = 0.0
    for _ in range(2000):
        lam = float(rng.uniform(0.0, 0.999))
        s = float(rng.uniform(-20.0, 20.0))
        geom = lambda_geometry(lam)
        lhs = math.cosh(s) - lam * math.sinh(s)
        rhs = geom.mu * math.cosh(s - geom.delta)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok_density = worst < 1e-12
    details.append(f"density identity rel err {worst:.2e}")

    # rho vs the two-square-root form to 1e-10 (moderate radii: the
    # two-square-root evaluation loses ~q^2 ulps near the boundary)
    worst = 0.0
    for _ in range(2000):
        lam = float(rng.uniform(0.0, 0.999))
        R = float(rng.uniform(0.1, 6.0))
        s = float(rng.uniform(-R, R))
        geom = lambda_geometry(lam)
        a, b = rho(geom, s, R), rho_ugly(geom, s, R)
        worst = max(worst, abs(a - b) / max(1.0, a))
    ok_rho = worst < 1e-10
    details.append(f"rho forms rel err {worst:.2e}")

    # bounding chain: zero violations over a 10^4 randomized grid
    violations = 0
    for _ in range(10_000):
        lam = float(rng.uniform(0.0, 0.999))
        R = float(rng.uniform(0.05, 30.0))
        s = float(rng.uniform(-R, R))
        geom = lambda_geometry(lam)
        r = rho(geom, s, R)
        alo, ahi, llo, lhi = rho_bounds(geom, s, R)
        tol = 1e-9 * max(1.0, R)
        if not (alo <= r + tol <= ahi + 2.0 * tol and llo <= r + tol and r <= lhi + tol):
            violations += 1
    ok_bounds = violations == 0
    details.append(f"bound violations {violations}/10000")

    # Levy moments against the closed-form cumulants to 1e-8
    from scipy.integrate import quad
    from hypfluct.limitlaw import levy_density
    targets = (math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 16.0)
    worst = 0.0
    for ell, target in zip((2, 3, 4), targets):
        val, _ = quad(lambda y: y ** ell * levy_density(4, y), 0.0, 1.0,
                      limit=400, epsabs=1e-13, epsrel=1e-13)
        worst = max(worst, abs(val - target))
    ok_levy = worst < 1e-8
    details.append(f"Levy moment err {worst:.2e}")

    ok = ok_density and ok_rho and ok_bounds and ok_levy
    _verdict(9, "geometry identity suite", ok, "; ".join(details))
    assert ok, details
