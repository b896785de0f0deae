"""Tests of the benchmark itself: every workload end to end at a tiny size,
and every check shown to reject a corrupted output.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hypfluct import ModelConfig, functionals, limitlaw, mean_count  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_runs_at_tiny_size(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= len(workloads.build(workload, 5, "tiny").ops)
    assert result["failed"] == 0, proc.stderr
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0.0, name


def test_layers_reached_per_workload():
    """The traced run of each workload reaches the layers its README row names."""
    expect = {
        "surface-many-small": {"functionals.simulate_surface", "sampling.make_rng",
                               "sampling.inverse_cdf", "kernels.section_volumes",
                               "kernels.signed_sums", "functionals.cumulant_integral",
                               "hyperbolic.log_intersection_volume"},
        "surface-few-large": {"functionals.simulate_surface", "sampling.make_rng",
                              "sampling.inverse_cdf", "kernels.section_volumes",
                              "kernels.signed_sums", "functionals.cumulant_integral",
                              "hyperbolic.log_intersection_volume"},
        "limit-law": {"sampling.make_rng", "limitlaw.limit_law_spec", "limitlaw.sample_limit",
                      "kernels.zeta_increment_sums", "limitlaw.characteristic_function",
                      "limitlaw.cdf_via_inversion"},
    }
    for workload, layers in expect.items():
        wl = workloads.build(workload, 0, "tiny")
        wl.setup()
        tracer = tracing.Tracer()
        outs = {}
        with tracer.installed():
            for op in wl.ops:
                span = tracer.open("op")
                outs[op.key] = op.call(outs)
                tracer.close(span)
        assert tracer.problems() == []
        calls = tracer.layer_metrics(1)
        reached = {layer for layer, _, _ in tracing.LAYERS if calls[f"{layer}.calls"] > 0}
        assert reached == layers, workload


def test_wrappers_are_removed_after_a_traced_round():
    before = functionals.inverse_cdf, limitlaw.characteristic_function
    with tracing.Tracer().installed():
        assert functionals.inverse_cdf is not before[0]
    assert (functionals.inverse_cdf, limitlaw.characteristic_function) == before


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    top = tracer.open("op")
    child = tracer.open("a")
    grandchild = tracer.open("b")
    tracer.close(grandchild)
    tracer.close(child)
    tracer.close(top)
    _, _, _, start, end = tracer.arrays()
    dur = end - start
    assert np.allclose(tracer.self_times(), [dur[0] - dur[1], dur[1] - dur[2], dur[2]])
    assert tracer.problems() == []


def test_failed_operations_are_counted_per_round():
    """An op fails in every round it raises or its check fails, and in every
    round after the first whose output differs from the first round's."""
    import run
    counter = iter(range(100))
    ops = [workloads.Op("good", lambda outs: 1.0, lambda out, outs: []),
           workloads.Op("changes", lambda outs: np.array([next(counter)]),
                        lambda out, outs: []),
           workloads.Op("raises", lambda outs: 1 / 0, lambda out, outs: []),
           workloads.Op("wrong", lambda outs: 2.0, lambda out, outs: ["bad"])]
    m = run.Measurement(workloads.Workload("fake", ops, lambda: None))
    for _ in range(3):
        m.round()
    assert (m.attempted, m.failed) == (12, 2 + 3 + 3)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "surface-many-small", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# each check rejects a corrupted output and accepts the real one
# ---------------------------------------------------------------------------

def test_surface_check_rejects_shifted_mean():
    cfg = ModelConfig(d=2, lam=0.0, R=3.0)
    n = 2000
    S, Sp, Sm = functionals.simulate_surface(cfg, n, seed=11)
    i2, i4 = functionals.variance(cfg), functionals.cumulant_integral(cfg, 4)
    assert workloads.check_surface(cfg, n, (S, Sp, Sm), i2, i4) == []
    shift = 10.0 * math.sqrt(i2 / n)
    problems = workloads.check_surface(cfg, n, (S + shift, Sp + shift, Sm), i2, i4)
    assert len(problems) == 1 and "mean S" in problems[0]


def test_surface_check_rejects_broken_split():
    cfg = ModelConfig(d=2, lam=1.0, R=4.0)
    S, Sp, Sm = functionals.simulate_surface(cfg, 500, seed=2)
    problems = workloads.check_surface(cfg, 500, (S, Sp, -Sm), 1.0, 1.0)
    assert "negative part of S" in problems


def test_variance_check_uses_closed_forms():
    for cfg in (ModelConfig(d=2, lam=1.0, R=4.0), ModelConfig(d=3, lam=0.5, R=5.0)):
        i2 = functionals.variance(cfg)
        assert workloads.check_moment(cfg, 2, i2) == []
        assert workloads.check_moment(cfg, 2, i2 * (1.0 + 1e-6)) != []


def test_mean_count_check_rejects_a_wrong_count():
    cfg = ModelConfig(d=4, lam=0.5, R=4.0)
    assert workloads.check_mean_count(cfg, mean_count(cfg)) == []
    assert workloads.check_mean_count(cfg, mean_count(cfg) * (1.0 + 1e-6)) != []


@pytest.fixture(scope="module")
def limit_outputs():
    d, lam, n = 4, 0.0, 2000
    spec = limitlaw.limit_law_spec(d, lam)
    draws = limitlaw.sample_limit(spec, n, seed=7)
    sd = math.sqrt(oracles.limit_cumulant(d, lam, 2))
    x = np.linspace(-10.0 * sd, 14.0 * sd, 201)
    F = limitlaw.cdf_via_inversion(spec, x, n_t=2048)
    psi = limitlaw.characteristic_function(spec, workloads.CF_GRID)
    return d, lam, n, spec, draws, x, F, psi


def test_draws_check_rejects_shifted_draws(limit_outputs):
    d, lam, n, spec, draws, *_ = limit_outputs
    assert workloads.check_spec(d, lam, spec) == []
    assert workloads.check_draws(d, lam, n, draws) == []
    shifted = draws + 10.0 * math.sqrt(oracles.limit_cumulant(d, lam, 2) / n)
    problems = workloads.check_draws(d, lam, n, shifted)
    assert any("mean" in p for p in problems)


def test_draws_check_rejects_wrong_spread(limit_outputs):
    d, lam, n, _, draws, *_ = limit_outputs
    problems = workloads.check_draws(d, lam, n, 1.2 * draws)
    assert any(p.startswith("k2") for p in problems)


def test_cdf_check_rejects_a_decreasing_step(limit_outputs):
    *_, draws, x, F, _ = limit_outputs
    assert workloads.check_cdf(x, F, draws) == []
    broken = F.copy()
    k = int(np.searchsorted(F, 0.5))
    broken[k], broken[k + 1] = F[k + 1], F[k]
    problems = workloads.check_cdf(x, broken, draws)
    assert problems == [f"F decreases at {k}"]


def test_cdf_check_rejects_a_shifted_cdf(limit_outputs):
    """A CDF that is monotone but belongs to other draws fails the KS check."""
    *_, draws, x, F, _ = limit_outputs
    sd = math.sqrt(oracles.limit_cumulant(4, 0.0, 2))
    problems = workloads.check_cdf(x, F, draws + 0.5 * sd)
    assert len(problems) == 1 and problems[0].startswith("KS")


def test_cf_check_rejects_a_wrong_cf(limit_outputs):
    d, lam, *_, psi = limit_outputs
    t = workloads.CF_GRID
    assert workloads.check_cf(d, lam, t, psi) == []
    assert workloads.check_cf(d, lam, t, psi * 1.01) != []        # psi(0) != 1
    assert workloads.check_cf(d, lam, t, psi ** 1.1) != []        # wrong kappa_2
