"""Batch kernels: closed-form section volumes and segment sums."""

import math

import numpy as np
import pytest

from hypfluct import kernels
from hypfluct.hyperbolic import ModelConfig, intersection_volume, log_intersection_volume


def _random_points(seed, R=4.0, n=5000):
    return np.random.default_rng(seed).uniform(-R, R, size=n)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("d", range(2, 9))
def test_section_volumes_match_scalar_path(d, lam):
    for R in (1e-4, 4.0):      # tiny R: cosh R - cosh s must not cancel
        config = ModelConfig(d=d, lam=lam, R=R)
        s = _random_points(0, R)
        vols = kernels.section_volumes(s, config)
        # every point against one call of the log-space path
        expected = np.exp(log_intersection_volume(config, s))
        np.testing.assert_allclose(vols, expected, rtol=1e-10, atol=0.0, err_msg=str(R))


@pytest.mark.parametrize("d", [4, 6, 8])
def test_section_volumes_continuous_across_series_cutoff(d):
    """The even-n series and the reduction formula meet at x = SERIES_CUTOFF."""
    lam, R = 0.3, 3.0
    config = ModelConfig(d=d, lam=lam, R=R)
    geom = config.geometry
    # s with x = mu (cosh R - cosh s) / cosh(s - delta) just either side of 0.25
    s = np.linspace(2.70, 2.85, 4001)
    x = geom.mu * (math.cosh(R) - np.cosh(s)) / np.cosh(s - geom.delta)
    assert x.min() < 0.25 < x.max()
    vols = kernels.section_volumes(s, config)
    for i in np.flatnonzero(np.abs(x - 0.25) < 2e-3):
        assert vols[i] == pytest.approx(intersection_volume(config, float(s[i])),
                                        rel=1e-12)


def test_section_volumes_keep_shape_and_empty_input():
    config = ModelConfig(d=4, lam=0.5, R=4.0)
    s = _random_points(1, n=6)
    flat = kernels.section_volumes(s, config)
    grid = kernels.section_volumes(s.reshape(2, 3), config)
    np.testing.assert_array_equal(grid, flat.reshape(2, 3))
    empty = kernels.section_volumes(np.empty(0), config)
    assert empty.shape == (0,)


def _split_by_sign(vol, s):
    """The (pos, neg) arrays signed_sums takes: vol where s >= 0, resp. s < 0, else 0."""
    positive = s >= 0.0
    return np.where(positive, vol, 0.0), np.where(positive, 0.0, vol)


def test_signed_sums_against_fsum():
    rng = np.random.default_rng(2)
    vol = rng.exponential(size=1000)
    s = rng.uniform(-1.0, 1.0, size=1000)
    offsets = np.array([0, 100, 100, 350, 1000], dtype=np.int64)
    pos, neg = kernels.signed_sums(*_split_by_sign(vol, s), offsets)
    for r in range(4):
        seg = slice(offsets[r], offsets[r + 1])
        assert pos[r] == pytest.approx(
            math.fsum(vol[seg][s[seg] >= 0.0]), rel=1e-13, abs=1e-13)
        assert neg[r] == pytest.approx(
            math.fsum(vol[seg][s[seg] < 0.0]), rel=1e-13, abs=1e-13)


def test_signed_sums_large_batch_with_empty_segments():
    """2e7 points in 256 replicates, like a d=3, lambda=1, R=6 batch."""
    rng = np.random.default_rng(7)
    counts = rng.poisson(81_000, size=256)
    counts[[0, 1, 100, 254, 255]] = 0          # empty leading, middle, trailing
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n = int(offsets[-1])
    vol = rng.exponential(size=n) * np.exp(rng.uniform(0.0, 6.0, size=n))
    s = rng.uniform(-1.0, 1.0, size=n)
    pos, neg = kernels.signed_sums(*_split_by_sign(vol, s), offsets)
    assert pos.shape == neg.shape == (256,)
    for r in range(256):
        seg = slice(offsets[r], offsets[r + 1])
        v, sr = vol[seg], s[seg]
        exp_pos = math.fsum(v[sr >= 0.0])
        exp_neg = math.fsum(v[sr < 0.0])
        if counts[r] == 0:
            assert pos[r] == 0.0 and neg[r] == 0.0
        assert pos[r] == pytest.approx(exp_pos, rel=1e-14, abs=0.0)
        assert neg[r] == pytest.approx(exp_neg, rel=1e-14, abs=0.0)


def test_segment_sums_empty_batch():
    offsets = np.zeros(4, dtype=np.int64)
    pos, neg = kernels.signed_sums(np.empty(0), np.empty(0), offsets)
    np.testing.assert_array_equal(pos, np.zeros(3))
    np.testing.assert_array_equal(neg, np.zeros(3))
    np.testing.assert_array_equal(kernels.zeta_increment_sums(np.empty(0), offsets),
                                  np.zeros(3))
    assert kernels.zeta_increment_sums(np.empty(0), np.zeros(1, np.int64)).shape == (0,)


def test_zeta_increment_sums_against_fsum():
    rng = np.random.default_rng(4)
    h = rng.random(size=500)
    offsets = np.array([0, 0, 200, 500, 500], dtype=np.int64)
    sums = kernels.zeta_increment_sums(h, offsets)
    assert sums[0] == 0.0 and sums[3] == 0.0
    assert sums[1] == pytest.approx(math.fsum(h[:200]), rel=1e-13)
    assert sums[2] == pytest.approx(math.fsum(h[200:]), rel=1e-13)
