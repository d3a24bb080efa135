import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from nngp import (
    NetworkHyperparams,
    build_kernel_matrix,
    gaussianity_check,
    sample_empirical_kernel,
)
from nngp import finite_width

from .conftest import MC_SEEDS, MC_WIDTHS, constant_norm_points


def test_bias_only_network_covariance():
    # sigma_w2 = 0: every output is the shared bias draw, so all entries
    # estimate sigma_b2
    pts = constant_norm_points(4, 8, seed=0)
    hp = NetworkHyperparams(depth=2, sigma_w2=0.0, sigma_b2=0.6, phi="tanh")
    sample = sample_empirical_kernel(pts, hp, (32, 32), 20_000, seed=1)
    assert np.all(np.abs(sample.empirical_k - 0.6) <= 5 * sample.stderr)


def test_one_hidden_layer_is_unbiased(relu_table):
    # at L = 1 the empirical kernel is exactly unbiased at any width
    pts = constant_norm_points(2, 16, seed=2)
    pts[1] -= pts[0] * (pts[0] @ pts[1]) / (pts[0] @ pts[0])
    pts[1] *= np.sqrt(16.0 / (pts[1] @ pts[1]))
    hp = NetworkHyperparams(depth=1, sigma_w2=1.0, sigma_b2=0.0, phi="relu")
    k = build_kernel_matrix(pts, hp, relu_table).kdd
    # bias-free orthogonal pair: off-diagonal is sw2 * q0 / (2 pi)
    assert k[0, 1] == pytest.approx(1.0 / (2 * np.pi), rel=1e-3)
    sample = sample_empirical_kernel(pts, hp, (1024,), 100_000, seed=3)
    assert np.all(np.abs(sample.empirical_k - k) <= 5 * sample.stderr)


def test_narrow_network_deviates_more_than_wide(tanh_table):
    pts = constant_norm_points(4, 8, seed=4)
    hp = NetworkHyperparams(depth=2, sigma_w2=1.3, sigma_b2=0.2, phi="tanh")
    k = build_kernel_matrix(pts, hp, tanh_table).kdd
    dev = {}
    for width in (1, 1024):
        sample = sample_empirical_kernel(pts, hp, (width,) * 2, 50_000, seed=5)
        dev[width] = float(np.abs(sample.empirical_k - k).max())
    assert dev[1] > 2 * dev[1024]


def test_seed_determinism_bit_identical():
    pts = constant_norm_points(3, 8, seed=6)
    hp = NetworkHyperparams(depth=2, sigma_w2=1.0, sigma_b2=0.1, phi="relu")
    a = sample_empirical_kernel(pts, hp, (64, 64), 5_000, seed=9)
    b = sample_empirical_kernel(pts, hp, (64, 64), 5_000, seed=9)
    np.testing.assert_array_equal(a.empirical_k, b.empirical_k)
    np.testing.assert_array_equal(a.stderr, b.stderr)
    c = sample_empirical_kernel(pts, hp, (64, 64), 5_000, seed=10)
    assert not np.array_equal(a.empirical_k, c.empirical_k)


def test_empirical_kernel_symmetric_positive_diagonal():
    pts = constant_norm_points(5, 8, seed=7)
    hp = NetworkHyperparams(depth=1, sigma_w2=1.0, sigma_b2=0.1, phi="tanh")
    sample = sample_empirical_kernel(pts, hp, (16,), 200, seed=0)
    np.testing.assert_allclose(sample.empirical_k, sample.empirical_k.T, rtol=1e-12)
    assert np.all(np.diag(sample.empirical_k) > 0.0)


def test_fractional_widths_are_refused_as_given():
    # widths are checked before they become integers: 2.7 is not read as 2
    pts = constant_norm_points(2, 4, seed=8)
    hp = NetworkHyperparams(depth=2, sigma_w2=1.0, sigma_b2=0.0, phi="relu")
    with pytest.raises(ValueError, match=r"2\.7, 3\.9"):
        sample_empirical_kernel(pts, hp, (2.7, 3.9), 50, seed=0)
    with pytest.raises(ValueError, match=r"0\.5"):
        sample_empirical_kernel(pts, hp, (0.5, 3), 50, seed=0)
    # integral floats are widths like any other
    a = sample_empirical_kernel(pts, hp, (2.0, 3.0), 50, seed=0)
    b = sample_empirical_kernel(pts, hp, (2, 3), 50, seed=0)
    np.testing.assert_array_equal(a.empirical_k, b.empirical_k)


def test_gaussianity_check_refuses_a_fractional_width():
    pts = constant_norm_points(2, 4, seed=8)
    hp = NetworkHyperparams(depth=2, sigma_w2=1.0, sigma_b2=0.0, phi="relu")
    with pytest.raises(ValueError, match=r"2\.5"):
        gaussianity_check(pts, hp, 2.5, 50, seed=0)


def test_widths_must_match_depth():
    pts = constant_norm_points(2, 4, seed=8)
    hp = NetworkHyperparams(depth=3, sigma_w2=1.0, sigma_b2=0.0, phi="relu")
    with pytest.raises(ValueError, match="widths"):
        sample_empirical_kernel(pts, hp, (8, 8), 10, seed=0)


def test_exploding_activations_name_the_layer():
    pts = constant_norm_points(2, 4, seed=9)
    hp = NetworkHyperparams(depth=3, sigma_w2=1e200, sigma_b2=0.0, phi="relu")
    with pytest.raises(ArithmeticError, match="layer"):
        sample_empirical_kernel(pts, hp, (8, 8, 8), 10, seed=0)


def _pin_cores(monkeypatch, n_cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cores)))


def test_failing_batch_stops_the_run(monkeypatch):
    # forty batches of 50 on two workers: the first batch's error reaches the
    # caller, the batches never started stay unrun and no worker outlives the call
    pts = constant_norm_points(5, 16, seed=9)
    hp = NetworkHyperparams(depth=2, sigma_w2=1e200, sigma_b2=0.0, phi="relu")
    assert finite_width._batch_plan(2000, 5, 1024) == [50] * 40
    _pin_cores(monkeypatch, 2)
    started = []
    batch_sums = finite_width._batch_sums

    def counted(*args):
        started.append(args[-1])
        return batch_sums(*args)

    monkeypatch.setattr(finite_width, "_batch_sums", counted)
    threads_before = threading.active_count()
    with pytest.raises(ArithmeticError, match="layer 1"):
        sample_empirical_kernel(pts, hp, (1024, 1024), 2000, seed=0)
    assert 1 <= len(started) <= 2
    assert threading.active_count() == threads_before


def test_result_independent_of_core_count(monkeypatch):
    # the batch plan and the reduction order do not depend on the worker
    # count, also with more workers than batches (three networks on five cores)
    pts = constant_norm_points(5, 16, seed=21)
    hp = NetworkHyperparams(depth=3, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    assert len(finite_width._batch_plan(2000, 5, 1024)) == 40
    assert len(finite_width._batch_plan(3, 5, 1024)) == 3

    def run(n_cores):
        _pin_cores(monkeypatch, n_cores)
        sample = sample_empirical_kernel(pts, hp, (1024,) * 3, 2000, seed=3)
        stats = gaussianity_check(pts, hp, 1024, 2000, seed=3)
        few = sample_empirical_kernel(pts, hp, (1024,) * 3, 3, seed=3)
        return (sample.empirical_k, sample.stderr, stats.skewness, stats.excess_kurtosis,
                few.empirical_k, few.stderr, few.skewness)

    one_core = run(1)
    for n_cores in (2, 5):
        for a, b in zip(one_core, run(n_cores)):
            assert np.array_equal(a, b)


def test_batch_plan_bounds_peak_memory(monkeypatch):
    # 3000 networks x 20 points x width 256 is 15.4M values, split into six
    # batches of 500; with two workers at most two batches, each holding
    # about two batch-sized arrays, are alive at once
    pts = constant_norm_points(20, 8, seed=22)
    hp = NetworkHyperparams(depth=2, sigma_w2=1.5, sigma_b2=0.1, phi="relu")
    _pin_cores(monkeypatch, 2)
    tracemalloc.start()
    try:
        sample_empirical_kernel(pts, hp, (256, 256), 3000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 * finite_width._BATCH_VALUE_BUDGET * 8


def test_point_dominated_sample_holds_one_jackknife_array(monkeypatch):
    # 200 points at width 2: each of the 107 batches of 74-75 networks holds
    # (batch, 200, 200) arrays of the budget's size. With one worker the peak
    # is two of them (a covariance and its factor) plus the jackknife's one
    # (batches, 200, 200) array of group sums, overwritten in place
    pts = constant_norm_points(200, 8, seed=23)
    hp = NetworkHyperparams(depth=1, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    plan = finite_width._batch_plan(8000, 200, 2)
    assert len(plan) == 107
    _pin_cores(monkeypatch, 1)
    tracemalloc.start()
    try:
        sample_empirical_kernel(pts, hp, (2,), 8000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    groups_bytes = len(plan) * 200 * 200 * 8
    assert peak <= groups_bytes + 2.2 * finite_width._BATCH_VALUE_BUDGET * 8


def test_batch_plan_splits_evenly_within_budget():
    budget = finite_width._BATCH_VALUE_BUDGET
    # a batch holds (points, width) activations and (points, points)
    # covariances per network: 200 points at width 2 are budgeted by points
    for n_networks, n_points, width in [(2000, 5, 1024), (3000, 20, 256), (7, 3, 8),
                                        (100_000, 5, 256), (5, 2, 10**7), (8000, 200, 2)]:
        plan = finite_width._batch_plan(n_networks, n_points, width)
        assert sum(plan) == n_networks
        assert max(plan) - min(plan) <= 1
        assert max(plan) == 1 or max(plan) * n_points * max(width, n_points) <= budget
        assert len(plan) >= min(finite_width._MIN_BATCHES, n_networks)
    assert finite_width._batch_plan(2000, 5, 1024) == [50] * 40


def test_average_units_reduces_scatter(tanh_table):
    pts = constant_norm_points(3, 8, seed=10)
    hp = NetworkHyperparams(depth=1, sigma_w2=1.2, sigma_b2=0.1, phi="tanh")
    k = build_kernel_matrix(pts, hp, tanh_table).kdd
    s1 = sample_empirical_kernel(pts, hp, (256,), 5_000, seed=11, average_units=1)
    s8 = sample_empirical_kernel(pts, hp, (256,), 5_000, seed=11, average_units=8)
    assert s8.stderr.mean() < s1.stderr.mean()
    assert np.all(np.abs(s8.empirical_k - k) <= 6 * s8.stderr)


# ---------------------------------------------------------------------------
# normality of outputs
# ---------------------------------------------------------------------------

def test_wide_network_outputs_near_gaussian():
    pts = constant_norm_points(3, 8, seed=12)
    hp = NetworkHyperparams(depth=1, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    stats = gaussianity_check(pts, hp, width=4096, n_networks=100_000, seed=13)
    assert np.all(np.abs(stats.excess_kurtosis) < 0.1)
    assert np.all(np.abs(stats.skewness) < 0.05)


def test_gaussianity_check_is_the_same_sample():
    # gaussianity_check is the equal-width sample_empirical_kernel, read for
    # its normality statistics: the same networks, the same four arrays
    pts = constant_norm_points(3, 8, seed=18)
    hp = NetworkHyperparams(depth=2, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    sample = sample_empirical_kernel(pts, hp, (16, 16), 4_000, seed=19)
    stats = gaussianity_check(pts, hp, 16, 4_000, seed=19)
    for name in ("empirical_k", "stderr", "skewness", "excess_kurtosis"):
        np.testing.assert_array_equal(getattr(sample, name), getattr(stats, name))
    assert sample.skewness.shape == sample.excess_kurtosis.shape == (3,)


def test_single_network_has_no_shape_and_no_warning():
    # one network: no spread to normalize by and a single jackknife group
    pts = constant_norm_points(3, 8, seed=20)
    hp = NetworkHyperparams(depth=1, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = sample_empirical_kernel(pts, hp, (8,), 1, seed=21)
    assert np.all(np.isfinite(sample.empirical_k))
    assert np.all(np.isnan(sample.stderr))
    assert not np.any(np.isfinite(sample.skewness))


def test_width_one_relu_is_non_gaussian():
    pts = constant_norm_points(3, 8, seed=14)
    hp = NetworkHyperparams(depth=1, sigma_w2=1.5, sigma_b2=0.1, phi="relu")
    stats = gaussianity_check(pts, hp, width=1, n_networks=50_000, seed=15)
    kurt_se = np.sqrt(24.0 / 50_000)
    assert np.all(np.abs(stats.excess_kurtosis) > 5 * kurt_se)


def test_bias_only_outputs_exactly_gaussian_at_any_width():
    pts = constant_norm_points(3, 8, seed=16)
    hp = NetworkHyperparams(depth=1, sigma_w2=0.0, sigma_b2=0.5, phi="relu")
    stats = gaussianity_check(pts, hp, width=1, n_networks=50_000, seed=17)
    kurt_se = np.sqrt(24.0 / 50_000)
    skew_se = np.sqrt(6.0 / 50_000)
    assert np.all(np.abs(stats.excess_kurtosis) < 5 * kurt_se)
    assert np.all(np.abs(stats.skewness) < 5 * skew_se)


# ---------------------------------------------------------------------------
# convergence in width (module-level view of the acceptance computation)
# ---------------------------------------------------------------------------

def test_width_convergence_monotone_averaged_over_seeds(mc_samples, mc_kernel_exact):
    # measured against the interpolation-free kernel; the bilinear table's
    # own ~1.6e-3 error would mask the width-1024 effect
    mean_dev = {}
    for width in MC_WIDTHS:
        devs = [np.abs(mc_samples[width, seed].empirical_k - mc_kernel_exact).max()
                for seed in MC_SEEDS]
        mean_dev[width] = float(np.mean(devs))
    assert mean_dev[64] > mean_dev[256] > mean_dev[1024]


def test_widest_sample_within_standard_errors(mc_samples, mc_kernel_exact):
    sample = mc_samples[1024, MC_SEEDS[0]]
    assert np.all(np.abs(sample.empirical_k - mc_kernel_exact) <= 5 * sample.stderr)


def test_lookup_kernel_tracks_exact_kernel(mc_kernel, mc_kernel_exact):
    # the pipeline kernel is itself within its documented bilinear accuracy
    assert np.abs(mc_kernel - mc_kernel_exact).max() <= 2e-3
