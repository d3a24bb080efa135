import tracemalloc

import numpy as np
import pytest

from nngp import (
    FactorizationError,
    KernelMatrix,
    NetworkHyperparams,
    PosteriorPrediction,
    build_kernel_matrix,
    calibration_bins,
    evaluate,
    posterior,
    sample_prior,
)

from nngp.regression import _PANEL

from .conftest import constant_norm_points
from .oracles import brute_posterior


def make_kernel(kdd, kxd, kxx_diag):
    kdd = np.asarray(kdd, dtype=np.float64)
    kxd = np.asarray(kxd, dtype=np.float64)
    return KernelMatrix(entries=np.hstack([kdd, kxd.T]), n_train=kdd.shape[0],
                        test_diag=np.asarray(kxx_diag, dtype=np.float64), layer=0)


def random_psd_instance(rng, n_train, n_test, d_out):
    n = n_train + n_test
    a = rng.standard_normal((n, n + 3))
    k = a @ a.T / (n + 3) + 1e-6 * np.eye(n)
    t = rng.standard_normal((n_train, d_out))
    kern = make_kernel(k[:n_train, :n_train], k[n_train:, :n_train],
                       np.diag(k)[n_train:])
    return kern, t


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_training_point_is_interpolated_at_zero_noise():
    q = 1.3
    k = make_kernel([[q]], [[q]], [q])
    pred = posterior(k, np.array([[2.5]]), noise=0.0)
    assert pred.mean[0, 0] == pytest.approx(2.5, rel=1e-12)
    assert pred.variance[0] == pytest.approx(0.0, abs=1e-12)


def test_uncorrelated_test_point_returns_prior():
    q = 2.0
    k = make_kernel(q * np.eye(3), np.zeros((1, 3)), [q])
    pred = posterior(k, np.array([[1.0], [2.0], [-1.0]]), noise=0.0)
    assert pred.mean[0, 0] == pytest.approx(0.0)
    assert pred.variance[0] == pytest.approx(q)


def test_two_point_system_by_hand():
    k = make_kernel([[2.0, 1.0], [1.0, 2.0]], [[1.0, 1.0]], [2.0])
    pred = posterior(k, np.array([[1.0], [-1.0]]), noise=0.0)
    assert pred.mean[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert pred.variance[0] == pytest.approx(2.0 - 2.0 / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_posterior_mean_linear_in_targets():
    rng = np.random.default_rng(0)
    for _ in range(10):
        k, _ = random_psd_instance(rng, 12, 4, 1)
        t1 = rng.standard_normal((12, 2))
        t2 = rng.standard_normal((12, 2))
        a, b = rng.standard_normal(2)
        lhs = posterior(k, a * t1 + b * t2, noise=1e-6).mean
        rhs = (a * posterior(k, t1, noise=1e-6).mean
               + b * posterior(k, t2, noise=1e-6).mean)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_posterior_variance_independent_of_targets():
    rng = np.random.default_rng(1)
    k, _ = random_psd_instance(rng, 15, 6, 1)
    v1 = posterior(k, rng.standard_normal((15, 3)), noise=1e-8).variance
    v2 = posterior(k, rng.standard_normal((15, 5)), noise=1e-8).variance
    np.testing.assert_array_equal(v1, v2)


def test_variance_never_exceeds_prior():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k, t = random_psd_instance(rng, 10, 5, 2)
        pred = posterior(k, t, noise=1e-8)
        assert np.all(pred.variance <= k.test_diag + 1e-10)
        assert np.all(pred.variance >= 0.0)


def test_adding_training_point_never_increases_variance():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((n + 1 + m, n + 1 + m + 3))
        k = a @ a.T / (n + 4 + m) + 1e-6 * np.eye(n + 1 + m)
        noise = 10.0 ** rng.uniform(-8, -2)
        kd = k[: n + 1, : n + 1]
        kx = k[n + 1:, : n + 1]
        diag = np.diag(k)[n + 1:]
        _, var_small = brute_posterior(kd[:n, :n], kx[:, :n], diag,
                                       np.zeros((n, 1)), noise)
        _, var_big = brute_posterior(kd, kx, diag, np.zeros((n + 1, 1)), noise)
        assert np.all(var_big <= var_small + 1e-12)
        pred = posterior(make_kernel(kd, kx, diag), np.zeros((n + 1, 1)), noise=noise)
        np.testing.assert_allclose(pred.variance, var_big, rtol=1e-8, atol=1e-12)


def test_posterior_matches_dense_inverse():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n_train = int(rng.integers(2, 50))
        n_test = int(rng.integers(1, 10))
        d_out = int(rng.integers(1, 5))
        k, t = random_psd_instance(rng, n_train, n_test, d_out)
        noise = 10.0 ** rng.uniform(-8, -2)
        pred = posterior(k, t, noise=noise)
        mean_ref, var_ref = brute_posterior(k.kdd, k.kxd, k.test_diag, t, noise)
        np.testing.assert_allclose(pred.mean, mean_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(pred.variance, var_ref, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# noise escalation
# ---------------------------------------------------------------------------

def test_noise_escalates_on_singular_kernel():
    # duplicated training rows make K_DD exactly singular at zero noise
    kdd = np.ones((3, 3))
    k = make_kernel(kdd, [[1.0, 1.0, 1.0]], [1.0])
    pred = posterior(k, np.array([[1.0], [1.0], [1.0]]), noise=0.0)
    assert pred.noise_used > 0.0
    assert pred.mean[0, 0] == pytest.approx(1.0, rel=1e-4)


def test_noise_escalation_cap_raises_with_final_noise():
    k = make_kernel(-np.eye(2), [[0.0, 0.0]], [1.0])
    with pytest.raises(FactorizationError) as err:
        posterior(k, np.zeros((2, 1)), noise=1e-10)
    assert err.value.noise == pytest.approx(1e-10 * 10.0 ** 10)


def test_noise_used_recorded_without_escalation():
    k = make_kernel(np.eye(2), [[0.5, 0.5]], [1.0])
    pred = posterior(k, np.ones((2, 1)), noise=0.25)
    assert pred.noise_used == 0.25


def test_posterior_without_test_points(tanh_table):
    hp = NetworkHyperparams(depth=2, sigma_w2=1.3, sigma_b2=0.25, phi="tanh")
    k = build_kernel_matrix(constant_norm_points(12, 8, seed=15), hp, tanh_table)
    assert k.n_test == 0
    pred = posterior(k, np.ones((12, 4)), hp)
    assert pred.mean.shape == (0, 4)
    assert pred.variance.shape == (0,)
    assert pred.noise_used == hp.noise
    assert pred.clamped == 0


@pytest.mark.parametrize("sigma_w2", [1.3, 0.0])
def test_posterior_leaves_kernel_bitwise_unchanged(sigma_w2, tanh_table):
    # each attempt factors its own copy of K_DD in place. The bias-only
    # kernel (sigma_w2 = 0) is exactly rank one, so zero noise fails and the
    # retry has to start again from the untouched kernel.
    hp = NetworkHyperparams(depth=2, sigma_w2=sigma_w2, sigma_b2=0.25, phi="tanh")
    k = build_kernel_matrix(constant_norm_points(40, 8, seed=12), hp, tanh_table,
                            constant_norm_points(10, 8, seed=13))
    t = np.random.default_rng(14).standard_normal((40, 3))
    before = k.entries.tobytes()
    pred = posterior(k, t, noise=0.0)
    assert k.entries.tobytes() == before
    assert (pred.noise_used > 0.0) == (sigma_w2 == 0.0)
    direct = posterior(k, t, noise=pred.noise_used)
    assert pred.mean.tobytes() == direct.mean.tobytes()
    assert pred.variance.tobytes() == direct.variance.tobytes()


def test_posterior_peak_memory_within_two_train_blocks(tanh_table):
    # one Fortran-order copy of K_DD factored in place, plus the n_train x
    # n_test solve; an identity matrix or a shifted copy would exceed this
    hp = NetworkHyperparams(depth=3, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    k = build_kernel_matrix(constant_norm_points(600, 20, seed=8), hp, tanh_table,
                            constant_norm_points(200, 20, seed=9))
    t = np.random.default_rng(10).standard_normal((600, 10))
    tracemalloc.start()
    try:
        posterior(k, t, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * k.kdd.nbytes


def test_posterior_factors_in_the_kernel_buffer(tanh_table):
    # the factor lives in K_DD's own lower triangle: the extra memory is one
    # n_train x panel solve block, one n_train x panel finiteness mask and
    # the outputs, with no room for a second n_train^2 float array or mask
    hp = NetworkHyperparams(depth=3, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    n_train, n_test, d_out = 1500, 1200, 10
    k = build_kernel_matrix(constant_norm_points(n_train, 20, seed=8), hp, tanh_table,
                            constant_norm_points(n_test, 20, seed=9))
    t = np.random.default_rng(10).standard_normal((n_train, d_out))
    tracemalloc.start()
    try:
        posterior(k, t, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    solve_block = 8 * n_train * min(_PANEL, n_test)
    masks = n_train * _PANEL
    outputs = 8 * ((n_train + n_test) * d_out + 2 * n_test)
    assert peak <= solve_block + masks + outputs
    assert solve_block + masks + outputs < k.kdd.nbytes


@pytest.mark.parametrize("where", ["kdd", "cross", "targets"])
def test_non_finite_input_raises_and_leaves_kernel_unchanged(where, tanh_table):
    # the one finiteness scan per input stands in for scipy's rescans; a NaN
    # in the kernel sits past the scan's first panel of columns
    hp = NetworkHyperparams(depth=2, sigma_w2=1.3, sigma_b2=0.25, phi="tanh")
    n_train, n_test = _PANEL + 20, _PANEL + 10
    built = build_kernel_matrix(constant_norm_points(n_train, 8, seed=12), hp, tanh_table,
                                constant_norm_points(n_test, 8, seed=13))
    t = np.random.default_rng(14).standard_normal((n_train, 3))
    e = built.entries.copy()
    if where == "kdd":
        e[3, _PANEL + 5] = np.nan
    elif where == "cross":
        e[3, n_train + _PANEL + 5] = np.nan
    else:
        t[n_train - 1, 2] = np.inf
    k = KernelMatrix(e, n_train, built.test_diag, built.layer)
    before = k.entries.tobytes()
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        posterior(k, t, hp)
    assert k.entries.tobytes() == before


@pytest.mark.parametrize("noise", [np.nan, np.inf, -1.0])
def test_noise_must_be_finite_and_non_negative(noise):
    k = make_kernel(np.eye(2), [[0.5, 0.5]], [1.0])
    before = k.entries.tobytes()
    with pytest.raises(ValueError, match="noise must be finite and >= 0"):
        posterior(k, np.ones((2, 1)), noise=noise)
    assert k.entries.tobytes() == before


def test_posterior_restores_the_kernel_after_a_late_failed_pivot(tanh_table):
    # the last training point duplicates the first with its variance lowered,
    # so every attempt below noise ~1e-6 fails at the last pivot, after the
    # factor has overwritten all but one column of the lower triangle
    hp = NetworkHyperparams(depth=2, sigma_w2=1.3, sigma_b2=0.25, phi="tanh")
    built = build_kernel_matrix(constant_norm_points(40, 8, seed=12), hp, tanh_table,
                                constant_norm_points(10, 8, seed=13))
    e = built.entries.copy()
    e[39] = e[0]
    e[:, 39] = e[:, 0]
    e[39, 39] *= 1.0 - 1e-6
    k = KernelMatrix(e, 40, built.test_diag, built.layer)
    t = np.random.default_rng(14).standard_normal((40, 3))
    before = k.entries.tobytes()
    pred = posterior(k, t, noise=0.0)
    assert pred.noise_used > 1e-8
    assert k.entries.tobytes() == before
    direct = posterior(k, t, noise=pred.noise_used)
    assert pred.mean.tobytes() == direct.mean.tobytes()
    assert pred.variance.tobytes() == direct.variance.tobytes()


def test_kernel_blocks_are_column_contiguous(tanh_table):
    # posterior factors kdd in place and solves against the cross columns
    # where they sit; a C-order [K_DD | K_D,test] is copied into that layout
    hp = NetworkHyperparams(depth=2, sigma_w2=1.3, sigma_b2=0.25, phi="tanh")
    built = build_kernel_matrix(constant_norm_points(40, 8, seed=12), hp, tanh_table,
                                constant_norm_points(10, 8, seed=13))
    c_order = np.ascontiguousarray(np.hstack([built.kdd, built.kxd.T]))
    assert not c_order.flags.f_contiguous
    stacked = KernelMatrix(c_order, 40, built.test_diag, built.layer)
    for k in (built, stacked):
        assert k.kdd.flags.f_contiguous
        assert k.entries[:, k.n_train:].flags.f_contiguous
    assert np.array_equal(stacked.entries, built.entries)
    t = np.random.default_rng(14).standard_normal((40, 3))
    a, b = posterior(built, t, hp), posterior(stacked, t, hp)
    assert a.mean.tobytes() == b.mean.tobytes()
    assert a.variance.tobytes() == b.variance.tobytes()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def one_hot(labels, d_out=10):
    t = np.full((len(labels), d_out), -0.1)
    t[np.arange(len(labels)), labels] = 0.9
    return t


def test_evaluate_exact_prediction():
    t = one_hot([3, 1, 4])
    pred = PosteriorPrediction(mean=t.copy(), variance=np.zeros(3), noise_used=0.0)
    m = evaluate(pred, t)
    assert m["mse"] == 0.0 and m["accuracy"] == 1.0


def test_evaluate_zero_mean_prediction():
    # all-zero means: mse is the encoding energy, argmax ties go to class 0
    labels = [0, 3, 7, 0]
    t = one_hot(labels)
    pred = PosteriorPrediction(mean=np.zeros((4, 10)), variance=np.ones(4), noise_used=0.0)
    m = evaluate(pred, t)
    assert m["mse"] == pytest.approx((0.9 ** 2 + 9 * 0.1 ** 2) / 10)
    assert m["accuracy"] == pytest.approx(0.5)  # the two label-0 points


def test_evaluate_single_point():
    t = one_hot([0])
    pred = PosteriorPrediction(mean=t.copy(), variance=np.zeros(1), noise_used=0.0)
    assert evaluate(pred, t)["accuracy"] == 1.0


def test_evaluate_shape_mismatch():
    pred = PosteriorPrediction(mean=np.zeros((2, 10)), variance=np.zeros(2), noise_used=0.0)
    with pytest.raises(ValueError, match="shape"):
        evaluate(pred, one_hot([1]))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibration_identical_variances():
    t = one_hot([0, 1, 2, 3])
    pred = PosteriorPrediction(mean=np.zeros((4, 10)), variance=np.full(4, 0.3),
                               noise_used=0.0)
    bins = calibration_bins(pred, t, bin_size=2)
    assert [b[0] for b in bins] == [pytest.approx(0.3)] * 2


def test_calibration_single_bin_equals_overall_mse():
    rng = np.random.default_rng(5)
    t = one_hot(rng.integers(0, 10, size=8))
    mean = rng.standard_normal((8, 10))
    pred = PosteriorPrediction(mean=mean, variance=rng.uniform(0, 1, 8), noise_used=0.0)
    bins = calibration_bins(pred, t, bin_size=8)
    assert len(bins) == 1
    assert bins[0][1] == pytest.approx(evaluate(pred, t)["mse"])


def test_calibration_bin_size_validation():
    pred = PosteriorPrediction(mean=np.zeros((2, 2)), variance=np.zeros(2), noise_used=0.0)
    with pytest.raises(ValueError, match="bin_size"):
        calibration_bins(pred, np.zeros((2, 2)), 0)


def test_calibration_on_well_specified_gp(tanh_table):
    # targets drawn from the model's own prior: binned predicted variance
    # should track binned realized error closely
    hp = NetworkHyperparams(depth=2, sigma_w2=1.6, sigma_b2=0.2, phi="tanh", noise=1e-4)
    x = constant_norm_points(1500, 8, seed=12)
    n_train, n_test = 400, 1100
    k_all = build_kernel_matrix(x, hp, tanh_table)
    draws = sample_prior(x, hp, tanh_table, 10, seed=13)  # (10, 1500)
    noise = np.random.default_rng(14).standard_normal(draws.shape) * np.sqrt(hp.noise)
    targets = (draws + noise).T  # (1500, 10)
    kern = make_kernel(k_all.kdd[:n_train, :n_train], k_all.kdd[n_train:, :n_train],
                       np.diag(k_all.kdd)[n_train:])
    pred = posterior(kern, targets[:n_train], hp)
    bins = calibration_bins(pred, targets[n_train:], bin_size=100)
    predicted = np.array([b[0] for b in bins])
    realized = np.array([b[1] for b in bins])
    r = np.corrcoef(predicted, realized)[0, 1]
    assert r > 0.9
