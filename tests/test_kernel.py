import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dtrttf

from nngp import (
    Activation,
    NetworkHyperparams,
    TableRangeError,
    analytic_relu_step,
    angular_profile,
    build_kernel_matrix,
    diagnose,
    evaluate,
    full_kernel,
    iter_kernel_layers,
    posterior,
    sample_prior,
)
from nngp.activations import RELU, TANH
from nngp.kernel import (_BLOCK_ENTRIES, _PANEL_ROWS, _TRANSFER_COSINES,
                         _common_squared_norm, _compose, _layer_map, _mirror_lower, _Plan)

from .conftest import constant_norm_points
from .oracles import (
    arccos_kernel,
    base_kernel,
    gh_expectation,
    interp_kernel,
    min_eigenvalue,
    per_entry_kernel,
    symmetry_error,
)


def hp_relu(depth=1, sw2=1.0, sb2=0.0):
    return NetworkHyperparams(depth=depth, sigma_w2=sw2, sigma_b2=sb2, phi="relu")


def hp_tanh(depth=1, sw2=1.0, sb2=0.0):
    return NetworkHyperparams(depth=depth, sigma_w2=sw2, sigma_b2=sb2, phi="tanh")


# ---------------------------------------------------------------------------
# base case
# ---------------------------------------------------------------------------

def test_base_kernel_at_convention_norm():
    # ||x||^2 = d_in makes the self-covariance sigma_b^2 + sigma_w^2
    x = constant_norm_points(1, 12, seed=0)[0]
    hp = NetworkHyperparams(depth=1, sigma_w2=1.6, sigma_b2=0.1, phi="relu")
    assert base_kernel(x, x, hp) == pytest.approx(1.7, abs=1e-12)


def test_base_kernel_orthogonal_inputs_give_bias_variance():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert base_kernel(x, y, hp_relu(sw2=3.7, sb2=0.25)) == pytest.approx(0.25)


def test_base_kernel_zero_weight_variance():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 7))
    assert base_kernel(x, y, hp_relu(sw2=0.0, sb2=0.4)) == pytest.approx(0.4)


def test_base_kernel_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        base_kernel(np.ones(3), np.ones(4), hp_relu())


# ---------------------------------------------------------------------------
# layer step: closed forms
# ---------------------------------------------------------------------------

def test_analytic_relu_step_theta_zero():
    hp = hp_relu(sw2=1.7, sb2=0.3)
    q = 5.0
    assert analytic_relu_step(q, q, q, hp) == pytest.approx(0.3 + 1.7 * q / 2.0, rel=1e-14)


def test_analytic_relu_step_theta_right_angle():
    assert analytic_relu_step(0.0, 4.0, 4.0, hp_relu(sw2=1.0)) == pytest.approx(
        4.0 / (2.0 * np.pi), rel=1e-14
    )


def test_analytic_relu_step_theta_pi():
    assert analytic_relu_step(-1.0, 1.0, 1.0, hp_relu(sw2=2.0)) == pytest.approx(0.0, abs=1e-15)


def test_analytic_relu_step_rejects_negative_variance():
    with pytest.raises(ValueError, match="non-negative"):
        analytic_relu_step(0.0, -1.0, 1.0, hp_relu())


def test_analytic_relu_step_zero_variance_is_bias():
    # a zero-variance pre-activation is 0, and relu(0) = 0 is a factor of F
    assert analytic_relu_step(0.0, 0.0, 1.0, hp_relu(sw2=1.7, sb2=0.3)) == 0.3


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

def test_one_layer_orthogonal_pair_matches_composed_oracles(relu_table):
    # compose base (dot product 0) with the step closed forms
    x = np.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, 1.0]])
    k = build_kernel_matrix(x, hp_relu(depth=1, sw2=1.0, sb2=0.0), relu_table)
    assert k.kdd[0, 0] == pytest.approx(0.5, rel=1e-6)
    assert k.kdd[0, 1] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-3)


def test_zero_weight_variance_collapses_to_bias(relu_table):
    x = constant_norm_points(4, 6, seed=2)
    k = build_kernel_matrix(x, hp_relu(depth=3, sw2=0.0, sb2=0.35), relu_table)
    np.testing.assert_allclose(k.kdd, 0.35, rtol=1e-12)


def test_diagonal_homogeneity_every_layer(tanh_table):
    x = constant_norm_points(6, 10, seed=3)
    hp = hp_tanh(depth=5, sw2=1.4, sb2=0.2)
    for k in iter_kernel_layers(x, hp, tanh_table):
        d = np.diag(k.kdd)
        np.testing.assert_allclose(d, d[0], rtol=1e-12)


@pytest.mark.parametrize("phi,depth", [("relu", 5), ("relu", 20), ("tanh", 5), ("tanh", 20)])
def test_kernel_matrix_symmetric_psd_at_desk_scale(phi, depth, relu_table, tanh_table):
    table = relu_table if phi == "relu" else tanh_table
    sw2 = 1.2 if phi == "relu" else 1.6
    hp = NetworkHyperparams(depth=depth, sigma_w2=sw2, sigma_b2=0.15, phi=phi)
    for seed in (0, 1):
        x = constant_norm_points(50, 12, seed=seed)
        k = build_kernel_matrix(x, hp, table)
        assert symmetry_error(k) <= 1e-12
        assert np.all(np.diag(k.kdd) > 0.0)
        assert min_eigenvalue(k) >= -1e-8 * float(np.diag(k.kdd).max())


def test_train_test_blocks_and_cost_shape(tanh_table):
    x_train = constant_norm_points(8, 10, seed=4)
    x_test = constant_norm_points(5, 10, seed=5)
    hp = hp_tanh(depth=2, sw2=1.0, sb2=0.1)
    k = build_kernel_matrix(x_train, hp, tanh_table, x_test)
    assert k.entries.shape == (8, 13)
    assert k.kdd.shape == (8, 8)
    assert k.kxd.shape == (5, 8)
    assert k.test_diag.shape == (5,)
    # test diagonal equals the shared layer variance
    np.testing.assert_allclose(k.test_diag, k.kdd[0, 0], rtol=1e-12)
    # cross block consistent with an all-train build over the pooled points
    full = build_kernel_matrix(np.vstack([x_train, x_test]), hp, tanh_table)
    np.testing.assert_allclose(k.kxd, full.kdd[8:, :8], rtol=1e-12)


def test_build_peak_memory_is_a_few_kernel_buffers(tanh_table):
    # the Gram buffer the kernel is written into plus a few row-block
    # temporaries of 512 KiB each: 1.70 buffers here, bound 1.8; a second
    # n^2 buffer (a per-layer copy, a triangle mask or gather) exceeds it
    x_train = constant_norm_points(600, 20, seed=8)
    x_test = constant_norm_points(200, 20, seed=9)
    tracemalloc.start()
    try:
        k = build_kernel_matrix(x_train, hp_tanh(depth=3, sw2=1.5, sb2=0.1), tanh_table,
                                x_test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * k.entries.nbytes


def test_depth_flattening_in_ordered_regime(tanh_table):
    # ordered tanh: off-diagonal distance to the diagonal shrinks with depth
    x = constant_norm_points(8, 10, seed=6)
    hp = hp_tanh(depth=15, sw2=0.8, sb2=0.3)
    gaps = []
    for k in iter_kernel_layers(x, hp, tanh_table):
        off = k.kdd[~np.eye(8, dtype=bool)]
        gaps.append(float(np.abs(off - k.kdd[0, 0]).max()))
    tail = gaps[3:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert tail[-1] < 0.05 * gaps[0]


def test_variance_escaping_table_names_layer(small_relu_table, small_tanh_table):
    # q grows 1.5x per layer from 3.1 and escapes s_max = 16 within depth
    x = constant_norm_points(3, 8, seed=7)
    hp = hp_relu(depth=30, sw2=3.0, sb2=0.1)
    with pytest.raises(TableRangeError, match="layer"):
        build_kernel_matrix(x, hp, small_relu_table)
    # q0 = sb2 + sw2 = 20.1 on unit-convention inputs is past s_max already
    with pytest.raises(TableRangeError, match="layer 0"):
        build_kernel_matrix(x, hp_tanh(depth=2, sw2=20.0, sb2=0.1), small_tanh_table)


def test_profile_base_variance_past_table_names_layer_zero(small_tanh_table):
    # the base variance sb2 + sw2 = 16.5 is past s_max = 16: the profile
    # reports it as the matrix does, before any layer is stepped
    with pytest.raises(TableRangeError, match="layer 0: base variance"):
        angular_profile(hp_tanh(depth=2, sw2=16.0, sb2=0.5), small_tanh_table)


@pytest.mark.parametrize("depth", [1, 20, 100])
@pytest.mark.parametrize("phi", ["relu", "tanh"])
def test_layer_variance_is_the_scalar_recursion_bitwise(phi, depth, relu_table, tanh_table):
    # q_l is the composed row's entry at cosine 1; it equals the variance
    # recursion q <- sb2 + sw2 F(q, q) run on its own, bit for bit
    table = relu_table if phi == "relu" else tanh_table
    hp = NetworkHyperparams(depth=depth, sigma_w2=1.45, sigma_b2=0.28, phi=phi)
    x = constant_norm_points(9, 5, seed=31)
    q = hp.sigma_b2 + hp.sigma_w2 * _common_squared_norm(x) / 5
    for k in iter_kernel_layers(x[:6], hp, table, x[6:]):
        if k.layer > 0:
            q = _layer_map(q, q, hp, table, k.layer)
        assert np.all(np.diag(k.kdd) == q) and np.all(k.test_diag == q)
    if phi == "relu":
        q = hp.sigma_b2 + hp.sigma_w2
        variances = angular_profile(hp, None).values[:, 0]
        for layer in range(hp.depth + 1):
            if layer > 0:
                q = _layer_map(q, q, hp, None, layer)
            assert variances[layer] == q


def test_norm_spread_within_tolerance_clamps_to_diagonal(relu_table):
    # squared norms 5e-7 apart pass the common-norm check (1e-6); against the
    # mean norm the long parallel pair has cosine 1 + 8e-8, which clamps to
    # q_L, and (x, x) has cosine 1 - 1.7e-7, which sits just below it
    x = np.array([2.0, 0.0, 0.0, 0.0])
    points = np.array([x, x, np.sqrt(1.0 + 5e-7) * x])
    k = build_kernel_matrix(points, hp_relu(depth=3, sw2=1.5, sb2=0.1), relu_table)
    q = k.kdd[0, 0]
    assert np.all(k.entries <= q) and np.all(k.entries >= q * (1.0 - 1e-6))
    assert q == pytest.approx(0.90625, rel=1e-6)


@pytest.mark.parametrize("depth,tol", [(20, 0.05), (40, 0.2)])
def test_deep_relu_kernel_tracks_arccosine_gaps(depth, tol, blob_dataset, relu_table):
    # at depth the information sits in the gaps q_L - K_L, which shrink toward
    # the end node c = 1; the table must keep them, entry by entry, and the
    # posterior must classify as the closed-form kernel does
    hp = hp_relu(depth=depth, sw2=1.45, sb2=0.28)
    x_train, x_valid = blob_dataset.train_inputs, blob_dataset.valid_inputs
    k = build_kernel_matrix(x_train, hp, relu_table, x_valid)
    ref = arccos_kernel(x_train, x_valid, hp)
    off = np.ones(k.entries.shape, dtype=bool)
    np.fill_diagonal(off, False)
    gap = k.kdd[0, 0] - k.entries[off]
    gap_ref = ref.kdd[0, 0] - ref.entries[off]
    assert np.all(gap_ref > 0.0)
    assert np.max(np.abs(gap - gap_ref) / gap_ref) <= tol
    targets, truth = blob_dataset.train_targets, blob_dataset.valid_targets
    acc = evaluate(posterior(k, targets, hp), truth)["accuracy"]
    acc_ref = evaluate(posterior(ref, targets, hp), truth)["accuracy"]
    assert acc == pytest.approx(acc_ref, abs=0.01)
    assert acc_ref >= 0.9


def test_tanh_sweep_cell_kernel_is_positive_definite(blob_dataset, tanh_table):
    # an ordered depth-20 sweep cell, whose correlations approach 1: the
    # kernel stays positive definite, so the posterior needs no extra noise
    hp = hp_tanh(depth=20, sw2=2.55, sb2=1.0)
    k = build_kernel_matrix(blob_dataset.train_inputs, hp, tanh_table,
                            blob_dataset.valid_inputs)
    assert min_eigenvalue(k) > 0.0
    pred = posterior(k, blob_dataset.train_targets, hp)
    assert pred.noise_used == hp.noise == 1e-10
    assert pred.clamped == 0


@pytest.mark.parametrize("phi,sw2,sb2,depth", [
    ("relu", 1.45, 0.28, 1), ("relu", 1.45, 0.28, 10), ("relu", 1.45, 0.28, 20),
    ("relu", 2.0, 0.0, 20), ("tanh", 1.5, 0.1, 3), ("tanh", 1.5, 0.1, 20),
    ("tanh", 3.1, 1.0, 32), ("tanh", 5.0, 0.05, 100),
])
def test_kernel_matches_per_entry_recursion(phi, sw2, sb2, depth, blob_dataset,
                                            relu_table, tanh_table):
    # reading the kernel off the Gram through the composed transfer row
    # against advancing every entry through every layer, on the same table;
    # errors are relative to the largest oracle gap q_L - K_L and entry
    table = relu_table if phi == "relu" else tanh_table
    hp = NetworkHyperparams(depth=depth, sigma_w2=sw2, sigma_b2=sb2, phi=phi)
    x_train = blob_dataset.train_inputs[:500]
    x_test = blob_dataset.test_inputs[:200]
    k = build_kernel_matrix(x_train, hp, table, x_test).entries
    ref, q = per_entry_kernel(x_train, x_test, hp, table)
    off = np.ones(k.shape, dtype=bool)
    np.fill_diagonal(off, False)
    gap, gap_ref = k[0, 0] - k[off], q - ref[off]
    collapsed = gap_ref == 0.0
    assert np.all(gap[collapsed] == 0.0)
    assert np.abs(gap - gap_ref).max() <= 2e-5 * np.abs(gap_ref).max()
    assert np.abs(k - ref).max() <= 1e-5 * np.abs(ref).max()


def _near_duplicates(n, d_in, seed):
    # each point next to a copy turned by ~1e-7 rad: 1 - c ~ 1e-14
    x = constant_norm_points(n, d_in, seed)
    y = x + 1e-7 * constant_norm_points(n, d_in, seed + 1)
    y *= np.sqrt(d_in / np.einsum("ij,ij->i", y, y))[:, None]
    return np.vstack([x, y])


def _arc(n, max_angle):
    # points on a great circle, angles spaced finer toward 0: pairwise 1 - c
    # covers (0, max_angle^2 / 2], across the cut where the nodes crowd
    theta = max_angle * np.linspace(0.0, 1.0, n) ** 2
    x = np.zeros((n, 4))
    x[:, 0], x[:, 1] = 2.0 * np.cos(theta), 2.0 * np.sin(theta)
    return x


_READ_OFF_CASES = {
    # name: (phi, sw2, sb2, depth, table fixture, inputs(blob_dataset) -> (train, test))
    "relu_depth20_blobs": ("relu", 1.45, 0.28, 20, "relu_table",
                           lambda ds: (ds.train_inputs, ds.valid_inputs)),
    "tanh_small_table": ("tanh", 1.6, 0.15, 20, "small_tanh_table",
                         lambda ds: (ds.train_inputs[:300], ds.valid_inputs[:200])),
    "no_test_points": ("tanh", 2.55, 1.0, 20, "tanh_table",
                       lambda ds: (ds.train_inputs[:150], None)),
    "near_duplicates": ("relu", 1.45, 0.28, 20, "relu_table",
                        lambda ds: (_near_duplicates(40, 20, 12), constant_norm_points(7, 20, 14))),
    "norm_spread_clamps": ("relu", 1.5, 0.1, 3, "relu_table",
                           lambda ds: (np.array([[2.0, 0, 0, 0], [2.0, 0, 0, 0],
                                                 [2.0 * np.sqrt(1.0 + 5e-7), 0, 0, 0]]), None)),
    "cosines_near_cut": ("relu", 1.45, 0.28, 20, "relu_table",
                         lambda ds: (_arc(300, 0.06), None)),
    "zero_inputs": ("relu", 1.5, 0.1, 3, "relu_table",
                    lambda ds: (np.zeros((4, 3)), np.zeros((2, 3)))),
    "one_train_point": ("relu", 1.45, 0.28, 5, "relu_table",
                        lambda ds: (ds.train_inputs[:1], ds.valid_inputs[:9])),
    # numpy's matrix-vector path differs from dgemm in the last bits here
    "one_train_point_many_tests": ("tanh", 1.5, 0.1, 5, "tanh_table",
                                   lambda ds: (ds.train_inputs[:1], ds.valid_inputs)),
    "ragged_last_block": ("tanh", 1.5, 0.1, 5, "tanh_table",
                          lambda ds: (ds.train_inputs[:797], ds.valid_inputs)),
    # squared norm ~3e-320: the bucket width overflows, so one bucket holds
    # every node and entry
    "subnormal_norms": ("relu", 1.45, 0.28, 5, "relu_table",
                        lambda ds: (1e-160 * constant_norm_points(30, 3, 15),
                                    1e-160 * constant_norm_points(7, 3, 16))),
}


@pytest.mark.parametrize("case", list(_READ_OFF_CASES))
def test_read_off_is_bitwise_np_interp(case, request, blob_dataset):
    # the O(1) bracket, row blocks and mirroring against np.interp over the
    # whole Gram: the same composition, so every entry must be the same float
    phi, sw2, sb2, depth, table_name, inputs = _READ_OFF_CASES[case]
    hp = NetworkHyperparams(depth=depth, sigma_w2=sw2, sigma_b2=sb2, phi=phi)
    table = request.getfixturevalue(table_name)
    x_train, x_test = inputs(blob_dataset)
    k = build_kernel_matrix(x_train, hp, table, x_test)
    assert np.array_equal(k.entries, interp_kernel(x_train, x_test, hp, table))
    assert np.array_equal(k.kdd, k.kdd.T)
    if case == "near_duplicates":
        n = x_train.shape[0] // 2
        assert np.all(1.0 - np.einsum("ij,ij->i", x_train[:n], x_train[n:]) / 20 <= 1e-12)
    if case == "norm_spread_clamps":
        assert (x_train[0] @ x_train[2]) / np.mean(np.sum(x_train ** 2, axis=1)) >= 1.0
        assert k.kdd[0, 2] == k.kdd[0, 0]


@pytest.mark.parametrize("case", list(_READ_OFF_CASES))
def test_kept_plan_reads_off_build_kernel_matrix_bitwise(case, request, blob_dataset):
    # a kept plan gathers from the intervals and offsets it located once; read
    # twice, into new buffers, it gives the single build's floats both times
    phi, sw2, sb2, depth, table_name, inputs = _READ_OFF_CASES[case]
    hp = NetworkHyperparams(depth=depth, sigma_w2=sw2, sigma_b2=sb2, phi=phi)
    table = request.getfixturevalue(table_name)
    x_train, x_test = inputs(blob_dataset)
    plan = _Plan(x_train, x_test, keep=True)
    first = next(plan.read_off(hp, table, [depth]))
    again = next(plan.read_off(hp, table, [depth]))
    k = build_kernel_matrix(x_train, hp, table, x_test)
    assert np.array_equal(first.entries, k.entries)
    assert np.array_equal(again.entries, k.entries)
    assert np.array_equal(first.test_diag, k.test_diag)


@pytest.mark.parametrize("keep", [False, True], ids=["fresh_plan", "kept_plan"])
@pytest.mark.parametrize("n_train", [1, 2, 3, 8, 301, 600])
def test_packed_block_is_rfp_of_np_interp(n_train, keep, blob_dataset, relu_table):
    # the train block is stored as LAPACK's RFP lower triangle of the
    # np.interp kernel, both parities, inside one flat block of the read-off
    # and across several; a block a factor consumed is read off again with
    # the same bits
    assert _BLOCK_ENTRIES < 301 * 302 // 2
    hp = hp_relu(depth=20, sw2=1.45, sb2=0.28)
    x_train, x_test = blob_dataset.train_inputs[:n_train], blob_dataset.valid_inputs[:50]
    k = next(_Plan(x_train, x_test, keep=keep).read_off(hp, relu_table, [hp.depth]))
    ref = interp_kernel(x_train, x_test, hp, relu_table)
    packed, info = dtrttf(np.asfortranarray(ref[:, :n_train]), transr="N", uplo="L")
    assert info == 0
    assert np.array_equal(k._packed, packed)
    assert np.array_equal(k.kxd, ref[:, n_train:].T)
    k._factor_block().fill(np.nan)
    assert np.array_equal(k.entries, ref)
    assert np.array_equal(k._packed, packed)


def test_build_peaks_at_packed_cross_and_one_gram_panel(tanh_table):
    # no n_train^2 array: the packed triangle, the cross block, one Gram
    # panel, and under 2 MiB of block buffers and tables beside them
    n_train, n_test = 1500, 1200
    x_train = constant_norm_points(n_train, 20, seed=8)
    x_test = constant_norm_points(n_test, 20, seed=9)
    tracemalloc.start()
    try:
        build_kernel_matrix(x_train, hp_tanh(depth=3, sw2=1.5, sb2=0.1), tanh_table, x_test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    packed = 8 * n_train * (n_train + 1) // 2
    cross = 8 * n_train * n_test
    panel = 8 * n_train * _PANEL_ROWS
    assert peak <= packed + cross + panel + 2 * 2**20


def test_build_without_test_points_peaks_at_packed_and_no_gram_panel(tanh_table):
    # the train Gram is formed in the packed array itself: beside it only the
    # plan's tables and block buffers, under 2 MiB, where a 1500 x 256 Gram
    # panel alone would take 2.9 MiB
    n_train = 1500
    x_train = constant_norm_points(n_train, 20, seed=8)
    tracemalloc.start()
    try:
        build_kernel_matrix(x_train, hp_tanh(depth=3, sw2=1.5, sb2=0.1), tanh_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_train * (n_train + 1) // 2 + 2 * 2**20


def _kept_plan_memory(n_train, n_test, d_in):
    """(held, peak) bytes of building a kept plan, and the plan."""
    x_train = constant_norm_points(n_train, d_in, seed=8)
    x_test = constant_norm_points(n_test, d_in, seed=9)
    tracemalloc.start()
    try:
        plan = _Plan(x_train, x_test, keep=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak, plan


def test_kept_plan_memory_is_its_offsets_and_intervals():
    # a kept plan holds each stored entry's offset and interval, 16 bytes,
    # 183.1 MiB here, and while it locates them block buffers beside: it
    # holds 184.0 MiB and peaks at 187.2. The bounds allow 2% over 183.8
    # and 195.4 MiB, room for one 7.8 MiB Gram panel beside
    held, peak, _ = _kept_plan_memory(4000, 1000, 50)
    assert held <= 187 * 2**20
    assert peak <= 199 * 2**20
    # it holds the entries of the packed triangle and the cross block and
    # nothing more: no upper half of a diagonal square, which at 300 points
    # would add 44% of the triangle's entries. Beside them, the constant
    # tables and 64 KiB for the tail entries and the blocks' headers
    n_train, n_test = 300, 200
    held, _, plan = _kept_plan_memory(n_train, n_test, 20)
    tables = sum(a.nbytes for a in (plan.first, plan.nodes, plan.start, plan.diagonal))
    entries = n_train * (n_train + 1) // 2 + n_train * n_test
    assert held <= 16 * entries + tables + 2**16


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 773])
def test_mirror_lower_copies_the_strict_lower_triangle(n, order):
    a = np.asarray(np.random.default_rng(n).standard_normal((n, n)), order=order)
    expected = np.tril(a) + np.tril(a, -1).T
    _mirror_lower(a)
    assert np.array_equal(a, expected)


def test_every_layer_is_bitwise_np_interp(blob_dataset, tanh_table):
    hp = hp_tanh(depth=6, sw2=1.6, sb2=0.15)
    x_train, x_test = blob_dataset.train_inputs[:200], blob_dataset.valid_inputs[:50]
    for k in iter_kernel_layers(x_train, hp, tanh_table, x_test):
        assert np.array_equal(k.entries,
                              interp_kernel(x_train, x_test, hp, tanh_table, k.layer))


@pytest.mark.parametrize("sw2,sb2,depth", [(1.45, 0.28, 20), (2.0, 0.0, 20), (2.0, 0.0, 100)])
def test_transfer_nodes_resolve_gaps_near_unit_cosine(sw2, sb2, depth):
    # closed-form ReLU: the composed row interpolated at base cosines c0 with
    # 1 - c0 in [1e-9, 1] against composing at c0 itself. Gaps shrink to
    # ~2e-12, where one ulp of q_L is ~1e-4 of the gap, so a few ulps of
    # rounding are allowed on top of the relative bound.
    hp = hp_relu(depth=depth, sw2=sw2, sb2=sb2)
    c0 = 1.0 - np.geomspace(1e-9, 1.0, 400)
    exact = _compose(sb2 + sw2 * np.append(c0, 1.0), -1, hp, None)[-1]
    gap_ref = exact[-1] - exact[:-1]
    ulps = 4.0 * np.spacing(exact[-1])

    def gap_error(nodes):
        rows = _compose(sb2 + sw2 * nodes, -1, hp, None)
        gap = rows[-1, -1] - np.interp(c0, nodes, rows[-1])
        return np.abs(gap - gap_ref) - (1e-4 * gap_ref + ulps)

    assert gap_error(_TRANSFER_COSINES).max() <= 0.0
    # a uniform grid alone does not resolve 1 - c0 below its spacing
    assert gap_error(np.linspace(-1.0, 1.0, 2049)).max() > 0.0


def test_inputs_must_share_norm(relu_table):
    x = np.array([[1.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match="norm"):
        build_kernel_matrix(x, hp_relu(), relu_table)


# ---------------------------------------------------------------------------
# angular profile
# ---------------------------------------------------------------------------

def test_profile_layer_zero_is_cosine():
    hp = hp_relu(depth=3, sw2=1.6, sb2=0.1)
    prof = angular_profile(hp, table=None, n_angles=91)
    np.testing.assert_allclose(prof.values[0], 0.1 + 1.6 * np.cos(prof.thetas), atol=1e-14)
    assert np.all(np.isfinite(prof.values))


def test_profile_lookup_tracks_analytic(relu_table):
    # the acceptance criterion runs depths 0..9; spot-check here at depth 4
    hp = hp_relu(depth=4, sw2=1.6, sb2=0.1)
    numeric = angular_profile(hp, relu_table)
    analytic = angular_profile(hp, table=None)
    rel = np.abs(numeric.values - analytic.values) / np.abs(analytic.values)
    assert rel.max() <= 1e-2


@pytest.mark.parametrize("phi", ["relu", "tanh"])
def test_profile_rows_equal_matrix_entries_every_layer(phi, relu_table, tanh_table):
    # angular_profile's rows are _compose over its cosines; the matrix reads
    # the same composition off the Gram, exactly at the transfer nodes. So
    # point i's cosine with point 0 is a node, with ||x||^2 = d_in = 4.
    table = relu_table if phi == "relu" else tanh_table
    hp = NetworkHyperparams(depth=12, sigma_w2=1.6, sigma_b2=0.1, phi=phi)
    c = _TRANSFER_COSINES[::-150]  # 1 (point 0 itself), then 1 - c from 3e-14 to 1.98
    profile = _compose(hp.sigma_b2 + hp.sigma_w2 * c, 0, hp, table)
    x = 2.0 * np.column_stack([c, np.sqrt(1.0 - c * c), np.zeros((c.size, 2))])
    layers = list(iter_kernel_layers(x, hp, table))
    assert len(layers) == hp.depth + 1
    for layer, k in enumerate(layers):
        np.testing.assert_allclose(k.kdd[0], profile[layer], rtol=0, atol=1e-12)


def test_profile_requires_table_for_tanh():
    with pytest.raises(ValueError, match="lookup table"):
        angular_profile(hp_tanh(depth=2), table=None)


# ---------------------------------------------------------------------------
# prior sampling
# ---------------------------------------------------------------------------

def test_sample_prior_zero_draws(relu_table):
    x = constant_norm_points(4, 6, seed=8)
    out = sample_prior(x, hp_relu(depth=2, sw2=1.0, sb2=0.1), relu_table, 0, seed=0)
    assert out.shape == (0, 4)


def test_sample_prior_single_point_variance():
    # sample variance over 1e5 draws within 3 standard errors of q
    hp = hp_relu(depth=3, sw2=1.2, sb2=0.2)
    x = np.array([[0.7]])
    q = 0.2 + 1.2 * 0.49
    for _ in range(hp.depth):
        q = 0.2 + 1.2 * q / 2.0
    draws = sample_prior(x, hp, None, 100_000, seed=42)
    var = draws.var()
    se = q * np.sqrt(2.0 / draws.shape[0])
    assert abs(var - q) <= 3 * se


def test_sample_prior_empirical_covariance_matches_kernel(tanh_table):
    x = constant_norm_points(5, 8, seed=9)
    hp = hp_tanh(depth=3, sw2=1.3, sb2=0.2)
    from nngp import build_kernel_matrix as bkm

    k = bkm(x, hp, tanh_table).kdd
    draws = sample_prior(x, hp, tanh_table, 100_000, seed=1)
    emp = draws.T @ draws / draws.shape[0]
    se = np.sqrt((np.outer(np.diag(k), np.diag(k)) + k ** 2) / draws.shape[0])
    assert np.all(np.abs(emp - k) <= 5 * se)


def test_sample_prior_1d_grid_diagonal_identity():
    # function draws over a 1D grid: per-point variance equals the kernel diagonal
    hp = hp_relu(depth=10, sw2=1.8, sb2=0.01)
    grid = np.linspace(-1.0, 1.0, 21)
    grid = grid[np.abs(grid) > 1e-9]  # zero input has zero variance at sb2 ~ 0
    draws = sample_prior(grid, hp, None, 50_000, seed=3)
    k = full_kernel(grid, hp, None)
    var = draws.var(axis=0)
    se = np.diag(k) * np.sqrt(2.0 / draws.shape[0])
    assert np.all(np.abs(var - np.diag(k)) <= 5 * se)
    assert np.all(np.isfinite(draws))


def test_sample_prior_deterministic(relu_table):
    x = constant_norm_points(4, 6, seed=10)
    hp = hp_relu(depth=2, sw2=1.0, sb2=0.1)
    a = sample_prior(x, hp, relu_table, 16, seed=5)
    b = sample_prior(x, hp, relu_table, 16, seed=5)
    np.testing.assert_array_equal(a, b)


def test_sample_prior_tanh_unequal_norm_small_grid(small_tanh_table):
    # non-constant-norm tanh goes through per-pair quadrature
    hp = hp_tanh(depth=2, sw2=1.0, sb2=0.2)
    grid = np.array([0.3, 0.6, 1.0])
    draws = sample_prior(grid, hp, small_tanh_table, 1000, seed=4)
    assert draws.shape == (1000, 3)
    assert np.all(np.isfinite(draws))


def unequal_norm_points(n, d_in, seed):
    return constant_norm_points(n, d_in, seed) * np.linspace(0.6, 1.5, n)[:, None]


@pytest.mark.parametrize("depth", [1, 5, 20, 100])
def test_full_kernel_relu_unequal_norms_matches_arccos_oracle(depth):
    # no table: every layer is the activation's closed form on the upper triangle
    x = unequal_norm_points(12, 6, seed=12)
    hp = hp_relu(depth=depth, sw2=1.45, sb2=0.28)
    k = full_kernel(x, hp, None)
    ref = arccos_kernel(x, x[:0], hp).entries
    np.testing.assert_allclose(k, ref, rtol=1e-13, atol=0.0)
    assert np.array_equal(k, k.T)


def test_full_kernel_relu_zero_input_gives_zero_row():
    # at sb2 = 0 the input 0 has zero variance at every layer; the other
    # entries do not depend on it
    x = np.array([0.0, 0.5, 1.0])
    hp = hp_relu(depth=2, sw2=1.8, sb2=0.0)
    k = full_kernel(x, hp, None)
    assert np.all(k[0] == 0.0) and np.all(k[:, 0] == 0.0)
    ref = arccos_kernel(x[1:, None], x[:0, None], hp).entries
    np.testing.assert_allclose(k[1:, 1:], ref, rtol=1e-13, atol=0.0)


def test_full_kernel_tanh_unequal_norms_matches_gauss_hermite(small_tanh_table):
    # per-pair ratio-of-sums quadrature on the small table's u grid against a
    # per-pair Gauss-Hermite composition; measured 1.5e-7 relative
    x = unequal_norm_points(4, 5, seed=13)
    hp = hp_tanh(depth=3, sw2=1.5, sb2=0.1)
    k = full_kernel(x, hp, small_tanh_table)
    ref = hp.sigma_b2 + hp.sigma_w2 * (x @ x.T) / x.shape[1]
    for _ in range(hp.depth):
        ref = hp.sigma_b2 + hp.sigma_w2 * np.array(
            [[gh_expectation(np.tanh, ref[a, b], ref[a, a], ref[b, b]) for b in range(4)]
             for a in range(4)])
    np.testing.assert_allclose(k, ref, rtol=1e-6, atol=0.0)
    assert np.array_equal(k, k.T)


# ---------------------------------------------------------------------------
# hyperparameter validation
# ---------------------------------------------------------------------------

def test_hyperparams_validate():
    with pytest.raises(ValueError, match="depth"):
        NetworkHyperparams(depth=0, sigma_w2=1.0, sigma_b2=0.0, phi="relu")
    with pytest.raises(ValueError, match="sigma_w2"):
        NetworkHyperparams(depth=1, sigma_w2=-1.0, sigma_b2=0.0, phi="relu")
    with pytest.raises(ValueError, match="nonlinearity"):
        NetworkHyperparams(depth=1, sigma_w2=1.0, sigma_b2=0.0, phi="selu")
    softsign = Activation("softsign", lambda u: u / (1.0 + np.abs(u)), odd=True)
    with pytest.raises(ValueError, match="'softsign' is not registered"):
        NetworkHyperparams(depth=1, sigma_w2=1.0, sigma_b2=0.0, phi=softsign)


def test_activation_instance_and_tag_are_one_phi(relu_table):
    # the instance is stored as its tag, so every "relu" branch takes it
    tag = NetworkHyperparams(depth=1, sigma_w2=2.5, sigma_b2=0.3, phi="relu")
    inst = NetworkHyperparams(depth=1, sigma_w2=2.5, sigma_b2=0.3, phi=RELU)
    assert inst == tag and inst.phi == "relu"
    assert diagnose(inst, relu_table) == diagnose(tag, relu_table)
    assert diagnose(inst, relu_table).phase == "unbounded"
    deep = NetworkHyperparams(depth=3, sigma_w2=1.5, sigma_b2=0.3, phi=RELU)
    np.testing.assert_array_equal(angular_profile(deep, None).values,
                                  angular_profile(hp_relu(3, 1.5, 0.3), None).values)
    assert NetworkHyperparams(depth=1, sigma_w2=1.0, sigma_b2=0.0, phi=TANH).phi == "tanh"


def test_table_of_another_phi_rejected(relu_table):
    x = constant_norm_points(3, 8, seed=1)
    hp = hp_tanh(depth=2, sw2=1.5, sb2=0.1)
    for call in (lambda: build_kernel_matrix(x, hp, relu_table),
                 lambda: diagnose(hp, relu_table)):
        with pytest.raises(ValueError, match="'relu'.*'tanh'"):
            call()
