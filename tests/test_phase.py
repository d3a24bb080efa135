import math

import numpy as np
import pytest

from nngp import (
    NetworkHyperparams,
    build_kernel_matrix,
    chi1_at,
    correlation_fixed_point,
    critical_line,
    diagnose,
    evaluate,
    heatmap_sweep,
    iter_kernel_layers,
    posterior,
    variance_fixed_point,
)
from nngp.kernel import _layer_map
from nngp.lookup import interpolate

from .oracles import arccos_kernel, tanh_chi1_gh, tanh_qstar_gh


def hp(phi, sw2, sb2, depth=1):
    return NetworkHyperparams(depth=depth, sigma_w2=sw2, sigma_b2=sb2, phi=phi)


# ---------------------------------------------------------------------------
# variance fixed point
# ---------------------------------------------------------------------------

def test_relu_fixed_point_closed_form():
    # q* = sb2 / (1 - sw2/2) below the divergence boundary
    assert variance_fixed_point(hp("relu", 1.9, 0.1)) == pytest.approx(2.0, rel=1e-9)


def test_relu_divergence_at_boundary():
    assert math.isinf(variance_fixed_point(hp("relu", 2.0, 0.1)))
    assert math.isinf(variance_fixed_point(hp("relu", 2.5, 0.1)))


def test_relu_table_path_matches_closed_form(relu_table):
    # the table's variance map against sb2 + sw2 q / 2: 1e-6 equivalence holds
    # while q sits well inside the tabulated range; truncation at u_max
    # (spec's sqrt(2 s_max)) bites for large q
    rng = np.random.default_rng(0)
    for _ in range(10):
        sw2, sb2, q = rng.uniform(0.1, 1.9), rng.uniform(0.01, 2.0), rng.uniform(0.05, 4.0)
        got = _layer_map(q, q, hp("relu", sw2, sb2), relu_table, 1)
        assert got == pytest.approx(sb2 + sw2 * q / 2.0, rel=1e-6)


def test_relu_keeps_closed_form_with_a_table(relu_table):
    # the table's truncated range fakes a fixed point here (sw2 > 2 diverges)
    # and escapes the table at the top of the critical-line bracket
    h = hp("relu", 2.5, 0.3)
    d = diagnose(h, relu_table)
    assert d == diagnose(h)
    assert d.phase == "unbounded" and d.chi1 == pytest.approx(1.25, rel=2e-3)
    assert chi1_at("relu", 2.5, 0.3, relu_table) == chi1_at("relu", 2.5, 0.3)
    line = critical_line("relu", np.array([0.5]), relu_table)
    assert line[0] == critical_line("relu", np.array([0.5]))[0]
    assert line[0] == pytest.approx(2.0, abs=0.01)


def test_tanh_without_table_names_the_lookup_table():
    h = hp("tanh", 1.5, 0.3)
    for call in (lambda: diagnose(h), lambda: variance_fixed_point(h),
                 lambda: chi1_at("tanh", 1.5, 0.3)):
        with pytest.raises(ValueError, match="lookup table"):
            call()


def test_tanh_small_weight_variance_collapses_to_zero(tanh_table):
    for sw2 in (0.5, 1.0):
        q = variance_fixed_point(hp("tanh", sw2, 0.0), tanh_table)
        assert abs(q) < 1e-8


def test_zero_weight_variance_fixed_point_is_bias(tanh_table):
    assert variance_fixed_point(hp("tanh", 0.0, 0.7), tanh_table) == pytest.approx(0.7)


def test_tanh_fixed_point_matches_gauss_hermite(tanh_table):
    for sw2, sb2 in [(1.5, 0.3), (3.0, 0.5), (2.0, 1.0)]:
        got = variance_fixed_point(hp("tanh", sw2, sb2), tanh_table)
        want = tanh_qstar_gh(sw2, sb2)
        assert got == pytest.approx(want, rel=2e-3)


def test_fixed_point_residual(tanh_table):
    rng = np.random.default_rng(1)
    for _ in range(8):
        sw2 = rng.uniform(0.2, 4.0)
        sb2 = rng.uniform(0.05, 2.0)
        h = hp("tanh", sw2, sb2)
        q = variance_fixed_point(h, tanh_table)
        residual = abs(q - (sb2 + sw2 * interpolate(tanh_table, q, q)))
        assert residual <= 1e-8


# ---------------------------------------------------------------------------
# correlation fixed point and stability
# ---------------------------------------------------------------------------

def test_relu_critical_point_unit_multiplier():
    # chi1 at c -> 1- equals sw2/2 up to the sqrt-cusp bias of the pinned
    # finite-difference step
    assert chi1_at("relu", 2.0, 0.0) == pytest.approx(1.0, abs=2e-3)


def test_tanh_ordered_phase(tanh_table):
    h = hp("tanh", 0.5, 0.05)
    d = diagnose(h, tanh_table)
    assert d.phase == "ordered"
    assert d.c_star == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("phi,sw2,sb2", [("tanh", 0.5, 0.05), ("tanh", 3.1, 1.0),
                                         ("relu", 1.0, 0.2), ("relu", 1.5, 0.5)])
def test_ordered_chi1_equals_chi1_at(tanh_table, phi, sw2, sb2):
    # a slope below 1 at c -> 1- makes c* = 1 exactly; both then take the
    # slope at the same point of the same map
    table = tanh_table if phi == "tanh" else None
    d = diagnose(hp(phi, sw2, sb2), table)
    assert d.c_star == 1.0
    assert d.chi1 == chi1_at(phi, sw2, sb2, table)


def test_tanh_chaotic_phase(tanh_table):
    d = diagnose(hp("tanh", 3.0, 0.5), tanh_table)
    assert d.phase == "chaotic"
    assert d.c_star < 0.99


def test_zero_weight_variance_correlation(tanh_table):
    c_star, chi1, xi = correlation_fixed_point(hp("tanh", 0.0, 0.3), tanh_table, 0.3)
    assert c_star == 1.0 and chi1 == 0.0 and xi == 0.0


def test_xi_infinite_on_critical_band(tanh_table):
    # tanh at sb2 = 0 sits in the exact small-variance limit: chi1 = sw2
    d = diagnose(hp("tanh", 1.0, 0.0), tanh_table)
    assert d.chi1 == pytest.approx(1.0, abs=1e-6)
    assert math.isinf(d.xi)


def test_diverged_diagnostics_for_relu():
    d = diagnose(hp("relu", 3.0, 0.5))
    assert d.diverged and d.phase == "unbounded"
    # the ReLU stability multiplier is q*-independent and stays defined
    assert d.chi1 == pytest.approx(1.5, rel=2e-3)


def test_relu_phase_label_bounded():
    assert diagnose(hp("relu", 1.0, 0.2)).phase == "bounded"


def test_diagnostics_invariants_across_grid(tanh_table):
    for sw2 in (0.3, 1.5, 3.5):
        for sb2 in (0.05, 0.5, 1.5):
            d = diagnose(hp("tanh", sw2, sb2), tanh_table)
            assert math.isfinite(d.q_star) and d.q_star > 0.0
            assert d.chi1 > 0.0
            assert -1.0 <= d.c_star <= 1.0
            ordered = d.c_star == pytest.approx(1.0, abs=1e-6)
            assert (d.phase == "ordered") == ordered


def test_default_sweep_grid_values():
    from nngp.phase import SWEEP_SB2_GRID, SWEEP_SW2_GRID

    assert SWEEP_SW2_GRID.shape == (30,)
    assert SWEEP_SW2_GRID[0] == pytest.approx(0.1)
    assert SWEEP_SW2_GRID[-1] == pytest.approx(5.0)
    assert SWEEP_SB2_GRID.shape == (30,)
    assert SWEEP_SB2_GRID[0] == 0.0
    assert SWEEP_SB2_GRID[-1] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# critical line
# ---------------------------------------------------------------------------

def test_relu_critical_line_constant_two():
    sb2_grid = np.linspace(0.0, 2.0, 30)
    line = critical_line("relu", sb2_grid)
    np.testing.assert_allclose(line, 2.0, atol=0.01)


def test_tanh_critical_line_at_zero_bias(tanh_table):
    line = critical_line("tanh", np.array([0.0]), tanh_table)
    assert line[0] == pytest.approx(1.0, abs=0.01)


def test_tanh_critical_line_grows_with_bias(tanh_table):
    line = critical_line("tanh", np.array([0.5]), tanh_table)
    assert line[0] > 1.0


def _gauss_hermite_critical_sw2(sb2):
    from scipy.optimize import brentq

    return brentq(lambda s: tanh_chi1_gh(s, sb2) - 1.0, 0.5, 6.0, xtol=1e-10)


def test_tanh_critical_line_tracks_gauss_hermite(tanh_table):
    # the Gauss-Hermite line is 2.843, 3.443, 3.893; the table's slope at
    # c -> 1- is the chord of its last half c-cell, 0.3-0.5% high
    sb2_grid = np.array([0.5, 1.0, 1.5])
    got = critical_line("tanh", sb2_grid, tanh_table)
    for sb2, line in zip(sb2_grid, got):
        assert line == pytest.approx(_gauss_hermite_critical_sw2(sb2), rel=1e-2)


def test_tanh_critical_line_at_large_bias(tanh_table):
    # the Gauss-Hermite line crosses at sw2 = 4.268 at sb2 = 2; a slope
    # differenced onto the diagonal plateau crossed at 2.50
    line = critical_line("tanh", np.array([2.0]), tanh_table)
    assert line[0] == pytest.approx(_gauss_hermite_critical_sw2(2.0), rel=1e-2)


def test_ordered_cells_contract_on_sweep_grid(tanh_table):
    # the 10 x 10 grid of the benchmark's phase sweep: an ordered fixed point
    # is stable, so its chi1 is below 1
    from nngp.phase import SWEEP_SB2_GRID, SWEEP_SW2_GRID

    bad = []
    for sw2 in SWEEP_SW2_GRID[::3]:
        for sb2 in SWEEP_SB2_GRID[::3]:
            d = diagnose(hp("tanh", float(sw2), float(sb2)), tanh_table)
            if d.phase == "ordered" and d.chi1 >= 1.0:
                bad.append((float(sw2), float(sb2), d.chi1))
    assert not bad


def test_critical_line_flags_unbracketed_cells(tanh_table):
    # at sb2 = 40, chi1 stays below 1 (0.71) up to sw2 = 10, the top of the bracket
    line = critical_line("tanh", np.array([40.0]), tanh_table)
    assert math.isnan(line[0])


# ---------------------------------------------------------------------------
# kernel-flattening consistency
# ---------------------------------------------------------------------------

def test_offdiagonal_decay_rate_matches_chi1(tanh_table):
    # ordered-phase kernel approaches q* exponentially at rate chi1
    h = hp("tanh", 3.1, 1.0, depth=32)
    d = diagnose(h, tanh_table)
    assert d.phase == "ordered"
    theta = math.acos(0.9)
    x = np.sqrt(2.0) * np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
    gaps = [abs(k.kdd[0, 1] - k.kdd[0, 0]) for k in iter_kernel_layers(x, h, tanh_table)]
    gaps = np.array(gaps)
    rates = gaps[11:31] / gaps[10:30]
    assert abs(rates.mean() - d.chi1) / d.chi1 <= 0.10


# ---------------------------------------------------------------------------
# heatmap sweep
# ---------------------------------------------------------------------------

def test_sweep_populates_all_cells(blob_dataset, tanh_table):
    sweep = heatmap_sweep(blob_dataset, "tanh", depth=3,
                          sw2_grid=np.linspace(0.5, 4.0, 2),
                          sb2_grid=np.linspace(0.0, 1.0, 2), table=tanh_table)
    assert sweep.cells.shape == (2, 2)
    assert np.all(np.isfinite(sweep.cells))
    assert np.all((sweep.cells >= 0) & (sweep.cells <= 1))
    best = sweep.argmax()
    assert sweep.cells.max() == best[2]


def test_sweep_records_failed_cells_and_continues(blob_dataset, small_relu_table):
    # sw2 = 4 escapes the small table's s_max at depth 8; sw2 = 1 succeeds
    sweep = heatmap_sweep(blob_dataset, "relu", depth=8,
                          sw2_grid=np.array([1.0, 4.0]),
                          sb2_grid=np.array([0.1]), table=small_relu_table)
    assert np.isfinite(sweep.cells[0, 0])
    assert math.isnan(sweep.cells[1, 0])


def test_deep_degenerate_kernels_reach_chance(blob_dataset, relu_table, tanh_table):
    # ordered collapse: the gaps q_L - K_L fall below one ulp of q_L, so the
    # closed-form kernel loses all information too
    h_ord = hp("relu", 1.45, 0.28, depth=100)
    x_train, x_valid = blob_dataset.train_inputs, blob_dataset.valid_inputs
    k = build_kernel_matrix(x_train, h_ord, relu_table, x_valid)
    for kern in (k, arccos_kernel(x_train, x_valid, h_ord)):
        acc_ord = evaluate(posterior(kern, blob_dataset.train_targets, h_ord),
                           blob_dataset.valid_targets)["accuracy"]
        assert acc_ord <= 0.2

    # chaotic collapse: structure falls below float64 resolution
    h_cha = hp("tanh", 5.0, 0.0, depth=300)
    k = build_kernel_matrix(blob_dataset.train_inputs, h_cha, tanh_table,
                            blob_dataset.valid_inputs)
    acc_cha = evaluate(posterior(k, blob_dataset.train_targets, h_cha),
                       blob_dataset.valid_targets)["accuracy"]
    assert acc_cha <= 0.2


def test_accuracy_degrades_with_depth_off_criticality(blob_dataset, tanh_table):
    accs = {}
    for depth in (3, 50):
        h = hp("tanh", 5.0, 0.05, depth=depth)
        k = build_kernel_matrix(blob_dataset.train_inputs, h, tanh_table,
                                blob_dataset.valid_inputs)
        accs[depth] = evaluate(posterior(k, blob_dataset.train_targets, h),
                               blob_dataset.valid_targets)["accuracy"]
    assert accs[50] <= accs[3]
