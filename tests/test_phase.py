import dataclasses
import math
import re

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
from nngp import kernel, phase, regression
from nngp.kernel import _layer_map
from nngp.lookup import interpolate

from .oracles import (arccos_kernel, iterated_correlation_fixed_point,
                      iterated_variance_fixed_point, loop_sweep, tanh_chi1_gh, tanh_qstar_gh,
                      union1d_variance_fixed_point)


def hp(phi, sw2, sb2, depth=1):
    return NetworkHyperparams(depth=depth, sigma_w2=sw2, sigma_b2=sb2, phi=phi)


# ---------------------------------------------------------------------------
# variance fixed point
# ---------------------------------------------------------------------------

def test_relu_fixed_point_closed_form():
    # q* = sb2 / (1 - sw2/2) below the divergence boundary
    assert variance_fixed_point(hp("relu", 1.9, 0.1)) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("sw2,q_star", [(1.998, 500.0), (1.9999, 1e4)])
def test_relu_fixed_point_near_boundary_is_bounded(sw2, q_star):
    # the affine map converges too slowly to iterate here; q* stays below 1e6
    d = diagnose(hp("relu", sw2, 0.5))
    assert d.phase == "bounded"
    assert d.q_star == pytest.approx(q_star, rel=1e-12)


def test_relu_divergence_at_boundary():
    assert math.isinf(variance_fixed_point(hp("relu", 2.0, 0.1)))
    assert math.isinf(variance_fixed_point(hp("relu", 2.5, 0.1)))


def test_relu_at_the_critical_point_returns_the_starting_variance():
    # q <- 2 q / 2 fixes every q; the iteration starts from q0 = sb2 + sw2
    assert variance_fixed_point(hp("relu", 2.0, 0.0)) == 2.0


def test_crossing_walks_up_from_a_start_where_the_map_rises():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    # y - x = 0.5, 0.5, -0.5, -1: the iterates rise to the root on segment 1
    assert phase._crossing(x, np.array([0.5, 1.5, 1.5, 2.0]), 0) == (1.5, 1)
    # above the diagonal at every node: the iterates leave the last node
    assert phase._crossing(x, x + 0.5, 1) is None


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
    assert d.phase == "unbounded" and d.chi1 == 1.25
    assert chi1_at("relu", 2.5, 0.3, relu_table) == chi1_at("relu", 2.5, 0.3)
    line = critical_line("relu", np.array([0.5]), relu_table)
    assert line[0] == critical_line("relu", np.array([0.5]))[0]
    assert line[0] == pytest.approx(2.0, abs=1e-5)


def test_tanh_without_table_names_the_lookup_table():
    h = hp("tanh", 1.5, 0.3)
    for call in (lambda: diagnose(h), lambda: variance_fixed_point(h),
                 lambda: chi1_at("tanh", 1.5, 0.3)):
        with pytest.raises(ValueError, match="lookup table"):
            call()


def test_tanh_small_weight_variance_collapses_to_zero(tanh_table):
    for sw2 in (0.5, 1.0):
        q = variance_fixed_point(hp("tanh", sw2, 0.0), tanh_table)
        assert q == 0.0


def test_zero_weight_variance_fixed_point_is_bias(tanh_table):
    assert variance_fixed_point(hp("tanh", 0.0, 0.7), tanh_table) == pytest.approx(0.7)


def test_variance_fixed_point_rejects_table_of_another_phi(relu_table):
    with pytest.raises(ValueError, match="'relu'.*'tanh'"):
        variance_fixed_point(hp("tanh", 1.5, 0.1), relu_table)


def test_zero_variances_fix_the_first_node(tanh_table):
    # the map is constant at q0 = 0, the table's first node: no node lies
    # below the start
    h = hp("tanh", 0.0, 0.0)
    assert variance_fixed_point(h, tanh_table) == 0.0
    assert diagnose(h, tanh_table).phase == "ordered"


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
        assert residual <= 1e-12 * max(q, 1.0)


def test_variance_fixed_point_matches_iteration_on_sweep_grid(tanh_table):
    # the 10 x 10 grid of the benchmark's phase sweep, sb2 = 0 included:
    # the read off the s nodes against the layer step iterated to 1e-10
    from nngp.phase import SWEEP_SB2_GRID, SWEEP_SW2_GRID

    for sw2 in SWEEP_SW2_GRID[::3]:
        for sb2 in SWEEP_SB2_GRID[::3]:
            h = hp("tanh", float(sw2), float(sb2))
            want = iterated_variance_fixed_point(h, tanh_table)
            assert variance_fixed_point(h, tanh_table) == pytest.approx(want, rel=0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# correlation fixed point and stability
# ---------------------------------------------------------------------------

def test_relu_critical_point_unit_multiplier():
    # chi1 at c -> 1- is the arccosine map's slope there, sw2 / 2
    assert chi1_at("relu", 2.0, 0.0) == 1.0


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


def test_layer_map_is_linear_between_c_nodes(tanh_table):
    # the exact read of c* and chi1 rests on this: at fixed q the map is
    # linear in c between adjacent nodes of the table's closed c axis
    h, q, c = hp("tanh", 1.5, 0.3), 1.3, tanh_table.c_nodes
    at_nodes = _layer_map(q * c, q, h, tanh_table, 1)
    at_midpoints = _layer_map(q * 0.5 * (c[:-1] + c[1:]), q, h, tanh_table, 1)
    np.testing.assert_allclose(at_midpoints, 0.5 * (at_nodes[:-1] + at_nodes[1:]),
                               rtol=0.0, atol=1e-14)


def test_tanh_table_rows_increase_in_c(tanh_table):
    # so is the correlation map at every q* above the first variance row
    # (the s = 0 row is phi(0)^2 = 0; below s[1] the linearization is used);
    # the smallest step, 2.7e-4, is the last one of the s = 0.2 row. The
    # variance map rises along f1d (smallest step 4.7e-5), so its iteration
    # moves monotonically
    rows = np.column_stack([-tanh_table.f1d, tanh_table.f2d, tanh_table.f1d])[1:]
    assert np.diff(rows, axis=1).min() > 0.0
    assert np.all(np.diff(tanh_table.f1d) > 0.0)


def test_diagnose_matches_iterated_reference_on_sweep_grid(tanh_table):
    # the 10 x 10 grid of the benchmark's phase sweep, against the fixed-point
    # iteration and centered differences; chi1 differs only at the clipped
    # end cell (see the next test)
    from nngp.phase import SWEEP_SB2_GRID, SWEEP_SW2_GRID

    differ = []
    for sw2 in SWEEP_SW2_GRID[::3]:
        for sb2 in SWEEP_SB2_GRID[::3]:
            h = hp("tanh", float(sw2), float(sb2))
            d = diagnose(h, tanh_table)
            c_star, chi1 = iterated_correlation_fixed_point(h, tanh_table, d.q_star)
            assert d.phase == ("ordered" if c_star == 1.0 else "chaotic")
            assert d.c_star == pytest.approx(c_star, abs=1e-9)
            if abs(d.chi1 - chi1) > 1e-8:
                differ.append((float(sw2), float(sb2)))
    assert differ == [(float(SWEEP_SW2_GRID[6]), 0.0)]


@pytest.mark.parametrize("sw2,sb2", [
    # c* = 0.4994 on variance_grid(30), in the c segment that holds 0.5,
    # where the reference iteration starts
    (float(phase.SWEEP_SW2_GRID[22]), float(phase.SWEEP_SB2_GRID[3])),
    # the slope at c -> 1- is 1.00009: the map sits only 1.8e-7 below the
    # diagonal at the last node before c = 1, where the iteration starts
    (3.4564, 1.0),
    # chi1 = 0.9987 at c*: a stop on the step alone sat 1.04e-8 from c*
    (2.2943, 0.2),
], ids=["straddles_0.5", "near_critical", "slope_near_one_at_c_star"])
def test_chaotic_fixed_point_from_below_one_matches_iteration(tanh_table, sw2, sb2):
    h = hp("tanh", sw2, sb2)
    d = diagnose(h, tanh_table)
    c_star, chi1 = iterated_correlation_fixed_point(h, tanh_table, d.q_star)
    assert d.phase == "chaotic" and c_star < 1.0
    assert d.c_star == pytest.approx(c_star, abs=1e-9)
    assert chi1_at("tanh", sw2, sb2, tanh_table) > 1.0


def test_clipped_end_chi1_is_the_segment_slope(tanh_table):
    # q* = 0 is below the first variance row, so the map is the
    # linearization 1 - chi1 (1 - c) with chi1 = sw2 phi'(0)^2 = 1.114, and
    # the iteration from 0.5 is clipped at c* = -1. A centered difference
    # there straddles the clipped end and reads half the slope
    from nngp.phase import SWEEP_SW2_GRID

    sw2 = float(SWEEP_SW2_GRID[6])
    d = diagnose(hp("tanh", sw2, 0.0), tanh_table)
    assert d.q_star == 0.0
    assert d.c_star == -1.0 and d.phase == "chaotic"
    assert d.chi1 == pytest.approx(sw2, rel=1e-9)
    assert math.isinf(d.xi)


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
    assert math.isinf(d.q_star) and d.phase == "unbounded"
    # the ReLU stability multiplier is q*-independent and stays defined
    assert d.chi1 == 1.5


def test_tanh_past_the_table_is_unbounded(small_tanh_table):
    # q0 = sb2 + sw2 = 17 is past the small table's s_max = 16
    h = hp("tanh", 15.0, 2.0)
    d = diagnose(h, small_tanh_table)
    assert d.phase == "unbounded" and math.isinf(d.q_star)
    assert math.isnan(d.c_star) and math.isnan(d.chi1) and math.isnan(d.xi)
    assert math.isnan(chi1_at("tanh", 15.0, 2.0, small_tanh_table))
    with pytest.raises(ValueError, match="finite"):
        correlation_fixed_point(h, small_tanh_table, math.inf)


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
    np.testing.assert_allclose(line, 2.0, atol=1e-5)


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


def test_argmax_of_a_sweep_without_a_populated_cell_raises():
    sweep = phase.HeatmapSweep(np.array([1.0]), np.array([0.0, 0.5]),
                               np.full((1, 2), np.nan), {(0, 0): "a", (0, 1): "b"})
    with pytest.raises(ValueError, match="no populated cells"):
        sweep.argmax()


def test_sweep_records_failed_cells_and_continues(blob_dataset, small_relu_table):
    # sw2 = 4 escapes the small table's s_max at depth 8; sw2 = 1 succeeds
    sweep = heatmap_sweep(blob_dataset, "relu", depth=8,
                          sw2_grid=np.array([1.0, 4.0]),
                          sb2_grid=np.array([0.1]), table=small_relu_table)
    assert np.isfinite(sweep.cells[0, 0])
    assert math.isnan(sweep.cells[1, 0])
    assert list(sweep.failures) == [(1, 0)]
    assert re.fullmatch(r"TableRangeError: layer \d+: .* exceeds s_max = 16\.0.*",
                        sweep.failures[1, 0])


def test_sweep_records_a_non_finite_target_as_value_error(blob_dataset, tanh_table):
    targets = blob_dataset.targets.copy()
    targets[blob_dataset.indices[0][0], 0] = np.nan
    sweep = heatmap_sweep(dataclasses.replace(blob_dataset, targets=targets), "tanh",
                          depth=3, sw2_grid=np.array([1.5]), sb2_grid=np.array([0.1]),
                          table=tanh_table)
    assert math.isnan(sweep.cells[0, 0])
    assert sweep.failures == {(0, 0): "ValueError: array must not contain infs or NaNs"}


def _nan_target(dataset):
    targets = dataset.targets.copy()
    targets[dataset.indices[0][0], 0] = np.nan
    return dataclasses.replace(dataset, targets=targets)


def _nan_input(dataset):
    inputs = dataset.inputs.copy()
    inputs[dataset.indices[0][0], 0] = np.nan
    return dataclasses.replace(dataset, inputs=inputs)


@pytest.mark.parametrize("phi,depth,sw2_grid,sb2_grid,table_name,data,failed", [
    ("tanh", 20, [0.5, 1.6, 4.0], [0.0, 1.0], "tanh_table", None, 0),
    # sw2 = 4 escapes the small table's s_max at depth 8
    ("relu", 8, [1.0, 4.0], [0.1], "small_relu_table", None, 1),
    ("tanh", 3, [1.5], [0.1], "tanh_table", _nan_target, 1),
    # the plan takes a NaN input; each cell's composition refuses it
    ("tanh", 3, [1.0, 2.0], [0.1], "tanh_table", _nan_input, 2),
], ids=["tanh", "failed_cell", "nan_target", "nan_input"])
def test_sweep_equals_a_loop_of_single_builds(phi, depth, sw2_grid, sb2_grid, table_name,
                                              data, failed, request, blob_dataset):
    # one plan read off per cell against a build_kernel_matrix per cell
    dataset = blob_dataset if data is None else data(blob_dataset)
    table = request.getfixturevalue(table_name)
    sweep = heatmap_sweep(dataset, phi, depth, sw2_grid, sb2_grid, table)
    cells, failures = loop_sweep(dataset, phi, depth, sw2_grid, sb2_grid, table)
    assert np.array_equal(sweep.cells, cells, equal_nan=True)
    assert sweep.failures == failures
    assert len(failures) == failed


def test_sweep_makes_no_variance_solve(monkeypatch, blob_dataset, tanh_table):
    # a cell scores the posterior mean's argmax, which needs no L^-1 K_Dx
    grids = [0.5, 1.6, 4.0], [0.0, 1.0]
    cells, failures = loop_sweep(blob_dataset, "tanh", 20, *grids, tanh_table)

    def refused(*args, **kwargs):
        raise AssertionError("a sweep cell ran the variance solve")

    monkeypatch.setattr(regression, "solve_triangular", refused)
    sweep = heatmap_sweep(blob_dataset, "tanh", 20, *grids, tanh_table)
    assert np.array_equal(sweep.cells, cells, equal_nan=True)
    assert sweep.failures == failures == {}


def test_sweep_forms_the_gram_once(monkeypatch, blob_dataset, tanh_table):
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return gram(*args)

    gram = kernel._gram
    monkeypatch.setattr(kernel, "_gram", counted)
    sweep = heatmap_sweep(blob_dataset, "tanh", 3, np.linspace(0.5, 4.0, 3),
                          np.linspace(0.0, 1.0, 3), tanh_table)
    assert np.all(np.isfinite(sweep.cells))
    assert calls == [(1200, 20)]


def test_sweep_over_unequal_norms_records_one_reason_per_cell(blob_dataset, tanh_table):
    inputs = blob_dataset.inputs.copy()
    inputs[blob_dataset.indices[1][0]] *= 2.0
    dataset = dataclasses.replace(blob_dataset, inputs=inputs)
    sweep = heatmap_sweep(dataset, "tanh", 3, np.array([1.0, 2.0]), np.array([0.1, 0.5]),
                          tanh_table)
    assert np.all(np.isnan(sweep.cells))
    assert sorted(sweep.failures) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(set(sweep.failures.values())) == 1
    assert sweep.failures[0, 0].startswith("ValueError: inputs must share one squared norm")


def test_sweep_without_a_validation_split_raises_before_any_gram(monkeypatch, blob_dataset,
                                                                  tanh_table):
    def refused(*args):
        raise AssertionError("a Gram was formed")

    monkeypatch.setattr(kernel, "_gram", refused)
    tr, _, te = blob_dataset.indices
    dataset = dataclasses.replace(blob_dataset, indices=(tr, tr[:0], te))
    with pytest.raises(ValueError, match="validation split is empty"):
        heatmap_sweep(dataset, "tanh", 3, np.array([1.0]), np.array([0.1]), tanh_table)


def _phase_outputs(table):
    diag = [dataclasses.astuple(diagnose(hp("tanh", float(sw2), float(sb2)), table))
            for sw2 in phase.SWEEP_SW2_GRID[::3] for sb2 in phase.SWEEP_SB2_GRID[::3]]
    sb2_line = np.linspace(0.0, 2.0, 5)
    return (np.array([d[:4] for d in diag]), [d[4] for d in diag],
            critical_line("tanh", sb2_line, table), critical_line("relu", sb2_line))


def test_phase_maps_equal_the_union1d_formulation(monkeypatch, tanh_table):
    # the benchmark's 10 x 10 diagnose grid and both critical lines, against
    # the variance map formed on np.union1d of the table's s nodes and q0
    values, labels, tanh_line, relu_line = _phase_outputs(tanh_table)
    monkeypatch.setattr(phase, "variance_fixed_point", union1d_variance_fixed_point)
    ref_values, ref_labels, ref_tanh, ref_relu = _phase_outputs(tanh_table)
    assert np.array_equal(values, ref_values, equal_nan=True)
    assert labels == ref_labels
    assert {"ordered", "chaotic"} <= set(labels)
    assert np.array_equal(tanh_line, ref_tanh, equal_nan=True)
    assert np.array_equal(relu_line, ref_relu, equal_nan=True)


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

    # chaotic collapse: with sb2 > 0 every correlation tends to c* > 0, and
    # their spread falls below one ulp of c*
    assert _deep_tanh_accuracy(blob_dataset, tanh_table, 5.0, 0.05, depth=300) <= 0.2


def test_deep_chaotic_kernel_at_zero_bias_keeps_structure(blob_dataset, tanh_table):
    # at sb2 = 0, c* = 0: the correlations shrink like 0.85^L, ~1e-20 of q at
    # depth 300, which float64 still resolves. The exactly odd table puts F(0)
    # at 0, so the kernel keeps that structure instead of settling on a
    # roundoff bias in F(0) (a table odd only to roundoff gave 0.555)
    assert _deep_tanh_accuracy(blob_dataset, tanh_table, 5.0, 0.0, depth=300) >= 0.6


def _deep_tanh_accuracy(dataset, table, sw2, sb2, depth):
    h = hp("tanh", sw2, sb2, depth=depth)
    k = build_kernel_matrix(dataset.train_inputs, h, table, dataset.valid_inputs)
    return evaluate(posterior(k, dataset.train_targets, h), dataset.valid_targets)["accuracy"]


def test_accuracy_degrades_with_depth_off_criticality(blob_dataset, tanh_table):
    accs = {}
    for depth in (3, 50):
        h = hp("tanh", 5.0, 0.05, depth=depth)
        k = build_kernel_matrix(blob_dataset.train_inputs, h, tanh_table,
                                blob_dataset.valid_inputs)
        accs[depth] = evaluate(posterior(k, blob_dataset.train_targets, h),
                               blob_dataset.valid_targets)["accuracy"]
    assert accs[50] <= accs[3]
