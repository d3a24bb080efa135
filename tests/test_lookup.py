import math
import os
import resource
import time
import tracemalloc

import numpy as np
import pytest

from nngp import (
    Activation,
    GridParameterError,
    NonFiniteActivationError,
    TableRangeError,
    build_grid,
    default_grid,
    expectation_direct,
    interpolate,
    load_table,
    populate,
    save_table,
)
from nngp.activations import RELU, check_covariance
from nngp.lookup import (
    _MAGIC,
    _ROW_CHUNK,
    LookupTable,
    QuadratureGrid,
    _fft_pair,
    _pair_constants,
    cache_path,
    load_or_build,
)

from .oracles import gh_expectation, gh_moment, relu_f_closed

# every magic before the current one: NNGPLUT1, NNGPLUT2, ...
OLDER_MAGICS = [b"NNGPLUT%d" % k for k in range(1, int(_MAGIC[len(b"NNGPLUT"):]))]


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_default_grid_constants():
    g = default_grid()
    assert g.n_g == 501 and g.n_v == 501 and g.n_c == 500
    assert g.s_max == 100.0
    assert g.u_max == pytest.approx(10.0 * np.sqrt(2.0))


def test_tiny_grid_linear_spacing():
    g = build_grid(3, 2, 2, 2.0, 1.0)
    np.testing.assert_array_equal(g.u, [-2.0, 0.0, 2.0])
    np.testing.assert_array_equal(g.s, [0.0, 1.0])


def test_grid_u_symmetric_s_increasing_c_interior():
    g = build_grid(51, 11, 10, 4.0, 9.0)
    np.testing.assert_allclose(g.u, -g.u[::-1], atol=0)
    assert np.all(np.diff(g.u) > 0)
    assert g.s[0] == 0.0 and np.all(np.diff(g.s) > 0)
    assert np.all(np.diff(g.c) > 0)
    assert g.c[0] > -1.0 and g.c[-1] < 1.0
    # centers of n_c equal subintervals, symmetric about 0
    np.testing.assert_allclose(g.c, -g.c[::-1], atol=1e-15)


def test_grid_rejects_smax_at_least_umax_squared():
    with pytest.raises(GridParameterError, match="s_max < u_max"):
        build_grid(2, 2, 2, 1.0, 2.0)


@pytest.mark.parametrize("kwargs", [
    dict(n_g=1, n_v=2, n_c=2, u_max=2.0, s_max=1.0),
    dict(n_g=3, n_v=1, n_c=2, u_max=2.0, s_max=1.0),
    dict(n_g=3, n_v=2, n_c=1, u_max=2.0, s_max=1.0),
    dict(n_g=3, n_v=2, n_c=2, u_max=-2.0, s_max=1.0),
    dict(n_g=3, n_v=2, n_c=2, u_max=2.0, s_max=0.0),
])
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(GridParameterError):
        build_grid(**kwargs)


def test_grid_is_a_value_of_its_five_parameters():
    params = dict(n_g=11, n_v=5, n_c=4, u_max=4.0, s_max=9.0)
    g = build_grid(**params)
    assert g == build_grid(**params) and hash(g) == hash(build_grid(**params))
    assert g == QuadratureGrid(11.0, 5.0, 4.0, 4, 9)  # the same numbers, as floats/ints
    assert len({g, build_grid(**params)}) == 1
    for name, other in [("n_g", 13), ("n_v", 6), ("n_c", 6), ("u_max", 5.0), ("s_max", 8.0)]:
        assert g != build_grid(**{**params, name: other}), name
    assert build_grid() == default_grid()


# ---------------------------------------------------------------------------
# population: FFT-structured sums equal the naive double sum
# ---------------------------------------------------------------------------

def _naive_cell(phi_fn, u, s, c):
    det = s * s * (1.0 - c * c)
    quad = (s * (u[:, None] ** 2 + u[None, :] ** 2)
            - 2.0 * s * c * u[:, None] * u[None, :]) / det
    w = np.exp(-0.5 * quad)
    f = phi_fn(u)
    return float(f @ w @ f / w.sum())


# populate builds columns in +-c pairs: 25 has the self-mirrored c = 0
# column, 2 a single pair
@pytest.mark.parametrize("n_c", [24, 25, 2])
@pytest.mark.parametrize("phi_name,phi_fn", [("relu", lambda u: np.maximum(u, 0.0)),
                                             ("tanh", np.tanh)])
def test_populate_equals_naive_double_sum(phi_name, phi_fn, n_c):
    grid = build_grid(101, 21, n_c, 10.0, 25.0)
    table = populate(grid, phi_name)
    rng = np.random.default_rng(0)
    for i in rng.integers(1, grid.n_v, size=6):
        for j in rng.integers(0, grid.n_c, size=6):
            want = _naive_cell(phi_fn, grid.u, grid.s[i], grid.c[j])
            assert table.f2d[i, j] == pytest.approx(want, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("phi_name,phi_fn", [("relu", lambda u: np.maximum(u, 0.0)),
                                             ("tanh", np.tanh)])
def test_default_table_equals_naive_double_sum_where_F_is_small(phi_name, phi_fn, request):
    # the default u axis, at the end c columns (ReLU's F vanishes as c -> -1)
    # and at c near 0 (tanh's F vanishes there), on the first, middle and last
    # variance rows; the error is scaled by the row's second moment, as the
    # benchmark's table check does
    table = request.getfixturevalue(f"{phi_name}_table")
    grid = table.grid
    for i in (1, grid.n_v // 2, grid.n_v - 1):
        for j in (0, grid.n_c // 2, grid.n_c - 1):
            want = _naive_cell(phi_fn, grid.u, grid.s[i], grid.c[j])
            assert abs(table.f2d[i, j] - want) <= 1e-13 * table.f1d[i], (grid.s[i], grid.c[j])


def _one_call_tables(grid, phi_fn, odd):
    """f2d and f1d with every variance row in one _fft_pair call per +-c pair."""
    phi_u = phi_fn(grid.u)
    s_pos = grid.s[1:]
    w1 = np.exp(-np.outer(1.0 / (2.0 * s_pos), grid.u ** 2))
    f1d = np.concatenate(([phi_fn(0.0) ** 2], (w1 @ (phi_u * phi_u)) / w1.sum(axis=1)))
    constants = _pair_constants(grid.u)
    f2d = np.full((grid.n_v, grid.n_c), phi_fn(0.0) ** 2)
    for j in range((grid.n_c + odd) // 2, grid.n_c):
        num_pos, num_neg, den = _fft_pair(phi_u, grid.u, s_pos, float(grid.c[j]), *constants)
        f2d[1:, grid.n_c - 1 - j] = (-num_pos if odd else num_neg) / den
        f2d[1:, j] = num_pos / den
    return f2d, f1d


def _pin_cores(monkeypatch, n_cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cores)))


# 160 variance rows: chunks of 64, 64 and a ragged 32
RAGGED_GRID = build_grid(201, 161, 40, 16.0, 16.0)


def test_populate_is_the_same_on_any_number_of_cores(monkeypatch):
    assert len(range(0, RAGGED_GRID.n_v - 1, _ROW_CHUNK)) == 3
    assert (RAGGED_GRID.n_v - 1) % _ROW_CHUNK != 0
    tables = []
    for n_cores in (1, 2):
        _pin_cores(monkeypatch, n_cores)
        tables.append(populate(RAGGED_GRID, "tanh"))
    assert np.array_equal(tables[0].f2d, tables[1].f2d)
    assert np.array_equal(tables[0].f1d, tables[1].f1d)


@pytest.mark.parametrize("phi_name,phi_fn", [("relu", lambda u: np.maximum(u, 0.0)),
                                             ("tanh", np.tanh)])
def test_populate_in_row_chunks_equals_one_call_build(phi_name, phi_fn):
    # the chunks reproduce the one-call build bit for bit, on the benchmark's
    # table_build grid and with a ragged last chunk
    grid = build_grid(501, 501, 20, None, 100.0)
    f2d, f1d = _one_call_tables(grid, phi_fn, phi_name == "tanh")
    table = populate(grid, phi_name)
    assert np.array_equal(table.f2d, f2d)
    assert np.array_equal(table.f1d, f1d)
    f2d, f1d = _one_call_tables(RAGGED_GRID, phi_fn, phi_name == "tanh")
    table = populate(RAGGED_GRID, phi_name)
    assert np.array_equal(table.f2d, f2d)
    assert np.array_equal(table.f1d, f1d)


def test_populate_peak_memory_is_one_chunk_per_worker(monkeypatch):
    # 2048 variance rows on two workers: the tables plus each worker's chunk of
    # work arrays, about five FFT-length rows per variance row (2.75 MiB here,
    # bound 3.58 MiB); arrays over every variance row at once take 43 MiB
    _pin_cores(monkeypatch, 2)
    grid = build_grid(201, 2049, 4, 16.0, 16.0)
    nfft = 512
    tracemalloc.start()
    try:
        table = populate(grid, "tanh")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = table.f2d.nbytes + table.f1d.nbytes
    assert peak <= outputs + 2 * _ROW_CHUNK * 7 * nfft * 8


def test_zero_variance_row_is_phi_of_zero_squared(small_relu_table, small_tanh_table):
    assert np.all(small_relu_table.f2d[0] == 0.0)
    assert np.all(small_tanh_table.f2d[0] == 0.0)
    assert small_relu_table.f1d[0] == 0.0


def test_populate_rejects_nonfinite_activation():
    exploding = Activation("bad", lambda u: np.where(np.abs(u) > 3, np.inf, u), odd=False)
    with pytest.raises(NonFiniteActivationError, match="grid point"):
        populate(build_grid(51, 5, 6, 4.0, 9.0), exploding)


def test_populate_rejects_an_activation_not_finite_at_zero():
    # an even n_g keeps u = 0 off the grid, so only phi(0) is not finite
    pole = Activation("pole", lambda u: np.where(u == 0.0, np.nan, u), odd=False)
    with pytest.raises(NonFiniteActivationError, match=r"phi\(0\) is not finite"):
        populate(build_grid(50, 5, 6, 4.0, 9.0), pole)


def test_custom_activation_table_usable_in_session():
    softsign = Activation("softsign", lambda u: u / (1.0 + np.abs(u)), odd=True)
    grid = build_grid(101, 21, 24, 10.0, 25.0)
    table = populate(grid, softsign)
    got = interpolate(table, 0.5, 2.5)  # on a variance grid node
    want = expectation_direct(softsign, 0.5, 2.5, 2.5, grid)
    assert got == pytest.approx(want, rel=5e-3)
    # the on-disk format only carries a tag; unregistered tags refuse to load
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".lut") as fh:
        save_table(table, fh.name)
        with pytest.raises(ValueError, match="softsign"):
            load_table(fh.name)


# ---------------------------------------------------------------------------
# oracle values on the default grid
# ---------------------------------------------------------------------------

def test_relu_second_moment_is_half_variance(relu_table):
    # E[relu(u)^2] = s/2 under N(0, s); diagonal (c -> 1) entry at s = 4
    assert interpolate(relu_table, 4.0, 4.0) == pytest.approx(2.0, abs=1e-8)
    assert gh_moment(lambda u: np.maximum(u, 0.0), 4.0) == pytest.approx(2.0, abs=1e-12)


def test_relu_independent_case_matches_closed_form(relu_table):
    # c = 0: E[relu(u)]^2 = s / (2 pi)
    want = 4.0 / (2.0 * np.pi)
    assert interpolate(relu_table, 0.0, 4.0) == pytest.approx(want, rel=1e-3)
    assert relu_f_closed(0.0, 4.0, 4.0) == pytest.approx(want, rel=1e-12)


def test_tanh_zero_variance_expectation_is_zero(tanh_table):
    assert interpolate(tanh_table, 0.0, 0.0) == 0.0


def test_odd_phi_table_is_exactly_odd(tanh_table):
    # F(-c) = -F(c) bit for bit, so F(0) is exactly 0 at any variance: a
    # chaotic kernel at sb2 = 0 settles on c* = 0, not on a roundoff bias
    assert np.array_equal(tanh_table.f2d[:, ::-1], -tanh_table.f2d)
    for q in (1e-3, 0.37, 1.0, 7.0, 42.5, 100.0):
        assert interpolate(tanh_table, 0.0, q) == 0.0
    # odd n_c: the middle column, its own mirror at c = 0, is 0
    table = populate(build_grid(101, 21, 25, 10.0, 25.0), "tanh")
    assert np.array_equal(table.f2d[:, ::-1], -table.f2d)
    assert not table.f2d[:, 12].any()


def test_interpolate_zero_variance_returns_phi0_squared(small_relu_table):
    out = interpolate(small_relu_table, np.array([0.0, 0.0]), 0.0)
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_interpolate_range_error_mentions_rebuild(small_relu_table):
    with pytest.raises(TableRangeError, match="s_max"):
        interpolate(small_relu_table, 0.0, 17.0)


def test_interpolate_rejects_covariance_above_variance(small_relu_table):
    with pytest.raises(ValueError, match="k_xy"):
        interpolate(small_relu_table, 3.0, 2.0)


def _f_bound(k_var):
    """The largest |k_xy| F accepts at equal variances k_var >= 0."""
    return math.sqrt(abs(k_var * k_var)) * (1.0 + 1e-8) + 1e-15


@pytest.mark.parametrize("k_xy, k_var", [(3.0, 2.0), (-2.0 * (1 + 2e-8), 2.0),
                                         (1e-14, 0.0), (0.0, -1.0),
                                         # one float past the bound, and the least negative variance
                                         (float(np.nextafter(_f_bound(2.0), 3.0)), 2.0),
                                         (-float(np.nextafter(_f_bound(0.3), 1.0)), 0.3),
                                         (0.0, -5e-324)])
def test_every_F_rejects_a_non_covariance_alike(small_relu_table, k_xy, k_var):
    # the closed form, the table and the quadrature share one argument rule
    want = (f"F needs non-negative variances and |k_xy| <= sqrt(k_xx k_yy), "
            f"got k_xy = {k_xy}, k_xx = {k_var}, k_yy = {k_var}")
    # vectors are reported at their first offending entry
    vec = np.array([0.0, k_xy])
    for f in (lambda: RELU.expectation(k_xy, k_var, k_var),
              lambda: RELU.expectation(vec, k_var, k_var),
              lambda: interpolate(small_relu_table, k_xy, k_var),
              lambda: interpolate(small_relu_table, vec, k_var),
              lambda: expectation_direct("relu", k_xy, k_var, k_var, small_relu_table.grid)):
        with pytest.raises(ValueError) as exc:
            f()
        assert str(exc.value) == want


@pytest.mark.parametrize("k_var", [2.0, 0.3, 0.0])
def test_every_F_accepts_k_xy_at_its_bound(small_relu_table, k_var):
    bound = _f_bound(k_var)
    vec = np.array([-bound, 0.0, bound])
    for k_xy in (bound, -bound, vec):
        check_covariance(k_xy, k_var, k_var)
        RELU.expectation(k_xy, k_var, k_var)
        interpolate(small_relu_table, k_xy, k_var)
    expectation_direct("relu", bound, k_var, k_var, small_relu_table.grid)


def test_F_argument_check_lets_nan_through():
    # a NaN compares false against the bound, with scalar or array variances
    for k_xx in (2.0, np.array([2.0, 2.0])):
        check_covariance(math.nan, k_xx, 2.0)
        check_covariance(np.array([math.nan, 0.5]), k_xx, 2.0)
        check_covariance(0.5, math.nan, k_xx)
        # the message still names the first offending entry past a NaN
        with pytest.raises(ValueError, match=r"got k_xy = 3\.0, k_xx = 2\.0"):
            check_covariance(np.array([math.nan, 3.0]), k_xx, 2.0)


def test_interpolate_scalar_and_vector_agree(small_tanh_table):
    vec = interpolate(small_tanh_table, np.array([0.3, -0.2, 0.9]), 1.0)
    for k_xy, want in zip([0.3, -0.2, 0.9], vec):
        assert interpolate(small_tanh_table, k_xy, 1.0) == pytest.approx(want)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_cauchy_schwarz_bound(relu_table, tanh_table):
    for table in (relu_table, tanh_table):
        bound = table.f1d[:, None] + 1e-9
        assert np.all(np.abs(table.f2d) <= bound)


def test_f1d_nonnegative(relu_table, tanh_table):
    assert np.all(relu_table.f1d >= 0.0)
    assert np.all(tanh_table.f1d >= 0.0)


def test_tanh_antisymmetry_in_correlation(tanh_table):
    # symmetric u grid makes the quadrature exactly antisymmetric in c
    flipped = tanh_table.f2d[:, ::-1]
    assert np.all(np.abs(tanh_table.f2d + flipped) <= 1e-14 * tanh_table.f1d[:, None])


def test_relu_monotone_in_correlation(relu_table):
    assert np.all(np.diff(relu_table.f2d, axis=1) >= -1e-12)


@pytest.mark.parametrize("phi", ["relu", "tanh"])
def test_interpolation_matches_offgrid_quadrature(phi, relu_table, tanh_table):
    # bilinear interpolation vs the same quadrature evaluated off-grid
    table = relu_table if phi == "relu" else tanh_table
    rng = np.random.default_rng(5)
    s_vals = rng.uniform(0.5, 90.0, size=12)
    c_vals = rng.uniform(-0.95, 0.95, size=12)
    for s, c in zip(s_vals, c_vals):
        direct = expectation_direct(phi, c * s, s, s, table.grid)
        approx = interpolate(table, c * s, s)
        assert approx == pytest.approx(direct, rel=1e-3, abs=1e-9)


# the seed-5 variances of the off-grid check above
_OFFGRID_S = np.random.default_rng(5).uniform(0.5, 90.0, size=12)


@pytest.mark.parametrize("phi,s", [
    pytest.param(phi, s, id=f"{phi}-s{s:.2f}", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: the ReLU table's accuracy at large s")
        if phi == "relu" and s > 30.0 else ())
    for phi in ("relu", "tanh") for s in _OFFGRID_S
])
def test_interpolation_matches_offgrid_quadrature_in_end_cells(phi, s, relu_table,
                                                               tanh_table):
    # between the outer c nodes and the end nodes c = +-1 the interpolation
    # is linear toward f1d (and -f1d for odd phi)
    table = relu_table if phi == "relu" else tanh_table
    c_vals = [0.9985, 0.999, 0.9995, 0.99999]
    if phi == "tanh":
        c_vals += [-0.999, -0.9995]
    for c in c_vals:
        direct = expectation_direct(phi, c * s, s, s, table.grid)
        approx = interpolate(table, c * s, s)
        assert approx == pytest.approx(direct, rel=1e-3, abs=1e-9)


def test_direct_quadrature_matches_relu_closed_form():
    # Gauss-Hermite converges poorly across ReLU's kink, so the exact
    # arccosine expectation is the independent reference here
    grid = default_grid()
    rng = np.random.default_rng(9)
    for _ in range(8):
        k_xx = rng.uniform(0.2, 8.0)
        k_yy = rng.uniform(0.2, 8.0)
        rho = rng.uniform(-0.98, 0.98)
        k_xy = rho * np.sqrt(k_xx * k_yy)
        a = expectation_direct("relu", k_xy, k_xx, k_yy, grid)
        b = relu_f_closed(k_xy, k_xx, k_yy)
        assert a == pytest.approx(b, rel=2e-3, abs=1e-9)


@pytest.mark.parametrize("k_xx,k_yy", [(0.0, 2.0), (2.0, 0.0)])
def test_direct_quadrature_with_one_variance_at_zero(k_xx, k_yy):
    # E[phi(0) phi(v)] = E[cos v] = exp(-s / 2) under N(0, s), for either side
    cosine = Activation("cosine", np.cos, odd=False)
    got = expectation_direct(cosine, 0.0, k_xx, k_yy)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_direct_quadrature_matches_gauss_hermite_for_tanh():
    grid = default_grid()
    rng = np.random.default_rng(9)
    for _ in range(8):
        k_xx = rng.uniform(0.2, 8.0)
        k_yy = rng.uniform(0.2, 8.0)
        rho = rng.uniform(-0.98, 0.98)
        k_xy = rho * np.sqrt(k_xx * k_yy)
        a = expectation_direct("tanh", k_xy, k_xx, k_yy, grid)
        b = gh_expectation(np.tanh, k_xy, k_xx, k_yy)
        assert a == pytest.approx(b, rel=2e-4, abs=1e-9)


def test_populate_cost_linear_in_variance_count():
    # doubling n_v should roughly double the build time
    grid_a = build_grid(201, 41, 40, 16.0, 16.0)
    grid_b = build_grid(201, 161, 40, 16.0, 16.0)
    t0 = time.perf_counter()
    populate(grid_a, "tanh")
    dt_a = time.perf_counter() - t0
    t0 = time.perf_counter()
    populate(grid_b, "tanh")
    dt_b = time.perf_counter() - t0
    # 4x the variance rows; allow generous wall-clock slop
    assert dt_b / dt_a > 1.5


def test_interpolate_is_constant_time(relu_table, small_relu_table):
    def once(table):
        t0 = time.perf_counter()
        for _ in range(200):
            interpolate(table, 0.7, 2.0)
        return time.perf_counter() - t0

    once(relu_table)  # warm
    big, small = once(relu_table), once(small_relu_table)
    assert big < 50 * max(small, 1e-9)


# ---------------------------------------------------------------------------
# serialization and cache
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path, small_tanh_table):
    path = tmp_path / "t.lut"
    save_table(small_tanh_table, path)
    back = load_table(path)
    np.testing.assert_array_equal(back.f2d, small_tanh_table.f2d)
    np.testing.assert_array_equal(back.f1d, small_tanh_table.f1d)
    assert back.nonlinearity == "tanh"
    assert back.grid.u_max == small_tanh_table.grid.u_max
    assert back.grid.s_max == small_tanh_table.grid.s_max


def test_a_save_that_fails_midway_leaves_no_file_at_the_path(
        tmp_path, small_relu_table, small_tanh_table):
    # a file-size limit below the table's size fails the write part way
    # (EFBIG), as a full disk would: nothing reaches the path, and a table
    # already there stays whole
    path = tmp_path / "t.lut"
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)

    def save_capped():
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
        try:
            save_table(small_tanh_table, path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))

    with pytest.raises(OSError):
        save_capped()
    assert not any(tmp_path.iterdir())
    save_table(small_relu_table, path)
    before = path.read_bytes()
    with pytest.raises(OSError):
        save_capped()
    assert [p.name for p in tmp_path.iterdir()] == ["t.lut"]
    assert path.read_bytes() == before


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.lut"
    path.write_bytes(b"NOTALUT!" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_table(path)


def test_load_rejects_a_file_shorter_than_the_header(tmp_path):
    path = tmp_path / "short.lut"
    path.write_bytes(_MAGIC)
    with pytest.raises(ValueError, match=r"truncated header \(8 bytes\)"):
        load_table(path)


def test_save_refuses_a_phi_tag_longer_than_16_bytes(tmp_path, small_relu_table):
    long_name = Activation("a" * 17, RELU.fn, odd=False)
    table = LookupTable(small_relu_table.grid, small_relu_table.f2d,
                        small_relu_table.f1d, long_name)
    path = tmp_path / "long.lut"
    with pytest.raises(ValueError, match="nonlinearity tag longer than 16 bytes"):
        save_table(table, path)
    assert not any(tmp_path.iterdir())


def test_load_rejects_truncated_file(tmp_path, small_relu_table):
    path = tmp_path / "trunc.lut"
    save_table(small_relu_table, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="bytes"):
        load_table(path)


def test_cache_roundtrip(tmp_path):
    grid = build_grid(51, 5, 6, 4.0, 9.0)
    first = load_or_build("relu", grid, directory=tmp_path)
    assert cache_path("relu", grid, tmp_path).exists()
    second = load_or_build("relu", grid, directory=tmp_path)
    np.testing.assert_array_equal(first.f2d, second.f2d)


def test_cache_dir_defaults_to_the_home_cache(tmp_path, monkeypatch):
    from nngp.lookup import cache_dir

    monkeypatch.delenv("NNGP_CACHE_DIR")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert cache_dir() == tmp_path / ".cache" / "nngp"
    monkeypatch.setenv("NNGP_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert cache_dir() == tmp_path / "elsewhere"


def test_cache_file_of_another_phi_is_rebuilt(tmp_path):
    # a tanh table under the ReLU cache name is a miss, not a ReLU table
    grid = build_grid(51, 5, 6, 4.0, 9.0)
    path = cache_path("relu", grid, tmp_path)
    save_table(populate(grid, "tanh"), path)
    table = load_or_build("relu", grid, directory=tmp_path)
    want = populate(grid, "relu")
    assert (table.activation, table.grid) == (want.activation, want.grid)
    np.testing.assert_array_equal(table.f2d, want.f2d)
    np.testing.assert_array_equal(table.f1d, want.f1d)
    assert load_table(path).nonlinearity == "relu"


def test_cache_file_of_an_older_build_is_rebuilt(tmp_path):
    # a file under any earlier magic came from older build code: a miss even
    # though its phi and grid match. A truncated file is a miss as well.
    grid = build_grid(51, 5, 6, 4.0, 9.0)
    want = populate(grid, "relu")
    path = cache_path("relu", grid, tmp_path)
    save_table(LookupTable(grid, want.f2d + 1e-11, want.f1d, want.activation), path)
    older = [magic + path.read_bytes()[len(_MAGIC):] for magic in OLDER_MAGICS]
    save_table(want, path)
    truncated = path.read_bytes()[:-16]
    for stale in (*older, truncated):
        path.write_bytes(stale)
        table = load_or_build("relu", grid, directory=tmp_path)
        np.testing.assert_array_equal(table.f2d, want.f2d)
        np.testing.assert_array_equal(table.f1d, want.f1d)
        # rewritten: the file now loads, and holds the fresh table
        np.testing.assert_array_equal(load_table(path).f2d, want.f2d)


def test_load_or_build_refuses_an_unregistered_activation(tmp_path):
    # the file records phi by tag alone, so it could never be read back
    softsign = Activation("softsign", lambda u: u / (1.0 + np.abs(u)), odd=True)
    with pytest.raises(ValueError, match="nonlinearity 'softsign' is not registered"):
        load_or_build(softsign, build_grid(51, 5, 6, 4.0, 9.0), directory=tmp_path)
    assert not any(tmp_path.iterdir())
