"""Precomputed lookup table for the two-point Gaussian expectation.

The deep-kernel recurrence needs, at every layer and for every pair of
points, the expectation

    F(k_xy, k_xx, k_yy) = E[phi(u) phi(v)],   (u, v) ~ N(0, [[k_xx, k_xy],
                                                            [k_xy, k_yy]]).

Because constant-norm preprocessing makes all marginal variances equal
within a layer, F only has to be tabulated on a 2D grid of (variance s,
correlation c). Entries are the ratio of two double sums over a fixed,
linearly spaced pre-activation grid u:

    F_ij = sum_ab phi(u_a) phi(u_b) w_ab(s_i, c_j) / sum_ab w_ab(s_i, c_j)

with w_ab the unnormalized bivariate Gaussian density. A separate 1D table
covers the degenerate c = 1 diagonal, and the s = 0 row is phi(0)^2 exactly.

The double sums are never materialized: on a uniform grid the bivariate
exponent at c >= 0 splits into per-node Gaussian factors times a factor that
depends only on u_a - u_b, so each cell is a lag-weighted autocorrelation of
an n_g-vector. On the symmetric u grid the factor at -c depends on u_a + u_b
alike, so the mirrored cell is the same vector's self-convolution under the
same weights, and columns are built in +-c pairs; an odd phi's -c column is
exactly minus its +c one, so F(0) reads 0. The lag sums are taken in the
frequency domain, so a pair costs three batched real FFTs (the spectra of
the vector, of the Gaussian factors and of the lag weights mirrored about lag
0, which is real) and three weighted sums over the bins: one spectrum of the
vector, taken about the grid centre, gives both the +c and the -c numerator.
This equals the double sum up to float64 roundoff (~1e-14 of the
row's second moment) and reduces the build cost from O(n_g^2 n_v n_c) to
O(n_g log n_g * n_v n_c).
The variance rows are built in fixed chunks of 64, one task per chunk on a
thread per core, so each chunk's work arrays stay in cache. Rows are
computed independently, so the table is the same bits on any number of
cores and in chunks of any size. The default 501 x 501 x 500 table builds in
1.0-1.1 s on two Xeon cores (the fastest of three builds).
Queries are answered by bilinear interpolation, O(1), over a c axis closed
by nodes at c = +-1 so that correlations near 1 keep their gaps q - K.
Tables are cached on disk under a name built from phi and the grid; a cache
file is accepted only when its header's magic, phi and grid equal the
request, and is rebuilt and rewritten otherwise. The magic names the build's
bits, not only the file format: bump it whenever a change to the build
changes any table entry, so that tables left by older code are rebuilt.
"""

from __future__ import annotations

import numbers
import os
import struct
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .activations import Activation, check_covariance, get_activation, registered_activation

DEFAULT_N_G = 501
DEFAULT_N_V = 501
DEFAULT_N_C = 500
DEFAULT_S_MAX = 100.0

# names the build's bits: bump it whenever a build change moves any entry
_MAGIC = b"NNGPLUT5"
_PHI_TAG_BYTES = 16
# cache file header: magic, phi tag, n_g, n_v, n_c, u_max, s_max
_HEADER = struct.Struct(f"<8s{_PHI_TAG_BYTES}s3q2d")
# variance rows per build task: a chunk's FFT work arrays stay in cache. The
# chunk size moves no bit: chunks of 1 to 500 rows build the same table
_ROW_CHUNK = 64


class GridParameterError(ValueError):
    """A quadrature-grid precondition is violated."""


def require_number(name: str, value, integer: bool = False,
                   error: type[ValueError] = ValueError) -> None:
    """Raise error naming name unless value is a real number, of integral
    value when integer is set (3.0 is an integer); a bool or a string is
    neither."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not ok or (integer and not float(value).is_integer()):
        raise error(f"{name} must be {'an integer' if integer else 'a number'}, "
                    f"not {value!r}")


class TableRangeError(ValueError):
    """A queried variance exceeds the tabulated range."""


class NonFiniteActivationError(ArithmeticError):
    """The nonlinearity produced a non-finite value on the grid."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Fixed sampling grids for pre-activations, variances and correlations.

    A value of its five parameters, which it compares and hashes by and
    builds the arrays from once. u is symmetric about zero and strictly
    increasing; s starts at 0; the correlation points sit strictly inside
    (-1, 1) at the centers of n_c equal subintervals (the degenerate |c| = 1
    Gaussians are the diagonal table / antisymmetry, the interpolation's end
    nodes). A violated precondition raises GridParameterError naming it.
    """

    n_g: int
    n_v: int
    n_c: int
    u_max: float
    s_max: float
    u: np.ndarray = field(init=False, compare=False, repr=False)
    s: np.ndarray = field(init=False, compare=False, repr=False)
    c: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("n_g", "n_v", "n_c", "u_max", "s_max"):
            require_number(name, getattr(self, name), name.startswith("n_"),
                           GridParameterError)
        for name in ("n_g", "n_v", "n_c"):
            val = getattr(self, name)
            if val < 2:
                raise GridParameterError(f"{name} >= 2 violated: {name} = {val}")
            object.__setattr__(self, name, int(val))
        u_max, s_max = self.u_max, self.s_max
        if not (u_max > 0.0):
            raise GridParameterError(f"u_max > 0 violated: u_max = {u_max}")
        if not (s_max > 0.0):
            raise GridParameterError(f"s_max > 0 violated: s_max = {s_max}")
        if not (s_max < u_max * u_max):
            raise GridParameterError(
                f"s_max < u_max^2 violated: s_max = {s_max}, u_max^2 = {u_max * u_max}"
            )
        half = 1.0 / self.n_c
        for name, val in (("u_max", float(u_max)), ("s_max", float(s_max)),
                          ("u", np.linspace(-u_max, u_max, self.n_g)),
                          ("s", np.linspace(0.0, s_max, self.n_v)),
                          ("c", np.linspace(-1.0 + half, 1.0 - half, self.n_c))):
            object.__setattr__(self, name, val)


def build_grid(n_g: int = DEFAULT_N_G, n_v: int = DEFAULT_N_V, n_c: int = DEFAULT_N_C,
               u_max: float | None = None, s_max: float = DEFAULT_S_MAX) -> QuadratureGrid:
    """The grid with these parameters; ``u_max=None`` means sqrt(2 s_max).

    s_max < u_max^2 must hold, and the default keeps factor-2 headroom.
    """
    if u_max is None:
        require_number("s_max", s_max, error=GridParameterError)
        u_max = float(np.sqrt(2.0 * s_max))
    return QuadratureGrid(n_g, n_v, n_c, u_max, s_max)


def default_grid() -> QuadratureGrid:
    return build_grid()


@dataclass(frozen=True)
class LookupTable:
    """Tabulated values of E[phi(u)phi(v)] over (variance, correlation).

    f2d[i, j] is the expectation at variance s_i, correlation c_j; f1d[i] is
    the second moment E[phi(u)^2] at variance s_i (the c = 1 diagonal).
    Immutable after construction and safe for concurrent reads.
    """

    grid: QuadratureGrid
    f2d: np.ndarray
    f1d: np.ndarray
    activation: Activation

    @property
    def nonlinearity(self) -> str:
        return self.activation.name

    @property
    def diag_tol(self) -> float:
        """Half-width of the end cells, between the outer c nodes and c = +-1."""
        c = self.grid.c
        return 0.5 * float(c[1] - c[0])

    @cached_property
    def c_nodes(self) -> np.ndarray:
        """The interpolation's c axis: the grid's c closed by nodes at -1 and 1."""
        return np.concatenate(([-1.0], self.grid.c, [1.0]))


def _lag_spectrum(coef: np.ndarray, lags: np.ndarray, nfft: int) -> np.ndarray:
    """Bins 0..nfft/2 of W_k = T_0 + 2 sum_m T_m cos(2 pi k m / nfft), one row per
    coef, with T_m = exp(-coef lags_m^2): the DFT of T mirrored about lag 0, which
    is real. It is the real part of one rfft of an nfft buffer whose slots m and
    nfft-m hold T_m (nfft >= 2 n_g - 1, so the two halves do not meet)."""
    n_g = lags.size
    mirrored = np.zeros((coef.size, nfft))
    np.exp(-np.outer(coef, lags * lags), out=mirrored[:, :n_g])
    mirrored[:, nfft - n_g + 1:] = mirrored[:, n_g - 1:0:-1]
    return np.fft.rfft(mirrored, axis=1).real


def _fft_pair(phi_u: np.ndarray, u: np.ndarray, s_pos: np.ndarray, c: float, lags: np.ndarray,
              fold: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerators of F at +c and -c (c >= 0) for every s in s_pos, and their denominator.

    With g_a = exp(-u_a^2 / (2 s (1+c))) and T_m = exp(-c (m du)^2 / (2 s (1-c^2))),
    the weight at +c is w_ab = g_a g_b T_{a-b}; on the symmetric u grid the one at
    -c is g_a g_b T_{a+b-(n_g-1)}, its image under u_b -> -u_b, so the sums of w_ab,
    the denominators, are equal. The numerators are T-weighted sums of the
    autocorrelation and the self-convolution of x = phi(u) g. By Parseval each is
    a dot over the rfft bins k of x (length N >= 2 n_g - 1, so nothing wraps) with
    T's spectrum W (_lag_spectrum): the autocorrelation's with |X|^2, the
    self-convolution's with X^2 times exp(2 pi i k (n_g-1) / N), which undoes the
    offset n_g-1. Taken about the grid centre, Y = X half with
    half_k = exp(i pi k (n_g-1) / N) (a half-integer shift for even n_g), the two
    are Re(Y)^2 + Im(Y)^2 and Re(Y)^2 - Im(Y)^2: with A and B the W-weighted sums
    of Re(Y)^2 and Im(Y)^2, the numerators are A + B and A - B. fold weighs bins
    0..N/2 by 1, 2, ..., 2, 1 over N: an inner bin stands for its mirror.
    """
    nfft = 2 * (fold.size - 1)
    g = np.exp(-np.outer(1.0 / (2.0 * s_pos * (1.0 + c)), u * u))
    bin_w = _lag_spectrum(c / (2.0 * s_pos * (1.0 - c * c)), lags, nfft) * fold
    fy = np.fft.rfft(phi_u * g, n=nfft, axis=1)
    fy *= half
    a = np.einsum("ij,ij,ij->i", bin_w, fy.real, fy.real)
    b = np.einsum("ij,ij,ij->i", bin_w, fy.imag, fy.imag)
    del fy  # before g's spectrum, so the peak holds one spectrum
    fg = np.fft.rfft(g, n=nfft, axis=1)
    return a + b, a - b, np.einsum("ij,ij->i", bin_w, (fg * fg.conj()).real)


def _pair_constants(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_fft_pair's lags 0..n_g-1, bin weights and half-offset phase, fixed by the u grid."""
    n_g = u.size
    nfft = 1 << int(np.ceil(np.log2(2 * n_g - 1)))
    k = np.arange(nfft // 2 + 1)
    fold = np.where((k == 0) | (k == nfft // 2), 1.0, 2.0) / nfft
    return np.arange(n_g) * (u[1] - u[0]), fold, np.exp(1j * np.pi * k * (n_g - 1) / nfft)


def populate(grid: QuadratureGrid, phi) -> LookupTable:
    """Fill the 2D and diagonal lookup tables for a nonlinearity.

    The s = 0 row bypasses quadrature (point-mass Gaussian) and is set to
    phi(0)^2 directly.
    """
    act = get_activation(phi)
    phi_u = np.asarray(act.fn(grid.u), dtype=np.float64)
    if not np.all(np.isfinite(phi_u)):
        bad = int(np.flatnonzero(~np.isfinite(phi_u))[0])
        raise NonFiniteActivationError(
            f"phi({grid.u[bad]!r}) is not finite (grid point index {bad})"
        )
    phi0_sq = act.value_at_zero ** 2
    if not np.isfinite(phi0_sq):
        raise NonFiniteActivationError("phi(0) is not finite")

    lags, fold, half = _pair_constants(grid.u)
    f1d = np.empty(grid.n_v)
    f2d = np.zeros((grid.n_v, grid.n_c))
    f1d[0] = phi0_sq
    f2d[0, :] = phi0_sq

    def fill(lo: int) -> None:
        rows = slice(1 + lo, min(1 + lo + _ROW_CHUNK, grid.n_v))
        s_rows = grid.s[rows]
        # diagonal table: E[phi(u)^2] under N(0, s)
        w1 = np.exp(-np.outer(1.0 / (2.0 * s_rows), grid.u ** 2))
        f1d[rows] = (w1 @ (phi_u * phi_u)) / w1.sum(axis=1)
        # grid.c is symmetric: column n_c-1-j sits at -c_j, where an odd phi's
        # F is exactly -F(c_j). With odd n_c the middle column, at c = 0, is
        # its own mirror: it keeps its +c value, written last, or stays 0 for
        # an odd phi.
        for j in range((grid.n_c + act.odd) // 2, grid.n_c):
            num_pos, num_neg, den = _fft_pair(phi_u, grid.u, s_rows, float(grid.c[j]),
                                              lags, fold, half)
            f2d[rows, grid.n_c - 1 - j] = (-num_pos if act.odd else num_neg) / den
            f2d[rows, j] = num_pos / den

    # every row is computed on its own and each task writes its own rows; the
    # chunks depend on the grid alone, so the table does not depend on the
    # number of cores
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        list(pool.map(fill, range(0, grid.n_v - 1, _ROW_CHUNK)))
    return LookupTable(grid=grid, f2d=f2d, f1d=f1d, activation=act)


def interpolate(table: LookupTable, k_xy, k_xx: float):
    """Bilinear lookup of E[phi(u)phi(v)] at covariance k_xy, variance k_xx.

    k_xy may be a scalar or an array (shared k_xx). The c axis ends at
    nodes c = +-1 and is interpolated linearly throughout: the node at 1 is
    the diagonal table f1d, the node at -1 is -f1d for odd phi and the
    lowest column for other phi (a clamp). Scalars in, scalar out.
    """
    grid = table.grid
    k_xx = float(k_xx)
    k_xy_arr = np.asarray(k_xy, dtype=np.float64)
    check_covariance(k_xy_arr, k_xx, k_xx)
    if k_xx > grid.s_max * (1.0 + 1e-12):
        raise TableRangeError(
            f"k_xx = {k_xx} exceeds s_max = {grid.s_max}; rebuild the lookup "
            f"table with a larger s_max"
        )
    scalar_in = k_xy_arr.ndim == 0
    k_xy_arr = np.atleast_1d(k_xy_arr)

    if k_xx == 0.0:
        out = np.full(k_xy_arr.shape, table.activation.value_at_zero ** 2)
        return float(out[0]) if scalar_in else out

    # blend the two bracketing variance rows once, then interpolate in c;
    # np.interp clamps correlations past the end nodes
    ds = grid.s[1] - grid.s[0]
    i0 = min(int(min(k_xx, grid.s_max) / ds), grid.n_v - 2)
    ws = k_xx / ds - i0
    row = np.empty(grid.n_c + 2)
    blend = row[1:-1]
    np.multiply(table.f2d[i0], 1.0 - ws, out=blend)
    blend += ws * table.f2d[i0 + 1]
    row[-1] = (1.0 - ws) * table.f1d[i0] + ws * table.f1d[i0 + 1]
    row[0] = -row[-1] if table.activation.odd else row[1]

    out = np.interp(k_xy_arr / k_xx, table.c_nodes, row)
    return float(out[0]) if scalar_in else out


def expectation_direct(phi, k_xy: float, k_xx: float, k_yy: float,
                       grid: QuadratureGrid | None = None) -> float:
    """Ratio-of-sums quadrature of E[phi(u)phi(v)] at one covariance triple.

    Unlike the table this accepts unequal marginal variances; it is the
    off-grid reference the interpolation is checked against, and the slow
    path for kernels over inputs of unequal norm. O(n_g^2) per call.
    """
    act = get_activation(phi)
    grid = default_grid() if grid is None else grid
    k_xx = float(k_xx)
    k_yy = float(k_yy)
    check_covariance(k_xy, k_xx, k_yy)
    phi0 = act.value_at_zero
    u = grid.u

    def moment_1d(f, var):
        w = np.exp(-u * u / (2.0 * var))
        return float((w @ f) / w.sum())

    if k_xx == 0.0 and k_yy == 0.0:
        return phi0 * phi0
    if k_xx == 0.0:
        return phi0 * moment_1d(np.asarray(act.fn(u)), k_yy)
    if k_yy == 0.0:
        return moment_1d(np.asarray(act.fn(u)), k_xx) * phi0

    rho = np.clip(k_xy / np.sqrt(k_xx * k_yy), -1.0, 1.0)
    if 1.0 - abs(rho) < 1e-12:
        # degenerate: v = sign(rho) sqrt(k_yy/k_xx) u along the grid for u
        lam = np.sign(rho) * np.sqrt(k_yy / k_xx)
        f = np.asarray(act.fn(u)) * np.asarray(act.fn(lam * u))
        return moment_1d(f, k_xx)

    det = k_xx * k_yy * (1.0 - rho * rho)
    ua = u[:, None]
    ub = u[None, :]
    quad = (k_yy * ua * ua - 2.0 * k_xy * ua * ub + k_xx * ub * ub) / det
    w = np.exp(-0.5 * quad)
    fu = np.asarray(act.fn(u))
    num = fu @ w @ fu
    den = w.sum()
    return float(num / den)


# ---------------------------------------------------------------------------
# binary cache: magic, phi tag, grid parameters, then f1d and f2d as <f8
# ---------------------------------------------------------------------------

def save_table(table: LookupTable, path) -> None:
    """Write the table to path through a temporary file beside it, then
    os.replace it onto path: a reader running alongside the write finds the
    old file or the whole new one, never a part. Nothing is fsynced, so this
    does not hold across a crash: a machine crash can leave a truncated file
    at path (load_table's size check rejects it), and a process killed
    mid-write leaves its <name>.<hex>.tmp behind, which nothing removes."""
    grid = table.grid
    tag = table.nonlinearity.encode("ascii")
    if len(tag) > _PHI_TAG_BYTES:
        raise ValueError(f"nonlinearity tag longer than {_PHI_TAG_BYTES} bytes")
    header = _HEADER.pack(_MAGIC, tag.ljust(_PHI_TAG_BYTES, b"\0"),
                          grid.n_g, grid.n_v, grid.n_c, grid.u_max, grid.s_max)
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(table.f1d, dtype="<f8").data)
            fh.write(np.ascontiguousarray(table.f2d, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_table(path) -> LookupTable:
    raw = Path(path).read_bytes()
    head_size = _HEADER.size
    if len(raw) < head_size:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, tag, n_g, n_v, n_c, u_max, s_max = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    act = get_activation(tag.rstrip(b"\0").decode("ascii"))  # unknown tag fails here
    grid = build_grid(n_g, n_v, n_c, u_max, s_max)
    want = head_size + 8 * (n_v + n_v * n_c)
    if len(raw) != want:
        raise ValueError(f"{path}: expected {want} bytes, found {len(raw)}")
    f1d = np.frombuffer(raw, dtype="<f8", count=n_v, offset=head_size).copy()
    f2d = np.frombuffer(raw, dtype="<f8", count=n_v * n_c,
                        offset=head_size + 8 * n_v).reshape(n_v, n_c).copy()
    return LookupTable(grid=grid, f2d=f2d, f1d=f1d, activation=act)


def cache_dir() -> Path:
    env = os.environ.get("NNGP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nngp"


def cache_path(phi: str, grid: QuadratureGrid, directory=None) -> Path:
    base = cache_dir() if directory is None else Path(directory)
    name = (f"{phi}_g{grid.n_g}_v{grid.n_v}_c{grid.n_c}"
            f"_u{grid.u_max:.8g}_s{grid.s_max:.8g}.lut")
    return base / name


def cached_table(phi, grid: QuadratureGrid, directory=None) -> LookupTable | None:
    """The cached table if its file answers (phi, grid), else None: it must
    load (the current magic, not truncated) and its header name this phi and
    grid. ``phi`` must be registered, since the file records it by tag."""
    act = registered_activation(phi)
    try:
        table = load_table(cache_path(act.name, grid, directory))
    except (FileNotFoundError, ValueError):
        return None
    return table if (table.activation, table.grid) == (act, grid) else None


def load_or_build(phi, grid: QuadratureGrid | None = None, directory=None) -> LookupTable:
    """Return the cached table for (phi, grid), building and caching on miss.

    Amortizes the grid-generation cost across experiments; cache location is
    NNGP_CACHE_DIR or ~/.cache/nngp. A file that :func:`cached_table`
    refuses is rebuilt and overwritten."""
    grid = default_grid() if grid is None else grid
    table = cached_table(phi, grid, directory)
    if table is None:
        table = populate(grid, phi)
        path = cache_path(table.nonlinearity, grid, directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_table(table, path)
    return table
