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
exponent splits into per-node Gaussian factors times a factor that depends
only on u_a - u_b (c >= 0) or u_a + u_b (c < 0), so each cell is a
lag-weighted autocorrelation (or self-convolution) of an n_g-vector,
evaluated with one batched FFT per correlation column. This is
exactly equal to the double sum up to float64 roundoff (~1e-12 relative)
and reduces the build cost from O(n_g^2 n_v n_c) to O(n_g log n_g * n_v n_c);
the default 501 x 501 x 500 table builds in well under a minute on one core.
Queries are answered by bilinear interpolation, O(1), over a c axis closed
by nodes at c = +-1 so that correlations near 1 keep their gaps q - K.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .activations import Activation, get_activation

DEFAULT_N_G = 501
DEFAULT_N_V = 501
DEFAULT_N_C = 500
DEFAULT_S_MAX = 100.0

_MAGIC = b"NNGPLUT1"
_PHI_TAG_BYTES = 16


class GridParameterError(ValueError):
    """A quadrature-grid precondition is violated."""


class TableRangeError(ValueError):
    """A queried variance exceeds the tabulated range."""


class NonFiniteActivationError(ArithmeticError):
    """The nonlinearity produced a non-finite value on the grid."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Fixed sampling grids for pre-activations, variances and correlations.

    u is symmetric about zero and strictly increasing; s starts at 0; the
    correlation points sit strictly inside (-1, 1) at the centers of n_c
    equal subintervals (the degenerate |c| = 1 Gaussians are the diagonal
    table / antisymmetry, the interpolation's end nodes).
    """

    u: np.ndarray
    s: np.ndarray
    c: np.ndarray
    u_max: float
    s_max: float

    @property
    def n_g(self) -> int:
        return self.u.size

    @property
    def n_v(self) -> int:
        return self.s.size

    @property
    def n_c(self) -> int:
        return self.c.size


def build_grid(n_g: int, n_v: int, n_c: int, u_max: float | None = None,
               s_max: float = DEFAULT_S_MAX) -> QuadratureGrid:
    """Construct the linearly spaced (u, s, c) grids.

    ``u_max=None`` means sqrt(2 s_max): s_max < u_max^2 must hold, and this
    keeps factor-2 headroom. Raises GridParameterError naming the violated
    inequality when a precondition fails.
    """
    if u_max is None:
        u_max = float(np.sqrt(2.0 * s_max))
    for name, val in (("n_g", n_g), ("n_v", n_v), ("n_c", n_c)):
        if int(val) != val or val < 2:
            raise GridParameterError(f"{name} >= 2 violated: {name} = {val}")
    if not (u_max > 0.0):
        raise GridParameterError(f"u_max > 0 violated: u_max = {u_max}")
    if not (s_max > 0.0):
        raise GridParameterError(f"s_max > 0 violated: s_max = {s_max}")
    if not (s_max < u_max * u_max):
        raise GridParameterError(
            f"s_max < u_max^2 violated: s_max = {s_max}, u_max^2 = {u_max * u_max}"
        )
    u = np.linspace(-u_max, u_max, int(n_g))
    s = np.linspace(0.0, s_max, int(n_v))
    half = 1.0 / n_c
    c = np.linspace(-1.0 + half, 1.0 - half, int(n_c))
    return QuadratureGrid(u=u, s=s, c=c, u_max=float(u_max), s_max=float(s_max))


def default_grid() -> QuadratureGrid:
    return build_grid(DEFAULT_N_G, DEFAULT_N_V, DEFAULT_N_C)


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
    nonlinearity: str
    activation: Activation = None

    def __post_init__(self):
        if self.activation is None:
            # registry lookup; tables for unregistered activations must be
            # constructed with the instance attached
            object.__setattr__(self, "activation", get_activation(self.nonlinearity))

    @property
    def diag_tol(self) -> float:
        """Half-width of the end cells, between the outer c nodes and c = +-1."""
        c = self.grid.c
        return 0.5 * float(c[1] - c[0])

    @cached_property
    def c_nodes(self) -> np.ndarray:
        """The interpolation's c axis: the grid's c closed by nodes at -1 and 1."""
        return np.concatenate(([-1.0], self.grid.c, [1.0]))


def _fft_column(phi_u: np.ndarray, u: np.ndarray, s_pos: np.ndarray, cj: float,
                nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum_ab x_a x_b w_ab(s, cj) for every s in s_pos, for x = phi(u) and x = 1.

    Returns both sums, the numerator and denominator of F. For cj >= 0:
        w_ab = g_a g_b T_{a-b},  g_a = exp(-u_a^2 / (2 s (1+c))),
        T_m  = exp(-c (m du)^2 / (2 s (1-c^2)))
    and for cj < 0 (so the lag factor still decays):
        w_ab = g_a g_b H_{a+b},  g_a = exp(-u_a^2 / (2 s (1-c))),
        H_m  = exp(c (m du - 2 u_max)^2 / (2 s (1-c^2)))
    turning the double sum into a lag-weighted autocorrelation /
    self-convolution, batched over the whole variance axis. Both sums share g
    and the lag weights; stacking their FFTs would double the transient memory.
    """
    n_g = u.size
    du = u[1] - u[0]
    u_sq = u * u
    if cj >= 0.0:
        g = np.exp(-np.outer(1.0 / (2.0 * s_pos * (1.0 + cj)), u_sq))
        lags = np.arange(-(n_g - 1), n_g) * du
        lag_w = np.exp(-np.outer(cj / (2.0 * s_pos * (1.0 - cj * cj)), lags * lags))
    else:
        g = np.exp(-np.outer(1.0 / (2.0 * s_pos * (1.0 - cj)), u_sq))
        m = np.arange(2 * n_g - 1) * du - 2.0 * u[-1]
        lag_w = np.exp(np.outer(cj / (2.0 * s_pos * (1.0 - cj * cj)), m * m))

    def weighted_sum(x):
        fx = np.fft.rfft(x, n=nfft, axis=1)
        if cj >= 0.0:
            corr = np.fft.irfft(fx * np.conj(fx), n=nfft, axis=1)
            corr = np.concatenate([corr[:, nfft - (n_g - 1):], corr[:, :n_g]], axis=1)
        else:
            corr = np.fft.irfft(fx * fx, n=nfft, axis=1)[:, : 2 * n_g - 1]
        return np.einsum("ij,ij->i", lag_w, corr)

    return weighted_sum(phi_u * g), weighted_sum(g)


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

    s_pos = grid.s[1:]
    n_g = grid.n_g

    # diagonal table: E[phi(u)^2] under N(0, s)
    w1 = np.exp(-np.outer(1.0 / (2.0 * s_pos), grid.u ** 2))
    f1d = np.empty(grid.n_v)
    f1d[0] = phi0_sq
    f1d[1:] = (w1 @ (phi_u * phi_u)) / w1.sum(axis=1)

    nfft = 1 << int(np.ceil(np.log2(2 * n_g - 1)))
    f2d = np.empty((grid.n_v, grid.n_c))
    f2d[0, :] = phi0_sq
    for j, cj in enumerate(grid.c):
        num, den = _fft_column(phi_u, grid.u, s_pos, float(cj), nfft)
        f2d[1:, j] = num / den
    return LookupTable(grid=grid, f2d=f2d, f1d=f1d, nonlinearity=act.name,
                       activation=act)


def interpolate(table: LookupTable, k_xy, k_xx: float):
    """Bilinear lookup of E[phi(u)phi(v)] at covariance k_xy, variance k_xx.

    k_xy may be a scalar or an array (shared k_xx). The c axis ends at
    nodes c = +-1 and is interpolated linearly throughout: the node at 1 is
    the diagonal table f1d, the node at -1 is -f1d for odd phi and the
    lowest column for other phi (a clamp). Scalars in, scalar out.
    """
    grid = table.grid
    k_xx = float(k_xx)
    if k_xx < 0.0:
        raise ValueError(f"variance must be non-negative, got k_xx = {k_xx}")
    if k_xx > grid.s_max * (1.0 + 1e-12):
        raise TableRangeError(
            f"k_xx = {k_xx} exceeds s_max = {grid.s_max}; rebuild the lookup "
            f"table with a larger s_max"
        )
    k_xy_arr = np.asarray(k_xy, dtype=np.float64)
    scalar_in = k_xy_arr.ndim == 0
    k_xy_arr = np.atleast_1d(k_xy_arr)

    phi0_sq = table.activation.value_at_zero ** 2
    if k_xx == 0.0:
        out = np.full(k_xy_arr.shape, phi0_sq)
        return float(out[0]) if scalar_in else out

    limit = k_xx * (1.0 + 1e-8) + 1e-15
    bad = np.abs(k_xy_arr) > limit
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"|k_xy| <= k_xx violated: k_xy = {k_xy_arr[i]}, k_xx = {k_xx}"
        )

    # blend the two bracketing variance rows once, then interpolate in c;
    # np.interp clamps correlations past the end nodes
    ds = grid.s[1] - grid.s[0]
    i0 = min(int(min(k_xx, grid.s_max) / ds), grid.n_v - 2)
    ws = k_xx / ds - i0
    row = np.empty(grid.n_c + 2)
    row[1:-1] = (1.0 - ws) * table.f2d[i0] + ws * table.f2d[i0 + 1]
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
    if k_xx < 0.0 or k_yy < 0.0:
        raise ValueError("variances must be non-negative")
    if abs(k_xy) > np.sqrt(k_xx * k_yy) * (1.0 + 1e-8) + 1e-15:
        raise ValueError("|k_xy| <= sqrt(k_xx k_yy) violated")
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
    grid = table.grid
    tag = table.nonlinearity.encode("ascii")
    if len(tag) > _PHI_TAG_BYTES:
        raise ValueError(f"nonlinearity tag longer than {_PHI_TAG_BYTES} bytes")
    header = struct.pack(
        f"<8s{_PHI_TAG_BYTES}s3q2d",
        _MAGIC, tag.ljust(_PHI_TAG_BYTES, b"\0"),
        grid.n_g, grid.n_v, grid.n_c, grid.u_max, grid.s_max,
    )
    buf = io.BytesIO()
    buf.write(header)
    buf.write(np.ascontiguousarray(table.f1d, dtype="<f8").tobytes())
    buf.write(np.ascontiguousarray(table.f2d, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


def load_table(path) -> LookupTable:
    raw = Path(path).read_bytes()
    head_fmt = f"<8s{_PHI_TAG_BYTES}s3q2d"
    head_size = struct.calcsize(head_fmt)
    if len(raw) < head_size:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, tag, n_g, n_v, n_c, u_max, s_max = struct.unpack_from(head_fmt, raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    phi = tag.rstrip(b"\0").decode("ascii")
    get_activation(phi)  # unknown tag fails here
    grid = build_grid(n_g, n_v, n_c, u_max, s_max)
    want = head_size + 8 * (n_v + n_v * n_c)
    if len(raw) != want:
        raise ValueError(f"{path}: expected {want} bytes, found {len(raw)}")
    f1d = np.frombuffer(raw, dtype="<f8", count=n_v, offset=head_size).copy()
    f2d = np.frombuffer(raw, dtype="<f8", count=n_v * n_c,
                        offset=head_size + 8 * n_v).reshape(n_v, n_c).copy()
    return LookupTable(grid=grid, f2d=f2d, f1d=f1d, nonlinearity=phi)


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


def load_or_build(phi, grid: QuadratureGrid | None = None, directory=None) -> LookupTable:
    """Return the cached table for (phi, grid), building and caching on miss.

    Amortizes the grid-generation cost across experiments; cache location is
    NNGP_CACHE_DIR or ~/.cache/nngp.
    """
    act = get_activation(phi)
    grid = default_grid() if grid is None else grid
    path = cache_path(act.name, grid, directory)
    if path.exists():
        table = load_table(path)
        same = (table.grid.n_g == grid.n_g and table.grid.n_v == grid.n_v
                and table.grid.n_c == grid.n_c
                and table.grid.u_max == grid.u_max
                and table.grid.s_max == grid.s_max)
        if same:
            return table
    table = populate(grid, act)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_table(table, path)
    return table
