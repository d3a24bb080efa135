"""Deep-network kernel construction.

The covariance of an infinitely wide fully-connected network is built by a
deterministic recursion: a base case from the raw inputs,

    K0(x, x') = sigma_b^2 + sigma_w^2 (x . x') / d_in,

then one step per hidden layer,

    Kl(x, x') = sigma_b^2 + sigma_w^2 * F(K_{l-1}(x, x'),
                                          K_{l-1}(x, x), K_{l-1}(x', x')),

where F is the two-point expectation tabulated in :mod:`nngp.lookup`. With
all inputs rescaled to a common norm every diagonal entry is identical at
every layer and K_L(x, x') depends only on the cosine x . x' / d_in, so the
layer map is composed once over m fixed base cosines and every entry is
interpolated from the input Gram: O(depth m + n^2), not O(depth n^2). The
layer variance q_l = K_l(x, x) is the same recursion at x' = x, so it is the
composed row's entry at cosine 1; no second recursion runs beside it. The
interpolation finds each entry's interval with an O(1) bracket (equal-width
buckets over the cosine axis) and returns np.interp's value bit for bit, in
row blocks of the Gram, so the n^2 term has a small constant and the only
n^2 buffer is the Gram the kernel is written over.

Where the activation has F in closed form (ReLU: the arccosine kernel) the
step needs no table: it checks the lookup pipeline, and steps inputs of
unequal norm entry by entry, where other nonlinearities use quadrature.

Every matrix product here is scipy's BLAS (:func:`_gram`), never numpy's
``@``: numpy and scipy each bundle their own OpenBLAS with its own thread
pool, and the posterior (:mod:`nngp.regression`) runs on scipy's. A kernel
built on numpy's pool leaves its threads spinning while scipy's start, and on
a two-core machine the two pools slow each other; with one library, one
operation wakes one pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.blas import dgemm

from .activations import RELU, get_activation, registered_activation
from .lookup import LookupTable, TableRangeError, expectation_direct, interpolate

DEFAULT_NOISE = 1e-10
_NORM_RTOL = 1e-6


def check_nonnegative(name: str, v: float) -> None:
    """Raise ValueError unless the variance v is finite and >= 0."""
    if not (np.isfinite(v) and v >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class NetworkHyperparams:
    """Depth, variances, nonlinearity and observation noise of one network.

    Fully identifies a kernel. sigma_w2 = 0 is allowed (bias-only network).
    ``phi`` is a registered tag or Activation and is stored as its tag.
    """

    depth: int
    sigma_w2: float
    sigma_b2: float
    phi: str
    noise: float = DEFAULT_NOISE

    def __post_init__(self):
        if int(self.depth) != self.depth or self.depth < 1:
            raise ValueError(f"depth must be an integer >= 1, got {self.depth}")
        for name in ("sigma_w2", "sigma_b2", "noise"):
            check_nonnegative(name, getattr(self, name))
        object.__setattr__(self, "phi", registered_activation(self.phi).name)


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel blocks over train and test points at one layer.

    ``entries`` holds the rows for the training points against all points,
    i.e. the [K_DD | K_D,test] blocks; test-test off-diagonals are never
    computed (only the test diagonal is needed for the posterior variance).
    With no test points ``entries`` is the full symmetric Gram matrix.

    ``entries`` is stored in Fortran order, so ``kdd`` and the cross columns
    ``entries[:, n_train:]`` are each contiguous: :func:`nngp.regression.posterior`
    factors ``kdd`` where it sits and solves against the cross columns
    without copying either. The kernel read-off produces this layout; other
    arrays are copied into it once.
    """

    entries: np.ndarray
    n_train: int
    test_diag: np.ndarray
    layer: int

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asfortranarray(self.entries))

    @property
    def n_test(self) -> int:
        return self.entries.shape[1] - self.n_train

    @property
    def kdd(self) -> np.ndarray:
        """Train-train block, (n_train, n_train)."""
        return self.entries[:, : self.n_train]

    @property
    def kxd(self) -> np.ndarray:
        """Test-train block, (n_test, n_train)."""
        return self.entries[:, self.n_train:].T


def analytic_relu_step(k_xy, k_xx, k_yy, hp: NetworkHyperparams):
    """Closed-form ReLU step (arccosine kernel): unequal variances, scalars or arrays."""
    out = hp.sigma_b2 + hp.sigma_w2 * RELU.expectation(k_xy, k_xx, k_yy)
    return float(out) if out.ndim == 0 else out


def _layer_map(k, q: float, hp: NetworkHyperparams, table: LookupTable | None,
               layer: int):
    """Advance covariances k (scalar or array) one layer at shared variance q.

    This is the one place the step sigma_b^2 + sigma_w^2 F(k, q) is applied
    to constant-norm covariances; the entry k = q advances the variance itself.
    Without a table the activation's closed-form F is used.
    """
    if table is not None:
        if table.nonlinearity != hp.phi:
            raise ValueError(f"table is for phi = {table.nonlinearity!r}, "
                             f"network has phi = {hp.phi!r}")
        try:
            f = interpolate(table, k, q)
        except TableRangeError as exc:
            raise TableRangeError(f"layer {layer}: {exc}") from exc
    else:
        act = get_activation(hp.phi)
        if act.expectation is None:
            raise ValueError(f"no analytic step for phi = {hp.phi!r}; pass a lookup table")
        f = act.expectation(k, q, q)
    return hp.sigma_b2 + hp.sigma_w2 * f


def _common_squared_norm(x: np.ndarray) -> float:
    norms = np.einsum("ij,ij->i", x, x)
    lo, hi = float(norms.min()), float(norms.max())
    if hi - lo > _NORM_RTOL * max(hi, 1e-30):
        raise ValueError(
            f"inputs must share one squared norm (found range [{lo}, {hi}]); "
            f"preprocess inputs first"
        )
    return float(norms.mean())


def _compose(k: np.ndarray, unit: int, hp: NetworkHyperparams,
             table: LookupTable | None) -> np.ndarray:
    """The kernel's one loop over layers: rows k_0..k_depth of base covariances k.

    k[unit] is at cosine 1, so column unit holds the layer variances q_0..q_depth:
    each layer is stepped at the previous row's own cosine-1 entry."""
    if table is not None and k[unit] > table.grid.s_max:
        raise TableRangeError(
            f"layer 0: base variance {k[unit]} exceeds s_max = {table.grid.s_max}"
        )
    rows = np.empty((hp.depth + 1, k.size))
    rows[0] = k
    for layer in range(1, hp.depth + 1):
        rows[layer] = _layer_map(rows[layer - 1], rows[layer - 1, unit], hp, table, layer)
    return rows


# base cosines of the composition: spacing 2e-3 (finer than the default
# table's c-spacing), plus 1 - c resolved geometrically down to 1e-15
_TRANSFER_COSINES = np.union1d(np.linspace(-1.0, 1.0, 1025),
                               1.0 - np.geomspace(1.0, 1e-15, 2048))
# equal-width buckets over the cosine axis; below c ~ 0.9992 none holds more
# than two transfer nodes, above it the geometric nodes crowd toward c = 1
_BUCKETS = 1 << 16
# Gram entries per row block: each block temporary stays at 512 KiB
_BLOCK_ENTRIES = 1 << 16


class _Bracket:
    """np.interp over the scaled transfer nodes in O(1) per entry, bit for bit.

    An entry's bucket is a monotone function of its value, computed the same
    way for entries and nodes, so every node in a lower bucket lies below the
    entry and every node in a higher one above it. Starting from the count of
    nodes below the entry's bucket, two forward comparisons find np.interp's
    interval wherever a bucket holds at most two nodes; the crowded buckets
    from the first one holding three on are the tail, left to np.interp.
    """

    def __init__(self, nodes: np.ndarray, scale: float):
        self.nodes = nodes
        per_unit = _BUCKETS / (2.0 * scale) if scale > 0.0 else math.inf
        # zero or subnormal norms leave no finite bucket width: one bucket
        # then holds every node and every entry, and np.interp reads them all
        self.per_unit = per_unit if math.isfinite(per_unit) else 0.0
        counts = np.bincount(self.bucket(nodes))
        self.cut = int(np.flatnonzero(counts > 2)[0])
        # nodes below each bucket up to the cut; np.take(..., mode="clip")
        # reads buckets under 0 as 0 and buckets past the cut as the cut
        self.first = np.concatenate(([0], np.cumsum(counts[:self.cut])))

    def bucket(self, v: np.ndarray) -> np.ndarray:
        b = v * self.per_unit
        b += _BUCKETS // 2
        return b.astype(np.intp)

    def interpolator(self, fp: np.ndarray):
        """v -> np.interp(v, nodes, fp): interval j holds np.interp's formula
        slope[j] (v - nodes[j]) + fp[j], with the left clamp as a zero-slope
        interval before node 0."""
        nodes, first, cut = self.nodes, self.first, self.cut
        start = np.concatenate([nodes[:1], nodes])
        with np.errstate(divide="ignore", invalid="ignore"):
            # scaled tail nodes can coincide; np.interp reads the tail
            slope = np.concatenate([[0.0], np.diff(fp) / np.diff(nodes)])
        level = np.concatenate([fp[:1], fp])

        def interp(v: np.ndarray, out: np.ndarray) -> None:
            # e counts the nodes at or below v, so interval e - 1 holds v and
            # index e of start, slope and level is that interval. out may be
            # v itself: v is last read before out is first written.
            b = self.bucket(v)
            e = np.take(first, b, mode="clip")
            e += np.take(nodes, e) <= v
            e += np.take(nodes, e) <= v
            tail = np.flatnonzero(b >= cut)
            tail_values = np.interp(v.flat[tail], nodes, fp)
            np.subtract(v, np.take(start, e), out=out)
            out *= np.take(slope, e)
            out += np.take(level, e)
            out.flat[tail] = tail_values
        return interp


def _gram(x_all: np.ndarray, x_train: np.ndarray) -> np.ndarray:
    """x_all @ x_train.T by scipy's BLAS, a C-order (points, train) array.

    scipy's dgemm returns x_train @ x_all.T in Fortran order; its transpose
    is the same memory read as (points, train)."""
    return dgemm(1.0, x_train, x_all, trans_b=True).T


def _mirror_square(square: np.ndarray, diag: float) -> None:
    """Copy a diagonal block's lower triangle onto its upper one and set its
    diagonal: a general matrix product need not give a bitwise symmetric Gram.
    The index arrays are freed on return, before the next block's interpolation."""
    i, j = np.triu_indices(square.shape[0], 1)
    square[i, j] = square[j, i]
    np.fill_diagonal(square, diag)


def _read_off(train_inputs: np.ndarray, hp: NetworkHyperparams, table: LookupTable,
              test_inputs: np.ndarray | None, layers):
    """Yield the KernelMatrix at each of layers, interpolated from the input Gram.

    The Gram is formed as (points, train) by :func:`_gram`, on the same BLAS
    as the posterior that consumes the kernel. Row blocks of its train
    triangle are interpolated and mirrored, then the test rows; layer depth
    is written over the Gram. Cosines past the end nodes clamp, to q at c = 1.
    """
    x_train = np.asarray(train_inputs, dtype=np.float64)
    n_train = x_train.shape[0]
    if test_inputs is None:
        x_all = x_train
    else:
        x_all = np.vstack([x_train, np.asarray(test_inputs, dtype=np.float64)])
    n_all, d_in = x_all.shape
    rho = _common_squared_norm(x_all) / d_in

    # _TRANSFER_COSINES ends at 1: the last column is the layer variance
    rows = _compose(hp.sigma_b2 + hp.sigma_w2 * rho * _TRANSFER_COSINES, -1, hp, table)
    scale = rho * d_in  # a cosine in units of the Gram's x . x'
    bracket = _Bracket(scale * _TRANSFER_COSINES, scale)
    # (points, train) in C order: its transpose, the entries, is F order
    gram = _gram(x_all, x_train)
    for layer in layers:
        out = gram if layer == hp.depth else np.empty_like(gram)
        interp = bracket.interpolator(rows[layer])
        r0 = 0
        while r0 < n_train:
            # train rows r0:r1 up to the diagonal, (r1 - r0) r1 <= _BLOCK_ENTRIES
            # entries; their entries right of the diagonal come from later
            # blocks, mirrored into rows that are done reading the Gram
            height = (math.isqrt(r0 * r0 + 4 * _BLOCK_ENTRIES) - r0) // 2
            r1 = min(n_train, r0 + max(1, height))
            block = out[r0:r1, :r1]
            interp(gram[r0:r1, :r1], block)
            _mirror_square(block[:, r0:], rows[layer, -1])
            out[:r0, r0:r1] = block[:, :r0].T
            r0 = r1
        step = max(1, _BLOCK_ENTRIES // max(1, n_train))
        for r0 in range(n_train, n_all, step):
            interp(gram[r0:r0 + step], out[r0:r0 + step])
        yield KernelMatrix(out.T, n_train, np.full(n_all - n_train, rows[layer, -1]), layer)


def iter_kernel_layers(train_inputs: np.ndarray, hp: NetworkHyperparams,
                       table: LookupTable, test_inputs: np.ndarray | None = None):
    """Yield the KernelMatrix at layers 0..depth."""
    yield from _read_off(train_inputs, hp, table, test_inputs, range(hp.depth + 1))


def build_kernel_matrix(train_inputs: np.ndarray, hp: NetworkHyperparams,
                        table: LookupTable,
                        test_inputs: np.ndarray | None = None) -> KernelMatrix:
    """Kernel at the output layer over train (and optionally test) points."""
    return next(_read_off(train_inputs, hp, table, test_inputs, [hp.depth]))


@dataclass(frozen=True)
class AngularProfile:
    """Kernel value versus input angle, one row per layer 0..depth.

    Inputs follow the unit-norm convention (||x||^2 = d_in), so row 0 is
    sigma_b^2 + sigma_w^2 cos(theta).
    """

    thetas: np.ndarray
    values: np.ndarray


def angular_profile(hp: NetworkHyperparams, table: LookupTable | None = None,
                    n_angles: int = 181) -> AngularProfile:
    """K^l as a function of the angle between two constant-norm inputs.

    Uses the lookup table when given; otherwise composes the activation's
    closed-form step.
    """
    thetas = np.linspace(0.0, math.pi, n_angles)
    # theta starts at 0: column 0 is the layer variance
    values = _compose(hp.sigma_b2 + hp.sigma_w2 * np.cos(thetas), 0, hp, table)
    return AngularProfile(thetas=thetas, values=values)


def full_kernel(points: np.ndarray, hp: NetworkHyperparams,
                table: LookupTable | None) -> np.ndarray:
    """Full depth-L Gram matrix for points of possibly unequal norm.

    ``points`` is a 1D array of scalar inputs or an (n, d) array. Equal-norm
    points with a table go through :func:`build_kernel_matrix`; otherwise each
    layer steps the upper triangle, every entry at its own diagonals, by the
    closed-form F or else per-pair direct quadrature (fine for the small
    grids prior draws use), and mirrors it.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, d_in = x.shape
    norms = np.einsum("ij,ij->i", x, x)
    const_norm = float(norms.max() - norms.min()) <= _NORM_RTOL * max(float(norms.max()), 1e-30)
    if const_norm and table is not None:
        return build_kernel_matrix(x, hp, table).entries

    act = get_activation(hp.phi)
    grid = table.grid if table is not None else None
    f = act.expectation or np.vectorize(partial(expectation_direct, act, grid=grid),
                                        otypes=[float])
    k = hp.sigma_b2 + hp.sigma_w2 * _gram(x, x) / d_in
    iu, ju = np.triu_indices(n)
    for _ in range(hp.depth):
        d = np.diag(k)
        k[iu, ju] = hp.sigma_b2 + hp.sigma_w2 * f(k[iu, ju], d[iu], d[ju])
        k[ju, iu] = k[iu, ju]
    return k
