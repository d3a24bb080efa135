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
row blocks of the Gram. The intervals, and each entry's offset into its
interval, depend on the inputs alone, so a plan finds them once and every
network read off the same inputs only gathers: one plan per sweep, and one
for all the layers of :func:`iter_kernel_layers`. A single build keeps no
plan; it reads each row block off as soon as it is located, so its only n^2
buffer is the Gram the kernel is written over.

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


def _norms_spread(norms: np.ndarray) -> bool:
    """True when squared norms spread by more than _NORM_RTOL of the largest."""
    return float(norms.max() - norms.min()) > _NORM_RTOL * max(float(norms.max()), 1e-30)


def _common_squared_norm(x: np.ndarray) -> float:
    norms = np.einsum("ij,ij->i", x, x)
    if _norms_spread(norms):
        lo, hi = float(norms.min()), float(norms.max())
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
# Gram entries per row block: each work buffer of a block stays at 512 KiB
_BLOCK_ENTRIES = 1 << 16
# a triangle is mirrored in square tiles of this side, 128 KiB each: at
# n = 300 they take 0.06 ms where 256-tiles take 0.15, and from n = 3000 up
# both take the same time
_TILE = 128
_STRICT_LOWER = np.tri(_TILE, k=-1, dtype=bool)


class _Bracket:
    """np.interp over the scaled transfer nodes in O(1) per entry, bit for bit.

    An entry's bucket is a monotone function of its value, computed the same
    way for entries and nodes, so every node in a lower bucket lies below the
    entry and every node in a higher one above it. Starting from the count of
    nodes below the entry's bucket, two forward comparisons find np.interp's
    interval wherever a bucket holds at most two nodes; the crowded buckets
    from the first one holding three on are the tail, left to np.interp.
    Interval j holds np.interp's formula slope[j] (v - start[j]) + level[j],
    with the left clamp as a zero-slope interval before node 0.
    """

    def __init__(self, nodes: np.ndarray, scale: float):
        self.nodes = nodes
        self.start = np.concatenate([nodes[:1], nodes])
        per_unit = _BUCKETS / (2.0 * scale) if scale > 0.0 else math.inf
        # zero, subnormal or non-finite norms leave no finite bucket width: one
        # bucket then holds every node, even a non-finite one, and every entry,
        # and np.interp reads them all
        self.per_unit = per_unit if math.isfinite(per_unit) else 0.0
        if self.per_unit == 0.0:
            counts = np.bincount(np.full(nodes.size, _BUCKETS // 2))
        else:
            counts = np.bincount(self.bucket(nodes, np.empty(nodes.size),
                                             np.empty(nodes.size, np.intp)))
        self.cut = int(np.flatnonzero(counts > 2)[0])
        # nodes below each bucket up to the cut; np.take(..., mode="clip")
        # reads buckets under 0 as 0 and buckets past the cut as the cut
        self.first = np.concatenate(([0], np.cumsum(counts[:self.cut])))

    def bucket(self, v: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The buckets of v, written into the intp array out through the float work."""
        np.multiply(v, self.per_unit, out=work)
        work += _BUCKETS // 2
        # a NaN entry gets some bucket: its network's composition refuses it
        with np.errstate(invalid="ignore"):
            np.copyto(out, work, casting="unsafe")
        return out

    def lines(self, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """slope and level of every interval of np.interp(., nodes, fp)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            # scaled tail nodes can coincide; np.interp reads the tail
            slope = np.concatenate([[0.0], np.diff(fp) / np.diff(self.nodes)])
        return slope, np.concatenate([fp[:1], fp])


def _gram(x_all: np.ndarray, x_train: np.ndarray) -> np.ndarray:
    """x_all @ x_train.T by scipy's BLAS, a C-order (points, train) array.

    scipy's dgemm returns x_train @ x_all.T in Fortran order; its transpose
    is the same memory read as (points, train)."""
    return dgemm(1.0, x_train, x_all, trans_b=True).T


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the square a's strict lower triangle onto its upper one.

    The copy runs in _TILE x _TILE tiles, so each tile is read and written
    in cache: tiles off the diagonal are plain transposed copies, and each
    diagonal tile copies where its strict lower mask is set. a may be any
    square view; through the transpose of a Fortran-order square, the same
    copy takes the upper triangle onto the lower one.
    """
    n = a.shape[0]
    for i0 in range(0, n, _TILE):
        i1 = min(n, i0 + _TILE)
        for j0 in range(0, i0, _TILE):
            a[j0:j0 + _TILE, i0:i1] = a[i0:i1, j0:j0 + _TILE].T
        tile = a[i0:i1, i0:i1]
        np.copyto(tile.T, tile, where=_STRICT_LOWER[:i1 - i0, :i1 - i0])


class _Plan:
    """What every read-off from one set of inputs shares: one plan per sweep.

    rho is fixed by the inputs, so every network read off them reads the same
    Gram at the same scaled transfer nodes, and each entry's interval e and
    offset dv = v - start[e] are the same for all of them. The plan forms
    the (points, train) Gram by :func:`_gram` and the :class:`_Bracket`
    once. Row blocks cover the train triangle up to the diagonal, then the
    test rows; each block's offsets are written over its part of the Gram,
    and its tail entries, left to np.interp, are kept with their values.

    A kept plan (``keep``) locates every block when it is built and keeps
    each block's intervals, so it can be read off any number of times into
    new buffers: about two Gram-sized arrays, the offsets and the intervals.
    A plan that is not kept is read off once, into its own Gram: each block
    is located in reused block-sized buffers just before it is read off, so
    the plan holds nothing beside the Gram that becomes the kernel.
    """

    def __init__(self, train_inputs: np.ndarray, test_inputs: np.ndarray | None,
                 keep: bool):
        x_train = np.asarray(train_inputs, dtype=np.float64)
        self.n_train = n_train = x_train.shape[0]
        if test_inputs is None:
            x_all = x_train
        else:
            x_all = np.vstack([x_train, np.asarray(test_inputs, dtype=np.float64)])
        self.n_all, d_in = x_all.shape
        self.rho = _common_squared_norm(x_all) / d_in
        scale = self.rho * d_in  # a cosine in units of the Gram's x . x'
        self.bracket = _Bracket(scale * _TRANSFER_COSINES, scale)
        # (points, train) in C order: its transpose, the entries, is F order
        self.gram = _gram(x_all, x_train)
        # (r0, r1, c1) per block: train rows r0:r1 up to the diagonal, with
        # (r1 - r0) r1 <= _BLOCK_ENTRIES entries, then test rows of n_train
        self.bounds = []
        r0 = 0
        while r0 < n_train:
            height = (math.isqrt(r0 * r0 + 4 * _BLOCK_ENTRIES) - r0) // 2
            r1 = min(n_train, r0 + max(1, height))
            self.bounds.append((r0, r1, r1))
            r0 = r1
        step = max(1, _BLOCK_ENTRIES // max(1, n_train))
        self.bounds += [(r0, min(self.n_all, r0 + step), n_train)
                        for r0 in range(n_train, self.n_all, step)]
        sizes = [(r1 - r0) * c1 for r0, r1, c1 in self.bounds]
        self.block_entries = max(sizes, default=0)
        self.kept = list(self._locate(sum(sizes))) if keep else None

    def _locate(self, kept_entries: int = 0):
        """Yield each block's (r0, r1, c1, e, tail, tail values), writing its
        offsets over the Gram.

        e counts the nodes at or below each entry v, so interval e - 1 holds v
        and index e of start, slope and level is that interval. Each block's e
        is contiguous: its own part of one array of kept_entries, or else a
        work buffer that the next block reuses.
        """
        br = self.bracket
        work = np.empty(self.block_entries)
        buckets = np.empty(self.block_entries, np.intp)
        mask = np.empty(self.block_entries, bool)
        intervals = np.empty(max(kept_entries, self.block_entries), np.intp)
        at = 0
        for r0, r1, c1 in self.bounds:
            v = self.gram[r0:r1, :c1]
            shape, size = v.shape, v.size
            f = work[:size].reshape(shape)
            m = mask[:size].reshape(shape)
            b = br.bucket(v, f, buckets[:size].reshape(shape))
            e = intervals[at:at + size].reshape(shape)
            at += size if kept_entries else 0
            np.take(br.first, b, out=e, mode="clip")
            for _ in range(2):
                e += np.less_equal(np.take(br.nodes, e, out=f, mode="clip"), v, out=m)
            tail = np.flatnonzero(np.greater_equal(b, br.cut, out=m))
            tail_values = v.flat[tail]
            np.subtract(v, np.take(br.start, e, out=f, mode="clip"), out=v)
            yield r0, r1, c1, e, tail, tail_values

    def gather(self, fp: np.ndarray, out: np.ndarray) -> None:
        """Write np.interp(Gram, nodes, fp) into the (points, train) array out,
        bit for bit, then mirror its train square and set its diagonal to fp[-1]:
        a general matrix product need not give a bitwise symmetric Gram.

        out is a new buffer for a kept plan, and the plan's own Gram, gathered
        into once, for a plan that is not kept.
        """
        slope, level = self.bracket.lines(fp)
        work = np.empty(self.block_entries)
        blocks = self._locate() if self.kept is None else self.kept
        for r0, r1, c1, e, tail, tail_values in blocks:
            # np.interp's formula in its order: (v - start[e]) slope[e] + level[e]
            block = out[r0:r1, :c1]
            w = work[:e.size].reshape(e.shape)
            np.multiply(self.gram[r0:r1, :c1], np.take(slope, e, out=w, mode="clip"),
                        out=block)
            block += np.take(level, e, out=w, mode="clip")
            block.flat[tail] = np.interp(tail_values, self.bracket.nodes, fp)
        train = out[:self.n_train]
        _mirror_lower(train)
        np.fill_diagonal(train, fp[-1])


def _read_off(plan: _Plan, hp: NetworkHyperparams, table: LookupTable, layers):
    """Yield the KernelMatrix at each of layers, read off the plan.

    The layer map is composed once, over the transfer cosines at the plan's
    rho; cosines past the end nodes clamp, to q at c = 1. A plan that is not
    kept is read off into its own Gram (one layer), a kept plan into a new
    buffer per layer.
    """
    # _TRANSFER_COSINES ends at 1: the last column is the layer variance
    rows = _compose(hp.sigma_b2 + hp.sigma_w2 * plan.rho * _TRANSFER_COSINES, -1, hp, table)
    for layer in layers:
        out = plan.gram if plan.kept is None else np.empty_like(plan.gram)
        plan.gather(rows[layer], out)
        yield KernelMatrix(out.T, plan.n_train,
                           np.full(plan.n_all - plan.n_train, rows[layer, -1]), layer)


def iter_kernel_layers(train_inputs: np.ndarray, hp: NetworkHyperparams,
                       table: LookupTable, test_inputs: np.ndarray | None = None):
    """Yield the KernelMatrix at layers 0..depth, all read off one kept plan."""
    yield from _read_off(_Plan(train_inputs, test_inputs, keep=True), hp, table,
                         range(hp.depth + 1))


def build_kernel_matrix(train_inputs: np.ndarray, hp: NetworkHyperparams,
                        table: LookupTable,
                        test_inputs: np.ndarray | None = None) -> KernelMatrix:
    """Kernel at the output layer over train (and optionally test) points.

    Its plan is not kept: the kernel is written over the input Gram."""
    return next(_read_off(_Plan(train_inputs, test_inputs, keep=False), hp, table,
                          [hp.depth]))


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
    if table is not None and not _norms_spread(np.einsum("ij,ij->i", x, x)):
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
