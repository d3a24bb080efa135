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
composed row's entry at cosine 1; no second recursion runs beside it.

One object owns the read-off, :class:`_Plan`: it forms the Gram and reads
every entry off as np.interp would, bit for bit, with an O(1) bracket
(equal-width buckets over the cosine axis). A kept plan locates the entries
once for a whole sweep, or for all the layers of :func:`iter_kernel_layers`.

Storage (:class:`KernelMatrix`): a kernel read off its inputs stores the
symmetric train block once, as its lower triangle in LAPACK's rectangular
full packed (RFP) layout, n_train (n_train + 1) / 2 doubles, and its plan.
The build forms the Gram's lower triangle straight into that packed array
(LAPACK's dsfrk) and reads it off there, so no n_train^2 array exists. The
cross block is not stored: any range of test columns is read off the plan
on request, and the posterior (:mod:`nngp.regression`) streams it a panel
of columns at a time, so no n_train x n_test array exists either. The
posterior factors the packed block in place, and the kernel re-reads it
off its plan when it is next used. ``entries``, ``kdd`` and ``kxd`` are
built on request.

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
from scipy.linalg.lapack import dsfrk, dtrttf

from .activations import RELU, get_activation, registered_activation
from .lookup import (LookupTable, TableRangeError, expectation_direct, interpolate,
                     require_number)

DEFAULT_NOISE = 1e-10
_NORM_RTOL = 1e-6


def check_nonnegative(name: str, v: float) -> None:
    """Raise ValueError unless the variance v is a finite number >= 0."""
    require_number(name, v)
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
        require_number("depth", self.depth, integer=True)
        if self.depth < 1:
            raise ValueError(f"depth must be an integer >= 1, got {self.depth}")
        # an integral float such as 3.0 counts as a depth, stored as an int
        object.__setattr__(self, "depth", int(self.depth))
        for name in ("sigma_w2", "sigma_b2", "noise"):
            check_nonnegative(name, getattr(self, name))
        object.__setattr__(self, "phi", registered_activation(self.phi).name)


class KernelMatrix:
    """Kernel blocks over train and test points at one layer.

    What is stored. The symmetric train-train block K_DD is held once: a
    kernel read off its inputs (:func:`build_kernel_matrix`,
    :func:`iter_kernel_layers`, a sweep's plan) stores only its lower
    triangle, n_train (n_train + 1) / 2 doubles in LAPACK's rectangular full
    packed (RFP) layout, TRANSR = 'N', UPLO = 'L' (see :func:`_rfp_views`),
    and the plan it was read off. Test-test off-diagonals are never
    computed: ``test_diag`` holds the test points' own variances, all the
    posterior needs.

    What is streamed. Such a kernel stores no cross block K_D,test: any
    range of its test columns is read off the plan on request
    (:meth:`_read_cross`), with the bits a whole read-off would give, and
    :func:`nngp.regression.posterior` reads it one panel of columns at a
    time into one reused buffer. So no n_train x n_test array exists.

    What is built on request. ``entries`` (the [K_DD | K_D,test] rows, F
    order), ``kdd`` (both triangles) and ``kxd`` are built anew at each
    access. With no test points ``entries`` is the full symmetric Gram
    matrix.

    What a posterior consumes and regenerates. The posterior factors the
    packed block where it sits, so the factor overwrites it. The next
    access, or the next factorization (a noise retry or a later posterior),
    first re-reads the block off the plan, bit for bit, so the kernel reads
    as before.

    The constructor takes the dense rows, ``KernelMatrix(entries, n_train,
    test_diag, layer)``, and keeps them as given (copied into F order if
    they are not); a posterior factors a packed copy of their K_DD's lower
    triangle, copies their cross columns a panel at a time, and leaves them
    untouched.
    """

    def __init__(self, entries: np.ndarray, n_train: int, test_diag: np.ndarray,
                 layer: int):
        self._dense = np.asfortranarray(entries)
        self._plan = self._transfer = self._packed = None
        self._consumed = False
        self.n_train, self.n_test = n_train, self._dense.shape[1] - n_train
        self.test_diag, self.layer = test_diag, layer

    @classmethod
    def _read_off(cls, plan: "_Plan", transfer: tuple, packed: np.ndarray,
                  test_diag: np.ndarray, layer: int) -> "KernelMatrix":
        """The kernel of transfer row transfer (see :meth:`_Plan.transfer`)
        over plan's inputs, with its K_DD already in packed."""
        k = cls.__new__(cls)
        k._dense, k._plan, k._transfer, k._packed = None, plan, transfer, packed
        k._consumed = False
        k.n_train, k.n_test = plan.n_train, test_diag.size
        k.test_diag, k.layer = test_diag, layer
        return k

    @property
    def entries(self) -> np.ndarray:
        """[K_DD | K_D,test], (n_train, n_train + n_test), F order."""
        if self._dense is not None:
            return self._dense
        out = np.empty((self.n_train, self.n_train + self.n_test), order="F")
        self._unpack(out[:, :self.n_train])
        self._read_cross(0, self.n_test, out[:, self.n_train:])
        return out

    @property
    def kdd(self) -> np.ndarray:
        """Train-train block, (n_train, n_train), F order."""
        if self._dense is not None:
            return self._dense[:, :self.n_train]
        out = np.empty((self.n_train, self.n_train), order="F")
        self._unpack(out)
        return out

    @property
    def kxd(self) -> np.ndarray:
        """Test-train block, (n_test, n_train)."""
        if self._dense is not None:
            return self._dense[:, self.n_train:].T
        out = np.empty((self.n_train, self.n_test), order="F")
        self._read_cross(0, self.n_test, out)
        return out.T

    def _read_cross(self, c0: int, c1: int, out: np.ndarray) -> None:
        """Write K_D,test's columns c0:c1 into the F-order (n_train, c1 - c0)
        out: read off the plan (c0 a multiple of 256, see
        :meth:`_Plan.read_cross`), or copied from the dense rows."""
        if self._dense is None:
            self._plan.read_cross(self._transfer, c0, c1, out)
        else:
            np.copyto(out, self._dense[:, self.n_train + c0:self.n_train + c1])

    def _fresh(self) -> np.ndarray:
        """The packed K_DD, re-read off the plan first if a factor consumed it."""
        if self._consumed:
            self._plan.fill(self._transfer, self._packed)
            self._consumed = False
        return self._packed

    def _unpack(self, out: np.ndarray) -> None:
        """Write K_DD, both triangles, into the square out."""
        _unpack_lower(self._fresh(), out)
        _mirror_lower(out)

    def _stored(self) -> np.ndarray:
        """Every stored value as a 2D array: the dense rows, or the packed
        K_DD's RFP array as its F-order rectangle."""
        if self._dense is not None:
            return self._dense
        return _rfp_rectangle(self._fresh(), self.n_train)

    def _factor_block(self) -> np.ndarray:
        """K_DD's lower triangle in RFP layout, in an array that a
        factorization may overwrite: the kernel's own packed block, which is
        then consumed, or a packed copy of the dense rows."""
        if self._dense is not None:
            return _pack_lower(self._dense[:, :self.n_train])
        packed = self._fresh()
        self._consumed = True
        return packed


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
# test rows per panel of the cross block's Gram: each panel is one dgemm into
# the columns it is read off in
_PANEL_ROWS = 256
# train Gram entries per block: each work buffer of a block stays at 256 KiB
_BLOCK_ENTRIES = 1 << 15
# test rows per block: _CROSS_BLOCK_ROWS, or as many as fill
# _CROSS_BLOCK_ENTRIES where n_train is small. A block's four work buffers
# (25 bytes an entry) then take 200 bytes per training point or 200 KiB,
# whichever is more; with the posterior's finiteness scan (64 bytes per
# training point) that fits in the n_train x 512 bytes of one byte mask over
# a panel of test columns from 460 training points up. Below that, 8-row
# blocks would be so small that their per-block calls dominate: at 100
# training points and 20000 test points, they took a build and posterior
# 2.4 times as long
_CROSS_BLOCK_ROWS = 8
_CROSS_BLOCK_ENTRIES = 1 << 13
# a triangle is mirrored in square tiles of this side, 128 KiB each: at
# n = 300 they take 0.06 ms where 256-tiles take 0.15, and from n = 3000 up
# both take the same time
_TILE = 128
_STRICT_LOWER = np.tri(_TILE, k=-1, dtype=bool)


def _panels(r0: int, r1: int) -> list[tuple[int, int]]:
    """Row bounds of the Gram's panels over rows r0:r1, _PANEL_ROWS rows
    each. A whole read-off of the test rows starts its panels at n_train; a
    range that starts on one of its panel bounds forms each row in the same
    product, so with the same bits."""
    return [(p0, min(r1, p0 + _PANEL_ROWS)) for p0 in range(r0, r1, _PANEL_ROWS)]


def _gram_rows(x_rows: np.ndarray, x_train: np.ndarray, out: np.ndarray) -> None:
    """Write x_rows @ x_train.T by scipy's BLAS into out.T, out an F-order
    (train, rows) array.

    C-order inputs are passed as their F-order transposes, so nothing is
    copied on the way in, and dgemm writes straight into out."""
    if out.size:
        dgemm(1.0, x_train.T, x_rows.T, trans_a=True, c=out, overwrite_c=True)


def _gram_lower(x_train: np.ndarray, packed: np.ndarray) -> None:
    """Write x_train @ x_train.T's lower triangle by LAPACK's dsfrk into the
    RFP array packed (TRANSR = 'N', UPLO = 'L', see :func:`_rfp_views`).

    The C-order x_train is passed as its F-order transpose, so nothing is
    copied on the way in, and dsfrk writes straight into packed."""
    n, d_in = x_train.shape
    if packed.size:
        dsfrk(n, d_in, 1.0, x_train.T, 0.0, packed, transr="N", uplo="L", trans="T",
              overwrite_c=1)


def _gram(x_all: np.ndarray, x_train: np.ndarray) -> np.ndarray:
    """x_all @ x_train.T by scipy's BLAS, a C-order (points, train) array.

    It is formed panel by panel (:func:`_panels`), each panel one dgemm, just
    as the read-off forms its cross block: the same entries from one product
    over all rows need not be the same bits. The read-off forms its train
    triangle by :func:`_gram_lower` instead, and forms neither whole."""
    n_all, n_train = x_all.shape[0], x_train.shape[0]
    out = np.empty((n_train, n_all), order="F")
    for r0, r1 in _panels(0, n_train) + _panels(n_train, n_all):
        _gram_rows(x_all[r0:r1], x_train, out[:, r0:r1])
    return out.T


def _rfp_rectangle(packed: np.ndarray, n: int) -> np.ndarray:
    """An n x n lower triangle's RFP array as its F-order rectangle:
    (n + 1, n / 2) for even n, (n, (n + 1) / 2) for odd n."""
    return packed.reshape((n + 1 - n % 2, (n + 1) // 2), order="F")


def _rfp_views(packed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, last): the lower triangle L of an n x n matrix, held in RFP
    layout (LAPACK's rectangular full packed format, TRANSR = 'N',
    UPLO = 'L'), as two strided views of its rectangle.

    With n1 = ceil(n / 2), first[i, j] = L[i, j] for the first n1 columns,
    and last[i, j] = L[n1 + i, n1 + j], the trailing triangle, for i >= j.
    The rectangle holds the first n1 columns of L from its row 1 (even n) or
    row 0 (odd n) down, and the trailing triangle transposed above them.
    Entries of either view above L's diagonal belong to the other view.
    """
    a = _rfp_rectangle(packed, n)
    n1, odd = a.shape[1], n % 2
    return a[1 - odd:], a[:n - n1, odd:odd + n - n1].T


def _rfp_diagonal(n: int) -> np.ndarray:
    """Flat indices of L's diagonal in its RFP array (see :func:`_rfp_views`):
    its first n1 entries down the rectangle's leading columns, the trailing
    triangle's across its top rows."""
    n1, odd = (n + 1) // 2, n % 2
    lda, d = n + 1 - odd, np.arange(n)
    return np.where(d < n1, d * lda + d + 1 - odd, (d - n1 + odd) * lda + d - n1)


def _pack_lower(a: np.ndarray) -> np.ndarray:
    """The square a's lower triangle as a new RFP array; a's upper triangle is
    never read."""
    return dtrttf(a, transr="N", uplo="L")[0]


def _unpack_lower(packed: np.ndarray, out: np.ndarray) -> None:
    """Write the lower triangle held in the RFP array packed into the square
    out's lower triangle; out's strict upper triangle gets other entries."""
    first, last = _rfp_views(packed, out.shape[0])
    n1 = first.shape[1]
    out[:, :n1] = first
    out[n1:, n1:] = last


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
    """The kernel read-off: np.interp over the Gram at the scaled transfer
    nodes, in O(1) per entry and bit for bit.

    rho is fixed by the inputs, so every network read off them reads the same
    Gram at the same scaled nodes, and each entry's interval e and offset
    dv = v - start[e] are the same for all of them. The plan holds the
    bucket tables and its own C-order copy of the inputs. An entry's bucket
    is a monotone function of its value, computed the same way for entries
    and nodes, so every node in a lower bucket lies below the entry and
    every node in a higher one above it. Starting from the count of nodes
    below the entry's bucket (``first``), two forward comparisons find
    np.interp's interval wherever a bucket holds at most two nodes; the
    crowded buckets from the first one holding three on (``cut``) are the
    tail, left to np.interp. Interval j holds np.interp's formula
    slope[j] (v - start[j]) + level[j], with the left clamp as a zero-slope
    interval before node 0.

    A kernel is read off in two parts: its train block's lower triangle into
    an RFP array (:meth:`fill`, see :func:`_rfp_views`), and any range of
    its cross block's test columns into an F-order array (:meth:`read_cross`),
    on request. Each part's Gram is formed where it is read off: the
    triangle by one dsfrk product (:func:`_gram_lower`) into the RFP array,
    the test columns by one dgemm per panel (:func:`_panels`) into the
    array's columns. The read-off is elementwise, so it runs over either
    array flat, in blocks: _BLOCK_ENTRIES of the triangle, or ``cross_rows``
    test rows of a panel.

    A plan that is not kept locates every block in place as it reads it
    (:meth:`_located`). So no n_train^2 or n_train x n_test array exists,
    and the packed block can be read off again after a factor has consumed
    it. A kept plan (``keep``) forms the triangle and the cross block once,
    into arrays of its own, locates every block there, and keeps each: its
    offsets (over its Gram entries), intervals and tail entries, 16 bytes an
    entry in all. Every read replays the kept blocks through the same
    formula as a fresh read, and forms no Gram. This is one plan per sweep,
    and one for all the layers of :func:`iter_kernel_layers`.
    """

    def __init__(self, train_inputs: np.ndarray, test_inputs: np.ndarray | None,
                 keep: bool):
        x_train = np.asarray(train_inputs, dtype=np.float64)
        self.n_train = n_train = x_train.shape[0]
        # an unkept plan's kernels read their blocks off these rows on request
        if test_inputs is None:
            x_all = np.array(x_train, order="C")
        else:
            x_all = np.vstack([x_train, np.asarray(test_inputs, dtype=np.float64)])
        self.x_all = x_all
        self.n_all, d_in = x_all.shape
        self.n_test = self.n_all - n_train
        self.rho = _common_squared_norm(x_all) / d_in
        scale = self.rho * d_in  # a cosine in units of the Gram's x . x'
        self.nodes = nodes = scale * _TRANSFER_COSINES
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
        self.packed_size = n_train * (n_train + 1) // 2
        self.diagonal = _rfp_diagonal(n_train)
        self.cross_rows = max(_CROSS_BLOCK_ROWS, _CROSS_BLOCK_ENTRIES // max(1, n_train))
        self.kept = None
        if keep:
            self.kept = self._keep()
            # a kept plan replays its blocks and forms no Gram again
            self.x_all = None

    def bucket(self, v: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The buckets of v, written into the intp array out through the float work."""
        np.multiply(v, self.per_unit, out=work)
        work += _BUCKETS // 2
        # a NaN entry gets some bucket: its network's composition refuses it
        with np.errstate(invalid="ignore"):
            np.copyto(out, work, casting="unsafe")
        return out

    def _span(self, r0: int, r1: int) -> tuple[int, int]:
        """(lo, hi): where the plan's rows r0:r1, all train rows or test rows,
        sit in its Gram entries, flat: the train triangle's RFP array, then
        the cross block's test rows of n_train entries each."""
        if r0 < self.n_train:
            return 0, self.packed_size
        return (self.packed_size + (r0 - self.n_train) * self.n_train,
                self.packed_size + (r1 - self.n_train) * self.n_train)

    def _block_size(self, r0: int, r1: int) -> int:
        """The most entries in one block over the plan's rows r0:r1; a test
        block holds more than _BLOCK_ENTRIES once n_train > 4096."""
        if r0 < self.n_train:
            return min(_BLOCK_ENTRIES, self.packed_size)
        return min(self.cross_rows, r1 - r0) * self.n_train

    def _locate(self, v: np.ndarray, work: np.ndarray, buckets: np.ndarray,
                intervals: np.ndarray, mask: np.ndarray) -> tuple:
        """Locate the flat Gram entries v in place: (dv, e, tail, tail values),
        dv being v with each entry's offset v - start[e] written over it, and
        tail the indices in v of its tail entries.

        e counts the nodes at or below each entry, so interval e - 1 holds it
        and index e of start, slope and level is that interval. e is held in
        intervals, which the next block reuses; the float work, buckets and
        mask are free again on return.
        """
        n = v.size
        f, b, e, m = work[:n], buckets[:n], intervals[:n], mask[:n]
        self.bucket(v, f, b)
        np.take(self.first, b, out=e, mode="clip")
        for _ in range(2):
            e += np.less_equal(np.take(self.nodes, e, out=f, mode="clip"), v, out=m)
        tail = np.flatnonzero(np.greater_equal(b, self.cut, out=m))
        tail_values = v[tail]
        np.subtract(v, np.take(self.start, e, out=f, mode="clip"), out=v)
        return v, e, tail, tail_values

    def _located(self, r0: int, r1: int, flat: np.ndarray, work: np.ndarray):
        """Form the Gram over the plan's rows r0:r1 in the flat array flat and
        locate it block by block: yield each block's (o, dv, e, tail, tail
        values), o its first entry in the plan's flat order (:meth:`_span`),
        the rest as :meth:`_locate` gives them.

        The train triangle is one dsfrk product into flat, read in blocks of
        _BLOCK_ENTRIES; test rows are formed a panel at a time in flat's
        columns, as an F-order (n_train, r1 - r0) array, and read in blocks
        of cross_rows rows. The float work of _block_size(r0, r1) entries is
        free again at each yield.
        """
        lo, n = self._span(r0, r1)[0], self.n_train
        size = work.size
        buffers = np.empty(size, np.intp), np.empty(size, np.intp), np.empty(size, bool)

        def blocks(a0: int, a1: int, step: int):
            for a in range(a0, a1, step):
                yield (lo + a, *self._locate(flat[a:min(a1, a + step)], work, *buffers))

        if r0 < n:
            _gram_lower(self.x_all[:n], flat)
            yield from blocks(0, flat.size, _BLOCK_ENTRIES)
            return
        columns = flat.reshape((n, -1), order="F")
        for p0, p1 in _panels(r0, r1):
            _gram_rows(self.x_all[p0:p1], self.x_all[:n], columns[:, p0 - r0:p1 - r0])
            yield from blocks((p0 - r0) * n, (p1 - r0) * n, self.cross_rows * n)

    def _keep(self) -> list[tuple]:
        """Every block as :meth:`_located` locates it, train blocks then test
        blocks, in two arrays of the plan's own that then hold their offsets:
        the packed train triangle and the F-order cross block. Each block's
        intervals are copied out of the buffer the next block reuses."""
        kept = []
        for r0, r1 in ((0, self.n_train), (self.n_train, self.n_all)):
            lo, hi = self._span(r0, r1)
            blocks = self._located(r0, r1, np.empty(hi - lo), np.empty(self._block_size(r0, r1)))
            kept += [(o, dv, e.copy(), tail, tail_values)
                     for o, dv, e, tail, tail_values in blocks]
        return kept

    def transfer(self, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(fp, slope, level): np.interp's formula on every interval of the
        transfer row fp over the plan's nodes."""
        with np.errstate(divide="ignore", invalid="ignore"):
            # scaled tail nodes can coincide; np.interp reads the tail
            slope = np.concatenate([[0.0], np.diff(fp) / np.diff(self.nodes)])
        return fp, slope, np.concatenate([fp[:1], fp])

    def _read(self, transfer: tuple, r0: int, r1: int, out: np.ndarray) -> None:
        """Read the plan's rows r0:r1 off, all train rows or test rows from
        one block bound to another: train rows' lower entries into the RFP
        array out, or test rows into the F-order out's columns.

        The blocks are formed and located in out itself (:meth:`_located`),
        or replayed into it as a kept plan keeps them; one loop reads both.
        Each entry is np.interp(v, nodes, fp), bit for bit, read in its order
        (v - start[e]) slope[e] + level[e], and a block's tail entries by
        np.interp itself.
        """
        fp, slope, level = transfer
        flat = np.reshape(out, -1, order="F", copy=False)
        lo, hi = self._span(r0, r1)
        work = np.empty(self._block_size(r0, r1))
        if self.kept is None:
            blocks = self._located(r0, r1, flat, work)
        else:
            blocks = (block for block in self.kept if lo <= block[0] < hi)
        for o, dv, e, tail, tail_values in blocks:
            v = flat[o - lo:o - lo + e.size]  # dv itself in a fresh read
            w = work[:e.size]
            np.multiply(dv, np.take(slope, e, out=w, mode="clip"), out=v)
            v += np.take(level, e, out=w, mode="clip")
            if tail.size:
                v[tail] = np.interp(tail_values, self.nodes, fp)

    def fill(self, transfer: tuple, packed: np.ndarray) -> None:
        """Write the train block of the kernel with transfer row transfer
        (see :meth:`transfer`) into the RFP array packed.

        The diagonal is then set to fp[-1], the layer variance: a matrix
        product need not put exactly the same value on it.
        """
        self._read(transfer, 0, self.n_train, packed)
        packed[self.diagonal] = transfer[0][-1]

    def read_cross(self, transfer: tuple, c0: int, c1: int, out: np.ndarray) -> None:
        """Write the cross block's test columns c0:c1 of the kernel with
        transfer row transfer into the F-order (n_train, c1 - c0) out.

        c0 is a multiple of _PANEL_ROWS, so the entries are the bits of a
        whole read-off (see :func:`_panels`), and c1 is one too or n_test,
        so a kept plan's blocks fall wholly inside the range or outside it."""
        self._read(transfer, self.n_train + c0, self.n_train + c1, out)

    def read_off(self, hp: NetworkHyperparams, table: LookupTable, layers):
        """Yield the KernelMatrix at each of layers.

        The layer map is composed once, over the transfer cosines at the
        plan's rho; cosines past the end nodes clamp, to q at c = 1. Each
        kernel's train block is a new packed buffer; the kernel keeps the
        plan, to read its cross block off and to re-read its train block.
        """
        # _TRANSFER_COSINES ends at 1: the last column is the layer variance
        rows = _compose(hp.sigma_b2 + hp.sigma_w2 * self.rho * _TRANSFER_COSINES, -1, hp, table)
        for layer in layers:
            transfer = self.transfer(rows[layer])
            packed = np.empty(self.packed_size)
            self.fill(transfer, packed)
            yield KernelMatrix._read_off(self, transfer, packed,
                                         np.full(self.n_test, rows[layer, -1]), layer)


def iter_kernel_layers(train_inputs: np.ndarray, hp: NetworkHyperparams,
                       table: LookupTable, test_inputs: np.ndarray | None = None):
    """Yield the KernelMatrix at layers 0..depth, all read off one kept plan."""
    yield from _Plan(train_inputs, test_inputs, keep=True).read_off(hp, table,
                                                                   range(hp.depth + 1))


def build_kernel_matrix(train_inputs: np.ndarray, hp: NetworkHyperparams,
                        table: LookupTable,
                        test_inputs: np.ndarray | None = None) -> KernelMatrix:
    """Kernel at the output layer over train (and optionally test) points.

    Its plan is not kept: the packed train block is read off its Gram in
    place, and the plan stays with the kernel, to read the cross block off
    when it is asked for and to re-read the train block after a posterior
    has factored it."""
    return next(_Plan(train_inputs, test_inputs, keep=False).read_off(hp, table, [hp.depth]))


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
