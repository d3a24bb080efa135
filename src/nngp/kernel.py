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

Storage: the symmetric train block is held once, as its lower triangle in
LAPACK's rectangular full packed (RFP) layout, n_train (n_train + 1) / 2
doubles, beside the F-order cross block (:class:`KernelMatrix`). A single
build forms the Gram a panel of rows at a time and writes each panel's
triangle straight into the packed array, so no n_train^2 array exists; the
posterior factors the packed block in place (:mod:`nngp.regression`), and
the kernel re-reads it off its plan when it is next used. ``entries`` and
``kdd`` materialize both triangles on request.

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
from scipy.linalg.lapack import dtrttf

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
        for name in ("sigma_w2", "sigma_b2", "noise"):
            check_nonnegative(name, getattr(self, name))
        object.__setattr__(self, "phi", registered_activation(self.phi).name)


class KernelMatrix:
    """Kernel blocks over train and test points at one layer.

    Storage. The symmetric train-train block K_DD is held once: a kernel read
    off its inputs (:func:`build_kernel_matrix`, :func:`iter_kernel_layers`,
    a sweep's plan) stores only its lower triangle, n_train (n_train + 1) / 2
    doubles in LAPACK's rectangular full packed (RFP) layout, TRANSR = 'N',
    UPLO = 'L' (see :func:`_rfp_views`). The cross block K_D,test is an
    F-order (n_train, n_test) array, so each test column is contiguous.
    Test-test off-diagonals are never computed: ``test_diag`` holds the test
    points' own variances, all the posterior needs.

    What is materialized. ``entries`` (the [K_DD | K_D,test] rows, F order)
    and ``kdd`` are built anew, both triangles, at each access; ``kxd`` is a
    view of the cross block. With no test points ``entries`` is the full
    symmetric Gram matrix.

    What a posterior consumes and regenerates. :func:`nngp.regression.posterior`
    factors the packed block where it sits, so the factor overwrites it. The
    next access, or the next factorization (a noise retry or a later
    posterior), first re-reads the block off the kernel's plan, bit for bit,
    so the kernel reads as before.

    The constructor takes the dense rows, ``KernelMatrix(entries, n_train,
    test_diag, layer)``, and keeps them as given (copied into F order if
    they are not); a posterior factors a packed copy of their K_DD's lower
    triangle and leaves them untouched.
    """

    def __init__(self, entries: np.ndarray, n_train: int, test_diag: np.ndarray,
                 layer: int):
        self._dense = np.asfortranarray(entries)
        self._cross = self._dense[:, n_train:]
        self._packed = self._refill = None
        self._consumed = False
        self.n_train, self.test_diag, self.layer = n_train, test_diag, layer

    @classmethod
    def _from_buffer(cls, buffer: np.ndarray, n_train: int, test_diag: np.ndarray,
                     layer: int, refill) -> "KernelMatrix":
        """A kernel over buffer: the packed K_DD, then the cross block's
        columns. refill(packed) writes K_DD into packed again."""
        k = cls.__new__(cls)
        k._dense = None
        k._packed = buffer[:n_train * (n_train + 1) // 2]
        k._cross = buffer[k._packed.size:].reshape((n_train, test_diag.size), order="F")
        k._refill, k._consumed = refill, False
        k.n_train, k.test_diag, k.layer = n_train, test_diag, layer
        return k

    @property
    def n_test(self) -> int:
        return self._cross.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """[K_DD | K_D,test], (n_train, n_train + n_test), F order."""
        if self._dense is not None:
            return self._dense
        out = np.empty((self.n_train, self.n_train + self.n_test), order="F")
        self._unpack(out[:, :self.n_train])
        out[:, self.n_train:] = self._cross
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
        return self._cross.T

    def _fresh(self) -> np.ndarray:
        """The packed K_DD, re-read off the plan first if a factor consumed it."""
        if self._consumed:
            self._refill(self._packed)
            self._consumed = False
        return self._packed

    def _unpack(self, out: np.ndarray) -> None:
        """Write K_DD, both triangles, into the square out."""
        _unpack_lower(self._fresh(), out)
        _mirror_lower(out)

    def _stored_kdd(self) -> np.ndarray:
        """Every stored K_DD value as a 2D array: the dense block, or the RFP
        array as its F-order rectangle."""
        if self._dense is not None:
            return self._dense[:, :self.n_train]
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
# Gram rows per panel: the read-off holds one n_train x _PANEL_ROWS panel of
# the Gram at a time (7.8 MiB at 4000 training points), never the Gram
_PANEL_ROWS = 256
# Gram entries per row block: each work buffer of a block stays at 256 KiB
_BLOCK_ENTRIES = 1 << 15
# on and below the diagonal of the tallest train block's diagonal square
_LOWER = np.tri(math.isqrt(_BLOCK_ENTRIES), dtype=bool)
# a triangle is mirrored in square tiles of this side, 128 KiB each: at
# n = 300 they take 0.06 ms where 256-tiles take 0.15, and from n = 3000 up
# both take the same time
_TILE = 128
_STRICT_LOWER = np.tri(_TILE, k=-1, dtype=bool)


def _panels(n_all: int, n_train: int) -> list[tuple[int, int]]:
    """Row bounds of the Gram's panels, _PANEL_ROWS rows each: the train
    rows, then the test rows, so that no panel holds both."""
    return [(r0, min(end, r0 + _PANEL_ROWS))
            for start, end in ((0, n_train), (n_train, n_all))
            for r0 in range(start, end, _PANEL_ROWS)]


def _gram_rows(x_rows: np.ndarray, x_train: np.ndarray, out: np.ndarray) -> None:
    """Write x_rows @ x_train.T by scipy's BLAS into out.T, out an F-order
    (train, rows) array.

    C-order inputs are passed as their F-order transposes, so nothing is
    copied on the way in, and dgemm writes straight into out."""
    if out.size:
        dgemm(1.0, x_train.T, x_rows.T, trans_a=True, c=out, overwrite_c=True)


def _gram(x_all: np.ndarray, x_train: np.ndarray) -> np.ndarray:
    """x_all @ x_train.T by scipy's BLAS, a C-order (points, train) array.

    It is formed panel by panel (:func:`_panels`), each panel one dgemm, just
    as the read-off forms it: the same entries from one product over all
    rows need not be the same bits."""
    n_all, n_train = x_all.shape[0], x_train.shape[0]
    out = np.empty((n_train, n_all), order="F")
    for r0, r1 in _panels(n_all, n_train):
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


def _rfp_index(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Flat indices in the RFP array of L[i, j], i >= j (see :func:`_rfp_views`)."""
    n1, odd = (n + 1) // 2, n % 2
    lda = n + 1 - odd
    return np.where(j < n1, j * lda + i + 1 - odd, (i - n1 + odd) * lda + j - n1)


def _rfp_diagonal(n: int) -> np.ndarray:
    """Flat indices of L's diagonal in its RFP array."""
    d = np.arange(n)
    return _rfp_index(d, d, n)


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


def _put_lower(first: np.ndarray, last: np.ndarray, src: np.ndarray, r0: int) -> None:
    """Copy the entries of L's rows r0:r1 on or below its diagonal from src
    into L's RFP views (first, last).

    src is (r1 - r0, r1): those rows up to the diagonal. Its columns left of
    r0 are copied whole, its diagonal square through the _LOWER mask; the
    columns from n1 on go to last, from its row r0 - n1 (or 0) down.
    """
    h, r1 = src.shape
    n1 = first.shape[1]
    for c0, c1 in ((0, r0), (r0, r1)):
        for a, b in ((c0, min(c1, n1)), (max(c0, n1), c1)):
            if a >= b:
                continue
            i0 = r0 if a < n1 else max(r0, n1)
            dst = first[i0:r1, a:b] if a < n1 else last[i0 - n1:r1 - n1, a - n1:b - n1]
            piece = src[i0 - r0:, a:b]
            if c0 == r0:
                np.copyto(dst, piece, where=_LOWER[i0 - r0:h, a - r0:b - r0])
            else:
                np.copyto(dst, piece)


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
    bucket tables. An entry's bucket is a monotone function of its value,
    computed the same way for entries and nodes, so every node in a lower
    bucket lies below the entry and every node in a higher one above it.
    Starting from the count of nodes below the entry's bucket (``first``),
    two forward comparisons find np.interp's interval wherever a bucket holds
    at most two nodes; the crowded buckets from the first one holding three
    on (``cut``) are the tail, left to np.interp. Interval j holds
    np.interp's formula slope[j] (v - start[j]) + level[j], with the left
    clamp as a zero-slope interval before node 0.

    A kernel is written into one buffer: the train block's lower triangle in
    RFP layout (:func:`_rfp_views`), then the cross block's columns. The
    Gram is formed in panels (:func:`_panels`); each panel's rows are read
    off in row blocks, train rows up to the diagonal and test rows across,
    and only the entries on or below the diagonal are stored.

    A plan that is not kept forms each panel when it reads a kernel off: a
    test panel in the kernel's own cross columns, a train panel in one
    n_train x _PANEL_ROWS buffer whose triangle is then copied into the
    packed block. So no n_train^2 array exists, and the packed block can be
    read off again (:meth:`fill`) after a factor has consumed it. A kept plan
    (``keep``) forms the Gram once, by :func:`_gram`, and keeps every
    stored entry's interval and offset in the kernel's own layout, with the
    tail entries' values: about two kernel-sized arrays, from which any
    number of kernels are gathered. This is one plan per sweep, and one for
    all the layers of :func:`iter_kernel_layers`.
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
        self.size = self.packed_size + n_train * (self.n_all - n_train)
        self.panels = _panels(self.n_all, n_train)
        self.block_entries = max([(r1 - r0) * c1 for p in self.panels
                                  for r0, r1, c1 in self._blocks(*p)], default=0)
        self.diagonal = _rfp_diagonal(n_train)
        if keep:
            self.kept = self._keep(_gram(x_all, x_train))
        else:
            # the plan's own copy of the train rows, to re-read a consumed train
            # block from; the test rows are read once, by the first read-off
            self.kept = None
            self.x_train = np.array(x_train, order="C")
            self.x_test = x_all[n_train:] if test_inputs is None else np.asarray(
                test_inputs, dtype=np.float64)

    def bucket(self, v: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The buckets of v, written into the intp array out through the float work."""
        np.multiply(v, self.per_unit, out=work)
        work += _BUCKETS // 2
        # a NaN entry gets some bucket: its network's composition refuses it
        with np.errstate(invalid="ignore"):
            np.copyto(out, work, casting="unsafe")
        return out

    def _blocks(self, p0: int, p1: int):
        """The (r0, r1, c1) row blocks of panel rows p0:p1: train rows r0:r1
        up to the diagonal, with (r1 - r0) r1 <= _BLOCK_ENTRIES entries, or
        test rows across all n_train columns."""
        n_train = self.n_train
        if p0 < n_train:
            r0 = p0
            while r0 < p1:
                height = (math.isqrt(r0 * r0 + 4 * _BLOCK_ENTRIES) - r0) // 2
                r1 = min(p1, r0 + max(1, height))
                yield r0, r1, r1
                r0 = r1
        else:
            step = max(1, _BLOCK_ENTRIES // max(1, n_train))
            for r0 in range(p0, p1, step):
                yield r0, min(p1, r0 + step), n_train

    def _read_panels(self, cross: np.ndarray | None = None, gram: np.ndarray | None = None):
        """Yield each block's (r0, v, e, tail, tail values), with v the Gram
        rows r0:r1 up to c1, its offsets written over it.

        e counts the nodes at or below each entry, so interval e - 1 holds it
        and index e of start, slope and level is that interval; e lives in a
        work buffer that the next block reuses. Without ``gram`` each panel
        is formed here: train panels in one buffer, test panels in the
        columns of cross (none when cross is None).
        """
        n_train = self.n_train
        size = self.block_entries
        work, buckets, intervals = np.empty(size), np.empty(size, np.intp), np.empty(size, np.intp)
        mask = np.empty(size, bool)
        buffer = None
        for p0, p1 in self.panels:
            if gram is not None:
                panel = gram[p0:p1]
            else:
                if p0 < n_train:
                    if buffer is None:
                        buffer = np.empty((n_train, min(n_train, _PANEL_ROWS)), order="F")
                    out = buffer[:, :p1 - p0]
                elif cross is None:
                    return
                else:
                    out = cross[:, p0 - n_train:p1 - n_train]
                rows = (self.x_train[p0:p1] if p0 < n_train
                        else self.x_test[p0 - n_train:p1 - n_train])
                _gram_rows(rows, self.x_train, out)
                panel = out.T
            for r0, r1, c1 in self._blocks(p0, p1):
                v = panel[r0 - p0:r1 - p0, :c1]
                shape, n = v.shape, v.size
                f = work[:n].reshape(shape)
                m = mask[:n].reshape(shape)
                b = self.bucket(v, f, buckets[:n].reshape(shape))
                e = intervals[:n].reshape(shape)
                np.take(self.first, b, out=e, mode="clip")
                for _ in range(2):
                    e += np.less_equal(np.take(self.nodes, e, out=f, mode="clip"), v, out=m)
                tail = np.flatnonzero(np.greater_equal(b, self.cut, out=m))
                tail_values = v.flat[tail]
                np.subtract(v, np.take(self.start, e, out=f, mode="clip"), out=v)
                yield r0, v, e, tail, tail_values, work

    def _keep(self, gram: np.ndarray):
        """(offsets, intervals, tail indices, tail values, train tails): every
        stored entry's offset and interval, in the kernel's layout, and the
        tail entries' indices and values, the first train tails of them in
        the packed train block."""
        n_train, packed_size = self.n_train, self.packed_size
        dv, e_all = np.empty(self.size), np.empty(self.size, np.intp)
        dv_first, dv_last = _rfp_views(dv[:packed_size], n_train)
        e_first, e_last = _rfp_views(e_all[:packed_size], n_train)
        dv_cross, e_cross = (a[packed_size:].reshape((n_train, self.n_all - n_train), order="F")
                             for a in (dv, e_all))
        # train panels come first, so their tails do
        index, values, train_tails = [np.empty(0, np.intp)], [np.empty(0)], 0
        for r0, v, e, tail, tail_values, _ in self._read_panels(gram=gram):
            i, j = np.divmod(tail, v.shape[1])
            i += r0
            if r0 < n_train:
                _put_lower(dv_first, dv_last, v, r0)
                _put_lower(e_first, e_last, e, r0)
                on = j <= i
                index.append(_rfp_index(i[on], j[on], n_train))
                values.append(tail_values[on])
                train_tails += index[-1].size
            else:
                cols = slice(r0 - n_train, r0 - n_train + v.shape[0])
                dv_cross[:, cols] = v.T
                e_cross[:, cols] = e.T
                index.append(packed_size + (i - n_train) * n_train + j)
                values.append(tail_values)
        return dv, e_all, np.concatenate(index), np.concatenate(values), train_tails

    def fill(self, fp: np.ndarray, out: np.ndarray) -> None:
        """Write the kernel with transfer row fp into out: the packed train
        block, then (if out has room for it) the cross block's columns.

        Each entry is np.interp(v, nodes, fp), bit for bit, read in its
        order (v - start[e]) slope[e] + level[e]; the train diagonal is then
        set to fp[-1], the layer variance: a general matrix product need not
        put exactly the same value on it.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            # scaled tail nodes can coincide; np.interp reads the tail
            slope = np.concatenate([[0.0], np.diff(fp) / np.diff(self.nodes)])
        level = np.concatenate([fp[:1], fp])
        packed = out[:self.packed_size]
        if self.kept is None:
            first, last = _rfp_views(packed, self.n_train)
            cross = (out[self.packed_size:].reshape((self.n_train, self.n_all - self.n_train),
                                                    order="F")
                     if out.size > self.packed_size else None)
            for r0, v, e, tail, tail_values, work in self._read_panels(cross):
                w = work[:e.size].reshape(e.shape)
                np.multiply(v, np.take(slope, e, out=w, mode="clip"), out=v)
                v += np.take(level, e, out=w, mode="clip")
                v.flat[tail] = np.interp(tail_values, self.nodes, fp)
                if r0 < self.n_train:
                    _put_lower(first, last, v, r0)
        else:
            dv, e_all, index, values, train_tails = self.kept
            w = np.empty(min(out.size, _BLOCK_ENTRIES))
            for c0 in range(0, out.size, _BLOCK_ENTRIES):
                c1 = min(out.size, c0 + _BLOCK_ENTRIES)
                block, e, wc = out[c0:c1], e_all[c0:c1], w[:c1 - c0]
                np.multiply(dv[c0:c1], np.take(slope, e, out=wc, mode="clip"), out=block)
                block += np.take(level, e, out=wc, mode="clip")
            tails = slice(None) if out.size > self.packed_size else slice(train_tails)
            out[index[tails]] = np.interp(values[tails], self.nodes, fp)
        packed[self.diagonal] = fp[-1]

    def read_off(self, hp: NetworkHyperparams, table: LookupTable, layers):
        """Yield the KernelMatrix at each of layers.

        The layer map is composed once, over the transfer cosines at the
        plan's rho; cosines past the end nodes clamp, to q at c = 1. Each
        kernel is a new buffer, and keeps the plan to re-read its train block.
        """
        # _TRANSFER_COSINES ends at 1: the last column is the layer variance
        rows = _compose(hp.sigma_b2 + hp.sigma_w2 * self.rho * _TRANSFER_COSINES, -1, hp, table)
        for layer in layers:
            out = np.empty(self.size)
            self.fill(rows[layer], out)
            yield KernelMatrix._from_buffer(out, self.n_train,
                                         np.full(self.n_all - self.n_train, rows[layer, -1]),
                                         layer, partial(self.fill, rows[layer]))


def iter_kernel_layers(train_inputs: np.ndarray, hp: NetworkHyperparams,
                       table: LookupTable, test_inputs: np.ndarray | None = None):
    """Yield the KernelMatrix at layers 0..depth, all read off one kept plan."""
    yield from _Plan(train_inputs, test_inputs, keep=True).read_off(hp, table,
                                                                   range(hp.depth + 1))


def build_kernel_matrix(train_inputs: np.ndarray, hp: NetworkHyperparams,
                        table: LookupTable,
                        test_inputs: np.ndarray | None = None) -> KernelMatrix:
    """Kernel at the output layer over train (and optionally test) points.

    Its plan is not kept: the Gram is formed a panel at a time as the kernel
    is read off, and the plan stays with the kernel, to re-read its train
    block after a posterior has factored it."""
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
