"""Exact Bayesian posterior from the deep-network kernel.

With training targets t and observation noise variance eps2, the predictive
distribution at each test point is Gaussian with

    mean     = K_xD (K_DD + eps2 I)^-1 t
    variance = K_xx - K_xD (K_DD + eps2 I)^-1 K_xD^T = K_xx - ||L^-1 K_Dx||^2

computed from a single Cholesky factorization L L^T = K_DD + eps2 I shared
by every target column. The mean is one step (``_solve_mean``): validate,
check finiteness, factor, solve. :func:`posterior` adds the variance solve
on top of it; a heatmap sweep, which scores only the mean's argmax, stops
there and makes no variance solve.

There is one factorization path, :func:`_factor_with_escalation`, for the
mean, the variance and prior draws. It factors K_DD's lower triangle in
LAPACK's rectangular full packed (RFP) layout (``dpftrf``: two half-size
``potrf`` calls, a ``trsm`` and a ``syrk``), then solves with ``dpftrs``
(the mean) and ``dtfsm`` (the variance, over panels of test columns). A
kernel read off its inputs holds K_DD in that layout, so L is written over
the kernel's own packed block, and no second n_train^2 array is made; the
kernel re-reads the block off its plan when it is next read or factored
(see :class:`nngp.kernel.KernelMatrix`), so it is unchanged as seen from
outside. A kernel built from dense rows is factored in a packed copy. If
the factorization fails the noise is multiplied by 10 and retried, each
attempt on a fresh block, up to a bounded number of attempts.

Every BLAS and LAPACK call here is scipy's, never numpy's ``@`` or
``np.linalg``: numpy and scipy each bundle their own OpenBLAS with its own
thread pool, and a posterior that woke both would have their spinning
threads contend for the cores (the kernel's Gram follows the same rule, see
:mod:`nngp.kernel`). Finiteness is checked once per input, a panel of
columns at a time; scipy's RFP wrappers do not rescan.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrmm
from scipy.linalg.lapack import dpftrf, dpftrs, dtfsm

from .kernel import (DEFAULT_NOISE, KernelMatrix, NetworkHyperparams, _pack_lower,
                     _rfp_diagonal, _unpack_lower, check_nonnegative, full_kernel)
from .lookup import LookupTable

_MAX_NOISE_RETRIES = 10
# test columns per variance solve and per finiteness scan: the extra memory
# of either is n_train x _PANEL
_PANEL = 512


class FactorizationError(ArithmeticError):
    """Kernel factorization failed even after noise escalation."""

    def __init__(self, msg: str, noise: float):
        super().__init__(msg)
        self.noise = noise


@dataclass(frozen=True)
class PosteriorPrediction:
    """Predictive mean per class and per-point predictive variance.

    Output components of the network are independent with a shared kernel,
    so the variance is one scalar per test point. ``clamped`` counts entries
    whose numerically negative variance was clipped to zero.
    """

    mean: np.ndarray
    variance: np.ndarray
    noise_used: float
    clamped: int = 0


def _check_finite(a: np.ndarray) -> None:
    """Raise ValueError, worded as scipy's, if the 2D array a holds an inf or NaN.

    Scans _PANEL columns at a time, so the mask is never larger than one panel.
    """
    for p in range(0, a.shape[1], _PANEL):
        if not np.isfinite(a[:, p:p + _PANEL]).all():
            raise ValueError("array must not contain infs or NaNs")


def _factor_with_escalation(n: int, fresh, noise: float) -> tuple[np.ndarray, float]:
    """The lower Cholesky factor of A + noise I and the noise used,
    escalating the noise on failure.

    ``fresh()`` returns the n x n matrix A's lower triangle in RFP layout
    (TRANSR = 'N', UPLO = 'L'), in an array the factor may overwrite; it is
    called once per attempt, so each attempt starts from A itself. The
    factor is returned in the same layout, in that array.
    """
    diagonal = _rfp_diagonal(n)
    current = float(noise)
    for _ in range(_MAX_NOISE_RETRIES + 1):
        a = fresh()
        a[diagonal] += current
        chol, info = dpftrf(n, a, transr="N", uplo="L", overwrite_a=True)
        if info == 0:
            return chol, current
        current = DEFAULT_NOISE if current == 0.0 else current * 10.0
    raise FactorizationError(
        f"Cholesky failed up to noise variance {current / 10.0}", noise=current / 10.0
    )


def solve_triangular(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b, for the lower Cholesky factor L held in RFP layout as chol and
    an F-order b, in a new array."""
    return dtfsm(1.0, chol, b, transr="N", side="L", uplo="L", trans="N")


def sample_prior(points: np.ndarray, hp: NetworkHyperparams,
                 table: LookupTable | None, n_draws: int, seed: int) -> np.ndarray:
    """Draw zero-mean Gaussian functions with the depth-L kernel as covariance.

    Returns (n_draws, n_points); deterministic given the seed. The grid may
    be a 1D array of scalar inputs or an (n, d) array; equal-norm grids go
    through the lookup table, unequal norms use the general kernel path
    (see :func:`nngp.kernel.full_kernel`). The kernel is factored with no
    added noise; if Cholesky fails, noise escalates as in :func:`posterior`.
    """
    k = np.asfortranarray(full_kernel(points, hp, table))
    n = k.shape[0]
    if n_draws == 0:
        return np.empty((0, n))
    z = np.random.default_rng(seed).standard_normal((n, n_draws))
    _check_finite(k)
    chol, _ = _factor_with_escalation(n, lambda: _pack_lower(k), 0.0)
    _unpack_lower(chol, k)  # k is not read again: L goes over its lower triangle
    return dtrmm(1.0, k, z, lower=True).T


def _solve_mean(k: KernelMatrix, targets: np.ndarray, hp: NetworkHyperparams | None,
                noise: float | None) -> tuple[np.ndarray, np.ndarray, float]:
    """The predictive mean at the test points of ``k``, the lower
    Cholesky factor of K_DD + eps2 I and the noise used.

    The arguments are checked as :func:`posterior` documents. The factor,
    in RFP layout, is the kernel's own packed K_DD (or a packed copy of a
    dense-built K_DD); the kernel re-reads that block when it is next used.
    """
    if noise is None:
        if hp is None:
            raise ValueError("pass hp or an explicit noise variance")
        noise = hp.noise
    check_nonnegative("noise", noise)
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if t.shape[0] != k.n_train:
        raise ValueError(
            f"targets have {t.shape[0]} rows but kernel has {k.n_train} training points"
        )
    kdx = k._cross
    _check_finite(t)
    _check_finite(kdx)
    _check_finite(k._stored_kdd())
    chol, used = _factor_with_escalation(k.n_train, k._factor_block, noise)
    weights, _ = dpftrs(k.n_train, chol, t, transr="N", uplo="L")
    return dgemm(1.0, kdx, weights, trans_a=True), chol, used


def posterior(k: KernelMatrix, targets: np.ndarray,
              hp: NetworkHyperparams | None = None,
              noise: float | None = None) -> PosteriorPrediction:
    """Predictive mean and variance at the test points of ``k``.

    ``noise`` overrides ``hp.noise``; one of the two must be given, and it
    must be finite and >= 0. The factorization is done once, over the
    kernel's own packed K_DD, and applied to all target columns; ``k``
    reads unchanged on return.
    An inf or NaN in the kernel or the targets raises ValueError. The mean
    is the same step a heatmap sweep scores by; the variance solve is added
    on top of it.
    """
    kdx = k._cross
    explained = np.empty(k.n_test)
    mean, chol, used = _solve_mean(k, targets, hp, noise)
    for p in range(0, k.n_test, _PANEL):
        w = solve_triangular(chol, kdx[:, p:p + _PANEL])
        explained[p:p + _PANEL] = np.einsum("ij,ij->j", w, w)
        del w  # before the next panel's solve allocates its own
    variance = k.test_diag - explained
    neg = variance < 0.0
    clamped = int(neg.sum())
    if np.any(variance < -1e-10):
        warnings.warn(
            f"posterior variance reached {variance.min():.3e} before clamping",
            RuntimeWarning,
        )
    if clamped:
        variance = np.where(neg, 0.0, variance)
    return PosteriorPrediction(mean=mean, variance=variance, noise_used=used,
                               clamped=clamped)


def _accuracy(mean: np.ndarray, true_targets: np.ndarray) -> float:
    """Argmax accuracy of the mean against one-hot targets of its shape, the
    one rule :func:`evaluate` and a heatmap sweep score by."""
    return float(np.mean(np.argmax(mean, axis=1) == np.argmax(true_targets, axis=1)))


def evaluate(pred: PosteriorPrediction, true_targets: np.ndarray) -> dict:
    """MSE over all entries and argmax accuracy against one-hot targets.

    Ties in the predicted argmax resolve to the lowest class index.
    """
    t = np.asarray(true_targets, dtype=np.float64)
    if t.shape != pred.mean.shape:
        raise ValueError(f"target shape {t.shape} != prediction shape {pred.mean.shape}")
    mse = float(np.mean((pred.mean - t) ** 2))
    return {"mse": mse, "accuracy": _accuracy(pred.mean, t)}


def calibration_bins(pred: PosteriorPrediction, true_targets: np.ndarray,
                     bin_size: int) -> list[tuple[float, float]]:
    """(mean predictive variance, mean realized squared error) per bin.

    Test points are sorted by predictive variance and grouped into
    consecutive bins of ``bin_size`` (the final bin may be smaller). The
    predicted column is the raw posterior variance; the realized column is
    the per-entry squared error averaged within the bin.
    """
    if bin_size < 1:
        raise ValueError(f"bin_size must be >= 1, got {bin_size}")
    t = np.asarray(true_targets, dtype=np.float64)
    if t.shape != pred.mean.shape:
        raise ValueError(f"target shape {t.shape} != prediction shape {pred.mean.shape}")
    per_point_err = np.mean((pred.mean - t) ** 2, axis=1)
    order = np.argsort(pred.variance, kind="stable")
    bins = []
    for start in range(0, order.size, bin_size):
        sel = order[start:start + bin_size]
        bins.append((float(pred.variance[sel].mean()), float(per_point_err[sel].mean())))
    return bins
