"""Exact Bayesian posterior from the deep-network kernel.

With training targets t and observation noise variance eps2, the predictive
distribution at each test point is Gaussian with

    mean     = K_xD (K_DD + eps2 I)^-1 t
    variance = K_xx - K_xD (K_DD + eps2 I)^-1 K_xD^T = K_xx - ||L^-1 K_Dx||^2

computed from a single Cholesky factorization L L^T = K_DD + eps2 I shared
by every target column. The mean is one step (``_solve_mean``): validate,
check finiteness, factor, solve. :func:`posterior` adds the variance solve
on top of it; a heatmap sweep, which scores only the mean's argmax, stops
there and makes no variance solve. L is written over the lower triangle of the
kernel's own K_DD block; the upper triangle keeps the kernel, and the lower
triangle and diagonal are restored from it when the posterior is done, so
the kernel is unchanged and no second n_train^2 array is made. The variance
solve runs over panels of test columns. If the factorization fails the
noise is multiplied by 10 and retried, up to a bounded number of attempts.
Prior function draws use the same escalating factorization.

Every BLAS and LAPACK call here is scipy's, never numpy's ``@`` or
``np.linalg``: numpy and scipy each bundle their own OpenBLAS with its own
thread pool, and a posterior that woke both would have their spinning
threads contend for the cores (the kernel's Gram follows the same rule, see
:mod:`nngp.kernel`). Finiteness is checked once per input, a panel of
columns at a time, and scipy's own rescans are switched off.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.blas import dgemm

from .kernel import (DEFAULT_NOISE, KernelMatrix, NetworkHyperparams, _mirror_lower,
                     check_nonnegative, full_kernel)
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


def _restore_lower(a: np.ndarray, diag: np.ndarray) -> None:
    """Copy the F-order a's upper triangle onto its lower one, through its
    C-order transpose, and set its diagonal to diag."""
    _mirror_lower(a.T)
    np.fill_diagonal(a, diag)


@contextmanager
def _factor_with_escalation(a: np.ndarray, noise: float):
    """Yield the lower Cholesky factor of a + noise I and the noise used,
    escalating the noise on failure.

    ``a`` is symmetric and F-contiguous. The factor is written over its lower
    triangle and diagonal; the upper triangle is never written, so a failed
    attempt, and the exit, restore a from it and a saved diagonal. ``a`` is
    checked for finiteness once, before it is written.
    """
    _check_finite(a)
    diag = a.diagonal().copy()
    current = float(noise)
    try:
        for _ in range(_MAX_NOISE_RETRIES + 1):
            np.fill_diagonal(a, diag + current)
            try:
                chol, _ = cho_factor(a, lower=True, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                _restore_lower(a, diag)
                current = DEFAULT_NOISE if current == 0.0 else current * 10.0
                continue
            yield chol, current
            return
        raise FactorizationError(
            f"Cholesky failed up to noise variance {current / 10.0}", noise=current / 10.0
        )
    finally:
        _restore_lower(a, diag)


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
    with _factor_with_escalation(k, 0.0) as (chol, _):
        return dgemm(1.0, np.tril(chol), z).T


@contextmanager
def _solve_mean(k: KernelMatrix, targets: np.ndarray, hp: NetworkHyperparams | None,
                noise: float | None):
    """Yield the predictive mean at the test points of ``k``, the lower
    Cholesky factor of K_DD + eps2 I and the noise used.

    The arguments are checked as :func:`posterior` documents. The factor
    lives in ``k.kdd`` while the context is open and is undone on exit.
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
    kdx = k.entries[:, k.n_train:]
    _check_finite(t)
    _check_finite(kdx)
    with _factor_with_escalation(k.kdd, noise) as (chol, used):
        mean = dgemm(1.0, kdx, cho_solve((chol, True), t, check_finite=False),
                     trans_a=True)
        yield mean, chol, used


def posterior(k: KernelMatrix, targets: np.ndarray,
              hp: NetworkHyperparams | None = None,
              noise: float | None = None) -> PosteriorPrediction:
    """Predictive mean and variance at the test points of ``k``.

    ``noise`` overrides ``hp.noise``; one of the two must be given, and it
    must be finite and >= 0. The factorization is done once, in ``k.kdd``
    itself, and applied to all target columns; ``k`` is unchanged on return.
    An inf or NaN in the kernel or the targets raises ValueError. The mean
    is the same step a heatmap sweep scores by; the variance solve is added
    on top of it.
    """
    kdx = k.entries[:, k.n_train:]
    explained = np.empty(k.n_test)
    with _solve_mean(k, targets, hp, noise) as (mean, chol, used):
        for p in range(0, k.n_test, _PANEL):
            w = solve_triangular(chol, kdx[:, p:p + _PANEL], lower=True,
                                 check_finite=False)
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
