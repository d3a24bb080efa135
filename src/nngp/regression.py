"""Exact Bayesian posterior from the deep-network kernel.

With training targets t and observation noise variance eps2, the predictive
distribution at each test point is Gaussian with

    mean     = K_xD (K_DD + eps2 I)^-1 t
    variance = K_xx - K_xD (K_DD + eps2 I)^-1 K_xD^T = K_xx - ||L^-1 K_Dx||^2

computed from a single Cholesky factorization L L^T = K_DD + eps2 I shared
by every target column. If the factorization fails the noise is multiplied
by 10 and retried, up to a bounded number of attempts. Prior function draws
use the same escalating factorization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .kernel import DEFAULT_NOISE, KernelMatrix, NetworkHyperparams, full_kernel
from .lookup import LookupTable

_MAX_NOISE_RETRIES = 10


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


def _factor_with_escalation(kdd: np.ndarray, noise: float):
    current = float(noise)
    for _ in range(_MAX_NOISE_RETRIES + 1):
        # each attempt factors a fresh copy in place; kdd itself is never written
        a = np.array(kdd, order="F")
        np.fill_diagonal(a, a.diagonal() + current)
        try:
            return cho_factor(a, lower=True, overwrite_a=True), current
        except np.linalg.LinAlgError:
            current = DEFAULT_NOISE if current == 0.0 else current * 10.0
    raise FactorizationError(
        f"Cholesky failed up to noise variance {current / 10.0}", noise=current / 10.0
    )


def sample_prior(points: np.ndarray, hp: NetworkHyperparams,
                 table: LookupTable | None, n_draws: int, seed: int) -> np.ndarray:
    """Draw zero-mean Gaussian functions with the depth-L kernel as covariance.

    Returns (n_draws, n_points); deterministic given the seed. The grid may
    be a 1D array of scalar inputs or an (n, d) array; equal-norm grids go
    through the lookup table, unequal norms use the general kernel path
    (see :func:`nngp.kernel.full_kernel`). The kernel is factored with no
    added noise; if Cholesky fails, noise escalates as in :func:`posterior`.
    """
    k = full_kernel(points, hp, table)
    n = k.shape[0]
    if n_draws == 0:
        return np.empty((0, n))
    (chol, _), _ = _factor_with_escalation(k, 0.0)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n_draws))
    return (np.tril(chol) @ z).T


def posterior(k: KernelMatrix, targets: np.ndarray,
              hp: NetworkHyperparams | None = None,
              noise: float | None = None) -> PosteriorPrediction:
    """Predictive mean and variance at the test points of ``k``.

    ``noise`` overrides ``hp.noise``; one of the two must be given. The
    factorization is done once and applied to all target columns.
    """
    if noise is None:
        if hp is None:
            raise ValueError("pass hp or an explicit noise variance")
        noise = hp.noise
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if t.shape[0] != k.n_train:
        raise ValueError(
            f"targets have {t.shape[0]} rows but kernel has {k.n_train} training points"
        )
    factor, used = _factor_with_escalation(k.kdd, noise)
    kxd = k.kxd
    mean = kxd @ cho_solve(factor, t)
    w = solve_triangular(factor[0], kxd.T, lower=True)
    variance = k.test_diag - np.einsum("ij,ij->j", w, w)
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


def evaluate(pred: PosteriorPrediction, true_targets: np.ndarray) -> dict:
    """MSE over all entries and argmax accuracy against one-hot targets.

    Ties in the predicted argmax resolve to the lowest class index.
    """
    t = np.asarray(true_targets, dtype=np.float64)
    if t.shape != pred.mean.shape:
        raise ValueError(f"target shape {t.shape} != prediction shape {pred.mean.shape}")
    mse = float(np.mean((pred.mean - t) ** 2))
    accuracy = float(np.mean(np.argmax(pred.mean, axis=1) == np.argmax(t, axis=1)))
    return {"mse": mse, "accuracy": accuracy}


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
