"""Finite-width Monte Carlo check of the infinite-width kernel.

Random finite networks with Gaussian weights (variance sigma_w^2 / fan-in)
and biases (variance sigma_b^2) are sampled and the empirical covariance of
one output unit across networks is compared to the deterministic kernel;
the skewness and kurtosis of that unit, from the same networks, show how
close to Gaussian it is.

Sampling marginalizes the weights exactly, layer by layer: conditioned on
the previous layer's post-activations h, the next pre-activations are
Gaussian with covariance sigma_w^2 (h h^T / N) + sigma_b^2 11^T across
points, independent across units. For Gaussian parameters this holds at any
finite width, so the sampled joint law of the outputs is identical to
materializing every weight matrix, at a fraction of the random-number cost.
The networks are split into min(_MIN_BATCHES, n_networks) near-equal
batches, or into more when a batch array would hold over
_BATCH_VALUE_BUDGET values: networks x points x the larger of the widest
layer (output units included) and the point count, as each network holds
(points, width) activations and (points, points) covariances. Each batch
draws from its own child generator spawned from the seed, and the batches
are the groups of the delete-one jackknife that gives the standard errors.
The batches run on a thread pool with one worker per available core, at
most one batch per worker in flight; numpy's random fills, tanh, matmul and
eigh release the interpreter lock, so they overlap.
The plan depends only on (n_networks, n_points, widths, units), never on the
core count, and the main thread keeps the batches' partial sums in batch
order in one array, so everything is deterministic given (seed, widths,
n_networks) and bit-identical on any number of cores.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .kernel import NetworkHyperparams, _common_squared_norm
from .activations import Activation, get_activation

_MIN_BATCHES = 40
_BATCH_VALUE_BUDGET = 3_000_000


@dataclass(frozen=True)
class FiniteNetSample:
    """One pass over a sample of finite-width networks.

    ``empirical_k`` is the mean output-product matrix and ``stderr`` its
    jackknife standard errors; ``skewness`` and ``excess_kurtosis`` are the
    per-point statistics of output unit 0 over the same networks.
    """

    empirical_k: np.ndarray
    stderr: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Batched factor L with L L^T = cov, tolerating singular matrices."""
    w, v = np.linalg.eigh(cov)
    v *= np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return v


def _batch_plan(n_networks: int, n_points: int, max_width: int) -> list[int]:
    """Near-equal batch sizes, at least min(_MIN_BATCHES, n_networks) of them,
    whose n_points x max(max_width, n_points) values per network fit the
    budget: (points, width) activations, (points, points) covariances."""
    cap = max(1, _BATCH_VALUE_BUDGET // (n_points * max(max_width, n_points)))
    n_batches = max(-(-n_networks // cap), min(_MIN_BATCHES, n_networks))
    base, rem = divmod(n_networks, n_batches)
    return [base + 1] * rem + [base] * (n_batches - rem)


def _batch_sums(l0: np.ndarray, hp: NetworkHyperparams, act: Activation,
                widths: tuple[int, ...], units: int, batch: int,
                stream: np.random.SeedSequence) -> tuple[np.ndarray, np.ndarray]:
    """Sample one batch of networks and reduce its outputs.

    Returns the sum of the output-product matrices, (n, n), and the first
    four raw power sums of output unit 0, (4, n).
    """
    rng = np.random.default_rng(stream)
    n = l0.shape[0]
    z = l0 @ rng.standard_normal((batch, n, widths[0]))
    for layer in range(1, hp.depth + 1):
        # drop each layer's arrays as soon as they are used: at most two
        # batch-sized arrays are alive at once
        h = act.fn(z)
        del z
        with np.errstate(over="ignore"):
            cov = hp.sigma_w2 * (h @ h.swapaxes(1, 2) / widths[layer - 1]) + hp.sigma_b2
        del h
        if not np.all(np.isfinite(cov)):
            raise ArithmeticError(
                f"layer {layer}: non-finite activations (exploding variance)"
            )
        width_out = widths[layer] if layer < hp.depth else units
        factor = _psd_factor(cov)
        del cov
        z = factor @ rng.standard_normal((batch, n, width_out))
        del factor

    gram_sum = (z @ z.swapaxes(1, 2) / units).sum(axis=0)
    out = z[:, :, 0]
    power_sums = np.stack([(out ** p).sum(axis=0) for p in range(1, 5)])
    return gram_sum, power_sums


def _sample(points: np.ndarray, hp: NetworkHyperparams, widths: tuple[int, ...],
            n_networks: int, seed: int, units: int) -> FiniteNetSample:
    """One pass over n_networks random networks: the kernel, its standard
    errors and the normality statistics."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"points must be (n, d_in), got shape {x.shape}")
    _common_squared_norm(x)
    if len(widths) != hp.depth:
        raise ValueError(f"{len(widths)} widths for depth {hp.depth}")
    if not all(float(w).is_integer() and w >= 1 for w in widths):
        raise ValueError(f"widths must be integers >= 1, got {widths}")
    widths = tuple(int(w) for w in widths)
    if n_networks < 1:
        raise ValueError(f"n_networks must be >= 1, got {n_networks}")
    act = get_activation(hp.phi)
    n, d_in = x.shape
    l0 = _psd_factor(hp.sigma_w2 * (x @ x.T / d_in) + hp.sigma_b2)

    plan = _batch_plan(n_networks, n, max(widths + (units,)))
    streams = np.random.SeedSequence(seed).spawn(len(plan))

    # up to one batch in flight per core; the main thread takes the partial
    # sums in batch order, so the result does not depend on the core count
    workers = len(os.sched_getaffinity(0))
    n_groups = len(plan)
    gram_sums = np.empty((n_groups, n, n))
    power_sums = np.zeros((4, n))
    pool = ThreadPoolExecutor(max_workers=workers)

    def submit(batch, stream):
        return pool.submit(_batch_sums, l0, hp, act, widths, units, batch, stream)

    batches = zip(plan, streams)
    try:
        pending = deque(submit(*b) for b in islice(batches, workers))
        for group in range(n_groups):
            grams, powers = pending.popleft().result()
            pending.extend(submit(*b) for b in islice(batches, 1))
            gram_sums[group] = grams
            power_sums += powers
    finally:
        pool.shutdown(cancel_futures=True)

    # delete-one jackknife with the batches as the groups, in place on their sums
    total = gram_sums.sum(axis=0)
    empirical = total / n_networks
    if n_groups > 1:
        loo = np.subtract(total, gram_sums, out=gram_sums)
        loo /= (n_networks - np.array(plan))[:, None, None]
        loo -= loo.mean(axis=0)
        np.square(loo, out=loo)
        stderr = np.sqrt((n_groups - 1) / n_groups * loo.sum(axis=0))
    else:
        stderr = np.full((n, n), np.nan)
    # skewness and excess kurtosis from the raw moments E[f^p], p = 1..4
    m1, m2, m3, m4 = power_sums / n_networks
    c2 = m2 - m1 ** 2
    c3 = m3 - 3 * m1 * m2 + 2 * m1 ** 3
    c4 = m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4
    # an output constant across the sample (one network, or no weights and
    # no bias) has no shape: nan or inf, without a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        return FiniteNetSample(empirical_k=empirical, stderr=stderr, skewness=c3 / c2 ** 1.5,
                               excess_kurtosis=c4 / c2 ** 2 - 3.0)


def sample_empirical_kernel(points: np.ndarray, hp: NetworkHyperparams,
                            widths, n_networks: int, seed: int,
                            average_units: int = 1) -> FiniteNetSample:
    """Average output-product matrix over n_networks random networks.

    One pass gives the matrix, its standard errors and the normality
    statistics of output unit 0 (see :func:`gaussianity_check`).
    ``average_units`` > 1 averages the product over that many i.i.d. output
    units per network (variance reduction only; unbiased either way).
    Standard errors come from a delete-one jackknife whose groups are the
    sampling batches: at least 40 of them, or one per network when there
    are fewer.
    """
    widths = tuple(np.atleast_1d(widths).tolist())
    return _sample(points, hp, widths, n_networks, seed, units=average_units)


def gaussianity_check(points: np.ndarray, hp: NetworkHyperparams, width: int,
                      n_networks: int, seed: int) -> FiniteNetSample:
    """The sample of equal-width networks, read for its normality statistics.

    Skewness and excess kurtosis shrink toward zero as the width grows
    (central limit behaviour of the last-layer sum); a width-1 network is
    visibly non-Gaussian.
    """
    widths = (width,) * hp.depth
    return _sample(points, hp, widths, n_networks, seed, units=1)
