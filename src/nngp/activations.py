"""Pointwise nonlinearities usable in kernel construction.

An activation must be finite on the quadrature grid and have finite value at
zero (the zero-variance Gaussian expectation is phi(0)^2). The ``odd`` flag
enables exact antisymmetric handling of correlations below the lowest grid
point: for odd phi, E[phi(u)phi(v)] at correlation -c equals minus the value
at +c. ``expectation`` is the two-point expectation F(k_xy, k_xx, k_yy) =
E[phi(u)phi(v)] in closed form where one is known (ReLU: the degree-1
arccosine kernel, Cho & Saul 2009), else None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Activation:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    odd: bool
    expectation: Callable | None = None

    @property
    def value_at_zero(self) -> float:
        return float(self.fn(np.float64(0.0)))

    def derivative_at_zero(self) -> float:
        """Central finite difference of phi at 0, step 1e-6 (no derivative tables)."""
        h = 1e-6
        return float(self.fn(np.float64(h)) - self.fn(np.float64(-h))) / (2.0 * h)


def _relu(u):
    return np.maximum(u, 0.0)


def check_covariance(k_xy, k_xx, k_yy) -> None:
    """Raise ValueError unless F's arguments are a covariance: k_xx, k_yy >= 0 and
    |k_xy| <= sqrt(k_xx k_yy) up to roundoff. Arrays broadcast; the message
    names the first offending entry."""
    if isinstance(k_xx, float) and isinstance(k_yy, float) and k_xx >= 0.0 and k_yy >= 0.0:
        # scalar variances: one float bound and one comparison; the broadcast
        # below then runs only to name the offending entry
        bound = math.sqrt(abs(k_xx * k_yy)) * (1.0 + 1e-8) + 1e-15
        if not (np.abs(k_xy) > bound).any():
            return
    # a negative variance is flagged on its own; |k_xx k_yy| keeps it out of the root
    bad = (np.less(k_xx, 0.0) | np.less(k_yy, 0.0)
           | (np.abs(k_xy) > np.sqrt(np.abs(k_xx * k_yy)) * (1.0 + 1e-8) + 1e-15))
    if bad.any():
        k_xy, k_xx, k_yy, bad = np.broadcast_arrays(k_xy, k_xx, k_yy, bad)
        at = np.argmax(bad)
        raise ValueError(f"F needs non-negative variances and |k_xy| <= sqrt(k_xx k_yy), got "
                         f"k_xy = {k_xy.flat[at]}, k_xx = {k_xx.flat[at]}, k_yy = {k_yy.flat[at]}")


def _arccos_expectation(k_xy, k_xx, k_yy):
    """E[relu(u)relu(v)], scalars or broadcastable arrays; 0 where a variance is 0."""
    check_covariance(k_xy, k_xx, k_yy)
    denom = np.sqrt(k_xx * k_yy)
    cos_t = np.clip(k_xy / np.where(denom > 0.0, denom, 1.0), -1.0, 1.0)
    theta = np.arccos(cos_t)
    return denom / (2.0 * np.pi) * (np.sin(theta) + (np.pi - theta) * cos_t)


RELU = Activation("relu", _relu, odd=False, expectation=_arccos_expectation)
TANH = Activation("tanh", np.tanh, odd=True)

ACTIVATIONS = {a.name: a for a in (RELU, TANH)}


def get_activation(phi) -> Activation:
    """Resolve an activation from its tag, passing instances through."""
    if isinstance(phi, Activation):
        return phi
    try:
        return ACTIVATIONS[phi]
    except KeyError:
        known = ", ".join(sorted(ACTIVATIONS))
        raise ValueError(f"unknown nonlinearity {phi!r}; known tags: {known}") from None


def registered_activation(phi) -> Activation:
    """Resolve phi as :func:`get_activation` does, refusing an Activation that
    is not the one registered under its name: kernels and cache files record
    phi by its tag alone."""
    act = get_activation(phi)
    if ACTIVATIONS.get(act.name) is not act:
        raise ValueError(f"nonlinearity {act.name!r} is not registered")
    return act
