"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: bivariate expectations
use Gauss-Hermite quadrature (a different quadrature family from the
package's fixed-grid ratio of sums), and the posterior uses a dense matrix
inverse instead of a Cholesky solve.
"""

from __future__ import annotations

import numpy as np

_GH_NODES = 120
_gh_x, _gh_w = np.polynomial.hermite.hermgauss(_GH_NODES)


def gh_moment(phi_fn, var: float) -> float:
    """E[phi(u)^2] under N(0, var) by Gauss-Hermite quadrature."""
    if var == 0.0:
        return float(phi_fn(0.0)) ** 2
    z = np.sqrt(2.0 * var) * _gh_x
    return float(_gh_w @ (phi_fn(z) ** 2)) / np.sqrt(np.pi)


def gh_expectation(phi_fn, k_xy: float, k_xx: float, k_yy: float) -> float:
    """E[phi(u)phi(v)] under a bivariate zero-mean Gaussian, by 2D GH.

    Uses the conditional decomposition v | u ~ N(rho sqrt(k_yy/k_xx) u,
    k_yy (1 - rho^2)).
    """
    if k_xx == 0.0 and k_yy == 0.0:
        return float(phi_fn(0.0)) ** 2
    if k_xx == 0.0:
        z = np.sqrt(2.0 * k_yy) * _gh_x
        return float(phi_fn(0.0)) * float(_gh_w @ phi_fn(z)) / np.sqrt(np.pi)
    if k_yy == 0.0:
        z = np.sqrt(2.0 * k_xx) * _gh_x
        return float(phi_fn(0.0)) * float(_gh_w @ phi_fn(z)) / np.sqrt(np.pi)
    rho = k_xy / np.sqrt(k_xx * k_yy)
    rho = min(max(rho, -1.0), 1.0)
    u = np.sqrt(2.0 * k_xx) * _gh_x
    if 1.0 - abs(rho) < 1e-14:
        lam = np.sign(rho) * np.sqrt(k_yy / k_xx)
        return float(_gh_w @ (phi_fn(u) * phi_fn(lam * u))) / np.sqrt(np.pi)
    cond_mean = rho * np.sqrt(k_yy / k_xx) * u
    cond_std = np.sqrt(k_yy * (1.0 - rho * rho))
    v = cond_mean[:, None] + np.sqrt(2.0) * cond_std * _gh_x[None, :]
    inner = (phi_fn(v) @ _gh_w) / np.sqrt(np.pi)
    return float(_gh_w @ (phi_fn(u) * inner)) / np.sqrt(np.pi)


def relu_f_closed(k_xy: float, k_xx: float, k_yy: float) -> float:
    """Closed form of E[relu(u)relu(v)]: the degree-1 arccosine expectation."""
    denom = np.sqrt(k_xx * k_yy)
    c = min(max(k_xy / denom, -1.0), 1.0) if denom > 0 else 0.0
    theta = np.arccos(c)
    return denom / (2.0 * np.pi) * (np.sin(theta) + (np.pi - theta) * c)


def brute_posterior(kdd: np.ndarray, kxd: np.ndarray, kxx_diag: np.ndarray,
                    targets: np.ndarray, noise: float):
    """Dense-inverse posterior mean and variance, the textbook formulas."""
    n = kdd.shape[0]
    inv = np.linalg.inv(kdd + noise * np.eye(n))
    mean = kxd @ inv @ targets
    var = kxx_diag - np.einsum("ij,jk,ik->i", kxd, inv, kxd)
    return mean, var


def tanh_qstar_gh(sw2: float, sb2: float) -> float:
    """Variance fixed point for tanh via GH iteration."""
    q = sb2 + sw2
    for _ in range(200_000):
        qn = sb2 + sw2 * gh_moment(np.tanh, q)
        if abs(qn - q) < 1e-14:
            return qn
        q = qn
    return q


def tanh_chi1_gh(sw2: float, sb2: float) -> float:
    """sw2 * E[sech^4] at the variance fixed point (slope at c = 1)."""
    q = tanh_qstar_gh(sw2, sb2)
    if q == 0.0:
        return sw2
    z = np.sqrt(2.0 * q) * _gh_x
    return sw2 * float(_gh_w @ (1.0 / np.cosh(z)) ** 4) / np.sqrt(np.pi)


def per_entry_kernel(x_train: np.ndarray, x_test: np.ndarray, hp, table):
    """[K_DD | K_D,test] by the per-entry recursion, and the layer variance q_L.

    Every Gram entry is advanced through every layer by the lookup step
    sigma_b^2 + sigma_w^2 F(k, q) at the shared variance q: no composition
    over base cosines and no interpolation of the Gram.
    """
    from nngp.lookup import interpolate

    x = np.vstack([x_train, x_test])
    d_in = x.shape[1]
    q = hp.sigma_b2 + hp.sigma_w2 * float(np.einsum("ij,ij->i", x, x).mean()) / d_in
    k = hp.sigma_b2 + hp.sigma_w2 * (x_train @ x.T) / d_in
    np.fill_diagonal(k, q)
    for _ in range(hp.depth):
        k = hp.sigma_b2 + hp.sigma_w2 * interpolate(table, k, q)
        q = hp.sigma_b2 + hp.sigma_w2 * interpolate(table, q, q)
    return k, q


def arccos_kernel(x_train: np.ndarray, x_test: np.ndarray, hp):
    """KernelMatrix of the closed-form ReLU (degree-1 arccosine) kernel.

    The full Gram over train and test points is advanced through every layer
    by the arccosine step, each entry with its own pair of diagonals: no
    table, no composition over base cosines.
    """
    from nngp import KernelMatrix

    x = np.vstack([x_train, x_test])
    k = hp.sigma_b2 + hp.sigma_w2 * (x @ x.T) / x.shape[1]
    for _ in range(hp.depth):
        norms = np.sqrt(np.outer(np.diag(k), np.diag(k)))
        cos_t = np.clip(k / norms, -1.0, 1.0)
        theta = np.arccos(cos_t)
        k = hp.sigma_b2 + hp.sigma_w2 / (2.0 * np.pi) * norms * (
            np.sin(theta) + (np.pi - theta) * cos_t)
    n_train = x_train.shape[0]
    return KernelMatrix(np.ascontiguousarray(k[:n_train]), n_train,
                        np.diag(k)[n_train:].copy(), hp.depth)
