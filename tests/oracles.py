"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: bivariate expectations
use Gauss-Hermite quadrature (a different quadrature family from the
package's fixed-grid ratio of sums), and the posterior uses a dense matrix
inverse instead of a Cholesky solve.
"""

from __future__ import annotations

import math

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


def base_kernel(x: np.ndarray, x2: np.ndarray, hp) -> float:
    """Input-layer covariance sigma_b^2 + sigma_w^2 (x . x') / d_in."""
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x.shape != x2.shape or x.ndim != 1:
        raise ValueError(f"inputs must be 1D of equal dimension, got {x.shape} and {x2.shape}")
    d_in = x.size
    return float(hp.sigma_b2 + hp.sigma_w2 * (x @ x2) / d_in)


def symmetry_error(k) -> float:
    """Largest asymmetry of a KernelMatrix's train-train block, relative to its largest entry."""
    kdd = k.kdd
    scale = max(float(np.abs(kdd).max()), 1e-300)
    return float(np.abs(kdd - kdd.T).max()) / scale


def min_eigenvalue(k) -> float:
    """Smallest eigenvalue of a KernelMatrix's train-train block."""
    return float(np.linalg.eigvalsh(k.kdd)[0])


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


def iterated_variance_fixed_point(hp, table) -> float:
    """Variance fixed point of a table phi by iterating the kernel's layer step.

    q <- sigma_b^2 + sigma_w^2 F(q, q) from q0 = sigma_b^2 + sigma_w^2 until
    a step moves q by less than 1e-10 max(q, 1). math.inf when q escapes the
    table, or when it grows at every one of 10,000 steps.
    """
    from nngp.kernel import _layer_map

    q = hp.sigma_b2 + hp.sigma_w2
    if q > table.grid.s_max:
        return math.inf
    grew = True
    for _ in range(10_000):
        q_next = _layer_map(q, q, hp, table, 1)
        if q_next > table.grid.s_max:
            return math.inf
        delta = q_next - q
        grew = grew and delta > 0.0
        q = q_next
        if abs(delta) < 1e-10 * max(q, 1.0):
            return float(q)
    return math.inf if grew else float(q)


def iterated_correlation_fixed_point(hp, table, q_star: float) -> tuple[float, float]:
    """(c*, chi1) of a table phi's correlation map by iteration and differences.

    The map R(c) is evaluated point by point through the kernel's layer step
    (below the table's first variance row, by its small-variance
    linearization). chi1 at c -> 1- is a centered difference of step 1e-5
    ending at c = 1; when it is below 1, c* = 1. Otherwise c <- clip(R(c))
    is iterated from 0.5 until the residual |R(c) - c| / |1 - slope| is
    below 1e-12, so the stop does not loosen as the slope nears 1, and chi1
    is the centered difference at c* (at most 1 - 1e-5).
    """
    from nngp.kernel import _layer_map

    step = 1e-5
    if q_star < float(table.grid.s[1]):
        lin = hp.sigma_w2 * table.activation.derivative_at_zero() ** 2

        def r(c):
            return 1.0 - lin * (1.0 - min(max(c, -1.0), 1.0))
    else:
        def r(c):
            return _layer_map(q_star * min(max(c, -1.0), 1.0), q_star, hp, table, 1) / q_star

    def slope(c):
        return (r(c + step) - r(c - step)) / (2.0 * step)

    c_star, chi1 = 1.0, slope(1.0 - step)
    if chi1 >= 1.0:
        c = 0.5
        for _ in range(1_000_000):
            c, c_prev = min(max(r(c), -1.0), 1.0), c
            # a map of slope chi1 < 1 near c* leaves c within |R(c) - c| / (1 - chi1)
            # of c*; the slope is taken only once the step is small
            res = abs(c - c_prev)
            if res == 0.0 or res < 1e-12 and res < 1e-12 * abs(1.0 - slope(min(c, 1.0 - step))):
                break
        else:
            raise ArithmeticError(f"no fixed point within 1e-12 after 1e6 steps at {hp}")
        c_star = c
        chi1 = slope(min(c_star, 1.0 - step))
    return c_star, max(chi1, 0.0)


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


def interp_kernel(x_train: np.ndarray, x_test, hp, table, layer=None):
    """[K_DD | K_D,test] at a layer (default depth) read off by np.interp.

    The composition is the kernel's own (``_compose`` over the transfer
    cosines); every Gram entry is then interpolated by np.interp's binary
    search, the train triangle is mirrored from above the diagonal and the
    diagonal set to q_l. No buckets, no row blocks.
    """
    from nngp.kernel import _TRANSFER_COSINES, _compose, _gram

    layer = hp.depth if layer is None else layer
    x_all = x_train if x_test is None else np.vstack([x_train, x_test])
    n_train, d_in = x_train.shape[0], x_all.shape[1]
    rho = float(np.einsum("ij,ij->i", x_all, x_all).mean()) / d_in
    rows = _compose(hp.sigma_b2 + hp.sigma_w2 * rho * _TRANSFER_COSINES, -1, hp, table)
    # the kernel's own product: another BLAS call (x_train @ x_all.T, or numpy's
    # matrix-vector path at n_train = 1) need not give the same bits
    k = np.interp(_gram(x_all, x_train).T, rho * d_in * _TRANSFER_COSINES, rows[layer])
    kdd = k[:, :n_train]
    lower = np.tril_indices(n_train, -1)
    kdd[lower] = kdd.T[lower]
    np.fill_diagonal(kdd, rows[layer, -1])
    return k


def loop_sweep(dataset, phi: str, depth: int, sw2_grid, sb2_grid, table):
    """(cells, failures) of a heatmap sweep that builds every cell on its own.

    Each cell forms its kernel by ``build_kernel_matrix`` (its own Gram,
    bracket and intervals) and then calls ``posterior`` and ``evaluate``;
    failures are recorded as "ExceptionType: message", as the sweep does.
    """
    from nngp import NetworkHyperparams, build_kernel_matrix, evaluate, posterior

    cells = np.full((len(sw2_grid), len(sb2_grid)), math.nan)
    failures = {}
    for i, sw2 in enumerate(sw2_grid):
        for j, sb2 in enumerate(sb2_grid):
            hp = NetworkHyperparams(depth=depth, sigma_w2=float(sw2), sigma_b2=float(sb2),
                                    phi=phi)
            try:
                k = build_kernel_matrix(dataset.train_inputs, hp, table, dataset.valid_inputs)
                pred = posterior(k, dataset.train_targets, hp)
                cells[i, j] = evaluate(pred, dataset.valid_targets)["accuracy"]
            except (ArithmeticError, ValueError) as exc:
                failures[i, j] = f"{type(exc).__name__}: {exc}"
    return cells, failures


def union1d_variance_fixed_point(hp, table) -> float:
    """A table phi's q* with the map's nodes formed by np.union1d(s, q0).

    The variance map is interpolated at the union of the table's s nodes and
    q0 = sigma_b^2 + sigma_w^2, and stepped by the kernel's layer map at q0;
    its first crossing of the diagonal from q0 is read by ``phase._crossing``.
    """
    from nngp.kernel import _layer_map
    from nngp.phase import _crossing

    q0 = hp.sigma_b2 + hp.sigma_w2
    if q0 > table.grid.s_max:
        return math.inf
    q = np.union1d(table.grid.s, q0)
    start = int(np.searchsorted(q, q0))
    m = hp.sigma_b2 + hp.sigma_w2 * np.interp(q, table.grid.s, table.f1d)
    m[start] = _layer_map(q0, q0, hp, table, 1)
    hit = _crossing(q, m, start)
    return math.inf if hit is None else hit[0]
