"""Mean-field diagnostics of the kernel recurrence.

Iterating the layer map drives every diagonal entry to a fixed-point
variance q* (or to divergence) and every correlation toward a fixed point
c*. The derivative chi1 of the correlation map at its fixed point controls
how fast structure in the kernel is forgotten with depth: chi1 = 1 marks
the critical line where the depth scale xi = -1/log(chi1) diverges, and
predictive performance concentrates near that line. c* = 1 (ordered) exactly
when the map's slope at c = 1 is below 1 (Schoenholz et al. 2017).

ReLU always uses its exact closed-form maps (written here on Python floats,
since the critical line iterates them ~1e5 times), with or without a table:
its table truncates the pre-activation range, which at large q falls short
of F(q, q) = q/2 and can fake a fixed point where the variance diverges.
Every other phi needs a lookup table, and its maps go through the kernel's
layer step ``kernel._layer_map``. Below the table's variance resolution
the correlation map is replaced by its exact small-variance linearization
around c = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernel import NetworkHyperparams, _layer_map, build_kernel_matrix
# phase does not call interpolate; perfbench/tracing.py patches nngp.phase.interpolate by name
from .lookup import LookupTable, interpolate, load_or_build  # noqa: F401
from .regression import evaluate, posterior

_Q_TOL = 1e-10
_Q_MAX_ITERS = 10_000
_Q_DIVERGENCE = 1e6
_C_TOL = 1e-12
_C_MAX_ITERS = 10_000
_FD_STEP = 1e-5
_CRITICAL_BAND = 1e-4
_CRITICAL_BRACKET = (1e-3, 10.0)
_CRITICAL_TOL = 1e-6


def variance_grid(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """(sw2, sb2) axes of the sweep protocol: cells points on [0.1, 5] x [0, 2]."""
    return np.linspace(0.1, 5.0, cells), np.linspace(0.0, 2.0, cells)


# default sweep protocol: 30 x 30 grid over the two variances
SWEEP_SW2_GRID, SWEEP_SB2_GRID = variance_grid(30)


@dataclass(frozen=True)
class PhaseDiagnostics:
    """Fixed points, stability multiplier and phase label for one (sw2, sb2).

    q_star is math.inf when the variance map diverges; xi is math.inf on the
    critical band |chi1 - 1| < 1e-4.
    """

    q_star: float
    c_star: float
    chi1: float
    xi: float
    phase: str

    @property
    def diverged(self) -> bool:
        return math.isinf(self.q_star)


def _closed_form(hp: NetworkHyperparams, table: LookupTable | None) -> bool:
    """True for ReLU, the one phi with closed-form maps; others need a table."""
    if hp.phi == "relu":
        return True
    if table is None:
        raise ValueError(f"no closed-form map for phi = {hp.phi!r}; pass a lookup table")
    return False


def variance_fixed_point(hp: NetworkHyperparams, table: LookupTable | None = None) -> float:
    """Fixed point of q <- sigma_b^2 + sigma_w^2 F(q, q, q), or math.inf.

    Divergence -- q escaping the tabulated range (the closed form's ceiling
    is 1e6), or monotone growth through the iteration cap -- is a labeled
    outcome, not an error.
    """
    if _closed_form(hp, table):
        step, ceiling = (lambda q: hp.sigma_b2 + hp.sigma_w2 * q / 2.0), _Q_DIVERGENCE
    else:
        step, ceiling = (lambda q: _layer_map(q, q, hp, table, 1)), table.grid.s_max

    q = hp.sigma_b2 + hp.sigma_w2
    if q > ceiling:
        return math.inf
    grew = True
    for _ in range(_Q_MAX_ITERS):
        q_next = step(q)
        if q_next > ceiling:
            return math.inf
        delta = q_next - q
        grew = grew and delta > 0.0
        q = q_next
        if abs(delta) < _Q_TOL * max(q, 1.0):
            return float(q)
    if grew:
        return math.inf
    return float(q)


def _correlation_map(hp: NetworkHyperparams, table: LookupTable | None, q_star: float):
    """Return the correlation map R(c) at q*, or None.

    None means q* diverged past the table, where no correlation map exists;
    the closed-form ReLU map is q*-free in that limit.
    """
    if _closed_form(hp, table):
        sw2, sb2 = hp.sigma_w2, hp.sigma_b2

        def r(c):
            c = min(max(c, -1.0), 1.0)
            theta = math.acos(c)
            f = (1.0 / (2.0 * math.pi)) * (math.sin(theta) + (math.pi - theta) * c)
            if math.isinf(q_star) or q_star <= 0.0:
                return sw2 * f
            return (sb2 + sw2 * q_star * f) / q_star
        return r

    if math.isinf(q_star):
        return None
    if q_star < float(table.grid.s[1]):
        slope = hp.sigma_w2 * table.activation.derivative_at_zero() ** 2

        def r(c):
            return 1.0 - slope * (1.0 - min(max(c, -1.0), 1.0))
        return r

    def r(c):
        return _layer_map(q_star * min(max(c, -1.0), 1.0), q_star, hp, table, 1) / q_star
    return r


def _slope(r, c: float = 1.0 - _FD_STEP) -> float:
    """Centered finite difference of the map r at c, step 1e-5; by default at c -> 1-."""
    return float((r(c + _FD_STEP) - r(c - _FD_STEP)) / (2.0 * _FD_STEP))


def _fixed_point_stats(hp: NetworkHyperparams, r) -> tuple[float, float, float]:
    if hp.sigma_w2 == 0.0:
        return 1.0, 0.0, 0.0

    # c = 1 is a fixed point; when stable it is c*, reached without iterating
    # (from 0.5 the iteration would converge to it only geometrically)
    c_star, chi1 = 1.0, _slope(r)
    if chi1 >= 1.0:
        c = 0.5
        for _ in range(_C_MAX_ITERS):
            c, c_prev = min(max(r(c), -1.0), 1.0), c
            if abs(c - c_prev) < _C_TOL:
                break
        c_star = float(c)
        chi1 = _slope(r, min(c_star, 1.0 - _FD_STEP))
    chi1 = max(chi1, 0.0)
    if abs(chi1 - 1.0) < _CRITICAL_BAND:
        xi = math.inf
    elif chi1 == 0.0:
        xi = 0.0
    elif chi1 < 1.0:
        xi = -1.0 / math.log(chi1)
    else:
        xi = math.inf
    return c_star, chi1, xi


def correlation_fixed_point(hp: NetworkHyperparams, table: LookupTable | None,
                            q_star: float) -> tuple[float, float, float]:
    """(c*, chi1, xi) for the correlation map at a finite q*.

    c* = 1 when the map's slope there (a step-1e-5 centered difference ending
    at c = 1) is below 1, else the fixed point iterated from 0.5. chi1 is
    that slope at c*; xi = -1/log(chi1), infinite within the critical band.
    """
    r = _correlation_map(hp, table, q_star)
    if r is None:
        raise ValueError("q* must be finite")
    return _fixed_point_stats(hp, r)


def diagnose(hp: NetworkHyperparams, table: LookupTable | None = None) -> PhaseDiagnostics:
    """Full fixed-point diagnostics for one hyperparameter point.

    ReLU is labeled bounded or unbounded, other phi ordered (c* = 1, the
    stable fixed point), chaotic or unbounded.
    """
    q_star = variance_fixed_point(hp, table)
    r = _correlation_map(hp, table, q_star)
    if r is None:
        return PhaseDiagnostics(q_star=q_star, c_star=math.nan, chi1=math.nan,
                                xi=math.nan, phase="unbounded")
    c_star, chi1, xi = _fixed_point_stats(hp, r)
    if math.isinf(q_star):
        phase = "unbounded"
    elif hp.phi == "relu":
        phase = "bounded"
    else:
        phase = "ordered" if c_star == 1.0 else "chaotic"
    return PhaseDiagnostics(q_star=q_star, c_star=c_star, chi1=chi1, xi=xi, phase=phase)


def chi1_at(phi: str, sw2: float, sb2: float, table: LookupTable | None = None) -> float:
    """Stability of the unit-correlation fixed point at one (sw2, sb2).

    This is the derivative of the correlation map at c -> 1-. c = 1 is
    always a fixed point; its stability flips exactly on the critical line,
    so this slope crosses 1 monotonically in sigma_w^2 (the slope at an
    interior chaotic fixed point does not). It equals the chi1 reported by
    diagnose() wherever c* = 1, and is nan where q* diverged past the table.
    """
    hp = NetworkHyperparams(depth=1, sigma_w2=sw2, sigma_b2=sb2, phi=phi)
    r = _correlation_map(hp, table, variance_fixed_point(hp, table))
    return math.nan if r is None else _slope(r)


def critical_line(phi: str, sb2_grid: np.ndarray,
                  table: LookupTable | None = None) -> np.ndarray:
    """sigma_w^2 with chi1 = 1, bisected per sigma_b^2 on [1e-3, 10] to 1e-6 in chi1.

    Cells whose bracket shows no sign change come back as nan.
    """
    sb2_grid = np.asarray(sb2_grid, dtype=np.float64)
    out = np.empty(sb2_grid.shape)
    for i, sb2 in enumerate(sb2_grid):
        lo, hi = _CRITICAL_BRACKET
        g_lo = chi1_at(phi, lo, float(sb2), table) - 1.0
        g_hi = chi1_at(phi, hi, float(sb2), table) - 1.0
        if not (np.isfinite(g_lo) and np.isfinite(g_hi)) or g_lo * g_hi > 0.0:
            out[i] = math.nan
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g_mid = chi1_at(phi, mid, float(sb2), table) - 1.0
            if abs(g_mid) <= _CRITICAL_TOL or (hi - lo) < 1e-14:
                break
            if g_lo * g_mid <= 0.0:
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        out[i] = 0.5 * (lo + hi)
    return out


@dataclass(frozen=True)
class HeatmapSweep:
    """Validation accuracy per (sigma_w^2, sigma_b^2) cell.

    cells[i, j] corresponds to (sw2_grid[i], sb2_grid[j]); failed cells are
    nan and the sweep keeps going.
    """

    sw2_grid: np.ndarray
    sb2_grid: np.ndarray
    cells: np.ndarray

    def argmax(self) -> tuple[float, float, float]:
        """(sw2, sb2, accuracy) of the best populated cell."""
        if not np.any(np.isfinite(self.cells)):
            raise ValueError("no populated cells")
        flat = np.nanargmax(self.cells)
        i, j = np.unravel_index(flat, self.cells.shape)
        return float(self.sw2_grid[i]), float(self.sb2_grid[j]), float(self.cells[i, j])


def heatmap_sweep(dataset: Dataset, phi: str, depth: int,
                  sw2_grid: np.ndarray = SWEEP_SW2_GRID,
                  sb2_grid: np.ndarray = SWEEP_SB2_GRID,
                  table: LookupTable | None = None) -> HeatmapSweep:
    """Full kernel build + posterior + accuracy per grid cell.

    Accuracy is measured on the validation split; one lookup table is shared
    across all cells. Per-cell failures (variance escaping the table,
    factorization breakdown) leave nan cells.
    """
    sw2_grid = np.asarray(sw2_grid, float)
    sb2_grid = np.asarray(sb2_grid, float)
    if table is None:
        table = load_or_build(phi)
    x_train, t_train = dataset.train_inputs, dataset.train_targets
    x_valid, t_valid = dataset.valid_inputs, dataset.valid_targets
    cells = np.full((sw2_grid.size, sb2_grid.size), math.nan)
    for i, sw2 in enumerate(sw2_grid):
        for j, sb2 in enumerate(sb2_grid):
            hp = NetworkHyperparams(depth=depth, sigma_w2=float(sw2),
                                    sigma_b2=float(sb2), phi=phi)
            try:
                k = build_kernel_matrix(x_train, hp, table, x_valid)
                pred = posterior(k, t_train, hp)
                cells[i, j] = evaluate(pred, t_valid)["accuracy"]
            except (ArithmeticError, ValueError):
                continue
    return HeatmapSweep(sw2_grid=sw2_grid, sb2_grid=sb2_grid, cells=cells)
