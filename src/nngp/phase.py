"""Mean-field diagnostics of the kernel recurrence.

Iterating the layer map drives every diagonal entry to a fixed-point
variance q* (or to divergence) and every correlation toward a fixed point
c*. The derivative chi1 of the correlation map at its fixed point controls
how fast structure in the kernel is forgotten with depth: chi1 = 1 marks
the critical line where the depth scale xi = -1/log(chi1) diverges, and
predictive performance concentrates near that line. c* = 1 (ordered) exactly
when the map's slope at c = 1 is below 1 (Schoenholz et al. 2017).

ReLU always uses its closed forms, with or without a table: the variance
fixed point of its affine variance map, and c* = 1 with chi1 = sw2 / 2, the
slope of the arccosine map at c = 1. Its table truncates the pre-activation
range, which at large q falls short of F(q, q) = q/2 and can fake a fixed
point where the variance diverges. Every other phi needs a lookup table,
and its maps go through the kernel's layer step ``kernel._layer_map``. At
fixed q* that map is exactly linear in c between the table's c nodes (below
the table's variance resolution it is replaced by its exact small-variance
linearization around c = 1, also linear), so c* and chi1 are read off its
values at the nodes: no iteration and no finite difference.
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
    outcome, not an error. ReLU's map q <- sb2 + sw2 q / 2 is affine, so its
    fixed point is sb2 / (1 - sw2 / 2) for sw2 < 2 and diverges above; at
    (2, 0) every q is fixed and the starting q0 = 2 is returned.
    """
    sw2, sb2 = hp.sigma_w2, hp.sigma_b2
    if _closed_form(hp, table):
        if sw2 == 2.0 and sb2 == 0.0:
            return 2.0
        if sw2 >= 2.0:
            return math.inf
        q = sb2 / (1.0 - sw2 / 2.0)
        return math.inf if q > _Q_DIVERGENCE else q

    q = sb2 + sw2
    if q > table.grid.s_max:
        return math.inf
    grew = True
    for _ in range(_Q_MAX_ITERS):
        q_next = _layer_map(q, q, hp, table, 1)
        if q_next > table.grid.s_max:
            return math.inf
        delta = q_next - q
        grew = grew and delta > 0.0
        q = q_next
        if abs(delta) < _Q_TOL * max(q, 1.0):
            return float(q)
    if grew:
        return math.inf
    return float(q)


def _correlation_map(hp: NetworkHyperparams, table: LookupTable, q_star: float):
    """Nodes c and values R(c) of a table phi's correlation map at a finite q*.

    R is exactly linear between the nodes: at fixed q* the table is
    interpolated linearly in c between ``table.c_nodes``, and so is the
    small-variance linearization used below the first variance row. The
    node 0.5, where the fixed-point iteration starts, splits one segment.
    """
    if q_star < float(table.grid.s[1]):
        c = np.array([-1.0, 0.5, 1.0])
        return c, 1.0 - hp.sigma_w2 * table.activation.derivative_at_zero() ** 2 * (1.0 - c)
    c = np.union1d(table.c_nodes, 0.5)
    return c, _layer_map(q_star * c, q_star, hp, table, 1) / q_star


def _fixed_point_stats(hp: NetworkHyperparams, table: LookupTable | None,
                       q_star: float) -> tuple[float, float, float] | None:
    """(c*, chi1, xi), or None where q* diverged past the table.

    ReLU's map stays above the diagonal below c = 1 at finite q* and is
    q*-free at q* = 0 or inf, so c* = 1 and chi1 is its slope there, sw2 / 2.
    """
    if _closed_form(hp, table):
        c_star, chi1 = 1.0, hp.sigma_w2 / 2.0
    elif math.isinf(q_star):
        return None
    else:
        c, r = _correlation_map(hp, table, q_star)
        slopes = np.diff(r) / np.diff(c)
        # c = 1 is a fixed point; when stable (slope at c -> 1- below 1) it is c*
        c_star, chi1 = 1.0, float(slopes[-1])
        if chi1 >= 1.0:
            # iterating c <- clip(R(c)) from 0.5 moves monotonically (R increases)
            # to the first fixed point on the side R(0.5) - 0.5 points to
            g = np.clip(r, -1.0, 1.0) - c
            half = int(np.flatnonzero(c == 0.5)[0])
            if g[half] > 0.0:
                k = half + int(np.flatnonzero(g[half + 1:] <= 0.0)[0])
            else:
                k = int(np.flatnonzero(g[:half + 1] >= 0.0)[-1])
            # the root of g, which is linear and decreasing on segment k
            c_star = float(np.interp(0.0, g[[k + 1, k]], c[[k + 1, k]]))
            chi1 = float(slopes[k])
    chi1 = max(chi1, 0.0)
    if chi1 > 1.0 or abs(chi1 - 1.0) < _CRITICAL_BAND:
        xi = math.inf
    else:
        xi = 0.0 if chi1 == 0.0 else -1.0 / math.log(chi1)
    return c_star, chi1, xi


def correlation_fixed_point(hp: NetworkHyperparams, table: LookupTable | None,
                            q_star: float) -> tuple[float, float, float]:
    """(c*, chi1, xi) for the correlation map at a finite q*.

    The map of a table phi is piecewise linear in c, so both are read off
    its nodes: c* = 1 when the slope of the last segment (c -> 1-) is below
    1; otherwise c* is the crossing that the iteration c <- R(c) from 0.5
    converges to, solved within its segment, and chi1 is that segment's
    slope. ReLU has c* = 1 and chi1 = sw2 / 2 exactly. xi = -1/log(chi1),
    infinite within the critical band.
    """
    stats = _fixed_point_stats(hp, table, q_star)
    if stats is None:
        raise ValueError("q* must be finite")
    return stats


def diagnose(hp: NetworkHyperparams, table: LookupTable | None = None) -> PhaseDiagnostics:
    """Full fixed-point diagnostics for one hyperparameter point.

    ReLU is labeled bounded or unbounded, other phi ordered (c* = 1, the
    stable fixed point), chaotic or unbounded.
    """
    q_star = variance_fixed_point(hp, table)
    stats = _fixed_point_stats(hp, table, q_star)
    if stats is None:
        return PhaseDiagnostics(q_star=q_star, c_star=math.nan, chi1=math.nan,
                                xi=math.nan, phase="unbounded")
    c_star, chi1, xi = stats
    if math.isinf(q_star):
        phase = "unbounded"
    elif _closed_form(hp, table):
        phase = "bounded"
    else:
        phase = "ordered" if c_star == 1.0 else "chaotic"
    return PhaseDiagnostics(q_star=q_star, c_star=c_star, chi1=chi1, xi=xi, phase=phase)


def chi1_at(phi: str, sw2: float, sb2: float, table: LookupTable | None = None) -> float:
    """Stability of the unit-correlation fixed point at one (sw2, sb2).

    This is the slope of the correlation map at c -> 1-: sw2 / 2 for ReLU,
    the last segment's slope for a table phi. c = 1 is always a fixed point;
    its stability flips exactly on the critical line, so this slope crosses
    1 monotonically in sigma_w^2 (the slope at an interior chaotic fixed
    point does not). It equals the chi1 reported by diagnose() wherever
    c* = 1, and is nan where q* diverged past the table.
    """
    hp = NetworkHyperparams(depth=1, sigma_w2=sw2, sigma_b2=sb2, phi=phi)
    if _closed_form(hp, table):
        return sw2 / 2.0
    q_star = variance_fixed_point(hp, table)
    if math.isinf(q_star):
        return math.nan
    c, r = _correlation_map(hp, table, q_star)
    return float((r[-1] - r[-2]) / (c[-1] - c[-2]))


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
    nan, failures[i, j] gives the reason as "ExceptionType: message", and the
    sweep keeps going.
    """

    sw2_grid: np.ndarray
    sb2_grid: np.ndarray
    cells: np.ndarray
    failures: dict[tuple[int, int], str]

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
    factorization breakdown) leave nan cells and record their reason.
    """
    sw2_grid = np.asarray(sw2_grid, float)
    sb2_grid = np.asarray(sb2_grid, float)
    if table is None:
        table = load_or_build(phi)
    x_train, t_train = dataset.train_inputs, dataset.train_targets
    x_valid, t_valid = dataset.valid_inputs, dataset.valid_targets
    cells = np.full((sw2_grid.size, sb2_grid.size), math.nan)
    failures = {}
    for i, sw2 in enumerate(sw2_grid):
        for j, sb2 in enumerate(sb2_grid):
            hp = NetworkHyperparams(depth=depth, sigma_w2=float(sw2),
                                    sigma_b2=float(sb2), phi=phi)
            try:
                k = build_kernel_matrix(x_train, hp, table, x_valid)
                pred = posterior(k, t_train, hp)
                cells[i, j] = evaluate(pred, t_valid)["accuracy"]
            except (ArithmeticError, ValueError) as exc:
                failures[i, j] = f"{type(exc).__name__}: {exc}"
    return HeatmapSweep(sw2_grid=sw2_grid, sb2_grid=sb2_grid, cells=cells,
                        failures=failures)
