"""Mean-field diagnostics of the kernel recurrence.

Iterating the layer map drives every diagonal entry to a fixed-point
variance q* (or to divergence) and every correlation toward a fixed point
c*. The derivative chi1 of the correlation map at its fixed point controls
how fast structure in the kernel is forgotten with depth: chi1 = 1 marks
the critical line where the depth scale xi = -1/log(chi1) diverges, and
predictive performance concentrates near that line. c* = 1 (ordered) exactly
when the map's slope at c = 1 is below 1; otherwise correlations from c -> 1-
flow down to c* < 1 (Schoenholz et al. 2017), and c* is read from there.

ReLU always uses its closed forms, with or without a table: the variance
fixed point of its affine variance map, and c* = 1 with chi1 = sw2 / 2, the
slope of the arccosine map at c = 1. Its table truncates the pre-activation
range, which at large q falls short of F(q, q) = q/2 and can fake a fixed
point where the variance diverges. Every other phi needs a lookup table,
whose maps are the kernel's layer step ``kernel._layer_map``. Both are
increasing and exactly linear between nodes: the variance map between the
table's s nodes (its diagonal f1d), the correlation map at fixed q* between
its c nodes (below the first variance row, its exact small-variance
linearization around c = 1). So q*, c* and chi1 are read off the maps'
values at the nodes: no iteration and no finite difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernel import NetworkHyperparams, _layer_map, _Plan, _read_off
# phase does not call build_kernel_matrix (a sweep reads every cell off one
# plan); perfbench/tracing.py patches nngp.phase.build_kernel_matrix by name
from .kernel import build_kernel_matrix  # noqa: F401
# phase does not call interpolate; perfbench/tracing.py patches nngp.phase.interpolate by name
from .lookup import LookupTable, interpolate  # noqa: F401
# a sweep scores the mean step alone, and calls neither posterior nor evaluate;
# perfbench/tracing.py patches nngp.phase.posterior and nngp.phase.evaluate by name
from .regression import evaluate, posterior  # noqa: F401
from .regression import _accuracy, _solve_mean

_Q_DIVERGENCE = 1e6
_CRITICAL_BAND = 1e-4
_CRITICAL_BRACKET = (1e-3, 10.0)
_CRITICAL_TOL = 1e-6


def variance_grid(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """(sw2, sb2) axes of the sweep protocol: cells points on [0.1, 5] x [0, 2]."""
    return np.linspace(0.1, 5.0, cells), np.linspace(0.0, 2.0, cells)


# the sweep protocol's 30 x 30 grid over the two variances (the CLI's default --cells)
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


def _closed_form(hp: NetworkHyperparams, table: LookupTable | None) -> bool:
    """True for ReLU, the one phi with closed-form maps; others need a table."""
    if hp.phi == "relu":
        return True
    if table is None:
        raise ValueError(f"no closed-form map for phi = {hp.phi!r}; pass a lookup table")
    return False


def _crossing(x: np.ndarray, y: np.ndarray, start: int) -> tuple[float, int] | None:
    """(crossing, segment) where iterating a map from node x[start] stops.

    The map is increasing and linear between the nodes x, where it takes the
    values y, so the iterates move monotonically to the first crossing of
    the diagonal on the side y - x points to: None if past the last node.
    """
    g = y - x
    if g[start] == 0.0:
        return float(x[start]), min(start, x.size - 2)
    if g[start] > 0.0:
        past = np.flatnonzero(g[start + 1:] <= 0.0)
        if past.size == 0:
            return None
        k = start + int(past[0])
    else:
        k = int(np.flatnonzero(g[:start] >= 0.0)[-1])
    # the root of g, which is linear and decreasing on segment k
    return float(np.interp(0.0, g[[k + 1, k]], x[[k + 1, k]])), k


def variance_fixed_point(hp: NetworkHyperparams, table: LookupTable | None = None) -> float:
    """Fixed point of q <- sigma_b^2 + sigma_w^2 F(q, q, q), or math.inf.

    Divergence -- q escaping the tabulated range, or the closed form's
    ceiling of 1e6 -- is a labeled outcome, not an error. ReLU's map q <-
    sb2 + sw2 q / 2 is affine, so its fixed point is sb2 / (1 - sw2 / 2) for
    sw2 < 2 and diverges above; at (2, 0) every q is fixed and the starting
    q0 = 2 is returned. A table phi's iteration from q0 = sb2 + sw2 is read
    off the map's values at the table's s nodes, with no iteration cap.
    """
    sw2, sb2 = hp.sigma_w2, hp.sigma_b2
    if _closed_form(hp, table):
        if sw2 == 2.0 and sb2 == 0.0:
            return 2.0
        if sw2 >= 2.0:
            return math.inf
        q = sb2 / (1.0 - sw2 / 2.0)
        return math.inf if q > _Q_DIVERGENCE else q

    q0 = sb2 + sw2
    if q0 > table.grid.s_max:
        return math.inf
    # the map at the s nodes, with q0 spliced in at its place unless it is a node
    q, m = table.grid.s, sb2 + sw2 * table.f1d
    start = int(np.searchsorted(q, q0))
    if q[start] != q0:
        q = np.concatenate((q[:start], [q0], q[start:]))
        m = np.concatenate((m[:start], [0.0], m[start:]))
    # the kernel's own step at the start node, which also checks the table's phi
    m[start] = _layer_map(q0, q0, hp, table, 1)
    hit = _crossing(q, m, start)
    return math.inf if hit is None else hit[0]


def _correlation_map(hp: NetworkHyperparams, table: LookupTable, q_star: float):
    """Nodes c and values R(c) of a table phi's correlation map at a finite q*.

    R is exactly linear between the nodes: at fixed q* the table is
    interpolated linearly in c between ``table.c_nodes``, and so is the
    small-variance linearization used below the first variance row, on the
    nodes -1, 0.5 and 1. The fixed-point iteration starts at c -> 1-, the
    last node before c = 1.
    """
    if q_star < float(table.grid.s[1]):
        c = np.array([-1.0, 0.5, 1.0])
        return c, 1.0 - hp.sigma_w2 * table.activation.derivative_at_zero() ** 2 * (1.0 - c)
    c = table.c_nodes
    return c, _layer_map(q_star * c, q_star, hp, table, 1) / q_star


def _slope(c: np.ndarray, r: np.ndarray, k: int) -> float:
    """Slope of the correlation map on segment k, between nodes c[k] and c[k + 1]."""
    return float((r[k + 1] - r[k]) / (c[k + 1] - c[k]))


def correlation_fixed_point(hp: NetworkHyperparams, table: LookupTable | None,
                            q_star: float) -> tuple[float, float, float]:
    """(c*, chi1, xi) for the correlation map at q*, finite for a table phi.

    A table phi's map is piecewise linear in c: c* = 1 when the slope of the
    last segment (c -> 1-) is below 1; otherwise c* is where the iteration
    c <- clip(R(c)) from c -> 1-, the last node before 1, stops, and chi1 is
    its segment's slope. ReLU's map stays above the diagonal below c = 1 at
    any q*, so c* = 1 and chi1 = sw2 / 2, its slope there. xi = -1/log(chi1),
    infinite on the critical band.
    """
    if _closed_form(hp, table):
        c_star, chi1 = 1.0, hp.sigma_w2 / 2.0
    elif math.isinf(q_star):
        raise ValueError("q* must be finite")
    else:
        c, r = _correlation_map(hp, table, q_star)
        # c = 1 is a fixed point; when stable (slope at c -> 1- below 1) it is c*
        c_star, chi1 = 1.0, _slope(c, r, c.size - 2)
        if chi1 >= 1.0:
            # clip(R(1)) = 1, so the iteration never escapes past c = 1
            c_star, k = _crossing(c, np.clip(r, -1.0, 1.0), c.size - 2)
            chi1 = _slope(c, r, k)
    chi1 = max(chi1, 0.0)
    if chi1 > 1.0 or abs(chi1 - 1.0) < _CRITICAL_BAND:
        xi = math.inf
    else:
        xi = 0.0 if chi1 == 0.0 else -1.0 / math.log(chi1)
    return c_star, chi1, xi


def diagnose(hp: NetworkHyperparams, table: LookupTable | None = None) -> PhaseDiagnostics:
    """Full fixed-point diagnostics for one hyperparameter point.

    ReLU is labeled bounded or unbounded, other phi ordered (c* = 1, the
    stable fixed point), chaotic or unbounded.
    """
    q_star = variance_fixed_point(hp, table)
    if math.isinf(q_star) and not _closed_form(hp, table):
        # past the table there is no correlation map to read
        return PhaseDiagnostics(q_star, math.nan, math.nan, math.nan, "unbounded")
    c_star, chi1, xi = correlation_fixed_point(hp, table, q_star)
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
    the last segment's slope for a table phi. c = 1 is always a fixed point,
    and its stability flips where this slope crosses 1. For a table phi the
    slope need not be monotone in sigma_w^2: for tanh at sb2 = 0 it is the
    small-variance linearization's sw2 while q* is below the first variance
    row s[1], then drops from 1.35 to 0.950 at sw2 = 1.4, where q* passes
    s[1] and the table's chord takes over. It equals the chi1 reported by
    diagnose() wherever c* = 1, and is nan where q* diverged past the table.
    """
    hp = NetworkHyperparams(depth=1, sigma_w2=sw2, sigma_b2=sb2, phi=phi)
    if _closed_form(hp, table):
        return sw2 / 2.0
    q_star = variance_fixed_point(hp, table)
    if math.isinf(q_star):
        return math.nan
    c, r = _correlation_map(hp, table, q_star)
    return _slope(c, r, c.size - 2)


def critical_line(phi: str, sb2_grid: np.ndarray,
                  table: LookupTable | None = None) -> np.ndarray:
    """sigma_w^2 with chi1 = 1, bisected per sigma_b^2 on [1e-3, 10] to 1e-6 in chi1.

    Cells whose bracket shows no sign change come back as nan. Plain
    bisection from this bracket is relied on: chi1_at is not monotone in
    sigma_w^2, and at tanh's sb2 = 0 bisection lands on 1.0000003 where
    brentq on the same bracket finds its drop at 1.524.
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


def heatmap_sweep(dataset: Dataset, phi: str, depth: int, sw2_grid: np.ndarray,
                  sb2_grid: np.ndarray, table: LookupTable) -> HeatmapSweep:
    """Kernel, posterior mean and validation accuracy per grid cell.

    Accuracy is measured on the validation split, and an empty one raises
    ValueError before any work. A cell's score is the argmax accuracy of the
    posterior mean alone, by the rule :func:`nngp.regression.evaluate` uses,
    so a cell makes no variance solve; it solves for the mean exactly as
    :func:`nngp.regression.posterior` does, and so fails as it would. Every
    cell is read off one kernel plan over the train and validation inputs,
    so the Gram is formed and each entry's interval found once per sweep; a
    cell composes its layer map and gathers its kernel, a new buffer of the
    Gram's size. One lookup table is shared across all cells. Per-cell
    failures (variance escaping the table, factorization breakdown) leave
    nan cells and record their reason; a plan that fails (inputs of unequal
    norm) records its reason in every cell. A cell never warns "posterior
    variance reached", since it forms no variance.
    """
    sw2_grid = np.asarray(sw2_grid, float)
    sb2_grid = np.asarray(sb2_grid, float)
    x_train, t_train = dataset.train_inputs, dataset.train_targets
    x_valid, t_valid = dataset.valid_inputs, dataset.valid_targets
    if x_valid.shape[0] == 0:
        raise ValueError("the validation split is empty: a sweep measures accuracy on it")
    cells = np.full((sw2_grid.size, sb2_grid.size), math.nan)
    failures = {}
    try:
        plan, plan_failure = _Plan(x_train, x_valid, keep=True), None
    except (ArithmeticError, ValueError) as exc:
        plan, plan_failure = None, f"{type(exc).__name__}: {exc}"
    for i, sw2 in enumerate(sw2_grid):
        for j, sb2 in enumerate(sb2_grid):
            hp = NetworkHyperparams(depth=depth, sigma_w2=float(sw2),
                                    sigma_b2=float(sb2), phi=phi)
            if plan is None:
                failures[i, j] = plan_failure
                continue
            try:
                k = next(_read_off(plan, hp, table, [depth]))
                with _solve_mean(k, t_train, hp, None) as (mean, _, _):
                    cells[i, j] = _accuracy(mean, t_valid)
            except (ArithmeticError, ValueError) as exc:
                failures[i, j] = f"{type(exc).__name__}: {exc}"
    return HeatmapSweep(sw2_grid=sw2_grid, sb2_grid=sb2_grid, cells=cells,
                        failures=failures)
