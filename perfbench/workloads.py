"""The five benchmark workloads: inputs from a seed, one timed operation, checks.

Each workload has ``setup(seed)`` (inputs and a warm table; this is what
``setup_s`` times in a fresh process), ``op(state)`` (the timed operation,
repeated closed loop), ``digest(state, out)`` (bytes that must repeat
exactly for a fixed seed), ``summary(state, out, posteriors)`` (the
deterministic end-to-end metrics) and ``checks(state, out)`` (the oracles,
run outside the timed phase). Library functions are always called through
their module attribute, so the tracing patches see every call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nngp import data, experiment, finite_width, kernel, lookup, phase

# the paper's MNIST:1k ReLU row (Lee et al. 2018, table 2)
RUN_SW2, RUN_SB2 = 1.45, 0.28
BLOB_D_IN = 50
# criterion 1 of the acceptance suite: raw kernel values to 1e-2 relative
RAW_KERNEL_RTOL = 1e-2
ORACLE_TRAIN, ORACLE_TEST = 200, 100
# criterion 6a: critical sw2 within 0.01 of the exact value
CRITICAL_ATOL = 0.01
# 15 distinct entries, each |dev| / stderr roughly t with 9 degrees of
# freedom (10-shard jackknife): P(max > 6) is about 0.3% per run
MC_STDERR_LIMIT = 6.0
# the FFT table equals the direct double sum up to float64 roundoff
TABLE_RTOL = 1e-9


@dataclass
class Check:
    name: str
    ok: bool
    value: float
    limit: float
    detail: str = ""


@dataclass
class State:
    seed: int
    out_dir: Path
    cache_hit: bool
    table: object = None
    extra: dict = field(default_factory=dict)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _arrays_digest(*arrays) -> str:
    return _sha(*(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays))


def _clamped_frac(posteriors) -> float:
    tested = sum(n for _, n in posteriors)
    return sum(c for c, _ in posteriors) / tested if tested else 0.0


def _warm_table(phi: str):
    """Load (or, on the first run in a checkout, build) the default table."""
    path = lookup.cache_path(phi, lookup.default_grid())
    hit = path.exists()
    return lookup.load_or_build(phi), hit


class Workload:
    """Defaults for workloads that train no model and sweep no cells."""

    def summary(self, state: State, out, posteriors) -> dict:
        return {"accuracy": None, "clamped_frac": None, "cells": 0, "failed_cells": 0}


class RunWorkload(Workload):
    """``run_experiment`` on a synthetic-blob config (the ``nngp run`` path)."""

    def __init__(self, n_train: int, n_test: int, depth: int):
        self.n_train, self.n_test, self.depth = n_train, n_test, depth

    def setup(self, seed: int, out_dir: Path) -> State:
        table, hit = _warm_table("relu")
        config = experiment.RunConfig(
            dataset_format="synthetic", d_out=10, seed=seed, depth=self.depth,
            sigma_w2=RUN_SW2, sigma_b2=RUN_SB2, phi="relu",
            synthetic={"n": self.n_train + self.n_test, "d_in": BLOB_D_IN,
                       "n_test": self.n_test, "separation": 1.0, "seed": seed},
            report_path=str(out_dir / "report.json"),
            predictions_path=str(out_dir / "predictions.csv"),
        )
        dataset = experiment.build_dataset(config)
        return State(seed, out_dir, hit, table,
                     {"config": config, "dataset": dataset, "hp": config.hyperparams()})

    def op(self, state: State):
        return experiment.run_experiment(state.extra["config"])

    def digest(self, state: State, out) -> str:
        config = state.extra["config"]
        report = json.loads(Path(config.report_path).read_text())
        report.pop("timings")
        return _sha(json.dumps(report, indent=2, sort_keys=True).encode(),
                    Path(config.predictions_path).read_bytes())

    def summary(self, state: State, out, posteriors) -> dict:
        return {"accuracy": out["accuracy"], "clamped_frac": _clamped_frac(posteriors),
                "cells": 0, "failed_cells": 0}

    def checks(self, state: State, out) -> tuple[float, list[Check]]:
        """Gaps q_L - K_L against the closed-form arccosine composition.

        Every kernel entry depends only on its own pair of points, so the
        kernel of the first ORACLE_TRAIN train and ORACLE_TEST test points
        holds exactly the entries the run used for those pairs.
        """
        ds, hp = state.extra["dataset"], state.extra["hp"]
        x_tr = ds.train_inputs[:ORACLE_TRAIN]
        x_te = ds.test_inputs[:ORACLE_TEST]
        k = kernel.build_kernel_matrix(x_tr, hp, state.table, x_te).entries
        x = np.vstack([x_tr, x_te])
        ref = hp.sigma_b2 + hp.sigma_w2 * (x @ x.T) / x.shape[1]
        for _ in range(hp.depth):
            d = np.diag(ref).copy()
            ref = kernel.analytic_relu_step(ref, d[:, None], d[None, :], hp)
        ref = ref[:ORACLE_TRAIN]
        n = x_tr.shape[0]
        off = np.ones(k.shape, dtype=bool)
        off[np.arange(n), np.arange(n)] = False
        gap = k[0, 0] - k[off]
        gap_ref = ref[0, 0] - ref[off]
        gap_err = float(np.max(np.abs(gap - gap_ref) / np.abs(gap_ref)))
        raw_err = float(np.max(np.abs(k - ref) / np.abs(ref)))
        return gap_err, [Check("kernel_raw_rel_err", raw_err <= RAW_KERNEL_RTOL, raw_err,
                               RAW_KERNEL_RTOL, "lookup kernel vs arccosine composition")]


class PhaseSweepWorkload(Workload):
    """The hyperparameter-selection steps of demos/phase_diagram.py plus a sweep."""

    # every third point of the demo's 30x30 diagnose grid
    SW2_DIAG = phase.SWEEP_SW2_GRID[::3]
    SB2_DIAG = phase.SWEEP_SB2_GRID[::3]
    SB2_LINE = np.linspace(0.0, 2.0, 5)
    SW2_SWEEP = np.linspace(0.1, 5.0, 3)
    SB2_SWEEP = np.linspace(0.0, 2.0, 3)

    def setup(self, seed: int, out_dir: Path) -> State:
        table, hit = _warm_table("tanh")
        x, y = data.synthetic_blobs(500, BLOB_D_IN, 10, 1.0, seed)
        dataset = data.preprocess(x, y, 10, (300, 200, 0), seed)
        return State(seed, out_dir, hit, table, {"dataset": dataset})

    def op(self, state: State):
        table = state.table
        diag = []
        for sw2 in self.SW2_DIAG:
            for sb2 in self.SB2_DIAG:
                hp = kernel.NetworkHyperparams(depth=1, sigma_w2=float(sw2),
                                               sigma_b2=float(sb2), phi="tanh")
                d = phase.diagnose(hp, table)
                diag.append((d.q_star, d.c_star, d.chi1, d.xi, d.phase == "ordered"))
        tanh_line = phase.critical_line("tanh", self.SB2_LINE, table)
        relu_line = phase.critical_line("relu", self.SB2_LINE)
        sweep = phase.heatmap_sweep(state.extra["dataset"], "tanh", 20,
                                    self.SW2_SWEEP, self.SB2_SWEEP, table)
        return {"diag": np.array(diag, dtype=np.float64), "tanh_line": tanh_line,
                "relu_line": relu_line, "cells": sweep.cells}

    def digest(self, state: State, out) -> str:
        return _arrays_digest(out["diag"], out["tanh_line"], out["relu_line"], out["cells"])

    def summary(self, state: State, out, posteriors) -> dict:
        cells = out["cells"]
        return {"accuracy": float(np.nanmax(cells)) if np.isfinite(cells).any() else 0.0,
                "clamped_frac": _clamped_frac(posteriors),
                "cells": int(cells.size), "failed_cells": int(np.isnan(cells).sum())}

    def checks(self, state: State, out) -> tuple[float, list[Check]]:
        relu0 = float(out["relu_line"][0])
        tanh0 = float(out["tanh_line"][0])
        err = max(abs(relu0 - 2.0) / 2.0, abs(tanh0 - 1.0))
        return err, [
            Check("relu_critical_sw2", abs(relu0 - 2.0) <= CRITICAL_ATOL, relu0,
                  CRITICAL_ATOL, "exact value 2 at sb2 = 0"),
            Check("tanh_critical_sw2", abs(tanh0 - 1.0) <= CRITICAL_ATOL, tanh0,
                  CRITICAL_ATOL, "exact value 1 at sb2 = 0"),
        ]


class VerifyWorkload(Workload):
    """The ``nngp verify`` path: kernel, then finite-width Monte Carlo."""

    HP = kernel.NetworkHyperparams(depth=3, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    N_POINTS, D_IN, WIDTH, NETWORKS = 5, 16, 1024, 2000

    def setup(self, seed: int, out_dir: Path) -> State:
        table, hit = _warm_table("tanh")
        # one blob at the origin: standard normal points, rescaled to ||x||^2 = d_in
        x, y = data.synthetic_blobs(self.N_POINTS, self.D_IN, 1, 0.0, seed)
        points = data.preprocess(x, y, 1, (self.N_POINTS, 0, 0), seed, shuffle=False).inputs
        return State(seed, out_dir, hit, table, {"points": points})

    def op(self, state: State):
        pts, hp = state.extra["points"], self.HP
        k = kernel.build_kernel_matrix(pts, hp, state.table)
        sample = finite_width.sample_empirical_kernel(
            pts, hp, (self.WIDTH,) * hp.depth, self.NETWORKS, state.seed)
        stats = finite_width.gaussianity_check(pts, hp, self.WIDTH, self.NETWORKS, state.seed)
        return {"kernel": k.kdd, "empirical": sample.empirical_k, "stderr": sample.stderr,
                "skewness": stats.skewness, "kurtosis": stats.excess_kurtosis}

    def digest(self, state: State, out) -> str:
        return _arrays_digest(*(out[k] for k in sorted(out)))

    def checks(self, state: State, out) -> tuple[float | None, list[Check]]:
        z = float(np.max(np.abs(out["empirical"] - out["kernel"]) / out["stderr"]))
        return None, [Check("mc_max_dev_stderr", z <= MC_STDERR_LIMIT, z, MC_STDERR_LIMIT,
                            "max |empirical - K^L| in jackknife standard errors")]


class TableBuildWorkload(Workload):
    """``load_or_build`` of a ReLU table into an empty cache, then read back.

    The grid is the default one with every COL_STRIDE-th correlation column:
    the same pre-activation and variance axes, so the same work per column
    and the same write path, in a twenty-fifth of the time. The stride is
    odd, so each built column sits exactly on a column of the default table
    cached by an earlier process.
    """

    N_CELLS, N_DIAG = 12, 4
    COL_STRIDE = 25

    def setup(self, seed: int, out_dir: Path) -> State:
        table, hit = _warm_table("relu")
        d = table.grid
        grid = lookup.build_grid(d.n_g, d.n_v, d.n_c // self.COL_STRIDE, d.u_max, d.s_max)
        rng = np.random.default_rng(seed)
        cells = np.column_stack([rng.integers(1, grid.n_v, self.N_CELLS),
                                 rng.integers(0, grid.n_c, self.N_CELLS)])
        rows = rng.integers(1, grid.n_v, self.N_DIAG)
        return State(seed, out_dir, hit, table, {"grid": grid, "cells": cells, "rows": rows})

    def op(self, state: State):
        directory = tempfile.mkdtemp(prefix="table-", dir=state.out_dir)
        try:
            built = lookup.load_or_build("relu", state.extra["grid"], directory=directory)
            back = lookup.load_table(lookup.cache_path("relu", built.grid, directory))
        finally:
            shutil.rmtree(directory)
        return {"built": built, "back": back}

    def digest(self, state: State, out) -> str:
        t = out["back"]
        return _arrays_digest(t.f2d, t.f1d)

    def checks(self, state: State, out) -> tuple[float, list[Check]]:
        built, back, warm = out["built"], out["back"], state.table
        grid = built.grid
        errs = []
        for i, j in state.extra["cells"]:
            s, c = grid.s[i], grid.c[j]
            ref = lookup.expectation_direct("relu", s * c, s, s, grid)
            # ReLU values vanish as c -> -1, so scale by the row's second moment
            errs.append(abs(built.f2d[i, j] - ref) / built.f1d[i])
        for i in state.extra["rows"]:
            s = grid.s[i]
            ref = lookup.expectation_direct("relu", s, s, s, grid)
            errs.append(abs(built.f1d[i] - ref) / abs(ref))
        err = float(max(errs))
        same_back = bool(np.array_equal(built.f2d, back.f2d)
                         and np.array_equal(built.f1d, back.f1d))
        # the column centres agree to an ulp, not bit for bit, so compare
        # to the oracle's tolerance; row 0 and f1d are computed identically
        warm_cols = warm.f2d[:, self.COL_STRIDE // 2::self.COL_STRIDE]
        warm_err = float(np.max(np.abs(built.f2d[1:] - warm_cols[1:]) / built.f1d[1:, None]))
        same_warm = bool(warm_err <= TABLE_RTOL and np.array_equal(built.f2d[0], warm_cols[0])
                         and np.array_equal(built.f1d, warm.f1d))
        return err, [
            Check("table_vs_direct", err <= TABLE_RTOL, err, TABLE_RTOL,
                  "sampled cells and diagonal rows vs expectation_direct"),
            Check("table_round_trip", same_back, float(same_back), 1.0,
                  "load_table returns the arrays just built"),
            Check("table_matches_cache", same_warm, warm_err, TABLE_RTOL,
                  "fresh build vs the matching columns of the table cached by an earlier process"),
        ]


WORKLOADS = {
    # n_train 3000: below about 2500 the collapsed kernel's posterior
    # variances stop going negative, and clamped_frac would hide item 1
    "run_deep": RunWorkload(n_train=3000, n_test=1000, depth=20),
    "run_wide": RunWorkload(n_train=4000, n_test=1000, depth=1),
    "phase_sweep": PhaseSweepWorkload(),
    "verify_mc": VerifyWorkload(),
    "table_build": TableBuildWorkload(),
}
