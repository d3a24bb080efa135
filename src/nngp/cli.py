"""Command-line interface.

Subcommands: ``table build``, ``kernel``, ``regress``, ``phase``, ``sweep``,
``verify``, ``run``. Every subcommand reads its model, grid, seed, ``d_out``
and noise from one JSON RunConfig (``--config``), each only the settings it
uses, as its ``--help`` says; its flags are only what is its own (data files,
output paths, sample sizes). ``run`` and ``sweep`` need a config for their
dataset; the others fall back to RunConfig's defaults without one. All CSV
output uses '.' decimals, comma separators and a header row. The
lookup-table cache location is taken from NNGP_CACHE_DIR.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import lookup
from .activations import get_activation
from .data import DataFormatError, load_csv, preprocess, synthetic_blobs
from .experiment import RunConfig, _write_predictions, build_dataset, run_experiment
from .finite_width import sample_empirical_kernel
from .kernel import DEFAULT_NOISE, angular_profile, build_kernel_matrix
from .phase import diagnose, heatmap_sweep, variance_grid
from .regression import calibration_bins, evaluate, posterior

_CELLS_HELP = "points on each variance axis: sw2 in [0.1, 5], sb2 in [0, 2]"


def _at_least(low: int):
    """An argparse type: an int >= low; argparse reports anything else as a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, not {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    return parse


def _config(args) -> RunConfig:
    return RunConfig.from_json(args.config) if args.config else RunConfig()


def _table(cfg: RunConfig) -> lookup.LookupTable:
    return lookup.load_or_build(cfg.phi, lookup.build_grid(**cfg.grid))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_table_build(args) -> int:
    cfg = _config(args)
    grid = lookup.build_grid(**cfg.grid)
    cached = lookup.cache_path(cfg.phi, grid)
    t0 = time.perf_counter()
    hit = lookup.cached_table(cfg.phi, grid)
    table = hit or lookup.load_or_build(cfg.phi, grid)
    how = "cached" if hit else f"built in {time.perf_counter() - t0:.2f} s"
    path = args.out or cached
    if args.out:
        lookup.save_table(table, args.out)
    print(f"table ready: {path} ({how})")
    return 0


def cmd_kernel(args) -> int:
    cfg = _config(args)
    hp = cfg.hyperparams()
    table = None if args.analytic else _table(cfg)
    profile = angular_profile(hp, table, n_angles=args.angles)
    header = ["theta"] + [f"k_layer_{l}" for l in range(hp.depth + 1)]
    rows = [[repr(float(t))] + [repr(float(v)) for v in profile.values[:, i]]
            for i, t in enumerate(profile.thetas)]
    _write_csv(args.profile_out, header, rows)
    print(f"wrote {len(rows)} angles x {hp.depth + 1} layers to {args.profile_out}")
    return 0


def cmd_regress(args) -> int:
    cfg = _config(args)
    x_train, y_train = load_csv(args.train)
    x_test, y_test = load_csv(args.test)
    if x_train.shape[1] != x_test.shape[1]:
        raise DataFormatError(f"train d_in {x_train.shape[1]} != test d_in {x_test.shape[1]}")
    x = np.vstack([x_train, x_test])
    y = np.concatenate([y_train, y_test])
    n_train, n_test = x_train.shape[0], x_test.shape[0]
    # file boundaries are the split; no shuffling
    ds = preprocess(x, y, cfg.d_out, (n_train, 0, n_test), seed=0, shuffle=False)
    hp = cfg.hyperparams()
    k = build_kernel_matrix(ds.train_inputs, hp, _table(cfg), ds.test_inputs)
    pred = posterior(k, ds.train_targets, hp)
    _write_predictions(args.pred_out, pred, range(n_test))
    metrics = evaluate(pred, ds.test_targets)
    if args.calib_out:
        bins = calibration_bins(pred, ds.test_targets, args.bin_size)
        _write_csv(args.calib_out, ["predicted", "realized"],
                   [[repr(p), repr(r)] for p, r in bins])
    print(f"accuracy {metrics['accuracy']:.4f}  mse {metrics['mse']:.6f}  "
          f"noise_used {pred.noise_used:g}")
    return 0


def cmd_phase(args) -> int:
    cfg = _config(args)
    closed = get_activation(cfg.phi).expectation is not None
    table = None if closed else _table(cfg)
    sw2s, sb2s = variance_grid(args.cells)
    model = cfg.hyperparams()
    rows = []
    for sw2 in sw2s:
        for sb2 in sb2s:
            d = diagnose(replace(model, sigma_w2=float(sw2), sigma_b2=float(sb2)), table)
            rows.append([repr(float(sw2)), repr(float(sb2)), repr(d.q_star),
                         repr(d.c_star), repr(d.chi1), repr(d.xi), d.phase])
    _write_csv(args.out, ["sw2", "sb2", "q_star", "c_star", "chi1", "xi", "phase"], rows)
    print(f"wrote {len(rows)} cells to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config(args)
    if cfg.noise != DEFAULT_NOISE:
        raise ValueError(f"model.noise is {cfg.noise!r}; a sweep scores every cell "
                         f"at noise {DEFAULT_NOISE!r}")
    ds = build_dataset(cfg)
    sweep = heatmap_sweep(ds, cfg.phi, cfg.depth, *variance_grid(args.cells), _table(cfg))
    rows = [[repr(float(sweep.sw2_grid[i])), repr(float(sweep.sb2_grid[j])),
             repr(float(sweep.cells[i, j]))]
            for i in range(sweep.sw2_grid.size) for j in range(sweep.sb2_grid.size)]
    _write_csv(args.out, ["sw2", "sb2", "accuracy"], rows)
    if sweep.failures:
        (i, j), reason = next(iter(sweep.failures.items()))
        print(f"{len(sweep.failures)} of {sweep.cells.size} cells failed; first at "
              f"sw2={sweep.sw2_grid[i]:.3f} sb2={sweep.sb2_grid[j]:.3f}: {reason}",
              file=sys.stderr)
    best = sweep.argmax()
    print(f"best cell sw2={best[0]:.3f} sb2={best[1]:.3f} accuracy={best[2]:.4f}")
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    # one blob at the origin: standard normal points, rescaled to ||x||^2 = d_in
    x, y = synthetic_blobs(args.points, 16, 1, 0.0, cfg.seed)
    pts = preprocess(x, y, 1, (args.points, 0, 0), cfg.seed, shuffle=False).inputs
    hp = cfg.hyperparams()
    k = build_kernel_matrix(pts, hp, _table(cfg))
    sample = sample_empirical_kernel(pts, hp, (args.width,) * hp.depth, args.networks,
                                     cfg.seed)
    dev = np.abs(sample.empirical_k - k.kdd)
    out = {
        "theoretical": k.kdd.tolist(),
        "empirical": sample.empirical_k.tolist(),
        "stderr": sample.stderr.tolist(),
        "max_abs_deviation": float(dev.max()),
        "max_deviation_in_stderr": float((dev / sample.stderr).max()),
        "skewness": sample.skewness.tolist(),
        "excess_kurtosis": sample.excess_kurtosis.tolist(),
        "width": args.width,
        "n_networks": args.networks,
        "seed": cfg.seed,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(f"max |empirical - K^L| = {out['max_abs_deviation']:.3e} "
          f"({out['max_deviation_in_stderr']:.2f} stderr); wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    report = run_experiment(_config(args))
    print(json.dumps({k: v for k, v in report.items() if k != "timings"},
                     indent=2, sort_keys=True))
    return 0


def _subcommand(sub, name: str, fn, help: str, reads: str) -> argparse.ArgumentParser:
    """The subparser of fn, with an optional --config and a description naming
    the config settings it reads."""
    p = sub.add_parser(name, help=help,
                       description=f"Reads {reads} from --config. No other setting is used.")
    p.add_argument("--config", help="JSON config as for nngp run; without it, "
                                    "RunConfig's defaults apply")
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nngp",
                                description="deep-network Gaussian-process toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    model = "model.phi, depth, sigma_w2 and sigma_b2"

    p_table = sub.add_parser("table", help="lookup-table management")
    table_sub = p_table.add_subparsers(dest="table_command", required=True)
    p_build = _subcommand(table_sub, "build", cmd_table_build,
                          "build (or load cached) lookup table", "model.phi and the grid")
    p_build.add_argument("--out", default=None, help="also save a copy here")

    p_kernel = _subcommand(sub, "kernel", cmd_kernel, "angular kernel profile to CSV",
                           f"{model} and the grid (unused with --analytic)")
    p_kernel.add_argument("--angles", type=_at_least(1), default=181)
    p_kernel.add_argument("--analytic", action="store_true",
                          help="use the closed-form step instead of the table")
    p_kernel.add_argument("--profile-out", required=True)

    p_reg = _subcommand(sub, "regress", cmd_regress, "exact GP regression on CSV data",
                        "the model section (noise too), the grid and dataset.d_out")
    p_reg.add_argument("--train", required=True)
    p_reg.add_argument("--test", required=True)
    p_reg.add_argument("--bin-size", type=_at_least(1), default=100)
    p_reg.add_argument("--pred-out", required=True)
    p_reg.add_argument("--calib-out", default=None)

    p_phase = _subcommand(sub, "phase", cmd_phase, "fixed-point diagnostics grid to CSV",
                          "model.phi and the grid (each cell sets sigma_w2 and sigma_b2)")
    p_phase.add_argument("--cells", type=_at_least(1), default=30, help=_CELLS_HELP)
    p_phase.add_argument("--out", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="accuracy heatmap over (sw2, sb2)",
        description="Validation accuracy on each (sw2, sb2) cell. The dataset, split, "
                    "n_train, seed, phi, depth and grid come from the config, with "
                    "the defaults of nngp run; the swept axes replace model.sigma_w2 "
                    "and model.sigma_b2, and the outputs section is not used.")
    p_sweep.add_argument("--config", required=True,
                         help="JSON config as for nngp run; its model.noise must be "
                              "the default")
    p_sweep.add_argument("--cells", type=_at_least(1), default=30, help=_CELLS_HELP)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = _subcommand(sub, "verify", cmd_verify, "finite-width Monte-Carlo check",
                           f"{model}, the grid and the seed")
    p_verify.add_argument("--width", type=int, required=True)
    p_verify.add_argument("--networks", type=_at_least(2), required=True,
                          help="at least 2, for the delete-one jackknife")
    p_verify.add_argument("--points", type=_at_least(1), default=5)
    p_verify.add_argument("--out", required=True)

    p_run = sub.add_parser("run", help="full experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(fn=cmd_run)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
