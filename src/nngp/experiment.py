"""End-to-end experiment runner: data -> table -> kernel -> posterior -> report.

A RunConfig (JSON) names the dataset, the network hyperparameters, the
lookup-table grid and the output paths. The report carries the metrics, the
noise actually used after any escalation, and per-stage wall times; apart
from the "timings" key the report and the prediction CSV are byte-identical
across runs of the same config.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as data_mod
from .data import Dataset, preprocess
from .kernel import DEFAULT_NOISE, NetworkHyperparams, build_kernel_matrix
from .lookup import build_grid, load_or_build
from .regression import evaluate, posterior

REPORT_SCHEMA_VERSION = 1

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
MNIST_SPLIT = (50_000, 10_000, 10_000)
CIFAR_SPLIT = (45_000, 5_000, 10_000)
# the keys load_raw reads from a synthetic dataset section
_SYNTHETIC_KEYS = ("n", "d_in", "separation", "seed", "n_test", "n_valid")


def find_mnist(data_dir=None) -> dict | None:
    """Locate the four IDX files under data_dir or $NNGP_DATA_DIR."""
    base = data_dir or os.environ.get("NNGP_DATA_DIR")
    if not base:
        return None
    base = Path(base)
    found = {}
    for key, stem in MNIST_FILES.items():
        for candidate in (base / stem, base / (stem + ".gz")):
            if candidate.exists():
                found[key] = str(candidate)
                break
        else:
            return None
    return found


@dataclass
class RunConfig:
    """Everything one experiment needs, loadable from JSON; validated on construction."""

    dataset_format: str                    # mnist | cifar10 | csv | synthetic
    dataset_paths: dict = field(default_factory=dict)
    d_out: int = 10
    split: tuple[int, int, int] | None = None
    n_train: int | None = None
    seed: int = 0
    depth: int = 1
    sigma_w2: float = 1.0
    sigma_b2: float = 0.0
    phi: str = "relu"
    noise: float = DEFAULT_NOISE
    grid: dict = field(default_factory=dict)
    report_path: str | None = None
    predictions_path: str | None = None
    synthetic: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        cfg = json.loads(Path(path).read_text())
        ds = cfg.get("dataset", {})
        model = cfg.get("model", {})
        out = cfg.get("outputs", {})
        return cls(
            dataset_format=ds.get("format", "csv"),
            dataset_paths={k: v for k, v in ds.items()
                           if k.endswith(("images", "labels", "path", "paths"))},
            d_out=ds.get("d_out", 10),
            split=tuple(ds["split"]) if "split" in ds else None,
            n_train=ds.get("n_train"),
            seed=cfg.get("seed", ds.get("seed", 0)),
            depth=model.get("depth", 1),
            sigma_w2=model.get("sigma_w2", 1.0),
            sigma_b2=model.get("sigma_b2", 0.0),
            phi=model.get("phi", "relu"),
            noise=model.get("noise", DEFAULT_NOISE),
            grid=cfg.get("grid", {}),
            report_path=out.get("report"),
            predictions_path=out.get("predictions"),
            synthetic=ds.get("synthetic", {}),
        )

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.dataset_format not in ("mnist", "cifar10", "csv", "synthetic"):
            raise ValueError(f"unknown dataset format {self.dataset_format!r}")
        for section, keys, known in (
                ("grid", self.grid, tuple(inspect.signature(build_grid).parameters)),
                ("synthetic", self.synthetic, _SYNTHETIC_KEYS)):
            unknown = sorted(set(keys) - set(known))
            if unknown:
                raise ValueError(f"unknown {section} keys {', '.join(unknown)}; "
                                 f"known keys: {', '.join(known)}")
        self.hyperparams()  # built for their own checks, before any data is read
        build_grid(**self.grid)
        for key, value in self.dataset_paths.items():
            paths = value if isinstance(value, list) else [value]
            for p in paths:
                if not Path(p).exists():
                    raise FileNotFoundError(f"dataset.{key}: {p} does not exist")

    def hyperparams(self) -> NetworkHyperparams:
        return NetworkHyperparams(depth=self.depth, sigma_w2=self.sigma_w2,
                                  sigma_b2=self.sigma_b2, phi=self.phi,
                                  noise=self.noise)


def load_raw(config: RunConfig) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Raw (inputs, labels, default split) for the configured dataset.

    mnist / cifar10 pool the canonical train and test archives and rely on
    the seeded split (50k/10k/10k and 45k/5k/10k by default).
    """
    fmt = config.dataset_format
    if fmt == "mnist":
        p = config.dataset_paths
        x1, y1 = data_mod.load_mnist_idx(p["train_images"], p["train_labels"])
        x2, y2 = data_mod.load_mnist_idx(p["test_images"], p["test_labels"])
        return np.vstack([x1, x2]), np.concatenate([y1, y2]), MNIST_SPLIT
    if fmt == "cifar10":
        paths = config.dataset_paths.get("paths") or [config.dataset_paths["path"]]
        parts = [data_mod.load_cifar10_binary(p) for p in paths]
        return (np.vstack([x for x, _ in parts]),
                np.concatenate([y for _, y in parts]), CIFAR_SPLIT)
    if fmt == "csv":
        x, y = data_mod.load_csv(config.dataset_paths["path"])
        n = x.shape[0]
        n_test = max(n // 5, 1) if n else 0
        return x, y, (n - n_test, 0, n_test)
    syn = config.synthetic
    x, y = data_mod.synthetic_blobs(
        n=syn.get("n", 1200), d_in=syn.get("d_in", 20),
        n_classes=config.d_out, separation=syn.get("separation", 1.0),
        seed=syn.get("seed", config.seed),
    )
    n = x.shape[0]
    n_test = syn.get("n_test", n // 4)
    n_valid = syn.get("n_valid", 0)
    return x, y, (n - n_test - n_valid, n_valid, n_test)


def build_dataset(config: RunConfig) -> Dataset:
    x, y, default_split = load_raw(config)
    split = config.split or default_split
    ds = preprocess(x, y, config.d_out, split, config.seed)
    if config.n_train is not None:
        ds = ds.subset(config.n_train)
    return ds


def _write_predictions(path, pred, point_ids) -> None:
    d_out = pred.mean.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["point_id"] + [f"mean_{j}" for j in range(d_out)] + ["variance"])
        for i, pid in enumerate(point_ids):
            w.writerow([int(pid)] + [repr(float(v)) for v in pred.mean[i]]
                       + [repr(float(pred.variance[i]))])


def run_experiment(config: RunConfig) -> dict:
    """Orchestrate table load/build, kernel, posterior and metrics.

    An empty test split raises ValueError before the table or the kernel.
    Returns the report dict; writes the JSON report and prediction CSV when
    paths are configured.
    """
    timings = {}

    t0 = time.perf_counter()
    dataset = build_dataset(config)
    timings["load_preprocess"] = time.perf_counter() - t0
    if dataset.test_inputs.shape[0] == 0:
        raise ValueError("the test split is empty: a run measures accuracy on it")

    grid = build_grid(**config.grid)
    t0 = time.perf_counter()
    table = load_or_build(config.phi, grid)
    timings["table"] = time.perf_counter() - t0

    hp = config.hyperparams()
    t0 = time.perf_counter()
    k = build_kernel_matrix(dataset.train_inputs, hp, table, dataset.test_inputs)
    timings["kernel"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pred = posterior(k, dataset.train_targets, hp)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    metrics = evaluate(pred, dataset.test_targets)
    timings["evaluate"] = time.perf_counter() - t0

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "accuracy": metrics["accuracy"],
        "mse": metrics["mse"],
        "noise_used": pred.noise_used,
        "n_train": int(dataset.split[0]),
        "n_valid": int(dataset.split[1]),
        "n_test": int(dataset.split[2]),
        "model": {"depth": hp.depth, "sigma_w2": hp.sigma_w2,
                  "sigma_b2": hp.sigma_b2, "phi": hp.phi, "noise": hp.noise},
        "seed": config.seed,
        "timings": timings,
    }
    if config.report_path:
        Path(config.report_path).write_text(json.dumps(report, indent=2, sort_keys=True))
    if config.predictions_path:
        _write_predictions(config.predictions_path, pred, dataset.indices[2])
    return report
