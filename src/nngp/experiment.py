"""End-to-end experiment runner: data -> table -> kernel -> posterior -> report.

A RunConfig (JSON) names the dataset, the network hyperparameters, the
lookup-table grid and the output paths. The report carries the metrics, the
noise actually used after any escalation, and per-stage wall times; apart
from the "timings" key the report and the prediction CSV are byte-identical
across runs of the same config.
"""

from __future__ import annotations

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
# a config file's sections: JSON key -> RunConfig field. A dataset key with
# the suffix of one of _FILE_KEYS names a data file
_CONFIG_SECTIONS = {
    "dataset": {"format": "dataset_format", "d_out": "d_out", "split": "split",
                "n_train": "n_train", "seed": "seed", "synthetic": "synthetic"},
    "model": {key: key for key in ("depth", "sigma_w2", "sigma_b2", "phi", "noise")},
    "outputs": {"report": "report_path", "predictions": "predictions_path"},
}
_FILE_KEYS = ("*images", "*labels", "*path", "*paths")


def _refuse_unknown(*sections) -> None:
    """Raise ValueError naming the unknown keys of every (name, keys, known) section."""
    problems = [f"unknown {name} keys {', '.join(sorted(set(keys) - set(known)))}; "
                f"known keys: {', '.join(known)}"
                for name, keys, known in sections if set(keys) - set(known)]
    if problems:
        raise ValueError("\n".join(problems))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def _json_object(value, name: str) -> dict:
    """value if it is a JSON object; else ValueError naming it."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, not {json.dumps(value)[:40]}")
    return value


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

    dataset_format: str = "csv"            # mnist | cifar10 | csv | synthetic
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
        """The config in a JSON file; a key left out takes the field's default.
        A config or section that is not a JSON object, or an unknown key in any
        section, raises ValueError naming it."""
        cfg = _json_object(json.loads(Path(path).read_text()), f"the config {path}")
        sections = {name: dict(_json_object(cfg.get(name, {}), name))
                    for name in _CONFIG_SECTIONS}
        _json_object(cfg.get("grid", {}), "grid")
        ds = sections["dataset"]
        _json_object(ds.get("synthetic", {}), "dataset.synthetic")
        paths = {k: ds.pop(k) for k in list(ds) if k.endswith(tuple(f[1:] for f in _FILE_KEYS))}
        _refuse_unknown(("top-level", cfg, (*_CONFIG_SECTIONS, "grid", "seed")),
                        ("dataset", ds, (*_CONFIG_SECTIONS["dataset"], *_FILE_KEYS)),
                        *((name, sections[name], _CONFIG_SECTIONS[name])
                          for name in ("model", "outputs")))
        fields = {_CONFIG_SECTIONS[name][k]: v
                  for name, values in sections.items() for k, v in values.items()}
        # a top-level seed overrides the dataset's
        fields.update((k, cfg[k]) for k in ("grid", "seed") if k in cfg)
        if isinstance(fields.get("split"), list):
            fields["split"] = tuple(fields["split"])
        return cls(dataset_paths=paths, **fields)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError naming the first field of a wrong type or value.
        Data files are checked by :func:`build_dataset`, which reads them: a
        subcommand that reads no data runs on a config whose files are absent."""
        if self.dataset_format not in ("mnist", "cifar10", "csv", "synthetic"):
            raise ValueError(f"unknown dataset format {self.dataset_format!r}")
        _refuse_unknown(("grid", self.grid, tuple(inspect.signature(build_grid).parameters)),
                        ("synthetic", self.synthetic, _SYNTHETIC_KEYS))
        split = self.split
        checks = [
            ("dataset.d_out", self.d_out, _is_int(self.d_out), "an integer"),
            ("dataset.d_out", self.d_out, not _is_int(self.d_out) or self.d_out >= 1,
             "at least 1"),
            ("dataset.split", split, split is None or (
                isinstance(split, (tuple, list)) and len(split) == 3
                and all(map(_is_int, split))), "a list of three integers"),
            ("dataset.n_train", self.n_train, self.n_train is None or _is_int(self.n_train),
             "an integer"),
            ("seed", self.seed, _is_int(self.seed), "an integer"),
        ]
        checks += [(f"dataset.{key}", value, isinstance(value, (str, os.PathLike)) or (
                        isinstance(value, list)
                        and all(isinstance(v, (str, os.PathLike)) for v in value)),
                    "a path or a list of paths")
                   for key, value in self.dataset_paths.items()]
        checks += [(f"dataset.synthetic.{key}", value,
                    _is_number(value) if key == "separation" else _is_int(value),
                    "a number" if key == "separation" else "an integer")
                   for key, value in self.synthetic.items()]
        for name, value, ok, kind in checks:
            if not ok:
                raise ValueError(f"{name} must be {kind}, not {value!r}")
        self.hyperparams()  # built for their own checks, before any data is read
        build_grid(**self.grid)

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
    """The configured dataset, preprocessed and split. Every data file the
    config names is checked first, so a missing one raises FileNotFoundError
    naming its key before any file is read."""
    for key, value in config.dataset_paths.items():
        for p in value if isinstance(value, list) else [value]:
            if not Path(p).exists():
                raise FileNotFoundError(f"dataset.{key}: {p} does not exist")
    x, y, default_split = load_raw(config)
    split = config.split or default_split
    ds = preprocess(x, y, config.d_out, split, config.seed)
    if config.n_train is not None:
        ds = ds.subset(config.n_train)
    return ds


def _write_predictions(path, pred, point_ids) -> None:
    """One CSV row per test point: its id, the mean per class and the variance.

    The bytes are those of ``csv.writer``: comma-joined fields and CRLF
    line ends, each value by repr (no float repr needs quoting). The values
    leave numpy once, by ``tolist``, instead of one float at a time.
    """
    d_out = pred.mean.shape[1]
    lines = [",".join(["point_id", *(f"mean_{j}" for j in range(d_out)), "variance"])]
    values = np.column_stack([pred.mean, pred.variance]).tolist()
    lines += [",".join([str(int(pid)), *map(repr, row)]) for pid, row in zip(point_ids, values)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


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
