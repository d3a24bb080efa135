"""Dataset ingestion, constant-norm preprocessing and target encoding.

Loaders return raw (inputs, labels) pairs; ``preprocess`` rescales every
input row to a common squared norm (||x||^2 = d_in, which makes every
kernel diagonal identical per layer), encodes labels as zero-mean one-hot
regression targets (0.9 for the correct class, -0.1 elsewhere), and derives
a seeded train/validation/test split.

Rows are kept in their original order; the split lives in index arrays, so
preprocessing an already-preprocessed dataset with the same seed is an
exact no-op.
"""

from __future__ import annotations

import csv
import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_IDX_IMAGE_MAGIC = 2051
_IDX_LABEL_MAGIC = 2049


class DataFormatError(ValueError):
    """A dataset file does not match its declared format."""


@dataclass(frozen=True)
class Dataset:
    """Constant-norm inputs, encoded targets and a seeded split.

    ``inputs`` stays in original row order; ``indices`` holds the shuffled
    train/validation/test index arrays. ``split`` is their sizes.
    """

    inputs: np.ndarray
    targets: np.ndarray
    split: tuple[int, int, int]
    indices: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def train_inputs(self) -> np.ndarray:
        return self.inputs[self.indices[0]]

    @property
    def train_targets(self) -> np.ndarray:
        return self.targets[self.indices[0]]

    @property
    def valid_inputs(self) -> np.ndarray:
        return self.inputs[self.indices[1]]

    @property
    def valid_targets(self) -> np.ndarray:
        return self.targets[self.indices[1]]

    @property
    def test_inputs(self) -> np.ndarray:
        return self.inputs[self.indices[2]]

    @property
    def test_targets(self) -> np.ndarray:
        return self.targets[self.indices[2]]

    def subset(self, n_train: int) -> "Dataset":
        """Keep the first n_train points of the shuffled training split."""
        if not 0 <= n_train <= self.split[0]:
            raise ValueError(f"n_train = {n_train} outside [0, {self.split[0]}], the train split")
        tr, va, te = self.indices
        return Dataset(
            inputs=self.inputs, targets=self.targets,
            split=(n_train, self.split[1], self.split[2]), indices=(tr[:n_train], va, te),
        )


def _read_exact(raw: bytes, offset: int, count: int, path, what: str) -> bytes:
    if len(raw) < offset + count:
        raise DataFormatError(
            f"{path}: truncated {what}; needed {count} bytes at offset {offset}, "
            f"file has {len(raw)}"
        )
    return raw[offset:offset + count]


def _read_bytes(path) -> bytes:
    """File contents, transparently gunzipped (canonical IDX files ship .gz)."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse big-endian IDX image/label files into ([0,1] rows, int labels)."""
    raw = _read_bytes(images_path)
    magic, n, rows, cols = struct.unpack(">IIII", _read_exact(raw, 0, 16, images_path, "header"))
    if magic != _IDX_IMAGE_MAGIC:
        raise DataFormatError(
            f"{images_path}: bad magic {magic} at byte offset 0 (expected {_IDX_IMAGE_MAGIC})"
        )
    pixels = _read_exact(raw, 16, n * rows * cols, images_path, "pixel payload")
    images = np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows * cols)

    raw_l = _read_bytes(labels_path)
    magic_l, n_l = struct.unpack(">II", _read_exact(raw_l, 0, 8, labels_path, "header"))
    if magic_l != _IDX_LABEL_MAGIC:
        raise DataFormatError(
            f"{labels_path}: bad magic {magic_l} at byte offset 0 (expected {_IDX_LABEL_MAGIC})"
        )
    labels = np.frombuffer(_read_exact(raw_l, 8, n_l, labels_path, "label payload"),
                           dtype=np.uint8)
    if n_l != n:
        raise DataFormatError(f"{labels_path}: {n_l} labels for {n} images")
    if labels.size and labels.max() > 9:
        bad = int(np.flatnonzero(labels > 9)[0])
        raise DataFormatError(
            f"{labels_path}: label {labels[bad]} at record {bad} (labels must be < 10)"
        )
    return images.astype(np.float64) / 255.0, labels.astype(np.int64)


def load_cifar10_binary(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a CIFAR-10 binary batch (1 label byte + 3072 pixel bytes/record)."""
    raw = Path(path).read_bytes()
    record = 3073
    if len(raw) % record:
        raise DataFormatError(
            f"{path}: size {len(raw)} is not a multiple of the {record}-byte record"
        )
    n = len(raw) // record
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(n, record) if n else \
        np.empty((0, record), dtype=np.uint8)
    labels = arr[:, 0].astype(np.int64)
    if labels.size and labels.max() > 9:
        bad = int(np.flatnonzero(labels > 9)[0])
        raise DataFormatError(f"{path}: label {labels[bad]} at record {bad}")
    return arr[:, 1:].astype(np.float64) / 255.0, labels


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a headered CSV with a 'label' column; empty file -> empty dataset."""
    text = Path(path).read_text()
    if not text.strip():
        return np.empty((0, 0)), np.empty(0, dtype=np.int64)
    rows = list(csv.reader(text.splitlines()))
    header = [h.strip() for h in rows[0]]
    if "label" not in header:
        raise DataFormatError(f"{path}: no 'label' column in header {header}")
    label_col = header.index("label")
    feature_cols = [i for i in range(len(header)) if i != label_col]
    n = len(rows) - 1
    inputs = np.empty((n, len(feature_cols)))
    labels = np.empty(n, dtype=np.int64)
    for r, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {r + 1} has {len(row)} cells, header has {len(header)}"
            )
        for k, i in enumerate(feature_cols):
            try:
                inputs[r, k] = float(row[i])
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-numeric cell at row {r + 1}, column '{header[i]}'"
                ) from None
        try:
            labels[r] = int(float(row[label_col]))
        except ValueError:
            raise DataFormatError(
                f"{path}: non-numeric cell at row {r + 1}, column 'label'"
            ) from None
    return inputs, labels


def preprocess(inputs: np.ndarray, labels: np.ndarray, d_out: int,
               split_sizes: tuple[int, int, int], seed: int,
               shuffle: bool = True) -> Dataset:
    """Rescale rows to ||x||^2 = d_in, encode targets and split by seed.

    Subset-size experiments should call :meth:`Dataset.subset` afterwards;
    it keeps the first n_train points of the shuffled training split.
    shuffle=False keeps consecutive splits (for pre-split train/test files).
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"need (n, d) inputs and (n,) labels, got {x.shape}, {y.shape}")
    n, d_in = x.shape
    if min(split_sizes) < 0 or sum(split_sizes) > n:
        raise ValueError(f"split sizes {split_sizes} must be non-negative and sum to <= {n} rows")
    if y.size and (y.min() < 0 or y.max() >= d_out):
        bad = int(np.flatnonzero((y < 0) | (y >= d_out))[0])
        raise ValueError(f"label {y[bad]} at row {bad} outside [0, {d_out})")

    sq = np.einsum("ij,ij->i", x, x)
    zero = sq == 0.0
    if np.any(zero):
        raise ValueError(f"zero-norm input at row {int(np.flatnonzero(zero)[0])}")
    factor = np.sqrt(d_in / sq)
    # rows already at the target norm stay bit-identical (idempotence)
    factor[np.abs(sq - d_in) <= 64 * np.finfo(float).eps * d_in] = 1.0
    x = x * factor[:, None]

    targets = np.full((n, d_out), -0.1)
    targets[np.arange(n), y] = 0.9

    perm = np.random.default_rng(seed).permutation(n) if shuffle else np.arange(n)
    a, b, c = split_sizes
    indices = (perm[:a], perm[a:a + b], perm[a + b:a + b + c])
    return Dataset(inputs=x, targets=targets, split=(a, b, c), indices=indices)


def synthetic_blobs(n: int, d_in: int, n_classes: int, separation: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced Gaussian-blob classification data for demos and tests."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, d_in)) * separation
    labels = np.arange(n) % n_classes
    rng.shuffle(labels)
    inputs = means[labels] + rng.standard_normal((n, d_in))
    return inputs, labels.astype(np.int64)
