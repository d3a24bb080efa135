import gzip
import struct

import numpy as np
import pytest

from nngp import (
    DataFormatError,
    load_cifar10_binary,
    load_csv,
    load_mnist_idx,
    preprocess,
    synthetic_blobs,
)


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    ip.write_bytes(struct.pack(">IIII", 2051, n, rows, cols) + images.tobytes())
    lp.write_bytes(struct.pack(">II", 2049, len(labels)) + bytes(labels))
    return ip, lp


# ---------------------------------------------------------------------------
# IDX loader
# ---------------------------------------------------------------------------

def test_idx_well_formed_file():
    pass  # covered by the parametrized round trip below


@pytest.mark.parametrize("gz", [False, True])
def test_idx_round_trip(tmp_path, gz):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = list(rng.integers(0, 10, size=10))
    ip, lp = write_idx_pair(tmp_path, images, labels)
    if gz:
        for p in (ip, lp):
            p.write_bytes(gzip.compress(p.read_bytes()))
    x, y = load_mnist_idx(ip, lp)
    assert x.shape == (10, 784)
    assert x.min() >= 0.0 and x.max() <= 1.0
    np.testing.assert_array_equal(y, labels)
    np.testing.assert_allclose(x[0], images[0].ravel() / 255.0)


def test_idx_bad_magic(tmp_path):
    ip = tmp_path / "img"
    ip.write_bytes(struct.pack(">IIII", 2052, 1, 2, 2) + b"\0" * 4)
    lp = tmp_path / "lab"
    lp.write_bytes(struct.pack(">II", 2049, 1) + b"\0")
    with pytest.raises(DataFormatError, match="magic"):
        load_mnist_idx(ip, lp)


def test_idx_labels_bad_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    lp.write_bytes(struct.pack(">II", 2050, 1) + b"\0")
    with pytest.raises(DataFormatError, match=r"bad magic 2050 at byte offset 0 "
                                              r"\(expected 2049\)"):
        load_mnist_idx(ip, lp)


def test_idx_truncated_payload(tmp_path):
    ip = tmp_path / "img"
    ip.write_bytes(struct.pack(">IIII", 2051, 2, 28, 28) + b"\0" * 100)
    lp = tmp_path / "lab"
    lp.write_bytes(struct.pack(">II", 2049, 2) + b"\0\0")
    with pytest.raises(DataFormatError, match="offset"):
        load_mnist_idx(ip, lp)


def test_idx_label_out_of_range(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(3, 4, 4), dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, [1, 10, 3])
    with pytest.raises(DataFormatError, match="label 10"):
        load_mnist_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(3, 4, 4), dtype=np.uint8)
    ip, _ = write_idx_pair(tmp_path, images, [0, 1, 2])
    lp = tmp_path / "short-labels"
    lp.write_bytes(struct.pack(">II", 2049, 2) + bytes([0, 1]))
    with pytest.raises(DataFormatError, match="labels"):
        load_mnist_idx(ip, lp)


# ---------------------------------------------------------------------------
# CIFAR loader
# ---------------------------------------------------------------------------

def test_cifar_single_record(tmp_path):
    record = bytes([7]) + bytes(range(256)) * 12
    p = tmp_path / "batch.bin"
    p.write_bytes(record)
    x, y = load_cifar10_binary(p)
    assert x.shape == (1, 3072)
    assert y.tolist() == [7]
    assert x.max() <= 1.0


def test_cifar_record_size_mismatch(tmp_path):
    p = tmp_path / "batch.bin"
    p.write_bytes(b"\0" * 3072)  # one byte short of a record
    with pytest.raises(DataFormatError, match="record"):
        load_cifar10_binary(p)


def test_cifar_label_above_nine(tmp_path):
    p = tmp_path / "batch.bin"
    p.write_bytes(bytes([3]) + bytes(3072) + bytes([12]) + bytes(3072))
    with pytest.raises(DataFormatError, match="label 12 at record 1"):
        load_cifar10_binary(p)


def test_cifar_empty_file_is_empty_dataset(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    x, y = load_cifar10_binary(p)
    assert x.shape[0] == 0 and y.size == 0


# ---------------------------------------------------------------------------
# CSV loader
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,f1,label\n0.5,-1.25,3\n1.0,2.0,0\n")
    x, y = load_csv(p)
    np.testing.assert_allclose(x, [[0.5, -1.25], [1.0, 2.0]])
    assert y.tolist() == [3, 0]


def test_csv_non_numeric_cell_names_row_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,label\n1.0,2\nodd,1\n")
    with pytest.raises(DataFormatError, match="row 2, column 'f0'"):
        load_csv(p)


@pytest.mark.parametrize("text,message", [
    ("f0,label\n1.0,2\n3.0\n", "row 2 has 1 cells, header has 2"),
    ("f0,label\n1.0,two\n", "non-numeric cell at row 1, column 'label'"),
])
def test_csv_malformed_row_names_it(tmp_path, text, message):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(DataFormatError, match=message):
        load_csv(p)


def test_csv_empty_file_is_empty_dataset(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    x, y = load_csv(p)
    assert x.shape[0] == 0 and y.size == 0


def test_csv_missing_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataFormatError, match="label"):
        load_csv(p)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_preprocess_rescales_rows_to_input_dimension():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 12)) * rng.uniform(0.1, 10, size=(30, 1))
    y = rng.integers(0, 4, size=30)
    ds = preprocess(x, y, d_out=4, split_sizes=(20, 5, 5), seed=0)
    np.testing.assert_allclose(np.einsum("ij,ij->i", ds.inputs, ds.inputs), 12.0,
                               rtol=1e-9)


def test_preprocess_target_encoding():
    x = np.ones((3, 5))
    ds = preprocess(x, np.array([2, 0, 1]), d_out=4, split_sizes=(3, 0, 0), seed=0)
    for row, label in zip(ds.targets, [2, 0, 1]):
        assert row[label] == 0.9
        assert np.sum(row == -0.1) == 3
        assert np.sum(row == 0.9) == 1


def test_preprocess_split_sizes_and_disjointness():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((100, 6))
    y = rng.integers(0, 10, size=100)
    ds = preprocess(x, y, d_out=10, split_sizes=(60, 25, 15), seed=5)
    tr, va, te = ds.indices
    assert (len(tr), len(va), len(te)) == (60, 25, 15)
    assert not (set(tr) & set(va) or set(tr) & set(te) or set(va) & set(te))
    assert ds.train_inputs.shape == (60, 6)


def test_preprocess_idempotent():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 8)) * 3.0
    y = rng.integers(0, 10, size=40)
    d1 = preprocess(x, y, d_out=10, split_sizes=(20, 10, 10), seed=9)
    d2 = preprocess(d1.inputs, y, d_out=10, split_sizes=(20, 10, 10), seed=9)
    np.testing.assert_array_equal(d1.inputs, d2.inputs)
    np.testing.assert_array_equal(d1.targets, d2.targets)
    for a, b in zip(d1.indices, d2.indices):
        np.testing.assert_array_equal(a, b)


def test_preprocess_deterministic_in_seed():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 8))
    y = rng.integers(0, 10, size=40)
    d1 = preprocess(x, y, d_out=10, split_sizes=(30, 5, 5), seed=1)
    d2 = preprocess(x, y, d_out=10, split_sizes=(30, 5, 5), seed=1)
    d3 = preprocess(x, y, d_out=10, split_sizes=(30, 5, 5), seed=2)
    np.testing.assert_array_equal(d1.indices[0], d2.indices[0])
    assert not np.array_equal(d1.indices[0], d3.indices[0])


def test_preprocess_rejects_zero_norm_row():
    x = np.ones((3, 4))
    x[1] = 0.0
    with pytest.raises(ValueError, match="row 1"):
        preprocess(x, np.array([0, 1, 2]), d_out=3, split_sizes=(3, 0, 0), seed=0)


def test_preprocess_rejects_oversized_split():
    x = np.ones((3, 4))
    with pytest.raises(ValueError, match="split"):
        preprocess(x, np.zeros(3, dtype=int), d_out=2, split_sizes=(3, 1, 0), seed=0)


def test_preprocess_rejects_negative_split_size():
    # a negative size would shift the later splits' slices (here to empty)
    x = np.ones((200, 4))
    with pytest.raises(ValueError, match=r"split sizes \(-20, 0, 50\) must be non-negative"):
        preprocess(x, np.zeros(200, dtype=int), d_out=2, split_sizes=(-20, 0, 50), seed=0)


def test_preprocess_rejects_out_of_range_label():
    x = np.ones((3, 4))
    with pytest.raises(ValueError, match="label"):
        preprocess(x, np.array([0, 5, 1]), d_out=3, split_sizes=(3, 0, 0), seed=0)


def test_preprocess_rejects_labels_not_matching_the_inputs():
    with pytest.raises(ValueError, match=r"need \(n, d\) inputs and \(n,\) labels, "
                                         r"got \(3, 4\), \(2,\)"):
        preprocess(np.ones((3, 4)), np.array([0, 1]), d_out=2, split_sizes=(2, 0, 0), seed=0)


def test_subset_takes_first_training_points():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 4))
    y = rng.integers(0, 3, size=50)
    ds = preprocess(x, y, d_out=3, split_sizes=(30, 10, 10), seed=2)
    sub = ds.subset(12)
    assert sub.split == (12, 10, 10)
    np.testing.assert_array_equal(sub.indices[0], ds.indices[0][:12])
    np.testing.assert_array_equal(sub.indices[2], ds.indices[2])
    with pytest.raises(ValueError, match="n_train"):
        ds.subset(31)


def test_subset_rejects_negative_n_train():
    # tr[:-1] would silently drop one point from the end
    x = np.random.default_rng(8).standard_normal((50, 4))
    ds = preprocess(x, np.zeros(50, dtype=int), d_out=3, split_sizes=(30, 10, 10), seed=2)
    with pytest.raises(ValueError, match=r"n_train = -1 outside \[0, 30\]"):
        ds.subset(-1)


def test_synthetic_blobs_balanced():
    x, y = synthetic_blobs(n=200, d_in=6, n_classes=10, separation=1.0, seed=0)
    assert x.shape == (200, 6)
    counts = np.bincount(y, minlength=10)
    assert counts.min() == counts.max() == 20
