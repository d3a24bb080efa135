import gzip
import json
import struct

import numpy as np
import pytest

from nngp import RunConfig, find_mnist, run_experiment, synthetic_blobs
from nngp.experiment import build_dataset


def synthetic_config(tmp_path, **overrides):
    cfg = RunConfig(
        dataset_format="synthetic",
        d_out=10,
        seed=4,
        depth=2,
        sigma_w2=1.4,
        sigma_b2=0.2,
        phi="tanh",
        noise=1e-10,
        grid={"n_g": 201, "n_v": 81, "n_c": 100, "s_max": 16.0, "u_max": 16.0},
        report_path=str(tmp_path / "report.json"),
        predictions_path=str(tmp_path / "pred.csv"),
        synthetic={"n": 400, "d_in": 16, "separation": 1.4, "n_test": 100,
                   "n_valid": 50, "seed": 21},
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def test_run_experiment_end_to_end(tmp_path):
    cfg = synthetic_config(tmp_path)
    report = run_experiment(cfg)
    assert report["schema_version"] == 1
    assert report["n_train"] == 250 and report["n_test"] == 100
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["accuracy"] > 0.5  # separable blobs
    assert set(report["timings"]) == {"load_preprocess", "table", "kernel",
                                      "solve", "evaluate"}
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["accuracy"] == report["accuracy"]

    lines = (tmp_path / "pred.csv").read_text().splitlines()
    assert lines[0] == ("point_id," + ",".join(f"mean_{j}" for j in range(10))
                        + ",variance")
    assert len(lines) == 1 + 100
    # '.' decimals, ',' separators
    assert "." in lines[1] and ";" not in lines[1]


def test_run_experiment_deterministic_apart_from_timings(tmp_path):
    r1 = run_experiment(synthetic_config(tmp_path))
    csv1 = (tmp_path / "pred.csv").read_bytes()
    r2 = run_experiment(synthetic_config(tmp_path))
    csv2 = (tmp_path / "pred.csv").read_bytes()
    r1.pop("timings")
    r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert csv1 == csv2


def test_run_experiment_interpolates_training_points(tmp_path):
    # test split drawn from the same two points as training: accuracy 1
    cfg = synthetic_config(
        tmp_path,
        synthetic={"n": 40, "d_in": 16, "separation": 3.0, "n_test": 20,
                   "n_valid": 0, "seed": 22},
        d_out=2,
        depth=1,
    )
    report = run_experiment(cfg)
    assert report["accuracy"] >= 0.9


def test_subset_selection(tmp_path):
    cfg = synthetic_config(tmp_path, n_train=50)
    ds = build_dataset(cfg)
    assert ds.split[0] == 50


def test_run_experiment_on_csv_file(tmp_path):
    x, y = synthetic_blobs(n=30, d_in=6, n_classes=3, separation=3.0, seed=5)
    path = tmp_path / "data.csv"
    lines = ["label," + ",".join(f"x{j}" for j in range(6))]
    lines += [f"{label}," + ",".join(repr(float(v)) for v in row) for label, row in zip(y, x)]
    path.write_text("\n".join(lines) + "\n")
    cfg = synthetic_config(tmp_path, dataset_format="csv", dataset_paths={"path": str(path)},
                           d_out=3)
    cfg.validate()
    report = run_experiment(cfg)
    # the default split holds out n // 5 points for testing
    assert (report["n_train"], report["n_valid"], report["n_test"]) == (24, 0, 6)
    assert report["accuracy"] == 1.0
    assert len((tmp_path / "pred.csv").read_text().splitlines()) == 1 + 6


def image_classes(n, d, seed):
    """n uint8 images of two classes, each a fixed pattern plus noise."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 2)
    patterns = rng.integers(0, 256, size=(2, d))
    noise = rng.integers(0, 64, size=(n, d))
    return (patterns[labels] * 3 // 4 + noise).astype(np.uint8), labels.astype(np.uint8)


def test_run_experiment_on_cifar_batches(tmp_path):
    images, labels = image_classes(12, 3072, seed=6)
    records = np.column_stack([labels, images])
    paths = [tmp_path / "data_batch_1.bin", tmp_path / "data_batch_2.bin"]
    paths[0].write_bytes(records[:7].tobytes())
    paths[1].write_bytes(records[7:].tobytes())
    cfg = synthetic_config(tmp_path, dataset_format="cifar10", dataset_paths={"paths": paths},
                           d_out=2, split=(8, 0, 4))
    cfg.validate()
    np.testing.assert_array_equal(build_dataset(cfg).targets.argmax(axis=1), labels)
    report = run_experiment(cfg)
    assert (report["n_train"], report["n_valid"], report["n_test"]) == (8, 0, 4)
    assert report["accuracy"] == 1.0


def test_run_experiment_on_mnist_idx_files(tmp_path):
    images, labels = image_classes(40, 28 * 28, seed=7)
    for stem, part in (("train", slice(0, 30)), ("t10k", slice(30, 40))):
        n = labels[part].size
        (tmp_path / f"{stem}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 2051, n, 28, 28) + images[part].tobytes())
        (tmp_path / f"{stem}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 2049, n) + labels[part].tobytes())
    # the training images gzipped, as the canonical archives ship
    plain = tmp_path / "train-images-idx3-ubyte"
    (tmp_path / "train-images-idx3-ubyte.gz").write_bytes(gzip.compress(plain.read_bytes()))
    plain.unlink()
    paths = find_mnist(tmp_path)
    assert paths["train_images"].endswith(".gz")
    cfg = synthetic_config(tmp_path, dataset_format="mnist", dataset_paths=paths, d_out=2,
                           split=(24, 6, 10))
    cfg.validate()
    # the train archive first, then the test archive, in file order
    np.testing.assert_array_equal(build_dataset(cfg).targets.argmax(axis=1), labels)
    report = run_experiment(cfg)
    assert (report["n_train"], report["n_valid"], report["n_test"]) == (24, 6, 10)
    assert report["accuracy"] == 1.0


def test_duplicated_test_points_are_interpolated(small_tanh_table):
    # test set identical to the training set, near-zero noise: the posterior
    # reproduces the targets exactly (and the cross block reads the table's
    # end node c = 1, the diagonal f1d)
    from nngp import (NetworkHyperparams, build_kernel_matrix, evaluate,
                      posterior, preprocess, synthetic_blobs)

    x, y = synthetic_blobs(n=2, d_in=8, n_classes=2, separation=2.0, seed=30)
    ds = preprocess(np.vstack([x, x]), np.concatenate([y, y]), d_out=2,
                    split_sizes=(2, 0, 2), seed=0, shuffle=False)
    hp = NetworkHyperparams(depth=2, sigma_w2=1.2, sigma_b2=0.2, phi="tanh",
                            noise=1e-12)
    k = build_kernel_matrix(ds.train_inputs, hp, small_tanh_table, ds.test_inputs)
    pred = posterior(k, ds.train_targets, hp)
    m = evaluate(pred, ds.test_targets)
    assert m["accuracy"] == 1.0
    np.testing.assert_allclose(pred.mean, ds.test_targets, atol=1e-4)
    np.testing.assert_allclose(pred.variance, 0.0, atol=1e-6)


def test_config_json_round_trip(tmp_path):
    payload = {
        "dataset": {"format": "synthetic", "d_out": 10,
                    "synthetic": {"n": 100, "d_in": 8, "n_test": 20}},
        "model": {"depth": 3, "sigma_w2": 1.1, "sigma_b2": 0.3, "phi": "relu",
                  "noise": 1e-8},
        "seed": 5,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    cfg = RunConfig.from_json(p)
    assert cfg.depth == 3 and cfg.phi == "relu" and cfg.seed == 5
    assert cfg.noise == 1e-8


def test_config_split_from_json_is_a_tuple(tmp_path):
    payload = {"dataset": {"format": "synthetic", "d_out": 4, "split": [50, 20, 30],
                           "synthetic": {"n": 120, "d_in": 8}}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    cfg = RunConfig.from_json(p)
    assert cfg.split == (50, 20, 30)
    assert build_dataset(cfg).split == (50, 20, 30)


def test_find_mnist_needs_all_four_files(tmp_path, monkeypatch):
    from nngp.experiment import MNIST_FILES

    monkeypatch.delenv("NNGP_DATA_DIR", raising=False)
    assert find_mnist() is None
    stems = list(MNIST_FILES.values())
    for stem in stems[:2]:
        (tmp_path / stem).write_bytes(b"")
    (tmp_path / (stems[2] + ".gz")).write_bytes(b"")
    assert find_mnist(tmp_path) is None
    (tmp_path / stems[3]).write_bytes(b"")
    monkeypatch.setenv("NNGP_DATA_DIR", str(tmp_path))
    assert find_mnist() == {key: str(tmp_path / (stem + ".gz" if i == 2 else stem))
                            for i, (key, stem) in enumerate(MNIST_FILES.items())}


def test_config_missing_file_rejected(tmp_path):
    payload = {"dataset": {"format": "csv", "path": str(tmp_path / "nope.csv")}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        RunConfig.from_json(p)


def test_config_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        RunConfig(dataset_format="parquet").validate()


def test_config_validated_on_construction():
    # a config built in code is checked as one read from JSON is
    with pytest.raises(ValueError, match="unknown dataset format 'parquet'"):
        run_experiment(RunConfig(dataset_format="parquet"))
    with pytest.raises(ValueError, match="unknown grid keys nc; known keys: n_g"):
        RunConfig(dataset_format="synthetic", grid={"nc": 100})


@pytest.mark.parametrize("bad, match", [
    (dict(depth=0), "depth must be an integer >= 1"),
    (dict(noise=-1.0), "noise must be finite and >= 0"),
    (dict(grid={"n_g": 1}), "n_g >= 2 violated"),
])
def test_config_checks_model_and_grid_on_construction(bad, match):
    # before any data is loaded, not first in run_experiment
    with pytest.raises(ValueError, match=match):
        RunConfig(dataset_format="synthetic", **bad)


def test_config_rejects_unknown_synthetic_keys():
    # misspelt keys would otherwise run with the default split and separation
    with pytest.raises(ValueError, match="unknown synthetic keys n_tests, seperation; "
                                         "known keys: n, d_in"):
        RunConfig(dataset_format="synthetic",
                  synthetic={"n": 200, "n_tests": 5, "seperation": 3.0})


def test_prediction_csv_is_the_csv_writer_bytes(tmp_path):
    # the joined rows against the csv.writer rows they replaced, on zeros of
    # both signs, negatives, tiny normals, subnormals and long reprs
    import csv

    from nngp import PosteriorPrediction
    from nngp.experiment import _write_predictions

    mean = np.array([[0.0, -0.0, -1.5, 1e-300],
                     [5e-324, -2.2250738585072014e-309, 0.1 + 0.2, -1e300],
                     [1.0 / 3.0, -7.0, 2.0 ** -1074, 123456789.0]])
    variance = np.array([0.0, 1e-300, 4.9e-324])
    pred = PosteriorPrediction(mean=mean, variance=variance, noise_used=0.0)
    ids = np.array([7, 0, 12345])
    _write_predictions(tmp_path / "new.csv", pred, ids)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["point_id"] + [f"mean_{j}" for j in range(4)] + ["variance"])
        for i, pid in enumerate(ids):
            w.writerow([int(pid)] + [repr(float(v)) for v in mean[i]]
                       + [repr(float(variance[i]))])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
