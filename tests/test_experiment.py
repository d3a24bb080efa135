import json

import numpy as np
import pytest

from nngp import RunConfig, run_experiment
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


def test_config_missing_file_rejected(tmp_path):
    payload = {"dataset": {"format": "csv", "path": str(tmp_path / "nope.csv")}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        RunConfig.from_json(p)


def test_config_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        RunConfig(dataset_format="parquet").validate()
