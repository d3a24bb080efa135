import csv
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from nngp.cli import main


def run_cli(*argv):
    return main(list(argv))


def small_grid_args():
    return ["--ng", "201", "--nv", "81", "--nc", "100", "--smax", "16", "--umax", "16"]


# the grid of small_grid_args as a config's grid section
SMALL_GRID = {"n_g": 201, "n_v": 81, "n_c": 100, "s_max": 16.0, "u_max": 16.0}


def write_blob_csv(path, n, seed, d_in=8, d_out=4):
    from nngp import synthetic_blobs

    x, y = synthetic_blobs(n=n, d_in=d_in, n_classes=d_out, separation=2.0, seed=seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"f{i}" for i in range(d_in)] + ["label"])
        for row, label in zip(x, y):
            w.writerow([repr(float(v)) for v in row] + [int(label)])


def test_table_build(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NNGP_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "t.lut"
    rc = run_cli("table", "build", "--phi", "relu", *small_grid_args(),
                 "--out", str(out))
    assert rc == 0
    assert out.exists()
    first = capsys.readouterr().out
    assert "table ready" in first
    assert re.search(r"\(built in \d+\.\d\d s\)$", first.strip())
    assert run_cli("table", "build", "--phi", "relu", *small_grid_args()) == 0
    assert capsys.readouterr().out.strip().endswith("(cached)")


def test_table_build_rebuilds_a_file_of_an_older_magic(tmp_path, capsys, monkeypatch):
    # a cache file that load_or_build refuses and rewrites is not reported as cached
    from nngp.lookup import _MAGIC

    from .test_lookup import OLDER_MAGICS

    monkeypatch.setenv("NNGP_CACHE_DIR", str(tmp_path))
    assert run_cli("table", "build", "--phi", "tanh", *small_grid_args()) == 0
    path = Path(capsys.readouterr().out.split("table ready: ")[1].split(" (")[0])
    raw = path.read_bytes()
    for magic in OLDER_MAGICS:
        path.write_bytes(magic + raw[len(_MAGIC):])
        assert run_cli("table", "build", "--phi", "tanh", *small_grid_args()) == 0
        assert re.search(r"\(built in \d+\.\d\d s\)$", capsys.readouterr().out.strip())
        assert path.read_bytes() == raw


def test_kernel_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    rc = run_cli("kernel", "--phi", "relu", "--depth", "3", "--sw2", "1.6",
                 "--sb2", "0.1", "--analytic", "--angles", "19",
                 "--profile-out", str(out))
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["theta", "k_layer_0", "k_layer_1", "k_layer_2", "k_layer_3"]
    assert len(rows) == 20
    # layer 0 at theta = 0 is sb2 + sw2
    assert float(rows[1][1]) == pytest.approx(1.7)


@pytest.mark.parametrize("argv,message", [
    (("--phi", "tanh", "--depth", "2"), "no analytic step for phi = 'tanh'"),
    (("--phi", "relu", "--depth", "0"), "depth must be an integer >= 1"),
])
def test_kernel_input_error_exits_with_one_line(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_cli("kernel", *argv, "--sw2", "1.6", "--sb2", "0.1", "--analytic",
                "--profile-out", str(tmp_path / "profile.csv"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case,message", [
    ("missing_train", "No such file or directory"),
    ("missing_dataset", "No such file or directory"),
    ("d_in_mismatch", "train d_in 8 != test d_in 5"),
])
def test_input_error_exits_as_usage_error(tmp_path, capsys, case, message):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    write_blob_csv(train, 20, seed=1)
    write_blob_csv(test, 10, seed=2, d_in=5 if case == "d_in_mismatch" else 8)
    if case == "missing_train":
        train = tmp_path / "missing.csv"
    model = ("--phi", "tanh", "--depth", "2", *small_grid_args())
    if case == "missing_dataset":
        argv = ("sweep", "--config", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "sweep.csv"))
    else:
        argv = ("regress", "--train", str(train), "--test", str(test), *model,
                "--sw2", "1.3", "--sb2", "0.2", "--d-out", "4",
                "--pred-out", str(tmp_path / "pred.csv"))
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("usage: nngp")
    assert "Traceback" not in err


def test_run_config_with_unknown_grid_key_exits_as_usage_error(tmp_path, capsys):
    # "nc" is not a grid key (n_c is); it used to be ignored, building the
    # default 500-column table
    payload = {"dataset": {"format": "synthetic", "d_out": 4},
               "grid": {"n_g": 201, "nc": 100, "s_max": 16.0, "u_max": 16.0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--config", str(cfg_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown grid keys nc;" in err
    assert "Traceback" not in err


def test_run_config_with_misspelt_keys_in_every_section_exits_as_usage_error(tmp_path, capsys):
    # each of these used to load silently: sigma_w2 1.0, n_train None, no
    # report and seed 0
    payload = {"dataset": {"format": "synthetic", "d_out": 4, "n_trian": 50},
               "model": {"sw2": 1.45},
               "output": {"report": str(tmp_path / "r.json")},
               "sed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--config", str(cfg_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown model keys sw2; known keys: depth, sigma_w2" in err
    assert "unknown dataset keys n_trian;" in err
    assert "unknown top-level keys output, sed;" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_regress_end_to_end(tmp_path, capsys):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    write_blob_csv(train, 60, seed=1)
    write_blob_csv(test, 20, seed=2)
    pred = tmp_path / "pred.csv"
    calib = tmp_path / "calib.csv"
    rc = run_cli("regress", "--train", str(train), "--test", str(test),
                 "--phi", "tanh", "--depth", "2", "--sw2", "1.3", "--sb2", "0.2",
                 *small_grid_args(), "--d-out", "4", "--bin-size", "10",
                 "--pred-out", str(pred), "--calib-out", str(calib))
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    rows = list(csv.reader(pred.read_text().splitlines()))
    assert rows[0] == ["point_id", "mean_0", "mean_1", "mean_2", "mean_3", "variance"]
    assert len(rows) == 21
    crows = list(csv.reader(calib.read_text().splitlines()))
    assert crows[0] == ["predicted", "realized"]
    assert len(crows) == 3  # 20 points in bins of 10


def test_phase_csv(tmp_path):
    out = tmp_path / "phase.csv"
    rc = run_cli("phase", "--phi", "relu", "--cells", "4", "--out", str(out))
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["sw2", "sb2", "q_star", "c_star", "chi1", "xi", "phase"]
    assert len(rows) == 17
    phases = {r[6] for r in rows[1:]}
    assert phases <= {"bounded", "unbounded"}


def test_verify_json(tmp_path):
    out = tmp_path / "verify.json"
    rc = run_cli("verify", "--phi", "tanh", "--depth", "2", "--sw2", "1.2",
                 "--sb2", "0.2", *small_grid_args(), "--width", "128",
                 "--networks", "2000", "--seed", "0", "--points", "3",
                 "--out", str(out))
    assert rc == 0
    payload = json.loads(out.read_text())
    emp = np.array(payload["empirical"])
    theo = np.array(payload["theoretical"])
    assert emp.shape == theo.shape == (3, 3)
    assert payload["max_deviation_in_stderr"] < 8.0
    assert len(payload["excess_kurtosis"]) == 3


def test_verify_seed_one_within_six_stderr(tmp_path, monkeypatch):
    # the benchmark's verify point and points on correct code: the jackknife
    # over the 40 sampling batches reads 1.60 standard errors here
    from nngp import build_kernel_matrix, load_or_build

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    verify = importlib.import_module("workloads").VerifyWorkload
    out = tmp_path / "verify.json"
    rc = run_cli("verify", "--phi", "tanh", "--depth", "3", "--sw2", "1.5",
                 "--sb2", "0.1", "--width", "1024", "--networks", "2000",
                 "--seed", "1", "--out", str(out))
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["max_deviation_in_stderr"] < 6.0
    points = verify().setup(1, tmp_path).extra["points"]
    k = build_kernel_matrix(points, verify.HP, load_or_build("tanh"))
    assert payload["theoretical"] == k.kdd.tolist()


def test_verify_samples_once_like_the_public_calls(tmp_path, monkeypatch):
    from nngp import (NetworkHyperparams, build_kernel_matrix, finite_width,
                      gaussianity_check, load_or_build, preprocess,
                      sample_empirical_kernel, synthetic_blobs)
    from nngp.lookup import build_grid

    batches = []
    batch_sums = finite_width._batch_sums

    def counted(*args):
        batches.append(args[-1])
        return batch_sums(*args)

    monkeypatch.setattr(finite_width, "_batch_sums", counted)
    out = tmp_path / "verify.json"
    rc = run_cli("verify", "--phi", "tanh", "--depth", "2", "--sw2", "1.2",
                 "--sb2", "0.2", *small_grid_args(), "--width", "512",
                 "--networks", "3000", "--seed", "4", "--points", "3",
                 "--out", str(out))
    assert rc == 0
    plan = finite_width._batch_plan(3000, 3, 512)
    assert len(plan) > 1 and len(batches) == len(plan)

    # the JSON that separate sample_empirical_kernel and gaussianity_check
    # calls give, on the points cmd_verify draws
    monkeypatch.setattr(finite_width, "_batch_sums", batch_sums)
    x, y = synthetic_blobs(3, 16, 1, 0.0, 4)
    pts = preprocess(x, y, 1, (3, 0, 0), 4, shuffle=False).inputs
    hp = NetworkHyperparams(depth=2, sigma_w2=1.2, sigma_b2=0.2, phi="tanh")
    k = build_kernel_matrix(pts, hp, load_or_build("tanh", build_grid(201, 81, 100, 16.0, 16.0)))
    sample = sample_empirical_kernel(pts, hp, (512, 512), 3000, 4)
    stats = gaussianity_check(pts, hp, 512, 3000, 4)
    dev = np.abs(sample.empirical_k - k.kdd)
    expected = {
        "theoretical": k.kdd.tolist(),
        "empirical": sample.empirical_k.tolist(),
        "stderr": sample.stderr.tolist(),
        "max_abs_deviation": float(dev.max()),
        "max_deviation_in_stderr": float((dev / sample.stderr).max()),
        "skewness": stats.skewness.tolist(),
        "excess_kurtosis": stats.excess_kurtosis.tolist(),
        "width": 512,
        "n_networks": 3000,
        "seed": 4,
    }
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True)


def write_sweep_config(tmp_path, **sections):
    cfg = {
        "dataset": {"format": "synthetic", "d_out": 4,
                    "synthetic": {"n": 160, "d_in": 8, "separation": 2.0,
                                  "n_test": 30, "n_valid": 50, "seed": 3}},
        "seed": 3,
        **sections,
    }
    cfg_path = tmp_path / "data.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg_path = write_sweep_config(tmp_path, model={"phi": "tanh", "depth": 2},
                                  grid=SMALL_GRID)
    rc = run_cli("sweep", "--config", str(cfg_path), "--cells", "2", "--out", str(out))
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["sw2", "sb2", "accuracy"]
    assert len(rows) == 5


def test_sweep_reports_failed_cells_on_stderr(tmp_path, capsys):
    # relu at sw2 = 5 grows the variance 2.5x a layer, past s_max = 16
    out = tmp_path / "sweep.csv"
    cfg_path = write_sweep_config(tmp_path, model={"phi": "relu", "depth": 6},
                                  grid=SMALL_GRID)
    rc = run_cli("sweep", "--config", str(cfg_path), "--cells", "2", "--out", str(out))
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("2 of 4 cells failed; first at sw2=5.000 sb2=0.000: "
                                   "TableRangeError: layer ")
    assert "failed" not in captured.out
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [r[2] for r in rows[3:]] == ["nan", "nan"]


def test_sweep_without_a_validation_split_exits_as_usage_error(tmp_path, capsys):
    # it used to build every cell, warn "Mean of empty slice", write an
    # all-nan CSV and then fail on "no populated cells"
    cfg = {"dataset": {"format": "synthetic", "d_out": 4,
                       "synthetic": {"n": 120, "d_in": 8, "separation": 2.0,
                                     "n_test": 20, "n_valid": 0, "seed": 3}},
           "model": {"phi": "tanh", "depth": 2},
           "grid": SMALL_GRID,
           "seed": 3}
    cfg_path = tmp_path / "data.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--config", str(cfg_path), "--cells", "2", "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nngp")
    assert "the validation split is empty" in err
    assert not out.exists()


def test_sweep_reads_phi_depth_and_grid_from_the_config(tmp_path, capsys,
                                                        small_tanh_table):
    from nngp import RunConfig, build_dataset, heatmap_sweep, variance_grid

    out = tmp_path / "sweep.csv"
    cfg_path = write_sweep_config(tmp_path, model={"phi": "tanh", "depth": 2},
                                  grid=SMALL_GRID)
    assert run_cli("sweep", "--config", str(cfg_path), "--cells", "3",
                   "--out", str(out)) == 0
    sweep = heatmap_sweep(build_dataset(RunConfig.from_json(cfg_path)), "tanh", 2,
                          *variance_grid(3), small_tanh_table)
    expected = [["sw2", "sb2", "accuracy"]] + [
        [repr(float(sw2)), repr(float(sb2)), repr(float(sweep.cells[i, j]))]
        for i, sw2 in enumerate(sweep.sw2_grid) for j, sb2 in enumerate(sweep.sb2_grid)]
    assert list(csv.reader(out.read_text().splitlines())) == expected
    best = sweep.argmax()
    assert capsys.readouterr().out == (
        f"best cell sw2={best[0]:.3f} sb2={best[1]:.3f} accuracy={best[2]:.4f}\n")


def test_sweep_refuses_a_config_noise_it_would_not_use(tmp_path, capsys, monkeypatch):
    import nngp.cli

    def no_data(*args, **kwargs):
        raise AssertionError("the data was read for a refused noise")

    monkeypatch.setattr(nngp.cli, "build_dataset", no_data)
    out = tmp_path / "sweep.csv"
    cfg_path = write_sweep_config(tmp_path, model={"noise": 1e-4})
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--config", str(cfg_path), "--cells", "2", "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "model.noise is 0.0001; a sweep scores every cell at noise 1e-10" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,rest,message", [
    ("--dataset", (), "the following arguments are required: --config"),
    ("--config", ("--phi", "tanh", "--depth", "2"),
     "unrecognized arguments: --phi tanh --depth 2"),
])
def test_sweep_flags_that_the_config_replaced_are_usage_errors(tmp_path, capsys, flag, rest,
                                                               message):
    cfg_path = write_sweep_config(tmp_path)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", flag, str(cfg_path), *rest, "--out", str(out))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("payload,message", [
    ({"model": 3}, "model must be a JSON object, not 3"),
    ({"dataset": {"format": "synthetic", "synthetic": 5}},
     "dataset.synthetic must be a JSON object, not 5"),
    ({"outputs": None}, "outputs must be a JSON object, not null"),
    ([1], "cfg.json must be a JSON object, not [1]"),
    ("cfg", 'cfg.json must be a JSON object, not "cfg"'),
    ({"grid": [1]}, "grid must be a JSON object, not [1]"),
    ({"dataset": "x"}, 'dataset must be a JSON object, not "x"'),
], ids=["model_number", "synthetic_number", "outputs_null", "config_list",
        "config_string", "grid_list", "dataset_string"])
def test_config_of_non_objects_exits_as_usage_error(tmp_path, capsys, command, payload,
                                                    message):
    # each used to end in a TypeError or AttributeError traceback, or a
    # message about a dict update
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    extra = ("--out", str(tmp_path / "sweep.csv")) if command == "sweep" else ()
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", str(cfg_path), *extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nngp")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("dataset,top,message", [
    ({"split": 5}, {}, "dataset.split must be a list of three integers, not 5"),
    ({"split": [100, 50]}, {}, "dataset.split must be a list of three integers"),
    ({"split": [100, "50", 50]}, {}, "dataset.split must be a list of three integers"),
    ({"d_out": "x"}, {}, "dataset.d_out must be an integer, not 'x'"),
    ({"n_train": "5"}, {}, "dataset.n_train must be an integer, not '5'"),
    ({"n_train": True}, {}, "dataset.n_train must be an integer, not True"),
    ({}, {"seed": "a"}, "seed must be an integer, not 'a'"),
    ({"seed": 1.5}, {}, "seed must be an integer, not 1.5"),
    ({"synthetic": {"n": "10"}}, {}, "dataset.synthetic.n must be an integer, not '10'"),
    ({"synthetic": {"separation": "1"}}, {},
     "dataset.synthetic.separation must be a number, not '1'"),
    ({"format": "csv", "path": 5}, {}, "dataset.path must be a path or a list of paths"),
], ids=["split_number", "split_short", "split_string_entry", "d_out", "n_train",
        "n_train_bool", "seed", "dataset_seed", "synthetic_n", "synthetic_separation",
        "path_number"])
def test_config_of_wrong_dataset_types_exits_as_usage_error(tmp_path, capsys, monkeypatch,
                                                           command, dataset, top, message):
    # each used to end in a TypeError traceback while the data was built,
    # or, for n_train true, to run on one training point
    import nngp.cli

    def no_data(*args, **kwargs):
        raise AssertionError("the data was read for a refused config")

    monkeypatch.setattr(nngp.cli, "build_dataset", no_data)
    monkeypatch.setattr(nngp.cli, "run_experiment", no_data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": {"format": "synthetic", **dataset}, **top}))
    extra = ("--out", str(tmp_path / "sweep.csv")) if command == "sweep" else ()
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", str(cfg_path), *extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nngp")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("payload,message", [
    ({"model": {"sigma_w2": "1"}}, "sigma_w2 must be a number, not '1'"),
    ({"model": {"depth": "3"}}, "depth must be an integer, not '3'"),
    ({"grid": {"s_max": "100"}}, "s_max must be a number, not '100'"),
    ({"grid": {"n_g": "501"}}, "n_g must be an integer, not '501'"),
    ({"dataset": {"format": "synthetic", "d_out": 0}}, "dataset.d_out must be at least 1, not 0"),
], ids=["sigma_w2_string", "depth_string", "s_max_string", "n_g_string", "d_out_zero"])
def test_config_of_wrong_model_and_grid_values_exits_as_usage_error(
        tmp_path, capsys, monkeypatch, command, payload, message):
    # the strings used to end in a TypeError traceback (sigma_w2, s_max) or in
    # "depth must be an integer >= 1, got 3"; d_out 0 in an IndexError
    # traceback while the blobs were built
    import nngp.cli

    def no_data(*args, **kwargs):
        raise AssertionError("the data was read for a refused config")

    monkeypatch.setattr(nngp.cli, "build_dataset", no_data)
    monkeypatch.setattr(nngp.cli, "run_experiment", no_data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": {"format": "synthetic"}, **payload}))
    extra = ("--out", str(tmp_path / "sweep.csv")) if command == "sweep" else ()
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", str(cfg_path), *extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nngp")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cells", ["0", "-1"])
def test_phase_refuses_cells_below_one(tmp_path, capsys, monkeypatch, cells):
    # --cells 0 used to write a header-only CSV and exit 0
    import nngp.cli

    def no_table(*args, **kwargs):
        raise AssertionError("a table was loaded for a refused --cells")

    monkeypatch.setattr(nngp.cli.lookup, "load_or_build", no_table)
    out = tmp_path / "phase.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("phase", "--phi", "tanh", "--cells", cells, "--out", str(out))
    assert exc.value.code == 2
    assert f"argument --cells: must be at least 1, not {cells}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cells", ["0", "two"])
def test_sweep_refuses_cells_below_one(tmp_path, capsys, monkeypatch, cells):
    # --cells 0 used to load the data and the table, write a header-only CSV
    # and then fail on "no populated cells"
    import nngp.cli

    def no_data(*args, **kwargs):
        raise AssertionError("the data was read for a refused --cells")

    monkeypatch.setattr(nngp.cli, "build_dataset", no_data)
    monkeypatch.setattr(nngp.cli.lookup, "load_or_build", no_data)
    out = tmp_path / "sweep.csv"
    cfg_path = write_sweep_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--config", str(cfg_path), "--cells", cells, "--out", str(out))
    assert exc.value.code == 2
    assert "argument --cells: must be" in capsys.readouterr().err
    assert not out.exists()


def test_run_without_a_test_split_exits_as_usage_error(tmp_path, capsys, monkeypatch):
    # it used to build the kernel, warn "Mean of empty slice" and write
    # "accuracy": NaN, which is not JSON, into the report
    import nngp.experiment

    def no_table(*args, **kwargs):
        raise AssertionError("the table was loaded for an empty test split")

    monkeypatch.setattr(nngp.experiment, "load_or_build", no_table)
    report = tmp_path / "r.json"
    payload = {"dataset": {"format": "synthetic", "d_out": 4,
                           "synthetic": {"n": 120, "d_in": 8, "separation": 2.0,
                                         "n_test": 0, "seed": 3}},
               "outputs": {"report": str(report)},
               "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--config", str(cfg_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nngp")
    assert "the test split is empty" in err
    assert not report.exists()


# the 100-column small table leaves one variance at -4.5e-6 before clamping;
# a conditioning-aware noise escalation (ROADMAP item 4) is to remove it
@pytest.mark.filterwarnings("default:posterior variance reached:RuntimeWarning")
def test_run_from_config(tmp_path, capsys):
    payload = {
        "dataset": {"format": "synthetic", "d_out": 4,
                    "synthetic": {"n": 200, "d_in": 8, "separation": 2.0,
                                  "n_test": 40, "seed": 5}},
        "model": {"depth": 2, "sigma_w2": 1.2, "sigma_b2": 0.2, "phi": "tanh"},
        "grid": {"n_g": 201, "n_v": 81, "n_c": 100, "s_max": 16.0, "u_max": 16.0},
        "outputs": {"report": str(tmp_path / "r.json"),
                    "predictions": str(tmp_path / "p.csv")},
        "seed": 6,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    rc = run_cli("run", "--config", str(cfg_path))
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert 0.0 <= printed["accuracy"] <= 1.0
    assert (tmp_path / "r.json").exists()
    assert (tmp_path / "p.csv").exists()
