import importlib.util
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("outputs_script", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_writes_compare_identical_and_one_ulp_is_reported(tmp_path, capsys):
    # the run's report carries timings that differ between the writes; they
    # are dropped, so only a moved value is reported
    outputs = load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        assert outputs.main(["write", str(side), "--only", "run_tanh_depth5",
                             "regress_calibration"]) == 0
    assert (a / "run_tanh_depth5" / "report.json").read_text() != \
        (b / "run_tanh_depth5" / "report.json").read_text()
    capsys.readouterr()
    assert outputs.main(["compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all(line.endswith(": identical") for line in lines)

    path = b / "regress_calibration" / "predictions.csv"
    rows = path.read_bytes().split(b"\r\n")
    fields = rows[1].split(b",")
    fields[1] = repr(float(np.nextafter(float(fields[1]), np.inf))).encode()
    rows[1] = b",".join(fields)
    path.write_bytes(b"\r\n".join(rows))
    assert outputs.main(["compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if not line.endswith(": identical")]
    assert len(moved) == 1
    assert moved[0].startswith("regress_calibration/predictions.csv: numeric cells moved: 1 of ")


def test_two_full_writes_compare_identical(tmp_path, capsys):
    # the gate a change's byte-identity claim rests on: every entry, twice
    outputs = load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        assert outputs.main(["write", str(side)]) == 0
    capsys.readouterr()
    assert outputs.main(["compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(": identical") for line in lines)
    names = {line.partition(":")[0].partition("/")[0] for line in lines}
    assert names == {*outputs.ENTRIES, "manifest.json"}


def test_a_changed_stderr_is_reported(tmp_path, capsys):
    # the sweep reports its failed cells on stderr, which is saved beside stdout
    outputs = load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        assert outputs.main(["write", str(side), "--only", "sweep_relu_3x3"]) == 0
    path = b / "sweep_relu_3x3" / "stderr.txt"
    assert path.read_text().startswith("3 of 9 cells failed; first at sw2=5.000 sb2=0.000: ")
    path.write_text(path.read_text().replace("3 of 9", "4 of 9", 1))
    capsys.readouterr()
    assert outputs.main(["compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if not line.endswith(": identical")]
    assert len(moved) == 1
    assert moved[0].startswith("sweep_relu_3x3/stderr.txt: numeric cells moved: 1 of ")
