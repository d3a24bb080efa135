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
    assert len(lines) == 11
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
