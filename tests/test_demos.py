"""The demos run end to end and write their CSVs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo,headers", [
    ("phase_diagram", {"phase_tanh.csv": "sw2,sb2,q_star,c_star,chi1,xi,ordered",
                       "critical_lines.csv": "sb2,tanh_critical_sw2,relu_critical_sw2"}),
    ("angular_profile", {"angular_profile.csv": "theta," + ",".join(
        f"k_layer_{layer}" for layer in range(10))}),
    # without MNIST: the synthetic stand-ins, under a second each
    ("mnist_regression", {}),
    ("uncertainty_calibration", {"calibration_synthetic.csv": "predicted,realized"}),
    # the closed-form kernel over inputs of unequal norm
    ("prior_draws", {"prior_draws.csv": "x," + ",".join(f"draw_{i}" for i in range(8))}),
])
def test_demo_writes_its_csvs(tmp_path, demo, headers):
    env = dict(os.environ)
    env.pop("NNGP_DATA_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(_REPO / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    for name, header in headers.items():
        assert (tmp_path / name).read_text().splitlines()[0] == header
