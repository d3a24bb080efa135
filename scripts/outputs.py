"""Save the outputs of a fixed list of small nngp invocations, and compare two such sets.

    python scripts/outputs.py write DIR [--only NAME ...]
    python scripts/outputs.py compare A B

``write`` runs each entry of ENTRIES through ``nngp.cli.main`` in this
process, in DIR/NAME/ and with paths relative to it, and saves its output
files, its stdout and its stderr there, then
DIR/manifest.json: the entries run, the numpy and scipy versions and the
thread count of scipy's OpenBLAS, since the bits of a posterior depend on
all three. Lookup tables come from the cache at NNGP_CACHE_DIR (built there
on a miss). Run it once in each of two checkouts, then ``compare`` them.

``compare`` prints one line per file: "identical", or how many numeric
cells moved with the largest absolute and relative change; any other
difference is printed as it is. A run report's "timings" are dropped first.
It exits 1 if any file differs or exists on one side only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nngp import synthetic_blobs  # noqa: E402
from nngp.cli import main as nngp_main  # noqa: E402

# a 600-point test split streams through the posterior in two panels
_RUN_DATASET = {"format": "synthetic", "d_out": 4,
                "synthetic": {"n": 1000, "d_in": 16, "separation": 1.0, "n_test": 600,
                              "seed": 1}}
_SWEEP_DATASET = {"format": "synthetic", "d_out": 4,
                  "synthetic": {"n": 400, "d_in": 16, "separation": 1.0, "n_test": 100,
                                "n_valid": 100, "seed": 2}}


def _config(config: dict) -> list[str]:
    """Write config to config.json; the arguments that pass it."""
    Path("config.json").write_text(json.dumps(config, indent=2))
    return ["--config", "config.json"]


def _model(phi: str, depth: int, sigma_w2: float, sigma_b2: float) -> dict:
    return {"phi": phi, "depth": depth, "sigma_w2": sigma_w2, "sigma_b2": sigma_b2}


def _run(*model):
    def entry() -> list[str]:
        return ["run", *_config({
            "dataset": _RUN_DATASET, "seed": 1, "model": _model(*model),
            "outputs": {"report": "report.json", "predictions": "predictions.csv"}})]
    return entry


def _regress() -> list[str]:
    x, y = synthetic_blobs(n=850, d_in=8, n_classes=4, separation=2.0, seed=3)
    for name, rows in (("train.csv", slice(300)), ("test.csv", slice(300, None))):
        with open(name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"f{i}" for i in range(x.shape[1])] + ["label"])
            w.writerows([repr(float(v)) for v in row] + [int(label)]
                        for row, label in zip(x[rows], y[rows]))
    return ["regress", *_config({"dataset": {"d_out": 4},
                                 "model": _model("tanh", 3, 1.5, 0.1)}),
            "--train", "train.csv", "--test", "test.csv", "--bin-size", "50",
            "--pred-out", "predictions.csv", "--calib-out", "calibration.csv"]


def _sweep(phi: str, depth: int):
    def entry() -> list[str]:
        return ["sweep", *_config({"dataset": _SWEEP_DATASET, "seed": 2,
                                   "model": {"phi": phi, "depth": depth}}),
                "--cells", "3", "--out", "sweep.csv"]
    return entry


def _kernel(*flags: str):
    def entry() -> list[str]:
        return ["kernel", *_config({"model": _model("relu", 9, 1.6, 0.1)}),
                "--angles", "37", *flags, "--profile-out", "profile.csv"]
    return entry


def _phase(phi: str):
    # ReLU is the default phi, so its entry runs without a config
    def entry() -> list[str]:
        config = _config({"model": {"phi": phi}}) if phi != "relu" else []
        return ["phase", *config, "--cells", "8", "--out", "phase.csv"]
    return entry


def _verify() -> list[str]:
    return ["verify", *_config({"model": _model("tanh", 2, 1.5, 0.1), "seed": 1}),
            "--width", "64", "--networks", "200", "--points", "3", "--out", "verify.json"]


# name -> function writing the entry's inputs into the working directory
# and returning its nngp arguments
ENTRIES = {
    "run_relu_depth20": _run("relu", 20, 1.45, 0.28),
    "run_tanh_depth5": _run("tanh", 5, 1.5, 0.1),
    "regress_calibration": _regress,
    "sweep_tanh_3x3": _sweep("tanh", 5),
    "sweep_relu_3x3": _sweep("relu", 5),
    "kernel_relu_table": _kernel(),
    "kernel_relu_analytic": _kernel("--analytic"),
    "phase_relu": _phase("relu"),
    "phase_tanh": _phase("tanh"),
    "verify_tanh": _verify,
}


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS that scipy's BLAS calls run on, or
    None where that library is not found."""
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob(
            "libscipy_openblas*.so*")):
        get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def write(directory: Path, names: list[str]) -> None:
    directory = directory.resolve()
    directory.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    for name in names:
        out = directory / name
        out.mkdir(exist_ok=True)
        os.chdir(out)
        try:
            argv = ENTRIES[name]()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings():
                # each entry shows its own warnings, whatever ran before it
                warnings.simplefilter("default")
                try:
                    code = nngp_main(argv)
                except SystemExit as exc:  # a usage error, its message on stderr
                    code = exc.code
        finally:
            os.chdir(home)
        if code != 0:
            raise SystemExit(f"{name}: nngp {' '.join(argv)} exited {code}:\n"
                             f"{stderr.getvalue()}")
        (out / "stdout.txt").write_text(stdout.getvalue())
        (out / "stderr.txt").write_text(stderr.getvalue())
    manifest = {"entries": names, "numpy": np.__version__, "scipy": scipy.__version__,
                "blas_threads": blas_threads()}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _is_json(text: str) -> bool:
    return text.lstrip().startswith("{")


def _cells(text: str) -> list[str]:
    """The file's cells: a JSON file's scalars (timings dropped) by their path,
    any other file's comma- or space-separated fields, in order."""
    if _is_json(text):
        data = json.loads(text)
        data.pop("timings", None)
        cells = []

        def walk(value, path):
            if isinstance(value, dict):
                for key in sorted(value):
                    walk(value[key], f"{path}.{key}")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    walk(item, f"{path}[{i}]")
            else:
                cells.append(f"{path}={json.dumps(value)}")
        walk(data, "")
        return cells
    return [cell for line in text.splitlines() for cell in line.replace(",", " ").split()]


def _number(cell: str) -> float | None:
    try:
        return float(cell.rpartition("=")[2])
    except ValueError:
        return None


def compare_file(a: bytes, b: bytes) -> str:
    """'identical', or a line saying what moved between the two files."""
    if a == b:
        return "identical"
    text = a.decode()
    ca, cb = _cells(text), _cells(b.decode())
    if len(ca) != len(cb):
        return f"differs: {len(ca)} cells against {len(cb)}"
    moved, worst_abs, worst_rel, other = 0, 0.0, 0.0, []
    for x, y in zip(ca, cb):
        if x == y:
            continue
        u, v = _number(x), _number(y)
        if u is None or v is None or x.rpartition("=")[0] != y.rpartition("=")[0]:
            other.append(f"{x!r} -> {y!r}")
            continue
        moved += 1
        delta = abs(u - v)
        if delta > 0.0:
            worst_abs = max(worst_abs, delta)
            worst_rel = max(worst_rel, delta / max(abs(u), abs(v)))
    parts = []
    if moved:
        parts.append(f"numeric cells moved: {moved} of {len(ca)}, by at most "
                     f"{worst_abs:.3g} ({worst_rel:.3g} relative)")
    if other:
        parts.append("other cells differ: " + "; ".join(other[:5])
                     + (f" and {len(other) - 5} more" if len(other) > 5 else ""))
    if parts:
        return "; ".join(parts)
    # every cell is the same: a report differs in its timings alone, any
    # other file in its line ends or spacing
    return "identical" if _is_json(text) else "same cells, other bytes"


def compare(a: Path, b: Path) -> bool:
    """Print one line per file of the two sets; True if every file is identical."""
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    same = True
    for name in names:
        if not (a / name).is_file() or not (b / name).is_file():
            line = f"only in {a if (a / name).is_file() else b}"
        else:
            line = compare_file((a / name).read_bytes(), (b / name).read_bytes())
        same &= line == "identical"
        print(f"{name}: {line}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="run the entries and save their outputs")
    p_write.add_argument("directory", type=Path)
    p_write.add_argument("--only", nargs="+", choices=tuple(ENTRIES), default=list(ENTRIES))
    p_compare = sub.add_parser("compare", help="compare two saved sets")
    p_compare.add_argument("a", type=Path)
    p_compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.directory, args.only)
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
