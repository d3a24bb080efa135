"""nngp benchmark: one workload, one seed, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload run_deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every measurement happens in a fresh child
process (perfbench/child.py) that imports nngp from ./src, so set-up time
includes the import and peak memory belongs to that workload alone.

--trace 0: SETUP_SAMPLES fresh processes time set-up; one more does set-up,
one untimed warm-up operation and then the workload's operation closed loop
(the next operation starts only if it should end within --seconds; at least
one is timed). Prints all end-to-end metrics, then the gated ones as the
last line.
--trace 1: one process runs the operation untraced, then traced, and prints
the per-layer metrics and the tracing overhead.

The last stdout line is the JSON result; the full report (environment,
timing summaries, checks) is written under .bench_build/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("run_deep", "run_wide", "phase_sweep", "verify_mc", "table_build")
DEFAULT_SEED = 1
# a claimed gain must also hold on this seed; do not tune on it
HELD_OUT_SEED = 7
SETUP_SAMPLES = 6
BLAS_THREADS_MAX = 2
# a first run in a checkout builds two lookup tables; later runs take < 60 s
DEADLINE_S = 870.0

# (name, unit, better, workloads it applies to); BENCHMARK.json lists the
# gated ones, which must apply to every workload
END_TO_END = [
    ("wall_ref", "ref", "lower", WORKLOADS),
    ("wall_s", "s", "lower", WORKLOADS),
    ("setup_s", "s", "lower", WORKLOADS),
    ("peak_rss_mb", "MB", "lower", WORKLOADS),
    ("accuracy", "fraction", "higher", ("run_deep", "run_wide", "phase_sweep")),
    ("oracle_err", "relative", "lower", ("run_deep", "run_wide", "phase_sweep", "table_build")),
    ("clamped_frac", "fraction", "lower", ("run_deep", "run_wide", "phase_sweep")),
    ("failed_frac", "fraction", "lower", WORKLOADS),
]


class BenchError(RuntimeError):
    pass


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NNGP_CACHE_DIR"] = str(BUILD / "nngp-cache")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def run_child(args, mode: str, out_dir: Path, deadline: float):
    """Start child.py; return (seconds from start to READY, READY flag, result)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--out-dir", str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.startswith("READY"):
        raise BenchError(f"{mode} child exited with code {code}")
    lines = rest.strip().splitlines()
    result = json.loads(lines[-1]) if mode != "setup" else None
    return setup_s, ready.split()[1] == "1", result


def environment(seed: int, versions: dict) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
           "python": platform.python_version(), **versions, "seed": seed,
           "commit": _git_commit()}
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nngp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = h.hexdigest()
    return env


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(args) -> dict:
    """Run the children and return the full report."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = BUILD / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)

    setups = []
    if not args.trace:
        # a sample that had to build the table is not a warm set-up: replace it
        tries = 0
        while len(setups) < SETUP_SAMPLES and tries < 2 * SETUP_SAMPLES:
            tries += 1
            s, hit, _ = run_child(args, "setup", out_dir, deadline)
            if hit:
                setups.append(s)
    s, hit, res = run_child(args, "trace" if args.trace else "run", out_dir, deadline)
    if hit:
        setups.append(s)

    summary = res["summary"] or {}
    checks = res["checks"]
    digests = res["digests"]
    compared = len(digests) >= 2
    determinism_ok = len(set(digests)) <= 1
    # operations: timed ops, sweep cells, oracle checks and the determinism check
    attempted = res["ops"] + summary.get("cells", 0) + len(checks) + compared
    failed = (len(res["errors"]) + summary.get("failed_cells", 0)
              + sum(1 for c in checks if not c["ok"]) + (not determinism_ok))

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed, res["versions"]),
              "attempted": attempted, "failed": failed, "checks": checks,
              "determinism": {"ok": determinism_ok, "outputs_compared": len(digests),
                              "distinct_digests": sorted(set(digests))},
              "errors": res["errors"]}
    if args.trace:
        if res["per_layer"] is None:
            raise BenchError("traced operation did not complete")
        report["per_layer"] = res["per_layer"]
        report["timings"] = res["timings"]
        report["trace_file"] = res["trace_file"]
        return report
    if not res["op_s"]:
        raise BenchError("no operation completed")
    if not setups:
        raise BenchError("no warm set-up sample")
    values = {
        "wall_ref": statistics.median(res["op_rel"]),
        "wall_s": statistics.median(res["op_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "accuracy": summary.get("accuracy"),
        "oracle_err": res["oracle_err"],
        "clamped_frac": summary.get("clamped_frac"),
        "failed_frac": failed / attempted,
    }
    report["end_to_end"] = {
        name: {"value": values[name] if args.workload in applies else None,
               "unit": unit, "better": better}
        for name, unit, better, applies in END_TO_END}
    report["timings"] = {"wall_ref": timing.summary(res["op_rel"]),
                         "wall_s": timing.summary(res["op_s"]),
                         "reference_s": timing.summary(res["ref_s"]),
                         "setup_s": timing.summary(setups)}
    report["samples"] = {"wall_ref": res["op_rel"], "wall_s": res["op_s"],
                         "reference_s": res["ref_s"], "setup_s": setups}
    return report


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_report(report: dict, path: Path) -> None:
    env = report["environment"]
    print(f"nngp benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"trace {report['trace']}, {report['seconds']} s")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if report["trace"]:
        print("per-layer metrics (traced run):")
        for name, m in report["per_layer"].items():
            print(f"  {name:<30} {_fmt(m['value']):>14} {m['unit']:<9} {m['better']} is better")
        for name, t in report["timings"].items():
            print(f"  {name:<30} timing summary {json.dumps(t)}")
    else:
        print("end-to-end metrics (tracing off):")
        for name, m in report["end_to_end"].items():
            print(f"  {name:<14} {_fmt(m['value']):>14} {m['unit']:<9} {m['better']} is better")
        for name, t in report["timings"].items():
            print(f"  {name:<14} timing summary {json.dumps(t)}")
    for c in report["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"(value {_fmt(c['value'])}, limit {_fmt(c['limit'])}; {c['detail']})")
    det = report["determinism"]
    print(f"  check determinism: {'ok' if det['ok'] else 'FAILED'} "
          f"({det['outputs_compared']} outputs, {len(det['distinct_digests'])} distinct)")
    print(f"attempted {report['attempted']}, failed {report['failed']}; report {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nngp" / "__init__.py").is_file():
        print(f"error: no nngp package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2))
    print_report(report, path)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            print(f"error: BENCHMARK.json metric {m['name']} was not measured as "
                  f"{m['unit']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    line = {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
