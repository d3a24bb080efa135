"""One workload in one fresh process; started by run.py, never by hand.

Modes:
  setup  import nngp, load the warm table, make the inputs, print READY, exit
  run    setup, one untimed warm-up op, then the timed closed loop with
         tracing off, a reference computation after each op (reference.py),
         then the checks
  trace  traced setup, then an untraced, a traced and an untraced op, then
         the checks

The READY line (``READY <1 if the table was already cached>``) marks the
end of set-up for run.py's clock. The last stdout line is a JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ensure_checkout_package():
    import nngp

    src = (ROOT / "src").resolve()
    if src not in Path(nngp.__file__).resolve().parents:
        raise SystemExit(f"imported nngp from {nngp.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_op(wl, state):
    t0 = time.perf_counter()
    out = wl.op(state)
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    _ensure_checkout_package()
    import reference
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = tracing.Tracer()
    if args.mode == "trace":
        with tracer.installed():
            state = wl.setup(args.seed, out_dir)
    else:
        state = wl.setup(args.seed, out_dir)
    print("READY", int(state.cache_hit), flush=True)
    if args.mode == "setup":
        return 0

    times, digests, posteriors = [], [], []
    # reference computation times, and each op's time over the mean of the
    # reference runs just before and just after it
    refs, rel = [], []
    errors = []
    out = None
    traced_s = None
    try:
        with tracing.capture_posteriors(posteriors):
            if args.mode == "run":
                start = time.perf_counter()
                # untimed warm-up: the first op in a process pays first-touch
                # and CPU wake-up costs that later ops do not
                reference.timed()
                out, dt = _timed_op(wl, state)
                digests.append(wl.digest(state, out))
                ref_before = reference.timed()
                while True:
                    out, dt = _timed_op(wl, state)
                    ref_after = reference.timed()
                    times.append(dt)
                    refs.append(ref_after)
                    rel.append(dt / (0.5 * (ref_before + ref_after)))
                    ref_before = ref_after
                    digests.append(wl.digest(state, out))
                    # closed loop: start another op only if it should end in time
                    if time.perf_counter() - start + dt + ref_after > args.seconds:
                        break
            else:
                # untraced, traced, untraced: the first op in a process pays
                # first-touch costs, so the overhead compares with both
                out, dt = _timed_op(wl, state)
                times.append(dt)
                digests.append(wl.digest(state, out))
                del posteriors[:]
                with tracer.installed():
                    out, traced_s = _timed_op(wl, state)
                digests.append(wl.digest(state, out))
                last, dt = _timed_op(wl, state)
                times.append(dt)
                digests.append(wl.digest(state, last))
    except Exception:
        errors.append(traceback.format_exc())
        traceback.print_exc()
    peak_rss = _peak_rss_mb()

    result = {"op_s": times, "ref_s": refs, "op_rel": rel, "traced_op_s": traced_s,
              "peak_rss_mb": peak_rss, "ops": len(digests) + len(errors), "errors": errors,
              "digests": digests, "checks": [], "oracle_err": None,
              "summary": None, "per_layer": None, "timings": None,
              "versions": _versions()}
    if out is not None:
        result["summary"] = wl.summary(state, out, posteriors)
        try:
            err, checks = wl.checks(state, out)
        except Exception:
            errors.append(traceback.format_exc())
            traceback.print_exc()
        else:
            result["oracle_err"] = err
            result["checks"] = [vars(c) for c in checks]
    if args.mode == "trace" and traced_s is not None:
        overhead = traced_s - sum(times) / len(times)
        per_layer, summaries = tracing.per_layer_metrics(tracer.spans, overhead)
        result["per_layer"] = {name: {"value": per_layer[name], "unit": unit, "better": better}
                               for name, unit, better in tracing.PER_LAYER}
        result["timings"] = summaries
        trace_path = out_dir / "spans.json"
        with open(trace_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
        result["trace_file"] = str(trace_path)
    print(json.dumps(result, default=_jsonable), flush=True)
    return 0


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _jsonable(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
