"""In-memory span tracing of the nngp layers, installed from outside the library.

A traced run replaces public functions at the module attribute each caller
looks them up through (``nngp.kernel.interpolate`` for the kernel's layer
step, ``nngp.phase.interpolate`` for the phase maps, and so on) with
wrappers that record a span: name, start, end, parent and a few counts taken
at the same boundary. Counts are computed after the span's end time is read,
so they cost the parent span but not the span itself. Every patch is undone
when the ``installed`` context exits.

``capture_posteriors`` is the one patch untraced runs also use: it keeps
two numbers from each posterior call (clamped count, test points) so that
``clamped_frac`` can be reported without tracing.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
import tracemalloc

import numpy as np

import nngp.data
import nngp.experiment
import nngp.finite_width
import nngp.kernel
import nngp.lookup
import nngp.phase
import timing

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Spans kept in a list; ``_stack`` holds the indices of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, attrs=None, track_alloc=False):
        """Wrapper recording one span per call of ``fn``.

        ``attrs(args, kwargs, result_or_exception)`` returns the span's
        counts. ``track_alloc`` runs tracemalloc for the span only and stores
        the peak of what the span allocated, in bytes, as attribute
        ``alloc``; such spans must not nest inside each other. Keeping
        tracemalloc off elsewhere keeps it from slowing small calls.
        """

        def wrapper(*args, **kwargs):
            if track_alloc:
                tracemalloc.start()
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end(index)
                if track_alloc:
                    tracemalloc.stop()
                self.spans[index][ATTRS] = {"error": type(exc).__name__,
                                            **(attrs(args, kwargs, exc) if attrs else {})}
                raise
            self.end(index)
            extra = attrs(args, kwargs, result) if attrs else {}
            if track_alloc:
                extra["alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans[index][ATTRS] = extra or None
            return result

        return wrapper

    def wrap_layers(self, gen_fn):
        """Generator wrapper timing each step between yields of ``gen_fn``."""

        def wrapper(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            layer = 0
            while True:
                index = self.begin("kernel.layer")
                try:
                    item = next(gen)
                except StopIteration:
                    self.end(index)
                    self.spans.pop()
                    return
                except Exception as exc:
                    self.end(index)
                    self.spans[index][ATTRS] = {"layer": layer, "error": type(exc).__name__}
                    raise
                self.end(index)
                self.spans[index][ATTRS] = {"layer": layer}
                yield item
                layer += 1

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced attribute for the duration of the context."""
        patches = []
        for module, attr, name, attrs, alloc in _TRACE_POINTS:
            original = getattr(module, attr)
            patches.append((module, attr, original))
            if attr == "iter_kernel_layers":
                replacement = self.wrap_layers(original)
            else:
                replacement = self.wrap(original, name, attrs, alloc)
            setattr(module, attr, replacement)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)


@contextlib.contextmanager
def capture_posteriors(sink: list):
    """Append (clamped, n_test) for each posterior call."""
    patched = []
    for module in (nngp.experiment, nngp.phase):
        original = module.posterior

        def wrapper(*args, _original=original, **kwargs):
            pred = _original(*args, **kwargs)
            sink.append((int(pred.clamped), int(pred.variance.size)))
            return pred

        patched.append((module, original))
        module.posterior = wrapper
    try:
        yield sink
    finally:
        for module, original in patched:
            module.posterior = original


# --- counts taken at span boundaries -------------------------------------

def _interpolate_attrs(args, kwargs, result):
    # every caller in the library passes (table, k_xy, k_xx) positionally
    table, k_xy, k_xx = args
    k_xx = float(k_xx)
    tol = table.diag_tol
    odd = table.activation.odd
    if np.ndim(k_xy) == 0:
        points = 1
        c = min(max(float(k_xy) / k_xx, -1.0), 1.0) if k_xx > 0.0 else 0.0
        snapped = int(k_xx > 0.0 and (1.0 - c < tol or (odd and 1.0 + c < tol)))
    else:
        k_xy = np.asarray(k_xy)
        points = int(k_xy.size)
        if k_xx > 0.0:
            c = np.clip(k_xy / k_xx, -1.0, 1.0)
            near = (1.0 - c) < tol
            if odd:
                near |= (1.0 + c) < tol
            snapped = int(np.count_nonzero(near))
        else:
            snapped = 0
    return {"points": points, "snapped": snapped}


def _build_attrs(args, kwargs, result):
    train, hp = args[0], args[1]
    test = args[3] if len(args) > 3 else kwargs.get("test_inputs")
    n_test = 0 if test is None else int(np.asarray(test).shape[0])
    return {"n_train": int(np.asarray(train).shape[0]), "n_test": n_test,
            "depth": int(hp.depth)}


def _posterior_attrs(args, kwargs, result):
    if isinstance(result, Exception):
        return {}
    k, targets = args[0], np.asarray(args[1])
    hp = args[2] if len(args) > 2 else kwargs.get("hp")
    noise = kwargs.get("noise", args[3] if len(args) > 3 else None)
    if noise is None:
        noise = hp.noise
    return {"n_train": int(k.n_train), "n_test": int(k.n_test),
            "d_out": int(targets.shape[1]) if targets.ndim == 2 else 1,
            "noise": float(noise), "noise_used": float(result.noise_used),
            "clamped": int(result.clamped)}


def _sweep_attrs(args, kwargs, result):
    if isinstance(result, Exception):
        return {}
    return {"cells": int(result.cells.size),
            "failed_cells": int(np.count_nonzero(np.isnan(result.cells)))}


def _mc_counts(points, widths, units, n_networks) -> dict:
    # one normal per point and unit entering each layer: the first hidden
    # layer, every later hidden layer, then the output units
    per_network = int(np.asarray(points).shape[0]) * (sum(widths) + units)
    return {"networks": int(n_networks), "normals": per_network * int(n_networks)}


def _sample_attrs(args, kwargs, result):
    points, hp, widths, n_networks = args[:4]
    units = kwargs.get("average_units", args[5] if len(args) > 5 else 1)
    return _mc_counts(points, [int(w) for w in np.atleast_1d(widths)], int(units),
                      n_networks)


def _gaussianity_attrs(args, kwargs, result):
    points, hp, width, n_networks = args[:4]
    return _mc_counts(points, [int(width)] * int(hp.depth), 1, n_networks)


_TRACE_POINTS = [
    # (module, attribute, span name, counts, track tracemalloc peak)
    (nngp.experiment, "run_experiment", "experiment.run_experiment", None, False),
    (nngp.data, "synthetic_blobs", "data.synthetic_blobs", None, False),
    (nngp.data, "preprocess", "data.preprocess", None, False),
    (nngp.experiment, "preprocess", "data.preprocess", None, False),
    (nngp.lookup, "load_or_build", "lookup.load_or_build", None, False),
    (nngp.experiment, "load_or_build", "lookup.load_or_build", None, False),
    (nngp.lookup, "load_table", "lookup.load_table", None, False),
    (nngp.lookup, "save_table", "lookup.save_table", None, False),
    (nngp.lookup, "populate", "lookup.populate", None, False),
    (nngp.kernel, "interpolate", "lookup.interpolate", _interpolate_attrs, False),
    (nngp.phase, "interpolate", "lookup.interpolate", _interpolate_attrs, False),
    (nngp.kernel, "build_kernel_matrix", "kernel.build_kernel_matrix", _build_attrs, True),
    (nngp.experiment, "build_kernel_matrix", "kernel.build_kernel_matrix", _build_attrs, True),
    (nngp.phase, "build_kernel_matrix", "kernel.build_kernel_matrix", _build_attrs, True),
    (nngp.kernel, "iter_kernel_layers", "kernel.layer", None, False),
    (nngp.experiment, "posterior", "regression.posterior", _posterior_attrs, True),
    (nngp.phase, "posterior", "regression.posterior", _posterior_attrs, True),
    (nngp.experiment, "evaluate", "regression.evaluate", None, False),
    (nngp.phase, "evaluate", "regression.evaluate", None, False),
    (nngp.phase, "diagnose", "phase.diagnose", None, False),
    (nngp.phase, "critical_line", "phase.critical_line", None, False),
    (nngp.phase, "heatmap_sweep", "phase.heatmap_sweep", _sweep_attrs, False),
    (nngp.finite_width, "sample_empirical_kernel", "finite_width.sample_empirical_kernel",
     _sample_attrs, False),
    (nngp.finite_width, "gaussianity_check", "finite_width.gaussianity_check",
     _gaussianity_attrs, False),
]


# --- per-layer metrics ----------------------------------------------------

def _duration(span) -> float:
    return span[END] - span[START]


def _children(spans):
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span[PARENT], []).append(i)
    return kids


def _self_time(spans, kids, index) -> float:
    return _duration(spans[index]) - sum(_duration(spans[c]) for c in kids.get(index, ()))


def _within(spans, index, ancestor_name) -> bool:
    parent = spans[index][PARENT]
    while parent != -1:
        if spans[parent][NAME] == ancestor_name:
            return True
        parent = spans[parent][PARENT]
    return False


# (name, unit, better); per_layer_metrics returns exactly these keys
PER_LAYER = [
    ("lookup.populate_s", "s", "lower"),
    ("lookup.save_s", "s", "lower"),
    ("lookup.load_s", "s", "lower"),
    ("lookup.interpolate_s", "s", "lower"),
    ("lookup.interpolate_points", "count", "lower"),
    ("lookup.ns_per_point", "ns", "lower"),
    ("lookup.interpolate_calls", "count", "lower"),
    ("lookup.us_per_call", "us", "lower"),
    ("lookup.diag_snap_frac", "fraction", "lower"),
    ("lookup.range_errors", "count", "lower"),
    ("kernel.build_s", "s", "lower"),
    ("kernel.layer_s_p50", "s", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.entries", "count", "lower"),
    ("kernel.peak_alloc_mb", "MB", "lower"),
    ("regression.posterior_s", "s", "lower"),
    ("regression.gflops", "GFLOP/s", "higher"),
    ("regression.noise_escalations", "count", "lower"),
    ("regression.clamped", "count", "lower"),
    ("regression.peak_alloc_mb", "MB", "lower"),
    ("phase.diagnose_s_p50", "s", "lower"),
    ("phase.diagnose_s_total", "s", "lower"),
    ("phase.critical_line_s", "s", "lower"),
    ("phase.sweep_cell_s_p50", "s", "lower"),
    ("phase.sweep_cell_s_p90", "s", "lower"),
    ("phase.sweep_self_s", "s", "lower"),
    ("phase.sweep_failed_cells", "count", "lower"),
    ("finite_width.sample_s", "s", "lower"),
    ("finite_width.gaussianity_s", "s", "lower"),
    ("finite_width.networks_per_s", "1/s", "higher"),
    ("finite_width.normals_drawn", "count", "lower"),
    ("data.synthetic_s", "s", "lower"),
    ("data.preprocess_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_metrics(spans: list, overhead_s: float) -> tuple[dict, dict]:
    """(metric values, timing summaries) from one traced run's spans.

    Layers the workload never calls read 0. Counts marked computed in the
    README come from sizes, not from timers.
    """
    kids = _children(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_duration(spans[i]) for i in idx(name))

    def attr_sum(name, key):
        return sum((spans[i][ATTRS] or {}).get(key, 0) for i in idx(name))

    def median_of(indices):
        return statistics.median(_duration(spans[i]) for i in indices) if indices else 0.0

    m: dict[str, float] = {}
    summaries: dict[str, dict] = {}

    m["lookup.populate_s"] = total("lookup.populate")
    m["lookup.save_s"] = total("lookup.save_table")
    m["lookup.load_s"] = median_of(idx("lookup.load_table"))

    interp = idx("lookup.interpolate")
    interp_s = total("lookup.interpolate")
    points = attr_sum("lookup.interpolate", "points")
    m["lookup.interpolate_s"] = interp_s
    m["lookup.interpolate_points"] = points
    m["lookup.ns_per_point"] = 1e9 * interp_s / points if points else 0.0
    m["lookup.interpolate_calls"] = len(interp)
    m["lookup.us_per_call"] = 1e6 * interp_s / len(interp) if interp else 0.0
    m["lookup.diag_snap_frac"] = (attr_sum("lookup.interpolate", "snapped") / points
                                  if points else 0.0)
    m["lookup.range_errors"] = sum(
        1 for i in interp if (spans[i][ATTRS] or {}).get("error") == "TableRangeError")
    summaries["lookup.interpolate_call_s"] = timing.summary(
        _duration(spans[i]) for i in interp)

    builds = idx("kernel.build_kernel_matrix")
    build_s = total("kernel.build_kernel_matrix")
    interp_in_build = sum(_duration(spans[i]) for i in interp
                          if _within(spans, i, "kernel.build_kernel_matrix"))
    layers = [i for i in idx("kernel.layer") if spans[i][ATTRS]["layer"] >= 1]
    m["kernel.build_s"] = build_s
    m["kernel.layer_s_p50"] = median_of(layers)
    m["kernel.self_s"] = build_s - interp_in_build
    entries = 0
    for i in builds:
        a = spans[i][ATTRS] or {}
        if "n_train" in a:
            n_tr, n_te = a["n_train"], a["n_test"]
            entries += a["depth"] * (n_tr * (n_tr - 1) // 2 + n_tr * n_te)
    m["kernel.entries"] = entries
    m["kernel.peak_alloc_mb"] = max(
        [(spans[i][ATTRS] or {}).get("alloc", 0) for i in builds], default=0) / 2**20
    summaries["kernel.layer_s"] = timing.summary(_duration(spans[i]) for i in layers)

    posts = idx("regression.posterior")
    post_s = total("regression.posterior")
    flops = 0.0
    escalations = 0
    for i in posts:
        a = spans[i][ATTRS] or {}
        if "n_train" not in a:
            continue
        n = a["n_train"]
        flops += n ** 3 / 3 + 2 * n * n * a["d_out"] + 2 * n * n * a["n_test"]
        if a["noise"] > 0.0:
            escalations += round(math.log10(a["noise_used"] / a["noise"]))
    m["regression.posterior_s"] = post_s
    m["regression.gflops"] = flops / post_s / 1e9 if post_s else 0.0
    m["regression.noise_escalations"] = escalations
    m["regression.clamped"] = attr_sum("regression.posterior", "clamped")
    m["regression.peak_alloc_mb"] = max(
        [(spans[i][ATTRS] or {}).get("alloc", 0) for i in posts], default=0) / 2**20

    diag = idx("phase.diagnose")
    m["phase.diagnose_s_p50"] = median_of(diag)
    m["phase.diagnose_s_total"] = total("phase.diagnose")
    m["phase.critical_line_s"] = total("phase.critical_line")
    summaries["phase.diagnose_s"] = timing.summary(_duration(spans[i]) for i in diag)
    cells: list[float] = []
    sweep_self = 0.0
    for s in idx("phase.heatmap_sweep"):
        sweep_self += _self_time(spans, kids, s)
        starts = [spans[c][START] for c in kids.get(s, ())
                  if spans[c][NAME] == "kernel.build_kernel_matrix"]
        bounds = starts + [spans[s][END]]
        cells += [b - a for a, b in zip(bounds, bounds[1:])]
    cell_summary = timing.summary(cells)
    m["phase.sweep_cell_s_p50"] = statistics.median(cells) if cells else 0.0
    m["phase.sweep_cell_s_p90"] = (statistics.quantiles(cells, n=10)[-1]
                                   if len(cells) > 1 else m["phase.sweep_cell_s_p50"])
    m["phase.sweep_self_s"] = sweep_self
    m["phase.sweep_failed_cells"] = attr_sum("phase.heatmap_sweep", "failed_cells")
    summaries["phase.sweep_cell_s"] = cell_summary

    sample_s = total("finite_width.sample_empirical_kernel")
    gauss_s = total("finite_width.gaussianity_check")
    networks = (attr_sum("finite_width.sample_empirical_kernel", "networks")
                + attr_sum("finite_width.gaussianity_check", "networks"))
    m["finite_width.sample_s"] = sample_s
    m["finite_width.gaussianity_s"] = gauss_s
    m["finite_width.networks_per_s"] = (networks / (sample_s + gauss_s)
                                        if sample_s + gauss_s else 0.0)
    m["finite_width.normals_drawn"] = (
        attr_sum("finite_width.sample_empirical_kernel", "normals")
        + attr_sum("finite_width.gaussianity_check", "normals"))

    m["data.synthetic_s"] = median_of(idx("data.synthetic_blobs"))
    m["data.preprocess_s"] = median_of(idx("data.preprocess"))
    m["experiment.self_s"] = sum(_self_time(spans, kids, i)
                                 for i in idx("experiment.run_experiment"))
    m["trace.overhead_s"] = overhead_s

    if list(m) != [name for name, _, _ in PER_LAYER]:
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return m, summaries
