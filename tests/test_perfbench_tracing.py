"""The benchmark's tracing patches library functions by module attribute.

perfbench/tracing.py replaces ``module.attribute`` for every entry of its
``_TRACE_POINTS`` (and ``capture_posteriors`` replaces ``posterior`` in
``nngp.experiment`` and ``nngp.phase``). A rename in the library would
break traced benchmark runs only, so the names are checked here.
"""

import importlib
from pathlib import Path

import nngp.experiment
import nngp.phase

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    points = [(module, attr) for module, attr, *_ in tracing._TRACE_POINTS]
    points += [(nngp.experiment, "posterior"), (nngp.phase, "posterior")]
    missing = [f"{module.__name__}.{attr}" for module, attr in points
               if not callable(getattr(module, attr, None))]
    assert not missing
