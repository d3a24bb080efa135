"""The benchmark's tracing patches library functions by module attribute.

perfbench/tracing.py replaces ``module.attribute`` for every entry of its
``_TRACE_POINTS`` (and ``capture_posteriors`` replaces ``posterior`` in
``nngp.experiment`` and ``nngp.phase``). A rename in the library would
break traced benchmark runs only, so the names are checked here, and a
small traced run checks that the counts the spans read still exist. The
workloads' checks call the library outside those points too, so the run
workload's checks run here on a small instance, and the phase, table-build
and verify workloads' at full size (about half a second, a second and two
seconds).
"""

import importlib
from pathlib import Path

import numpy as np

import nngp.experiment
import nngp.kernel
import nngp.phase

from .conftest import constant_norm_points

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    points = [(module, attr) for module, attr, *_ in tracing._TRACE_POINTS]
    points += [(nngp.experiment, "posterior"), (nngp.phase, "posterior")]
    missing = [f"{module.__name__}.{attr}" for module, attr in points
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_traced_run_reports_every_per_layer_metric(monkeypatch, small_tanh_table):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    hp = nngp.kernel.NetworkHyperparams(depth=2, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
    x = constant_norm_points(8, 6, seed=0)
    targets = np.eye(2)[np.arange(5) % 2]
    with tracing.Tracer().installed() as tracer:
        k = nngp.kernel.build_kernel_matrix(x[:5], hp, small_tanh_table, x[5:])
        nngp.experiment.posterior(k, targets, hp)
        nngp.phase.diagnose(hp, small_tanh_table)
    metrics, _ = tracing.per_layer_metrics(tracer.spans, 0.0)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["lookup.interpolate_calls"] > 0


def test_run_workload_checks_pass_on_a_small_instance(monkeypatch, tmp_path):
    # RunWorkload.checks calls library functions outside _TRACE_POINTS
    # (kernel.analytic_relu_step among them); its oracle reads the first
    # ORACLE_TRAIN training points, so that is the smallest training set
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    wl = workloads.RunWorkload(n_train=workloads.ORACLE_TRAIN, n_test=20, depth=3)
    state = wl.setup(seed=1, out_dir=tmp_path)
    gap_err, checks = wl.checks(state, None)
    assert all(check.ok for check in checks), checks
    assert gap_err < 1e-2


def test_phase_sweep_workload_checks_pass_and_op_repeats(monkeypatch, tmp_path):
    # PhaseSweepWorkload's op is the benchmark's whole phase path (diagnose
    # grid, both critical lines, sweep); its checks read the critical lines,
    # and two runs of op give one digest
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    wl = workloads.PhaseSweepWorkload()
    state = wl.setup(seed=1, out_dir=tmp_path)
    first, second = wl.op(state), wl.op(state)
    _, checks = wl.checks(state, first)
    assert all(check.ok for check in checks), checks
    assert wl.digest(state, first) == wl.digest(state, second)


def test_table_build_workload_checks_pass_and_op_repeats(monkeypatch, tmp_path):
    # TableBuildWorkload's op builds a table into an empty cache; setup loads
    # the default ReLU table from the tests' cache, which earlier code may
    # have built, so table_matches_cache compares a fresh build with it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    wl = workloads.TableBuildWorkload()
    state = wl.setup(seed=1, out_dir=tmp_path)
    first, second = wl.op(state), wl.op(state)
    _, checks = wl.checks(state, first)
    assert all(check.ok for check in checks), checks
    assert wl.digest(state, first) == wl.digest(state, second)


def test_verify_workload_checks_pass_and_op_repeats(monkeypatch, tmp_path):
    # VerifyWorkload's op is the nngp verify path (kernel, then the Monte-Carlo
    # sample); its check reads the deviation in jackknife standard errors, and
    # two runs of op give one digest
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    wl = workloads.VerifyWorkload()
    state = wl.setup(seed=1, out_dir=tmp_path)
    first, second = wl.op(state), wl.op(state)
    _, checks = wl.checks(state, first)
    assert all(check.ok for check in checks), checks
    assert wl.digest(state, first) == wl.digest(state, second)
