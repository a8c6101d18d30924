"""The tracer's accounting, the run's outcome counting and the metric table."""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import resodrift as rd  # noqa: E402
import resodrift.experiments as rde  # noqa: E402
import tracer as tracing  # noqa: E402


def traced(fn):
    """(result, metrics, tracer) of one call made with the tracer installed."""
    t = tracing.Tracer()
    t.install()
    try:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    finally:
        t.uninstall()
    agg, counters = t.totals()
    return result, tracing.layer_metrics(agg, counters, wall, 0), t


def test_counts_and_self_times():
    bundle = rd.make_bundle("reduced-moser", 1e-3)
    rec, m, t = traced(lambda: rd.run_drift_experiment(bundle))
    wall = m["trace.wall_s"]
    assert m["integrate.rhs_evals"] == rec.orbit.n_rhs_evals
    assert m["integrate.steps"] == rec.orbit.n_steps
    assert m["systems.rhs_calls"] == rec.orbit.n_rhs_evals
    assert m["poly.calls"] > 0 and m["fourier.calls"] > 0
    assert m["poly.scalar_us"] > 0
    assert 0.0 <= m["trace.unattributed_s"] <= wall
    spans = t.spans()
    names = {s[2] for s in spans}
    assert {"run_drift_experiment", "integrate", "SystemBundle.vector_field"} <= names
    assert "PolyField.__call__" not in names  # the finest calls are only summed


def test_worker_threads_stay_within_the_wall():
    entry = rd.get_entry("reduced-moser")
    result, m, _ = traced(lambda: rd.sweep_epsilon(entry.system, entry.perturbation, [1e-2, 3e-3, 1e-3]))
    assert m["integrate.rhs_evals"] == sum(r.orbit.n_rhs_evals for r in result.records)
    assert m["trace.unattributed_s"] >= -1e-9
    assert 0.0 < m["experiments.sweep_s"] <= m["trace.wall_s"]


def test_uninstall_restores_every_name():
    before = (rde.integrate, rd.PolyField.__call__, rd.GeneratorChi.__call__)
    t = tracing.Tracer()
    t.install()
    assert rde.integrate is not before[0]
    assert rd.GeneratorChi.__call__ is rd.GeneratorChi.evaluate  # the alias is patched too
    t.uninstall()
    assert (rde.integrate, rd.PolyField.__call__, rd.GeneratorChi.__call__) == before


def test_union_of_overlapping_intervals():
    assert tracing._union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tracing._union([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_metric_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == list(tracing.METRICS)


def test_run_counts_known_faults_apart_from_check_failures():
    import run
    from checks import CheckFailed, KnownFault
    from workloads import Op

    def fault(_):
        raise KnownFault("still broken")

    def wrong(_):
        raise CheckFailed("off by 1e-5")

    r = run.Run()
    wall, cpu = r.round([Op("ok", lambda: sum(range(10**6)), lambda v: None),
                         Op("fault", lambda: 1, fault, known_fault=True)])
    assert (r.attempted, r.failed, r.errors) == (2, 1, [])
    assert wall > 0 and cpu > 0 and wall == pytest.approx(sum(r.op_times[0]))
    r.round([Op("wrong", lambda: 1, wrong)])
    assert r.attempted == 3 and len(r.errors) == 1
