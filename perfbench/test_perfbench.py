"""Tests of the benchmark's own helpers; no Spark session is started.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- tail percentile rule -------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]  # 40 samples
    pct, value = measure.tail(values)
    assert pct == 75.0
    assert value == 30.0
    assert sum(v > value for v in values) == 10


def test_tail_is_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0]
    assert measure.tail(values) == measure.tail(sorted(values))
    assert measure.tail(values) == (100.0 * 2 / 12, 2.0)


def test_tail_of_few_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert measure.tail([float(v) for v in range(10)]) == (100.0, 9.0)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        measure.tail([])


# -- self time with nested spans ---------------------------------------------------


def test_self_time_subtracts_children():
    assert measure.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_merges_overlapping_and_clips_children():
    children = [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0), (-1.0, 0.5)]
    assert measure.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)


def test_self_time_without_children_is_duration():
    assert measure.self_time(2.0, 3.5, []) == pytest.approx(1.5)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_tracer_nested_spans_self_times_and_closure():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.span("api.create_report"):
        clock.advance(1.0)
        with tracer.span("report.compute_report"):
            clock.advance(2.0)
            with tracer.span("correlation.spearman_matrix"):
                clock.advance(0.5)
                with tracer.span("correlation.pearson_matrix"):
                    clock.advance(3.0)
            with tracer.span("correlation.pearson_matrix"):
                clock.advance(4.0)
        clock.advance(0.25)
    selfs = tracer.self_times()
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 2, 1]
    assert [selfs[s.id] for s in tracer.spans] == pytest.approx([1.25, 2.0, 0.5, 3.0, 4.0])
    assert tracer.closure_error() == pytest.approx(0.0, abs=1e-12)

    metrics = spans.layer_metrics(
        tracer, [("correlation.pearson_matrix", "m", "pearson_matrix")], cycles=1
    )
    assert metrics["correlation.pearson_matrix.calls"] == 2
    assert metrics["correlation.pearson_matrix.self_s"] == pytest.approx(3.5)
    assert metrics["correlation.pearson_matrix.jobs"] == 0


def test_disabled_tracer_passes_through():
    tracer = spans.Tracer(clock=FakeClock())
    traced = tracer.wrap("compute.sample_pass", lambda x: x + 1)
    assert traced(1) == 2
    assert tracer.spans == []
    tracer.enabled = True
    assert traced(2) == 3
    assert [s.name for s in tracer.spans] == ["compute.sample_pass"]


def test_install_rebinds_every_namespace(monkeypatch):
    def helper():
        return "helper"

    home = types.ModuleType("repro.fake_home")
    home.helper = helper
    user = types.ModuleType("repro.fake_user")
    user.imported_helper = helper  # as after ``from repro.fake_home import helper``
    monkeypatch.setitem(sys.modules, "repro.fake_home", home)
    monkeypatch.setitem(sys.modules, "repro.fake_user", user)
    tracer = spans.Tracer(clock=FakeClock())
    tracer.enabled = True
    spans.install(tracer, [("fake.helper", "repro.fake_home", "helper")])
    assert home.helper() == "helper" and user.imported_helper() == "helper"
    assert [s.name for s in tracer.spans] == ["fake.helper", "fake.helper"]


# -- fail_frac counting ---------------------------------------------------------------


def test_tally_counts_failed_calls_once_each():
    tally = measure.Tally()
    tally.record("plot(df)", [])
    tally.record("plot(df, num_0)", ["count of num_0: got 1, want 2", "nmissing of num_0: got 0, want 1"])
    tally.record("plot_missing(df)", ["RuntimeError: boom"])
    tally.record("plot_correlation(df)", [])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_frac == 0.5
    assert len(tally.failures) == 2


def test_timed_call_counts_exceptions_and_failed_checks():
    from workloads import Call

    tally = measure.Tally()

    def boom():
        raise RuntimeError("boom")

    run.timed_call(Call("ok", True, lambda: 1, lambda r: []), tally)
    run.timed_call(Call("raises", True, boom, lambda r: []), tally)
    run.timed_call(Call("wrong", True, lambda: 1, lambda r: ["off by one"]), tally)
    run.timed_call(Call("unreadable", True, lambda: None, lambda r: r["x"]), tally)
    assert (tally.attempted, tally.failed) == (4, 3)


# -- metric names ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "compute.basic_stats_pass.self_s", "spark.jobs", "a-b.c_9"])
def test_valid_metric_names(name):
    assert measure.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "slash/name", "x" * 65, "é"])
def test_invalid_metric_names(name):
    assert not measure.valid_metric_name(name)


def benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_what_the_runner_prints():
    bench = benchmark_json()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    functions = spans.traced_functions()
    layer_names = [f"{name}.{q}" for name, _, _ in functions for q in ("self_s", "calls", "jobs")]
    extra = ["spark.jobs", "spark.stages", "spark.tasks", "spark.failed_tasks",
             "spark.jvm_peak_rss_mb", "trace.cycle_s", "trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == layer_names + extra
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(measure.valid_metric_name(n) for n in names)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.workloads.WORKLOADS)
