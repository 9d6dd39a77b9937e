"""Unit tests for the tracer, the metric registry, and trace-file I/O."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.obs import NULL_SPAN, Tracer, get_tracer, maybe_span, set_tracer
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    TraceError,
    format_trace_summary,
    is_trace_file,
    meter_from_trace,
    read_trace,
    summarize_spans,
)
from tests.conftest import random_database

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_tool(name):
    """Import ``tools/<name>.py`` by path; yields the module."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop(spec.name, None)


@pytest.fixture(scope="module")
def check_trace():
    yield from _load_tool("check_trace")


@pytest.fixture(scope="module")
def trace_overhead():
    yield from _load_tool("trace_overhead")


class TestSpans:
    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == outer.span_id
        # Children close first, so they precede their parent in the list.
        assert [r.name for r in tracer.records] == ["inner", "outer"]

    def test_attrs_set_and_add(self):
        tracer = Tracer()
        with tracer.span("s", fixed=1) as span:
            span.set("k", "v")
            span.add("n")
            span.add("n", 4)
        record = tracer.records[0]
        assert record.attrs == {"fixed": 1, "k": "v", "n": 5}

    def test_span_records_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert [r.name for r in tracer.records] == ["doomed"]
        assert tracer.current_span_id is None

    def test_complete_span_records_root_without_stack(self):
        import time

        tracer = Tracer()
        started = time.perf_counter()
        with tracer.span("open"):
            record = tracer.complete_span("late", started, {"op": "x"})
            # The retroactive span must not become the current parent.
            with tracer.span("child"):
                pass
        assert record.parent_id is None
        assert record.attrs == {"op": "x"}
        assert record.duration_s >= 0
        by_name = {r.name: r for r in tracer.records}
        assert by_name["child"].parent_id == by_name["open"].span_id
        ids = [r.span_id for r in tracer.records]
        assert len(set(ids)) == len(ids)

    def test_durations_non_negative_and_ids_unique(self):
        tracer = Tracer()
        for __ in range(5):
            with tracer.span("s"):
                pass
        ids = [r.span_id for r in tracer.records]
        assert len(set(ids)) == 5
        assert all(r.duration_s >= 0 for r in tracer.records)


class TestInstallation:
    def test_default_is_off(self):
        assert get_tracer() is None

    def test_set_returns_previous(self):
        first = Tracer()
        second = Tracer()
        assert set_tracer(first) is None
        assert set_tracer(second) is first
        assert get_tracer() is second
        set_tracer(None)

    def test_maybe_span_null_when_off(self):
        with maybe_span("anything") as span:
            assert span is NULL_SPAN
            span.set("k", 1)  # must be a silent no-op
            span.add("k")

    def test_maybe_span_records_when_on(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            with maybe_span("phase", a=1) as span:
                span.set("b", 2)
        finally:
            set_tracer(None)
        assert tracer.records[0].attrs == {"a": 1, "b": 2}


class TestIngest:
    def _worker_records(self, name):
        worker = Tracer()
        with worker.span(name, rank=7) as span:
            with worker.span("child"):
                pass
            span.set("meter", {"x": 1})
        return worker.export()

    def test_reparents_foreign_roots(self):
        parent = Tracer()
        with parent.span("mine_parallel") as pspan:
            parent.ingest(
                self._worker_records("mine_rank"),
                parent_id=pspan.span_id,
                worker=3,
            )
        by_name = {r.name: r for r in parent.records}
        assert by_name["mine_rank"].parent_id == pspan.span_id
        assert by_name["child"].parent_id == by_name["mine_rank"].span_id
        assert by_name["mine_rank"].worker == 3
        assert by_name["mine_parallel"].worker is None

    def test_ids_reassigned_without_collision(self):
        parent = Tracer()
        with parent.span("top"):
            pass
        parent.ingest(self._worker_records("a"))
        parent.ingest(self._worker_records("b"))
        ids = [r.span_id for r in parent.records]
        assert len(set(ids)) == len(ids)

    def test_fixed_order_is_deterministic(self):
        batches = [self._worker_records(f"rank{i}") for i in range(3)]

        def merged():
            parent = Tracer()
            with parent.span("root") as root:
                for worker, records in enumerate(batches):
                    parent.ingest(records, parent_id=root.span_id, worker=worker)
            return [
                (r.name, r.parent_id, r.worker, tuple(sorted(r.attrs)))
                for r in parent.records
            ]

        assert merged() == merged()


class TestRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.add("c")
        registry.add("c", 4)
        registry.set_gauge("g", 2.5)
        assert registry.get("c") == 5
        assert registry.get("missing") == 0
        assert registry.get_gauge("g") == 2.5
        snapshot = registry.snapshot()
        assert snapshot == {
            "counters": {"c": 5},
            "gauges": {"g": 2.5},
            "histograms": {},
        }
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_histograms(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 100.0):
            registry.observe("latency", value)
        histogram = registry.histogram("latency")
        assert histogram is not None
        assert histogram.count == 4
        assert histogram.min == 1.0
        assert histogram.max == 100.0
        # Percentiles are bucket-approximate but bounded by the extremes.
        assert 1.0 <= registry.percentile("latency", 0.5) <= 4.0
        assert registry.percentile("latency", 1.0) == 100.0
        assert registry.percentile("missing", 0.5) == 0.0
        summary = registry.histograms()["latency"]
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(106.0)
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert summary["p50"] <= summary["p90"] <= summary["p99"] <= 100.0
        registry.reset()
        assert registry.histogram("latency") is None

    def test_histogram_empty_and_negative(self):
        registry = MetricsRegistry()
        registry.observe("h", -5.0)  # clamps to 0
        assert registry.histogram("h").snapshot()["max"] == 0.0
        assert registry.percentile("h", 0.99) == 0.0

    def test_ratio(self):
        registry = MetricsRegistry()
        registry.add("cache.hits", 3)
        registry.add("cache.misses", 1)
        assert registry.ratio(
            "cache.hits", "cache.hits", "cache.misses"
        ) == pytest.approx(0.75)
        assert registry.ratio("nope.hits", "nope.hits", "nope.misses") == 0.0


class TestTraceFileRoundtrip:
    def _write(self, tmp_path, with_metrics=True):
        tracer = Tracer()
        with tracer.span("build", ops=10, bytes_touched=100, peak_bytes=64):
            pass
        with tracer.span("mine_rank", ops=5, bytes_touched=7):
            pass
        registry = MetricsRegistry()
        registry.add("subarray_cache.hits", 8)
        registry.add("subarray_cache.misses", 2)
        registry.set_gauge("budget_bytes", 1024.0)
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path, registry=registry if with_metrics else None)
        return path

    def test_roundtrip(self, tmp_path):
        path = self._write(tmp_path)
        assert is_trace_file(path)
        trace = read_trace(path)
        assert trace.meta["spans"] == 2
        assert {s["name"] for s in trace.spans} == {"build", "mine_rank"}
        assert trace.counters == {
            "subarray_cache.hits": 8,
            "subarray_cache.misses": 2,
        }
        assert trace.gauges == {"budget_bytes": 1024.0}

    def test_validator_accepts(self, tmp_path, check_trace):
        path = self._write(tmp_path)
        assert check_trace.validate_trace(path) == []

    def test_validator_rejects_corruption(self, tmp_path, check_trace):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        # Drop the meta line: first record is now a span.
        (tmp_path / "no_meta.jsonl").write_text("\n".join(lines[1:]) + "\n")
        assert check_trace.validate_trace(tmp_path / "no_meta.jsonl")
        # Duplicate a span line: duplicate id + wrong declared count.
        (tmp_path / "dup.jsonl").write_text(
            "\n".join(lines + [lines[1]]) + "\n"
        )
        problems = check_trace.validate_trace(tmp_path / "dup.jsonl")
        assert any("duplicate span id" in p for p in problems)

    def test_not_a_trace_file(self, tmp_path):
        data = tmp_path / "data.fimi"
        data.write_text("1 2 3\n1 2\n")
        assert not is_trace_file(data)
        with pytest.raises(TraceError):
            read_trace(data)

    def test_meter_from_trace(self, tmp_path):
        trace = read_trace(self._write(tmp_path))
        meter = meter_from_trace(trace.spans)
        assert meter.total_ops == 15
        assert sum(p.bytes_touched for p in meter.phases) == 107
        assert meter.peak_bytes == 64
        # mine_rank maps onto the canonical "mine" phase.
        assert {p.name for p in meter.phases} == {"build", "mine"}

    def test_summary_renders(self, tmp_path):
        trace = read_trace(self._write(tmp_path))
        text = format_trace_summary(trace)
        assert "build" in text
        assert "mine_rank" in text
        assert "meter totals: 15 ops" in text
        assert "80.0% hit ratio" in text
        assert "budget_bytes" in text

    def test_summarize_groups(self):
        spans = [
            {"name": "mine_rank", "dur": 0.5, "attrs": {"ops": 3}, "worker": 0},
            {"name": "mine_rank", "dur": 0.25, "attrs": {"ops": 2}, "worker": 1},
            {"name": "build", "dur": 0.1, "attrs": {}},
        ]
        groups = {g["name"]: g for g in summarize_spans(spans)}
        assert groups["mine_rank"]["count"] == 2
        assert groups["mine_rank"]["ops"] == 5
        assert groups["mine_rank"]["workers"] == 2
        assert groups["build"]["workers"] == 0


class TestDisabledOverhead:
    def test_instrumented_paths_do_not_require_tracer(self):
        # The miner must run identically with tracing off; obs.get_tracer
        # is the only gate and defaults to None.
        assert obs.get_tracer() is None
        from repro.core.cfp_growth import cfp_growth

        results = cfp_growth([[1, 2], [1, 2], [2, 3]], 2)
        assert results


class TestTraceOverhead:
    def test_measure_returns_schema(self, trace_overhead):
        result = trace_overhead.measure_trace_overhead(
            random_database(2, n_transactions=60, n_items=10, max_length=7),
            2,
            repeats=1,
        )
        assert set(result) == {"plain_s", "traced_s", "overhead_pct"}
        assert result["plain_s"] > 0
        assert result["traced_s"] > 0
