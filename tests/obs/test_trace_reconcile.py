"""End-to-end: traces reconcile with the Meter, serial, parallel and paged.

The acceptance property of the observability layer: a ``--trace`` run's
span stream, folded back through ``meter_from_trace``, reproduces the
live Meter's ``ops`` and ``bytes_touched`` totals *exactly* — the span
attributes are deltas of that same meter, so any divergence is a bug in
the bridge, not measurement noise.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.budget import mine_with_budget
from repro.core.cfp_growth import mine_array, mine_rank_transactions
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import ListCollector
from repro.machine import Meter
from repro.obs.report import meter_from_trace, read_trace
from repro.obs.tracer import Tracer
from repro.storage import PAGE_SIZE
from repro.util.items import prepare_transactions
from tests.conftest import normalize, random_database

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Traced legs: in-core mines with 1 and 2 jobs, and a paged spill.
LEGS = [1, 2, "paged"]

#: The paged leg's support and budget: its CFP-array (about 12 KB)
#: spills to a partitioned store of several partitions.
SPILL_SUPPORT = 40
SPILL_BUDGET = 2 * PAGE_SIZE


@pytest.fixture(scope="module")
def check_trace():
    spec = importlib.util.spec_from_file_location(
        "check_trace", REPO_ROOT / "tools" / "check_trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop(spec.name, None)


@pytest.fixture(scope="module")
def prepared():
    database = random_database(23, n_transactions=120, n_items=14, max_length=9)
    table, transactions = prepare_transactions(database, 3)
    return table, transactions


@pytest.fixture(scope="module")
def spilled():
    return random_database(23, n_transactions=2000, n_items=60, max_length=10)


@pytest.fixture(autouse=True)
def _no_serial_fallback(monkeypatch):
    # The fixture array is tiny; disable the small-array serial fallback so
    # jobs=2 runs genuinely exercise the worker span channel.
    monkeypatch.setenv("REPRO_PARALLEL_MIN_BYTES", "0")


def _traced_run(prepared, jobs):
    table, transactions = prepared
    obs.metrics.reset()
    meter = Meter()
    tracer = Tracer()
    previous = obs.set_tracer(tracer)
    collector = ListCollector()
    try:
        mine_rank_transactions(
            transactions, len(table), 3, collector, meter=meter, jobs=jobs
        )
    finally:
        obs.set_tracer(previous)
    return collector, meter, tracer


def _traced_spill(database, spill_dir):
    """The paged leg: ``mine_with_budget`` spills to a partitioned store.

    The spill meters itself for its span deltas, so the live reference is
    the same mine run in core: the Meter counts the mine's work, which
    does not depend on the reader it runs on.
    """
    obs.metrics.reset()
    tracer = Tracer()
    previous = obs.set_tracer(tracer)
    try:
        __, report = mine_with_budget(
            database, SPILL_SUPPORT, SPILL_BUDGET, spill_dir=spill_dir
        )
    finally:
        obs.set_tracer(previous)
    assert report.went_out_of_core and report.partitions > 2
    table, transactions = prepare_transactions(database, SPILL_SUPPORT)
    array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
    meter = Meter()
    mine_array(array, SPILL_SUPPORT, ListCollector(), meter=meter)
    return meter, tracer, list(array.active_ranks_descending())


def _traced_leg(leg, prepared, spilled, tmp_path):
    """``(meter, tracer, active ranks descending)`` of one traced leg."""
    if leg == "paged":
        return _traced_spill(spilled, tmp_path)
    table, transactions = prepared
    __, meter, tracer = _traced_run(prepared, leg)
    array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
    return meter, tracer, list(array.active_ranks_descending())


class TestReconciliation:
    @pytest.mark.parametrize("leg", LEGS)
    def test_trace_totals_equal_meter_totals(self, prepared, spilled, tmp_path, leg):
        meter, tracer, __ = _traced_leg(leg, prepared, spilled, tmp_path)
        path = tmp_path / f"trace{leg}.jsonl"
        tracer.write_jsonl(path, registry=obs.metrics)
        rebuilt = meter_from_trace(read_trace(path).spans)
        assert rebuilt.total_ops == meter.total_ops
        assert sum(p.bytes_touched for p in rebuilt.phases) == sum(
            p.bytes_touched for p in meter.phases
        )

    @pytest.mark.parametrize("leg", LEGS)
    def test_trace_file_validates(
        self, prepared, spilled, tmp_path, check_trace, leg
    ):
        __, tracer, __ = _traced_leg(leg, prepared, spilled, tmp_path)
        path = tmp_path / f"trace{leg}.jsonl"
        tracer.write_jsonl(path, registry=obs.metrics)
        assert check_trace.validate_trace(path) == []

    @pytest.mark.parametrize("leg", LEGS)
    def test_one_mine_rank_span_per_active_rank(
        self, prepared, spilled, tmp_path, leg
    ):
        __, tracer, active = _traced_leg(leg, prepared, spilled, tmp_path)
        ranks = [r.attrs["rank"] for r in tracer.records if r.name == "mine_rank"]
        assert ranks == active

    def test_tracing_does_not_change_results(self, prepared):
        table, transactions = prepared
        plain = ListCollector()
        mine_rank_transactions(transactions, len(table), 3, plain)
        traced, __, __ = _traced_run(prepared, 1)
        assert normalize(traced.itemsets) == normalize(plain.itemsets)

    def test_serial_and_parallel_traces_share_shape(self, prepared):
        __, __, serial = _traced_run(prepared, 1)
        __, __, parallel = _traced_run(prepared, 2)
        serial_ranks = sorted(
            r.attrs["rank"] for r in serial.records if r.name == "mine_rank"
        )
        parallel_ranks = sorted(
            r.attrs["rank"] for r in parallel.records if r.name == "mine_rank"
        )
        assert serial_ranks == parallel_ranks

    def test_parallel_spans_are_worker_tagged_and_parented(self, prepared):
        __, __, tracer = _traced_run(prepared, 2)
        by_name: dict = {}
        for record in tracer.records:
            by_name.setdefault(record.name, []).append(record)
        (pspan,) = by_name["mine_parallel"]
        assert pspan.attrs["jobs"] == 2
        workers = [r.worker for r in by_name["mine_rank"]]
        assert all(w is not None for w in workers)
        assert all(r.parent_id == pspan.span_id for r in by_name["mine_rank"])
        # The worker meter travels inside the span but is folded out
        # before ingestion — it must not leak into the merged trace.
        assert all("meter" not in r.attrs for r in by_name["mine_rank"])

    def test_parallel_merge_is_deterministic(self, prepared):
        def shape(tracer):
            return [
                (r.name, r.worker, r.attrs.get("rank"))
                for r in tracer.records
            ]

        __, __, first = _traced_run(prepared, 2)
        __, __, second = _traced_run(prepared, 2)
        assert shape(first) == shape(second)

    def test_registry_collects_cache_counters(self, prepared):
        # A serial in-memory mine sweeps its array without the cache;
        # --jobs workers still resolve each rank through the cached walk.
        _traced_run(prepared, 2)
        counters = obs.metrics.counters()
        assert counters.get("subarray_cache.hits", 0) > 0

    def test_meter_only_run_stays_untraced(self, prepared):
        table, transactions = prepared
        obs.metrics.reset()
        meter = Meter()
        mine_rank_transactions(
            transactions, len(table), 3, ListCollector(), meter=meter, jobs=2
        )
        # No tracer installed: the registry must stay empty and the meter
        # still aggregates worker instrumentation (the pre-obs behavior).
        assert obs.metrics.counters() == {}
        assert meter.total_ops > 0
