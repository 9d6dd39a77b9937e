"""Golden output of the mine phase on every execution path.

Every digest below is a sha256 over what one mine leaves behind: the
itemsets in the order the ``ListCollector`` received them, and the
Meter's ``peak_bytes`` and ``total_ops``. They were computed at commit
eb5d8d2, before the in-memory mine resolved its prefix paths in one
ascending sweep, and must not change: emission order is what the
collectors, the pattern index and ``--jobs`` replay see, and the Meter
totals are what the experiment tables report.

Paths where the caller passes no Meter (``mine_with_budget`` and
``StreamingBuilder.finish``) run under a tracer: the mine meters itself
for its span deltas, and :func:`repro.obs.report.meter_from_trace`
rebuilds the same totals from the spans.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import obs
from repro.budget import mine_with_budget
from repro.core.cfp_growth import (
    DEFAULT_CACHE_BUDGET,
    mine_array,
    mine_rank_transactions,
)
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import ListCollector
from repro.machine import Meter
from repro.obs.report import meter_from_trace
from repro.obs.tracer import Tracer
from repro.storage import PAGE_SIZE
from repro.streaming.builder import CountingPhase, StreamingBuilder
from repro.util.items import prepare_transactions
from tests.conftest import paper_example_database, random_database

#: ``(database, min_support)`` per input.
INPUTS = {
    "paper": lambda: (paper_example_database(), 2),
    "random-1": lambda: (random_database(1), 3),
    "random-7": lambda: (random_database(7, 120, 20, 12), 4),
    "random-23": lambda: (random_database(23, 200, 30, 18), 5),
}

#: The out-of-core input: its CFP-array (about 12 KB) spills to a
#: partitioned store of several partitions at a two-page budget.
SPILL = (random_database(23, 2000, 60, 10), 40, 2 * PAGE_SIZE)


def _digest(itemsets, peak_bytes: int, total_ops: int) -> str:
    payload = [[list(items), support] for items, support in itemsets]
    return hashlib.sha256(
        json.dumps([payload, peak_bytes, total_ops]).encode()
    ).hexdigest()


def _array(database, min_support):
    table, transactions = prepare_transactions(database, min_support)
    return convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))


def _traced(run):
    """Run ``run()`` under a fresh tracer; return its result and Meter."""
    tracer = Tracer()
    previous = obs.set_tracer(tracer)
    try:
        result = run()
    finally:
        obs.set_tracer(previous)
    return result, meter_from_trace(tracer.export())


def _mine(path: str, database, min_support: int) -> str:
    collector = ListCollector()
    meter = Meter()
    if path in ("array", "cached", "traced"):
        array = _array(database, min_support)
        if path == "cached":
            array.set_cache_budget(DEFAULT_CACHE_BUDGET)
        if path == "traced":
            _traced(lambda: mine_array(array, min_support, collector, meter=meter))
        else:
            mine_array(array, min_support, collector, meter=meter)
        itemsets = collector.itemsets
    elif path == "jobs-2":
        table, transactions = prepare_transactions(database, min_support)
        mine_rank_transactions(
            transactions, len(table), min_support, collector, meter=meter, jobs=2
        )
        itemsets = collector.itemsets
    else:  # "finish": the streaming builder's convert-and-mine
        counting = CountingPhase()
        counting.add_batch(database)
        builder = StreamingBuilder(counting.finish(min_support))
        builder.add_batch(database)
        itemsets, meter = _traced(builder.finish)
    return _digest(itemsets, meter.peak_bytes, meter.total_ops)


#: Digests computed at commit eb5d8d2; see the module docstring.
GOLDEN: dict[str, str] = {
    "array/paper": "abcab56e115a99afc56774b232762996a7a04513c4314aa52618808ee2e40e0c",
    "array/random-1": "54a70afb8a553b050d91a75b0ad706d4440d60c4a124c4e193959d356ec25027",
    "array/random-7": "459be117202402e631816f6d205ef72e872b6407450ee5e7ed3e172707012a01",
    "array/random-23": "9a25fe92cb8beddacac3069f6447a35244dd861e2031b363547a62a36001ccbd",
    "cached/paper": "abcab56e115a99afc56774b232762996a7a04513c4314aa52618808ee2e40e0c",
    "cached/random-1": "54a70afb8a553b050d91a75b0ad706d4440d60c4a124c4e193959d356ec25027",
    "cached/random-7": "459be117202402e631816f6d205ef72e872b6407450ee5e7ed3e172707012a01",
    "cached/random-23": "9a25fe92cb8beddacac3069f6447a35244dd861e2031b363547a62a36001ccbd",
    "traced/paper": "abcab56e115a99afc56774b232762996a7a04513c4314aa52618808ee2e40e0c",
    "traced/random-1": "54a70afb8a553b050d91a75b0ad706d4440d60c4a124c4e193959d356ec25027",
    "traced/random-7": "459be117202402e631816f6d205ef72e872b6407450ee5e7ed3e172707012a01",
    "traced/random-23": "9a25fe92cb8beddacac3069f6447a35244dd861e2031b363547a62a36001ccbd",
    "jobs-2/paper": "976d9f07a40d9b472ee1bc5306f09bfff77e61b797261978ba54ffbe6dd28102",
    "jobs-2/random-1": "c86e8af30fc9bc1bfffdfc0bc1e9c1d5ff5f4d5cc6217f0229ecf7e9a24d3122",
    "jobs-2/random-7": "6d72f0fa04a52f5931df1776542d87876a870dec2e11acdfb494d0a12a26dd84",
    "jobs-2/random-23": "16121345b3144f108654115a6e8d55d6bd5f56b99007b02efbf82d5466ea4933",
    "finish/paper": "2a08bc52f071f3064499d878c6ac55a820f8968b451d5585211d4d12467c2efb",
    "finish/random-1": "2c62625577e87c2d365d5ac657dfc060ab1e4989801fb8b1c4370f0391529546",
    "finish/random-7": "32f5eaaab998646d13b562400b377fd7a15f251d223298d857fd62238013320d",
    "finish/random-23": "e566f1851cdb929fac4a15c861791b5ed333f62781095731db65a91ee8a757ea",
    "budget/spill": "1e4c9900e83d358135361134600d550ea357736304bbbc2c8b5700e6ecc88493",
    "array/spill": "c29a9e328ac64c912ae46e1987b957c2d51f31d375656f155e6898d6e4e02e71",
    "cached/spill": "c29a9e328ac64c912ae46e1987b957c2d51f31d375656f155e6898d6e4e02e71",
}

PATHS = ["array", "cached", "traced", "jobs-2", "finish"]


@pytest.fixture(autouse=True)
def _no_serial_fallback(monkeypatch):
    # The inputs are tiny; without this the jobs-2 path would fall back to
    # the serial miner instead of exercising the worker pool.
    monkeypatch.setenv("REPRO_PARALLEL_MIN_BYTES", "0")


@pytest.mark.parametrize("source", list(INPUTS))
@pytest.mark.parametrize("path", PATHS)
def test_mine_is_identical(path, source):
    database, min_support = INPUTS[source]()
    assert _mine(path, database, min_support) == GOLDEN[f"{path}/{source}"]


def test_out_of_core_mine(tmp_path):
    database, min_support, budget = SPILL
    (itemsets, report), meter = _traced(
        lambda: mine_with_budget(database, min_support, budget, spill_dir=tmp_path)
    )
    assert report.went_out_of_core and report.partitions > 2
    digest = _digest(itemsets, meter.peak_bytes, meter.total_ops)
    assert digest == GOLDEN["budget/spill"]


def test_spill_input_in_core():
    database, min_support, __ = SPILL
    for path in ("array", "cached"):
        assert _mine(path, database, min_support) == GOLDEN[f"{path}/spill"]
