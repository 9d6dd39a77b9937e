"""The mining workloads: mine-dense (in-core) and mine-ooc (out-of-core).

The parent side (:func:`run`) makes the inputs, computes the oracle and
times set-up; the measured mining happens in a fresh worker process
(``python benchmarks/e2e/wl_mining.py SPEC``) so that its peak RSS is
the mine's own. The worker warms up on the first eighth of the
database, prints ``ready``, then repeats the whole pipeline for the
requested seconds:

* mine-dense: ``repro.core.cfp_growth.cfp_growth`` in-core;
* mine-ooc: ``repro.budget.mine_with_budget`` with the budget at a tenth
  of the CFP-array (at least the two-page pool minimum), so the array is
  spilled to a partitioned store and mined through the buffer pool.

Every repeat's itemsets are hashed and compared with the reference
FP-growth miner's. With tracing on, the worker then calls the layers
one by one and reports per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import datagen
from harness import (
    SETUPS,
    BenchError,
    Child,
    SpanLog,
    lower_quartile,
    normalised,
    reference_s,
)

#: Repeats measured even when they overrun the requested seconds.
MIN_REPEATS = 3

#: Smallest memory budget mine_with_budget accepts (two 4 KiB pool pages).
MIN_BUDGET = 2 * 4096


def digest(itemsets: list[tuple[tuple[Any, ...], int]]) -> str:
    """Order-independent fingerprint of a mining result."""
    canonical = sorted((sorted(items), support) for items, support in itemsets)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def run(name: str, seed: int, opts: Any, workdir: Path, spans: SpanLog) -> dict:
    """One run of a mining workload; returns the workload result dict."""
    from repro.api import build_cfp_array
    from repro.fptree.growth import fp_growth

    shape = datagen.SHAPES[name].scaled(opts.scale)
    database = datagen.transactions(shape, seed)
    table, array = build_cfp_array(database, shape.min_support)
    occurrences = sum(table.rank_supports[1:])
    array_bytes = array.memory_bytes
    del array
    expected = fp_growth(database, shape.min_support)
    if opts.corrupt_oracle:
        items, support = expected[0]
        expected[0] = (items, support + 1)
    oracle = digest(expected)

    input_path = workdir / "input.json"
    input_path.write_text(json.dumps(database))
    spec = {
        "workload": name,
        "input": str(input_path),
        "min_support": shape.min_support,
        "budget": max(MIN_BUDGET, array_bytes // 10) if name == "mine-ooc" else None,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "spill_dir": str(workdir),
        "out": str(workdir / "worker-out.json"),
        "program_trace": str(opts.trace_dir / f"{name}-seed{seed}.program.jsonl"),
        "setup_only": True,
    }
    setups: list[float] = []
    raw_setups: list[float] = []
    for index in range(SETUPS):
        spec["setup_only"] = index + 1 < SETUPS
        spec_path = workdir / f"spec-{index}.json"
        spec_path.write_text(json.dumps(spec))
        before = reference_s()
        worker = Child(
            [sys.executable, str(Path(__file__).resolve()), str(spec_path)],
            workdir,
            stdout=subprocess.PIPE,
        )
        try:
            assert worker.proc.stdout is not None
            line = worker.proc.stdout.readline()
            if line.strip() != "ready":
                worker.reap(60)
                tail = "\n".join(text for __, text in worker.lines[-15:])
                raise BenchError(f"{name} worker failed during set-up:\n{tail}")
            raw_setups.append(time.perf_counter() - worker.started)
            setups.append(normalised(raw_setups[-1], before, reference_s()))
            code = worker.reap(opts.seconds + 150)
        finally:
            worker.stop()
        if code != 0:
            tail = "\n".join(text for __, text in worker.lines[-15:])
            raise BenchError(f"{name} worker exited {code}:\n{tail}")
    out = json.loads(Path(spec["out"]).read_text())

    times = out["normalised_s"]
    failed = sum(1 for got in out["digests"] if got != oracle)
    result: dict[str, Any] = {
        "attempted": len(times),
        "failed": failed,
        "checks": {"itemsets_match_oracle": failed == 0},
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_ms": lower_quartile(times) * 1000.0,
            "peak_rss_mb": worker.maxrss_kb / 1024.0,
            "array_bytes_per_item": array_bytes / occurrences,
        },
        "detail": {
            "transactions": len(database),
            "min_support": shape.min_support,
            "itemsets": len(expected),
            "array_bytes": array_bytes,
            "item_occurrences": occurrences,
            "setup_samples_s": setups,
            "setup_raw_s": raw_setups,
            "pipeline_samples_s": times,
            "pipeline_raw_s": out["times_s"],
            "budget_bytes": spec["budget"],
            "budget_report": out.get("budget_report"),
        },
    }
    if out["bytes_read"]:
        result["detail"]["read_amplification"] = statistics.median(out["bytes_read"]) / array_bytes
    if opts.trace:
        traced = out["traced"]
        result["checks"]["traced_itemsets_match"] = traced["digest"] == oracle
        if traced["digest"] != oracle:
            result["failed"] += 1
        spans.records.extend(traced["spans"])
        layers = traced["layers"]
        untraced = statistics.median(times)
        layers["trace.overhead_pct"] = (traced["normalised_s"] / untraced - 1.0) * 100.0
        if name == "mine-ooc":
            layers["ooc.read_amplification"] = layers["bufferpool.bytes_read"] / array_bytes
        result["layers"] = layers
        result["detail"]["program_trace"] = Path(traced["program_trace"]).name
    return result


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _pipeline(spec: dict, database: list[list[int]], min_support: int) -> tuple[list, Any]:
    from repro.budget import mine_with_budget
    from repro.core.cfp_growth import cfp_growth

    if spec["budget"] is None:
        return cfp_growth(database, min_support), None
    return mine_with_budget(
        database, min_support, spec["budget"], spill_dir=spec["spill_dir"]
    )


def _traced_layers(spec: dict, database: list[list[int]], trace_path: str) -> dict:
    """One pipeline called layer by layer under the program's tracer."""
    from repro import obs
    from repro.budget import MIN_POOL_PAGES, snapshot_plan
    from repro.core.cfp_growth import (
        DEFAULT_CACHE_BUDGET,
        mine_array,
        mine_array_partitioned,
    )
    from repro.core.conversion import convert
    from repro.core.ternary import TernaryCfpTree
    from repro.fptree.growth import ListCollector
    from repro.machine.meter import Meter
    from repro.obs.tracer import Tracer
    from repro.storage import PAGE_SIZE, PartitionedCfpArray
    from repro.storage.cfp_store import save_cfp_array_partitioned
    from repro.util.items import prepare_transactions

    min_support = spec["min_support"]
    log = SpanLog(spec["workload"])
    layers: dict[str, float] = {}
    obs.metrics.reset()
    tracer = Tracer()
    previous = obs.set_tracer(tracer)
    meter = Meter()
    collector = ListCollector()
    try:
        with log.span("pipeline") as root:
            with log.span("util.items.prepare_transactions") as s:
                table, transactions = prepare_transactions(database, min_support)
            layers["items.prepare_s"] = time.perf_counter() - s["start"]
            with log.span("core.ternary.from_rank_transactions") as s:
                tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
            layers["ternary.build_s"] = time.perf_counter() - s["start"]
            layers["ternary.tree_bytes"] = tree.memory_bytes
            with log.span("core.conversion.convert") as s:
                array = convert(tree)
            layers["conversion.convert_s"] = time.perf_counter() - s["start"]
            layers["conversion.array_bytes"] = array.memory_bytes
            layers["conversion.bytes_per_node"] = array.memory_bytes / array.node_count
            nodes = array.node_count
            del tree
            if spec["budget"] is None:
                array.set_cache_budget(DEFAULT_CACHE_BUDGET)
                with log.span("core.cfp_growth.mine_array") as s:
                    mine_array(array, min_support, collector, meter=meter)
                mine_s = time.perf_counter() - s["start"]
                cache = array.cache_counts()
            else:
                budget = spec["budget"]
                with log.span("budget.snapshot_plan"):
                    partition_bytes, hot_bytes = snapshot_plan(budget, array.memory_bytes)
                pool_pages = max(MIN_POOL_PAGES, (budget - hot_bytes) // PAGE_SIZE)
                path = os.path.join(spec["spill_dir"], "traced.cfpa")
                with log.span("storage.cfp_store.save_cfp_array_partitioned") as s:
                    layers["cfp_store.file_bytes"] = save_cfp_array_partitioned(
                        array, path, partition_bytes=partition_bytes or PAGE_SIZE
                    )
                layers["cfp_store.save_s"] = time.perf_counter() - s["start"]
                del array
                with log.span("storage.partitioned.PartitionedCfpArray"):
                    disk = PartitionedCfpArray(path, pool_pages=pool_pages, hot_bytes=hot_bytes)
                try:
                    with log.span("core.cfp_growth.mine_array_partitioned") as s:
                        mine_array_partitioned(disk, min_support, collector, meter=meter)
                    mine_s = time.perf_counter() - s["start"]
                    disk.prefetch_drain()
                    stats = disk.pool.stats
                    cache = disk.cache_counts()
                    layers.update(
                        {
                            "partitioned.mine_s": mine_s,
                            "partitioned.partitions": len(disk.partitions),
                            "partitioned.hot_bytes": disk.hot_bytes,
                            "bufferpool.faults": stats.faults,
                            "bufferpool.hit_ratio": stats.hit_ratio,
                            "bufferpool.bytes_read": stats.bytes_read,
                            "bufferpool.evictions": stats.evictions,
                            "bufferpool.prefetched": stats.prefetched,
                            "bufferpool.prefetch_hits": stats.prefetch_hits,
                            "bufferpool.prefetch_hit_ratio": (
                                stats.prefetch_hits / stats.prefetched if stats.prefetched else 0.0
                            ),
                            "bufferpool.read_retries": stats.read_retries,
                        }
                    )
                finally:
                    disk.close()
                    os.unlink(path)
            itemsets = [
                (table.ranks_to_items(ranks), support) for ranks, support in collector.itemsets
            ]
    finally:
        obs.set_tracer(previous)
        tracer.write_jsonl(trace_path, registry=obs.metrics)
    lookups = cache["hits"] + cache["misses"]
    layers.update(
        {
            "cfp_growth.mine_s": mine_s,
            "cfp_growth.nodes_per_s": nodes / mine_s,
            "cfp_growth.itemsets": len(itemsets),
            "cfp_growth.peak_cond_bytes": meter.peak_bytes,
            "cfp_growth.ops": meter.total_ops,
            "cfp_array.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        }
    )
    wall = root["end"] - root["start"]
    table_ = log.self_times()
    layers["trace.unattributed_pct"] = table_["pipeline"]["self_s"] / wall * 100.0
    if spec["budget"] is None:
        layers.update(_parallel_probe(transactions, len(table), min_support, log))
    return {
        "digest": digest(itemsets),
        "wall_s": wall,
        "layers": layers,
        "spans": log.records,
        "program_trace": trace_path,
    }


def _parallel_probe(transactions: list, n_ranks: int, min_support: int, log: SpanLog) -> dict:
    """Parallel mine and build against their serial paths, jobs <= CPUs."""
    from repro import obs
    from repro.core.build_parallel import build_tree_parallel
    from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET, mine_array
    from repro.core.conversion import convert
    from repro.core.parallel import mine_array_parallel, shutdown_pools, warm_pool
    from repro.core.ternary import TernaryCfpTree
    from repro.fptree.growth import CountCollector

    cpus = len(os.sched_getaffinity(0))
    jobs = min(2, cpus)
    try:
        warm_pool(jobs)
        with log.span("parallel_probe"):
            with log.span("core.ternary.from_rank_transactions") as s:
                tree = TernaryCfpTree.from_rank_transactions(transactions, n_ranks)
            with log.span("core.conversion.convert"):
                array = convert(tree)
            serial_build = time.perf_counter() - s["start"]
            del tree
            with log.span("core.build_parallel.build_tree_parallel", jobs=jobs) as s:
                build_tree_parallel(transactions, n_ranks, jobs=jobs)
            parallel_build = time.perf_counter() - s["start"]
            array.set_cache_budget(DEFAULT_CACHE_BUDGET)
            with log.span("core.cfp_growth.mine_array") as s:
                mine_array(array, min_support, CountCollector())
            serial_mine = time.perf_counter() - s["start"]
            array.set_cache_budget(DEFAULT_CACHE_BUDGET)  # cold cache, like the serial mine
            with log.span("core.parallel.mine_array_parallel", jobs=jobs) as s:
                mine_array_parallel(array, min_support, CountCollector(), jobs=jobs)
            parallel_mine = time.perf_counter() - s["start"]
    finally:
        shutdown_pools()
    mine_speedup = serial_mine / parallel_mine
    build_speedup = serial_build / parallel_build
    # A speedup above the usable CPU count measures warm-up, ordering or a
    # different algorithm, not parallelism: it is reported as 0 and the
    # probe is marked non-comparable.
    return {
        "parallel.mine_s": parallel_mine,
        "parallel.speedup": mine_speedup if mine_speedup <= cpus else 0.0,
        "parallel.cpus_usable": cpus,
        "parallel.comparable": int(jobs > 1 and max(mine_speedup, build_speedup) <= cpus),
        "parallel.serial_fallback": obs.metrics.get("parallel.serial_fallback"),
        "build_parallel.build_s": parallel_build,
        "build_parallel.speedup": build_speedup if build_speedup <= cpus else 0.0,
    }


def worker(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    database = json.loads(Path(spec["input"]).read_text())
    min_support = spec["min_support"]
    warm = database[: max(1, len(database) // 8)]
    _pipeline(spec, warm, max(2, min_support // 8))
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0

    times: list[float] = []
    normal: list[float] = []
    digests: list[str] = []
    bytes_read: list[int] = []
    report = None
    window_end = time.perf_counter() + spec["seconds"]
    reference = reference_s()
    while len(times) < MIN_REPEATS or time.perf_counter() < window_end:
        started = time.perf_counter()
        itemsets, report = _pipeline(spec, database, min_support)
        times.append(time.perf_counter() - started)
        after = reference_s()
        normal.append(normalised(times[-1], reference, after))
        reference = after
        digests.append(digest(itemsets))
        if report is not None:
            bytes_read.append(report.bytes_read)
        del itemsets
    out: dict[str, Any] = {
        "times_s": times,
        "normalised_s": normal,
        "digests": digests,
        "bytes_read": bytes_read,
        "budget_report": vars(report) if report is not None else None,
    }
    if spec["trace"]:
        before = reference_s()
        out["traced"] = traced = _traced_layers(spec, database, spec["program_trace"])
        traced["normalised_s"] = normalised(traced["wall_s"], before, reference_s())
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1]))
