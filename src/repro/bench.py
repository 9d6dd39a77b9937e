"""Wall-clock benchmarks and the perf-regression harness (``repro bench``).

Unlike :mod:`repro.experiments` (which *simulates* the paper's 6 GB
testbed), this module measures real wall time so perf PRs are judged
against a recorded baseline. One run times the three CFP-growth phases —
build, convert, mine — on synthetic + FIMI-proxy datasets, runs the mine
phase at 1/2/4 workers (serial first, so every speedup is relative to the
same run's serial wall), and writes a ``BENCH_<timestamp>.json`` report:

* per dataset: transaction/rank/node counts, build/convert seconds,
  CFP-array bytes;
* per worker count: mine wall seconds, nodes/sec (top-level array nodes
  over mine wall), speedup vs the serial mine, itemset count (a built-in
  correctness tripwire: it must not vary with the worker count);
* per run: peak RSS (self + reaped workers), platform info, and (unless
  ``--no-serving``) one query-server load leg — 64 concurrent clients
  against an in-process :class:`repro.serving.server.ReproServer` plus a
  columnar-vs-per-node support kernel comparison.

``compare_reports`` diffs a report against a previous one (the committed
``benchmarks/BENCH_baseline.json`` in CI, else the newest ``BENCH_*.json``
on disk) and flags any phase that got more than ``tolerance`` slower —
with an absolute noise floor so micro-jitter on near-zero timings does
not trip the gate. See docs/performance.md for how to read the report.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Iterable

from repro.core import kernels
from repro.core.build_parallel import build_tree_parallel
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET, mine_array
from repro.core.conversion import convert
from repro.core.parallel import mine_array_parallel, warm_pool
from repro.core.ternary import TernaryCfpTree
from repro.datasets.quest import QuestGenerator
from repro.datasets.synthetic import make_kosarak, make_retail
from repro.errors import ReproError
from repro.fptree.growth import CountCollector
from repro.util.items import prepare_transactions

#: Report schema version, bumped on incompatible layout changes.
#: v2 adds the per-jobs ``build`` map (parallel build phase) next to the
#: serial ``build_s``/``convert_s`` scalars, which remain for comparability
#: with v1 reports. v3 adds the top-level ``serving`` leg (query-server
#: load run + columnar-vs-per-node support kernel comparison); v4 adds the
#: top-level ``outofcore`` leg (partitioned mine at a >=10x memory ratio,
#: gated on wall time *and* bytes read); v5 adds the top-level
#: ``incremental`` leg (per-batch delta merges vs from-scratch rebuilds,
#: gated on byte identity and the merge/rebuild wall ratio). Reports
#: without a leg still compare on everything else.
SCHEMA_VERSION = 5

#: Regressions smaller than this many seconds are ignored regardless of
#: ratio — they are timer jitter, not performance.
NOISE_FLOOR_SECONDS = 0.05

#: Default worker counts benchmarked for the mine phase.
DEFAULT_JOBS = (1, 2, 4)

#: Default worker counts benchmarked for the build phase.
DEFAULT_BUILD_JOBS = (1, 2, 4)


def _quest_t10i4(quick: bool) -> tuple[list[list[int]], int]:
    """T10I4D100K-style Quest data: avg |T|=10, avg pattern length 4."""
    scale = 2_000 if quick else 12_000
    generator = QuestGenerator(
        n_transactions=scale,
        avg_transaction_length=10.0,
        avg_pattern_length=4.0,
        n_items=600 if quick else 1_000,
        n_patterns=150 if quick else 300,
        seed=101,
    )
    return generator.generate(), max(2, scale // 200)


def _retail(quick: bool) -> tuple[list[list[int]], int]:
    n = 1_200 if quick else 4_000
    return make_retail(n_transactions=n, n_items=1_600, seed=7), max(2, n // 100)


def _kosarak(quick: bool) -> tuple[list[list[int]], int]:
    n = 1_500 if quick else 6_000
    return make_kosarak(n_transactions=n, seed=13), max(2, n // 100)


#: name -> loader(quick) returning (database, min_support).
DATASETS: dict[str, Callable[[bool], tuple[list[list[int]], int]]] = {
    "quest-T10I4": _quest_t10i4,
    "retail": _retail,
    "kosarak": _kosarak,
}


def _peak_rss_kb() -> int:
    """Peak resident set of this process plus reaped children, in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(own + children)


def bench_dataset(
    database: list[list[int]],
    min_support: int,
    jobs: Iterable[int] = DEFAULT_JOBS,
    build_jobs: Iterable[int] = DEFAULT_BUILD_JOBS,
) -> dict:
    """Time build/convert/mine for one dataset; returns its report entry."""
    started = time.perf_counter()
    table, transactions = prepare_transactions(database, min_support)
    prepare_s = time.perf_counter() - started

    started = time.perf_counter()
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
    build_s = time.perf_counter() - started

    started = time.perf_counter()
    array = convert(tree)
    convert_s = time.perf_counter() - started
    # For the jobs > 1 mines' workers; the serial mine reads no cache.
    array.set_cache_budget(DEFAULT_CACHE_BUDGET)
    del tree

    nodes = array.node_count
    entry: dict = {
        "transactions": len(database),
        "min_support": min_support,
        "n_ranks": array.n_ranks,
        "nodes": nodes,
        "array_bytes": array.memory_bytes,
        "prepare_s": round(prepare_s, 4),
        "build_s": round(build_s, 4),
        "convert_s": round(convert_s, 4),
        "build": {},
        "mine": {},
    }
    # Per-jobs build map: jobs=1 is the serial legs above (tree build plus
    # conversion — the phase build_tree_parallel subsumes); jobs>1 times the
    # sharded build end-to-end, with a byte-identity tripwire against the
    # serial array. Pools are warmed outside the timed region so the fork
    # cost is not billed to the phase.
    serial_build_wall = build_s + convert_s
    entry["build"]["1"] = {
        "wall_s": round(serial_build_wall, 4),
        "speedup": 1.0,
        "identical": True,
    }
    for build_job_count in sorted(set(int(j) for j in build_jobs)):
        if build_job_count <= 1:
            continue
        warm_pool(build_job_count)
        started = time.perf_counter()
        parallel_array = build_tree_parallel(
            transactions, len(table), jobs=build_job_count
        )
        wall = time.perf_counter() - started
        entry["build"][str(build_job_count)] = {
            "wall_s": round(wall, 4),
            "speedup": round(serial_build_wall / wall, 3) if wall > 0 else 1.0,
            "identical": (
                bytes(parallel_array.buffer) == bytes(array.buffer)
                and parallel_array.starts == array.starts
            ),
        }
        del parallel_array
    job_list = sorted(set(int(j) for j in jobs))
    if 1 not in job_list:
        job_list.insert(0, 1)  # speedups are relative to this run's serial mine
    serial_wall: float | None = None
    for job_count in job_list:
        collector = CountCollector()
        started = time.perf_counter()
        if job_count == 1:
            mine_array(array, min_support, collector)
        else:
            mine_array_parallel(array, min_support, collector, jobs=job_count)
        wall = time.perf_counter() - started
        if job_count == 1:
            serial_wall = wall
        entry["mine"][str(job_count)] = {
            "wall_s": round(wall, 4),
            "nodes_per_s": round(nodes / wall) if wall > 0 else None,
            "speedup": round(serial_wall / wall, 3) if serial_wall and wall > 0 else 1.0,
            "itemsets": collector.count,
        }
    return entry


#: Shortest mine each arm of a trace-overhead pair accumulates, in at
#: most ``TRACE_PROBE_MAX_RUNS`` mines: below this, one scheduling hiccup
#: moves a ratio by more than the 8% budget.
TRACE_PROBE_MIN_S = 0.6
TRACE_PROBE_MAX_RUNS = 10


def measure_trace_overhead(
    database: list[list[int]], min_support: int, repeats: int = 25
) -> dict:
    """Cost of tracing on the serial mine phase: the median of paired ratios.

    Each of ``repeats`` pairs mines freshly converted CFP-arrays in
    alternation, one with no tracer installed and the next under a fresh
    :class:`repro.obs.Tracer`, until each arm has mined for at least
    :data:`TRACE_PROBE_MIN_S` of CPU time (per the warm-up mine), and
    gives one traced/plain ratio of the two sums; the overhead is the
    median ratio's. Both arms of a pair see the host in one state, fresh
    arrays and a collected heap keep a run from inheriting another's
    state, and the median drops the pairs a disturbed run spoiled. The
    observability contract (docs/observability.md) is <8% traced and ~0%
    disabled; ``repro bench --trace-overhead`` gates the former.
    """
    from repro import obs
    from repro.obs.tracer import Tracer

    table, transactions = prepare_transactions(database, min_support)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))

    def mine_once(tracer: Tracer | None) -> float:
        array = convert(tree)
        # Every run starts from a collected heap: otherwise a full
        # collection can fall into one arm's runs again and again.
        gc.collect()
        previous = obs.set_tracer(tracer)
        try:
            # CPU time: tracing costs CPU, and a shared host's waits for
            # a core would only add noise to the ratio.
            started = time.process_time()
            mine_array(array, min_support, CountCollector())
            return time.process_time() - started
        finally:
            obs.set_tracer(previous)

    warm = mine_once(None)  # also warms allocator and branch predictors
    runs = min(TRACE_PROBE_MAX_RUNS, math.ceil(TRACE_PROBE_MIN_S / max(warm, 1e-6)))
    plain: list[float] = []
    traced: list[float] = []
    for pair in range(max(1, repeats)):
        plain_s = traced_s = 0.0
        for run in range(runs):
            if (pair + run) % 2:
                traced_s += mine_once(Tracer())
                plain_s += mine_once(None)
            else:
                plain_s += mine_once(None)
                traced_s += mine_once(Tracer())
        plain.append(plain_s / runs)
        traced.append(traced_s / runs)
    ratio = statistics.median(t / p for t, p in zip(traced, plain))
    return {
        "plain_s": round(statistics.median(plain), 4),
        "traced_s": round(statistics.median(traced), 4),
        "overhead_pct": round((ratio - 1.0) * 100.0, 2),
    }


# ----------------------------------------------------------------------
# Out-of-core leg: partitioned mine at a >=10x memory ratio
# ----------------------------------------------------------------------

#: The out-of-core leg mines with at most ``array_bytes / OUTOFCORE_RATIO``
#: bytes of budget — the headline configuration the tiered store exists for.
OUTOFCORE_RATIO = 10


def _quest_ooc(quick: bool) -> tuple[list[list[int]], int]:
    """Dedicated out-of-core dataset: wide vocabulary, low sharing.

    Larger than the regular bench datasets on purpose — the leg needs the
    CFP-array to dwarf a multiple-page budget even in ``--quick`` runs
    (~130 KiB quick, ~700 KiB full), or the 10x ratio would shrink the
    pool below the two-page minimum.
    """
    scale = 4_000 if quick else 20_000
    generator = QuestGenerator(
        n_transactions=scale,
        avg_transaction_length=12.0,
        avg_pattern_length=4.0,
        n_items=900 if quick else 2_000,
        n_patterns=250 if quick else 500,
        seed=202,
    )
    return generator.generate(), max(2, scale // 400)


def bench_outofcore(database: list[list[int]], min_support: int) -> dict:
    """Mine one dataset in-core and partitioned-out-of-core; compare.

    The budget is ``array_bytes / OUTOFCORE_RATIO`` (floored at three
    pages) and splits by :func:`repro.budget.snapshot_plan`, as
    :func:`repro.budget.mine_with_budget` does: a quarter pins the hot
    set, the rest backs the pool, partitions sized to half the pool. The
    leg is a correctness gate as much as a perf probe: the partitioned
    itemsets must be identical to the in-core mine's, the prefetcher
    must actually hit (``prefetch_hits > 0``) or the read-ahead machinery
    has silently stopped earning its thread, and ``bytes_read`` must stay
    under ``(partitions + 1) * file_bytes``.
    """
    import tempfile

    from repro.budget import MIN_POOL_PAGES, snapshot_plan
    from repro.fptree.growth import ListCollector
    from repro.storage import (
        PAGE_SIZE,
        PartitionedCfpArray,
        save_cfp_array_partitioned,
    )

    table, transactions = prepare_transactions(database, min_support)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
    array = convert(tree)
    del tree
    array_bytes = array.memory_bytes
    nodes = array.node_count

    reference = ListCollector()
    started = time.perf_counter()
    mine_array(array, min_support, reference)
    incore_wall = time.perf_counter() - started

    budget = max(3 * PAGE_SIZE, array_bytes // OUTOFCORE_RATIO)
    partition_bytes, hot_bytes = snapshot_plan(budget, array_bytes)
    pool_pages = max(MIN_POOL_PAGES, (budget - hot_bytes) // PAGE_SIZE)

    with tempfile.TemporaryDirectory(prefix="repro-bench-ooc-") as tmp:
        path = f"{tmp}/ooc.cfpa"
        # The plan keeps an array that fits in the three-page floor
        # whole; one-page partitions still exercise the partitioned path.
        file_bytes = save_cfp_array_partitioned(
            array, path, partition_bytes=partition_bytes or PAGE_SIZE
        )
        with PartitionedCfpArray(
            path, pool_pages=pool_pages, hot_bytes=hot_bytes
        ) as disk:
            got = ListCollector()
            started = time.perf_counter()
            mine_array(disk, min_support, got)
            wall = time.perf_counter() - started
            disk.prefetch_drain()
            stats = disk.pool.stats
            entry = {
                "transactions": len(database),
                "min_support": min_support,
                "nodes": nodes,
                "array_bytes": array_bytes,
                "budget_bytes": budget,
                "ratio": round(array_bytes / budget, 2),
                "hot_bytes": disk.hot_bytes,
                "pool_pages": pool_pages,
                "partitions": len(disk.partitions),
                "incore_wall_s": round(incore_wall, 4),
                "wall_s": round(wall, 4),
                "nodes_per_s": round(nodes / wall) if wall > 0 else None,
                "slowdown": (
                    round(wall / incore_wall, 2) if incore_wall > 0 else None
                ),
                "faults": stats.faults,
                "file_bytes": file_bytes,
                "bytes_read": stats.bytes_read,
                "read_amplification": round(stats.bytes_read / array_bytes, 2),
                "prefetched": stats.prefetched,
                "prefetch_hits": stats.prefetch_hits,
                "prefetch_hit_rate": (
                    round(stats.prefetch_hits / stats.prefetched, 3)
                    if stats.prefetched
                    else 0.0
                ),
                "identical": got.itemsets == reference.itemsets,
                "itemsets": len(got.itemsets),
            }
    return entry


# ----------------------------------------------------------------------
# Incremental leg: delta merges vs from-scratch rebuilds
# ----------------------------------------------------------------------

#: Batches the incremental leg streams — the configuration the ISSUE's
#: acceptance gate names (delta-merge wall < 0.5x rebuild wall at 8).
INCREMENTAL_BATCHES = 8

#: Hard gate on ``incremental_wall_s / rebuild_wall_s``: above this the
#: incremental path has stopped paying for its complexity.
INCREMENTAL_MAX_RATIO = 0.5


def bench_incremental(
    database: list[list[int]],
    min_support: int,
    batches: int = INCREMENTAL_BATCHES,
) -> dict:
    """Stream one dataset in batches; compare against per-batch rebuilds.

    The incremental arm maintains the window forest across ``batches``
    appends (delta tree build + flatten + merge each) and converts once
    at the end — the `repro stream` maintenance shape. The baseline arm
    rebuilds the CFP-tree from scratch over each growing prefix and
    converts it every batch — what a non-incremental pipeline would do
    to keep a snapshot fresh. Both use the same frozen item table, so
    the final arrays must be **byte-identical** (the tripwire `repro
    bench` hard-gates) and the wall ratio must stay under
    :data:`INCREMENTAL_MAX_RATIO`.
    """
    from repro.streaming import CountingPhase, IncrementalMiner

    counting = CountingPhase()
    counting.add_batch(database)
    table = counting.finish(min_support)
    rank_of = table.rank_of
    size = max(1, (len(database) + batches - 1) // batches)
    chunks = [database[start : start + size] for start in range(0, len(database), size)]

    miner = IncrementalMiner(table)
    incremental_wall = 0.0
    for chunk in chunks:
        started = time.perf_counter()
        miner.append_batch(chunk)
        incremental_wall += time.perf_counter() - started
    started = time.perf_counter()
    incremental_array = miner.to_array()
    incremental_wall += time.perf_counter() - started

    rebuild_wall = 0.0
    rebuilt = None
    prefix: list[list[int]] = []
    for chunk in chunks:
        prefix.extend(chunk)
        started = time.perf_counter()
        ranked = [
            sorted({rank_of[item] for item in transaction if item in rank_of})
            for transaction in prefix
        ]
        tree = TernaryCfpTree.from_rank_transactions(ranked, len(table))
        rebuilt = convert(tree)
        rebuild_wall += time.perf_counter() - started
        del tree
    assert rebuilt is not None
    return {
        "batches": len(chunks),
        "transactions": len(database),
        "min_support": min_support,
        "nodes": incremental_array.node_count,
        "array_bytes": incremental_array.memory_bytes,
        "incremental_wall_s": round(incremental_wall, 4),
        "rebuild_wall_s": round(rebuild_wall, 4),
        "ratio": (
            round(incremental_wall / rebuild_wall, 3) if rebuild_wall > 0 else None
        ),
        "identical": (
            bytes(incremental_array.buffer) == bytes(rebuilt.buffer)
            and incremental_array.starts == rebuilt.starts
        ),
    }


# ----------------------------------------------------------------------
# Serving leg: query-server load + support-kernel comparison
# ----------------------------------------------------------------------

#: Concurrent clients the serving leg drives — the paper-repro target is
#: "one shared buffer pool serves 64 concurrent clients", so the bench
#: leg demonstrates exactly that number even in ``--quick`` runs.
SERVING_CLIENTS = 64


def _per_node_support(array, ranks: list[int]) -> int:
    """Reference per-node support walk (the pre-columnar query shape).

    One ``path_ranks`` decode per node of the least frequent rank's
    subarray — the loop shape INV008 bans from the mine/query hot path,
    kept here (bench-only) as the baseline
    :func:`repro.util.queries.support_in_cfp_array` is measured against.
    """
    wanted = sorted(set(ranks))
    least = wanted[-1]
    others = set(wanted[:-1])
    support = 0
    for local, __, ___, count in array.iter_subarray(least):
        if others <= set(array.path_ranks(least, local)):
            support += count
    return support


def _time_queries(run_one, querysets: list[list[int]], repeats: int) -> float:
    """Best-of-``repeats`` wall time of running every queryset once."""
    best: float | None = None
    for __ in range(max(1, repeats)):
        started = time.perf_counter()
        for ranks in querysets:
            run_one(ranks)
        wall = time.perf_counter() - started
        best = wall if best is None else min(best, wall)
    return best or 0.0


def _support_kernel_compare(store, n_queries: int = 32, repeats: int = 3) -> dict:
    """Support query vs per-node walk timing over the store's top itemsets.

    Queries are the store's ``n_queries`` highest-support itemsets of
    length >= 2 (singletons short-circuit to a column sum and would
    measure nothing). Both kernels answer every query once per repeat on
    the same pooled array; a disagreement raises — the comparison doubles
    as a parity check on the reference walk. ``top_k`` mines the store's
    pattern index first, which fills the array's path memo, so the
    ``support_columnar_s`` side times queries answered from memoized
    paths, not the header walk of a cold store.
    """
    from repro.util.queries import support_in_cfp_array

    table = store.table
    querysets = [
        [table.rank_of[item] for item in itemset]
        for itemset, __ in store.top_k(n_queries, min_length=2)
    ]
    array = store.array
    for ranks in querysets:
        if support_in_cfp_array(array, ranks) != _per_node_support(array, ranks):
            raise ReproError(
                f"columnar and per-node support disagree on ranks {ranks}"
            )
    columnar_s = _time_queries(
        lambda ranks: support_in_cfp_array(array, ranks), querysets, repeats
    )
    per_node_s = _time_queries(
        lambda ranks: _per_node_support(array, ranks), querysets, repeats
    )
    return {
        "support_queries": len(querysets),
        "support_columnar_s": round(columnar_s, 4),
        "support_per_node_s": round(per_node_s, 4),
        "support_speedup": (
            round(per_node_s / columnar_s, 2) if columnar_s > 0 else None
        ),
    }


def bench_serving(
    database: list[list[int]],
    min_support: int,
    clients: int = SERVING_CLIENTS,
    requests_per_client: int = 8,
    seed: int = 17,
) -> dict:
    """Serve-path leg: build a store, load-test it, compare support kernels.

    Builds a CFP-array store in a temp directory, drives ``clients``
    concurrent NDJSON clients through :func:`repro.serving.loadgen.run_load`
    (every answer parity-checked against direct calls), and appends the
    columnar-vs-per-node support microbenchmark. The returned dict is the
    report's top-level ``serving`` entry.
    """
    import tempfile

    from repro.serving.loadgen import run_load
    from repro.serving.store import ServingStore, build_store

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        array_path = f"{tmp}/store.cfpa"
        build_store(database, min_support, array_path)
        with ServingStore(array_path) as store:
            load = run_load(
                store,
                clients=clients,
                requests_per_client=requests_per_client,
                seed=seed,
            )
            entry = load.to_dict()
            entry["requests_per_client"] = requests_per_client
            entry.update(_support_kernel_compare(store))
    return entry


def run_bench(
    dataset_names: Iterable[str] | None = None,
    jobs: Iterable[int] = DEFAULT_JOBS,
    quick: bool = False,
    datasets: dict[str, tuple[list[list[int]], int]] | None = None,
    build_jobs: Iterable[int] = DEFAULT_BUILD_JOBS,
    serving: bool = False,
    outofcore: bool = False,
    incremental: bool = False,
) -> dict:
    """Run the benchmark suite and return the report dict.

    ``datasets`` injects prepared ``{name: (database, min_support)}`` pairs
    directly (tests use this); otherwise ``dataset_names`` picks from the
    registry (default: all of it).
    """
    if datasets is None:
        names = list(dataset_names) if dataset_names else list(DATASETS)
        datasets = {}
        for name in names:
            try:
                loader = DATASETS[name]
            except KeyError:
                known = ", ".join(sorted(DATASETS))
                raise SystemExit(f"unknown bench dataset {name!r}; known: {known}")
            datasets[name] = loader(quick)
    report: dict = {
        "schema": SCHEMA_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            # Which varint decode kernel produced these numbers — a report
            # from a numpy machine is not comparable to a stdlib-only one.
            "kernel_backend": kernels.backend(),
        },
        "datasets": {},
    }
    for name, (database, min_support) in datasets.items():
        report["datasets"][name] = bench_dataset(
            database, min_support, jobs, build_jobs
        )
    if serving and datasets:
        # One serving leg per run, over the first dataset: the leg's point
        # is server-path latency on a shared pool, not dataset coverage.
        first = next(iter(datasets))
        database, min_support = datasets[first]
        report["serving"] = bench_serving(
            database,
            min_support,
            requests_per_client=4 if quick else 16,
        )
        report["serving"]["dataset"] = first
    if outofcore:
        # Dedicated dataset: the leg needs an array that dwarfs the
        # budget, which the regular bench datasets do not in --quick.
        database, min_support = _quest_ooc(quick)
        report["outofcore"] = bench_outofcore(database, min_support)
        report["outofcore"]["dataset"] = "quest-ooc"
    if incremental and datasets:
        # Same first-dataset policy as the serving leg: the incremental
        # leg measures the merge machinery, not dataset coverage.
        first = next(iter(datasets))
        database, min_support = datasets[first]
        report["incremental"] = bench_incremental(database, min_support)
        report["incremental"]["dataset"] = first
    report["peak_rss_kb"] = _peak_rss_kb()
    return report


# ----------------------------------------------------------------------
# Persistence and comparison
# ----------------------------------------------------------------------


def write_report(report: dict, out_dir: str | Path) -> Path:
    """Write ``BENCH_<timestamp>.json`` under ``out_dir``; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    path = out / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def find_previous(out_dir: str | Path, exclude: Path | None = None) -> Path | None:
    """Newest ``BENCH_*.json`` in ``out_dir`` (timestamped runs only —
    the committed ``BENCH_baseline.json`` is never picked up implicitly)."""
    out = Path(out_dir)
    candidates = sorted(
        p
        for p in out.glob("BENCH_*.json")
        if p.stem != "BENCH_baseline" and (exclude is None or p != exclude)
    )
    return candidates[-1] if candidates else None


def compare_reports(current: dict, previous: dict, tolerance: float = 0.3) -> list[str]:
    """Flag phases that regressed more than ``tolerance`` vs ``previous``.

    Returns human-readable regression lines (empty = within tolerance).
    Only slowdowns count; getting faster never fails. Deltas below
    :data:`NOISE_FLOOR_SECONDS` are ignored.
    """
    regressions: list[str] = []

    def check(label: str, now: float | None, before: float | None) -> None:
        if not isinstance(now, (int, float)) or not isinstance(before, (int, float)):
            return
        if now - before <= NOISE_FLOOR_SECONDS:
            return
        if before > 0 and now > before * (1.0 + tolerance):
            regressions.append(
                f"{label}: {now:.3f}s vs {before:.3f}s "
                f"(+{(now / before - 1.0) * 100.0:.0f}%, tolerance {tolerance:.0%})"
            )

    for name, entry in current.get("datasets", {}).items():
        before_entry = previous.get("datasets", {}).get(name)
        if before_entry is None:
            continue
        for phase in ("build_s", "convert_s"):
            check(f"{name}/{phase[:-2]}", entry.get(phase), before_entry.get(phase))
        # Per-jobs build map (schema v2); a v1 report on either side simply
        # has no "build" key and this loop is skipped — the serial scalars
        # above still compare.
        for job_count, build in entry.get("build", {}).items():
            before_build = before_entry.get("build", {}).get(job_count)
            if before_build is None:
                continue
            check(
                f"{name}/build@{job_count}",
                build.get("wall_s"),
                before_build.get("wall_s"),
            )
        for job_count, mine in entry.get("mine", {}).items():
            before_mine = before_entry.get("mine", {}).get(job_count)
            if before_mine is None:
                continue
            check(
                f"{name}/mine@{job_count}",
                mine.get("wall_s"),
                before_mine.get("wall_s"),
            )
    # Serving leg (schema v3): gate tail latency. Milliseconds become
    # seconds so the shared noise floor applies unchanged — p99 jitter
    # under 50ms on a loopback load run is noise, not regression. A
    # report without the leg (older schema, --no-serving) is skipped.
    now_serving = current.get("serving") or {}
    before_serving = previous.get("serving") or {}

    def _ms_to_s(value: object) -> float | None:
        return value / 1000.0 if isinstance(value, (int, float)) else None

    for quantile in ("p50_ms", "p99_ms"):
        check(
            f"serving/{quantile[:-3]}",
            _ms_to_s(now_serving.get(quantile)),
            _ms_to_s(before_serving.get(quantile)),
        )
    # Out-of-core leg (schema v4): gate the partitioned mine wall and the
    # bytes pulled off disk. bytes_read is the access-pattern regression
    # detector the wall clock cannot see on a fast SSD — a prefetch or
    # partition-planning bug that re-reads partitions shows up here first.
    now_ooc = current.get("outofcore") or {}
    before_ooc = previous.get("outofcore") or {}
    check("outofcore/mine", now_ooc.get("wall_s"), before_ooc.get("wall_s"))
    # Incremental leg (schema v5): gate the delta-merge maintenance wall.
    # The rebuild arm is the baseline being beaten, not a product path,
    # so only the incremental wall is regression-gated.
    now_incremental = current.get("incremental") or {}
    before_incremental = previous.get("incremental") or {}
    check(
        "incremental/merge",
        now_incremental.get("incremental_wall_s"),
        before_incremental.get("incremental_wall_s"),
    )
    now_bytes = now_ooc.get("bytes_read")
    before_bytes = before_ooc.get("bytes_read")
    if (
        isinstance(now_bytes, (int, float))
        and isinstance(before_bytes, (int, float))
        and before_bytes > 0
        and now_bytes > before_bytes * (1.0 + tolerance)
    ):
        regressions.append(
            f"outofcore/bytes_read: {now_bytes:,.0f} vs {before_bytes:,.0f} "
            f"(+{(now_bytes / before_bytes - 1.0) * 100.0:.0f}%, "
            f"tolerance {tolerance:.0%})"
        )
    return regressions


def parse_mine_floors(specs: Iterable[str]) -> dict[str, float]:
    """Parse ``DATASET=RATE`` mine-throughput floors (comma-separable)."""
    floors: dict[str, float] = {}
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, rate = part.partition("=")
            if not sep or not name:
                raise ValueError(f"--mine-floor expects DATASET=RATE, got {part!r}")
            try:
                floors[name] = float(rate)
            except ValueError:
                raise ValueError(
                    f"--mine-floor rate must be a number, got {part!r}"
                ) from None
    return floors


def check_mine_floors(
    report: dict, floors: dict[str, float], tolerance: float = 0.3
) -> list[str]:
    """Gate single-thread mine throughput against per-dataset floors.

    A floor fails when the serial (``jobs=1``) mine leg's ``nodes_per_s``
    drops below ``RATE * (1 - tolerance)`` — the same tolerance
    philosophy as :func:`compare_reports`, but on throughput, which the
    wall-clock comparison cannot see if a dataset is resized. A dataset
    named by a floor but missing its serial mine leg fails too: a
    silently dropped leg must not pass the gate.
    """
    failures: list[str] = []
    for name, rate in sorted(floors.items()):
        entry = report.get("datasets", {}).get(name) or {}
        mine = entry.get("mine", {}).get("1")
        if mine is None:
            failures.append(
                f"{name}: no serial mine leg in this run "
                f"(floor {rate:,.0f} nodes/s)"
            )
            continue
        actual = mine.get("nodes_per_s") or 0
        allowed = rate * (1.0 - tolerance)
        if actual < allowed:
            failures.append(
                f"{name}/mine@1: {actual:,.0f} nodes/s under floor {rate:,.0f} "
                f"(tolerance {tolerance:.0%} -> allowed {allowed:,.0f})"
            )
    return failures


def format_summary(report: dict) -> str:
    """Paper-style fixed-width summary of one report."""
    lines = [
        f"repro bench — {report['created_utc']}  "
        f"({report['machine']['platform']}, {report['machine']['cpus']} cpus)",
        f"{'dataset':<14} {'tx':>7} {'nodes':>8} {'build':>8} {'convert':>8} "
        f"{'jobs':>4} {'mine':>8} {'speedup':>7} {'nodes/s':>9}",
    ]
    for name, entry in report["datasets"].items():
        first = True
        for job_count, mine in sorted(entry["mine"].items(), key=lambda kv: int(kv[0])):
            prefix = (
                f"{name:<14} {entry['transactions']:>7} {entry['nodes']:>8} "
                f"{entry['build_s']:>8.3f} {entry['convert_s']:>8.3f}"
                if first
                else f"{'':<14} {'':>7} {'':>8} {'':>8} {'':>8}"
            )
            lines.append(
                f"{prefix} {job_count:>4} {mine['wall_s']:>8.3f} "
                f"{mine['speedup']:>6.2f}x {mine['nodes_per_s'] or 0:>9}"
            )
            first = False
        for job_count, build in sorted(
            entry.get("build", {}).items(), key=lambda kv: int(kv[0])
        ):
            if job_count == "1":
                continue
            flag = "" if build.get("identical", True) else "  BYTE MISMATCH"
            lines.append(
                f"{'':<14} build@{job_count}: {build['wall_s']:.3f}s "
                f"{build['speedup']:.2f}x{flag}"
            )
    serving = report.get("serving")
    if serving:
        lines.append(
            f"serving[{serving.get('dataset', '?')}]: {serving['clients']} "
            f"clients x {serving.get('requests_per_client', '?')} req -> "
            f"{serving['rps']:,.0f} req/s  p50 {serving['p50_ms']:.2f}ms  "
            f"p99 {serving['p99_ms']:.2f}ms  "
            f"(pool {serving['pool_hits']} hits / {serving['pool_faults']} "
            f"faults; errors={serving['errors']} "
            f"mismatches={serving['mismatches']})"
        )
        speedup = serving.get("support_speedup")
        if speedup is not None:
            lines.append(
                f"  support kernel: columnar {serving['support_columnar_s']:.4f}s "
                f"vs per-node {serving['support_per_node_s']:.4f}s over "
                f"{serving['support_queries']} queries ({speedup:.1f}x)"
            )
    outofcore = report.get("outofcore")
    if outofcore:
        lines.append(
            f"outofcore[{outofcore.get('dataset', '?')}]: "
            f"{outofcore['array_bytes']:,}B array / "
            f"{outofcore['budget_bytes']:,}B budget "
            f"({outofcore['ratio']:.1f}x) -> mine {outofcore['wall_s']:.3f}s "
            f"({outofcore['slowdown'] or 0:.1f}x in-core, "
            f"{outofcore['nodes_per_s'] or 0:,} nodes/s)  "
            f"read {outofcore['bytes_read']:,}B in {outofcore['faults']} "
            f"faults + {outofcore['prefetched']} prefetched "
            f"(hit-rate {outofcore['prefetch_hit_rate']:.0%}); "
            f"identical={outofcore['identical']}"
        )
    incremental = report.get("incremental")
    if incremental:
        ratio = incremental.get("ratio")
        lines.append(
            f"incremental[{incremental.get('dataset', '?')}]: "
            f"{incremental['batches']} batches x "
            f"~{incremental['transactions'] // max(1, incremental['batches']):,} tx "
            f"-> merge {incremental['incremental_wall_s']:.3f}s vs rebuild "
            f"{incremental['rebuild_wall_s']:.3f}s "
            f"(ratio {ratio if ratio is not None else float('nan'):.2f}, "
            f"max {INCREMENTAL_MAX_RATIO:.2f}); "
            f"identical={incremental['identical']}"
        )
    lines.append(f"peak RSS: {report['peak_rss_kb']:,} KiB")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry point (shared by `repro bench` and benchmarks/regression.py)
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """Run benchmarks, persist the report, compare, and gate.

    Exit codes: 0 ok, 1 regression beyond tolerance, 2 usage error.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="wall-clock perf benchmark with regression gate",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized datasets")
    parser.add_argument(
        "--datasets",
        default=None,
        help=f"comma-separated subset of: {', '.join(sorted(DATASETS))}",
    )
    parser.add_argument(
        "--jobs",
        default=",".join(str(j) for j in DEFAULT_JOBS),
        help="comma-separated worker counts for the mine phase (default 1,2,4)",
    )
    parser.add_argument(
        "--build-jobs",
        default=",".join(str(j) for j in DEFAULT_BUILD_JOBS),
        help="comma-separated worker counts for the build phase (default 1,2,4)",
    )
    parser.add_argument(
        "--output-dir", default="benchmarks", help="where BENCH_*.json lands"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="report to compare against (default: newest BENCH_*.json in output dir)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.3,
        help="allowed slowdown fraction before failing (default 0.3 = 30%%)",
    )
    parser.add_argument(
        "--no-compare", action="store_true", help="measure and write only"
    )
    parser.add_argument(
        "--no-serving",
        action="store_true",
        help="skip the query-server load leg (docs/serving.md)",
    )
    parser.add_argument(
        "--no-outofcore",
        action="store_true",
        help="skip the partitioned out-of-core mine leg (docs/performance.md)",
    )
    parser.add_argument(
        "--no-incremental",
        action="store_true",
        help="skip the delta-merge vs rebuild leg (docs/streaming.md)",
    )
    parser.add_argument(
        "--mine-floor",
        action="append",
        default=[],
        metavar="DATASET=RATE",
        help="fail when DATASET's serial mine leg drops below RATE nodes/s "
        "(gated by --tolerance; repeatable, comma-separable)",
    )
    parser.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="record a JSONL span trace of the whole run (docs/observability.md)",
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="measure tracing overhead on the serial mine phase and gate it",
    )
    parser.add_argument(
        "--trace-overhead-max",
        type=float,
        default=8.0,
        help="max allowed tracing overhead in percent (default 8.0)",
    )
    args = parser.parse_args(argv)

    try:
        jobs = [int(j) for j in args.jobs.split(",") if j.strip()]
    except ValueError:
        print(f"error: --jobs must be comma-separated ints: {args.jobs!r}", file=sys.stderr)
        return 2
    try:
        build_jobs = [int(j) for j in args.build_jobs.split(",") if j.strip()]
    except ValueError:
        print(
            f"error: --build-jobs must be comma-separated ints: {args.build_jobs!r}",
            file=sys.stderr,
        )
        return 2
    names = args.datasets.split(",") if args.datasets else None
    try:
        mine_floors = parse_mine_floors(args.mine_floor)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    previous_path: Path | None
    if args.baseline:
        previous_path = Path(args.baseline)
        if not previous_path.exists():
            print(f"error: baseline {previous_path} not found", file=sys.stderr)
            return 2
    else:
        previous_path = find_previous(args.output_dir)

    tracer = None
    if args.trace:
        from repro import obs
        from repro.obs.tracer import Tracer

        obs.metrics.reset()
        tracer = Tracer()
        obs.set_tracer(tracer)
    try:
        report = run_bench(
            names,
            jobs,
            quick=args.quick,
            build_jobs=build_jobs,
            serving=not args.no_serving,
            outofcore=not args.no_outofcore,
            incremental=not args.no_incremental,
        )
    finally:
        if tracer is not None:
            from repro import obs

            obs.set_tracer(None)
            lines = tracer.write_jsonl(args.trace, registry=obs.metrics)
            print(f"trace: {lines} lines -> {args.trace}")
    if args.trace_overhead:
        # Measured after the bench tracer is gone: the "plain" arm must
        # run with tracing fully disabled. Quick-sized probe regardless of
        # --quick: its many small ranks make tracing cost the most there,
        # and each arm of a pair sums enough mines to time.
        sample_name = (names or list(DATASETS))[0]
        database, min_support = DATASETS[sample_name](True)
        report["trace_overhead"] = measure_trace_overhead(database, min_support)
    path = write_report(report, args.output_dir)
    print(format_summary(report))
    print(f"report: {path}")
    mismatches = [
        f"{name}/build@{job_count}"
        for name, entry in report["datasets"].items()
        for job_count, build in entry.get("build", {}).items()
        if not build.get("identical", True)
    ]
    if mismatches:
        print(
            f"error: parallel build produced a different CFP-array than the "
            f"serial build: {', '.join(sorted(mismatches))}",
            file=sys.stderr,
        )
        return 1
    outofcore = report.get("outofcore") or {}
    if outofcore:
        if not outofcore.get("identical", False):
            print(
                "error: out-of-core leg mined different itemsets than the "
                "in-core reference",
                file=sys.stderr,
            )
            return 1
        if not outofcore.get("prefetch_hits"):
            # The leg must demonstrate read-ahead actually working, not
            # just surviving: zero hits means the prefetcher died or the
            # partition schedule stopped feeding it.
            print(
                "error: out-of-core leg recorded no prefetch hits "
                "(read-ahead is not reaching the pool before demand does)",
                file=sys.stderr,
            )
            return 1
        ceiling = (outofcore["partitions"] + 1) * outofcore["file_bytes"]
        if outofcore["bytes_read"] > ceiling:
            # Each partition's projection sweep reads a page at most
            # once, plus one read-ahead pass over the file: more means
            # the mine is walking the store again.
            print(
                f"error: out-of-core leg read {outofcore['bytes_read']:,} "
                f"bytes, over the ceiling of {ceiling:,} "
                f"((partitions + 1) x {outofcore['file_bytes']:,}-byte file)",
                file=sys.stderr,
            )
            return 1
    incremental = report.get("incremental") or {}
    if incremental:
        if not incremental.get("identical", False):
            # The identity tripwire: the merged forest must encode to the
            # same bytes as a from-scratch rebuild, always.
            print(
                "error: incremental leg's merged CFP-array differs from the "
                "from-scratch rebuild (byte-identity tripwire)",
                file=sys.stderr,
            )
            return 1
        ratio = incremental.get("ratio")
        # The ratio gate is defined at the full INCREMENTAL_BATCHES
        # configuration; a dataset too small to fill it (toy datasets in
        # tests) cannot amortize per-merge overhead, so only the
        # byte-identity tripwire applies there.
        full_leg = incremental.get("batches") == INCREMENTAL_BATCHES
        if full_leg and ratio is not None and ratio >= INCREMENTAL_MAX_RATIO:
            print(
                f"error: incremental merge wall is {ratio:.2f}x the rebuild "
                f"wall (must stay under {INCREMENTAL_MAX_RATIO:.2f}x at "
                f"{incremental.get('batches', '?')} batches)",
                file=sys.stderr,
            )
            return 1
    serving = report.get("serving") or {}
    if serving.get("errors") or serving.get("mismatches"):
        # The load run is also a correctness run: every response was
        # compared against the direct library call.
        print(
            f"error: serving leg saw {serving.get('errors', 0)} errors and "
            f"{serving.get('mismatches', 0)} answers that differ from "
            f"direct calls",
            file=sys.stderr,
        )
        return 1
    if args.trace_overhead:
        oh = report["trace_overhead"]
        print(
            f"trace overhead: {oh['overhead_pct']:.2f}% "
            f"({oh['plain_s']:.3f}s plain vs {oh['traced_s']:.3f}s traced, "
            f"max {args.trace_overhead_max:.1f}%)"
        )
        if oh["overhead_pct"] > args.trace_overhead_max:
            print(
                f"error: tracing overhead {oh['overhead_pct']:.2f}% exceeds "
                f"the {args.trace_overhead_max:.1f}% budget",
                file=sys.stderr,
            )
            return 1

    if mine_floors:
        floor_failures = check_mine_floors(report, mine_floors, args.tolerance)
        if floor_failures:
            print("\nmine-throughput floor violations:", file=sys.stderr)
            for line in floor_failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"mine floors ok for {', '.join(sorted(mine_floors))} "
            f"(tolerance {args.tolerance:.0%})"
        )

    if args.no_compare or previous_path is None:
        if previous_path is None and not args.no_compare:
            print("no previous report found; this run becomes the baseline")
        return 0
    previous = json.loads(previous_path.read_text())
    regressions = compare_reports(report, previous, args.tolerance)
    if regressions:
        print(f"\nperf regressions vs {previous_path}:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"no regressions vs {previous_path} (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
