"""CFP-growth: FP-growth over the compressed structures (paper §3, §4).

The algorithm is FP-growth with both phases re-based on the CFP structures:

1. **Build** — two database passes produce a ternary CFP-tree.
2. **Convert** — the tree becomes a CFP-array; the tree is discarded
   immediately afterwards so its memory can serve the mine phase (§3.5).
3. **Mine** — one loop, :func:`mine_array`, for every reader. Items are
   processed least frequent first, in the rank groups the array
   schedules (one per partition of a paged store). The prefix paths of
   the top-level array's items come from its parent links: in memory,
   one ascending sweep resolves them all; a paged store projects each
   partition. For each item a *conditional* CFP-array is sized from its
   paths, node for node as ``convert`` would lay it out, and mined
   recursively from the prefix paths its builder recorded while sizing
   it (:class:`repro.core.kernels.ConditionalArray`): no conditional's
   bytes are written or read. Conditionals that degenerate to a single
   path are enumerated directly without an array.

The miner is instrumented: a :class:`repro.machine.Meter` (optional)
receives structure-size samples and operation counts that drive the
simulated-machine experiments.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Any, Callable, Hashable, Protocol

from repro import obs
from repro.algorithms.base import register
from repro.core import kernels
from repro.core.cfp_array import CfpArray
from repro.core.conversion import convert
from repro.core.kernels import ConditionalArray
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import ListCollector
from repro.machine.meter import Meter
from repro.obs.tracer import Span, Tracer
from repro.util.items import TransactionDatabase, prepare_transactions


class SupportCollector(Protocol):
    """Sink for mined itemsets (:class:`repro.fptree.growth.ListCollector`)."""

    def emit(self, itemset: tuple[int, ...], support: int) -> None: ...

    def emit_path_subsets(
        self, path: list[tuple[int, int]], suffix: tuple[int, ...]
    ) -> None: ...


def _meter_counts(meter: Any) -> tuple[int, int, int, float]:
    """Snapshot of a meter's cumulative counters, for span deltas.

    Taken twice per traced top-level rank, so it sums the phases in one
    plain loop.
    """
    meter.flush_mine_scans()
    touched = io_bytes = 0
    for phase in meter.phases:
        touched += phase.bytes_touched
        io_bytes += phase.io_bytes
    return meter._total_ops, touched, io_bytes, meter._integral


def _attach_meter_delta(
    span: Span, meter: Any, before: tuple[int, int, int, float]
) -> None:
    """Write the meter's movement since ``before`` onto a span.

    This is the meter->span bridge: every traced span's ``ops`` /
    ``bytes_touched`` numbers are *deltas of the one live Meter*, so the
    trace and the meter cannot disagree —
    :func:`repro.obs.report.meter_from_trace` rebuilds the same totals.
    """
    ops, touched, io_bytes, integral = _meter_counts(meter)
    span.set("ops", ops - before[0])
    span.set("bytes_touched", touched - before[1])
    if io_bytes - before[2]:
        span.set("io_bytes", io_bytes - before[2])
    span.set("integral", integral - before[3])
    span.set("peak_bytes", meter.peak_bytes)


def mine_array(
    array: CfpArray,
    min_support: int,
    collector: SupportCollector,
    suffix: tuple[int, ...] = (),
    meter: Any = None,
) -> None:
    """Recursively mine a CFP-array (the §2.1 mine loop on §3.4 structures).

    The one mine loop, for every reader. The array schedules its active
    ranks, least frequent first, in groups (:meth:`CfpArray.rank_groups`:
    one in memory, one per partition of a paged store) and each group is
    mined from one projection (:meth:`CfpArray.group_projection`: an
    ascending sweep in memory, cache budget or not, and a descending
    :meth:`CfpArray.project` per partition), or rank by rank where that
    is None: cached paged stores and :class:`repro.storage.DiskCfpArray`.
    Each rank's conditional is mined by :func:`mine_rank` from the paths
    its builder recorded.

    With a tracer installed (:func:`repro.obs.set_tracer`) the *top-level*
    loop (``suffix == ()``) runs each rank through :func:`mine_rank_span`:
    one ``mine_rank`` span per rank, the granularity the parallel workers
    ship back too, so serial and parallel traces have one shape.
    Recursive (conditional) calls are never traced per-span: tracing must
    not change the mine phase's asymptotics.
    """
    tracer = None if suffix else obs.get_tracer()
    mine: Callable[..., object] = mine_rank
    if tracer is not None:
        # Results never depend on the meter; a local one supplies span
        # deltas when the caller did not pass its own.
        if meter is None:
            meter = Meter()
        cache_before = array.cache_counts()
        mine = partial(mine_rank_span, tracer)
    for ranks in array.rank_groups():
        projection = array.group_projection(ranks)
        for rank in ranks:
            # A rank's paths are built as it is mined and dropped with it.
            mine(
                array, rank, min_support, collector, suffix, meter,
                None if projection is None else projection[rank],
            )
        # Release this group's projection before the next one is built.
        del projection
    if tracer is not None:
        array.publish_cache_metrics(obs.metrics, baseline=cache_before)
    if meter is not None and not suffix:
        # Fold the batched scan accounting in before the caller reads the
        # meter.
        meter.flush_mine_scans()


#: Alias of :func:`mine_array`, kept because the end-to-end benchmark
#: (benchmarks/e2e/wl_mining.py) imports it under this name.
mine_array_partitioned = mine_array


def mine_rank_span(
    tracer: Tracer,
    array: CfpArray,
    rank: int,
    min_support: int,
    collector: SupportCollector,
    suffix: tuple[int, ...],
    meter: Any,
    paths: list[tuple[tuple[int, ...], int]] | None = None,
) -> Span:
    """:func:`mine_rank` inside a ``mine_rank`` span — the loop's tracing hook.

    The span carries ``rank``, ``subarray_bytes`` and ``kernel_backend``,
    and the meter's movement over the rank (:func:`_attach_meter_delta`).
    The parallel miner's worker tasks run through it too. Returns the
    finished span; its attributes are the recorded ones.
    """
    span = tracer.begin_span(
        "mine_rank",
        {
            "rank": rank,
            "subarray_bytes": array.subarray_bytes(rank),
            "kernel_backend": kernels.backend(),
        },
    )
    try:
        before = _meter_counts(meter)
        mine_rank(array, rank, min_support, collector, suffix, meter, paths)
        _attach_meter_delta(span, meter, before)
    finally:
        tracer.end_span(span)
    return span


def mine_rank(
    array: CfpArray | ConditionalArray,
    rank: int,
    min_support: int,
    collector: SupportCollector,
    suffix: tuple[int, ...] = (),
    meter: Any = None,
    paths: list[tuple[tuple[int, ...], int]] | None = None,
) -> None:
    """Mine one rank of ``array`` — the body of the mine loop.

    Exposed separately so the parallel miner (:mod:`repro.core.parallel`)
    and PFP's per-group reducers (:mod:`repro.distributed.pfp`) run their
    ranks through exactly the serial code path, which is what makes their
    output byte-identical to the serial miner's. A conditional's ranks
    recurse through it directly, least frequent first: the conditional
    holds every rank's paths, so it has no groups to schedule.

    ``paths`` are the rank's prefix paths when the caller has already
    projected them (:meth:`CfpArray.group_projection`); the rank's
    support is then the sum of their counts, and the rank's subarray is
    not read again.
    """
    if paths is None:
        support = array.rank_support(rank)
    else:
        support = sum([count for __, count in paths])
    if support < min_support:
        return
    itemset = (rank,) + suffix
    collector.emit(itemset, support)
    chain, cond_array = _conditional_struct(
        array, rank, min_support, meter, paths
    )
    if chain is not None:
        # Degenerate (single-path) conditional: the chain already carries
        # the suffix-summed counts the tree's single_path() would report,
        # and no per-node structure was ever materialized.
        collector.emit_path_subsets(chain, itemset)
        return
    if cond_array is None:
        return
    for cond_rank in cond_array.active_ranks_descending():
        mine_rank(cond_array, cond_rank, min_support, collector, itemset, meter)
    if meter is not None:
        meter.on_structure_freed(cond_array.memory_bytes)


def _conditional_struct(
    array: CfpArray | ConditionalArray,
    rank: int,
    min_support: int,
    meter: Any = None,
    paths: list[tuple[tuple[int, ...], int]] | None = None,
) -> tuple[list[tuple[int, int]] | None, ConditionalArray | None]:
    """Build ``rank``'s conditional structure via the columnar kernels.

    Returns ``(chain, None)`` when the conditional degenerates to a
    single path — ``chain`` is exactly what the conditional tree's
    ``single_path()`` would report, but no tree is ever built —
    ``(None, cond_array)`` with the conditional sized straight from the
    aggregated paths otherwise, and ``(None, None)`` when nothing
    frequent remains. The mined output is identical to
    :func:`_conditional_tree_reference` (the per-node implementation this
    replaced, retained for the identity suites): sorted aggregated paths
    determine the logical conditional trie, and
    :func:`repro.core.kernels.build_conditional_array` lays that trie
    out with the same placement math ``convert`` uses, so the
    conditional's sizes are ``convert(tree)``'s, and records each rank's
    prefix paths; neither the intermediate ternary tree nor the encoded
    bytes ever exist. ``paths`` are the rank's already-projected prefix
    paths, when the caller has them.
    """
    if paths is None:
        paths = array.prefix_paths(rank)
    if not paths:
        if meter is not None:
            starts = array.starts
            meter._scan_ops += 1
            meter._scan_bytes += starts[rank + 1] - starts[rank]
        return None, None
    # Prefix paths hold strict ancestors, so every rank on them is < rank:
    # the counts column only needs to reach rank - 1, not n_ranks.
    if meter is None:
        counts = kernels.conditional_counts(paths, rank - 1)
    else:
        # on_mine_scan's quantities, batched as plain adds: the method
        # call per conditional dominated traced-run overhead once the
        # kernels made the conditionals themselves this cheap. Readers
        # fold the pending adds in via Meter.flush_mine_scans().
        counts, items = kernels.conditional_counts_metered(paths, rank - 1)
        starts = array.starts
        meter._scan_ops += items + 1
        meter._scan_bytes += starts[rank + 1] - starts[rank] + items * 3
    aggregated = kernels.filter_aggregate(paths, counts, min_support)
    if not aggregated:
        return None, None
    chain = kernels.single_path_merge(aggregated)
    if chain is not None:
        return chain, None
    cond_array = kernels.build_conditional_array(
        sorted(aggregated.items()), array.n_ranks, counts
    )
    if meter is not None:
        meter.on_structure_built(cond_array.memory_bytes)
    return None, cond_array


def _conditional_tree_reference(
    array: CfpArray, rank: int, min_support: int, meter: Any = None
) -> TernaryCfpTree | None:
    """Per-node reference for :func:`_conditional_struct` (tests only).

    The pre-kernel implementation, kept verbatim so the hypothesis
    identity suites can hold the columnar path to it: dict-increment
    counting, per-path filtering, and one root descent per prefix path.
    The kernels must produce a conditional whose converted array — and
    single-path verdict — match this tree's exactly.
    """
    paths = []
    counts: dict[int, int] = defaultdict(int)
    for path, count in array.prefix_paths(rank):
        if path:
            paths.append((path, count))
            for path_rank in path:
                counts[path_rank] += count
    if meter is not None:
        meter.on_mine_scan(array.subarray_bytes(rank), sum(len(p) for p, __ in paths))
    frequent = {r for r, c in counts.items() if c >= min_support}
    if not frequent:
        return None
    conditional = TernaryCfpTree(array.n_ranks)
    inserted = False
    for path, count in paths:
        filtered = [r for r in path if r in frequent]
        if filtered:
            conditional.insert(filtered, count)
            inserted = True
    if not inserted:
        return None
    if meter is not None:
        meter.on_structure_built(conditional.memory_bytes)
    return conditional


#: Default byte budget of the decoded-subarray LRU cache, for the readers
#: that resolve one rank's prefix paths at a time: ``--jobs`` workers
#: (:func:`mine_rank_transactions` gives a ``jobs > 1`` array this budget)
#: and the serving store's paged array. The serial in-memory mine sweeps
#: its array without it (see docs/performance.md; conditionals have no
#: bytes to decode). Rebased from 1 MiB when the cache switched to
#: charging *decoded* column bytes (the honest residency, ~6-8× the
#: encoded length).
DEFAULT_CACHE_BUDGET = 8 << 20


def mine_rank_transactions(
    transactions: list[list[int]],
    n_ranks: int,
    min_support: int,
    collector: SupportCollector | None = None,
    meter: Any = None,
    jobs: int = 1,
    cache_budget: int = DEFAULT_CACHE_BUDGET,
    build_jobs: int = 1,
) -> SupportCollector:
    """Full CFP-growth over prepared rank transactions; returns the collector.

    ``jobs > 1`` fans the top-level mine loop out to a shared-memory worker
    pool (:mod:`repro.core.parallel`), whose workers resolve each rank's
    paths through a decoded-subarray cache of ``cache_budget`` bytes;
    output is byte-identical to the serial run for any worker count.
    ``jobs=1`` is the serial path with its full Meter instrumentation,
    and mines its array without a cache.

    ``build_jobs > 1`` shards the build phase by leading rank
    (:func:`repro.core.build_parallel.build_tree_parallel`) and merges
    straight into the CFP-array — still byte-identical, but the
    intermediate CFP-tree never exists in the parent, so the tree-level
    Meter probes (``on_build``/``on_conversion``) report through the
    build-worker spans instead of the parent meter.
    """
    if collector is None:
        collector = ListCollector()
    tracer = obs.get_tracer()
    if tracer is not None and meter is None:
        meter = Meter()  # supplies span deltas; results are unaffected
    if build_jobs > 1:
        from repro.core.build_parallel import build_tree_parallel

        if meter is not None and tracer is not None:
            # Sequential fractions as in repro.experiments.drivers.
            meter.begin_phase("build", 0.2)
        array = build_tree_parallel(transactions, n_ranks, jobs=build_jobs)
        path = array.single_path()
        if path is not None:
            if path:
                collector.emit_path_subsets(path, ())
            return collector
    else:
        if meter is not None and tracer is not None:
            # Sequential fractions as in repro.experiments.drivers.
            meter.begin_phase("build", 0.2)
        with obs.maybe_span("build") as span:
            before = _meter_counts(meter) if meter is not None else None
            tree = TernaryCfpTree.from_rank_transactions(transactions, n_ranks)
            if meter is not None:
                meter.on_build(tree)
                _attach_meter_delta(span, meter, before)  # type: ignore[arg-type]
            if tracer is not None:
                span.set("transactions", tree.transaction_count)
                span.set("logical_nodes", tree.logical_node_count)
                span.set("tree_bytes", tree.memory_bytes)
                span.set("arena_allocs", tree.arena.stats().alloc_count)
        path = tree.single_path()
        if path is not None:
            if path:
                collector.emit_path_subsets(path, ())
            return collector
        if meter is not None and tracer is not None:
            meter.begin_phase("convert", 0.9)
        with obs.maybe_span("convert") as span:
            before = _meter_counts(meter) if meter is not None else None
            array = convert(tree)
            if meter is not None:
                meter.on_conversion(tree, array)
                _attach_meter_delta(span, meter, before)  # type: ignore[arg-type]
            if tracer is not None:
                span.set("nodes", array.node_count)
                span.set("array_bytes", array.memory_bytes)
        del tree  # §3.5: the CFP-tree is discarded right after conversion.
    if meter is not None and tracer is not None:
        meter.begin_phase("mine", 0.4)
    if jobs > 1:
        from repro.core.parallel import mine_array_parallel

        array.set_cache_budget(cache_budget)
        mine_array_parallel(array, min_support, collector, (), meter, jobs=jobs)
    else:
        mine_array(array, min_support, collector, (), meter)
    return collector


def cfp_growth(
    database: TransactionDatabase,
    min_support: int,
    jobs: int = 1,
    build_jobs: int = 1,
) -> list[tuple[tuple[Hashable, ...], int]]:
    """End-to-end CFP-growth over an item-level database."""
    table, transactions = prepare_transactions(database, min_support)
    collector = ListCollector()
    mine_rank_transactions(
        transactions,
        len(table),
        min_support,
        collector,
        jobs=jobs,
        build_jobs=build_jobs,
    )
    return [
        (table.ranks_to_items(ranks), support)
        for ranks, support in collector.itemsets
    ]


@register
class CfpGrowth:
    """Miner-interface wrapper around :func:`cfp_growth`."""

    name = "cfp-growth"

    #: Worker count for the mine phase; 1 = serial. The CLI's ``--jobs``
    #: overrides this on the instance.
    jobs = 1

    #: Worker count for the build phase; 1 = serial. The CLI's
    #: ``--build-jobs`` overrides this on the instance.
    build_jobs = 1

    def mine(
        self, database: TransactionDatabase, min_support: int
    ) -> list[tuple[tuple[Hashable, ...], int]]:
        return cfp_growth(
            database, min_support, jobs=self.jobs, build_jobs=self.build_jobs
        )


@register
class CfpGrowthParallel(CfpGrowth):
    """Two-worker shared-memory CFP-growth.

    Registered as its own algorithm so the equivalence gate
    (tests/algorithms) holds the parallel mine phase to byte-identical
    output against every other miner on every shared database.
    """

    name = "cfp-growth-par"

    jobs = 2
