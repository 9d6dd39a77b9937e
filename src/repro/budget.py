"""Memory-budgeted mining: pick in-core or out-of-core automatically.

The paper's conclusion: stay in core when the compressed structures fit,
fall back to disk with CFP-friendly access patterns when they do not.
:func:`mine_with_budget` operationalizes that decision — it builds the
CFP-tree, converts it, and then either mines the in-memory CFP-array
(when tree + array stayed within the budget) or spills the array to disk
and mines through a buffer pool sized to the remaining budget.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Hashable

from repro.core.cfp_growth import mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import ExperimentError
from repro.fptree.growth import ListCollector
from repro.storage.cfp_store import save_cfp_array_partitioned
from repro.storage.pagefile import PAGE_SIZE
from repro.storage.partitioned import PartitionedCfpArray
from repro.util.items import TransactionDatabase, prepare_transactions

#: Below this many pool pages out-of-core mining cannot make progress
#: sensibly; the budget must at least cover them.
MIN_POOL_PAGES = 2

#: Conservative per-request working-set estimate for serving admission
#: control: a support/top-k query bulk-decodes a handful of subarrays and
#: holds their columns (plus response buffers) while it runs. Four pages
#: of transient memory per in-flight request is deliberately generous —
#: admission control exists to bound memory, not to maximize packing.
DEFAULT_REQUEST_BYTES = 4 * PAGE_SIZE


def admission_limit(
    memory_budget: int,
    resident_bytes: int,
    per_request_bytes: int = DEFAULT_REQUEST_BYTES,
) -> int:
    """Concurrent requests a serving memory budget admits.

    The same budget philosophy as :func:`mine_with_budget`, applied to the
    query server: the budget first covers the long-lived resident
    structures (buffer pool, item index, decoded-subarray cache), and
    whatever remains divides into per-request working-set slots. The
    result is the server's max in-flight request count; requests beyond it
    are rejected with an ``overloaded`` error instead of silently growing
    the process (see docs/serving.md).
    """
    if per_request_bytes < 1:
        raise ExperimentError(
            f"per_request_bytes must be >= 1, got {per_request_bytes}"
        )
    if resident_bytes < 0:
        raise ExperimentError(f"resident_bytes must be >= 0, got {resident_bytes}")
    headroom = memory_budget - resident_bytes
    if headroom < per_request_bytes:
        raise ExperimentError(
            f"budget {memory_budget} leaves {max(0, headroom)} bytes after "
            f"the {resident_bytes}-byte resident structures — not enough "
            f"for one {per_request_bytes}-byte request slot"
        )
    return headroom // per_request_bytes


def snapshot_plan(
    memory_budget: int | None, array_bytes: int
) -> tuple[int | None, int]:
    """How to store an array of ``array_bytes`` under a memory budget.

    The one budget planner: :func:`mine_with_budget` spills by it, and so
    does the bench's out-of-core leg, while
    :meth:`repro.streaming.snapshots.SnapshotManager.publish` partitions
    a snapshot by it for the store that will open the result. Returns
    ``(partition_bytes, hot_bytes)``. ``memory_budget=None`` (or a budget
    the whole array fits in) keeps the array whole — ``(None, 0)``.
    Otherwise a quarter of the budget pins the hot set (the most frequent
    ranks, which every partition's projection reaches) and the rest backs
    the buffer pool, with partitions sized to half of it so the active
    partition and its read-ahead co-reside.
    """
    if memory_budget is None or array_bytes <= memory_budget:
        return None, 0
    if memory_budget < MIN_POOL_PAGES * PAGE_SIZE:
        raise ExperimentError(
            f"budget {memory_budget} below the minimum of "
            f"{MIN_POOL_PAGES * PAGE_SIZE} bytes"
        )
    hot_bytes = memory_budget // 4
    pool_budget = memory_budget - hot_bytes
    partition_bytes = max(PAGE_SIZE, pool_budget // 2)
    return partition_bytes, hot_bytes


@dataclass
class BudgetReport:
    """How the budget decision played out."""

    budget_bytes: int
    tree_bytes: int
    array_bytes: int
    went_out_of_core: bool
    pool_pages: int = 0
    page_faults: int = 0
    partitions: int = 0
    hot_bytes: int = 0
    prefetch_hits: int = 0
    bytes_read: int = 0


def mine_with_budget(
    database: TransactionDatabase,
    min_support: int,
    memory_budget: int,
    spill_dir: str | os.PathLike | None = None,
) -> tuple[list[tuple[tuple[Hashable, ...], int]], BudgetReport]:
    """Mine within ``memory_budget`` bytes for the *initial* structures.

    Conditional structures during mining are not charged against the
    budget (they are transient and small relative to the initial array;
    §3.5). Neither are projections (:meth:`CfpArray.project`): 16 bytes
    for every node a sweep reaches, held while its rank group is mined.
    On the out-of-core path a group is one partition, and its sweep
    reaches the partition's nodes and all their ancestors, at most the
    whole array. Neither fits in the budget: on quest-ooc at a tenth of
    the array, the mine phase's ``tracemalloc`` peak is 27 times the
    budget with projection and was 16 times without (docs/performance.md
    §6). The in-core branch mines the uncached array from one projection
    of the whole array: on mine-dense seed 1 (list collector) its mine
    phase peaks at 5.1 MB, against 3.3 MB rank by rank and 16.2 MB for
    the cached walk :func:`repro.core.cfp_growth.cfp_growth` uses.
    Returns the itemsets and a report of the decision.

    An array larger than the budget spills to the partitioned tiered
    store (format v3) that :func:`snapshot_plan` lays out: partitions of
    half the pool and a pinned hot set of a quarter of the budget, with
    the rest (at least :data:`MIN_POOL_PAGES`) backing the buffer pool.
    The mine then proceeds partition-at-a-time with background
    sequential prefetch.
    """
    if memory_budget < MIN_POOL_PAGES * PAGE_SIZE:
        raise ExperimentError(
            f"budget {memory_budget} below the minimum of "
            f"{MIN_POOL_PAGES * PAGE_SIZE} bytes"
        )
    table, transactions = prepare_transactions(database, min_support)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
    tree_bytes = tree.memory_bytes
    array = convert(tree)
    array_bytes = array.memory_bytes
    del tree
    collector = ListCollector()
    partition_bytes, hot_bytes = snapshot_plan(memory_budget, array_bytes)
    if partition_bytes is None:
        mine_array(array, min_support, collector)
        report = BudgetReport(
            budget_bytes=memory_budget,
            tree_bytes=tree_bytes,
            array_bytes=array_bytes,
            went_out_of_core=False,
        )
    else:
        pool_pages = max(MIN_POOL_PAGES, (memory_budget - hot_bytes) // PAGE_SIZE)
        handle, path = tempfile.mkstemp(
            suffix=".cfpa", dir=os.fspath(spill_dir) if spill_dir else None
        )
        os.close(handle)
        try:
            save_cfp_array_partitioned(
                array, path, partition_bytes=partition_bytes
            )
            del array
            with PartitionedCfpArray(
                path, pool_pages=pool_pages, hot_bytes=hot_bytes
            ) as disk:
                mine_array(disk, min_support, collector)
                stats = disk.pool.stats
                report = BudgetReport(
                    budget_bytes=memory_budget,
                    tree_bytes=tree_bytes,
                    array_bytes=array_bytes,
                    went_out_of_core=True,
                    pool_pages=pool_pages,
                    page_faults=stats.faults,
                    partitions=len(disk.partitions),
                    hot_bytes=disk.hot_bytes,
                    prefetch_hits=stats.prefetch_hits,
                    bytes_read=stats.bytes_read,
                )
        finally:
            os.unlink(path)
    itemsets = [
        (table.ranks_to_items(ranks), support)
        for ranks, support in collector.itemsets
    ]
    return itemsets, report
