"""PFP: parallel FP-growth over MapReduce (paper §5, Li et al. [17]).

Three jobs, as in the original:

1. **Parallel counting** — a word count of item supports.
2. **Group-dependent transactions** — the frequent ranks are divided into
   ``n_groups`` groups. A mapper scans each (rank-sorted) transaction from
   its *least* frequent item leftwards and, the first time it meets an
   item of a group, emits the transaction's prefix up to that item keyed
   by the group. The reducer for a group therefore receives exactly the
   prefixes needed to mine every itemset whose least frequent member lies
   in that group — the shards are independent.
3. **Per-group mining + aggregation** — each reducer builds a local
   CFP-tree over its shard, converts it, and mines with the top-level
   loop restricted to the group's ranks (itemsets are counted once
   globally because an itemset belongs to exactly one group: that of its
   maximum rank).

The paper's caveat — "depending on the dataset, such a partitioning may
or may not be effective" — is observable here through the shard-size and
shuffle statistics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable

from repro.core.cfp_growth import mine_rank
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.distributed.mapreduce import JobStats, MapReduceJob
from repro.errors import ExperimentError
from repro.fptree.growth import ListCollector
from repro.util.items import TransactionDatabase, prepare_transactions


@dataclass
class ShardReport:
    """Per-group mining footprint."""

    group: int
    transactions: int
    tree_nodes: int
    tree_bytes: int
    itemsets: int


@dataclass
class PfpResult:
    """Everything the distributed run produced."""

    itemsets: list[tuple[tuple[Hashable, ...], int]]
    n_groups: int
    count_stats: JobStats
    shard_stats: JobStats
    shards: list[ShardReport]

    @property
    def max_shard_bytes(self) -> int:
        if not self.shards:
            return 0
        return max(s.tree_bytes for s in self.shards)

    @property
    def total_shard_transactions(self) -> int:
        """Shard records including duplication across groups."""
        return sum(s.transactions for s in self.shards)


def assign_groups(n_ranks: int, n_groups: int) -> list[int]:
    """Round-robin rank -> group assignment (index 0 unused).

    Round-robin spreads the expensive low-rank (frequent) items across
    groups, the balancing heuristic of the PFP paper.
    """
    return [0] + [(rank - 1) % n_groups for rank in range(1, n_ranks + 1)]


def group_dependent_shards(
    transactions: list[list[int]], group_of: list[int], n_groups: int
) -> tuple[dict[int, list[list[int]]], JobStats]:
    """Job 2: emit each transaction's group-dependent prefixes."""

    def mapper(ranks):
        emitted = set()
        for position in range(len(ranks) - 1, -1, -1):
            group = group_of[ranks[position]]
            if group not in emitted:
                emitted.add(group)
                yield group, ranks[: position + 1]

    def reducer(group, prefixes):
        yield group, prefixes

    job = MapReduceJob(
        mapper,
        reducer,
        n_partitions=n_groups,
        partitioner=lambda key, n: key % n,
    )
    outputs, stats = job.run(transactions)
    shards = {group: prefixes for group, prefixes in outputs}
    return shards, stats


def _mine_shard(
    shard: list[list[int]],
    group_ranks: set[int],
    n_ranks: int,
    min_support: int,
) -> tuple[list[tuple[tuple[int, ...], int]], ShardReport, int]:
    """Job 3 reducer body: local CFP-growth restricted to the group."""
    tree = TernaryCfpTree.from_rank_transactions(shard, n_ranks)
    tree_nodes = tree.node_count
    tree_bytes = tree.memory_bytes
    array = convert(tree)
    del tree
    collector = ListCollector()
    # Top-level loop restricted to the group's ranks: an itemset is mined
    # in exactly the group of its maximum (least frequent) rank. The
    # conditional recursion below each top-level rank is unrestricted.
    for rank in array.active_ranks_descending():
        if rank in group_ranks:
            mine_rank(array, rank, min_support, collector)
    return collector.itemsets, tree_nodes, tree_bytes


def parallel_fp_growth(
    database: TransactionDatabase,
    min_support: int,
    n_groups: int = 4,
) -> PfpResult:
    """Run the full three-job PFP pipeline."""
    if n_groups < 1:
        raise ExperimentError(f"n_groups must be >= 1, got {n_groups}")

    # Job 1: parallel counting (word count over item occurrences).
    def count_mapper(transaction):
        for item in set(transaction):
            yield item, 1

    def count_reducer(item, ones):
        yield item, len(ones)

    count_job = MapReduceJob(count_mapper, count_reducer, n_partitions=n_groups)
    __, count_stats = count_job.run(list(database))

    # Rank assignment (reuses the shared preprocessing for determinism).
    table, transactions = prepare_transactions(database, min_support)
    n_ranks = len(table)
    group_of = assign_groups(n_ranks, n_groups)

    # Job 2: group-dependent transactions.
    shards, shard_stats = group_dependent_shards(transactions, group_of, n_groups)

    # Job 3: independent per-group mining.
    ranks_per_group: dict[int, set[int]] = defaultdict(set)
    for rank in range(1, n_ranks + 1):
        ranks_per_group[group_of[rank]].add(rank)
    all_itemsets: list[tuple[tuple[int, ...], int]] = []
    reports = []
    for group in sorted(shards):
        itemsets, tree_nodes, tree_bytes = _mine_shard(
            shards[group], ranks_per_group[group], n_ranks, min_support
        )
        all_itemsets.extend(itemsets)
        reports.append(
            ShardReport(
                group=group,
                transactions=len(shards[group]),
                tree_nodes=tree_nodes,
                tree_bytes=tree_bytes,
                itemsets=len(itemsets),
            )
        )

    translated = [
        (table.ranks_to_items(ranks), support) for ranks, support in all_itemsets
    ]
    return PfpResult(
        itemsets=translated,
        n_groups=n_groups,
        count_stats=count_stats,
        shard_stats=shard_stats,
        shards=reports,
    )


class PfpMiner:
    """Miner-interface wrapper (single-machine simulation of PFP)."""

    name = "pfp"

    def __init__(self, n_groups: int = 4):
        self.n_groups = n_groups

    def mine(self, database: TransactionDatabase, min_support: int):
        return parallel_fp_growth(database, min_support, self.n_groups).itemsets
