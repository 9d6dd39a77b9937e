"""Top-k frequent itemsets with a dynamically rising support threshold.

Instead of guessing a minimum support, the miner keeps a size-k min-heap
of the best supports seen; once the heap is full, the heap's minimum
becomes the *effective* support threshold for the rest of the search.
Raising the threshold mid-run is sound because support is anti-monotone —
the standard top-k FIM technique.

Itemsets of support below ``min_support_floor`` (default 1) are never
considered; ``min_length`` filters trivial singletons if desired.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Hashable

from repro.core.cfp_array import CfpArray
from repro.core.cfp_growth import _conditional_struct
from repro.core.kernels import ConditionalArray
from repro.errors import ExperimentError
from repro.fptree.tree import FPTree
from repro.util.items import TransactionDatabase, prepare_transactions


class _RevRanks:
    """Rank tuple with reversed comparison, for heap-boundary ordering.

    The min-heap's root must be the *canonically worst* resident itemset:
    lowest support, and among support ties the lexicographically
    **largest** rank tuple (so the smallest-ranked itemset survives a tie,
    matching the ``(-support, ranks)`` order :meth:`_TopKCollector.results`
    reports). ``heapq`` only needs ``__lt__``; negating tuple elements
    does not work for prefix ties (``(1,) < (1, 2)`` must flip), hence a
    wrapper instead of arithmetic.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: tuple[int, ...]) -> None:
        self.ranks = ranks

    def __lt__(self, other: "_RevRanks") -> bool:
        return self.ranks > other.ranks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RevRanks) and self.ranks == other.ranks


class _TopKCollector:
    """Size-k min-heap with a rising threshold.

    Satisfies the :class:`repro.core.cfp_growth.SupportCollector`
    protocol. Two properties the serving layer leans on:

    * **dedup** — an itemset reachable through several prefix paths may be
      emitted more than once by an enumerator; a membership set keeps one
      heap entry per itemset, so duplicates can never crowd distinct
      itemsets out of the top k;
    * **order-independence** — the boundary comparison is the total order
      ``(support desc, ranks asc)``, support ties included, so the final
      k-set (and :meth:`results`) is a pure function of the emitted
      (itemset, support) pairs, whatever order a miner discovers them in.
      The old ``support > heap[0]`` comparison kept whichever tie arrived
      first — tree- and array-order enumerations of the same database
      could report different k-sets.
    """

    def __init__(self, k: int, min_length: int, floor: int) -> None:
        self.k = k
        self.min_length = min_length
        self.floor = floor
        self._heap: list[tuple[int, _RevRanks]] = []
        self._members: set[tuple[int, ...]] = set()

    @property
    def threshold(self) -> int:
        if len(self._heap) < self.k:
            return self.floor
        return max(self.floor, self._heap[0][0])

    def emit(self, ranks: tuple[int, ...], support: int) -> None:
        if len(ranks) < self.min_length or support < self.threshold:
            return
        key = tuple(sorted(ranks))
        if key in self._members:
            # Same itemset via another prefix path: its support is a
            # function of the itemset, so the resident entry already
            # carries it — a second entry would double-fill the heap.
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (support, _RevRanks(key)))
            self._members.add(key)
            return
        worst_support, worst = self._heap[0]
        if support > worst_support or (
            support == worst_support and key < worst.ranks
        ):
            heapq.heapreplace(self._heap, (support, _RevRanks(key)))
            self._members.discard(worst.ranks)
            self._members.add(key)

    def emit_path_subsets(
        self, path: list[tuple[int, int]], suffix: tuple[int, ...]
    ) -> None:
        # Enumerate subsets whose deepest element sets the support, but
        # stop expanding once supports fall below the threshold (counts
        # along a path are non-increasing).
        subsets: list[tuple[int, ...]] = [()]
        for rank, count in path:
            if count < self.threshold and len(self._heap) >= self.k:
                break
            for subset in list(subsets):
                self.emit(subset + (rank,) + suffix, count)
                subsets.append(subset + (rank,))

    def results(self) -> list[tuple[tuple[int, ...], int]]:
        ordered = sorted(self._heap, key=lambda e: (-e[0], e[1].ranks))
        return [(entry.ranks, support) for support, entry in ordered]


def top_k_itemsets(
    database: TransactionDatabase,
    k: int,
    min_length: int = 1,
    min_support_floor: int = 1,
) -> list[tuple[tuple[Hashable, ...], int]]:
    """The ``k`` highest-support itemsets (ties broken lexicographically)."""
    if k < 1:
        raise ExperimentError(f"k must be >= 1, got {k}")
    if min_length < 1:
        raise ExperimentError(f"min_length must be >= 1, got {min_length}")
    table, transactions = prepare_transactions(database, min_support_floor)
    collector = _TopKCollector(k, min_length, min_support_floor)
    tree = FPTree.from_rank_transactions(transactions, len(table))
    _mine(tree, collector, ())
    return [
        (table.ranks_to_items(ranks), support)
        for ranks, support in collector.results()
    ]


def _mine(tree: FPTree, collector: _TopKCollector, suffix: tuple[int, ...]) -> None:
    path = tree.single_path()
    if path is not None:
        if path:
            collector.emit_path_subsets(path, suffix)
        return
    for rank in tree.active_ranks_descending():
        support = tree.rank_count(rank)
        if support < collector.threshold:
            continue
        itemset = (rank,) + suffix
        collector.emit(itemset, support)
        conditional = _conditional(tree, rank, collector.threshold)
        if conditional is not None:
            _mine(conditional, collector, itemset)


def mine_top_k(
    array: CfpArray,
    k: int,
    min_length: int = 1,
    min_support_floor: int = 1,
) -> list[tuple[tuple[int, ...], int]]:
    """Top-k over a built CFP-array, in rank vocabulary.

    The serving-layer entry point: the array is long-lived (loaded once,
    queried many times), so unlike :func:`top_k_itemsets` no tree is ever
    built — conditionals come from the columnar kernels
    (:func:`repro.core.cfp_growth._conditional_struct`), exactly as the
    batch mine phase builds them. Because the collector's k-set is
    order-independent, the result is identical to running
    :func:`top_k_itemsets` on the database the array was built from
    (modulo rank translation) — the property the serving parity suite
    holds it to.
    """
    if k < 1:
        raise ExperimentError(f"k must be >= 1, got {k}")
    if min_length < 1:
        raise ExperimentError(f"min_length must be >= 1, got {min_length}")
    collector = _TopKCollector(k, min_length, max(1, min_support_floor))
    path = array.single_path()
    if path is not None:
        if path:
            collector.emit_path_subsets(path, ())
        return collector.results()
    _mine_array(array, collector, ())
    return collector.results()


def _mine_array(
    array: CfpArray | ConditionalArray,
    collector: _TopKCollector,
    suffix: tuple[int, ...],
) -> None:
    """The §2.1 mine loop against arrays, pruned by the rising threshold.

    The top level, the served array, is walked rank by rank, so an
    uncached store is not projected whole on every request. Below it
    every array is a kernel-built conditional, whose supports and prefix
    paths its builder recorded.
    """
    for rank in array.active_ranks_descending():
        support = array.rank_support(rank)
        if support < collector.threshold:
            continue
        itemset = (rank,) + suffix
        collector.emit(itemset, support)
        chain, cond_array = _conditional_struct(array, rank, collector.threshold)
        if chain is not None:
            collector.emit_path_subsets(chain, itemset)
        elif cond_array is not None:
            _mine_array(cond_array, collector, itemset)


def _conditional(tree: FPTree, rank: int, threshold: int) -> FPTree | None:
    paths = []
    counts: dict[int, int] = defaultdict(int)
    for path_ranks, count in tree.prefix_paths(rank):
        if path_ranks:
            paths.append((path_ranks, count))
            for path_rank in path_ranks:
                counts[path_rank] += count
    frequent = {r for r, c in counts.items() if c >= threshold}
    if not frequent:
        return None
    conditional = FPTree(tree.n_ranks)
    for path_ranks, count in paths:
        filtered = [r for r in path_ranks if r in frequent]
        if filtered:
            conditional.insert(filtered, count)
    if conditional.is_empty():
        return None
    return conditional
