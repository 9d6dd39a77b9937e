"""The serving store: one CFP-array on disk plus its item vocabulary.

A mining run ends with structures in *rank* vocabulary; a query server
must answer in the caller's item vocabulary. :func:`build_store`
persists both halves next to each other — the ``.cfpa`` array file via
:func:`repro.storage.save_cfp_array` and a small JSON sidecar carrying
the item table (items with supports, in rank order), the build's
``min_support``, and the transaction count (needed for rule lift).
:class:`ServingStore` opens the pair read-only behind one shared
:class:`repro.storage.BufferPool` — a
:class:`repro.storage.PartitionedCfpArray`, which reads monolithic (v2)
and partitioned (v3) stores alike — and exposes the three query
families the server serves: itemset support, top-k, and "also bought"
rule recommendations.

Support walks the array per query, reading only the node headers its
walks reach. Top-k and rules read a pattern index instead: the store
mines its array once, at its own ``min_support``, on the first top-k or
rules query, and keeps every frequent itemset ordered by (support
descending, rank tuple ascending). Top-k is a filtered prefix of that
index and rules are derived from it, so no query mines after the first.

The sidecar stores the table's :meth:`repro.util.items.ItemTable.fingerprint`
and the load path re-verifies it, so an item vocabulary that did not
survive the JSON round trip (mixed item types whose rank sort changed)
fails loudly instead of silently answering for the wrong items.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from itertools import islice
from typing import Any, Hashable, Iterable

from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET, mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import ExperimentError, ReproError
from repro.fptree.growth import ListCollector
from repro.rules import Rule, also_bought, generate_rules
from repro.storage import (
    PartitionedCfpArray,
    save_cfp_array,
    save_cfp_array_partitioned,
)
from repro.util.items import ItemTable, TransactionDatabase, prepare_transactions
from repro.util.queries import itemset_support

#: The item-vocabulary sidecar lives next to the array file.
SIDECAR_SUFFIX = ".items.json"

#: Default pool size for a serving store: generous relative to the mining
#: default because a server's working set is the whole array, not one
#: conditional chain.
DEFAULT_POOL_PAGES = 256

#: Rule lists a store keeps, one per ``(min_confidence,
#: max_consequent_size)``; the least recently used goes first. Any client
#: may send a new confidence, so the cache must not grow with them.
RULES_CACHE_KEYS = 8

#: One pattern-index entry: an itemset in item vocabulary and its support.
Pattern = tuple[tuple[Hashable, ...], int]


class StoreError(ReproError):
    """A serving store is missing, malformed, or inconsistent."""


def sidecar_path(array_path: str | os.PathLike[str]) -> str:
    """Path of the item-vocabulary sidecar for ``array_path``."""
    return os.fspath(array_path) + SIDECAR_SUFFIX


def write_sidecar(
    array_path: str | os.PathLike[str],
    table: ItemTable,
    n_transactions: int,
) -> str:
    """Write the item-vocabulary sidecar next to an array file.

    Shared by :func:`build_store` and the streaming snapshot publisher
    (:class:`repro.streaming.snapshots.SnapshotManager`) so every store
    a :class:`ServingStore` opens carries the same metadata shape.
    Returns the sidecar path.
    """
    sidecar = {
        "min_support": table.min_support,
        "n_transactions": n_transactions,
        "fingerprint": table.fingerprint(),
        "items": [
            [table.item_of[rank], table.rank_supports[rank]]
            for rank in range(1, len(table) + 1)
        ],
    }
    path = sidecar_path(array_path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle)
        handle.write("\n")
    return path


def build_store(
    database: TransactionDatabase,
    min_support: int,
    array_path: str | os.PathLike[str],
    *,
    partition_bytes: int | None = None,
) -> int:
    """Build and persist a serving store; returns the array file size.

    Runs the standard build pipeline (prepare -> CFP-tree -> convert),
    saves the array, and writes the sidecar. The sidecar is written
    *after* the array so a crash mid-build leaves no openable store.
    ``partition_bytes`` writes the partitioned (v3) format instead of the
    monolithic v2 file; :class:`ServingStore` opens either.
    """
    table, transactions = prepare_transactions(database, min_support)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
    array = convert(tree)
    del tree
    if partition_bytes is not None:
        size = save_cfp_array_partitioned(
            array, array_path, partition_bytes=partition_bytes
        )
    else:
        size = save_cfp_array(array, array_path)
    write_sidecar(array_path, table, len(database))
    return size


class ServingStore:
    """Read-only query facade over one persisted CFP-array.

    All query methods are thread-safe — the underlying pool and decoded-
    subarray cache carry their own locks, and one index lock guards the
    pattern index and the rules cache. The index is built lazily: the
    first top-k or rules query mines the array once (under the lock, so
    concurrent first queries do not mine twice), and every later one
    reads it. Rule lists are derived from the index and cached for the
    :data:`RULES_CACHE_KEYS` most recently used parameter pairs.
    """

    def __init__(
        self,
        array_path: str | os.PathLike[str],
        *,
        pool_pages: int = DEFAULT_POOL_PAGES,
        cache_budget: int = DEFAULT_CACHE_BUDGET,
        hot_bytes: int = 0,
        verify: bool = True,
    ) -> None:
        self.path = os.fspath(array_path)
        sidecar = sidecar_path(array_path)
        meta = self._read_sidecar(sidecar)
        # The sidecar is parsed into the resident ItemTable, so its size
        # is long-lived memory — a store with a huge vocabulary is not
        # "free" just because the array pages through the pool.
        self._sidecar_bytes = os.path.getsize(sidecar)
        try:
            supports = {item: support for item, support in meta["items"]}
        except TypeError:
            raise StoreError(
                f"{sidecar}: sidecar items are not hashable"
            ) from None
        self.table = ItemTable(meta["min_support"], supports)
        if self.table.fingerprint() != meta["fingerprint"]:
            raise StoreError(
                f"{sidecar}: item table does not round-trip "
                "(fingerprint mismatch); the store must be rebuilt"
            )
        self.n_transactions: int = meta["n_transactions"]
        self.array = PartitionedCfpArray(
            array_path,
            pool_pages,
            cache_budget,
            hot_bytes=hot_bytes,
            verify=verify,
        )
        self._index_lock = threading.Lock()
        self._index: list[Pattern] | None = None
        self._rules_cache: OrderedDict[tuple[float, int | None], list[Rule]] = (
            OrderedDict()
        )

    @staticmethod
    def _read_sidecar(path: str) -> dict[str, Any]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                meta: dict[str, Any] = json.load(handle)
        except FileNotFoundError:
            raise StoreError(
                f"{path}: item sidecar not found (not a serving store; "
                "build one with `repro serve --build` or build_store())"
            ) from None
        except json.JSONDecodeError as exc:
            raise StoreError(f"{path}: sidecar is not valid JSON: {exc}") from None
        for key in ("min_support", "n_transactions", "fingerprint", "items"):
            if key not in meta:
                raise StoreError(f"{path}: sidecar is missing {key!r}")
        items = meta["items"]
        if not isinstance(items, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in items
        ):
            raise StoreError(f"{path}: sidecar items must be [item, support] pairs")
        return meta

    # -- queries --------------------------------------------------------

    def support(self, items: Iterable[Hashable]) -> int:
        """Absolute support of an itemset (0 for unknown items).

        One decode of the least frequent item's subarray plus a backward
        walk over node headers per node
        (:func:`repro.util.queries.support_in_cfp_array`). Once the
        pattern index is mined, each node answers from the path the
        index mine memoized, without a walk.
        """
        return itemset_support(self.array, self.table, items)

    def _patterns(self) -> list[Pattern]:
        """The pattern index: every itemset reaching ``min_support``.

        Ordered by (support descending, rank tuple ascending), the order
        :func:`repro.mining.topk.mine_top_k` ranks by. Mined on the first
        call; later calls return the same list.
        """
        with self._index_lock:
            if self._index is None:
                collector = ListCollector()
                mine_array(self.array, self.table.min_support, collector)
                ranked = sorted(
                    (
                        (tuple(sorted(ranks)), support)
                        for ranks, support in collector.itemsets
                    ),
                    key=lambda entry: (-entry[1], entry[0]),
                )
                self._index = [
                    (self.table.ranks_to_items(ranks), support)
                    for ranks, support in ranked
                ]
            return self._index

    def top_k(self, k: int, min_length: int = 1) -> list[Pattern]:
        """The k best itemsets of at least ``min_length`` items.

        A prefix of the pattern index: equal to
        :func:`repro.mining.topk.mine_top_k` whenever at least k such
        itemsets reach the store's ``min_support``, and shorter
        otherwise.
        """
        if k < 1:
            raise ExperimentError(f"k must be >= 1, got {k}")
        if min_length < 1:
            raise ExperimentError(f"min_length must be >= 1, got {min_length}")
        long_enough = (
            entry for entry in self._patterns() if len(entry[0]) >= min_length
        )
        return list(islice(long_enough, k))

    def rules(
        self,
        min_confidence: float = 0.5,
        max_consequent_size: int | None = None,
    ) -> list[Rule]:
        """The full rule set at a confidence threshold, from the index."""
        key = (float(min_confidence), max_consequent_size)
        patterns = self._patterns()
        with self._index_lock:
            cached = self._rules_cache.get(key)
            if cached is None:
                cached = generate_rules(
                    patterns,
                    self.n_transactions,
                    min_confidence,
                    max_consequent_size,
                )
                self._rules_cache[key] = cached
                if len(self._rules_cache) > RULES_CACHE_KEYS:
                    self._rules_cache.popitem(last=False)
            else:
                self._rules_cache.move_to_end(key)
        return cached

    def also_bought(
        self,
        basket: Iterable[Hashable],
        limit: int = 10,
        min_confidence: float = 0.5,
    ) -> list[Rule]:
        """Rules a basket triggers, strongest first (see repro.rules)."""
        return also_bought(self.rules(min_confidence), basket, limit)

    # -- lifecycle ------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Long-lived memory the store holds.

        Covers the array reader (pool + item index + cache budget + any
        pinned hot set) *and* the item-table sidecar, whose parsed
        vocabulary stays resident for the life of the store.
        """
        return self.array.memory_bytes + self._sidecar_bytes

    def close(self) -> None:
        self.array.close()

    def __enter__(self) -> "ServingStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingStore({self.path!r}, items={len(self.table)}, "
            f"n_transactions={self.n_transactions})"
        )


__all__ = [
    "DEFAULT_POOL_PAGES",
    "Pattern",
    "RULES_CACHE_KEYS",
    "SIDECAR_SUFFIX",
    "ServingStore",
    "StoreError",
    "build_store",
    "sidecar_path",
    "write_sidecar",
]
