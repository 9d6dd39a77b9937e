"""Item-frequency preprocessing shared by every miner (paper §2.1).

All prefix-tree miners start the same way: a first pass over the database
counts the support of each item; infrequent items are dropped; the items of
each transaction are then sorted in descending order of support. This module
factors that step out.

Internally every algorithm works on **ranks**: the most frequent item gets
rank 1, the second rank 2, and so on. Ranks have two properties the
compressed structures rely on:

* along any root-to-leaf path of a prefix tree built from rank-sorted
  transactions, ranks strictly increase — so ``delta_item`` (the rank delta
  to the parent) is always >= 1, which is why the 2-bit zero-suppression mask
  that always stores one byte is the right codec for it (§3.3);
* the smaller the rank, the closer the node sits to the root.

:class:`ItemTable` stores the rank <-> original-item mapping so results can
be reported in the caller's vocabulary.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.errors import DatasetError

#: One transaction in the caller's vocabulary: any iterable of hashable items.
Transaction = Sequence[Hashable]

#: A database is a sequence of transactions.
TransactionDatabase = Sequence[Transaction]


@dataclass
class ItemTable:
    """Frequent items of a database with their supports and ranks.

    Ranks are 1-based and assigned in descending order of support; ties are
    broken by the items' sorted order (falling back to ``repr`` for mixed
    types) so that preprocessing is deterministic.
    """

    min_support: int
    """The absolute minimum support the table was built with."""

    supports: dict[Hashable, int]
    """Support of each *frequent* item, keyed by original item."""

    rank_of: dict[Hashable, int] = field(init=False)
    """Original item -> rank (1 = most frequent)."""

    item_of: list[Hashable] = field(init=False)
    """Rank -> original item; index 0 is unused (ranks are 1-based)."""

    rank_supports: list[int] = field(init=False)
    """Rank -> support; index 0 is unused."""

    def __post_init__(self) -> None:
        def sort_key(entry):
            item, support = entry
            try:
                return (-support, item)
            except TypeError:  # pragma: no cover - mixed item types
                return (-support, repr(item))

        ordered = sorted(self.supports.items(), key=sort_key)
        self.rank_of = {item: rank for rank, (item, __) in enumerate(ordered, start=1)}
        self.item_of = [None] + [item for item, __ in ordered]
        self.rank_supports = [0] + [support for __, support in ordered]

    def __len__(self) -> int:
        return len(self.supports)

    def ranks_to_items(self, ranks: Iterable[int]) -> tuple:
        """Translate a rank itemset back to original items."""
        return tuple(map(self.item_of.__getitem__, ranks))

    def fingerprint(self) -> str:
        """Content hash identifying the table's exact rank assignment.

        Covers ``min_support`` and every ``(item, support)`` pair in rank
        order, so two tables fingerprint equal iff they map the same items
        to the same ranks with the same supports — the property the
        checkpoint-resume path (:mod:`repro.streaming`) must verify.
        ``repr`` keys the items: it is what already disambiguates mixed
        item types in the rank sort above.
        """
        digest = hashlib.sha256()
        digest.update(f"min_support={self.min_support}".encode())
        for rank in range(1, len(self.item_of)):
            digest.update(
                f"\x00{rank}\x01{self.item_of[rank]!r}"
                f"\x02{self.rank_supports[rank]}".encode()
            )
        return digest.hexdigest()


def count_items(database: TransactionDatabase) -> Counter:
    """First database pass: support of every item.

    A transaction containing an item multiple times counts it once, per the
    set semantics of itemset mining.
    """
    counts: Counter = Counter()
    for transaction in database:
        counts.update(set(transaction))
    return counts


def build_item_table(database: TransactionDatabase, min_support: int) -> ItemTable:
    """Count supports and keep only frequent items."""
    if min_support < 1:
        raise DatasetError(f"min_support must be >= 1, got {min_support}")
    counts = count_items(database)
    frequent = {
        item: support for item, support in counts.items() if support >= min_support
    }
    return ItemTable(min_support=min_support, supports=frequent)


def prepare_transactions(
    database: TransactionDatabase, min_support: int
) -> tuple[ItemTable, list[list[int]]]:
    """Run both preprocessing passes.

    Returns the :class:`ItemTable` and the database as rank lists: each
    transaction reduced to its frequent items, deduplicated, translated to
    ranks and sorted ascending (i.e. descending item frequency). Empty
    transactions are dropped — they cannot contribute to any itemset.
    """
    table = build_item_table(database, min_support)
    rank_of = table.rank_of
    prepared = []
    for transaction in database:
        ranks = sorted({rank_of[item] for item in transaction if item in rank_of})
        if ranks:
            prepared.append(ranks)
    return table, prepared
