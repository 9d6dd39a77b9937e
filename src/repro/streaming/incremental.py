"""Incremental mining: delta CFP-trees merged into a persistent forest.

The batch builder (:mod:`repro.streaming.builder`) grows one big ternary
CFP-tree and converts it once at the end. That shape cannot *forget*:
a sliding window over a stream would need per-node reference counts the
pointer tree does not keep. This module keeps the window state in a
different representation — a **flat forest**: one preorder array triple
``(ranks, parents, pcounts)`` per level-1 subtree, exactly the shape
:func:`repro.core.conversion.flatten_subtrees` produces, except the
counts are raw *pcounts* (transactions ending at the node), not the
cumulative counts the CFP-array encodes. Raw pcounts are the reason the
forest can evict: they subtract cleanly per batch, while cumulative
counts would entangle every ancestor.

The update cycle per batch:

1. build a small *delta* CFP-tree from just that batch via
   :meth:`TernaryCfpTree.insert_batch` (the sorted fast path);
2. flatten it into a :class:`DeltaForest` (:meth:`DeltaForest.from_tree`);
3. :func:`merge_forest` it into the window forest with ``sign=+1``
   (append) — an ordered two-pointer preorder merge per leading rank;
4. when the window slides, replay the oldest batch's delta with
   ``sign=-1`` (evict) and drop the resulting zero-count *tombstone*
   subtrees with :func:`compact_forest`.

**The identity tripwire.** After compaction the forest is structurally
identical to the flatten of a from-scratch CFP-tree over the surviving
window (under the same frozen :class:`~repro.util.items.ItemTable`): a
node survives iff some window transaction's ranked prefix passes through
it, children stay in ascending rank order, and pcounts match exactly.
:func:`forest_to_array` therefore replays the serial conversion —
cumulative fold, :func:`~repro.core.conversion.splice_subtree` in
ascending leading-rank order, :func:`~repro.core.conversion.assemble` —
and produces a CFP-array **byte-identical** to
``convert(from_rank_transactions(window))``. CI's incremental-smoke job
and the hypothesis property in tests/test_incremental.py gate on that
equality; any drift in the merge kernel trips it immediately.

The ``delta.merge`` fault-injection site fires at the top of every
:func:`merge_forest` call; the merged forest is computed fully before it
is committed, so an injected ``raise`` (or any merge error) leaves the
window state untouched and the merge can simply be retried.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable

from repro import faultinject, obs
from repro.core.cfp_array import CfpArray
from repro.core.cfp_growth import mine_array
from repro.core.conversion import Layout, assemble, splice_subtree
from repro.core.ternary import TernaryCfpTree
from repro.errors import StreamingError
from repro.fptree.growth import ListCollector
from repro.util.items import ItemTable, Transaction

#: One flat subtree: preorder ``(ranks, parents, pcounts)``; ``parents[i]``
#: indexes the arrays (-1 for the subtree root), pcounts are raw.
FlatTree = tuple[list[int], list[int], list[int]]


class DeltaForest:
    """A CFP-forest as flat per-leading-rank preorder arrays.

    ``trees`` maps each leading rank to one :data:`FlatTree`. Invariants
    (established by :meth:`from_tree`, preserved by :func:`merge_forest`
    and :func:`compact_forest`): nodes are in DFS preorder, siblings
    ascend by rank, parents precede children, and every pcount is >= 0.
    """

    __slots__ = ("n_ranks", "trees")

    def __init__(
        self, n_ranks: int, trees: dict[int, FlatTree] | None = None
    ) -> None:
        self.n_ranks = n_ranks
        self.trees: dict[int, FlatTree] = trees if trees is not None else {}

    @classmethod
    def from_tree(cls, tree: TernaryCfpTree) -> "DeltaForest":
        """Flatten a ternary CFP-tree, keeping pcounts raw.

        The same arena walk as :func:`~repro.core.conversion.flatten_subtrees`
        (:meth:`TernaryCfpTree.subtrees`) minus the cumulative fold — the
        forest must stay subtractable, so the fold is deferred to
        :func:`forest_to_array`.
        """
        forest = cls(tree.n_ranks)
        for ranks, parents, pcounts in tree.subtrees():
            forest.trees[ranks[0]] = (ranks, parents, pcounts)
        return forest

    @property
    def node_count(self) -> int:
        return sum(len(ranks) for ranks, __, __ in self.trees.values())

    @property
    def transaction_count(self) -> int:
        """Transactions represented (sum of all pcounts)."""
        return sum(sum(pcounts) for __, __, pcounts in self.trees.values())


def _child_lists(parents: list[int]) -> list[list[int]]:
    """Per-node child index lists; preorder keeps them rank-ascending."""
    children: list[list[int]] = [[] for __ in parents]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    return children


def _merge_children(
    a_ranks: list[int],
    a_kids: list[int],
    b_ranks: list[int],
    b_kids: list[int],
) -> list[tuple[int | None, int | None]]:
    """Two-pointer merge of two rank-ascending child lists.

    Yields ``(a_index, b_index)`` pairs in ascending rank order; one side
    is ``None`` where only the other tree has that child.
    """
    merged: list[tuple[int | None, int | None]] = []
    i = j = 0
    while i < len(a_kids) and j < len(b_kids):
        rank_a = a_ranks[a_kids[i]]
        rank_b = b_ranks[b_kids[j]]
        if rank_a == rank_b:
            merged.append((a_kids[i], b_kids[j]))
            i += 1
            j += 1
        elif rank_a < rank_b:
            merged.append((a_kids[i], None))
            i += 1
        else:
            merged.append((None, b_kids[j]))
            j += 1
    merged.extend((a_kids[k], None) for k in range(i, len(a_kids)))
    merged.extend((None, b_kids[k]) for k in range(j, len(b_kids)))
    return merged


def _subtree_sizes(parents: list[int]) -> list[int]:
    """Nodes in each node's subtree (preorder slice lengths)."""
    sizes = [1] * len(parents)
    for index in range(len(parents) - 1, 0, -1):
        sizes[parents[index]] += sizes[index]
    return sizes


def _copy_subtree(
    src: FlatTree,
    sizes: list[int],
    root: int,
    out_parent: int,
    out_ranks: list[int],
    out_parents: list[int],
    out_pcounts: list[int],
) -> None:
    """Append one whole subtree of ``src`` as preorder slice copies.

    A subtree is a contiguous preorder slice, so untouched regions move
    as bulk list operations instead of a per-node stack walk — the
    property that keeps a delta merge's cost proportional to the *delta*
    (plus the paths it touches), not to the whole window forest.
    """
    ranks, parents, pcounts = src
    end = root + sizes[root]
    offset = len(out_ranks) - root
    out_ranks.extend(ranks[root:end])
    out_parents.append(out_parent)
    out_parents.extend(p + offset for p in parents[root + 1 : end])
    out_pcounts.extend(pcounts[root:end])


def _merge_flat(a: FlatTree, b: FlatTree, sign: int) -> FlatTree:
    """Merge two flat subtrees sharing a leading rank (pure; no mutation).

    Iterative preorder walk over the union: matched nodes sum pcounts
    (``a + sign * b``) and merge their child lists two-pointer style;
    one-sided subtrees bulk-copy as preorder slices (or, under
    ``sign=-1``, a delta-only subtree is rejected — evicting structure
    the window never contained means the caller replayed the wrong
    batch). Children are pushed reversed so the stack pops them in
    ascending rank order, preserving preorder.
    """
    a_ranks, a_parents, a_pcounts = a
    b_ranks, b_parents, b_pcounts = b
    a_children = _child_lists(a_parents)
    b_children = _child_lists(b_parents)
    a_sizes = _subtree_sizes(a_parents)
    b_sizes = _subtree_sizes(b_parents)
    out_ranks: list[int] = []
    out_parents: list[int] = []
    out_pcounts: list[int] = []
    stack: list[tuple[int | None, int | None, int]] = [(0, 0, -1)]
    while stack:
        ai, bi, parent = stack.pop()
        if bi is None:
            assert ai is not None
            _copy_subtree(
                a, a_sizes, ai, parent, out_ranks, out_parents, out_pcounts
            )
            continue
        if ai is None:
            if sign < 0:
                raise StreamingError(
                    f"eviction delta contains rank {b_ranks[bi]} under a path "
                    "the window forest never held; wrong batch replayed?"
                )
            _copy_subtree(
                b, b_sizes, bi, parent, out_ranks, out_parents, out_pcounts
            )
            continue
        pcount = a_pcounts[ai] + sign * b_pcounts[bi]
        if pcount < 0:
            raise StreamingError(
                f"pcount of rank {a_ranks[ai]} would go negative ({pcount}); "
                "eviction delta does not match the appended batch"
            )
        position = len(out_ranks)
        out_ranks.append(a_ranks[ai])
        out_parents.append(parent)
        out_pcounts.append(pcount)
        kids = _merge_children(a_ranks, a_children[ai], b_ranks, b_children[bi])
        for pair in reversed(kids):
            stack.append((pair[0], pair[1], position))
    return out_ranks, out_parents, out_pcounts


def merge_forest(base: DeltaForest, delta: DeltaForest, *, sign: int = 1) -> None:
    """Merge ``delta`` into ``base`` in place; ``sign=-1`` evicts.

    Every affected subtree is merged into fresh arrays *before* any of
    them is committed to ``base``, so a failure partway (including an
    injected fault at the ``delta.merge`` site, which fires first) leaves
    ``base`` exactly as it was — the retry story the resilient stream
    pipeline depends on. ``delta`` is never mutated or aliased.
    """
    if sign not in (1, -1):
        raise StreamingError(f"merge sign must be +1 or -1, got {sign}")
    if base.n_ranks != delta.n_ranks:
        raise StreamingError(
            f"cannot merge forests over different rank tables "
            f"({base.n_ranks} != {delta.n_ranks})"
        )
    faultinject.fire("delta.merge", sign=sign, subtrees=len(delta.trees))
    merged: dict[int, FlatTree] = {}
    for leading, flat in delta.trees.items():
        existing = base.trees.get(leading)
        if existing is not None:
            merged[leading] = _merge_flat(existing, flat, sign)
        elif sign < 0:
            raise StreamingError(
                f"eviction delta has leading rank {leading} but the window "
                "forest has no such subtree; wrong batch replayed?"
            )
        else:
            merged[leading] = (flat[0][:], flat[1][:], flat[2][:])
    base.trees.update(merged)


def compact_forest(forest: DeltaForest) -> int:
    """Drop tombstones (zero cumulative count) left by evictions.

    Because pcounts are non-negative, a node with cumulative count zero
    heads an *entirely* dead subtree — so surviving nodes always keep a
    surviving parent and the compacted arrays stay valid preorder with
    the original sibling order. Returns the number of nodes dropped.
    """
    dropped = 0
    for leading in list(forest.trees):
        ranks, parents, pcounts = forest.trees[leading]
        cumulative = list(pcounts)
        for index in range(len(cumulative) - 1, 0, -1):
            cumulative[parents[index]] += cumulative[index]
        if not cumulative or cumulative[0] == 0:
            dropped += len(ranks)
            del forest.trees[leading]
            continue
        keep = [index for index in range(len(ranks)) if cumulative[index] > 0]
        if len(keep) == len(ranks):
            continue
        dropped += len(ranks) - len(keep)
        remap = {old: new for new, old in enumerate(keep)}
        forest.trees[leading] = (
            [ranks[index] for index in keep],
            [remap[parents[index]] if parents[index] >= 0 else -1 for index in keep],
            [pcounts[index] for index in keep],
        )
    return dropped


def forest_to_array(forest: DeltaForest) -> CfpArray:
    """Encode the forest as a CFP-array via the serial conversion walk.

    Applies the deferred cumulative fold per subtree, then splices in
    ascending leading-rank order — the byte-identity contract of
    :func:`~repro.core.conversion.splice_subtree`. On a compacted forest
    the result is byte-identical to ``convert()`` of a from-scratch tree
    over the same window (the module-level tripwire).
    """
    layout = Layout(forest.n_ranks)
    for leading in sorted(forest.trees):
        ranks, parents, pcounts = forest.trees[leading]
        counts = list(pcounts)
        for index in range(len(counts) - 1, 0, -1):
            counts[parents[index]] += counts[index]
        splice_subtree(layout, ranks, parents, counts)
    return assemble(layout)


class IncrementalMiner:
    """Sliding-window mining over a stream of batches.

    Holds the window forest plus the per-batch deltas still inside the
    window (the eviction replay queue). The :class:`ItemTable` is frozen
    for the miner's lifetime — ranks must mean the same item in every
    delta, which is what makes eviction-by-subtraction (and the identity
    tripwire against a same-table rebuild) well-defined. ``window=None``
    keeps every batch (grow-only, like the batch builder).

    Counters: ``streaming.delta_merges``, ``streaming.batches_evicted``,
    ``streaming.tombstones_dropped``.
    """

    def __init__(self, table: ItemTable, *, window: int | None = None) -> None:
        if window is not None and window < 1:
            raise StreamingError(f"window must be >= 1 batches, got {window}")
        self.table = table
        self.window = window
        self.forest = DeltaForest(len(table))
        self.batches_consumed = 0
        self._window_deltas: deque[tuple[DeltaForest, int]] = deque()

    @property
    def window_batches(self) -> int:
        """Batches currently inside the window."""
        return len(self._window_deltas)

    @property
    def window_transactions(self) -> int:
        """Transactions (with at least one frequent item) in the window."""
        return sum(inserted for __, inserted in self._window_deltas)

    def append_batch(self, batch: Iterable[Transaction]) -> int:
        """Build, flatten, and merge one batch; returns insertions.

        Slides the window afterwards: with ``window=N``, batches older
        than the newest N are evicted oldest-first.
        """
        rank_of = self.table.rank_of
        with obs.maybe_span("delta_merge", batch=self.batches_consumed) as span:
            ranked = [
                sorted({rank_of[item] for item in transaction if item in rank_of})
                for transaction in batch
            ]
            delta_tree = TernaryCfpTree(len(self.table))
            inserted = delta_tree.insert_batch(ranked)
            delta = DeltaForest.from_tree(delta_tree)
            merge_forest(self.forest, delta, sign=1)
            self._window_deltas.append((delta, inserted))
            self.batches_consumed += 1
            obs.metrics.add("streaming.delta_merges")
            span.set("inserted", inserted)
            span.set("forest_nodes", self.forest.node_count)
        while self.window is not None and len(self._window_deltas) > self.window:
            self.evict_oldest()
        return inserted

    def evict_oldest(self) -> int:
        """Subtract the oldest batch and compact; returns its insertions.

        The eviction is the append replayed with ``sign=-1``; compaction
        then removes the tombstoned subtrees so the forest re-enters the
        canonical (rebuild-identical) shape before the next merge.
        """
        if not self._window_deltas:
            raise StreamingError("window is empty; nothing to evict")
        delta, inserted = self._window_deltas.popleft()
        merge_forest(self.forest, delta, sign=-1)
        dropped = compact_forest(self.forest)
        obs.metrics.add("streaming.batches_evicted")
        obs.metrics.add("streaming.tombstones_dropped", dropped)
        return inserted

    def to_array(self) -> CfpArray:
        """The window as a CFP-array (byte-identical to a rebuild)."""
        return forest_to_array(self.forest)

    def mine(self) -> list[tuple[tuple[Hashable, ...], int]]:
        """Mine the current window (the miner remains usable after)."""
        collector = ListCollector()
        mine_array(self.to_array(), self.table.min_support, collector)
        return [
            (self.table.ranks_to_items(ranks), support)
            for ranks, support in collector.itemsets
        ]


__all__ = [
    "DeltaForest",
    "FlatTree",
    "IncrementalMiner",
    "compact_forest",
    "forest_to_array",
    "merge_forest",
]
