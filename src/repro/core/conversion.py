"""Conversion of a ternary CFP-tree into a CFP-array (paper §3.5).

The paper performs two passes over the CFP-tree: a sizing pass and a
placement pass, both depth-first in the same order, with ``dpos`` values
obtained from a stack holding the path from the root to the current node.

This implementation restructures those passes around three primitives that
the parallel build phase (:mod:`repro.core.build_parallel`) reuses:

* :func:`flatten_subtrees` — one DFS over the tree yielding each level-1
  subtree as flat preorder arrays ``(ranks, parents, counts)``, with
  *cumulative* counts folded in child to parent. The DFS is the tree's
  own in-place arena walk (:meth:`TernaryCfpTree.subtrees`), which reads
  node headers and chain entries without decoding node objects. The
  CFP-array stores cumulative counts, which are only known once a node's
  whole subtree has been visited, while a node's encoded size (needed by
  the sizing cursor) must be known at preorder time; the paper's C++ code
  can fold this into its sizing pass because it tracks per-node state in
  the tree itself, which the compressed byte format deliberately has no
  room for.
* :func:`splice_subtree` — sizes one subtree's triples against a
  :class:`Layout` holding the global per-rank cursors. Because the serial
  DFS visits level-1 subtrees in ascending leading-rank order, splicing
  independently-built subtrees in that same order reproduces the serial
  cursor walk exactly — the property the parallel build's merge step
  relies on for byte identity.
* :func:`assemble` — allocates the final buffer and bulk-encodes each
  per-rank subarray through :func:`repro.compress.varint.encode_triples`
  instead of three per-field ``encode_into`` calls per node (lint rule
  INV007 pins this down).

Per-subarray writes in the placement pass are strictly sequential — the
property that makes conversion behave well under memory pressure (§3.5).
"""

from __future__ import annotations

from typing import Iterator

from repro.compress import varint
from repro.core.cfp_array import CfpArray
from repro.core.ternary import TernaryCfpTree
from repro.errors import ConversionError

#: One flattened level-1 subtree: ``(leading_rank, ranks, parents, counts)``
#: where ``parents[i]`` indexes the preorder arrays (-1 for the subtree root)
#: and ``counts`` are already cumulative.
FlatSubtree = tuple[int, list[int], list[int], list[int]]


def cumulative_counts(tree: TernaryCfpTree) -> list[int]:
    """Cumulative count per node in DFS preorder.

    ``count(v) = pcount(v) + sum of counts of v's children`` (§3.2).
    """
    counts: list[int] = []
    for __, __, __, subtree_counts in flatten_subtrees(tree):
        counts.extend(subtree_counts)
    return counts


def flatten_subtrees(tree: TernaryCfpTree) -> Iterator[FlatSubtree]:
    """Flatten each level-1 subtree of ``tree`` into preorder flat arrays.

    Yields ``(leading_rank, ranks, parents, counts)`` per root child, in
    ascending leading-rank order (the order :meth:`~TernaryCfpTree.subtrees`
    walks the arena). ``counts`` are cumulative: the raw pcounts folded
    child into parent in reverse preorder, which visits every child before
    its parent. Concatenating the yielded subtrees reproduces the full
    serial DFS, because level-1 subtrees partition the tree and DFS never
    interleaves them.
    """
    for ranks, parents, counts in tree.subtrees():
        for index in range(len(ranks) - 1, 0, -1):
            counts[parents[index]] += counts[index]
        yield ranks[0], ranks, parents, counts


class Layout:
    """Mutable state of the sizing/placement cursor walk.

    Tracks, per rank: the local byte cursor (a node's ``dpos`` is relative
    to its parent's local position), the accumulated subarray size, and the
    ``(delta_item, dpos, count)`` triples awaiting bulk encoding.
    """

    __slots__ = ("n_ranks", "cursors", "sizes", "triples", "nodes")

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        self.cursors: list[int] = [0] * (n_ranks + 1)
        self.sizes: list[int] = [0] * (n_ranks + 1)
        self.triples: list[list[tuple[int, int, int]]] = [
            [] for __ in range(n_ranks + 1)
        ]
        self.nodes = 0


def splice_subtree(
    layout: Layout,
    ranks: list[int],
    parents: list[int],
    counts: list[int],
) -> None:
    """Size one flattened subtree's triples against the global cursors.

    Must be called in ascending leading-rank order across subtrees to match
    the serial DFS: ``dpos`` (and therefore each varint's width, and
    therefore every later local position in the same subarray) depends on
    the cursor state left behind by all earlier subtrees. This is the
    "rebase" step of the parallel build merge — the per-node deltas come
    from the worker's shard, the positions from the global walk.
    """
    cursors = layout.cursors
    sizes = layout.sizes
    triples = layout.triples
    tsize = varint.triple_size
    locals_ = [0] * len(ranks)
    for index in range(len(ranks)):
        rank = ranks[index]
        parent = parents[index]
        local = cursors[rank]
        locals_[index] = local
        if parent < 0:
            delta_item = rank
            dpos = 0
        else:
            delta_item = rank - ranks[parent]
            dpos = local - locals_[parent]
        count = counts[index]
        size = tsize(delta_item, dpos, count)
        cursors[rank] = local + size
        sizes[rank] += size
        triples[rank].append((delta_item, dpos, count))
    layout.nodes += len(ranks)


def assemble(layout: Layout) -> CfpArray:
    """Allocate the final buffer and bulk-encode every per-rank subarray."""
    n_ranks = layout.n_ranks
    starts = [0] * (n_ranks + 2)
    total = 0
    for rank in range(1, n_ranks + 1):
        total += layout.sizes[rank]
        starts[rank + 1] = total
    buffer = bytearray(total)
    for rank in range(1, n_ranks + 1):
        end = varint.encode_triples(buffer, starts[rank], layout.triples[rank])
        if end != starts[rank + 1]:
            raise ConversionError(
                f"subarray of rank {rank} filled {end - starts[rank]} of "
                f"{layout.sizes[rank]} bytes"
            )
    # The flatten pass already visited every node, so the converter knows the
    # node count exactly — no lazy re-decode of the whole buffer later.
    return CfpArray(n_ranks, buffer, starts, node_count=layout.nodes)


def convert(tree: TernaryCfpTree) -> CfpArray:
    """Transform a built CFP-tree into the mine-phase CFP-array."""
    layout = Layout(tree.n_ranks)
    for __, ranks, parents, counts in flatten_subtrees(tree):
        splice_subtree(layout, ranks, parents, counts)
    return assemble(layout)
