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
  the placement cursor) must be known at preorder time; the paper's C++
  code can fold this into its sizing pass because it tracks per-node
  state in the tree itself, which the compressed byte format deliberately
  has no room for.
* :func:`splice_subtree` — places and encodes one subtree's triples into
  a :class:`Layout`'s per-rank subarrays in one pass (lint rule INV007
  forbids per-field encodes here). Because the serial DFS visits
  level-1 subtrees in ascending leading-rank order, splicing
  independently-built subtrees in that same order reproduces the serial
  cursor walk exactly — the property the parallel build's merge step
  relies on for byte identity.
* :func:`assemble` — joins the subarrays into the final buffer; each
  subarray's size is its length, so the item index needs no sizing pass.

Per-subarray writes are strictly sequential — the property that makes
conversion behave well under memory pressure (§3.5).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator

from repro.compress import varint
from repro.core.cfp_array import CfpArray
from repro.core.ternary import TernaryCfpTree

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
    """Mutable state of the placement walk.

    ``subarrays[rank]`` holds the rank's encoded triples so far; its length
    is the rank's local cursor (a node's ``dpos`` is relative to its
    parent's local position). ``nodes`` counts the placed nodes.
    """

    __slots__ = ("n_ranks", "subarrays", "nodes")

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        self.subarrays = [bytearray() for __ in range(n_ranks + 1)]
        self.nodes = 0


def splice_subtree(
    layout: Layout,
    ranks: list[int],
    parents: list[int],
    counts: list[int],
) -> None:
    """Place and encode one flattened subtree against the global cursors.

    Must be called in ascending leading-rank order across subtrees to match
    the serial DFS: ``dpos`` (and therefore each varint's width, and
    therefore every later local position in the same subarray) depends on
    the cursor state left behind by all earlier subtrees. This is the
    "rebase" step of the parallel build merge — the per-node deltas come
    from the worker's shard, the positions from the global walk.

    §3.5 writes each subarray strictly in sequence, so a node's local
    position is its rank's subarray length so far, and its ``(delta_item,
    dpos, count)`` triple is appended there as it is placed. Fields below
    2^12 are copied from :func:`varint.small_encodings`; any other triple
    takes :func:`varint.encode_triples`' checked path, which raises
    :class:`~repro.errors.ValueOutOfRangeError` for a field outside the
    codec's range.
    """
    subarrays = layout.subarrays
    table = varint.small_encodings()
    limit = len(table)
    locals_ = [0] * len(ranks)
    for index, rank in enumerate(ranks):
        out = subarrays[rank]
        local = locals_[index] = len(out)
        parent = parents[index]
        if parent < 0:
            delta_item, dpos = rank, 0
        else:
            delta_item = rank - ranks[parent]
            dpos = local - locals_[parent]
        zz = dpos << 1 if dpos >= 0 else ((-dpos) << 1) - 1
        count = counts[index]
        if 0 <= delta_item < limit and zz < limit and 0 <= count < limit:
            out += table[delta_item]
            out += table[zz]
            out += table[count]
        else:
            wide = bytearray(varint.MAX_ENCODED_LENGTH * 3)
            out += wide[: varint.encode_triples(wide, 0, ((delta_item, dpos, count),))]
    layout.nodes += len(ranks)


def assemble(layout: Layout) -> CfpArray:
    """Join the per-rank subarrays into the CFP-array buffer and index."""
    subarrays = layout.subarrays
    # The flatten pass already visited every node, so the converter knows the
    # node count exactly — no lazy re-decode of the whole buffer later.
    return CfpArray(
        layout.n_ranks,
        bytearray().join(subarrays),
        [0, *accumulate(map(len, subarrays))],
        node_count=layout.nodes,
    )


def convert(tree: TernaryCfpTree) -> CfpArray:
    """Transform a built CFP-tree into the mine-phase CFP-array."""
    layout = Layout(tree.n_ranks)
    for __, ranks, parents, counts in flatten_subtrees(tree):
        splice_subtree(layout, ranks, parents, counts)
    return assemble(layout)
