"""Support queries against built structures (paper §2.1).

The paper's example: the support of itemset {3, 4} is obtained by summing
the counts of the prefixes that contain the itemset and end with its
least frequent item — a sideward traversal over that item's nodes plus a
backward traversal per node. These helpers run that query against an
FP-tree or a CFP-array without mining anything.
"""

from __future__ import annotations

from itertools import repeat
from typing import Hashable, Iterable

from repro.compress import varint
from repro.core.cfp_array import CfpArray, _not_lower_rank
from repro.errors import TreeError
from repro.fptree.tree import FPTree
from repro.util.items import ItemTable


def support_in_fp_tree(tree: FPTree, ranks: Iterable[int]) -> int:
    """Support of a rank itemset via nodelinks and parent walks."""
    wanted = sorted(set(ranks))
    if not wanted:
        raise TreeError("itemset must not be empty")
    if wanted[0] < 1 or wanted[-1] > tree.n_ranks:
        return 0
    least = wanted[-1]
    others = set(wanted[:-1])
    support = 0
    for path, count in tree.prefix_paths(least):
        if others <= set(path):
            support += count
    return support


def support_in_cfp_array(array: CfpArray, ranks: Iterable[int]) -> int:
    """Support of a rank itemset: a sideward scan plus backward walks.

    The paper's query. The least frequent rank's subarray is decoded once,
    as columns (:meth:`CfpArray.subarray_columns`), and each of its nodes
    counts if its path holds the rest of the itemset. A node whose path
    the array's memo already holds (:meth:`CfpArray.known_paths`, filled
    by a cached array's pattern-index mine) answers from that path.
    Otherwise the node walks up one header at a time: ``delta_item`` and
    ``dpos`` read in place from its ancestors' encoded subarrays
    (:func:`repro.compress.varint.node_header`), never ``count`` (§3.4),
    each ancestor rank's bytes fetched once per query. A walk ends at the
    first needed rank it passes below, at the root, or once it has met
    every needed rank. Whether the rest of a walk succeeds depends only
    on the node it has reached, so a per-query memo records each visited
    node's outcome and later walks stop there. The query never writes
    the array's path memo.

    Every header read keeps :meth:`CfpArray.prefix_paths`' checks: a
    parent link must climb to a lower rank and land on a node start
    (:class:`TreeError`), and a truncated varint raises
    :class:`repro.errors.CorruptBufferError`.
    """
    wanted = sorted(set(ranks))
    if not wanted:
        raise TreeError("itemset must not be empty")
    if wanted[0] < 1 or wanted[-1] > array.n_ranks:
        return 0
    least = wanted.pop()
    if not wanted:
        # Singleton: one C-speed sum over the counts column, no walks.
        return array.rank_support(least)
    entry = array.subarray_columns(least)
    known = array.known_paths(least, entry.locals)
    needed = set(wanted)
    top = len(wanted) - 1
    # Per ancestor rank: its encoded bytes, their terminator map, and
    # the outcome of every node of it a walk has reached, by local.
    reached: dict[int, tuple[bytes, bytes, dict[int, bool]]] = {}
    support = 0
    for path, local, delta_item, dpos, count in zip(
        repeat(None) if known is None else known,
        entry.locals,
        entry.delta_items,
        entry.dposes,
        entry.counts,
    ):
        if path is not None:
            if needed <= set(path):
                support += count
            continue
        rank = least
        pending = top
        target = wanted[top]
        chain: list[tuple[dict[int, bool], int]] = []
        while True:
            parent_rank = rank - delta_item
            if parent_rank == 0:
                found = False
                break
            if not 0 < parent_rank < rank:
                raise _not_lower_rank(rank, local, parent_rank)
            if parent_rank < target:
                found = False
                break
            parent_local = local - dpos
            state = reached.get(parent_rank)
            if state is None:
                data = array.encoded_subarray(parent_rank)
                state = reached[parent_rank] = (
                    data,
                    varint.terminator_map(data),
                    {},
                )
            data, terminators, outcomes = state
            seen = outcomes.get(parent_local)
            if seen is not None:
                found = seen
                break
            header = varint.node_header(data, terminators, parent_local)
            if header is None:
                raise TreeError(
                    f"dpos chain from rank {least} lands at rank "
                    f"{parent_rank} local {parent_local}, not a node start"
                )
            chain.append((outcomes, parent_local))
            if parent_rank == target:
                if not pending:
                    found = True
                    break
                pending -= 1
                target = wanted[pending]
            rank, local = parent_rank, parent_local
            delta_item, dpos = header
        for outcomes, reached_local in chain:
            outcomes[reached_local] = found
        if found:
            support += count
    return support


def itemset_support(
    structure, table: ItemTable, items: Iterable[Hashable]
) -> int:
    """Support of an itemset in the caller's vocabulary.

    ``structure`` is an :class:`FPTree` or :class:`CfpArray` built from
    the database ``table`` was derived from. Items unknown to the table
    (infrequent or unseen) make the support 0 by definition.
    """
    ranks = []
    for item in items:
        rank = table.rank_of.get(item)
        if rank is None:
            return 0
        ranks.append(rank)
    if isinstance(structure, FPTree):
        return support_in_fp_tree(structure, ranks)
    return support_in_cfp_array(structure, ranks)
