"""Columnar conditional-mining kernels: array-at-once mine phase.

The mine loop used to run pure-Python per-node work three times over for
every conditional tree: a dict increment per path element to find the
frequent ranks, a root-to-leaf :meth:`TernaryCfpTree.insert` per prefix
path, and a full tree build even when the conditional degenerates to a
single path. These kernels restructure that into whole-batch operations
over the path columns (DiffNodesets and Grahne & Zhu's array-based
FP-mining make the same move — contiguous array set-operations instead
of pointer chasing):

* :func:`conditional_counts` — one flat accumulation pass over every
  path element into a dense per-rank counts column;
* :func:`filter_aggregate` — frequent-rank filtering fused with path
  deduplication, so the tree build sees each distinct filtered path
  once, with its multiplicity, instead of once per source node;
* :func:`single_path_merge` — detects the degenerate single-path
  conditional straight from the aggregated paths (every path a prefix
  of the longest) and suffix-sums the counts exactly as
  :meth:`TernaryCfpTree.single_path` would — the tree is never built;
* :func:`build_conditional_array` — sizes the branching conditionals
  straight from the sorted aggregated paths: every subarray exactly as
  long as ``convert(tree)`` would make it, without ever materializing
  the intermediate ternary tree. The trie the tree would hold is implied
  by the longest-common-prefix structure of the sorted paths, so one
  LCP walk emits the exact DFS preorder ``convert`` traverses. No bytes
  are written: the result (:class:`ConditionalArray`) carries the sizes
  the Meter charges and the prefix paths that walk held, which are all
  the mine reads of a conditional.

The kernels are backend-neutral: they consume plain-int path tuples,
from the memoized :meth:`CfpArray.prefix_paths`, an in-memory array's
ascending sweep (:class:`~repro.core.cfp_array.SweptPaths`), a paged
partition's :class:`~repro.core.cfp_array.Projection` or a
conditional's recorded paths, whether the subarrays underneath were
decoded by the stdlib ``array('q')`` kernel or the optional vectorized
numpy one (:mod:`repro.compress.varint`). They change how fast the
answer is computed, never the answer — the identity suites in
``tests/core/test_kernels_identity.py`` hold them to the retained
reference implementation: the same single-path verdicts, and the same
sizes and prefix paths as ``convert`` of the reference tree.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from repro.compress import varint
from repro.memman.pointers import POINTER_SIZE

#: Prefix paths as handed out by ``CfpArray.prefix_paths``: ancestor
#: ranks ascending, with the node's cumulative count.
PathCounts = Sequence[tuple[Sequence[int], int]]


def backend() -> str:
    """Active decode backend: ``"numpy"`` (vectorized) or ``"python"``.

    Recorded on ``mine_rank`` and ``mine_parallel`` spans so a trace
    records which kernel produced it; numpy is auto-detected and can be
    disabled with ``REPRO_NO_NUMPY`` (see docs/performance.md).
    """
    return "python" if varint._np is None else "numpy"


def conditional_counts(paths: PathCounts, n_ranks: int) -> list[int]:
    """Accumulate per-rank conditional counts over all path elements.

    Returns a dense column of length ``n_ranks + 1`` (index 0 unused)
    where entry ``r`` is the summed count of every path containing rank
    ``r`` — the support each rank would have in the conditional tree.
    """
    counts = [0] * (n_ranks + 1)
    for ranks, count in paths:
        for rank in ranks:
            counts[rank] += count
    return counts


def conditional_counts_metered(
    paths: PathCounts, n_ranks: int
) -> tuple[list[int], int]:
    """:func:`conditional_counts` plus the total path-item count, fused.

    Metered (traced) runs need ``sum(len(p) for p, _ in paths)`` for the
    per-scan operation accounting; computing it as a separate pass cost
    as much as the counting itself. This variant folds the tally into
    the accumulation loop — and exists separately so the plain mine path
    never pays for metering it does not use.
    """
    counts = [0] * (n_ranks + 1)
    items = 0
    for ranks, count in paths:
        items += len(ranks)
        for rank in ranks:
            counts[rank] += count
    return counts, items


def filter_aggregate(
    paths: PathCounts, counts: Sequence[int], min_support: int
) -> dict[tuple[int, ...], int]:
    """Filter paths to their frequent ranks and merge duplicates.

    ``counts`` is the dense per-rank column from
    :func:`conditional_counts`; the threshold test is fused into the
    filtering loop, so only ranks that actually appear on a path are ever
    tested (a conditional touches a handful of the array's ranks —
    materializing a dense frequent-flag column first cost more than the
    filtering itself). Distinct source paths frequently collapse onto the
    same filtered path; the returned mapping carries each distinct
    filtered path once with its total count, which is what makes the
    batch conditional build cheap.
    """
    aggregated: dict[tuple[int, ...], int] = {}
    get = aggregated.get
    for ranks, count in paths:
        filtered = tuple([rank for rank in ranks if counts[rank] >= min_support])
        if filtered:
            aggregated[filtered] = get(filtered, 0) + count
    return aggregated


def single_path_merge(
    aggregated: dict[tuple[int, ...], int],
) -> list[tuple[int, int]] | None:
    """Single-path check straight from the aggregated filtered paths.

    The conditional tree would be a single path exactly when every
    aggregated path is a prefix of the longest one. In that case the
    tree's ``single_path()`` result is reconstructed columnar-ly: the
    node at depth ``d`` accumulates the counts of every path at least
    ``d`` long (the suffix-sum the tree computes from pcounts), and no
    per-node structure is ever materialized. Returns ``None`` when the
    paths branch.
    """
    longest = max(aggregated, key=len)
    depth = len(longest)
    if len(aggregated) > depth:
        return None  # more distinct paths than prefixes of the longest
    count_by_length = [0] * (depth + 1)
    for ranks, count in aggregated.items():
        if ranks != longest[: len(ranks)]:
            return None
        count_by_length[len(ranks)] += count
    running = 0
    cumulative = [0] * (depth + 1)
    for length in range(depth, 0, -1):
        running += count_by_length[length]
        cumulative[length] = running
    return [(rank, cumulative[d + 1]) for d, rank in enumerate(longest)]


class ConditionalArray:
    """A conditional CFP-array, sized exactly but never encoded.

    :func:`build_conditional_array` places every node where
    ``convert(tree)`` would, so :attr:`starts`, :attr:`node_count` and
    :attr:`memory_bytes` are those of the encoded array, and the Meter
    charges each conditional its true CFP-array size (§3.5,
    ``peak_cond_bytes``). No bytes are written, because the mine never
    reads them: it reads each rank's prefix paths, which the builder held
    as slices of the sorted paths it walked (Grahne & Zhu's projected
    conditional databases), and each rank's support.

    The read surface is the one the mine uses on a
    :class:`~repro.core.cfp_array.CfpArray`:
    :meth:`active_ranks_descending`, :meth:`rank_support` and
    :meth:`prefix_paths`. Each rank's support is the caller's counts
    column entry (:func:`conditional_counts` of the paths the conditional
    was built from): filtering keeps a frequent rank on every path that
    held it, so its nodes' counts sum to exactly that entry.
    """

    __slots__ = (
        "n_ranks", "starts", "node_count", "memory_bytes", "_paths", "_supports"
    )

    def __init__(
        self,
        n_ranks: int,
        starts: list[int],
        node_count: int,
        paths: dict[int, list[tuple[tuple[int, ...], int]]],
        supports: Sequence[int],
    ) -> None:
        self.n_ranks = n_ranks
        #: The encoded array's item index (:attr:`CfpArray.starts`).
        self.starts = starts
        self.node_count = node_count
        #: Buffer bytes plus the item index, as :attr:`CfpArray.memory_bytes`.
        self.memory_bytes = starts[-1] + (n_ranks + 1) * POINTER_SIZE
        self._paths = paths
        self._supports = supports

    def active_ranks_descending(self) -> list[int]:
        """Ranks with at least one node, least frequent first."""
        return sorted(self._paths, reverse=True)

    def prefix_paths(self, rank: int) -> list[tuple[tuple[int, ...], int]]:
        """``(ancestor ranks, count)`` per node of ``rank``, in storage order.

        The list is the conditional's own, not a copy: callers only read it.
        """
        return self._paths[rank]

    def rank_support(self, rank: int) -> int:
        """The rank's support: the sum of its nodes' counts."""
        return self._supports[rank]


def build_conditional_array(
    ordered: Sequence[tuple[tuple[int, ...], int]],
    n_ranks: int,
    supports: Sequence[int],
) -> ConditionalArray:
    """Size the conditional CFP-array of sorted aggregated paths.

    ``ordered`` must be the distinct filtered paths in ascending
    lexicographic order (``sorted(filter_aggregate(...).items())``), each
    with its total count, and ``supports`` the counts column they were
    filtered by, which becomes the conditional's rank supports.
    Lexicographic order *is* the DFS preorder of the conditional trie
    with ascending-rank siblings — the exact order
    :func:`repro.core.conversion.flatten_subtrees` walks the ternary tree
    — so a longest-common-prefix walk over the sorted paths reproduces
    the flattened ``(ranks, parents, counts)`` arrays node for node, and
    the same sizing/placement cursor walk as
    :func:`~repro.core.conversion.splice_subtree` /
    :func:`~repro.core.conversion.assemble` then places every node where
    ``convert(tree)`` would, so the item index is exact. A path's count
    accrues to the cumulative count of every node it passes through,
    which is the postorder accumulation the tree walk performs (§3.5).
    Placing the whole preorder in one pass places nodes exactly as
    splicing it one level-1 subtree at a time, in ascending leading
    rank, would.

    The cursor walk here is :func:`~repro.core.conversion.splice_subtree`'s
    math on sparse per-rank state (dicts instead of dense ``n_ranks``-sized
    lists): a conditional's paths touch a handful of ranks, and the dense
    :class:`~repro.core.conversion.Layout` would spend more time allocating
    and scanning empty ranks than sizing — only the ``starts`` table,
    dense as a :class:`~repro.core.cfp_array.CfpArray`'s so the mine reads
    a subarray's size the same way from either, is built full-width (via
    a C-speed ``accumulate``). A triple whose three fields each encode in
    one byte, the common case, is sized inline; any other goes through
    :func:`repro.compress.varint.triple_size`, which raises
    :class:`~repro.errors.ValueOutOfRangeError` for a field out of range.

    Each node's prefix is the slice of the path that created it above
    the node's depth, and storage order within a rank is preorder, so
    the walk also yields every rank's prefix paths in storage order. The
    result carries those paths and the sizes, and no bytes
    (:class:`ConditionalArray`); ``convert`` of the reference tree is what
    the identity suites hold it to.
    """
    # The trie in DFS preorder: per node id, its rank, its parent's id
    # (-1 under the root), its prefix and its cumulative count.
    node_ranks: list[int] = []
    parents: list[int] = []
    prefixes: list[tuple[int, ...]] = []
    counts: list[int] = []
    stack: list[int] = []  # node ids along the current path
    previous: tuple[int, ...] = ()
    for path, count in ordered:
        shared = 0
        limit = min(len(previous), len(path))
        while shared < limit and previous[shared] == path[shared]:
            shared += 1
        del stack[shared:]
        for depth in range(shared, len(path)):
            parents.append(stack[-1] if stack else -1)
            stack.append(len(node_ranks))
            node_ranks.append(path[depth])
            prefixes.append(path[:depth])
            counts.append(0)
        for node in stack:
            counts[node] += count
        previous = path

    cursors: dict[int, int] = {}  # per rank: bytes placed so far
    paths: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    locals_ = [0] * len(node_ranks)
    tsize = varint.triple_size
    for node, rank in enumerate(node_ranks):
        parent = parents[node]
        count = counts[node]
        local = cursors.get(rank)
        if local is None:
            local = 0
            paths[rank] = [(prefixes[node], count)]
        else:
            paths[rank].append((prefixes[node], count))
        locals_[node] = local
        if parent < 0:
            delta_item, dpos = rank, 0
        else:
            delta_item = rank - node_ranks[parent]
            dpos = local - locals_[parent]
        if 0 <= delta_item < 0x80 and -0x40 <= dpos < 0x40 and 0 <= count < 0x80:
            cursors[rank] = local + 3
        else:
            cursors[rank] = local + tsize(delta_item, dpos, count)
    sizes_gaps = [0] * (n_ranks + 2)  # per-rank sizes, shifted +1
    for rank, size in cursors.items():
        sizes_gaps[rank + 1] = size
    return ConditionalArray(
        n_ranks, list(accumulate(sizes_gaps)), len(node_ranks), paths, supports
    )
