"""The CFP-array: the mine-phase structure (paper §3.4).

The FP-tree is flattened into one byte buffer of varint-encoded triples
``(delta_item, dpos, count)``, ordered so that all nodes of one item form a
consecutive *subarray*. Because same-item nodes are contiguous, the
``nodelink`` field becomes redundant: sideward traversal is a sequential
scan of the subarray, guided by a small **item index** that maps each rank
to its subarray's starting byte offset.

Per-node fields:

* ``delta_item`` — rank delta to the parent; for children of the root it
  equals the rank itself (``parent_rank = rank - delta_item == 0`` marks
  "no parent", as in the paper's Figure 5).
* ``dpos`` — delta between the node's *local position* (byte offset within
  its subarray, as the paper prescribes for variable-size nodes) and its
  parent's local position within the parent's subarray. Because parent and
  child live in different subarrays that fill at different rates, the delta
  can be negative; it is zigzag-mapped before varint encoding (a detail the
  paper leaves open).
* ``count`` — the full cumulative count (partial counts cannot be
  reconstructed without child access, §3.4). Stored last so that backward
  traversal never decodes it.

Backward traversal from a node ``(rank, local)``: ``parent_rank = rank -
delta_item``; ``parent_local = local - dpos``; the parent's global offset is
``starts[parent_rank] + parent_local``.
"""

from __future__ import annotations

import heapq
import threading
from array import array
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence, Union

from repro.compress import varint
from repro.errors import TreeError
from repro.memman.pointers import POINTER_SIZE
from repro.obs.registry import MetricsRegistry

#: One decoded node: ``(local, delta_item, dpos, count)``.
Triple = tuple[int, int, int, int]

#: Buffer types a CFP-array can wrap. ``memoryview`` enables zero-copy
#: attachment to a ``multiprocessing.shared_memory`` segment
#: (:mod:`repro.core.parallel`).
ArrayBuffer = Union[bytearray, bytes, memoryview]

#: Offsets fit in the 40-bit pointers of the item index, so a
#: ``(rank, local)`` pair packs into one int key: ``rank << 40 | local``.
_LOCAL_BITS = POINTER_SIZE * 8


def _not_lower_rank(rank: int, local: int, parent_rank: int) -> TreeError:
    """The error for a parent link that does not climb to a lower rank.

    Every walk checks ``0 < parent_rank < rank`` at each ancestor step: a
    ``delta_item`` of 0 would otherwise point a node at its own rank and
    the walk would never return.
    """
    return TreeError(
        f"node at rank {rank} local {local} points to rank {parent_rank}, "
        f"not a lower rank"
    )


class DecodedSubarray:
    """One subarray bulk-decoded into parallel integer columns.

    The columnar cache entry: ``locals`` / ``delta_items`` / ``dposes`` /
    ``counts`` are ``array('q')`` columns straight from
    :func:`repro.compress.varint.decode_triples_columns`. Row views are
    materialized lazily:

    * :attr:`triples` — the classic ``(local, delta_item, dpos, count)``
      rows, as an **immutable** tuple (callers used to receive the cached
      list itself, so one stray ``.sort()`` poisoned every later hit);
    * :meth:`index_of` — the local-offset -> row index map the backward
      walks resolve parents through.
    """

    __slots__ = ("locals", "delta_items", "dposes", "counts", "_rows", "_by_local")

    def __init__(
        self,
        locals_col: Sequence[int],
        delta_items: Sequence[int],
        dposes: Sequence[int],
        counts: Sequence[int],
    ) -> None:
        self.locals = locals_col
        self.delta_items = delta_items
        self.dposes = dposes
        self.counts = counts
        self._rows: tuple[Triple, ...] | None = None
        self._by_local: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.locals)

    @property
    def triples(self) -> tuple[Triple, ...]:
        """Row view, built once per entry and safe to hand out."""
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(
                zip(self.locals, self.delta_items, self.dposes, self.counts)
            )
        return rows

    def index_of(self, local: int) -> int | None:
        """Row index of the node starting at byte ``local``, or ``None``."""
        by_local = self._by_local
        if by_local is None:
            by_local = self._by_local = {
                value: index for index, value in enumerate(self.locals)
            }
        return by_local.get(local)

    @property
    def decoded_bytes(self) -> int:
        """Resident size of the four decoded columns, for cache accounting.

        ``nbytes`` for numpy-backed columns, ``len * itemsize`` for
        ``array('q')`` columns (both 8 bytes per element) — what the entry
        actually holds in memory, which is a constant factor larger than
        the varint encoding it was decoded from.
        """
        total = 0
        for column in (self.locals, self.delta_items, self.dposes, self.counts):
            nbytes = getattr(column, "nbytes", None)
            if nbytes is None:
                nbytes = len(column) * getattr(column, "itemsize", 8)
            total += int(nbytes)
        return total


class _SubarrayCache:
    """Byte-budgeted LRU cache of bulk-decoded subarrays, keyed by rank.

    The *charge* of an entry is the subarray's **decoded** column size
    (:attr:`DecodedSubarray.decoded_bytes`) — what the entry actually
    keeps resident — so the budget bounds real cache memory. It used to
    be the encoded varint length, which undercounted residency by the
    decode expansion factor (~6-8×) and let the cache blow through its
    budget under columnar reads; budgets were rebased when the accounting
    was fixed (see docs/performance.md).

    Thread-safe: recency, eviction and the byte/stat accounting mutate
    under one lock. Batch mining never shares an array across threads
    (workers are forked processes), but the serving layer runs queries
    against one long-lived array from a thread executor, where unguarded
    ``move_to_end`` during an eviction sweep corrupts the OrderedDict and
    ``used_bytes`` drifts off the sum of resident charges. The lock is
    per-subarray-access, not per-node, so it is off the columnar kernels'
    hot loop.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = budget_bytes
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[int, tuple[DecodedSubarray, int]] = OrderedDict()

    def get(self, rank: int) -> DecodedSubarray | None:
        with self._lock:
            entry = self._entries.get(rank)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(rank)
            self.hits += 1
            return entry[0]

    def put(self, rank: int, triples: DecodedSubarray, charge: int) -> None:
        with self._lock:
            if rank in self._entries:
                # A re-put is a recency signal: the rank is in active use, so
                # it must move to the MRU end exactly as a `get` hit would —
                # silently dropping it used to leave the entry first in line
                # for eviction despite being hot.
                self._entries.move_to_end(rank)
                return
            if charge > self.budget_bytes:
                # Larger than the whole budget: never cacheable. Count it so
                # a mis-sized budget shows up in the metrics instead of
                # manifesting as a mysterious 0% hit ratio.
                self.rejected += 1
                return
            while self._entries and self.used_bytes + charge > self.budget_bytes:
                __, (__, evicted_charge) = self._entries.popitem(last=False)
                self.used_bytes -= evicted_charge
                self.evictions += 1
            self._entries[rank] = (triples, charge)
            self.used_bytes += charge

    def counts(self) -> dict[str, int]:
        """Current counter values, for delta-based publication."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rejected": self.rejected,
            }


class Projection(Mapping[int, list[tuple[tuple[int, ...], int]]]):
    """Prefix paths of a rank set, as parent and rank links per node.

    ``projection[rank] == prefix_paths(rank)`` for every requested rank.
    It comes from one :meth:`CfpArray.project` sweep over the bytes. It
    keeps only the parent and the rank of every node reached, and each
    requested rank's node ids and counts in storage order. A lookup
    builds that one rank's paths from them, through a memo that lives for
    the lookup, so the paths of a whole rank set never exist at once: a
    caller that mines one rank at a time holds one rank's paths plus the
    links.
    """

    __slots__ = ("_parents", "_node_ranks", "_requested")

    def __init__(
        self,
        parents: Sequence[int],
        node_ranks: Sequence[int],
        requested: dict[int, tuple[Sequence[int], Sequence[int]]],
    ) -> None:
        self._parents = parents
        self._node_ranks = node_ranks
        self._requested = requested

    def __getitem__(self, rank: int) -> list[tuple[tuple[int, ...], int]]:
        nodes, counts = self._requested[rank]
        parents = self._parents
        node_ranks = self._node_ranks
        memo: dict[int, tuple[int, ...]] = {}
        lookup = memo.get
        paths: list[tuple[tuple[int, ...], int]] = []
        for node, count in zip(nodes, counts):
            # Climb to the root or to a node whose path is memoized, then
            # unwind, extending each parent's path by the parent's rank.
            chain: list[int] = []
            while True:
                parent = parents[node]
                if parent < 0:
                    path: tuple[int, ...] = ()
                    break
                cached = lookup(parent)
                if cached is not None:
                    path = cached + (node_ranks[parent],)
                    break
                chain.append(node)
                node = parent
            memo[node] = path
            for child in reversed(chain):
                path = path + (node_ranks[parents[child]],)
                memo[child] = path
            paths.append((path, count))
        return paths

    def __iter__(self) -> Iterator[int]:
        return iter(self._requested)

    def __len__(self) -> int:
        return len(self._requested)


class SweptPaths(Mapping[int, list[tuple[tuple[int, ...], int]]]):
    """Prefix paths of a rank group, from :meth:`CfpArray.group_projection`.

    Holds the parent link of every node the sweep met and each requested
    rank's counts column. Node ids run in sweep order, so each rank's
    nodes are one id range and a parent's id is below its children's. A
    lookup builds its rank's paths: a node's path is its parent's path
    extended by the parent's rank, one tuple per parent, shared by all of
    its children and kept for later lookups. A lookup below every earlier
    one drops the extended paths of the ranks in between: in the mine's
    descending order nothing asks for them again (a later lookup that
    does rebuilds them), so only the paths of parents below the rank
    being mined are held, not the whole array's.
    """

    __slots__ = ("_parents", "_tails", "_first", "_counts", "_extended", "_floor")

    def __init__(
        self,
        parents: Sequence[int],
        tails: list[tuple[int]],
        first: list[int],
        counts: dict[int, Sequence[int]],
    ) -> None:
        self._parents = parents
        #: Per node id: ``(rank,)``, one shared tuple per rank, so the
        #: paths share their rank ints.
        self._tails = tails
        #: Per rank: the id of its first node (one past the top rank, too).
        self._first = first
        self._counts = counts
        #: Per node id: its path plus its rank, once a child asked for it.
        self._extended: list[tuple[int, ...] | None] = [None] * len(parents)
        self._floor = len(first) - 1

    def __getitem__(self, rank: int) -> list[tuple[tuple[int, ...], int]]:
        counts = self._counts[rank]
        first = self._first
        extended = self._extended
        if rank < self._floor:
            start, end = first[rank + 1], first[self._floor]
            extended[start:end] = [None] * (end - start)
            self._floor = rank + 1
        parents = self._parents
        tails = self._tails
        paths: list[tuple[int, ...]] = []
        append = paths.append
        for parent in parents[first[rank] : first[rank + 1]]:
            if parent < 0:
                append(())
                continue
            path = extended[parent]
            if path is None:
                # Climb to the root or to an extended ancestor, then
                # extend back down, one tuple per node on the way.
                chain = [parent]
                ancestor = parents[parent]
                while ancestor >= 0:
                    path = extended[ancestor]
                    if path is not None:
                        break
                    chain.append(ancestor)
                    ancestor = parents[ancestor]
                else:
                    path = ()
                for node in reversed(chain):
                    path = extended[node] = path + tails[node]
            append(path)
        return list(zip(paths, counts))

    def __iter__(self) -> Iterator[int]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


class CfpArray:
    """Byte-packed CFP-array with its item index.

    Built by :func:`repro.core.conversion.convert`; the constructor takes
    the finished buffer and index. ``node_count`` is recorded by the
    converter (it knows it from the counts pass); hand-built arrays may
    omit it and fall back to a lazy full-buffer scan. Conditionals are
    not CfpArrays: the mine sizes them without encoding them
    (:class:`repro.core.kernels.ConditionalArray`).

    ``cache_budget`` > 0 enables a byte-budgeted LRU cache of bulk-decoded
    subarrays and a memo of resolved paths (:meth:`set_cache_budget`), for
    callers that ask for one rank's :meth:`prefix_paths` at a time and
    revisit ancestors across calls: ``--jobs`` workers and a cached
    store's pattern-index mine. The serial mine of an in-memory array
    reads neither; it resolves every path in one :meth:`group_projection`
    sweep. Support queries (:func:`repro.util.queries.support_in_cfp_array`)
    decode their least frequent rank through the cache, read the paths
    the memo already holds (:meth:`known_paths`) and walk node headers
    (:meth:`encoded_subarray`) for the rest, never writing the memo.
    """

    #: Class-level defaults so hand-assembled instances (``__new__`` in the
    #: corruption-injection tests) behave like cache-off arrays.
    _cache: _SubarrayCache | None = None
    _path_memo: dict[int, tuple[int, ...]] | None = None

    def __init__(
        self,
        n_ranks: int,
        buffer: ArrayBuffer,
        starts: list[int],
        node_count: int | None = None,
        cache_budget: int = 0,
    ) -> None:
        if len(starts) != n_ranks + 2:
            raise TreeError(
                f"item index must have n_ranks+2 entries, got {len(starts)}"
            )
        if starts[1] != 0 or starts[-1] != len(buffer):
            raise TreeError("item index does not span the buffer")
        self.n_ranks = n_ranks
        self.buffer = buffer
        #: ``starts[rank]`` = first byte of the rank's subarray;
        #: ``starts[rank + 1]`` = one past its last byte. Entry 0 is unused.
        self.starts = starts
        self._node_count: int | None = node_count
        self._cache = _SubarrayCache(cache_budget) if cache_budget > 0 else None
        self._path_memo = None

    # ------------------------------------------------------------------
    # Decoded-subarray cache
    # ------------------------------------------------------------------

    @property
    def cache_budget(self) -> int:
        """Current byte budget of the decoded-subarray cache (0 = off)."""
        return self._cache.budget_bytes if self._cache is not None else 0

    def set_cache_budget(self, budget_bytes: int) -> None:
        """Enable (or resize, or with 0 disable) the decoded-subarray cache.

        Resizing drops all cached entries and the resolved-path memo;
        results are unaffected either way — both only trade memory for
        repeated decode/walk work.
        """
        self._cache = _SubarrayCache(budget_bytes) if budget_bytes > 0 else None
        self._path_memo = None

    def cache_counts(self) -> dict[str, int]:
        """Subarray-cache counters (all zero when the cache is off)."""
        if self._cache is None:
            return {"hits": 0, "misses": 0, "evictions": 0, "rejected": 0}
        return self._cache.counts()

    def publish_cache_metrics(
        self, registry: MetricsRegistry, baseline: dict[str, int] | None = None
    ) -> None:
        """Add this array's cache counters to a metric registry.

        ``baseline`` (an earlier :meth:`cache_counts` snapshot) turns the
        publication into a delta, which is how long-lived arrays — the
        workers' cached shared-memory attachments — publish per-task.
        """
        for name, value in self.cache_counts().items():
            if baseline is not None:
                value -= baseline[name]
            if value:
                registry.add(f"subarray_cache.{name}", value)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Buffer bytes plus the item index (one 40-bit offset per rank)."""
        return len(self.buffer) + (self.n_ranks + 1) * POINTER_SIZE

    @property
    def node_count(self) -> int:
        """Total nodes across all subarrays.

        Recorded at build time by the converter; hand-built arrays that did
        not pass ``node_count`` fall back to a lazy full-buffer scan. The
        scan counts varint terminators without decoding — it used to
        bulk-decode every rank through :meth:`decode_subarray`, evicting
        the hot working set from the LRU cache on cache-enabled arrays.
        """
        if self._node_count is None:
            self._node_count = varint.count_triples(
                self.buffer, 0, len(self.buffer)
            )
        return self._node_count

    def average_node_size(self) -> float:
        """Bytes per node including the index — the Figure 6(b) metric."""
        count = self.node_count
        if count == 0:
            return 0.0
        return self.memory_bytes / count

    def subarray_bytes(self, rank: int) -> int:
        """Byte length of one rank's subarray."""
        self._check_rank(rank)
        return self.starts[rank + 1] - self.starts[rank]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def subarray_columns(self, rank: int) -> DecodedSubarray:
        """Bulk-decode one rank's subarray into its columnar form.

        The mine-phase primitive: four parallel ``array('q')`` columns per
        subarray (see :class:`DecodedSubarray`), decoded by the columnar
        varint kernel — vectorized when numpy is available — and served
        from the LRU cache when a budget is set.
        """
        cache = self._cache
        if cache is not None:
            cached = cache.get(rank)
            if cached is not None:
                return cached
        self._check_rank(rank)
        entry = DecodedSubarray(
            *varint.decode_triples_columns(
                self.buffer, self.starts[rank], self.starts[rank + 1]
            )
        )
        if cache is not None:
            cache.put(rank, entry, entry.decoded_bytes)
        return entry

    def encoded_subarray(self, rank: int) -> bytes:
        """One rank's encoded subarray, as a copy of its slice of the buffer.

        What a backward walk reads node headers from
        (:func:`repro.compress.varint.node_header`), without decoding the
        subarray or touching the decoded-subarray cache.
        """
        self._check_rank(rank)
        return memoryview(self.buffer)[
            self.starts[rank] : self.starts[rank + 1]
        ].tobytes()

    def known_paths(
        self, rank: int, locals_col: Sequence[int]
    ) -> list[tuple[int, ...] | None] | None:
        """The memoized prefix paths of ``rank``'s nodes at ``locals_col``.

        One entry per local: the node's ancestor ranks as
        :meth:`prefix_paths` resolved them, or ``None`` where the path
        memo does not hold the node. ``None`` when the array has no memo.
        Reads the memo without writing it.
        """
        memo = self._path_memo
        if not memo:
            return None
        lookup = memo.get
        key_base = rank << _LOCAL_BITS
        return [lookup(key_base | local) for local in locals_col]

    def decode_subarray(self, rank: int) -> tuple[Triple, ...]:
        """Decoded ``(local, delta_item, dpos, count)`` rows in storage order.

        The returned tuple is immutable — it used to be the cached list
        object itself, so a caller mutating it corrupted every later
        cache hit.
        """
        return self.subarray_columns(rank).triples

    def iter_subarray(self, rank: int) -> Iterator[Triple]:
        """Sideward traversal: ``(local, delta_item, dpos, count)`` per node."""
        return iter(self.decode_subarray(rank))

    def prefix_paths(self, rank: int) -> list[tuple[tuple[int, ...], int]]:
        """Prefix paths of every node in ``rank``'s subarray, in storage order.

        Returns ``(ancestor_ranks_ascending, count)`` per node — the input
        of conditional-tree construction. On cache-enabled arrays ancestor
        chains are resolved through a persistent per-array memo of
        finished paths: a node's path is its parent's path plus one rank,
        so every node in the array is walked **once** ever, no matter how
        many subarrays share its ancestors. Without a cache a walk would
        re-decode an ancestor subarray at every step, so the call is
        :meth:`project` over the one rank instead, which decodes each
        ancestor subarray once. ``count`` is never touched on the backward
        walk (§3.4's field-order rationale).
        """
        if self._cache is None:
            return self.project((rank,))[rank]
        entry = self.subarray_columns(rank)
        # The memo itself needs no lock: every write is idempotent (a
        # node's path is a pure function of the buffer) and dict get/set
        # are atomic under the GIL. Two threads racing the lazy init at
        # worst memoize into a dict that loses the assignment race —
        # wasted work, never a wrong path.
        memo = self._path_memo
        if memo is None:
            memo = self._path_memo = {}
        lookup = memo.get
        key_base = rank << _LOCAL_BITS
        paths: list[tuple[tuple[int, ...], int]] = []
        append = paths.append
        for local, delta_item, dpos, count in zip(
            entry.locals, entry.delta_items, entry.dposes, entry.counts
        ):
            path = lookup(key_base | local)
            if path is None:
                path = self._resolve_path(rank, local, delta_item, dpos, memo)
            append((path, count))
        return paths

    def _resolve_path(
        self,
        rank: int,
        local: int,
        delta_item: int,
        dpos: int,
        memo: dict[int, tuple[int, ...]],
    ) -> tuple[int, ...]:
        """Resolve one node's ancestor ranks, memoizing the whole chain.

        Walks parent links until a memoized node (or the root) is reached,
        then unwinds, extending the parent's finished path by one rank per
        step — shared ancestor suffixes are computed once and reused by
        every descendant.
        """
        origin = rank
        chain: list[tuple[int, int]] = []
        lookup = memo.get
        columns = self.subarray_columns
        while True:
            key = (rank << _LOCAL_BITS) | local
            parent_rank = rank - delta_item
            if parent_rank == 0:
                base: tuple[int, ...] = ()
                memo[key] = base
                break
            if not 0 < parent_rank < rank:
                raise _not_lower_rank(rank, local, parent_rank)
            parent_local = local - dpos
            cached = lookup((parent_rank << _LOCAL_BITS) | parent_local)
            if cached is not None:
                base = cached + (parent_rank,)
                memo[key] = base
                break
            chain.append((key, parent_rank))
            parent = columns(parent_rank)
            index = parent.index_of(parent_local)
            if index is None:
                raise TreeError(
                    f"dpos chain from rank {origin} lands at rank "
                    f"{parent_rank} local {parent_local}, not a node start"
                )
            rank, local = parent_rank, parent_local
            delta_item = parent.delta_items[index]
            dpos = parent.dposes[index]
        for key, parent_rank in reversed(chain):
            base = base + (parent_rank,)
            memo[key] = base
        return base

    def project(self, ranks: Iterable[int]) -> Projection:
        """Prefix paths of every node of ``ranks``, resolved in one sweep.

        Returns a :class:`Projection`: ``project(ranks)[rank] ==
        prefix_paths(rank)`` for every requested rank — the projected
        conditional databases of Grahne & Zhu's secondary-memory
        FP-growth, resolved for a whole set of ranks at once. Parents
        always sit at lower ranks, so one sweep down the ranks, highest
        first, meets every ancestor after all of its descendants: each
        visited subarray is decoded **once**, only the nodes some requested
        node descends from are looked up in it, and it is dropped before
        the next rank is decoded. The sweep keeps each node's parent and
        rank, not its path; paths are built one rank at a time on lookup.

        On a paged array the sweep reads the requested ranks and their
        ancestor subarrays in descending file order, so each page is
        fetched at most once per call. A ``dpos`` chain that lands
        mid-node, or a ``delta_item`` that does not point to a lower rank,
        raises :class:`TreeError`.
        """
        targets = set(ranks)
        # Per node id, as flat int64 columns (16 bytes a node):
        parents = array("q")  # -1: a child of the root
        node_ranks = array("q")
        # Ancestors met but not yet visited: rank -> {local: node id}.
        pending: dict[int, dict[int, int]] = {}
        requested: dict[int, tuple[Sequence[int], Sequence[int]]] = {}
        heap = [-rank for rank in targets]
        heapq.heapify(heap)
        while heap:
            rank = -heapq.heappop(heap)
            entry = self.subarray_columns(rank)
            waiting = pending.pop(rank, {})
            nodes = array("q")
            indices: Iterable[int]
            if rank in targets:
                for local in entry.locals:
                    node = waiting.pop(local, None)
                    if node is None:
                        node = len(parents)
                        parents.append(-1)
                        node_ranks.append(rank)
                    nodes.append(node)
                requested[rank] = (nodes, entry.counts)
                indices = range(len(nodes))
                missing = next(iter(waiting), None)
            else:
                found: list[int] = []
                missing = None
                for local, node in waiting.items():
                    index = entry.index_of(local)
                    if index is None:
                        missing = local
                        break
                    found.append(index)
                    nodes.append(node)
                indices = found
            if missing is not None:
                # A parent link of an already-visited node lands here,
                # but not where a node starts.
                raise TreeError(
                    f"dpos chain lands at rank {rank} local {missing}, "
                    f"not a node start"
                )
            locals_col = entry.locals
            delta_items = entry.delta_items
            dposes = entry.dposes
            for index, node in zip(indices, nodes):
                parent_rank = rank - delta_items[index]
                if parent_rank == 0:
                    continue
                parent_local = locals_col[index] - dposes[index]
                if not 0 < parent_rank < rank:
                    raise _not_lower_rank(rank, locals_col[index], parent_rank)
                above = pending.get(parent_rank)
                if above is None:
                    above = pending[parent_rank] = {}
                    if parent_rank not in targets:
                        heapq.heappush(heap, -parent_rank)
                parent = above.get(parent_local)
                if parent is None:
                    parent = above[parent_local] = len(parents)
                    parents.append(-1)
                    node_ranks.append(parent_rank)
                parents[node] = parent
        return Projection(parents, node_ranks, requested)

    def node_at(self, rank: int, local: int) -> tuple[int, int, int]:
        """Decode the triple at a (rank, local-offset) position."""
        self._check_rank(rank)
        offset = self.starts[rank] + local
        if not self.starts[rank] <= offset < self.starts[rank + 1]:
            raise TreeError(f"local offset {local} outside subarray of rank {rank}")
        buf = self.buffer
        delta_item, offset = varint.decode_from(buf, offset)
        dpos_raw, offset = varint.decode_from(buf, offset)
        count, __ = varint.decode_from(buf, offset)
        return delta_item, varint.unzigzag(dpos_raw), count

    def path_ranks(self, rank: int, local: int) -> list[int]:
        """Backward traversal: ancestor ranks of the node, ascending.

        The ``count`` field is never decoded on this walk (§3.4's field-order
        rationale).
        """
        buf = self.buffer
        starts = self.starts
        path = []
        while True:
            offset = starts[rank] + local
            delta_item, offset = varint.decode_from(buf, offset)
            dpos_raw, __ = varint.decode_from(buf, offset)
            parent_rank = rank - delta_item
            if parent_rank == 0:
                break
            if not 0 < parent_rank < rank:
                raise _not_lower_rank(rank, local, parent_rank)
            local = local - varint.unzigzag(dpos_raw)
            rank = parent_rank
            path.append(rank)
        path.reverse()
        return path

    def rank_support(self, rank: int) -> int:
        """Support of an item: one C-speed sum over the counts column."""
        return sum(self.subarray_columns(rank).counts)

    def active_ranks_descending(self) -> Iterator[int]:
        """Ranks with a non-empty subarray, least frequent first."""
        return (
            rank
            for rank in range(self.n_ranks, 0, -1)
            if self.starts[rank + 1] > self.starts[rank]
        )

    def rank_groups(self) -> Iterator[list[int]]:
        """The mine schedule: :meth:`active_ranks_descending` in groups.

        An in-memory array is one group; a paged reader yields one per
        partition.
        """
        yield list(self.active_ranks_descending())

    def group_projection(
        self, ranks: list[int]
    ) -> Mapping[int, list[tuple[tuple[int, ...], int]]] | None:
        """Prefix paths of a rank group, from one ascending sweep.

        A parent always sits at a lower rank (§3.4), so one sweep up the
        ranks, lowest first, meets every parent before its children. Each
        subarray up to the group's highest rank is decoded once, straight
        from the buffer and never through the decoded-subarray cache, and
        each node's parent is found by its offset among its rank's node
        starts. The result (:class:`SweptPaths`) takes each node's path as
        its parent's path plus the parent's rank as the ranks are mined:
        ``group_projection(ranks)[r] == prefix_paths(r)`` for every rank of
        the group. A ``dpos`` that lands mid-node, or a ``delta_item`` that
        does not point to a lower rank, raises :class:`TreeError`, as
        :meth:`project` does.
        """
        buffer = self.buffer
        starts = self.starts
        targets = set(ranks)
        top = max(targets, default=0)
        parents = array("q")  # per node id; -1 under the root
        tails: list[tuple[int]] = []
        first = [0] * (top + 2)
        locals_of: list[Sequence[int]] = [()]  # per swept rank: node starts
        counts_of: dict[int, Sequence[int]] = {}
        for rank in range(1, top + 1):
            first[rank] = len(parents)
            locals_col, delta_items, dposes, counts = varint.decode_triples_columns(
                buffer, starts[rank], starts[rank + 1]
            )
            append = parents.append
            for local, delta_item, dpos in zip(locals_col, delta_items, dposes):
                parent_rank = rank - delta_item
                if parent_rank == 0:
                    append(-1)
                    continue
                if not 0 < parent_rank < rank:
                    raise _not_lower_rank(rank, local, parent_rank)
                parent_local = local - dpos
                above = locals_of[parent_rank]
                index = bisect_left(above, parent_local)
                if index == len(above) or above[index] != parent_local:
                    raise TreeError(
                        f"dpos chain from rank {rank} lands at rank "
                        f"{parent_rank} local {parent_local}, not a node start"
                    )
                append(first[parent_rank] + index)
            tails.extend([(rank,)] * len(locals_col))
            locals_of.append(locals_col)
            if rank in targets:
                counts_of[rank] = counts
        first[top + 1] = len(parents)
        return SweptPaths(parents, tails, first, counts_of)

    def single_path(self) -> list[tuple[int, int]] | None:
        """The array's single path as ``(rank, count)`` pairs, or None.

        Array counterpart of :meth:`TernaryCfpTree.single_path`, for the
        single-path mining shortcut when the array was produced by the
        parallel build and no whole tree ever existed. A single path means
        every active rank holds exactly one node and each node's parent is
        the previous active rank. Counts are stored cumulatively, so they
        already equal the tree method's suffix-summed counts.
        """
        path: list[tuple[int, int]] = []
        prev_rank = 0
        for rank in range(1, self.n_ranks + 1):
            if self.starts[rank + 1] == self.starts[rank]:
                continue
            columns = self.subarray_columns(rank)
            if len(columns) != 1:
                return None
            if rank - columns.delta_items[0] != prev_rank or columns.dposes[0]:
                return None
            path.append((rank, columns.counts[0]))
            prev_rank = rank
        return path

    def item_of_position(self, offset: int) -> int:
        """Rank owning the byte at ``offset`` — largest start <= offset.

        The paper notes the item field *could* be dropped because the index
        answers this; provided for completeness and used in tests.
        """
        if not 0 <= offset < self.starts[-1]:
            raise TreeError(f"offset {offset} outside the CFP-array buffer")
        low, high = 1, self.n_ranks
        while low < high:
            mid = (low + high + 1) // 2
            if self.starts[mid] <= offset:
                low = mid
            else:
                high = mid - 1
        # Skip over empty subarrays that share the same start.
        while self.starts[low + 1] == self.starts[low]:
            low -= 1
        return low

    def _check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.n_ranks:
            raise TreeError(f"rank {rank} outside 1..{self.n_ranks}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CfpArray(n_ranks={self.n_ranks}, bytes={len(self.buffer)})"
        )
