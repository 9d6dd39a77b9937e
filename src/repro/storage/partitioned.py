"""The paged CFP-array reader: every store format, a partition at a time.

:class:`PartitionedCfpArray` serves the full :class:`repro.core.CfpArray`
traversal interface from a store file of any version while keeping
resident only:

* the item index (``starts``) — the paper's "small item index",
* a **pinned hot set**: the most frequent ranks' encoded subarrays, read
  once at open and held outside the buffer pool. Ranks *are* the item
  table's frequency order (rank 1 = most frequent), and every ancestor
  lies at a lower rank, so these are the subarrays every partition's
  projection reaches,
* a :class:`~repro.storage.bufferpool.BufferPool` over the page file, and
* the optional decoded-subarray LRU cache shared with every other reader.

The partition is the unit of disk access. A v3 file lists its
partitions in a manifest; a v1/v2 file is one partition covering every
rank, starting at the header's data page. :meth:`rank_groups` hands
:func:`repro.core.cfp_growth.mine_array` one partition at a time, in
descending rank order, and the loop projects each once
(:meth:`CfpArray.project`): a single sweep down the ranks that reads
each page of the partition and of the lower partitions at most once.
As each partition is handed out, :meth:`begin_partition` passes the next
one(s) to a background :class:`~repro.storage.bufferpool.Prefetcher`,
so their pages stream in while the sweep works on this one. A
one-partition store starts no such thread: nothing is ever ahead of its
only partition.
``REPRO_PREFETCH=0`` disables the thread; ``REPRO_PREFETCH_DEPTH`` sets
how many partitions ahead to request (default 1). Prefetch is pure
opportunism — answers are identical with it off, dead, or fault-injected
(``pagefile.prefetch``).

:class:`DiskCfpArray` is the same reader with per-node walks: the
access pattern the §4.3 experiment measures.
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.compress import varint
from repro.core.cfp_array import (
    CfpArray,
    DecodedSubarray,
    Triple,
    _not_lower_rank,
    _SubarrayCache,
)
from repro.errors import TreeError
from repro.storage.bufferpool import (
    BufferPool,
    Prefetcher,
    prefetch_depth,
    prefetch_enabled,
)
from repro.storage.cfp_store import (
    PartitionInfo,
    _verify_content,
    read_array_header,
)
from repro.storage.pagefile import PAGE_SIZE, PageFile


class PartitionedCfpArray(CfpArray):
    """A stored CFP-array read partition-at-a-time through a buffer pool.

    Opens format v1, v2 and v3 files. The buffer is never materialized
    (``self.buffer`` stays empty) and every buffer-touching method is
    overridden to resolve through the hot set or the buffer pool. All
    recursive traversals (``project``, ``prefix_paths``, ``single_path``,
    ``rank_support``) funnel through :meth:`subarray_columns`, so they
    run unchanged. ``verify=True`` checks every content page against the
    file's checksum trailer before the first read.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        pool_pages: int = 64,
        cache_budget: int = 0,
        *,
        hot_bytes: int = 0,
        prefetch: bool | None = None,
        readahead_partitions: int | None = None,
        verify: bool = False,
    ) -> None:
        self._pagefile = PageFile.open_readonly(path)
        try:
            header = read_array_header(self._pagefile)
            if verify:
                _verify_content(self._pagefile, header.content_pages, header.version)
        except Exception:  # lint: ignore[INV004] - close-and-reraise: no pagefile may leak whatever the header read throws
            self._pagefile.close()
            raise
        # Deliberately no super().__init__: it demands the materialized
        # buffer this class exists to avoid.
        self.n_ranks = header.n_ranks
        self.buffer = b""
        self.starts = header.starts
        self._node_count = None
        self._cache = _SubarrayCache(cache_budget) if cache_budget > 0 else None
        self._path_memo = None
        self._active_ranks = None
        # A v1/v2 file is one partition; its payload is covered by the
        # page-checksum trailer alone, so it carries no manifest CRC.
        self.partitions: tuple[PartitionInfo, ...] = header.partitions or (
            PartitionInfo(
                0, 1, self.n_ranks, header.buffer_len, header.data_page, None
            ),
        )
        self._rank_part = [0] * (self.n_ranks + 2)
        for part in self.partitions:
            for rank in range(part.first_rank, part.last_rank + 1):
                self._rank_part[rank] = part.index
        # Pinned hot set: most frequent ranks first (lowest rank numbers),
        # while their cumulative encoded bytes fit the hot budget. Read
        # directly from the page file — hot residency is accounted here,
        # not as pool traffic.
        self._hot: dict[int, bytes] = {}
        self._hot_bytes = 0
        budget = max(0, hot_bytes)
        for rank in range(1, self.n_ranks + 1):
            length = self.starts[rank + 1] - self.starts[rank]
            if length == 0:
                continue
            if self._hot_bytes + length > budget:
                break
            self._hot[rank] = self._read_span(self._file_offset(rank), length)
            self._hot_bytes += length
        self.pool = BufferPool(self._pagefile, pool_pages)
        if prefetch is None:
            prefetch = prefetch_enabled()
        depth = (
            readahead_partitions
            if readahead_partitions is not None
            else prefetch_depth()
        )
        self._prefetch_depth = max(0, depth)
        self._prefetcher: Prefetcher | None = (
            Prefetcher(self.pool)
            if prefetch and self._prefetch_depth > 0 and len(self.partitions) > 1
            else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None
        self.pool.publish_metrics()
        self._pagefile.close()

    def __enter__(self) -> "PartitionedCfpArray":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Partition scheduling (consumed by mine_array)
    # ------------------------------------------------------------------

    def rank_groups(self) -> Iterator[list[int]]:
        """Each partition's non-empty ranks, highest partition first.

        Concatenated, the groups are :meth:`CfpArray.active_ranks_descending`,
        so the partitioned mine is byte-identical to the monolithic one.
        Read-ahead (:meth:`begin_partition`) starts as each group is handed
        out.
        """
        starts = self.starts
        for part in reversed(self.partitions):
            self.begin_partition(part.index)
            yield [
                rank
                for rank in range(part.last_rank, part.first_rank - 1, -1)
                if starts[rank + 1] > starts[rank]
            ]

    def begin_partition(self, index: int) -> None:
        """Announce that partition ``index`` is about to be mined.

        Issues background read-ahead for the next partition(s) in the
        schedule (descending indices) so their pages stream in while the
        active partition is mined. A no-op when prefetch is disabled or
        the prefetcher thread has died — demand reads stay correct.
        """
        prefetcher = self._prefetcher
        if prefetcher is None:
            return
        for ahead in range(1, self._prefetch_depth + 1):
            upcoming = index - ahead
            if upcoming < 0:
                break
            part = self.partitions[upcoming]
            prefetcher.request(part.data_page, part.pages)

    def prefetch_drain(self, timeout: float = 5.0) -> None:
        """Wait for queued read-ahead (deterministic tests/benches only)."""
        if self._prefetcher is not None:
            self._prefetcher.drain(timeout)

    # ------------------------------------------------------------------
    # Buffer access through the hot set / pool
    # ------------------------------------------------------------------

    def _file_offset(self, rank: int) -> int:
        """Absolute file byte offset of ``rank``'s subarray."""
        part = self.partitions[self._rank_part[rank]]
        return part.data_page * PAGE_SIZE + (
            self.starts[rank] - self.starts[part.first_rank]
        )

    def _read_span(self, file_offset: int, length: int) -> bytes:
        """Read a byte span straight from the page file (hot-set load)."""
        if length == 0:
            return b""
        first_page = file_offset // PAGE_SIZE
        last_page = (file_offset + length - 1) // PAGE_SIZE
        blob = self._pagefile.read_pages(first_page, last_page - first_page + 1)
        start = file_offset - first_page * PAGE_SIZE
        return blob[start : start + length]

    def _fetch_rank_bytes(self, rank: int) -> bytes:
        """Encoded subarray bytes: pinned hot copy, or a pool read."""
        hot = self._hot.get(rank)
        if hot is not None:
            return hot
        length = self.starts[rank + 1] - self.starts[rank]
        if length == 0:
            return b""
        return self.pool.read(self._file_offset(rank), length)

    def subarray_columns(self, rank: int) -> DecodedSubarray:
        cache = self._cache
        if cache is not None:
            cached = cache.get(rank)
            if cached is not None:
                return cached
        self._check_rank(rank)
        chunk = self._fetch_rank_bytes(rank)
        entry = DecodedSubarray(*varint.decode_triples_columns(chunk, 0, len(chunk)))
        if cache is not None:
            cache.put(rank, entry, entry.decoded_bytes)
        return entry

    @property
    def node_count(self) -> int:
        """Lazy count via per-subarray terminator scans (no decode)."""
        if self._node_count is None:
            total = 0
            for rank in range(1, self.n_ranks + 1):
                chunk = self._fetch_rank_bytes(rank)
                if chunk:
                    total += varint.count_triples(chunk, 0, len(chunk))
            self._node_count = total
        return self._node_count

    def node_at(self, rank: int, local: int) -> tuple[int, int, int]:
        self._check_rank(rank)
        entry = self.subarray_columns(rank)
        index = entry.index_of(local)
        if index is None:
            raise TreeError(
                f"local offset {local} outside subarray of rank {rank}"
            )
        return entry.delta_items[index], entry.dposes[index], entry.counts[index]

    def path_ranks(self, rank: int, local: int) -> list[int]:
        path = []
        while True:
            delta_item, dpos, __ = self.node_at(rank, local)
            parent_rank = rank - delta_item
            if parent_rank == 0:
                break
            if not 0 < parent_rank < rank:
                raise _not_lower_rank(rank, local, parent_rank)
            local = local - dpos
            rank = parent_rank
            path.append(rank)
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def hot_bytes(self) -> int:
        """Encoded bytes pinned in the hot set."""
        return self._hot_bytes

    @property
    def hot_ranks(self) -> int:
        """Number of ranks pinned in the hot set."""
        return len(self._hot)

    @property
    def memory_bytes(self) -> int:
        """Resident bytes: pool, item index, cache budget, and hot set."""
        return (
            self.pool.capacity_bytes
            + (self.n_ranks + 1) * 5
            + self.cache_budget
            + self._hot_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionedCfpArray(n_ranks={self.n_ranks}, "
            f"partitions={len(self.partitions)}, "
            f"pool_pages={self.pool.capacity_pages}, "
            f"hot_bytes={self._hot_bytes})"
        )


class DiskCfpArray(PartitionedCfpArray):
    """The paged reader with per-node walks: §4.3's access pattern.

    :func:`repro.core.cfp_growth.mine_array` mines it rank by rank, never
    from a projection, and every node a sideward scan or a backward walk
    visits is one pool read of at most :attr:`_MAX_TRIPLE` bytes, cut off
    at the end of the node's partition. That per-node pattern *is* what
    the out-of-core experiment (``repro experiment outofcore``) measures,
    so no bulk-decode shortcut is taken here.
    """

    #: Longest possible encoded triple (three 10-byte varints).
    _MAX_TRIPLE = 30

    def _node_bytes(self, rank: int, local: int) -> bytes:
        """Up to one triple's bytes from the start of a node."""
        part = self.partitions[self._rank_part[rank]]
        offset = self.starts[rank] - self.starts[part.first_rank] + local
        return self.pool.read(
            part.data_page * PAGE_SIZE + offset,
            min(self._MAX_TRIPLE, part.byte_len - offset),
        )

    def group_projection(self, ranks: list[int]) -> None:
        """Always None: each rank is mined through its per-node walks."""
        return None

    def iter_subarray(self, rank: int) -> Iterator[Triple]:
        end = self.starts[rank + 1] - self.starts[rank]
        local = 0
        while local < end:
            chunk = self._node_bytes(rank, local)
            delta_item, pos = varint.decode_from(chunk, 0)
            dpos_raw, pos = varint.decode_from(chunk, pos)
            count, pos = varint.decode_from(chunk, pos)
            yield local, delta_item, varint.unzigzag(dpos_raw), count
            local += pos

    def path_ranks(self, rank: int, local: int) -> list[int]:
        path = []
        while True:
            chunk = self._node_bytes(rank, local)
            delta_item, pos = varint.decode_from(chunk, 0)
            dpos_raw, __ = varint.decode_from(chunk, pos)
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

    def prefix_paths(self, rank: int) -> list[tuple[tuple[int, ...], int]]:
        return [
            (tuple(self.path_ranks(rank, local)), count)
            for local, __, __, count in self.iter_subarray(rank)
        ]

    def rank_support(self, rank: int) -> int:
        return sum(count for __, __, __, count in self.iter_subarray(rank))


__all__ = ["DiskCfpArray", "PartitionedCfpArray"]
