"""LRU buffer pool over a page file.

The pool caches up to ``capacity`` pages; a request for a cached page is a
*hit*, anything else is a *fault* that reads from disk and may evict the
least-recently-used unpinned page. The statistics drive the out-of-core
experiments: with a pool smaller than the structure, sequential scans
fault once per page while random backward traversals fault per access —
the asymmetry behind the paper's §4.3 observations.

Disk reads that fail with :class:`repro.errors.TransientIOError` (a
retryable OS error mapped by :class:`repro.storage.pagefile.PageFile`, or
an injected ``pagefile.read:flake`` fault) are retried here with bounded
exponential backoff before the error is allowed to escape — a page-read
hiccup must not abort an hours-long out-of-core mine. The retry budget
comes from ``REPRO_IO_RETRIES`` (default 3) and the first delay from
``REPRO_IO_BACKOFF`` (seconds, default 0.01, doubling per attempt);
every retry is counted in ``stats.read_retries`` and published as
``bufferpool.read_retries``. See docs/robustness.md.

**Read-ahead:** :meth:`BufferPool.prefetch_pages` pulls a consecutive page
run into the pool with one batch read (:meth:`PageFile.read_pages`),
capped at half the capacity so read-ahead can never evict the demand
working set. Prefetched pages are counted in ``stats.prefetched`` — *not*
as faults — and tracked until first use: a demand access of one is a
``prefetch_hit``, eviction before any use is ``prefetch_wasted``.
:class:`Prefetcher` runs those calls on a background thread; it is pure
opportunism — if the thread has died (an injected ``pagefile.prefetch``
fault, say) requests are dropped and demand reads proceed synchronously,
identical answers, just slower. ``REPRO_PREFETCH=0`` disables read-ahead
globally; ``REPRO_PREFETCH_DEPTH`` sets how many partitions ahead the
partition-at-a-time mine scheduler asks for (default 1).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import astuple, dataclass, replace
from typing import TYPE_CHECKING

from repro import faultinject
from repro.errors import ReproError, TransientIOError
from repro.storage.pagefile import PAGE_SIZE, PageFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class BufferPoolError(ReproError):
    """Pin bookkeeping or capacity misuse."""


#: Retries of a transient page read before the error escapes (env override
#: ``REPRO_IO_RETRIES``; 0 disables retrying).
DEFAULT_IO_RETRIES = 3

#: First retry delay in seconds, doubled per attempt and capped at
#: :data:`IO_BACKOFF_MAX` (env override ``REPRO_IO_BACKOFF``).
DEFAULT_IO_BACKOFF = 0.01

IO_BACKOFF_MAX = 0.25


def _io_retries() -> int:
    raw = os.environ.get("REPRO_IO_RETRIES")
    if raw is None:
        return DEFAULT_IO_RETRIES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_IO_RETRIES


def _io_backoff() -> float:
    raw = os.environ.get("REPRO_IO_BACKOFF")
    if raw is None:
        return DEFAULT_IO_BACKOFF
    try:
        return max(0.0, float(raw))
    except ValueError:
        return DEFAULT_IO_BACKOFF


#: Partitions of read-ahead the partition scheduler requests by default
#: (env override ``REPRO_PREFETCH_DEPTH``).
DEFAULT_PREFETCH_DEPTH = 1


def prefetch_enabled() -> bool:
    """Whether background read-ahead is enabled (``REPRO_PREFETCH``)."""
    raw = os.environ.get("REPRO_PREFETCH")
    if raw is None:
        return True
    return raw.strip().lower() not in {"0", "off", "false", "no"}


def prefetch_depth() -> int:
    """Partitions of read-ahead to request (``REPRO_PREFETCH_DEPTH``)."""
    raw = os.environ.get("REPRO_PREFETCH_DEPTH")
    if raw is None:
        return DEFAULT_PREFETCH_DEPTH
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_PREFETCH_DEPTH


@dataclass
class BufferPoolStats:
    """Cumulative access statistics."""

    hits: int = 0
    faults: int = 0
    evictions: int = 0
    read_retries: int = 0
    prefetch_requests: int = 0
    prefetched: int = 0
    prefetch_hits: int = 0
    prefetch_wasted: int = 0
    prefetch_errors: int = 0
    bytes_read: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.faults

    @property
    def hit_ratio(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class BufferPool:
    """Fixed-capacity LRU cache of pages with pin counts.

    Thread-safe: one lock guards the frame table, LRU recency, pins and
    stats. The pool was born for fork-based workers (each fork got its own
    pool, so unsynchronized mutation was safe); the serving layer shares
    **one** pool across a thread executor, where an unguarded
    ``move_to_end`` racing an eviction corrupts the OrderedDict and
    ``stats.hits += 1`` loses updates. The lock is held across the disk
    read of a fault — serializing duplicate reads of the same page is the
    point, not a bug — and across a transient-retry backoff sleep, which
    stalls other readers exactly as long as the disk itself is stalling.
    """

    def __init__(self, pagefile: PageFile, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise BufferPoolError(f"capacity must be >= 1, got {capacity_pages}")
        self._file = pagefile
        self.capacity_pages = capacity_pages
        self._frames: OrderedDict[int, bytes] = OrderedDict()
        self._pins: dict[int, int] = {}
        self._prefetched: set[int] = set()
        self._lock = threading.Lock()
        self.stats = BufferPoolStats()
        #: Stats and page-file (reads, writes) at the last publish_metrics.
        self._published = (BufferPoolStats(), (0, 0))

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * PAGE_SIZE

    @property
    def pagefile(self) -> PageFile:
        """The underlying page file (read-only use by checkers/stats)."""
        return self._file

    def _read_page_resilient(self, page_no: int) -> bytes:
        """Read from disk, retrying transient errors with backoff.

        Only :class:`TransientIOError` is retried — a hard fault (bad
        page number, closed file, checksum problems upstream) surfaces
        immediately. After the budget is spent the *original* transient
        error escapes, so callers see what actually went wrong.
        """
        budget = _io_retries()
        delay = _io_backoff()
        attempt = 0
        while True:
            try:
                return self._file.read_page(page_no)
            except TransientIOError:
                if attempt >= budget:
                    raise
                attempt += 1
                self.stats.read_retries += 1
                if delay > 0:
                    time.sleep(min(delay * 2 ** (attempt - 1), IO_BACKOFF_MAX))

    def get_page(self, page_no: int) -> bytes:
        """Fetch a page, through the cache."""
        with self._lock:
            return self._get_page_locked(page_no)

    def _get_page_locked(self, page_no: int) -> bytes:
        frame = self._frames.get(page_no)
        if frame is not None:
            self._frames.move_to_end(page_no)
            self.stats.hits += 1
            if page_no in self._prefetched:
                self._prefetched.discard(page_no)
                self.stats.prefetch_hits += 1
            return frame
        self.stats.faults += 1
        data = self._read_page_resilient(page_no)
        self.stats.bytes_read += PAGE_SIZE
        self._make_room()
        self._frames[page_no] = data
        return data

    def read(self, offset: int, size: int) -> bytes:
        """Read an arbitrary byte range through the pool.

        The range is validated against the file size *before* any page is
        fetched: a request past EOF raises :class:`BufferPoolError` with
        the pool's statistics untouched, instead of surfacing a raw
        page-file error mid-loop after some pages were already counted.
        """
        if size < 0 or offset < 0:
            raise BufferPoolError(f"invalid range ({offset}, {size})")
        file_bytes = self._file.page_count * PAGE_SIZE
        if offset + size > file_bytes:
            raise BufferPoolError(
                f"range ({offset}, {size}) ends at byte {offset + size}, "
                f"past the file's {file_bytes} bytes"
            )
        parts = []
        remaining = size
        position = offset
        with self._lock:
            while remaining > 0:
                page_no, in_page = divmod(position, PAGE_SIZE)
                take = min(remaining, PAGE_SIZE - in_page)
                parts.append(
                    self._get_page_locked(page_no)[in_page : in_page + take]
                )
                position += take
                remaining -= take
        return b"".join(parts)

    def prefetch_pages(self, first_page: int, n_pages: int) -> int:
        """Pull a consecutive page run into the pool ahead of demand.

        Pages already resident are skipped; the rest are read in
        contiguous batch runs (one seek each) and inserted as
        most-recently-used, counted in ``stats.prefetched`` and
        ``stats.bytes_read`` but **not** as faults. The request is capped
        at half the pool capacity so read-ahead can never flush the
        demand working set. Returns the number of pages actually loaded.

        The ``pagefile.prefetch`` fault site fires first: its ``flake``
        action aborts just this request with :class:`TransientIOError`
        (best-effort read-ahead does not retry — the demand path will),
        and harsher actions kill the calling :class:`Prefetcher` thread.
        """
        faultinject.fire("pagefile.prefetch", page=first_page, pages=n_pages)
        limit = max(1, self.capacity_pages // 2)
        n_pages = min(n_pages, limit)
        last = min(first_page + n_pages, self._file.page_count)
        if first_page < 0 or first_page >= last:
            return 0
        loaded = 0
        with self._lock:
            wanted = [
                page_no
                for page_no in range(first_page, last)
                if page_no not in self._frames
            ]
            run_start = 0
            while run_start < len(wanted):
                run_end = run_start + 1
                while (
                    run_end < len(wanted)
                    and wanted[run_end] == wanted[run_end - 1] + 1
                ):
                    run_end += 1
                first = wanted[run_start]
                count = run_end - run_start
                blob = self._file.read_pages(first, count)
                for index in range(count):
                    page_no = first + index
                    self._make_room()
                    self._frames[page_no] = blob[
                        index * PAGE_SIZE : (index + 1) * PAGE_SIZE
                    ]
                    self._prefetched.add(page_no)
                self.stats.prefetched += count
                self.stats.bytes_read += count * PAGE_SIZE
                loaded += count
                run_start = run_end
        return loaded

    def note_prefetch_request(self) -> None:
        """Count one read-ahead request issued to a :class:`Prefetcher`."""
        with self._lock:
            self.stats.prefetch_requests += 1

    def note_prefetch_error(self) -> None:
        """Count one failed background read-ahead (the mine continues)."""
        with self._lock:
            self.stats.prefetch_errors += 1

    def pin(self, page_no: int) -> None:
        """Protect a page from eviction (e.g. an index page)."""
        with self._lock:
            self._get_page_locked(page_no)
            self._pins[page_no] = self._pins.get(page_no, 0) + 1

    def unpin(self, page_no: int) -> None:
        with self._lock:
            count = self._pins.get(page_no, 0)
            if count <= 0:
                raise BufferPoolError(f"page {page_no} is not pinned")
            if count == 1:
                del self._pins[page_no]
            else:
                self._pins[page_no] = count - 1

    def resident_pages(self) -> int:
        with self._lock:
            return len(self._frames)

    def resident_page_numbers(self) -> list[int]:
        """Cached page numbers in LRU order (least recently used first)."""
        with self._lock:
            return list(self._frames)

    def pinned_pages(self) -> dict[int, int]:
        """Pin count per pinned page (a copy)."""
        with self._lock:
            return dict(self._pins)

    def publish_metrics(self, registry: "MetricsRegistry | None" = None) -> None:
        """Add the pool's counters (and page-file I/O) to a registry.

        Defaults to the process-wide :data:`repro.obs.metrics` registry.
        Each call adds only the movement since the previous one, so the
        counts arrive once however often the pool is published: a
        draining server publishes it, then closing its store does again.
        """
        if registry is None:
            from repro.obs import metrics as registry  # type: ignore[no-redef]
        assert registry is not None
        with self._lock:
            stats = replace(self.stats)
            io = (self._file.reads, self._file.writes)
            (last, last_io), self._published = self._published, (stats, io)
        moved = BufferPoolStats(
            *(now - then for now, then in zip(astuple(stats), astuple(last)))
        )
        registry.add("bufferpool.hits", moved.hits)
        registry.add("bufferpool.faults", moved.faults)
        registry.add("bufferpool.evictions", moved.evictions)
        registry.add("bufferpool.read_retries", moved.read_retries)
        registry.add("bufferpool.bytes_read", moved.bytes_read)
        registry.add("prefetch.issued", moved.prefetch_requests)
        registry.add("prefetch.pages", moved.prefetched)
        registry.add("prefetch.hits", moved.prefetch_hits)
        registry.add("prefetch.wasted", moved.prefetch_wasted)
        registry.add("prefetch.errors", moved.prefetch_errors)
        registry.add("pagefile.reads", io[0] - last_io[0])
        registry.add("pagefile.writes", io[1] - last_io[1])

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity_pages:
            victim = None
            for page_no in self._frames:  # LRU order
                if not self._pins.get(page_no):
                    victim = page_no
                    break
            if victim is None:
                raise BufferPoolError("all pages pinned; cannot evict")
            del self._frames[victim]
            self.stats.evictions += 1
            if victim in self._prefetched:
                self._prefetched.discard(victim)
                self.stats.prefetch_wasted += 1


class Prefetcher:
    """Background thread issuing :meth:`BufferPool.prefetch_pages` calls.

    Strictly best-effort: :meth:`request` enqueues and returns
    immediately, and if the worker thread has died — an injected
    ``pagefile.prefetch`` fault, or any hard error — later requests are
    silently dropped, so the caller degrades to synchronous demand reads
    with identical answers. A :class:`TransientIOError` (including the
    site's ``flake`` action) only costs that one request; harder
    :class:`ReproError` failures terminate the thread, which is the
    in-process analog of killing it. Both paths are counted in
    ``stats.prefetch_errors``.
    """

    def __init__(self, pool: BufferPool, name: str = "repro-prefetch") -> None:
        self._pool = pool
        self._queue: "queue.Queue[tuple[int, int] | None]" = queue.Queue()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    @property
    def alive(self) -> bool:
        """Whether the worker thread is still serving requests."""
        return self._thread.is_alive()

    def request(self, first_page: int, n_pages: int) -> bool:
        """Enqueue a read-ahead; returns False if dropped (thread dead)."""
        if n_pages < 1 or not self._thread.is_alive():
            return False
        self._pool.note_prefetch_request()
        self._queue.put((first_page, n_pages))
        return True

    def drain(self, timeout: float = 5.0) -> None:
        """Best-effort wait for queued requests to finish (tests/bench)."""
        deadline = time.monotonic() + timeout
        while (
            not self._queue.empty()
            and self._thread.is_alive()
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker and wait for it (idempotent)."""
        self._queue.put(None)
        self._thread.join(timeout)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            try:
                self._pool.prefetch_pages(*item)
            except TransientIOError:
                # One flaky batch read: drop it, keep serving. The demand
                # path re-reads the pages with its own retry budget.
                self._pool.note_prefetch_error()
            except ReproError:
                # A hard failure (injected or real): record it and die.
                # Demand reads keep the mine correct without read-ahead.
                self._pool.note_prefetch_error()
                return
