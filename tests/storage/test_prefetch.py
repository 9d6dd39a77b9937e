"""Read-ahead: accounting, the prefetch thread, and its chaos coverage.

The ``pagefile.prefetch`` fault site fires at the top of
:meth:`BufferPool.prefetch_pages` — on the *prefetch thread* when the
request came through a :class:`Prefetcher`. The contract under chaos:

* ``flake`` (transient I/O): the thread notes the error and keeps
  serving later requests — one bad batch must not end read-ahead.
* ``raise`` (hard fault): the thread exits — the in-process analog of a
  killed helper. ``request()`` then returns ``False`` and every read
  falls back to synchronous demand paging.

In both cases answers are byte-identical to the in-core mine: prefetch
is pure opportunism, never a correctness dependency.
"""

from __future__ import annotations

import random

import pytest

from repro import faultinject, obs
from repro.core.cfp_growth import mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import ListCollector
from repro.storage import (
    PAGE_SIZE,
    BufferPool,
    PageFile,
    PartitionedCfpArray,
    Prefetcher,
    save_cfp_array_partitioned,
)
from repro.util.items import prepare_transactions

MIN_SUPPORT = 3


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.setenv("REPRO_IO_BACKOFF", "0")
    faultinject.reset()
    yield
    faultinject.reset()
    obs.metrics.reset()


@pytest.fixture(scope="module")
def array():
    rng = random.Random(19)
    database = [
        rng.sample(range(45), rng.randint(3, 10)) for __ in range(700)
    ]
    table, transactions = prepare_transactions(database, 2)
    return convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))


@pytest.fixture
def store(array, tmp_path):
    path = tmp_path / "pf.cfpa"
    save_cfp_array_partitioned(array, path, partition_bytes=PAGE_SIZE)
    return path


@pytest.fixture
def reference(array):
    collector = ListCollector()
    mine_array(array, MIN_SUPPORT, collector)
    return collector.itemsets


class TestPrefetchAccounting:
    def _pool(self, tmp_path, n_pages=16, capacity=8):
        path = tmp_path / "pages.bin"
        with PageFile.create(path) as pf:
            for page_no in range(n_pages):
                pf.append(bytes([page_no]) * 32)
        pagefile = PageFile.open_readonly(path)
        return pagefile, BufferPool(pagefile, capacity_pages=capacity)

    def test_prefetched_pages_hit_without_faulting(self, tmp_path):
        pagefile, pool = self._pool(tmp_path)
        try:
            assert pool.prefetch_pages(0, 4) == 4
            assert pool.stats.prefetched == 4
            assert pool.stats.faults == 0
            for page_no in range(4):
                assert pool.get_page(page_no)[0] == page_no
            assert pool.stats.prefetch_hits == 4
            assert pool.stats.faults == 0
            # bytes_read counts the prefetch I/O even though no demand
            # fault happened.
            assert pool.stats.bytes_read == 4 * PAGE_SIZE
        finally:
            pagefile.close()

    def test_unused_prefetch_counts_as_wasted(self, tmp_path):
        pagefile, pool = self._pool(tmp_path, capacity=4)
        try:
            pool.prefetch_pages(0, 4)
            # Demand-read the other pages: the untouched prefetched
            # frames are evicted unused.
            for page_no in range(8, 14):
                pool.get_page(page_no)
            assert pool.stats.prefetch_wasted > 0
            stats = pool.stats
            assert (
                stats.faults + stats.prefetched - stats.evictions
                == pool.resident_pages()
            )
        finally:
            pagefile.close()

    def test_prefetch_capped_at_half_capacity(self, tmp_path):
        pagefile, pool = self._pool(tmp_path, n_pages=16, capacity=8)
        try:
            loaded = pool.prefetch_pages(0, 16)
            assert loaded <= 4  # capacity // 2: read-ahead may not evict
            # the demand working set wholesale
        finally:
            pagefile.close()


class TestPrefetcherThread:
    def test_request_and_drain(self, tmp_path):
        pagefile, pool = TestPrefetchAccounting()._pool(tmp_path)
        prefetcher = Prefetcher(pool)
        try:
            assert prefetcher.request(0, 4)
            prefetcher.drain()
            assert pool.stats.prefetched == 4
            assert pool.stats.prefetch_requests == 1
        finally:
            prefetcher.close()
            pagefile.close()

    def test_flake_keeps_thread_alive(self, tmp_path, store, reference):
        faultinject.install("pagefile.prefetch:flake:times=2")
        with PartitionedCfpArray(store, pool_pages=4) as disk:
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
            disk.prefetch_drain()
            assert disk._prefetcher is not None and disk._prefetcher.alive
            assert disk.pool.stats.prefetch_errors >= 1
        assert got.itemsets == reference

    def test_hard_fault_kills_thread_falls_back_sync(self, store, reference):
        faultinject.install("pagefile.prefetch:raise")
        with PartitionedCfpArray(store, pool_pages=4) as disk:
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
            disk.prefetch_drain()
            prefetcher = disk._prefetcher
            assert prefetcher is not None and not prefetcher.alive
            # A dead thread refuses new work instead of queueing it.
            assert not prefetcher.request(0, 1)
            assert disk.pool.stats.prefetch_errors >= 1
            assert disk.pool.stats.prefetched == 0
            # Demand paging carried the whole mine.
            assert disk.pool.stats.faults > 0
        assert got.itemsets == reference

    def test_disabled_by_env(self, store, reference, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "0")
        with PartitionedCfpArray(store, pool_pages=4) as disk:
            assert disk._prefetcher is None
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
            assert disk.pool.stats.prefetched == 0
        assert got.itemsets == reference

    def test_depth_env_widens_readahead(self, store, reference, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH_DEPTH", "3")
        with PartitionedCfpArray(store, pool_pages=8) as disk:
            assert disk._prefetch_depth == 3
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
            disk.prefetch_drain()
            assert disk.pool.stats.prefetch_requests > 0
        assert got.itemsets == reference

    def test_prefetch_improves_hit_rate(self, store):
        """The counter the bench gates on: read-ahead must actually hit."""
        with PartitionedCfpArray(store, pool_pages=8) as disk:
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
            disk.prefetch_drain()
            stats = disk.pool.stats
        if stats.prefetched:
            assert stats.prefetch_hits > 0
