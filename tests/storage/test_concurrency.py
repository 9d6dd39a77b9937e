"""Concurrent-reader regression tests for the shared-pool serving path.

The bug: :class:`BufferPool` and the CFP-array's decoded-subarray cache
mutated their OrderedDict LRU state and stats counters with no
synchronization. Safe under fork-based workers (every fork owns a private
pool), a data race once the query server shares one pool/array across a
thread executor: ``move_to_end`` racing an eviction corrupts the
OrderedDict, and ``hits += 1`` loses updates.

These tests hammer the structures from many threads with a tiny switch
interval (so the interpreter preempts mid-increment) and assert the
conservation laws the race breaks:

* pool: ``hits + faults == accesses`` and residency never exceeds capacity;
* subarray cache: ``hits + misses == lookups`` and ``used_bytes`` equals
  the sum of resident charges.

On the unguarded code they fail with lost counter updates, inconsistent
byte accounting, or an outright ``KeyError``/``RuntimeError`` out of the
OrderedDict.
"""

import random
import sys
import threading

import pytest

from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.storage import PAGE_SIZE, BufferPool, PageFile
from repro.util.items import prepare_transactions
from repro.util.queries import support_in_cfp_array

N_THREADS = 8
ITERATIONS = 400


@pytest.fixture
def fast_preemption():
    """Force bytecode-level preemption so races surface deterministically."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def run_threads(worker):
    errors = []

    def wrapped(seed):
        try:
            worker(seed)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(seed,)) for seed in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"worker raised under concurrency: {errors[:3]}"


class TestBufferPoolConcurrency:
    N_PAGES = 16

    def test_concurrent_gets_preserve_stat_conservation(
        self, tmp_path, fast_preemption
    ):
        with PageFile.create(tmp_path / "data.pf") as pagefile:
            for page_no in range(self.N_PAGES):
                pagefile.append(bytes([page_no]) * PAGE_SIZE)
            # Capacity far below the page count: every thread churns the
            # LRU, so gets, faults and evictions interleave constantly.
            pool = BufferPool(pagefile, capacity_pages=4)

            def worker(seed):
                rng = random.Random(seed)
                for __ in range(ITERATIONS):
                    page_no = rng.randrange(self.N_PAGES)
                    data = pool.get_page(page_no)
                    assert data[0] == page_no

            run_threads(worker)

            stats = pool.stats
            assert stats.hits + stats.faults == N_THREADS * ITERATIONS
            assert pool.resident_pages() <= pool.capacity_pages

    def test_concurrent_range_reads_return_correct_bytes(
        self, tmp_path, fast_preemption
    ):
        with PageFile.create(tmp_path / "data.pf") as pagefile:
            for page_no in range(self.N_PAGES):
                pagefile.append(bytes([page_no]) * PAGE_SIZE)
            pool = BufferPool(pagefile, capacity_pages=3)

            def worker(seed):
                rng = random.Random(1000 + seed)
                for __ in range(ITERATIONS // 4):
                    page_no = rng.randrange(self.N_PAGES - 1)
                    # Straddle a page boundary: two pages per read.
                    data = pool.read(page_no * PAGE_SIZE + PAGE_SIZE // 2, PAGE_SIZE)
                    assert data[: PAGE_SIZE // 2] == bytes([page_no]) * (PAGE_SIZE // 2)
                    assert data[PAGE_SIZE // 2 :] == bytes([page_no + 1]) * (
                        PAGE_SIZE // 2
                    )

            run_threads(worker)
            assert pool.stats.accesses == N_THREADS * (ITERATIONS // 4) * 2


class TestSubarrayCacheConcurrency:
    def test_raw_cache_accounting_under_contention(self, fast_preemption):
        """Unit-level hammer: the lookup/insert/evict accounting conserves.

        Drives ``get``/``put`` directly (no decode work between cache
        touches, unlike the array-level tests) so the critical sections
        collide constantly — the distilled version of what a thread
        executor does to one long-lived serving array's cache.
        """
        from repro.core.cfp_array import DecodedSubarray, _SubarrayCache

        n_ranks = 24
        charge = 64
        entries = {
            rank: DecodedSubarray((rank,), (rank,), (0,), (1,))
            for rank in range(1, n_ranks + 1)
        }
        lookups_per_thread = 8000

        # The lost-update window is two bytecodes wide, so one hammer
        # round can get lucky; every round must conserve independently.
        for round_no in range(4):
            # Room for only a third of the entries: constant eviction churn.
            cache = _SubarrayCache(budget_bytes=charge * n_ranks // 3)

            def worker(seed):
                rng = random.Random(round_no * N_THREADS + seed)
                for __ in range(lookups_per_thread):
                    rank = rng.randrange(1, n_ranks + 1)
                    if cache.get(rank) is None:
                        cache.put(rank, entries[rank], charge)

            run_threads(worker)

            counts = cache.counts()
            assert counts["hits"] + counts["misses"] == N_THREADS * lookups_per_thread
            assert cache.used_bytes == sum(c for __, c in cache._entries.values())
            assert cache.used_bytes <= cache.budget_bytes

    @pytest.fixture
    def array(self):
        database = [
            [item for item in range(1, 13) if (txn + item) % 3 != 0]
            for txn in range(60)
        ]
        table, transactions = prepare_transactions(database, 2)
        array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
        # A budget that holds only part of the subarrays: every thread
        # drives the eviction sweep against the others' recency bumps.
        budget = max(64, len(array.buffer) // 3)
        array.set_cache_budget(budget)
        return array

    def test_concurrent_subarray_decodes_keep_accounting(self, array, fast_preemption):
        n_ranks = array.n_ranks
        expected = [None] + [
            array.subarray_columns(rank).triples for rank in range(1, n_ranks + 1)
        ]

        def worker(seed):
            rng = random.Random(seed)
            for __ in range(ITERATIONS):
                rank = rng.randrange(1, n_ranks + 1)
                assert array.subarray_columns(rank).triples == expected[rank]

        run_threads(worker)

        cache = array._cache
        counts = cache.counts()
        # The priming pass above plus every worker lookup goes through the
        # cache: each is exactly one hit or one miss, never lost.
        assert counts["hits"] + counts["misses"] == n_ranks + N_THREADS * ITERATIONS
        assert cache.used_bytes == sum(
            charge for __, charge in cache._entries.values()
        )
        assert cache.used_bytes <= cache.budget_bytes

    def test_concurrent_support_queries_agree(self, array, fast_preemption):
        """The serving hot path end to end: shared array, many threads."""
        queries = [(rank, rank + 1) for rank in range(1, array.n_ranks)]
        expected = {q: support_in_cfp_array(array, q) for q in queries}

        def worker(seed):
            rng = random.Random(seed)
            for __ in range(ITERATIONS // 4):
                query = queries[rng.randrange(len(queries))]
                assert support_in_cfp_array(array, query) == expected[query]

        run_threads(worker)


class TestSpilledArrayConcurrency:
    """Hammer a *spilled* array: pool faults and cache evictions mid-read.

    The earlier classes drive the pool and the decoded cache separately;
    here both layers churn at once over a real on-disk array. The pool is
    sized far below the file and the decoded cache far below the decoded
    working set, so a thread's backward traversal routinely loses its
    pages *and* its decoded entry to other threads between two hops —
    every answer must still match the in-memory reference.
    """

    @pytest.fixture
    def spilled(self, tmp_path):
        # Random transactions (fixed seed) so paths do not collapse into a
        # handful of shared prefixes: the array must span several pages
        # for a 2-page pool to actually thrash.
        rng = random.Random(42)
        database = [
            rng.sample(range(1, 40), rng.randint(4, 12)) for _ in range(600)
        ]
        table, transactions = prepare_transactions(database, 2)
        reference = convert(
            TernaryCfpTree.from_rank_transactions(transactions, len(table))
        )
        path = tmp_path / "spilled.cfpa"
        from repro.storage import save_cfp_array

        save_cfp_array(reference, path)
        return reference, path

    def test_pooled_reads_with_eviction_mid_read(self, spilled, fast_preemption):
        from repro.storage import PartitionedCfpArray

        reference, path = spilled
        expected = [None] + [
            reference.subarray_columns(rank).triples
            for rank in range(1, reference.n_ranks + 1)
        ]
        queries = [(rank, rank + 1) for rank in range(1, reference.n_ranks)]
        supports = {q: support_in_cfp_array(reference, q) for q in queries}
        decoded_budget = max(
            64,
            sum(
                reference.subarray_columns(rank).decoded_bytes
                for rank in range(1, reference.n_ranks + 1)
            )
            // 4,
        )
        with PartitionedCfpArray(
            path, pool_pages=2, cache_budget=decoded_budget
        ) as array:

            def worker(seed):
                rng = random.Random(seed)
                for __ in range(ITERATIONS // 4):
                    rank = rng.randrange(1, array.n_ranks + 1)
                    assert array.subarray_columns(rank).triples == expected[rank]
                    query = queries[rng.randrange(len(queries))]
                    assert support_in_cfp_array(array, query) == supports[query]

            run_threads(worker)

            stats = array.pool.stats
            assert stats.hits + stats.faults == stats.accesses
            assert array.pool.resident_pages() <= array.pool.capacity_pages
            cache = array._cache
            assert cache.used_bytes == sum(
                charge for __, charge in cache._entries.values()
            )
            assert cache.used_bytes <= cache.budget_bytes
            # The budgets really were under pressure, or this test
            # degenerates into the all-resident case.
            assert stats.evictions > 0
            assert cache.counts()["evictions"] > 0

    def test_partitioned_reads_with_prefetch_churn(self, spilled, fast_preemption):
        from repro.storage import PartitionedCfpArray, save_cfp_array_partitioned

        reference, path = spilled
        part_path = str(path) + ".v3"
        save_cfp_array_partitioned(reference, part_path, partition_bytes=PAGE_SIZE)
        expected = [None] + [
            reference.subarray_columns(rank).triples
            for rank in range(1, reference.n_ranks + 1)
        ]
        with PartitionedCfpArray(
            part_path, pool_pages=2, cache_budget=1 << 12, hot_bytes=256
        ) as array:
            n_parts = len(array.partitions)

            def worker(seed):
                rng = random.Random(seed)
                for step in range(ITERATIONS // 4):
                    # Interleave demand reads with prefetch requests for
                    # random partitions: read-ahead inserts race demand
                    # faults and evictions for the same few frames.
                    if step % 7 == 0:
                        array.begin_partition(rng.randrange(n_parts))
                    rank = rng.randrange(1, array.n_ranks + 1)
                    assert array.subarray_columns(rank).triples == expected[rank]

            run_threads(worker)
            array.prefetch_drain()

            stats = array.pool.stats
            assert stats.hits + stats.faults == stats.accesses
            assert array.pool.resident_pages() <= array.pool.capacity_pages
            # BUF003 conservation with prefetch in the mix.
            assert (
                stats.faults + stats.prefetched - stats.evictions
                == array.pool.resident_pages()
            )
