"""Regression tests for BufferPool.read range validation and metrics.

The bug: ``read()`` validated only negative offsets/sizes, so a range
past EOF faulted pages one by one until the page file raised its own
error mid-loop — after the pool's statistics had already counted the
partial walk. The fix validates the whole range up front and raises a
:class:`BufferPoolError` with the stats untouched.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.storage import PAGE_SIZE, BufferPool, PageFile
from repro.storage.bufferpool import BufferPoolError


@pytest.fixture
def pool(tmp_path):
    with PageFile.create(tmp_path / "data.pf") as pagefile:
        pagefile.append(b"A" * PAGE_SIZE)
        pagefile.append(b"B" * PAGE_SIZE)
        yield BufferPool(pagefile, capacity_pages=2)


class TestReadBoundaries:
    def test_read_up_to_exact_page_edge(self, pool):
        assert pool.read(0, PAGE_SIZE) == b"A" * PAGE_SIZE

    def test_read_second_page_exactly(self, pool):
        assert pool.read(PAGE_SIZE, PAGE_SIZE) == b"B" * PAGE_SIZE

    def test_read_last_byte(self, pool):
        assert pool.read(2 * PAGE_SIZE - 1, 1) == b"B"

    def test_read_whole_file(self, pool):
        data = pool.read(0, 2 * PAGE_SIZE)
        assert len(data) == 2 * PAGE_SIZE

    def test_zero_size_read_at_eof(self, pool):
        assert pool.read(2 * PAGE_SIZE, 0) == b""

    def test_one_byte_past_end_raises(self, pool):
        with pytest.raises(BufferPoolError, match="past the file"):
            pool.read(2 * PAGE_SIZE - 1, 2)

    def test_offset_at_eof_with_size_raises(self, pool):
        with pytest.raises(BufferPoolError):
            pool.read(2 * PAGE_SIZE, 1)

    def test_failed_read_leaves_stats_untouched(self, pool):
        # Regression: the range is rejected before any page is fetched,
        # so an invalid request must not move hits/faults — previously
        # pages 0 and 1 were faulted in before page 2 blew up.
        with pytest.raises(BufferPoolError):
            pool.read(0, 3 * PAGE_SIZE)
        assert pool.stats.hits == 0
        assert pool.stats.faults == 0
        assert pool.resident_pages() == 0

    def test_negative_range_still_rejected(self, pool):
        with pytest.raises(BufferPoolError):
            pool.read(-1, 4)
        with pytest.raises(BufferPoolError):
            pool.read(0, -4)


class TestPublishMetrics:
    def test_counters_published_to_registry(self, pool):
        pool.read(0, PAGE_SIZE)
        pool.read(0, PAGE_SIZE)  # second pass hits the cached page
        registry = MetricsRegistry()
        pool.publish_metrics(registry)
        assert registry.get("bufferpool.hits") == 1
        assert registry.get("bufferpool.faults") == 1
        assert registry.get("bufferpool.evictions") == 0
        assert registry.get("pagefile.reads") == 1

    def test_defaults_to_process_registry(self, pool):
        from repro import obs

        before = obs.metrics.get("bufferpool.faults")
        pool.read(0, PAGE_SIZE)
        pool.publish_metrics()
        try:
            assert obs.metrics.get("bufferpool.faults") == before + 1
        finally:
            obs.metrics.reset()

    def test_republishing_adds_nothing(self, pool):
        # A draining server publishes the pool, then closing its store
        # publishes it again: the counts must reach the registry once.
        pool.read(0, PAGE_SIZE)
        registry = MetricsRegistry()
        for __ in range(3):
            pool.publish_metrics(registry)
        assert registry.get("bufferpool.faults") == pool.stats.faults == 1
        assert registry.get("bufferpool.bytes_read") == pool.stats.bytes_read
        assert registry.get("pagefile.reads") == 1

    def test_later_publish_adds_only_the_movement(self, pool):
        registry = MetricsRegistry()
        pool.read(0, PAGE_SIZE)
        pool.publish_metrics(registry)
        pool.read(0, PAGE_SIZE)
        pool.read(PAGE_SIZE, PAGE_SIZE)
        pool.publish_metrics(registry)
        assert registry.get("bufferpool.hits") == pool.stats.hits == 1
        assert registry.get("bufferpool.faults") == pool.stats.faults == 2
        assert registry.get("bufferpool.bytes_read") == 2 * PAGE_SIZE
        assert registry.get("pagefile.reads") == 2
