"""Partitioned (v3) store format: round trip, placement, corruption, mining."""

from __future__ import annotations

import random

import pytest

from repro.core.cfp_growth import mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import ListCollector
from repro.storage import (
    PAGE_SIZE,
    DiskCfpArray,
    PageFile,
    PartitionedCfpArray,
    RoundRobinPlacement,
    load_cfp_array,
    plan_partitions,
    save_cfp_array,
    save_cfp_array_partitioned,
)
from repro.storage.cfp_store import StorageFormatError, read_array_header
from repro.util.items import prepare_transactions

MIN_SUPPORT = 3

#: One way to store an array per file format a reader must open.
SAVERS = {
    "v2": save_cfp_array,
    "v3": lambda array, path: save_cfp_array_partitioned(
        array, path, partition_bytes=1024
    ),
    "v3-round-robin": lambda array, path: save_cfp_array_partitioned(
        array, path, partition_bytes=1024, placement=RoundRobinPlacement(3)
    ),
}


def _build_array(seed=7, n_transactions=700, n_items=50):
    rng = random.Random(seed)
    database = [
        rng.sample(range(n_items), rng.randint(3, 10))
        for __ in range(n_transactions)
    ]
    table, transactions = prepare_transactions(database, 2)
    return convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))


@pytest.fixture(scope="module")
def array():
    return _build_array()


class TestPlanPartitions:
    def test_covers_all_ranks_contiguously(self, array):
        for target in (256, PAGE_SIZE, 1 << 20):
            ranges = plan_partitions(array.starts, array.n_ranks, target)
            assert ranges[0][0] == 1
            assert ranges[-1][1] == array.n_ranks
            for (___, prev_last), (first, ___) in zip(ranges, ranges[1:]):
                assert first == prev_last + 1

    def test_big_target_is_one_partition(self, array):
        ranges = plan_partitions(array.starts, array.n_ranks, 1 << 30)
        assert ranges == [(1, array.n_ranks)]


class TestRoundTrip:
    def test_load_reassembles_identical_array(self, array, tmp_path):
        path = tmp_path / "p.cfpa"
        for target in (512, PAGE_SIZE, 8 * PAGE_SIZE):
            save_cfp_array_partitioned(array, path, partition_bytes=target)
            loaded = load_cfp_array(path)
            assert bytes(loaded.buffer) == bytes(array.buffer)
            assert loaded.starts == array.starts
            assert loaded.n_ranks == array.n_ranks

    def test_placement_changes_layout_not_content(self, array, tmp_path):
        append_path = tmp_path / "append.cfpa"
        rotated_path = tmp_path / "rotated.cfpa"
        save_cfp_array_partitioned(array, append_path, partition_bytes=512)
        save_cfp_array_partitioned(
            array,
            rotated_path,
            partition_bytes=512,
            placement=RoundRobinPlacement(3),
        )
        with PageFile.open_readonly(append_path) as a, PageFile.open_readonly(
            rotated_path
        ) as b:
            parts_a = read_array_header(a).partitions
            parts_b = read_array_header(b).partitions
        # Same logical manifest (rank ranges, sizes, CRCs) ...
        assert [(p.first_rank, p.last_rank, p.byte_len, p.crc) for p in parts_a] == [
            (p.first_rank, p.last_rank, p.byte_len, p.crc) for p in parts_b
        ]
        # ... different physical file order ...
        assert [p.data_page for p in parts_a] != [p.data_page for p in parts_b]
        # ... and identical reassembled content either way.
        assert bytes(load_cfp_array(append_path).buffer) == bytes(
            load_cfp_array(rotated_path).buffer
        )

    def test_empty_array_round_trips(self, tmp_path):
        table, transactions = prepare_transactions([[1], [2]], 99)
        empty = convert(
            TernaryCfpTree.from_rank_transactions(transactions, len(table))
        )
        path = tmp_path / "empty.cfpa"
        save_cfp_array_partitioned(empty, path)
        loaded = load_cfp_array(path)
        assert bytes(loaded.buffer) == bytes(empty.buffer)


class TestCorruption:
    """storecheck must name what broke: STO006 manifest, STO011 payload."""

    def _flip_byte(self, path, offset):
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_partition_payload_corruption_is_sto011(self, array, tmp_path):
        from repro.analysis import check_file

        path = tmp_path / "corrupt.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=PAGE_SIZE)
        with PageFile.open_readonly(path) as pagefile:
            part = read_array_header(pagefile).partitions[1]
        self._flip_byte(path, part.data_page * PAGE_SIZE + 1)
        report = check_file(path, deep=True)
        assert not report.ok
        codes = {diag.code for diag in report.diagnostics}
        assert "STO011" in codes or "STO004" in codes  # CRC or page checksum

    def test_manifest_corruption_is_sto006(self, array, tmp_path):
        from repro.analysis import check_file
        from repro.storage.cfp_store import _PARTITION_RECORD

        path = tmp_path / "badmanifest.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=PAGE_SIZE)
        # Overwrite partition 0's first_rank in the manifest with a rank
        # that breaks contiguous coverage, then re-seal the page checksum
        # so only the *semantic* check can catch it.
        manifest_offset = 28 + 8 * (array.n_ranks + 2)
        with open(path, "r+b") as handle:
            handle.seek(manifest_offset)
            record = bytearray(handle.read(_PARTITION_RECORD.size))
            first, last, length, page, crc = _PARTITION_RECORD.unpack(bytes(record))
            handle.seek(manifest_offset)
            handle.write(_PARTITION_RECORD.pack(first + 1, last, length, page, crc))
        _reseal_page_checksum(path, page_no=0)
        report = check_file(path, deep=False)
        assert not report.ok
        assert "STO006" in {diag.code for diag in report.diagnostics}

    def test_loader_rejects_corrupt_partition(self, array, tmp_path):
        path = tmp_path / "c.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=PAGE_SIZE)
        with PageFile.open_readonly(path) as pagefile:
            part = read_array_header(pagefile).partitions[0]
        self._flip_byte(path, part.data_page * PAGE_SIZE)
        with pytest.raises(StorageFormatError):
            load_cfp_array(path)


def _reseal_page_checksum(path, page_no):
    """Recompute the trailer checksum of one content page after tampering."""
    import struct
    import zlib

    from repro.storage.cfp_store import CHECKSUM_SIZE

    with open(path, "r+b") as handle:
        size = handle.seek(0, 2)
        n_pages = size // PAGE_SIZE
        handle.seek(page_no * PAGE_SIZE)
        page = handle.read(PAGE_SIZE)
        # The trailer occupies the final page(s): content checksums are
        # CHECKSUM_SIZE-byte records starting at the first trailer page.
        content_pages = n_pages - max(
            1, -(-(n_pages - 1) * CHECKSUM_SIZE // PAGE_SIZE)
        )
        trailer_start = content_pages * PAGE_SIZE
        handle.seek(trailer_start + page_no * CHECKSUM_SIZE)
        handle.write(struct.pack("<I", zlib.crc32(page) & 0xFFFFFFFF))


class TestPartitionedMining:
    def test_itemsets_identical_to_in_core(self, array, tmp_path):
        reference = ListCollector()
        mine_array(array, MIN_SUPPORT, reference)
        path = tmp_path / "mine.cfpa"
        for target, hot, pool_pages in (
            (PAGE_SIZE, 0, 2),
            (2 * PAGE_SIZE, 1 << 12, 4),
            (1 << 20, 1 << 16, 64),
        ):
            save_cfp_array_partitioned(array, path, partition_bytes=target)
            with PartitionedCfpArray(
                path, pool_pages=pool_pages, hot_bytes=hot
            ) as disk:
                got = ListCollector()
                mine_array(disk, MIN_SUPPORT, got)
            assert got.itemsets == reference.itemsets, (target, hot)

    def test_mining_with_prefetch_disabled_is_identical(
        self, array, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PREFETCH", "0")
        reference = ListCollector()
        mine_array(array, MIN_SUPPORT, reference)
        path = tmp_path / "nopf.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=PAGE_SIZE)
        with PartitionedCfpArray(path, pool_pages=2) as disk:
            assert disk._prefetcher is None
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
        assert got.itemsets == reference.itemsets

    def test_faults_bounded_by_one_read_per_page_per_partition(
        self, array, tmp_path
    ):
        # Each partition is projected in one sweep down the ranks, so
        # mining partition p faults each page of partitions 0..p at most
        # once. Read-ahead is off because its inserts can evict a demand
        # page, and partitions of one page each keep every subarray inside
        # a single page (a subarray straddling two pages can be faulted
        # twice in a two-page pool).
        reference = ListCollector()
        mine_array(array, MIN_SUPPORT, reference)
        path = tmp_path / "bound.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=1024)
        with PartitionedCfpArray(path, pool_pages=2, prefetch=False) as disk:
            parts = disk.partitions
            assert len(parts) > 2 and all(part.pages == 1 for part in parts)
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
            faults = disk.pool.stats.faults
        bound = sum(
            sum(lower.pages for lower in parts[: part.index + 1]) for part in parts
        )
        assert got.itemsets == reference.itemsets
        assert 0 < faults <= bound, (faults, bound)

    def test_traversal_interface_matches_in_core(self, array, tmp_path):
        path = tmp_path / "iface.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=PAGE_SIZE)
        with PartitionedCfpArray(path, pool_pages=4, hot_bytes=512) as disk:
            assert disk.node_count == array.node_count
            for rank in array.active_ranks_descending():
                assert (
                    disk.subarray_columns(rank).triples
                    == array.subarray_columns(rank).triples
                )
                assert disk.rank_support(rank) == array.rank_support(rank)
            local = array.starts[2] - array.starts[1]
            if local:
                assert disk.path_ranks(1, 0) == array.path_ranks(1, 0)

    def test_hot_set_pins_most_frequent_ranks(self, array, tmp_path):
        path = tmp_path / "hot.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=PAGE_SIZE)
        with PartitionedCfpArray(path, pool_pages=4, hot_bytes=1 << 14) as disk:
            assert disk.hot_ranks > 0
            # Hot ranks are a prefix of the frequency order.
            hot = sorted(disk._hot)
            nonempty_prefix = [
                rank
                for rank in range(1, array.n_ranks + 1)
                if array.starts[rank + 1] > array.starts[rank]
            ][: len(hot)]
            assert hot == nonempty_prefix
            assert disk.memory_bytes >= disk.hot_bytes

    @pytest.mark.parametrize("fmt", sorted(SAVERS))
    @pytest.mark.parametrize(
        "reader",
        [
            pytest.param(PartitionedCfpArray, id="paged-mine_array"),
            pytest.param(DiskCfpArray, id="per-node-mine_array"),
        ],
    )
    def test_every_reader_mines_every_format(self, array, tmp_path, fmt, reader):
        # v3 partitions are page-padded and may be stored out of rank
        # order, so no reader may treat the payload as one buffer; a
        # v1/v2 file is read as a single partition, hot set included.
        reference = ListCollector()
        mine_array(array, MIN_SUPPORT, reference)
        path = tmp_path / f"{fmt}.cfpa"
        SAVERS[fmt](array, path)
        with reader(path, pool_pages=4, hot_bytes=1 << 12) as disk:
            assert disk.hot_ranks > 0
            if fmt == "v2":
                assert len(disk.partitions) == 1
                assert disk._prefetcher is None
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
        assert got.itemsets == reference.itemsets

    def test_per_node_reader_is_never_projected(self, array, tmp_path, monkeypatch):
        # The per-node walks are what the out-of-core experiment counts, so
        # mine_array must mine DiskCfpArray rank by rank through them: no
        # projection sweep and no bulk subarray decode.
        reference = ListCollector()
        mine_array(array, MIN_SUPPORT, reference)
        path = tmp_path / "per-node.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=1024)

        def forbidden(*args, **kwargs):
            raise AssertionError("DiskCfpArray left its per-node walks")

        with DiskCfpArray(path, pool_pages=4) as disk:
            assert len(disk.partitions) > 1
            monkeypatch.setattr(disk, "project", forbidden)
            monkeypatch.setattr(disk, "subarray_columns", forbidden)
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
        assert got.itemsets == reference.itemsets


class TestCompaction:
    def test_compact_shrinks_and_preserves_mining(self, array, tmp_path):
        from repro.storage.compaction import compact_store, store_fragmentation

        path = tmp_path / "frag.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=256)
        frag_before, parts_before = store_fragmentation(path)
        reference = ListCollector()
        mine_array(array, MIN_SUPPORT, reference)
        report = compact_store(path, partition_bytes=64 * PAGE_SIZE, threshold=0.1)
        assert report.ran
        frag_after, parts_after = store_fragmentation(path)
        assert frag_after < frag_before
        assert parts_after < parts_before
        with PartitionedCfpArray(path, pool_pages=4) as disk:
            got = ListCollector()
            mine_array(disk, MIN_SUPPORT, got)
        assert got.itemsets == reference.itemsets

    def test_compaction_converges(self, array, tmp_path):
        from repro.storage.compaction import compact_store

        path = tmp_path / "conv.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=256)
        first = compact_store(path, partition_bytes=64 * PAGE_SIZE, threshold=0.05)
        assert first.ran
        # Even with a threshold below the intrinsic page-padding slack, a
        # second pass must be a no-op: re-planning cannot shrink further.
        second = compact_store(path, partition_bytes=64 * PAGE_SIZE, threshold=0.05)
        assert not second.ran
