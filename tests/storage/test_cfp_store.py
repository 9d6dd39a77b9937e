"""Tests for CFP persistence and out-of-core mining."""

import pytest

from repro.core.cfp_growth import mine_array, mine_rank_transactions
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import CountCollector, ListCollector
from repro.storage import (
    DiskCfpArray,
    load_cfp_array,
    load_cfp_tree,
    save_cfp_array,
    save_cfp_tree,
)
from repro.storage.cfp_store import StorageFormatError
from repro.util.items import prepare_transactions
from tests.conftest import normalize, random_database


@pytest.fixture(scope="module")
def built():
    db = random_database(11, n_transactions=150, n_items=25, max_length=12)
    table, transactions = prepare_transactions(db, 3)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
    return table, transactions, tree, convert(tree)


class TestArrayRoundtrip:
    def test_load_equals_original(self, built, tmp_path):
        __, __, __, array = built
        path = tmp_path / "a.cfpa"
        size = save_cfp_array(array, path)
        assert size >= len(array.buffer)
        loaded = load_cfp_array(path)
        assert loaded.n_ranks == array.n_ranks
        assert loaded.starts == array.starts
        assert bytes(loaded.buffer) == bytes(array.buffer)

    def test_empty_array(self, tmp_path):
        array = convert(TernaryCfpTree(3))
        path = tmp_path / "empty.cfpa"
        save_cfp_array(array, path)
        loaded = load_cfp_array(path)
        assert loaded.node_count == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cfpa"
        path.write_bytes(b"NOPE" + bytes(4096 - 4))
        with pytest.raises(StorageFormatError):
            load_cfp_array(path)

    def test_large_index_spans_header_pages(self, tmp_path):
        # n_ranks large enough that the starts array exceeds one page.
        n_ranks = 1000
        tree = TernaryCfpTree(n_ranks)
        tree.insert([1, 500, 1000])
        array = convert(tree)
        path = tmp_path / "wide.cfpa"
        save_cfp_array(array, path)
        loaded = load_cfp_array(path)
        assert loaded.starts == array.starts
        assert bytes(loaded.buffer) == bytes(array.buffer)


class TestDiskCfpArray:
    def test_traversals_match_memory(self, built, tmp_path):
        __, __, __, array = built
        path = tmp_path / "a.cfpa"
        save_cfp_array(array, path)
        with DiskCfpArray(path, pool_pages=4) as disk:
            assert list(disk.active_ranks_descending()) == list(
                array.active_ranks_descending()
            )
            for rank in array.active_ranks_descending():
                assert disk.rank_support(rank) == array.rank_support(rank)
                disk_nodes = list(disk.iter_subarray(rank))
                mem_nodes = list(array.iter_subarray(rank))
                assert disk_nodes == mem_nodes
                for local, __, __, __ in mem_nodes:
                    assert disk.path_ranks(rank, local) == array.path_ranks(
                        rank, local
                    )

    def test_out_of_core_mining_matches(self, built, tmp_path):
        table, transactions, __, array = built
        path = tmp_path / "a.cfpa"
        save_cfp_array(array, path)
        in_memory = ListCollector()
        mine_array(array, 3, in_memory)
        with DiskCfpArray(path, pool_pages=2) as disk:
            on_disk = ListCollector()
            mine_array(disk, 3, on_disk)
        assert normalize(in_memory.itemsets) == normalize(on_disk.itemsets)

    def test_traced_mining_matches_untraced(self, built, tmp_path):
        # The traced mine loop reads the array's cache counters, which a
        # per-node reader must provide like every other CFP-array.
        from repro import obs
        from repro.obs.tracer import Tracer

        __, __, __, array = built
        path = tmp_path / "a.cfpa"
        save_cfp_array(array, path)
        untraced = ListCollector()
        with DiskCfpArray(path, pool_pages=2) as disk:
            mine_array(disk, 3, untraced)
        traced = ListCollector()
        previous = obs.set_tracer(Tracer())
        try:
            with DiskCfpArray(path, pool_pages=2) as disk:
                mine_array(disk, 3, traced)
        finally:
            obs.set_tracer(previous)
            obs.metrics.reset()
        assert traced.itemsets == untraced.itemsets

    def test_small_pool_faults_more(self, built, tmp_path):
        __, __, __, array = built
        path = tmp_path / "a.cfpa"
        save_cfp_array(array, path)
        faults = {}
        for pool_pages in (2, 64):
            with DiskCfpArray(path, pool_pages=pool_pages) as disk:
                mine_array(disk, 3, CountCollector())
                faults[pool_pages] = disk.pool.stats.faults
        assert faults[2] >= faults[64]
        assert faults[64] >= 1

    def test_memory_bytes_is_pool_plus_index(self, built, tmp_path):
        __, __, __, array = built
        path = tmp_path / "a.cfpa"
        save_cfp_array(array, path)
        with DiskCfpArray(path, pool_pages=8) as disk:
            assert disk.memory_bytes == 8 * 4096 + (disk.n_ranks + 1) * 5


class TestTreeCheckpoint:
    def test_roundtrip_preserves_logical_tree(self, built, tmp_path):
        __, __, tree, __ = built
        path = tmp_path / "t.cfpt"
        save_cfp_tree(tree, path)
        loaded = load_cfp_tree(path)
        assert loaded.node_count == tree.node_count
        assert loaded.transaction_count == tree.transaction_count
        original = sorted(tree.iter_nodes_with_parent())
        restored = sorted(loaded.iter_nodes_with_parent())
        assert original == restored

    def test_inserts_continue_after_restore(self, tmp_path):
        tree = TernaryCfpTree(6)
        tree.insert([1, 2, 3])
        tree.insert([1, 4])
        path = tmp_path / "t.cfpt"
        save_cfp_tree(tree, path)
        loaded = load_cfp_tree(path)
        loaded.insert([1, 2, 5])
        loaded.insert([6])
        reference = TernaryCfpTree(6)
        for ranks in ([1, 2, 3], [1, 4], [1, 2, 5], [6]):
            reference.insert(ranks)
        assert sorted(loaded.iter_nodes_with_parent()) == sorted(
            reference.iter_nodes_with_parent()
        )

    def test_checkpointed_build_mines_identically(self, tmp_path):
        db = random_database(5, n_transactions=80, n_items=15, max_length=9)
        table, transactions = prepare_transactions(db, 2)
        half = len(transactions) // 2
        tree = TernaryCfpTree.from_rank_transactions(transactions[:half], len(table))
        path = tmp_path / "t.cfpt"
        save_cfp_tree(tree, path)
        resumed = load_cfp_tree(path)
        for ranks in transactions[half:]:
            resumed.insert(ranks)
        resumed_count = CountCollector()
        array = convert(resumed)
        mine_array(array, 2, resumed_count)
        direct = mine_rank_transactions(transactions, len(table), 2, CountCollector())
        assert resumed_count.count == direct.count

    def test_config_preserved(self, tmp_path):
        tree = TernaryCfpTree(4, enable_chains=False, max_chain_length=3)
        tree.insert([1, 2, 3])
        path = tmp_path / "t.cfpt"
        save_cfp_tree(tree, path)
        loaded = load_cfp_tree(path)
        assert not loaded.enable_chains
        assert loaded.max_chain_length == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cfpt"
        path.write_bytes(b"XXXX" + bytes(4096 - 4))
        with pytest.raises(StorageFormatError):
            load_cfp_tree(path)

    def test_free_queues_survive(self, tmp_path):
        # Force frees (via promotions/resizes), checkpoint, and verify the
        # allocator reuses freed chunks after restore.
        tree = TernaryCfpTree(10)
        for ranks in ([1], [1, 2], [1, 2, 3], [2], [2, 3]):
            tree.insert(ranks)
        path = tmp_path / "t.cfpt"
        save_cfp_tree(tree, path)
        loaded = load_cfp_tree(path)
        assert loaded.arena.stats().free_bytes == tree.arena.stats().free_bytes
        loaded.insert([5, 6, 7])
        assert loaded.to_logical().node_count == loaded.node_count
