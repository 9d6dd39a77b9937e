"""Tests for direct support queries (paper §2.1's example)."""

import os
import tempfile
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cfp_array import CfpArray
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET, mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import CorruptBufferError, TreeError
from repro.fptree.growth import CountCollector
from repro.fptree.tree import FPTree
from repro.serving import ServingStore, build_store
from repro.storage import (
    PartitionedCfpArray,
    save_cfp_array,
    save_cfp_array_partitioned,
)
from repro.util.items import prepare_transactions
from repro.util.queries import (
    itemset_support,
    support_in_cfp_array,
    support_in_fp_tree,
)
from tests.conftest import (
    db_strategy,
    encoded_triple,
    hand_built_array,
    random_database,
)


def build(database, min_support=1):
    table, transactions = prepare_transactions(database, min_support)
    fp = FPTree.from_rank_transactions(transactions, len(table))
    array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
    return table, fp, array


class TestPaperExample:
    DB = [
        [1, 2, 3],
        [1, 2, 4],
        [1, 3, 4],
        [2, 3, 4],
        [3, 4],
        [1, 2, 3, 4],
    ]

    def test_pairwise_supports(self):
        table, fp, array = build(self.DB)
        # §2.1: support of {3, 4} = sum over prefixes containing both.
        expected = sum(1 for t in self.DB if {3, 4} <= set(t))
        assert itemset_support(fp, table, [3, 4]) == expected
        assert itemset_support(array, table, [3, 4]) == expected

    def test_single_item(self):
        table, fp, array = build(self.DB)
        assert itemset_support(fp, table, [3]) == 5
        assert itemset_support(array, table, [3]) == 5

    def test_unknown_item_is_zero(self):
        table, fp, array = build(self.DB)
        assert itemset_support(fp, table, [99]) == 0
        assert itemset_support(array, table, [3, 99]) == 0

    def test_empty_rejected(self):
        table, fp, array = build(self.DB)
        with pytest.raises(TreeError):
            support_in_fp_tree(fp, [])
        with pytest.raises(TreeError):
            support_in_cfp_array(array, [])


def support_per_node_reference(array, ranks):
    """The pre-columnar implementation of ``support_in_cfp_array``.

    Per-node sideward scan plus one full ``path_ranks`` backward walk per
    node — kept verbatim as the parity reference (the real implementation
    decodes the scanned subarray as columns and stops each walk early,
    and INV008 forbids this shape in ``repro.util.queries``).
    """
    wanted = sorted(set(ranks))
    if wanted[0] < 1 or wanted[-1] > array.n_ranks:
        return 0
    least = wanted[-1]
    others = set(wanted[:-1])
    support = 0
    for local, __, __, count in array.iter_subarray(least):
        if not others:
            support += count
        elif others <= set(array.path_ranks(least, local)):
            support += count
    return support


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        db_strategy,
        st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
    )
    def test_both_structures_agree_with_counting(self, database, items):
        table, fp, array = build(database)
        expected = sum(1 for t in database if items <= set(t))
        assert itemset_support(fp, table, items) == expected
        assert itemset_support(array, table, items) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        db_strategy,
        st.sets(st.integers(min_value=-2, max_value=12), min_size=1, max_size=5),
    )
    def test_columnar_port_matches_per_node_walk(self, database, ranks):
        """The columnar query is count-identical to the old per-node walk."""
        table, __, array = build(database)
        if not table:
            return
        # Exercise out-of-range ranks too: both paths must agree on 0.
        assert support_in_cfp_array(array, ranks) == support_per_node_reference(
            array, ranks
        )

    @settings(max_examples=20, deadline=None)
    @given(
        db_strategy,
        st.sets(st.integers(min_value=1, max_value=8), min_size=2, max_size=4),
    )
    def test_columnar_port_matches_with_cache_enabled(self, database, ranks):
        """The cache (on, then warm) changes nothing about the counts."""
        table, __, array = build(database)
        if not table:
            return
        array.set_cache_budget(1 << 16)
        first = support_in_cfp_array(array, ranks)
        # Repeat: served from the memo/cache, must still agree.
        assert support_in_cfp_array(array, ranks) == first
        assert first == support_per_node_reference(array, ranks)


#: Itemsets of one to four ranks, out-of-range ranks (0, -1, past the
#: last rank) included.
rank_itemsets = st.lists(
    st.sets(st.integers(min_value=-1, max_value=12), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


def _counted(transactions, ranks) -> int:
    wanted = set(ranks)
    return sum(1 for transaction in transactions if wanted <= set(transaction))


def _memo(reader) -> dict:
    return dict(reader._path_memo or {})


def _paged_readers(array, workdir: str, stack: ExitStack):
    """Every paged reader of ``array``: v2 and v3 files, pools, caches."""
    paths = [os.path.join(workdir, "v2.cfpa")]
    save_cfp_array(array, paths[0])
    for partition_bytes in (8, 32, 128):
        paths.append(os.path.join(workdir, f"v3-{partition_bytes}.cfpa"))
        save_cfp_array_partitioned(array, paths[-1], partition_bytes=partition_bytes)
    readers = []
    for path in paths:
        for pool_pages in (2, 64):
            for cache_budget in (0, DEFAULT_CACHE_BUDGET):
                readers.append(
                    stack.enter_context(
                        PartitionedCfpArray(path, pool_pages, cache_budget)
                    )
                )
    return readers


class TestEveryReader:
    """Every reader answers what counting the transactions answers."""

    def _check(self, reader, transactions, itemsets) -> None:
        memo = _memo(reader)
        for ranks in itemsets:
            expected = _counted(transactions, ranks)
            assert support_in_cfp_array(reader, ranks) == expected, (reader, ranks)
            assert support_per_node_reference(reader, ranks) == expected
        # A query reads the path memo but never writes it.
        assert _memo(reader) == memo

    @settings(max_examples=25, deadline=None)
    @given(db_strategy, st.integers(min_value=1, max_value=3), rank_itemsets)
    def test_every_reader_agrees_with_counting(self, database, min_support, itemsets):
        table, transactions = prepare_transactions(database, min_support)
        if not table:
            return
        array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
        cached = CfpArray(
            array.n_ranks, array.buffer, array.starts, cache_budget=DEFAULT_CACHE_BUDGET
        )
        with tempfile.TemporaryDirectory() as workdir, ExitStack() as stack:
            readers = [array, cached, *_paged_readers(array, workdir, stack)]
            for reader in readers:
                self._check(reader, transactions, itemsets)
            for reader in readers:
                if not reader.cache_budget:
                    continue
                # Part of the path memo, then all of it (the index mine).
                for rank in list(reader.active_ranks_descending())[::2]:
                    reader.prefix_paths(rank)
                self._check(reader, transactions, itemsets)
                if isinstance(reader, PartitionedCfpArray):
                    mine_array(reader, 1, CountCollector())
                    assert reader.known_paths(1, [0]) is not None
                    self._check(reader, transactions, itemsets)

    @settings(max_examples=15, deadline=None)
    @given(
        db_strategy,
        st.lists(
            st.sets(st.integers(min_value=0, max_value=10), min_size=1, max_size=4),
            min_size=1,
            max_size=6,
        ),
    )
    def test_serving_store_in_item_vocabulary(self, database, itemsets):
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "store.cfpa")
            build_store(database, 2, path)
            with ServingStore(path) as store:
                expected = [
                    _counted(database, items)
                    if all(item in store.table.rank_of for item in items)
                    else 0
                    for items in itemsets
                ]
                assert [store.support(items) for items in itemsets] == expected
                # The pattern index fills the path memo; answers stay.
                store.top_k(1)
                assert [store.support(items) for items in itemsets] == expected


class TestReadsOnlyWhatItNeeds:
    DATABASE = random_database(23, 200, 30, 18)

    def _store(self, tmp_path):
        table, transactions = prepare_transactions(self.DATABASE, 2)
        array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
        path = tmp_path / "array.cfpa"
        save_cfp_array_partitioned(array, path, partition_bytes=256)
        # Deep walks: each query joins a transaction's top and bottom ranks.
        queries = [
            [transaction[0], transaction[len(transaction) // 2], transaction[-1]]
            for transaction in transactions
            if len(transaction) >= 3
        ][:20]
        return path, transactions, queries

    def test_a_cold_query_decodes_one_subarray(self, tmp_path):
        path, transactions, queries = self._store(tmp_path)
        for ranks in queries:
            with PartitionedCfpArray(path, cache_budget=DEFAULT_CACHE_BUDGET) as reader:
                assert support_in_cfp_array(reader, ranks) == _counted(
                    transactions, ranks
                )
                assert reader.cache_counts()["misses"] == 1
                assert reader._path_memo is None

    def test_a_memoized_store_reads_no_ancestor_bytes(self, tmp_path, monkeypatch):
        path, transactions, queries = self._store(tmp_path)
        with PartitionedCfpArray(path, cache_budget=DEFAULT_CACHE_BUDGET) as reader:
            mine_array(reader, 2, CountCollector())

            def no_walk(rank):
                raise AssertionError(f"walked into rank {rank}")

            monkeypatch.setattr(reader, "encoded_subarray", no_walk)
            for ranks in queries:
                assert support_in_cfp_array(reader, ranks) == _counted(
                    transactions, ranks
                )


def _raises_like_prefix_paths(array, ranks, match: str) -> None:
    """Support fails as ``prefix_paths`` does, cache off and on."""
    cached = CfpArray(array.n_ranks, array.buffer, array.starts, cache_budget=1 << 16)
    for reader in (array, cached):
        errors = []
        for resolve in (
            lambda: reader.prefix_paths(max(ranks)),
            lambda: support_in_cfp_array(reader, ranks),
        ):
            with pytest.raises((TreeError, CorruptBufferError), match=match) as info:
                resolve()
            errors.append(type(info.value))
        assert errors[0] is errors[1]


class TestCorruptArrays:
    """A walk that reaches a corrupt node raises, as ``prefix_paths`` does."""

    @pytest.mark.parametrize("delta_item", [0, 3])
    def test_delta_item_that_does_not_climb(self, delta_item):
        array = hand_built_array(
            2, {1: [encoded_triple(1, 0, 2)], 2: [encoded_triple(delta_item, 0, 1)]}
        )
        _raises_like_prefix_paths(array, [1, 2], "not a lower rank")

    @pytest.mark.parametrize("dpos", [-1, -4, 1, -30])
    def test_dpos_that_misses_a_node_start(self, dpos):
        # Rank 2's node points mid-node, past the end or before the start
        # of rank 1's subarray (nodes at locals 0 and 3).
        array = hand_built_array(
            2,
            {
                1: [encoded_triple(1, 0, 2), encoded_triple(1, 0, 1)],
                2: [encoded_triple(1, dpos, 1)],
            },
        )
        _raises_like_prefix_paths(array, [1, 2], "not a node start")

    @pytest.mark.parametrize("ranks", [[2, 3], [1, 3]])
    def test_parent_in_an_empty_subarray(self, ranks):
        array = hand_built_array(
            3, {1: [encoded_triple(1, 0, 1)], 3: [encoded_triple(1, 0, 1)]}
        )
        _raises_like_prefix_paths(array, ranks, "not a node start")

    @pytest.mark.parametrize(
        "subarrays",
        [
            # The scanned rank's count runs past its subarray's end.
            {1: [encoded_triple(1, 0, 1)], 2: [bytes([1, 0, 0x80])]},
            # An ancestor's dpos, then only its count, is cut short.
            {1: [bytes([1, 0x80])], 2: [encoded_triple(1, 0, 1)]},
            {1: [bytes([1, 0, 0x80])], 2: [encoded_triple(1, 0, 1)]},
        ],
    )
    def test_truncated_varint(self, subarrays):
        _raises_like_prefix_paths(hand_built_array(2, subarrays), [1, 2], "truncated")

    @given(
        seed=st.integers(min_value=0, max_value=50),
        position=st.integers(min_value=0, max_value=10_000),
        value=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=80, deadline=None)
    def test_corrupt_bytes_never_give_a_wrong_count(self, seed, position, value):
        table, transactions = prepare_transactions(random_database(seed), 2)
        array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
        buffer = bytearray(array.buffer)
        if not buffer:
            return
        buffer[position % len(buffer)] = value
        corrupt = CfpArray(array.n_ranks, bytes(buffer), array.starts)
        for ranks in [t for t in transactions if len(t) >= 2][:8]:
            try:
                reference = sum(
                    count
                    for path, count in corrupt.prefix_paths(ranks[-1])
                    if set(ranks[:-1]) <= set(path)
                )
            except (TreeError, CorruptBufferError):
                reference = None
            try:
                answer = support_in_cfp_array(corrupt, ranks)
            except (TreeError, CorruptBufferError):
                answer = None
            # Where every subarray the reference decodes is sound, the
            # walk reads sound bytes too and must count the same.
            if reference is not None:
                assert answer == reference
