"""Tests for the CFP-array and the CFP-tree -> CFP-array conversion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import varint
from repro.core.cfp_array import CfpArray
from repro.core.conversion import Layout, convert, cumulative_counts, splice_subtree
from repro.core.ternary import TernaryCfpTree
from repro.errors import TreeError, ValueOutOfRangeError
from repro.fptree import FPTree
from repro.util.items import prepare_transactions
from tests.conftest import db_strategy, random_database


def build(database, min_support=2, **options):
    table, transactions = prepare_transactions(database, min_support)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table), **options)
    fp = FPTree.from_rank_transactions(transactions, len(table))
    return table, tree, fp, convert(tree)


class TestConversionStructure:
    def test_empty_tree(self):
        array = convert(TernaryCfpTree(3))
        assert array.node_count == 0
        assert len(array.buffer) == 0
        assert list(array.active_ranks_descending()) == []

    def test_node_counts_match(self, small_db):
        __, tree, fp, array = build(small_db)
        assert array.node_count == tree.node_count == fp.node_count

    def test_paper_figure5_shape(self):
        # Figure 5's FP-tree: items 2, 3 with three subarrays' worth of
        # structure; verify subarray clustering and the no-parent marker.
        tree = TernaryCfpTree(3)
        tree.insert([1, 2, 3], count=3)
        tree.insert([1, 2], count=2)
        tree.insert([2, 3], count=4)
        tree.insert([3], count=1)
        array = convert(tree)
        # Subarrays: rank1 -> 1 node, rank2 -> 2 nodes, rank3 -> 3 nodes.
        assert len(list(array.iter_subarray(1))) == 1
        assert len(list(array.iter_subarray(2))) == 2
        assert len(list(array.iter_subarray(3))) == 3
        # A root child has delta_item == its rank.
        __, delta, __, count = next(iter(array.iter_subarray(1)))
        assert delta == 1
        assert count == 5

    def test_counts_are_cumulative(self):
        tree = TernaryCfpTree(2)
        tree.insert([1], count=3)
        tree.insert([1, 2], count=2)
        array = convert(tree)
        __, __, __, count1 = next(iter(array.iter_subarray(1)))
        assert count1 == 5  # 3 + 2: cumulative, not the pcount 3.

    def test_cumulative_counts_helper(self):
        tree = TernaryCfpTree(3)
        tree.insert([1, 2])
        tree.insert([1, 2, 3])
        tree.insert([1])
        counts = cumulative_counts(tree)
        # DFS preorder: rank1 (count 3), rank2 (count 2), rank3 (count 1).
        assert counts == [3, 2, 1]


class TestSpliceSubtree:
    """The placement pass: triples appended to their ranks' subarrays."""

    @staticmethod
    def _expected(ranks, parents, counts, subarrays):
        # The two-pass walk it replaces: size each node at its rank's
        # cursor, then encode the queued triples.
        cursors = [len(subarray) for subarray in subarrays]
        locals_ = []
        triples = [[] for __ in subarrays]
        for rank, parent, count in zip(ranks, parents, counts):
            local = cursors[rank]
            locals_.append(local)
            if parent < 0:
                triple = (rank, 0, count)
            else:
                triple = (rank - ranks[parent], local - locals_[parent], count)
            cursors[rank] += varint.triple_size(*triple)
            triples[rank].append(triple)
        out = []
        for subarray, queued in zip(subarrays, triples):
            buf = bytearray(sum(varint.triple_size(*t) for t in queued))
            varint.encode_triples(buf, 0, queued)
            out.append(bytes(subarray) + bytes(buf))
        return out

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.sampled_from([1, 127, 128, 4095, 4096, 1 << 20, 1 << 40]),
            ),
            min_size=1,
            max_size=25,
        ),
        st.randoms(use_true_random=False),
    )
    def test_matches_two_pass_walk(self, steps, rng):
        # A random preorder: each node hangs under an earlier node of a
        # lower rank (or under the root), with counts of every width.
        ranks, parents, counts = [], [], []
        for rank, count in steps:
            lower = [i for i, r in enumerate(ranks) if r < rank]
            parents.append(rng.choice(lower + [-1]) if lower else -1)
            ranks.append(rank)
            counts.append(count)
        layout = Layout(6)
        layout.subarrays = [bytearray(b"\x01\x00\x01" * (r % 3)) for r in range(7)]
        want = self._expected(ranks, parents, counts, layout.subarrays)
        splice_subtree(layout, ranks, parents, counts)
        assert [bytes(subarray) for subarray in layout.subarrays] == want
        assert layout.nodes == len(ranks)

    def test_out_of_range_fields_raise(self):
        with pytest.raises(ValueOutOfRangeError):
            splice_subtree(Layout(2), [2], [-1], [varint.MAX_VALUE + 1])
        with pytest.raises(ValueOutOfRangeError):
            splice_subtree(Layout(2), [1, 2, 1], [-1, 0, 1], [3, 2, 1])


class TestBackwardTraversal:
    def test_paths_match_fp_tree(self, small_db):
        __, tree, fp, array = build(small_db)
        for rank in range(1, array.n_ranks + 1):
            fp_paths = sorted(
                (tuple(p), c) for p, c in fp.prefix_paths(rank)
            )
            array_paths = sorted(
                (tuple(array.path_ranks(rank, local)), count)
                for local, __, __, count in array.iter_subarray(rank)
            )
            assert array_paths == fp_paths

    @settings(max_examples=40, deadline=None)
    @given(db_strategy)
    def test_paths_match_property(self, database):
        __, tree, fp, array = build(database, 1)
        for rank in range(1, array.n_ranks + 1):
            fp_paths = sorted((tuple(p), c) for p, c in fp.prefix_paths(rank))
            array_paths = sorted(
                (tuple(array.path_ranks(rank, local)), count)
                for local, __, __, count in array.iter_subarray(rank)
            )
            assert array_paths == fp_paths

    def test_rank_support_matches(self, small_db):
        table, tree, fp, array = build(small_db)
        for rank in range(1, array.n_ranks + 1):
            assert array.rank_support(rank) == fp.rank_count(rank)
            assert array.rank_support(rank) == table.rank_supports[rank]


class TestItemIndex:
    def test_starts_monotonic(self, small_db):
        __, __, __, array = build(small_db)
        assert array.starts[1] == 0
        for rank in range(1, array.n_ranks + 1):
            assert array.starts[rank] <= array.starts[rank + 1]
        assert array.starts[-1] == len(array.buffer)

    def test_item_of_position(self, small_db):
        __, __, __, array = build(small_db)
        for rank in range(1, array.n_ranks + 1):
            for local, __, __, __ in array.iter_subarray(rank):
                assert array.item_of_position(array.starts[rank] + local) == rank

    def test_item_of_position_bounds(self, small_db):
        __, __, __, array = build(small_db)
        with pytest.raises(TreeError):
            array.item_of_position(len(array.buffer))
        with pytest.raises(TreeError):
            array.item_of_position(-1)

    def test_constructor_validation(self):
        with pytest.raises(TreeError):
            CfpArray(2, bytearray(4), [0, 0, 4])  # wrong index length
        with pytest.raises(TreeError):
            CfpArray(1, bytearray(4), [0, 0, 3])  # does not span buffer


class TestNodeAt:
    def test_node_at_decodes_triple(self):
        tree = TernaryCfpTree(2)
        tree.insert([1, 2], count=7)
        array = convert(tree)
        local, delta, dpos, count = next(iter(array.iter_subarray(2)))
        assert array.node_at(2, local) == (delta, dpos, count)

    def test_node_at_validates(self, small_db):
        __, __, __, array = build(small_db)
        with pytest.raises(TreeError):
            array.node_at(1, 10_000)
        with pytest.raises(TreeError):
            array.node_at(0, 0)


class TestDposEncoding:
    def test_negative_dpos_roundtrip(self):
        # Construct a shape where a child's subarray is shorter than the
        # parent's at link time: many rank-1 and rank-2 nodes first, then a
        # rank-3 child of a late rank-2 parent.
        tree = TernaryCfpTree(3)
        tree.insert([2])
        tree.insert([1, 2])
        tree.insert([1, 2, 3])
        array = convert(tree)
        # Whatever the sign of dpos, backward traversal must find parents.
        for rank in (2, 3):
            for local, __, __, count in array.iter_subarray(rank):
                path = array.path_ranks(rank, local)
                assert all(r < rank for r in path)

    @given(db_strategy)
    def test_dpos_zigzag_consistency(self, database):
        __, __, __, array = build(database, 1)
        buf = array.buffer
        for rank in range(1, array.n_ranks + 1):
            for local, delta, dpos, __ in array.iter_subarray(rank):
                offset = array.starts[rank] + local
                __, offset = varint.decode_from(buf, offset)
                raw, __ = varint.decode_from(buf, offset)
                assert varint.unzigzag(raw) == dpos


class TestMemoryAccounting:
    def test_average_node_size_under_baseline(self):
        db = random_database(1, n_transactions=300, n_items=40, max_length=15)
        __, __, __, array = build(db)
        assert 3.0 <= array.average_node_size() < 40

    def test_memory_includes_index(self, small_db):
        __, __, __, array = build(small_db)
        assert array.memory_bytes == len(array.buffer) + (array.n_ranks + 1) * 5

    def test_empty_average(self):
        assert convert(TernaryCfpTree(1)).average_node_size() == 0.0


class TestConversionConfigs:
    @settings(max_examples=30, deadline=None)
    @given(db_strategy)
    def test_conversion_independent_of_tree_layout(self, database):
        """The CFP-array must not depend on chains/embedding choices."""
        table, transactions = prepare_transactions(database, 1)
        arrays = []
        for options in ({}, {"enable_chains": False}, {"enable_embedding": False}):
            tree = TernaryCfpTree.from_rank_transactions(
                transactions, len(table), **options
            )
            arrays.append(convert(tree))
        reference = _canonical(arrays[0])
        for array in arrays[1:]:
            assert _canonical(array) == reference


def _canonical(array):
    """Order-insensitive content: per rank, multiset of (path, count)."""
    content = {}
    for rank in range(1, array.n_ranks + 1):
        content[rank] = sorted(
            (tuple(array.path_ranks(rank, local)), count)
            for local, __, __, count in array.iter_subarray(rank)
        )
    return content


class TestSubarrayCache:
    """LRU semantics and counters of the decoded-subarray cache."""

    def _cache(self, budget=100):
        from repro.core.cfp_array import _SubarrayCache

        return _SubarrayCache(budget)

    def test_reput_refreshes_recency(self):
        # Regression: put() on an already-cached rank used to return
        # without touching LRU order, leaving a hot entry first in line
        # for eviction.
        cache = self._cache(budget=100)
        cache.put(1, ["a"], 40)
        cache.put(2, ["b"], 40)
        cache.put(1, ["a"], 40)  # re-put: rank 1 is in active use
        cache.put(3, ["c"], 40)  # must evict rank 2, not rank 1
        assert cache.get(1) == ["a"]
        assert cache.get(2) is None
        assert cache.get(3) == ["c"]
        assert cache.evictions == 1

    def test_eviction_counter(self):
        cache = self._cache(budget=100)
        for rank in range(1, 5):
            cache.put(rank, [], 40)
        assert cache.evictions == 2  # 4 x 40 into a 100-byte budget

    def test_oversized_entry_rejected_and_counted(self):
        cache = self._cache(budget=100)
        cache.put(1, ["big"], 101)
        assert cache.get(1) is None
        assert cache.rejected == 1
        assert cache.evictions == 0  # nothing was evicted to make room

    def test_counts_snapshot(self):
        cache = self._cache(budget=100)
        cache.put(1, ["a"], 40)
        cache.get(1)
        cache.get(2)
        assert cache.counts() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "rejected": 0,
        }

    def test_array_counts_zero_without_cache(self, small_db):
        __, __, __, array = build(small_db)
        assert set(array.cache_counts()) == {
            "hits",
            "misses",
            "evictions",
            "rejected",
        }
        assert all(v == 0 for v in array.cache_counts().values())

    def test_publish_cache_metrics_delta(self, small_db):
        from repro.obs.registry import MetricsRegistry

        __, __, __, array = build(small_db)
        array.set_cache_budget(1 << 16)
        for rank in array.active_ranks_descending():
            list(array.prefix_paths(rank))
            list(array.prefix_paths(rank))
        registry = MetricsRegistry()
        array.publish_cache_metrics(registry)
        hits = registry.get("subarray_cache.hits")
        assert hits > 0
        # Publishing again with the current counts as baseline is a no-op:
        # that is what prevents repeated mines from double-counting.
        array.publish_cache_metrics(registry, baseline=array.cache_counts())
        assert registry.get("subarray_cache.hits") == hits


class TestDecodedByteCharging:
    """The cache must charge decoded column bytes, not encoded varint bytes.

    Regression: entries used to be charged at the size of their encoded
    subarray chunk. Decoding expands varint triples into four fixed-width
    columns (~6-8x), so a "1 MiB" cache really held several MiB of
    decoded columns — precisely the memory the budget was meant to bound.
    """

    def _array(self, small_db):
        __, __, __, array = build(small_db, min_support=1)
        return array

    def test_decoded_bytes_exceed_encoded(self, small_db):
        array = self._array(small_db)
        for rank in array.active_ranks_descending():
            encoded = array.starts[rank + 1] - array.starts[rank]
            entry = array.subarray_columns(rank)
            assert entry.decoded_bytes > encoded

    def test_cache_charges_decoded_bytes(self, small_db):
        array = self._array(small_db)
        array.set_cache_budget(1 << 20)
        decoded_total = 0
        for rank in array.active_ranks_descending():
            decoded_total += array.subarray_columns(rank).decoded_bytes
        assert array._cache.used_bytes == decoded_total

    def test_eviction_pressure_under_decoded_budget(self, small_db):
        array = self._array(small_db)
        ranks = list(array.active_ranks_descending())
        encoded_total = sum(
            array.starts[rank + 1] - array.starts[rank] for rank in ranks
        )
        decoded_total = sum(
            array.subarray_columns(rank).decoded_bytes for rank in ranks
        )
        assert decoded_total > encoded_total
        # A budget that would hold every *encoded* chunk but not every
        # *decoded* one: under the old accounting this cache never
        # evicted; under decoded accounting it must feel pressure.
        budget = (encoded_total + decoded_total) // 2
        array.set_cache_budget(budget)
        for rank in ranks:
            array.subarray_columns(rank)
        cache = array._cache
        counts = array.cache_counts()
        assert counts["evictions"] + counts["rejected"] > 0
        assert cache.used_bytes <= budget

    def test_results_unchanged_under_pressure(self, small_db):
        reference = self._array(small_db)
        squeezed = self._array(small_db)
        ranks = list(reference.active_ranks_descending())
        decoded_max = max(
            reference.subarray_columns(rank).decoded_bytes for rank in ranks
        )
        squeezed.set_cache_budget(decoded_max)  # one entry at a time
        for rank in ranks:
            assert squeezed.prefix_paths(rank) == reference.prefix_paths(rank)


class TestSinglePath:
    """Array-level single-path detection mirrors the tree's (§3.4)."""

    def _array_for(self, transactions, n_ranks):
        tree = TernaryCfpTree(n_ranks)
        for ranks in transactions:
            tree.insert(ranks)
        return tree, convert(tree)

    def test_single_path_matches_tree(self):
        tree, array = self._array_for([[1, 2, 3], [1, 2, 3], [1, 2]], 3)
        assert array.single_path() == tree.single_path()
        assert array.single_path() == [(1, 3), (2, 3), (3, 2)]

    def test_path_with_rank_gaps(self):
        tree, array = self._array_for([[2, 5], [2, 5, 7]], 8)
        assert array.single_path() == tree.single_path()
        assert array.single_path() == [(2, 2), (5, 2), (7, 1)]

    def test_branching_returns_none(self):
        __, array = self._array_for([[1, 2], [1, 3]], 3)
        assert array.single_path() is None

    def test_two_roots_return_none(self):
        __, array = self._array_for([[1], [2]], 2)
        assert array.single_path() is None

    def test_disconnected_single_nodes_return_none(self):
        # One triple per rank but rank 3's parent is rank 1, not rank 2 —
        # the nodes do not chain into one path.
        __, array = self._array_for([[1, 2], [1, 3]], 3)
        assert array.single_path() is None

    def test_empty_array_is_trivial_path(self):
        __, array = self._array_for([], 3)
        assert array.single_path() == []

    @settings(max_examples=40, deadline=None)
    @given(db_strategy)
    def test_property_matches_tree(self, database):
        table, transactions = prepare_transactions(database, 1)
        tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
        array = convert(tree)
        assert array.single_path() == tree.single_path()


class TestDecodeSubarrayAliasing:
    """Regression: handing out the cached entry itself let callers poison it."""

    def _cached_array(self, small_db):
        __, __, __, array = build(small_db, min_support=1)
        array.set_cache_budget(1 << 16)
        return array

    def test_rows_are_immutable(self, small_db):
        array = self._cached_array(small_db)
        rank = next(iter(array.active_ranks_descending()))
        rows = array.decode_subarray(rank)
        assert isinstance(rows, tuple)
        with pytest.raises(TypeError):
            rows[0] = (0, 0, 0, 0)  # type: ignore[index]

    def test_mutation_attempt_cannot_corrupt_cache(self, small_db):
        array = self._cached_array(small_db)
        pristine = self._cached_array(small_db)
        for rank in array.active_ranks_descending():
            rows = array.decode_subarray(rank)
            try:
                rows[0] = (99, 99, 99, 99)  # type: ignore[index]
            except TypeError:
                pass
            with pytest.raises((TypeError, AttributeError)):
                rows.sort()  # type: ignore[attr-defined]
            # Later hits — including the columnar view underneath — are intact.
            assert array.decode_subarray(rank) == pristine.decode_subarray(rank)
            assert array.prefix_paths(rank) == pristine.prefix_paths(rank)

    def test_cached_hits_share_the_decoded_entry(self, small_db):
        # The fix must not undo the cache: hits still avoid re-decoding.
        array = self._cached_array(small_db)
        rank = next(iter(array.active_ranks_descending()))
        first = array.subarray_columns(rank)
        assert array.subarray_columns(rank) is first
        assert array.cache_counts()["hits"] >= 1


class TestNodeCountCacheNeutral:
    """Regression: the lazy node_count fallback must not charge the LRU cache."""

    def _lazy_array(self, small_db, budget=1 << 16):
        __, __, __, built = build(small_db, min_support=1)
        lazy = CfpArray(built.n_ranks, built.buffer, built.starts)
        if budget:
            lazy.set_cache_budget(budget)
        return built, lazy

    def test_lazy_count_matches_converter(self, small_db):
        built, lazy = self._lazy_array(small_db, budget=0)
        assert lazy.node_count == built.node_count

    def test_lazy_count_leaves_cache_counters_untouched(self, small_db):
        __, lazy = self._lazy_array(small_db)
        before = lazy.cache_counts()
        assert lazy.node_count > 0
        assert lazy.cache_counts() == before

    def test_lazy_count_does_not_evict_hot_entries(self, small_db):
        built, lazy = self._lazy_array(small_db)
        hot = next(iter(lazy.active_ranks_descending()))
        entry = lazy.subarray_columns(hot)  # warm the working set
        assert lazy.node_count == built.node_count
        assert lazy.subarray_columns(hot) is entry  # still cached, not evicted
