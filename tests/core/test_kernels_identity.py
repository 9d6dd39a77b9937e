"""Identity suites: columnar kernels vs the retained per-node reference.

The columnar mine path (:mod:`repro.core.kernels` driven by
``cfp_growth._conditional_struct``) replaced a per-node implementation
that is retained verbatim as ``cfp_growth._conditional_tree_reference``.
The kernels' contract is that they change how fast the answer is
computed, never the answer — so these suites hold them to the reference
*bit for bit*: single-path verdicts must match the tree's
``single_path()``, and branching conditionals must encode to the exact
bytes ``convert(reference_tree)`` produces.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.budget import mine_with_budget
from repro.compress import varint
from repro.core import kernels
from repro.core.cfp_array import CfpArray
from repro.core.cfp_growth import (
    _conditional_struct,
    _conditional_tree_reference,
    mine_array,
    mine_rank_transactions,
)
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import TreeError
from repro.fptree.growth import ListCollector, mine_ranks
from repro.mining.topk import mine_top_k
from repro.storage import DiskCfpArray, PartitionedCfpArray, save_cfp_array
from repro.storage.pagefile import PAGE_SIZE
from repro.util.items import prepare_transactions
from tests.conftest import db_strategy, random_database

#: Strictly-ascending rank paths, the shape ``filter_aggregate`` emits.
path_strategy = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=6
).map(lambda ranks: tuple(sorted(set(ranks))))

#: A conditional's worth of aggregated paths with their total counts.
aggregated_strategy = st.dictionaries(
    path_strategy, st.integers(min_value=1, max_value=50), min_size=1, max_size=12
)


def build_array(database, min_support):
    table, transactions = prepare_transactions(database, min_support)
    n_ranks = len(table)
    tree = TernaryCfpTree.from_rank_transactions(transactions, n_ranks)
    return convert(tree), n_ranks


def assert_identical_arrays(got, want):
    assert bytes(got.buffer) == bytes(want.buffer)
    assert got.starts == want.starts
    assert got.node_count == want.node_count


def assert_builder_projection(cond):
    """A conditional carries its bytes' projection, and hands it out once.

    Rank for rank, the builder's projection holds the paths a sweep over
    the encoded bytes resolves, in the same order; a second
    ``group_projection`` call projects the bytes.
    """
    active = list(cond.active_ranks_descending())
    want = CfpArray(cond.n_ranks, cond.buffer, cond.starts).project(active)
    carried = cond.group_projection(active)
    assert sorted(carried) == sorted(active)
    for rank in active:
        assert carried[rank] == want[rank]
        assert carried.support(rank) == sum(count for __, count in want[rank])
    again = cond.group_projection(active)
    assert again is not carried
    assert dict(again) == dict(want)


def mine_reference(array, min_support):
    """Serial CFP-growth through the per-node reference conditionals.

    Mirrors ``mine_rank``'s traversal exactly but builds every
    conditional through ``_conditional_tree_reference`` — the pre-kernel
    implementation — so its emission order and output pin the columnar
    path's. Shared with the chaos identity suite.
    """
    collector = ListCollector()

    def mine(arr, min_support, suffix):
        for rank in arr.active_ranks_descending():
            support = arr.rank_support(rank)
            if support < min_support:
                continue
            itemset = (rank,) + suffix
            collector.emit(itemset, support)
            ref_tree = _conditional_tree_reference(arr, rank, min_support)
            if ref_tree is None:
                continue
            chain = ref_tree.single_path()
            if chain is not None:
                collector.emit_path_subsets(chain, itemset)
            else:
                mine(convert(ref_tree), min_support, itemset)

    mine(array, min_support, ())
    return collector


class TestConditionalStructIdentity:
    """``_conditional_struct`` == ``_conditional_tree_reference``, bitwise."""

    def check_array(self, array, min_support, depth=0):
        for rank in array.active_ranks_descending():
            if array.rank_support(rank) < min_support:
                continue
            chain, cond = _conditional_struct(array, rank, min_support)
            ref_tree = _conditional_tree_reference(array, rank, min_support)
            if ref_tree is None:
                assert chain is None and cond is None
                continue
            ref_chain = ref_tree.single_path()
            if ref_chain is not None:
                assert cond is None
                assert chain == ref_chain
            else:
                assert chain is None
                assert_identical_arrays(cond, convert(ref_tree))
                assert_builder_projection(cond)
                if depth < 1:  # one recursion level: conditional conditionals
                    self.check_array(cond, min_support, depth + 1)

    @given(database=db_strategy, min_support=st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_every_rank_identical(self, database, min_support):
        array, __ = build_array(database, min_support)
        self.check_array(array, min_support)

    def test_identical_on_skewed_databases(self):
        for seed in range(5):
            array, __ = build_array(random_database(seed), 2)
            self.check_array(array, 2)

    @given(
        database=db_strategy,
        min_support=st.integers(min_value=1, max_value=3),
        span=st.tuples(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=0, max_value=12),
        ),
    )
    @example(database=random_database(7), min_support=2, span=(3, 4))
    @settings(max_examples=40, deadline=None)
    def test_cache_budget_does_not_change_results(
        self, database, min_support, span
    ):
        # The persistent prefix-path memo (cache-enabled arrays) and the
        # one-sweep projection (uncached arrays, one rank or a rank set)
        # must resolve the same paths.
        array, n_ranks = build_array(database, min_support)
        cached, __ = build_array(database, min_support)
        cached.set_cache_budget(1 << 16)
        active = list(array.active_ranks_descending())
        want = {rank: cached.prefix_paths(rank) for rank in active}
        assert array.project(active) == want
        first = min(span[0], n_ranks)
        ranks = range(first, min(first + span[1], n_ranks) + 1) if first else ()
        assert array.project(ranks) == {rank: want.get(rank, []) for rank in ranks}
        for rank in active:
            assert array.prefix_paths(rank) == want[rank]
            chain, cond = _conditional_struct(cached, rank, min_support)
            want_chain, want_cond = _conditional_struct(array, rank, min_support)
            assert chain == want_chain
            assert (cond is None) == (want_cond is None)
            if cond is not None:
                assert_identical_arrays(cond, want_cond)

    def test_dpos_landing_mid_node_raises(self, tmp_path):
        # Shift one node's dpos by one byte, keeping its encoded size, so
        # its parent link lands inside the parent's triple.
        array, __ = build_array(random_database(3), 2)
        rank, local, delta_item, dpos, count = next(
            (rank, local, delta_item, dpos, count)
            for rank in array.active_ranks_descending()
            for local, delta_item, dpos, count in array.decode_subarray(rank)
            if delta_item < rank  # the node has a parent
            and varint.triple_size(delta_item, dpos - 1, count)
            == varint.triple_size(delta_item, dpos, count)
        )
        buffer = bytearray(array.buffer)
        varint.encode_triples(
            buffer, array.starts[rank] + local, [(delta_item, dpos - 1, count)]
        )
        cached = CfpArray(array.n_ranks, bytes(buffer), array.starts)
        cached.set_cache_budget(1 << 16)
        with pytest.raises(TreeError, match="not a node start"):
            cached.prefix_paths(rank)
        uncached = CfpArray(array.n_ranks, bytes(buffer), array.starts)
        with pytest.raises(TreeError, match="not a node start"):
            uncached.project([rank])
        with pytest.raises(TreeError, match="not a node start"):
            uncached.project(range(1, array.n_ranks + 1))

        # A one-node array whose delta_item is 0: the node's parent link
        # points back at its own rank, so a walk that does not check for
        # a lower rank never returns.
        looped = bytearray(varint.triple_size(0, 0, 1))
        varint.encode_triples(looped, 0, [(0, 0, 1)])
        cached = CfpArray(1, bytes(looped), [0, 0, len(looped)])
        cached.set_cache_budget(1 << 16)
        uncached = CfpArray(1, bytes(looped), [0, 0, len(looped)])
        path = tmp_path / "looped.cfpa"
        save_cfp_array(uncached, path)
        with PartitionedCfpArray(path) as paged, DiskCfpArray(path) as per_node:
            for walk in (
                lambda: cached.prefix_paths(1),
                lambda: uncached.path_ranks(1, 0),
                lambda: uncached.project([1]),
                lambda: paged.path_ranks(1, 0),
                lambda: per_node.path_ranks(1, 0),
            ):
                with pytest.raises(TreeError, match="not a lower rank"):
                    walk()

    def test_prefix_paths_match_path_ranks(self):
        # The memoized bulk walk agrees with the node-at-a-time backward
        # traversal it replaced.
        array, __ = build_array(random_database(3), 2)
        for rank in array.active_ranks_descending():
            paths = array.prefix_paths(rank)
            rows = array.decode_subarray(rank)
            assert len(paths) == len(rows)
            for (path, count), (local, *__rest) in zip(paths, rows):
                assert list(path) == array.path_ranks(rank, local)


class TestMinedOutputIdentity:
    """End-to-end: the columnar miner == reference miners, itemset for itemset."""

    @given(database=db_strategy, min_support=st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_identical_to_per_node_reference_miner(self, database, min_support):
        table, transactions = prepare_transactions(database, min_support)
        n_ranks = len(table)
        array = convert(TernaryCfpTree.from_rank_transactions(transactions, n_ranks))
        got = ListCollector()
        mine_array(array, min_support, got)
        want = mine_reference(array, min_support)
        assert got.itemsets == want.itemsets

    @given(database=db_strategy, min_support=st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_equivalent_to_fp_growth(self, database, min_support):
        table, transactions = prepare_transactions(database, min_support)
        got = mine_rank_transactions(transactions, len(table), min_support)
        want = mine_ranks(list(transactions), len(table), min_support)
        assert sorted(got.itemsets) == sorted(want.itemsets)

    @pytest.mark.parametrize("leg", ["mine", "spill", "topk"])
    def test_mine_never_decodes_a_conditional(self, leg, tmp_path, monkeypatch):
        # Every conditional is mined from the projection its builder
        # carries, so only the top-level array or the paged reader is
        # ever decoded.
        built: list[CfpArray] = []
        decoded: list[CfpArray] = []
        build = kernels.build_conditional_array

        def building(ordered, n_ranks):
            cond = build(ordered, n_ranks)
            built.append(cond)
            return cond

        def recording(columns):
            def subarray_columns(self, rank):
                decoded.append(self)
                return columns(self, rank)

            return subarray_columns

        monkeypatch.setattr(kernels, "build_conditional_array", building)
        for cls in (CfpArray, PartitionedCfpArray):
            monkeypatch.setattr(
                cls, "subarray_columns", recording(cls.subarray_columns)
            )
        if leg == "mine":
            table, transactions = prepare_transactions(random_database(3), 2)
            mine_rank_transactions(transactions, len(table), 2)
        elif leg == "spill":
            database = random_database(
                23, n_transactions=2000, n_items=60, max_length=10
            )
            __, report = mine_with_budget(
                database, 40, 2 * PAGE_SIZE, spill_dir=tmp_path
            )
            assert report.went_out_of_core
        else:
            array, __ = build_array(random_database(3), 1)
            mine_top_k(array, 20)
        assert built and decoded
        assert not {id(cond) for cond in built} & {id(arr) for arr in decoded}


class TestKernelUnits:
    """Each kernel against its naive per-node definition."""

    @given(database=db_strategy)
    @settings(max_examples=30, deadline=None)
    def test_conditional_counts_matches_dict_accumulation(self, database):
        array, n_ranks = build_array(database, 1)
        for rank in array.active_ranks_descending():
            paths = array.prefix_paths(rank)
            naive: dict[int, int] = defaultdict(int)
            for ranks, count in paths:
                for path_rank in ranks:
                    naive[path_rank] += count
            counts = kernels.conditional_counts(paths, n_ranks)
            assert len(counts) == n_ranks + 1
            for path_rank in range(1, n_ranks + 1):
                assert counts[path_rank] == naive.get(path_rank, 0)

    @given(database=db_strategy, min_support=st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_filter_aggregate_matches_per_path_filtering(self, database, min_support):
        array, n_ranks = build_array(database, 1)
        for rank in array.active_ranks_descending():
            paths = array.prefix_paths(rank)
            counts = kernels.conditional_counts(paths, n_ranks)
            frequent = {r for r, c in enumerate(counts) if c >= min_support}
            naive: dict[tuple[int, ...], int] = defaultdict(int)
            for ranks, count in paths:
                filtered = tuple(r for r in ranks if r in frequent)
                if filtered:
                    naive[filtered] += count
            assert kernels.filter_aggregate(paths, counts, min_support) == dict(naive)

    @given(aggregated=aggregated_strategy)
    @settings(max_examples=60, deadline=None)
    def test_single_path_merge_matches_tree(self, aggregated):
        tree = TernaryCfpTree(12)
        for path, count in aggregated.items():
            tree.insert(list(path), count)
        assert kernels.single_path_merge(aggregated) == tree.single_path()

    @given(aggregated=aggregated_strategy)
    @settings(max_examples=60, deadline=None)
    def test_build_conditional_array_matches_convert(self, aggregated):
        tree = TernaryCfpTree(12)
        for path, count in aggregated.items():
            tree.insert(list(path), count)
        got = kernels.build_conditional_array(sorted(aggregated.items()), 12)
        assert_identical_arrays(got, convert(tree))
        assert_builder_projection(got)

    def test_backend_reports_a_known_kernel(self):
        assert kernels.backend() in {"python", "numpy"}
