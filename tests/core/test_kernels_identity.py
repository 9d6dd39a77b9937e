"""Identity suites: columnar kernels vs the retained per-node reference.

The columnar mine path (:mod:`repro.core.kernels` driven by
``cfp_growth._conditional_struct``) replaced a per-node implementation
that is retained verbatim as ``cfp_growth._conditional_tree_reference``.
The kernels' contract is that they change how fast the answer is
computed, never the answer — so these suites hold them to the reference
exactly: single-path verdicts must match the tree's ``single_path()``,
and a branching conditional, which is sized but never encoded, must
have the item index, node count and size of ``convert(reference_tree)``,
and rank for rank the prefix paths and support a sweep over those
bytes resolves, in the same order.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.storage import DiskCfpArray, PartitionedCfpArray, save_cfp_array
from repro.util.items import prepare_transactions
from tests.conftest import db_strategy, random_database

#: Highest rank the aggregated-path strategies draw. Ranks past 127 and
#: counts past 16,383 need 2- and 3-byte varints.
N_RANKS = 300

#: Strictly-ascending rank paths, the shape ``filter_aggregate`` emits.
path_strategy = st.lists(
    st.integers(min_value=1, max_value=N_RANKS), min_size=1, max_size=6
).map(lambda ranks: tuple(sorted(set(ranks))))

count_strategy = st.integers(min_value=1, max_value=20_000)

#: Thirty or more paths into one rank, each under its own parent: that
#: rank's subarray outgrows 64 bytes, so its later nodes' ``dpos`` needs
#: two bytes.
fan_strategy = st.tuples(
    st.integers(min_value=200, max_value=N_RANKS),
    st.dictionaries(
        st.integers(min_value=1, max_value=199), count_strategy, min_size=30, max_size=40
    ),
).map(lambda fan: {(parent, fan[0]): count for parent, count in fan[1].items()})

#: A conditional's worth of aggregated paths with their total counts.
aggregated_strategy = st.tuples(
    st.dictionaries(path_strategy, count_strategy, min_size=1, max_size=12),
    st.one_of(st.just({}), fan_strategy),
).map(lambda parts: {**parts[1], **parts[0]})

#: Two- and three-byte fields of every kind: a fan of 40 nodes into rank
#: 290 (2-byte ``delta_item`` and positive ``dpos``), then a child of the
#: fan's last node (``dpos`` of -221), and counts past 16,383.
WIDE_FIELDS = {
    **{(parent, 290): 16_000 + parent for parent in range(1, 121, 3)},
    (118, 290, 295): 20_000,
    (5, 7): 3,
}


def build_array(database, min_support):
    table, transactions = prepare_transactions(database, min_support)
    n_ranks = len(table)
    tree = TernaryCfpTree.from_rank_transactions(transactions, n_ranks)
    return convert(tree), n_ranks


def assert_conditional_matches(cond, want):
    """A sized conditional is ``want``, ``convert`` of the reference tree.

    The item index, node count and size are the encoded array's, and rank
    for rank the conditional holds the prefix paths a sweep over
    ``want``'s bytes resolves, in the same order, and the same support.
    """
    assert cond.starts == want.starts
    assert cond.node_count == want.node_count
    assert cond.memory_bytes == want.memory_bytes
    active = list(want.active_ranks_descending())
    assert cond.active_ranks_descending() == active
    projection = want.project(active)
    for rank in active:
        assert cond.prefix_paths(rank) == projection[rank]
        assert cond.rank_support(rank) == want.rank_support(rank)


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
    """``_conditional_struct`` == ``_conditional_tree_reference``, exactly."""

    def check_array(self, array, min_support, depth=0, reference=None):
        # ``reference`` is the encoded counterpart of a sized conditional.
        reference = array if reference is None else reference
        for rank in reference.active_ranks_descending():
            if reference.rank_support(rank) < min_support:
                continue
            chain, cond = _conditional_struct(array, rank, min_support)
            ref_tree = _conditional_tree_reference(reference, rank, min_support)
            if ref_tree is None:
                assert chain is None and cond is None
                continue
            ref_chain = ref_tree.single_path()
            if ref_chain is not None:
                assert cond is None
                assert chain == ref_chain
            else:
                assert chain is None
                want = convert(ref_tree)
                assert_conditional_matches(cond, want)
                if depth < 1:  # one recursion level: conditional conditionals
                    self.check_array(cond, min_support, depth + 1, want)

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
                reference = convert(
                    _conditional_tree_reference(array, rank, min_support)
                )
                assert_conditional_matches(cond, reference)
                assert_conditional_matches(want_cond, reference)

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
        tree = TernaryCfpTree(N_RANKS)
        for path, count in aggregated.items():
            tree.insert(list(path), count)
        assert kernels.single_path_merge(aggregated) == tree.single_path()

    @given(aggregated=aggregated_strategy)
    @example(aggregated=WIDE_FIELDS)
    @settings(max_examples=60, deadline=None)
    def test_build_conditional_array_matches_convert(self, aggregated):
        tree = TernaryCfpTree(N_RANKS)
        for path, count in aggregated.items():
            tree.insert(list(path), count)
        ordered = sorted(aggregated.items())
        supports = kernels.conditional_counts(ordered, N_RANKS)
        got = kernels.build_conditional_array(ordered, N_RANKS, supports)
        assert_conditional_matches(got, convert(tree))

    def test_backend_reports_a_known_kernel(self):
        assert kernels.backend() in {"python", "numpy"}
