"""The in-memory mine's ascending sweep (``CfpArray.group_projection``).

The sweep must resolve exactly the paths the single-rank readers do (the
cached memo walk and the descending ``project``), raise the same typed
errors on corrupt arrays, never an ``IndexError`` or ``KeyError``, and
leave the decoded-subarray cache untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cfp_array import CfpArray
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET, mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import CorruptBufferError, ReproError, TreeError
from repro.fptree.growth import CountCollector
from repro.util.items import prepare_transactions
from tests.conftest import (
    db_strategy,
    encoded_triple,
    hand_built_array,
    random_database,
)


def _array(database, min_support: int) -> CfpArray:
    table, transactions = prepare_transactions(database, min_support)
    return convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))


@given(database=db_strategy, min_support=st.integers(min_value=1, max_value=3))
@example(database=random_database(7, 120, 20, 12), min_support=2)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_single_rank_readers(database, min_support):
    array = _array(database, min_support)
    cached = _array(database, min_support)
    cached.set_cache_budget(1 << 16)
    active = list(array.active_ranks_descending())
    swept = array.group_projection(active)
    assert sorted(swept) == sorted(active)
    projected = array.project(active)
    for rank in active:
        assert swept[rank] == cached.prefix_paths(rank) == projected[rank]
    # A group below the top rank resolves its ancestors all the same.
    lower = active[len(active) // 2 :]
    assert dict(array.group_projection(lower)) == {r: swept[r] for r in lower}


def _raises_like_project(array: CfpArray, match: str) -> None:
    ranks = list(array.active_ranks_descending())
    errors = []
    for resolve in (array.group_projection, array.project):
        with pytest.raises(ReproError, match=match) as info:
            resolve(ranks)
        errors.append(type(info.value))
    assert errors[0] is errors[1]


def test_delta_item_that_does_not_climb():
    # Rank 2's node points at rank 2 itself, then at rank -1.
    for delta_item in (0, 3):
        array = hand_built_array(
            2, {1: [encoded_triple(1, 0, 2)], 2: [encoded_triple(delta_item, 0, 1)]}
        )
        _raises_like_project(array, "not a lower rank")


@pytest.mark.parametrize("dpos", [-1, -4, 1, -30])
def test_dpos_that_misses_a_node_start(dpos):
    # Rank 1 holds nodes at locals 0 and 3; rank 2's node at local 0
    # points at local -dpos: mid-node, past the end, or before the start.
    array = hand_built_array(
        2,
        {
            1: [encoded_triple(1, 0, 2), encoded_triple(1, 0, 1)],
            2: [encoded_triple(1, dpos, 1)],
        },
    )
    _raises_like_project(array, "not a node start")


def test_parent_in_an_empty_subarray():
    array = hand_built_array(
        3, {1: [encoded_triple(1, 0, 1)], 3: [encoded_triple(1, 0, 1)]}
    )
    _raises_like_project(array, "not a node start")


def test_truncated_varint():
    # Rank 2's count runs past the end of its subarray.
    array = hand_built_array(
        2, {1: [encoded_triple(1, 0, 1)], 2: [bytes([1, 0, 0x80])]}
    )
    _raises_like_project(array, "truncated")
    with pytest.raises(CorruptBufferError):
        array.group_projection([2])


@given(
    seed=st.integers(min_value=0, max_value=50),
    position=st.integers(min_value=0, max_value=10_000),
    value=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=80, deadline=None)
def test_corrupt_bytes_raise_typed_errors(seed, position, value):
    array = _array(random_database(seed), 2)
    buffer = bytearray(array.buffer)
    if not buffer:
        return
    buffer[position % len(buffer)] = value
    corrupt = CfpArray(array.n_ranks, bytes(buffer), array.starts)
    ranks = list(corrupt.active_ranks_descending())
    outcomes = []
    for resolve in (corrupt.group_projection, corrupt.project):
        try:
            outcomes.append(dict(resolve(ranks)))
        except (TreeError, CorruptBufferError):
            outcomes.append(None)
    # Both readers see every subarray; a corruption either shows in both
    # (possibly found first at different ranks) or in neither.
    assert (outcomes[0] is None) == (outcomes[1] is None)
    assert outcomes[0] == outcomes[1]


def test_serial_mine_leaves_the_cache_untouched():
    array = _array(random_database(23, 200, 30, 18), 5)
    array.set_cache_budget(DEFAULT_CACHE_BUDGET)
    mine_array(array, 5, CountCollector())
    assert array.cache_counts() == {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "rejected": 0,
    }
