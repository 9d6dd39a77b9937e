"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.compress import varint
from repro.core.cfp_array import CfpArray


def paper_example_database() -> list[list[int]]:
    """A small database shaped like the paper's Figure 1 setting.

    Items 1-4 are frequent; item 9 is rare and must be filtered out at
    min_support >= 2.
    """
    return [
        [1, 2, 3],
        [1, 2, 4],
        [1, 3],
        [2, 3],
        [1, 2, 3, 4],
        [3, 4],
        [1],
        [2, 4],
        [1, 2, 3],
        [1, 3, 4, 9],
    ]


@pytest.fixture
def small_db() -> list[list[int]]:
    return paper_example_database()


def random_database(
    seed: int,
    n_transactions: int = 60,
    n_items: int = 12,
    max_length: int = 8,
) -> list[list[int]]:
    """Deterministic random database with skewed item frequencies."""
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) for i in range(n_items)]
    database = []
    for __ in range(n_transactions):
        length = rng.randint(1, max_length)
        transaction = set(rng.choices(range(n_items), weights=weights, k=length))
        database.append(sorted(transaction))
    return database


#: Hypothesis strategy for small transaction databases over items 0..9.
db_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    min_size=1,
    max_size=25,
)


def normalize(results) -> dict[frozenset, int]:
    """Canonical form of miner output for equivalence checks."""
    normalized = {}
    for itemset, support in results:
        key = frozenset(itemset)
        assert key, "miners must not emit the empty itemset"
        assert key not in normalized, f"duplicate itemset {sorted(key)}"
        normalized[key] = support
    return normalized


def encoded_triple(delta_item: int, dpos: int, count: int) -> bytes:
    """One node's ``(delta_item, dpos, count)`` triple, encoded."""
    out = bytearray(varint.triple_size(delta_item, dpos, count))
    varint.encode_triples(out, 0, [(delta_item, dpos, count)])
    return bytes(out)


def hand_built_array(n_ranks: int, subarrays: dict[int, list[bytes]]) -> CfpArray:
    """An array from raw per-rank bytes (one ``bytes`` per node).

    The corruption tests build arrays whose links are wrong on purpose.
    """
    buffer = bytearray()
    starts = [0, 0]
    for rank in range(1, n_ranks + 1):
        for node in subarrays.get(rank, []):
            buffer += node
        starts.append(len(buffer))
    return CfpArray(n_ranks, bytes(buffer), starts)
