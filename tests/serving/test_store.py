"""ServingStore: persistence round trip and direct-call equivalence."""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.bruteforce import brute_force
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.mining.topk import mine_top_k
from repro.rules import also_bought, generate_rules, mine_rules
from repro.serving import store as store_module
from repro.serving.store import (
    RULES_CACHE_KEYS,
    ServingStore,
    StoreError,
    build_store,
    sidecar_path,
)
from repro.util.items import prepare_transactions
from repro.util.queries import itemset_support
from tests.conftest import db_strategy, paper_example_database, random_database

MIN_SUPPORT = 2


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "paper.cfpa"
    build_store(paper_example_database(), MIN_SUPPORT, path)
    return path


class TestBuildAndOpen:
    def test_round_trip_table(self, store_path):
        table, _ = prepare_transactions(paper_example_database(), MIN_SUPPORT)
        with ServingStore(store_path) as store:
            assert store.table.fingerprint() == table.fingerprint()
            assert store.n_transactions == len(paper_example_database())
            assert store.table.min_support == MIN_SUPPORT

    def test_missing_sidecar(self, store_path, tmp_path):
        import os

        os.unlink(sidecar_path(store_path))
        with pytest.raises(StoreError, match="sidecar not found"):
            ServingStore(store_path)

    def test_corrupt_sidecar(self, store_path):
        with open(sidecar_path(store_path), "w", encoding="utf-8") as handle:
            handle.write("{nope")
        with pytest.raises(StoreError, match="not valid JSON"):
            ServingStore(store_path)

    def test_fingerprint_mismatch(self, store_path):
        side = sidecar_path(store_path)
        with open(side, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["items"][0][1] += 1  # tamper with one support
        with open(side, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        with pytest.raises(StoreError, match="fingerprint"):
            ServingStore(store_path)

    def test_missing_key(self, store_path):
        side = sidecar_path(store_path)
        with open(side, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        del meta["n_transactions"]
        with open(side, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        with pytest.raises(StoreError, match="n_transactions"):
            ServingStore(store_path)


class TestResidentBytes:
    """resident_bytes must cover everything long-lived, sidecar included."""

    def test_includes_sidecar_bytes(self, store_path):
        import os

        sidecar_bytes = os.path.getsize(sidecar_path(store_path))
        assert sidecar_bytes > 0
        with ServingStore(store_path) as store:
            # Regression: resident_bytes used to report only the array
            # reader, undercounting the store's footprint by the whole
            # parsed vocabulary.
            assert (
                store.resident_bytes
                == store.array.memory_bytes + sidecar_bytes
            )
            assert store.resident_bytes > store.array.memory_bytes

    def test_tracks_vocabulary_size(self, tmp_path):
        small = tmp_path / "small.cfpa"
        large = tmp_path / "large.cfpa"
        build_store(random_database(seed=1, n_transactions=40), 2, small)
        build_store(
            [[f"item-{i}", f"item-{i + 1}"] for i in range(200)] * 2,
            2,
            large,
        )
        import os

        with ServingStore(small) as a, ServingStore(large) as b:
            delta = b.resident_bytes - a.resident_bytes
            sidecar_delta = os.path.getsize(sidecar_path(large)) - os.path.getsize(
                sidecar_path(small)
            )
            array_delta = b.array.memory_bytes - a.array.memory_bytes
            assert delta == array_delta + sidecar_delta
            assert sidecar_delta > 0


class TestPartitionedStore:
    """ServingStore opens partitioned (v3) stores transparently."""

    def test_opens_v3_and_answers_match_v2(self, tmp_path):
        from repro.storage import PartitionedCfpArray

        database = random_database(seed=5, n_transactions=120)
        v2 = tmp_path / "mono.cfpa"
        v3 = tmp_path / "part.cfpa"
        build_store(database, 2, v2)
        build_store(database, 2, v3, partition_bytes=4096)
        queries = ([1], [2, 3], [0, 1, 2], [5], [1, 4])
        with ServingStore(v2) as mono, ServingStore(v3, hot_bytes=2048) as part:
            assert isinstance(part.array, PartitionedCfpArray)
            assert len(part.array.partitions) >= 1
            for items in queries:
                assert part.support(items) == mono.support(items), items
            assert part.top_k(10) == mono.top_k(10)
            assert part.rules(min_confidence=0.6) == mono.rules(
                min_confidence=0.6
            )

    def test_hot_set_counts_as_resident(self, tmp_path):
        database = random_database(seed=5, n_transactions=120)
        path = tmp_path / "part.cfpa"
        build_store(database, 2, path, partition_bytes=4096)
        with ServingStore(path, hot_bytes=0) as cold, ServingStore(
            path, hot_bytes=1 << 16
        ) as hot:
            assert hot.array.hot_bytes > 0
            assert (
                hot.resident_bytes - cold.resident_bytes
                == hot.array.hot_bytes
            )


def _direct(database, min_support):
    table, transactions = prepare_transactions(database, min_support)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
    return table, convert(tree)


def _ranking(database, min_support, min_length=1):
    """Itemsets of ``min_length`` or more items reaching ``min_support``,
    in the canonical (support descending, rank tuple ascending) order,
    from the brute-force oracle."""
    table, __ = prepare_transactions(database, min_support)
    ranked = sorted(
        (
            (tuple(sorted(table.rank_of[item] for item in itemset)), support)
            for itemset, support in brute_force(database, min_support)
            if len(itemset) >= min_length
        ),
        key=lambda entry: (-entry[1], entry[0]),
    )
    return [(table.ranks_to_items(ranks), support) for ranks, support in ranked]


def _mine_top_k_items(table, array, k, min_length=1):
    return [
        (table.ranks_to_items(ranks), support)
        for ranks, support in mine_top_k(array, k, min_length=min_length)
    ]


class TestQueryParity:
    """Store answers == the answers of direct calls on in-memory structures."""

    def test_support_matches_direct(self, store_path):
        database = paper_example_database()
        table, array = _direct(database, MIN_SUPPORT)
        with ServingStore(store_path) as store:
            for items in ([1], [3, 4], [1, 2, 3], [2, 9], [7], [1, 2, 3, 4]):
                assert store.support(items) == itemset_support(
                    array, table, items
                ), items

    def test_top_k_matches_direct(self, store_path):
        # Top-k ranks the itemsets reaching the store's min_support: the
        # first k of them, which is mine_top_k's answer whenever there are
        # k. The paper example has fewer than 50, so k=50 returns them all.
        database = paper_example_database()
        table, array = _direct(database, MIN_SUPPORT)
        ranking = _ranking(database, MIN_SUPPORT)
        assert 10 <= len(ranking) < 50
        with ServingStore(store_path) as store:
            for k in (1, 3, 10, 50):
                assert store.top_k(k) == ranking[:k], k
                if k <= len(ranking):
                    assert store.top_k(k) == _mine_top_k_items(
                        table, array, k
                    ), k

    def test_rules_match_mine_rules(self, store_path):
        database = paper_example_database()
        expected = mine_rules(database, MIN_SUPPORT, min_confidence=0.6)
        with ServingStore(store_path) as store:
            assert store.rules(min_confidence=0.6) == expected
            # The cache serves the identical object on a repeat query.
            assert store.rules(min_confidence=0.6) is store.rules(
                min_confidence=0.6
            )

    def test_also_bought_subsets_rules(self, store_path):
        with ServingStore(store_path) as store:
            recommended = store.also_bought([1], limit=3, min_confidence=0.5)
            assert len(recommended) <= 3
            for rule in recommended:
                assert set(rule.antecedent) <= {1}
                assert 1 not in rule.consequent

    @settings(max_examples=20, deadline=None)
    @given(database=db_strategy, seed=st.integers(0, 5))
    def test_support_property(self, database, seed, tmp_path_factory):
        import random as random_module

        path = tmp_path_factory.mktemp("stores") / "db.cfpa"
        try:
            build_store(database, 2, path)
        except Exception:
            # Databases with no frequent items cannot be built into a
            # store; that is the build pipeline's concern, not serving's.
            return
        table, array = _direct(database, 2)
        rng = random_module.Random(seed)
        universe = list(range(0, 10))
        with ServingStore(path) as store:
            for _ in range(8):
                items = rng.sample(universe, rng.randint(1, 3))
                assert store.support(items) == itemset_support(
                    array, table, items
                )


class TestPatternIndex:
    """Top-k and rules answer from one index, mined once per store."""

    @settings(max_examples=40, deadline=None)
    @given(
        database=db_strategy,
        min_support=st.integers(1, 4),
        min_length=st.integers(1, 3),
    )
    def test_top_k_is_a_prefix_of_the_ranking(
        self, database, min_support, min_length, tmp_path_factory
    ):
        table, array = _direct(database, min_support)
        assume(len(table) > 0)
        path = tmp_path_factory.mktemp("stores") / "db.cfpa"
        build_store(database, min_support, path)
        ranking = _ranking(database, min_support, min_length)
        with ServingStore(path) as store:
            for k in (1, 2, 5, 20, 80):
                got = store.top_k(k, min_length=min_length)
                assert got == ranking[:k], k
                if k <= len(ranking):
                    assert got == _mine_top_k_items(table, array, k, min_length)

    def test_index_is_mined_once(self, store_path, monkeypatch):
        calls = []
        mine_array = store_module.mine_array

        def counting(*args, **kwargs):
            calls.append(args)
            return mine_array(*args, **kwargs)

        monkeypatch.setattr(store_module, "mine_array", counting)
        with ServingStore(store_path) as store:
            for k in (1, 5, 50):
                store.top_k(k)
                store.top_k(k, min_length=2)
            for confidence in (0.3, 0.6, 0.9):
                store.rules(confidence)
                store.rules(confidence, max_consequent_size=1)
            for basket in ([1], [1, 2], [3]):
                store.also_bought(basket, limit=2, min_confidence=0.4)
        assert len(calls) == 1

    def test_rules_cache_is_bounded(self, store_path):
        database = paper_example_database()
        itemsets = brute_force(database, MIN_SUPPORT)
        with ServingStore(store_path) as store:
            for step in range(200):
                confidence = 0.2 + step * 0.004
                got = store.also_bought([1, 2], limit=5, min_confidence=confidence)
                rules = generate_rules(itemsets, len(database), confidence)
                assert got == also_bought(rules, [1, 2], limit=5), confidence
                assert len(store._rules_cache) <= RULES_CACHE_KEYS
        assert len(store._rules_cache) == RULES_CACHE_KEYS


class TestConcurrentStoreAccess:
    def test_threaded_queries_agree(self, tmp_path):
        import threading

        database = random_database(seed=3, n_transactions=80)
        path = tmp_path / "rand.cfpa"
        build_store(database, 3, path)
        with ServingStore(path, pool_pages=2, cache_budget=1 << 12) as store:
            queries = [[1], [2, 3], [0, 1, 2], [5], [1, 4]]
            expected = [store.support(items) for items in queries]
            failures: list[str] = []

            def worker() -> None:
                for _ in range(20):
                    for items, want in zip(queries, expected):
                        got = store.support(items)
                        if got != want:  # pragma: no cover - failure path
                            failures.append(f"{items}: {got} != {want}")

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures

    def test_concurrent_first_queries_mine_once(self, tmp_path, monkeypatch):
        import sys
        import threading

        database = random_database(seed=3, n_transactions=80)
        path = tmp_path / "rand.cfpa"
        build_store(database, 3, path)
        with ServingStore(path) as oracle:
            want_top = oracle.top_k(10)
            want_rules = {
                c: oracle.also_bought([1, 2], limit=4, min_confidence=c)
                for c in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 0.35, 0.45)
            }
        calls = []
        mine_array = store_module.mine_array

        def counting(*args, **kwargs):
            calls.append(args)
            return mine_array(*args, **kwargs)

        monkeypatch.setattr(store_module, "mine_array", counting)
        failures: list[str] = []
        with ServingStore(path) as store:

            def worker(offset: int) -> None:
                confidences = list(want_rules)
                for step in range(30):
                    if store.top_k(10) != want_top:  # pragma: no cover
                        failures.append("top_k")
                    c = confidences[(offset + step) % len(confidences)]
                    got = store.also_bought([1, 2], limit=4, min_confidence=c)
                    if got != want_rules[c]:  # pragma: no cover
                        failures.append(f"also_bought at {c}")
                    if len(store._rules_cache) > RULES_CACHE_KEYS:  # pragma: no cover
                        failures.append("rules cache over its bound")

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=worker, args=(offset,))
                    for offset in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(calls) == 1
