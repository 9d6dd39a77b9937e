"""Load generation for the query server: latency and throughput under
concurrency, with answers verified against direct library calls.

:func:`run_load` drives N concurrent NDJSON clients against an
in-process :class:`ReproServer` on the same event loop (the server
answers each request inline on that loop, one at a time), using a
seeded query mix over the store's own vocabulary, and returns a
:class:`LoadReport` with p50/p99 latency and throughput. Every response
is compared to the answer the library gives directly
(:meth:`ServingStore.support` / :meth:`~ServingStore.top_k` /
:meth:`~ServingStore.also_bought`), so a passing load run is also a
correctness run — the serving layer's core promise is byte-identical
answers to direct calls.

``python -m repro.serving.loadgen`` is the CLI used by the CI smoke
step: it builds a store from a FIMI/binary dataset (or a small built-in
synthetic one), runs the load, prints the report, and can gate on
``--max-p99-ms`` / ``--clients``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.errors import ReproError
from repro.serving.server import ReproServer
from repro.serving.store import ServingStore, build_store

#: Default query mix (must sum to 1.0): support lookups dominate, the
#: way a recommendation sidebar's traffic would.
DEFAULT_MIX = {"support": 0.8, "topk": 0.1, "rules": 0.1}


@dataclass
class LoadReport:
    """One load run's outcome."""

    clients: int
    requests: int
    errors: int
    mismatches: int
    wall_s: float
    rps: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    pool_hits: int = 0
    pool_faults: int = 0
    ops: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "mismatches": self.mismatches,
            "wall_s": round(self.wall_s, 4),
            "rps": round(self.rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "pool_hits": self.pool_hits,
            "pool_faults": self.pool_faults,
            "ops": dict(self.ops),
        }


def _build_queries(
    store: ServingStore,
    n_queries: int,
    seed: int,
    mix: dict[str, float] | None = None,
    oracle: dict[Any, Any] | None = None,
) -> list[dict[str, Any]]:
    """A seeded query workload over the store's own item vocabulary.

    Each query dict carries the request fields plus an ``expected``
    entry computed through the direct library calls — the parity oracle.
    ``oracle`` memoizes the top-k and rules answers across clients, so
    building a 64-client workload does not redo the same direct call 64
    times.
    """
    mix = dict(mix or DEFAULT_MIX)
    rng = random.Random(seed)
    if oracle is None:
        oracle = {}
    items = [store.table.item_of[rank] for rank in range(1, len(store.table) + 1)]
    if not items:
        raise ReproError("store has no frequent items; nothing to query")
    ops = sorted(mix)
    weights = [mix[op] for op in ops]
    queries: list[dict[str, Any]] = []
    for _ in range(n_queries):
        op = rng.choices(ops, weights=weights)[0]
        if op == "support":
            size = rng.randint(1, min(3, len(items)))
            itemset: list[Hashable] = rng.sample(items, size)
            queries.append(
                {
                    "op": "support",
                    "items": itemset,
                    "expected": store.support(itemset),
                }
            )
        elif op == "topk":
            k = rng.choice((5, 10, 20))
            key: tuple[Any, ...] = ("topk", k)
            if key not in oracle:
                oracle[key] = [
                    [list(itemset), support]
                    for itemset, support in store.top_k(k)
                ]
            queries.append({"op": "topk", "k": k, "expected": oracle[key]})
        else:
            size = rng.randint(1, min(2, len(items)))
            basket = rng.sample(items, size)
            key = ("rules", tuple(basket))
            if key not in oracle:
                oracle[key] = [
                    {
                        "antecedent": list(rule.antecedent),
                        "consequent": list(rule.consequent),
                        "support": rule.support,
                        "confidence": rule.confidence,
                        "lift": rule.lift,
                    }
                    for rule in store.also_bought(basket, limit=5)
                ]
            queries.append(
                {"op": "rules", "basket": basket, "limit": 5, "expected": oracle[key]}
            )
    return queries


async def _client(
    host: str,
    port: int,
    queries: list[dict[str, Any]],
    latencies: list[float],
    counters: dict[str, int],
) -> None:
    """One client: sequential requests over one connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for index, query in enumerate(queries):
            request = {k: v for k, v in query.items() if k != "expected"}
            request["id"] = index
            payload = json.dumps(request).encode("ascii") + b"\n"
            started = time.perf_counter()
            writer.write(payload)
            await writer.drain()
            line = await reader.readline()
            latencies.append((time.perf_counter() - started) * 1000.0)
            counters[query["op"]] = counters.get(query["op"], 0) + 1
            if not line:
                counters["errors"] += len(queries) - index
                return
            response = json.loads(line)
            if not response.get("ok"):
                counters["errors"] += 1
            elif response.get("result") != query["expected"]:
                counters["mismatches"] += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):  # pragma: no cover
            pass


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


async def _run_load_async(
    store: ServingStore,
    clients: int,
    requests_per_client: int,
    seed: int,
    mix: dict[str, float] | None,
) -> LoadReport:
    server = ReproServer(store)
    await server.start()
    latencies: list[float] = []
    counters: dict[str, int] = {"errors": 0, "mismatches": 0}
    try:
        # The parity oracle builds the store's pattern index too, so the
        # measured run exercises serving, not the one-off index mine.
        oracle: dict[Any, Any] = {}
        per_client = [
            _build_queries(store, requests_per_client, seed + index, mix, oracle)
            for index in range(clients)
        ]
        started = time.perf_counter()
        await asyncio.gather(
            *(
                _client(server.host, server.port, queries, latencies, counters)
                for queries in per_client
            )
        )
        wall = time.perf_counter() - started
    finally:
        await server.stop()
    latencies.sort()
    total = clients * requests_per_client
    pool_stats = store.array.pool.stats
    return LoadReport(
        clients=clients,
        requests=total,
        errors=counters.pop("errors"),
        mismatches=counters.pop("mismatches"),
        wall_s=wall,
        rps=total / wall if wall > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.5),
        p99_ms=_percentile(latencies, 0.99),
        max_ms=latencies[-1] if latencies else 0.0,
        pool_hits=pool_stats.hits,
        pool_faults=pool_stats.faults,
        ops=counters,
    )


def run_load(
    store: ServingStore,
    clients: int = 64,
    requests_per_client: int = 8,
    seed: int = 17,
    mix: dict[str, float] | None = None,
) -> LoadReport:
    """Run the load harness against an in-process server; see module doc."""
    if clients < 1 or requests_per_client < 1:
        raise ReproError("clients and requests_per_client must be >= 1")
    return asyncio.run(
        _run_load_async(store, clients, requests_per_client, seed, mix)
    )


def _demo_database(seed: int = 29) -> list[list[int]]:
    """A small synthetic basket database for the no-dataset CLI path."""
    from repro.datasets.quest import QuestGenerator

    return QuestGenerator(
        n_transactions=1_500,
        avg_transaction_length=8.0,
        avg_pattern_length=3.0,
        n_items=200,
        n_patterns=60,
        seed=seed,
    ).generate()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.loadgen",
        description="drive the query server with concurrent clients and "
        "verify answers against direct library calls",
    )
    parser.add_argument(
        "file",
        nargs="?",
        default="",
        help="FIMI text or .bin dataset to build the store from "
        "(default: a built-in synthetic dataset)",
    )
    parser.add_argument("--min-support", type=int, default=8)
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--requests", type=int, default=8, help="per client")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=0.0,
        help="fail (exit 1) when p99 latency exceeds this many ms (0 = no gate)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    if args.file:
        from repro.datasets.binary import read_binary
        from repro.datasets.fimi import read_fimi

        database = (
            read_binary(args.file)
            if args.file.endswith(".bin")
            else read_fimi(args.file)
        )
    else:
        database = _demo_database()

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        array_path = f"{tmp}/store.cfpa"
        build_store(database, args.min_support, array_path)
        with ServingStore(array_path) as store:
            report = run_load(
                store,
                clients=args.clients,
                requests_per_client=args.requests,
                seed=args.seed,
            )
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{report.clients} clients x {report.requests // report.clients} "
            f"requests: {report.rps:,.0f} req/s over {report.wall_s:.2f}s"
        )
        print(
            f"latency ms: p50={report.p50_ms:.2f} p99={report.p99_ms:.2f} "
            f"max={report.max_ms:.2f}"
        )
        print(
            f"pool: {report.pool_hits} hits / {report.pool_faults} faults; "
            f"errors={report.errors} mismatches={report.mismatches}"
        )
    if report.errors or report.mismatches:
        print(
            f"error: {report.errors} errors, {report.mismatches} mismatched "
            "answers vs direct calls",
            file=sys.stderr,
        )
        return 1
    if args.max_p99_ms and report.p99_ms > args.max_p99_ms:
        print(
            f"error: p99 {report.p99_ms:.2f}ms exceeds the "
            f"{args.max_p99_ms:.2f}ms gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
