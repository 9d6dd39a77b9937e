"""The serving workloads: serve-mixed and stream-follow.

Both drive a ``python -m repro serve`` subprocess with an open-loop
generator: requests are due on a fixed schedule whatever the server
does, and each latency is measured from the request's due time, so
waiting behind a slow request counts. Load comes from this one process:
one asyncio thread and at most two connections.

* serve-mixed: a store made by ``repro.serving.build_store`` is served
  to an 80% support / 10% rules / 10% topk mix at a fixed rate over
  two connections. Every answer is compared with a direct
  ``ServingStore`` call made before the run.
* stream-follow: ``python -m repro stream`` publishes a snapshot per
  batch of a sliding window while ``repro serve --follow`` answers
  support queries on one connection. An answer is right if it equals
  the window support of a generation current between its send time
  (less one poll interval) and its reply; one that matches only a
  generation superseded up to a second earlier is counted stale, and
  anything else wrong. The last generation must be byte-identical to a
  from-scratch conversion of its window.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import re
import signal
import socket
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import datagen
from harness import (
    SETUPS,
    BenchError,
    Child,
    SpanLog,
    children,
    lower_quartile,
    normalised,
    percentile,
    read_trace,
    reference_s,
    tail_percentile,
)

#: serve-mixed: offered load, connections and op mix (shares of requests).
#: The mix is a copy of ``repro.serving.loadgen.DEFAULT_MIX``, kept here
#: so that a program change cannot move the benchmark. No observed traffic
#: sets the rate: each topk request mines the store (20-60 ms on a 2-CPU
#: host), and at 25 req/s the server stays far from saturation even when
#: the host runs slow, so the median stays a property of the server
#: rather than of a backlog.
SERVE_RATE = 25.0
SERVE_CONNECTIONS = 2
SERVE_MIX = (("support", 0.8), ("rules", 0.1), ("topk", 0.1))

#: stream-follow: offered load and the stream / follower settings. No
#: observed traffic sets the rate either: it is the lowest rate that gives
#: 1,000 support queries in BENCHMARK.json's 20-second run, so that a p99
#: is reported.
STREAM_RATE = 50.0
BATCH_SIZE = 500
WINDOW = 8
POLL_INTERVAL = 0.1

#: The stream is sized for this ingest rate over the run plus its last
#: set-up: over twice the 2,300-3,600 tx/s measured on a 2-CPU host. A
#: stream that still runs out fails the run, since the rest of the window
#: would measure reads without writes.
MAX_INGEST_TX_PER_S = 8_000
STREAM_SETUP_S = 5

#: Starts of the following server before a set-up gives up.
FOLLOW_START_ATTEMPTS = 3

#: Extra tolerance on the generation-currency window (clock and pipe delay).
CURRENCY_SLACK_S = 0.05

#: An answer from a generation superseded more than one poll interval
#: before its request is stale; older than this it counts as wrong. A
#: loaded follower can lag a few polls behind while it opens a generation.
MAX_STALENESS_S = 1.0

#: The generator sleeps until this long before a request is due and then
#: yields to the event loop until it is: the loop's timers round up to
#: whole milliseconds, which alone would make every send up to 1 ms late.
SPIN_S = 0.002

#: ``latency_ms`` is the lower quartile of the medians of windows this
#: long: 60 requests or more each at the serving rates below.
WINDOW_S = 2.5

#: A generator later than this at p99 makes a run invalid, not slow.
MAX_LATE_P99_MS = 5.0

_SERVING = re.compile(r" on [^ ]+:(\d+) \(max")
_PUBLISHED = re.compile(r"# batch \d+/\d+: .* -> generation (\d+)$")


# ----------------------------------------------------------------------
# Open-loop client
# ----------------------------------------------------------------------


@dataclass
class Request:
    id: int
    due: float
    """Seconds after the schedule's start at which the request is due."""
    conn: int
    body: dict
    expected: Any = None
    sent: float | None = None
    reply: float | None = None
    response: dict | None = None

    @property
    def op(self) -> str:
        return self.body["op"]


def schedule(ops: list[dict], rate: float, connections: int) -> list[Request]:
    """Requests due every ``1/rate`` seconds, round-robin over connections."""
    return [
        Request(index, index / rate, index % connections, body)
        for index, body in enumerate(ops)
    ]


async def _drive(host: str, port: int, requests: list[Request], start: float, grace: float) -> None:
    by_conn: dict[int, list[Request]] = {}
    for request in requests:
        by_conn.setdefault(request.conn, []).append(request)

    async def connection(mine: list[Request]) -> None:
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)

        async def send() -> None:
            for request in mine:
                due = start + request.due
                delay = due - time.perf_counter() - SPIN_S
                if delay > 0:
                    await asyncio.sleep(delay)
                while time.perf_counter() < due:
                    await asyncio.sleep(0)
                # Sent means issued: on a loaded host the write itself can
                # take milliseconds, which the due-time latency counts.
                request.sent = time.perf_counter()
                writer.write(json.dumps(request.body | {"id": request.id}).encode() + b"\n")
                await writer.drain()

        async def receive() -> None:
            pending = {request.id: request for request in mine}
            while pending:
                line = await reader.readline()
                if not line:
                    return
                now = time.perf_counter()
                message = json.loads(line)
                request = pending.pop(message.get("id"), None)
                if request is not None:
                    request.reply = now
                    request.response = message

        try:
            await asyncio.wait_for(
                asyncio.gather(send(), receive()), timeout=mine[-1].due + grace
            )
        except asyncio.TimeoutError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    await asyncio.gather(*(connection(mine) for mine in by_conn.values()))


def open_loop(host: str, port: int, requests: list[Request], grace: float = 30.0) -> float:
    """Send ``requests`` on schedule and collect replies; returns the start.

    Unanswered requests keep ``reply = None``. The garbage collector is
    off while the generator runs: a full collection over the inputs this
    process holds would stall sends by several milliseconds.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter() + 0.05
        asyncio.run(_drive(host, port, requests, start, grace))
    finally:
        gc.enable()
    return start


def latencies_ms(requests: list[Request], start: float, op: str | None = None) -> list[float]:
    """Due-time-to-reply latency of every answered request (of ``op``)."""
    return [
        (request.reply - start - request.due) * 1000.0
        for request in requests
        if request.reply is not None and (op is None or request.op == op)
    ]


def window_p50s_ms(requests: list[Request], start: float) -> list[float]:
    """Median due-time latency in each ``WINDOW_S``-second window of the schedule."""
    windows: dict[int, list[float]] = {}
    for request in requests:
        if request.reply is not None:
            windows.setdefault(int(request.due // WINDOW_S), []).append(
                (request.reply - start - request.due) * 1000.0
            )
    return [statistics.median(values) for __, values in sorted(windows.items())]


def generator_stats(requests: list[Request], start: float) -> dict[str, float]:
    late = [(r.sent - start - r.due) * 1000.0 for r in requests if r.sent is not None]
    return {
        "loadgen.late_p99_ms": percentile(late, 99) if late else 0.0,
        "loadgen.sent": len(late),
        "loadgen.answered": sum(1 for r in requests if r.reply is not None),
    }


def client_stats(requests: list[Request], start: float) -> dict[str, float]:
    """Per-op client p50s and the whole mix's tail percentile."""
    every = latencies_ms(requests, start)
    stats: dict[str, float] = {}
    tail = tail_percentile(len(every))
    if tail is not None:
        stats[f"client.query_p{tail}_ms"] = percentile(every, tail)
    for op in ("support", "rules", "topk"):
        values = latencies_ms(requests, start, op)
        stats[f"client.{op}_p50_ms"] = statistics.median(values) if values else 0.0
    return stats


def ask(port: int, bodies: list[dict], timeout: float = 60.0) -> list[dict]:
    """Closed-loop requests on one connection (set-up probes)."""
    answers = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        stream = sock.makefile("rwb")
        for index, body in enumerate(bodies):
            stream.write(json.dumps(body | {"id": index}).encode() + b"\n")
            stream.flush()
            answers.append(json.loads(stream.readline()))
    return answers


def start_server(args: list[str], workdir: Path) -> tuple[Child, int]:
    server = Child([sys.executable, "-m", "repro", "serve", *args, "--port", "0"], workdir)
    try:
        __, line = server.wait_line("# serving", 60)
        match = _SERVING.search(line)
        if match is None:
            raise BenchError(f"cannot parse the server's port from {line!r}")
    except BenchError:
        server.stop(signal.SIGKILL)
        raise
    return server, int(match.group(1))


def _normal(value: Any) -> Any:
    """``value`` as it reads after a JSON round trip (tuples -> lists)."""
    return json.loads(json.dumps(value))


def _sample_itemsets(database: list[list[int]], frequent: set, rng: random.Random, n: int) -> list[list[int]]:
    """Itemsets of one to three frequent items taken from real transactions."""
    if not frequent:
        raise BenchError("the database has no frequent items to query")
    itemsets = []
    while len(itemsets) < n:
        items = [item for item in rng.choice(database) if item in frequent]
        if items:
            itemsets.append(rng.sample(items, min(len(items), rng.randint(1, 3))))
    return itemsets


def _server_layers(trace_path: Path, ops: tuple[str, ...], client: dict[str, float]) -> dict[str, float]:
    """Server-side numbers from a ``repro serve --trace`` file."""
    __, metrics = read_trace(trace_path)
    layers: dict[str, float] = {}
    for op in ops:
        histogram = metrics.get(f"serving.latency_ms.{op}", {})
        for q in ("p50", "p99"):
            layers[f"server.latency_ms.{op}.{q}"] = histogram.get(q, 0.0)
        if histogram.get("count"):
            layers[f"server.outside_ms.{op}"] = client[f"client.{op}_p50_ms"] - histogram["p50"]
    hits = metrics.get("bufferpool.hits", 0)
    faults = metrics.get("bufferpool.faults", 0)
    prefetched = metrics.get("prefetch.pages", 0)
    layers.update(
        {
            "server.rejected": metrics.get("serving.rejected", 0),
            "server.errors": metrics.get("serving.errors", 0),
            "bufferpool.faults": faults,
            "bufferpool.hit_ratio": hits / (hits + faults) if hits + faults else 0.0,
            "bufferpool.bytes_read": metrics.get("bufferpool.bytes_read", 0),
            "bufferpool.evictions": metrics.get("bufferpool.evictions", 0),
            "bufferpool.prefetched": prefetched,
            "bufferpool.prefetch_hits": metrics.get("prefetch.hits", 0),
            "bufferpool.prefetch_hit_ratio": (
                metrics.get("prefetch.hits", 0) / prefetched if prefetched else 0.0
            ),
            "bufferpool.read_retries": metrics.get("bufferpool.read_retries", 0),
            "follow.flips": metrics.get("serving.generation", 0),
        }
    )
    return layers


def _record_requests(spans: SpanLog, requests: list[Request], start: float) -> None:
    for request in requests:
        if request.reply is not None:
            spans.add(
                f"serving.server.{request.op}",
                start + request.due,
                request.reply,
                request=request.id,
                conn=request.conn,
            )


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def _mixed_ops(store: Any, database: list[list[int]], n: int, rng: random.Random) -> list[dict]:
    """``n`` request bodies in the exact SERVE_MIX proportions, shuffled."""
    counts = {op: round(share * n) for op, share in SERVE_MIX[1:]}
    counts["support"] = n - sum(counts.values())
    frequent = set(store.table.rank_of)
    bodies: list[dict] = []
    for items in _sample_itemsets(database, frequent, rng, counts["support"]):
        bodies.append({"op": "support", "items": items})
    for items in _sample_itemsets(database, frequent, rng, counts["rules"]):
        bodies.append({"op": "rules", "basket": items[:2], "limit": 5})
    for __ in range(counts["topk"]):
        bodies.append({"op": "topk", "k": rng.choice((5, 10, 20))})
    rng.shuffle(bodies)
    return bodies


def _expected(store: Any, body: dict, memo: dict) -> Any:
    """The answer a direct ServingStore call gives, in the server's JSON shape."""
    if body["op"] == "support":
        return store.support(body["items"])
    key = json.dumps(body, sort_keys=True)
    if key not in memo:
        if body["op"] == "topk":
            answer = [[list(items), support] for items, support in store.top_k(body["k"])]
        else:
            answer = [
                {
                    "antecedent": list(rule.antecedent),
                    "consequent": list(rule.consequent),
                    "support": rule.support,
                    "confidence": rule.confidence,
                    "lift": rule.lift,
                }
                for rule in store.also_bought(body["basket"], limit=body["limit"])
            ]
        memo[key] = _normal(answer)
    return memo[key]


def run_mixed(seed: int, opts: Any, workdir: Path, spans: SpanLog) -> dict:
    from repro.api import build_cfp_array
    from repro.serving import ServingStore, build_store

    shape = datagen.SHAPES["serve-mixed"].scaled(opts.scale)
    database = datagen.transactions(shape, seed)
    rng = random.Random(seed)
    setups: list[float] = []
    with children() as started:
        for index in range(SETUPS):
            path = workdir / f"store-{index}.cfpa"
            reference = reference_s()
            began = time.perf_counter()
            build_store(database, shape.min_support, path)
            server, port = start_server([str(path)], workdir)
            started.append(server)
            ask(port, [
                {"op": "support", "items": database[0][:1]},
                {"op": "topk", "k": 5},
                {"op": "rules", "basket": database[0][:1]},
            ])
            setups.append(normalised(time.perf_counter() - began, reference, reference_s()))
            if index + 1 < SETUPS:
                server.stop()
        with ServingStore(path) as store:
            memo: dict = {}
            requests = schedule(
                _mixed_ops(store, database, round(SERVE_RATE * opts.seconds), rng),
                SERVE_RATE,
                SERVE_CONNECTIONS,
            )
            for request in requests:
                request.expected = _expected(store, request.body, memo)
        if opts.corrupt_oracle:
            requests[0].expected = ["corrupted"]
        start = open_loop("127.0.0.1", port, requests)
        server.stop()
        if opts.trace:
            trace_path = opts.trace_dir / f"serve-mixed-seed{seed}.server.jsonl"
            traced_server, port = start_server([str(path), "--trace", str(trace_path)], workdir)
            started.append(traced_server)
            traced = [Request(r.id, r.due, r.conn, r.body, r.expected) for r in requests]
            traced_start = open_loop("127.0.0.1", port, traced)
            traced_server.stop()
    failed = sum(1 for r in requests if _wrong(r))
    latencies = latencies_ms(requests, start)
    table, array = build_cfp_array(database, shape.min_support)
    result: dict[str, Any] = {
        "attempted": len(requests),
        "failed": failed,
        "checks": {"answers_match_direct_calls": failed == 0},
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_ms": lower_quartile(window_p50s_ms(requests, start)),
            "peak_rss_mb": server.maxrss_kb / 1024.0,
            "array_bytes_per_item": array.memory_bytes / sum(table.rank_supports[1:]),
        },
        "detail": {
            "transactions": len(database),
            "min_support": shape.min_support,
            "rate_per_s": SERVE_RATE,
            "connections": SERVE_CONNECTIONS,
            "latency_p50_ms": statistics.median(latencies),
            "latency_mean_ms": statistics.mean(latencies),
            "window_p50_ms": window_p50s_ms(requests, start),
            "setup_samples_s": setups,
            **generator_stats(requests, start),
        },
    }
    _mark_generator(result)
    if opts.trace:
        result["failed"] += sum(1 for r in traced if _wrong(r))
        _record_requests(spans, traced, traced_start)
        client = client_stats(traced, traced_start)
        layers = {
            **client,
            **generator_stats(traced, traced_start),
            **_server_layers(trace_path, ("support", "rules", "topk"), client),
            **_direct_layers(database, shape.min_support, requests, workdir, spans),
        }
        traced_p50 = statistics.median(latencies_ms(traced, traced_start))
        layers["trace.overhead_pct"] = (traced_p50 / statistics.median(latencies) - 1.0) * 100.0
        result["layers"] = layers
    return result


def _wrong(request: Request) -> bool:
    response = request.response
    return response is None or not response.get("ok") or response["result"] != request.expected


def _mark_generator(result: dict) -> None:
    late = result["detail"]["loadgen.late_p99_ms"]
    result["detail"]["valid"] = late <= MAX_LATE_P99_MS
    if late > MAX_LATE_P99_MS:
        print(
            f"warning: the load generator ran {late:.1f} ms late at p99 "
            f"(limit {MAX_LATE_P99_MS} ms); this run is invalid",
            file=sys.stderr,
        )


def _direct_layers(
    database: list[list[int]], min_support: int, requests: list[Request], workdir: Path, spans: SpanLog
) -> dict[str, float]:
    """The store built and queried layer by layer, single-threaded."""
    from repro.core.conversion import convert
    from repro.core.ternary import TernaryCfpTree
    from repro.serving import ServingStore
    from repro.serving.store import write_sidecar
    from repro.storage import save_cfp_array
    from repro.util.items import prepare_transactions

    layers: dict[str, float] = {}
    path = workdir / "direct.cfpa"

    def timed(name: str, call: Any) -> tuple[Any, float]:
        with spans.span(name) as record:
            value = call()
        return value, record["end"] - record["start"]

    with spans.span("serving.store.build_store"):
        (table, transactions), layers["items.prepare_s"] = timed(
            "util.items.prepare_transactions",
            lambda: prepare_transactions(database, min_support),
        )
        tree, layers["ternary.build_s"] = timed(
            "core.ternary.from_rank_transactions",
            lambda: TernaryCfpTree.from_rank_transactions(transactions, len(table)),
        )
        array, layers["conversion.convert_s"] = timed("core.conversion.convert", lambda: convert(tree))
        layers["cfp_store.file_bytes"], layers["cfp_store.save_s"] = timed(
            "storage.cfp_store.save_cfp_array", lambda: save_cfp_array(array, path)
        )
        write_sidecar(path, table, len(database))
    layers["ternary.tree_bytes"] = tree.memory_bytes
    layers["conversion.array_bytes"] = array.memory_bytes
    layers["conversion.bytes_per_node"] = array.memory_bytes / array.node_count
    store, layers["store.open_s"] = timed("serving.store.ServingStore", lambda: ServingStore(path))
    with store:
        support = [r.body["items"] for r in requests if r.op == "support"][:200]
        samples = [timed("serving.store.support", lambda items=items: store.support(items))[1] for items in support]
        layers["store.support_ms"] = statistics.median(samples) * 1000.0
        samples = [timed("mining.topk.top_k", lambda: store.top_k(10))[1] for __ in range(3)]
        layers["store.topk_ms"] = statistics.median(samples) * 1000.0
        baskets = [r.body["basket"] for r in requests if r.op == "rules"][:50] or [support[0]]
        __, layers["store.rules_first_s"] = timed("rules.also_bought", lambda: store.also_bought(baskets[0]))
        samples = [timed("rules.also_bought", lambda b=b: store.also_bought(b))[1] for b in baskets]
        layers["store.rules_cached_ms"] = statistics.median(samples) * 1000.0
    return layers


# ----------------------------------------------------------------------
# stream-follow
# ----------------------------------------------------------------------


class _WindowOracle:
    """Window supports over the stream from per-item transaction bitsets."""

    def __init__(self, database: list[list[int]]) -> None:
        size = (len(database) + 7) // 8
        rows: dict[int, bytearray] = {}
        for tid, transaction in enumerate(database):
            byte, bit = divmod(tid, 8)
            for item in transaction:
                row = rows.get(item)
                if row is None:
                    row = rows[item] = bytearray(size)
                row[byte] |= 1 << bit
        self.bits = {item: int.from_bytes(row, "little") for item, row in rows.items()}

    def support(self, items: list[int], first: int, end: int) -> int:
        """Support of ``items`` among transactions ``first .. end-1``."""
        joint = -1
        for item in items:
            joint &= self.bits.get(item, 0)
        return ((joint >> first) & ((1 << (end - first)) - 1)).bit_count()


def _window(generation: int) -> tuple[int, int]:
    """Transactions ``first, end`` in a generation's window.

    The stream publishes after every batch into a fresh directory, so
    generation ``g`` is the window ending with batch ``g``.
    """
    return (generation - min(generation, WINDOW)) * BATCH_SIZE, generation * BATCH_SIZE


def _published(stream: Child) -> list[tuple[float, int]]:
    """``(published_at, generation)`` for every generation the stream reported."""
    found = []
    for at, text in list(stream.lines):
        match = _PUBLISHED.search(text)
        if match:
            found.append((at, int(match.group(1))))
    return found


def _current_between(published: list[tuple[float, int]], low: float, high: float) -> list[int]:
    """Every generation that was current at some time in ``[low, high]``."""
    current = []
    for index, (at, generation) in enumerate(published):
        until = published[index + 1][0] if index + 1 < len(published) else float("inf")
        if at - CURRENCY_SLACK_S <= high and until + CURRENCY_SLACK_S >= low:
            current.append(generation)
    return current


def run_stream(seed: int, opts: Any, workdir: Path, spans: SpanLog) -> dict:
    from repro.core.conversion import convert
    from repro.core.ternary import TernaryCfpTree
    from repro.storage import load_cfp_array
    from repro.streaming import CountingPhase
    from repro.streaming.snapshots import SnapshotManager

    shape = replace(
        datagen.SHAPES["stream-follow"].scaled(opts.scale),
        n_transactions=round(MAX_INGEST_TX_PER_S * (opts.seconds + STREAM_SETUP_S)),
    )
    database = datagen.transactions(shape, seed)
    rng = random.Random(seed)
    fimi = workdir / "stream.fimi"
    datagen.write_fimi(str(fimi), database)
    counting = CountingPhase()
    counting.add_batch(database)
    table = counting.finish(shape.min_support)

    stream_trace = opts.trace_dir / f"stream-follow-seed{seed}.stream.jsonl"
    follow_trace = opts.trace_dir / f"stream-follow-seed{seed}.follow.jsonl"
    setups: list[float] = []
    follower_restarts = 0
    with children() as started:
        for index in range(SETUPS):
            last = index + 1 == SETUPS
            snapshots = workdir / f"snapshots-{index}"
            reference = reference_s()
            began = time.perf_counter()
            stream = Child(
                [
                    sys.executable, "-m", "repro", "stream", str(fimi),
                    "--min-support", str(shape.min_support),
                    "--batch-size", str(BATCH_SIZE), "--window", str(WINDOW),
                    "--snapshot-dir", str(snapshots), "--publish-every", "1",
                    *(["--trace", str(stream_trace)] if opts.trace and last else []),
                ],
                workdir,
            )
            started.append(stream)
            stream.wait_line("-> generation 1", 120)
            follow_args = [
                str(snapshots), "--follow", "--poll-interval", str(POLL_INTERVAL),
                *(["--trace", str(follow_trace)] if opts.trace and last else []),
            ]
            for attempt in range(FOLLOW_START_ATTEMPTS):
                try:
                    follower, port = start_server(follow_args, workdir)
                    break
                except BenchError:
                    # A follower that reads the manifest just before the
                    # stream retires that generation fails to start.
                    if attempt + 1 == FOLLOW_START_ATTEMPTS:
                        raise
                    follower_restarts += 1
            started.append(follower)
            ask(port, [{"op": "ping"}])
            setups.append(normalised(time.perf_counter() - began, reference, reference_s()))
            if not last:
                stream.stop()
                follower.stop()
        ops = [
            {"op": "support", "items": items}
            for items in _sample_itemsets(
                database, set(table.rank_of), rng, round(STREAM_RATE * opts.seconds)
            )
        ]
        requests = schedule(ops, STREAM_RATE, 1)
        start = open_loop("127.0.0.1", port, requests)
        window_end = time.perf_counter()
        finished = not stream.alive()
        stream_code = stream.stop()
        follower.stop()
    if finished:
        raise BenchError(
            f"repro stream ended (exit {stream_code}) before the measured window did"
        )

    oracle = _WindowOracle(database)
    published = _published(stream)
    if opts.corrupt_oracle:
        requests[0].response = {"ok": True, "result": -1}
    wrong = stale = 0
    for request in requests:
        response = request.response
        if response is None or not response.get("ok") or request.sent is None:
            wrong += 1
            continue

        def matches(low: float) -> bool:
            return any(
                oracle.support(request.body["items"], *_window(generation)) == response["result"]
                for generation in _current_between(published, low, request.reply)
            )

        if not matches(request.sent - POLL_INTERVAL):
            if matches(request.sent - MAX_STALENESS_S):
                stale += 1
            else:
                wrong += 1

    # The last published generation against a from-scratch rebuild.
    generation, array_path = SnapshotManager(snapshots).current()
    first, end = _window(generation)
    rank_of = table.rank_of
    ranked = [
        sorted({rank_of[item] for item in transaction if item in rank_of})
        for transaction in database[first:end]
    ]
    rebuilt = convert(TernaryCfpTree.from_rank_transactions(ranked, len(table)))
    served = load_cfp_array(array_path)
    identical = bytes(served.buffer) == bytes(rebuilt.buffer) and served.starts == rebuilt.starts

    latencies = latencies_ms(requests, start)
    _record_requests(spans, requests, start)
    during = [at for at, __ in published if start <= at <= window_end]
    ingest = (len(during) - 1) * BATCH_SIZE / (during[-1] - during[0]) if len(during) > 1 else 0.0
    result: dict[str, Any] = {
        "attempted": len(requests) + 1,
        "failed": wrong + (not identical),
        "checks": {
            "answers_match_a_recent_window": wrong == 0,
            "final_generation_identical": identical,
        },
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_ms": lower_quartile(window_p50s_ms(requests, start)),
            "peak_rss_mb": (stream.maxrss_kb + follower.maxrss_kb) / 1024.0,
            "array_bytes_per_item": rebuilt.memory_bytes / sum(map(len, ranked)),
        },
        "detail": {
            "transactions": len(database),
            "min_support": shape.min_support,
            "rate_per_s": STREAM_RATE,
            "generations_published": len(published),
            "follower_restarts": follower_restarts,
            "stale_answers": stale,
            "ingest_tx_per_s": ingest,
            "latency_p50_ms": statistics.median(latencies),
            "latency_mean_ms": statistics.mean(latencies),
            "window_p50_ms": window_p50s_ms(requests, start),
            "setup_samples_s": setups,
            **generator_stats(requests, start),
        },
    }
    _mark_generator(result)
    if opts.trace:
        client = client_stats(requests, start)
        stream_spans, __ = read_trace(stream_trace)
        merges = [s["dur"] * 1000.0 for s in stream_spans if s["name"] == "delta_merge"]
        publishes = [s for s in stream_spans if s["name"] == "snapshot_publish"]
        saves = [s for s in stream_spans if s["name"] == "store_save_array"]
        result["layers"] = {
            **client,
            **generator_stats(requests, start),
            **_server_layers(follow_trace, ("support",), client),
            "stream.ingest_tx_per_s": ingest,
            "follow.stale_answers": stale,
            "incremental.append_ms.p50": statistics.median(merges) if merges else 0.0,
            "incremental.append_ms.max": max(merges, default=0.0),
            "snapshots.publish_ms": (
                statistics.median(s["dur"] for s in publishes) * 1000.0 if publishes else 0.0
            ),
            "snapshots.bytes_written": sum(s["attrs"].get("bytes", 0) for s in publishes),
            "cfp_store.save_s": statistics.median(s["dur"] for s in saves) if saves else 0.0,
            "cfp_store.file_bytes": (
                statistics.median(s["attrs"]["bytes"] for s in saves) if saves else 0.0
            ),
        }
    return result
