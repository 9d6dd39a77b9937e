"""End-to-end server suite: protocol parity with direct calls, inline
answering on the event loop, graceful drain, fault-injection
transparency, observability.

No pytest-asyncio in the image: every test drives its own event loop
through ``asyncio.run`` on a small async body.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro import faultinject, obs
from repro.obs.registry import MetricsRegistry
from repro.serving.loadgen import run_load
from repro.serving.server import MAX_LINE_BYTES, ReproServer
from repro.serving.store import ServingStore, build_store
from tests.conftest import paper_example_database, random_database

MIN_SUPPORT = 2


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.setenv("REPRO_IO_BACKOFF", "0")  # retries must not sleep
    faultinject.reset()
    yield
    faultinject.reset()
    obs.metrics.reset()


@pytest.fixture
def store(tmp_path):
    path = tmp_path / "paper.cfpa"
    build_store(paper_example_database(), MIN_SUPPORT, path)
    with ServingStore(path) as opened:
        yield opened


async def _rpc(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: dict
) -> dict:
    writer.write(json.dumps(request).encode("ascii") + b"\n")
    await writer.drain()
    line = await reader.readline()
    assert line, "server closed the connection mid-request"
    return json.loads(line)


async def _started(store: ServingStore, **kwargs) -> ReproServer:
    server = ReproServer(store, **kwargs)
    await server.start()
    return server


class TestProtocolParity:
    """Server answers are byte-identical to the direct library calls."""

    def test_all_ops_match_direct_calls(self, store):
        support_queries = ([1], [3, 4], [1, 2, 3], [2, 9], [1, 2, 3, 4], [7])
        expected_support = [store.support(items) for items in support_queries]
        expected_topk = {
            k: [[list(itemset), s] for itemset, s in store.top_k(k)]
            for k in (1, 3, 25)
        }
        expected_rules = [
            {
                "antecedent": list(rule.antecedent),
                "consequent": list(rule.consequent),
                "support": rule.support,
                "confidence": rule.confidence,
                "lift": rule.lift,
            }
            for rule in store.also_bought([1, 2], limit=4)
        ]

        async def body() -> None:
            server = await _started(store, registry=MetricsRegistry())
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    for items, want in zip(support_queries, expected_support):
                        response = await _rpc(
                            reader, writer, {"op": "support", "items": items}
                        )
                        assert response["ok"] and response["result"] == want
                    for k, want in expected_topk.items():
                        response = await _rpc(reader, writer, {"op": "topk", "k": k})
                        assert response["ok"] and response["result"] == want
                    response = await _rpc(
                        reader,
                        writer,
                        {"op": "rules", "basket": [1, 2], "limit": 4},
                    )
                    assert response["ok"] and response["result"] == expected_rules
                finally:
                    writer.close()
            finally:
                await server.stop()

        asyncio.run(body())

    def test_errors_leave_connection_usable(self, store):
        async def body() -> None:
            registry = MetricsRegistry()
            server = await _started(store, registry=registry)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    bad = [
                        b"{not json\n",
                        b"[1, 2]\n",
                        b'{"op": "nope"}\n',
                        b'{"op": "support"}\n',
                        b'{"op": "support", "items": []}\n',
                        b'{"op": "support", "items": [[1]]}\n',
                        b'{"op": "topk"}\n',
                        b'{"op": "topk", "k": 0}\n',
                        b'{"op": "topk", "k": true}\n',
                        b'{"op": "rules", "basket": [1], "limit": 0}\n',
                        b'{"op": "rules", "basket": [1], "min_confidence": "x"}\n',
                    ]
                    for payload in bad:
                        writer.write(payload)
                        await writer.drain()
                        response = json.loads(await reader.readline())
                        assert response["ok"] is False, payload
                        assert response["error"]["code"] == "bad_request", payload
                    # The connection survived eleven bad requests.
                    response = await _rpc(
                        reader, writer, {"id": 9, "op": "support", "items": [1]}
                    )
                    assert response == {
                        "id": 9,
                        "ok": True,
                        "result": store.support([1]),
                    }
                    assert registry.get("serving.errors") == len(bad)
                finally:
                    writer.close()
            finally:
                await server.stop()

        asyncio.run(body())

    def test_oversized_line_poisons_only_its_connection(self, store):
        async def body() -> None:
            registry = MetricsRegistry()
            server = await _started(store, registry=registry)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b'{"op": "support", "items": [' + b"1," * MAX_LINE_BYTES)
                await writer.drain()
                # The server answers bad_request and hangs up — but with
                # unread bytes still in flight the close may surface to
                # this client as a reset instead of a readable response.
                try:
                    line = await reader.readline()
                    if line:
                        response = json.loads(line)
                        assert response["ok"] is False
                        assert response["error"]["code"] == "bad_request"
                except (ConnectionResetError, OSError):
                    pass
                writer.close()
                # The server itself survived and keeps serving.
                reader2, writer2 = await asyncio.open_connection(
                    server.host, server.port
                )
                response = await _rpc(
                    reader2, writer2, {"op": "support", "items": [1]}
                )
                assert response["ok"] and response["result"] == store.support([1])
                writer2.close()
                assert registry.get("serving.errors") == 1
            finally:
                await server.stop()

        asyncio.run(body())

    def test_request_id_echo_and_ping(self, store):
        async def body() -> None:
            server = await _started(store, registry=MetricsRegistry())
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                response = await _rpc(reader, writer, {"id": "abc", "op": "ping"})
                assert response == {"id": "abc", "ok": True, "result": "pong"}
                response = await _rpc(reader, writer, {"op": "stats"})
                assert response["ok"] is True
                stats = response["result"]
                assert set(stats) == {
                    "draining",
                    "resident_bytes",
                    "pool",
                    "requests",
                    "errors",
                }
                assert stats["resident_bytes"] == store.resident_bytes
                assert stats["requests"] == 2 and stats["errors"] == 0
                writer.close()
            finally:
                await server.stop()

        asyncio.run(body())


class TestInlineAnswers:
    def test_every_op_runs_on_the_event_loop_thread(self, store):
        threads: dict[str, set[int]] = {}

        def recording(name, call):
            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return call(*args, **kwargs)

            return wrapper

        for name in ("support", "top_k", "also_bought"):
            setattr(store, name, recording(name, getattr(store, name)))
        requests = [
            {"op": "support", "items": [1, 2]},
            {"op": "topk", "k": 3},
            {"op": "rules", "basket": [1]},
        ]

        async def body() -> int:
            loop_thread = threading.get_ident()
            server = await _started(store, registry=MetricsRegistry())
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                for request in requests:
                    response = await _rpc(reader, writer, request)
                    assert response["ok"] is True, response
                writer.close()
            finally:
                await server.stop()
            return loop_thread

        loop_thread = asyncio.run(body())
        assert threads == {
            "support": {loop_thread},
            "top_k": {loop_thread},
            "also_bought": {loop_thread},
        }


class TestGracefulDrain:
    def test_inflight_request_finishes_during_stop(self, tmp_path):
        # Requests run inline, so stop() can only ever find a response
        # being flushed, never a handler running. A topk answer far larger
        # than the socket buffers, to a client that does not read yet,
        # keeps its flush going while stop() runs.
        path = tmp_path / "wide.cfpa"
        build_store([list(range(14))] * 3, 2, path)
        with ServingStore(path) as store:
            expected = [[list(items), s] for items, s in store.top_k(10_000)]
            registry = MetricsRegistry()

            def unsent_bytes(server: ReproServer) -> int:
                return sum(
                    writer.transport.get_write_buffer_size()
                    for writer in server._connections
                )

            async def body() -> None:
                server = await _started(store, registry=registry)
                client = socket.socket()
                client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                client.setblocking(False)
                loop = asyncio.get_running_loop()
                await loop.sock_connect(client, (server.host, server.port))
                reader, writer = await asyncio.open_connection(
                    sock=client, limit=4096
                )
                idle_reader, idle_writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    for _ in range(500):
                        if len(server._connections) == 2:
                            break
                        await asyncio.sleep(0.01)
                    for server_writer in server._connections:
                        server_writer.get_extra_info("socket").setsockopt(
                            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                        )
                    writer.write(b'{"id": 1, "op": "topk", "k": 10000}\n')
                    await writer.drain()
                    for _ in range(500):
                        if unsent_bytes(server) > 0:
                            break
                        await asyncio.sleep(0.01)
                    assert unsent_bytes(server) > 0
                    stopping = asyncio.ensure_future(server.stop())
                    # The idle connection is closed by the drain ...
                    assert await asyncio.wait_for(idle_reader.read(), 10) == b""
                    # ... which waits on the response still being written.
                    assert not stopping.done()
                    # The response arrives whole, then the server hangs up.
                    payload = await asyncio.wait_for(reader.read(), 10)
                    assert payload.endswith(b"\n") and payload.count(b"\n") == 1
                    response = json.loads(payload)
                    assert response == {"id": 1, "ok": True, "result": expected}
                    await asyncio.wait_for(stopping, 10)
                    # New connections are refused.
                    with pytest.raises(OSError):
                        await asyncio.open_connection(server.host, server.port)
                finally:
                    # Closing the clients first unblocks a failed drain.
                    writer.close()
                    idle_writer.close()
                    await asyncio.wait_for(server.stop(), 10)

            asyncio.run(body())
            # The pool counters were published once, by the drain.
            stats = store.array.pool.stats
            assert registry.get("bufferpool.faults") == stats.faults
            assert registry.get("bufferpool.hits") == stats.hits

    def test_drain_then_close_publishes_pool_counters_once(self, store):
        # ReproServer.stop() publishes the pool into the process registry,
        # and closing the store publishes it again on the way out.
        obs.metrics.reset()

        async def body() -> None:
            server = await _started(store)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await _rpc(reader, writer, {"op": "support", "items": [3, 4]})
                writer.close()
            finally:
                await server.stop()

        asyncio.run(body())
        store.close()
        store.close()
        stats = store.array.pool.stats
        assert stats.faults > 0
        assert obs.metrics.get("bufferpool.faults") == stats.faults
        assert obs.metrics.get("bufferpool.hits") == stats.hits
        assert obs.metrics.get("bufferpool.bytes_read") == stats.bytes_read


class TestFaultTransparency:
    def test_transient_read_faults_invisible_to_clients(self, tmp_path):
        database = random_database(seed=11, n_transactions=100)
        path = tmp_path / "faulty.cfpa"
        build_store(database, 3, path)
        queries = ([1], [0, 1], [2, 3], [1, 2, 4], [5])
        with ServingStore(path) as oracle:
            expected = [oracle.support(items) for items in queries]
        # A fresh store serves with a *cold* pool, so the first query
        # really reads pages — and hits the faults planted below. The
        # plan is installed after open: the header read has no retry
        # loop, the pool's read path (the serving path) does.
        with ServingStore(path, pool_pages=2, cache_budget=0, verify=False) as store:
            faultinject.install("pagefile.read:flake:times=3")

            async def body() -> None:
                registry = MetricsRegistry()
                server = await _started(store, registry=registry)
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    try:
                        for items, want in zip(queries, expected):
                            response = await _rpc(
                                reader, writer, {"op": "support", "items": items}
                            )
                            assert response["ok"] is True, (items, response)
                            assert response["result"] == want
                    finally:
                        writer.close()
                    assert registry.get("serving.errors") == 0
                finally:
                    await server.stop()

            asyncio.run(body())
            # The faults really fired; the retry loop absorbed them.
            assert obs.metrics.get("faultinject.fired") == 3


class TestObservability:
    def test_counters_histograms_and_spans(self, store):
        from repro.obs.tracer import Tracer

        registry = MetricsRegistry()
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        try:

            async def body() -> None:
                server = await _started(store, registry=registry)
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    for items in ([1], [2], [3, 4]):
                        await _rpc(reader, writer, {"op": "support", "items": items})
                    await _rpc(reader, writer, {"op": "topk", "k": 2})
                    await _rpc(reader, writer, {"op": "bogus"})
                    writer.close()
                finally:
                    await server.stop()

            asyncio.run(body())
        finally:
            obs.set_tracer(previous)
        assert registry.get("serving.requests") == 5
        assert registry.get("serving.connections") == 1
        assert registry.get("serving.errors") == 1
        support_latency = registry.histogram("serving.latency_ms.support")
        assert support_latency is not None and support_latency.count == 3
        assert registry.histogram("serving.latency_ms.topk").count == 1
        assert registry.histogram("serving.latency_ms.invalid").count == 1
        # The drain published the pool counters into the same registry.
        assert registry.get("bufferpool.hits") + registry.get("bufferpool.faults") > 0
        spans = [r for r in tracer.records if r.name == "serve_request"]
        assert len(spans) == 5
        assert {s.attrs["op"] for s in spans} == {"support", "topk", "invalid"}
        assert all(s.parent_id is None for s in spans)


class TestLoadHarness:
    def test_64_concurrent_clients_verified(self, tmp_path):
        database = random_database(seed=23, n_transactions=120, n_items=16)
        path = tmp_path / "load.cfpa"
        build_store(database, 3, path)
        with ServingStore(path) as store:
            report = run_load(store, clients=64, requests_per_client=3, seed=7)
        assert report.clients == 64
        assert report.requests == 192
        assert report.errors == 0
        assert report.mismatches == 0
        assert report.p50_ms <= report.p99_ms <= report.max_ms
        assert report.rps > 0
        payload = report.to_dict()
        assert payload["clients"] == 64 and payload["mismatches"] == 0
