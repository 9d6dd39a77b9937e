"""Mining-as-a-service: the asyncio NDJSON query server.

One :class:`ReproServer` serves one :class:`repro.serving.store.ServingStore`
— many concurrent clients, one shared buffer pool. The protocol is
newline-delimited JSON over TCP: each request is one JSON object per
line, each response is one JSON object per line, in request order per
connection::

    {"id": 1, "op": "support", "items": [3, 4]}
    {"id": 1, "ok": true, "result": 2}

Ops: ``ping``, ``support`` (``items``), ``topk`` (``k``, optional
``min_length``), ``rules`` (``basket``, optional ``limit`` /
``min_confidence``), and ``stats``. Failures answer
``{"ok": false, "error": {"code", "message"}}`` with codes
``bad_request`` (malformed request or parameters) and ``internal``; the
connection stays usable after either.

Every request is answered inline on the event loop, one at a time: a
support query decodes one subarray and walks back over the node headers
of the ancestors it needs, and top-k and rules read the store's pattern
index, which the first of them mines once. Handing such short calls to
a thread pool cost more than the calls themselves. Each
connection has at most one request in flight (responses go out in
request order), request lines are capped at :data:`MAX_LINE_BYTES`, and
TCP backpressure paces a client that stops reading, so nothing queues
without bound.

Two more server-side concerns, each tied to an existing subsystem:

* **Observability** (:mod:`repro.obs`): per-op latency histograms
  (``serving.latency_ms.support`` and siblings), request/error/
  connection counters, and one ``serve_request`` span per request when
  a tracer is installed (recorded via
  :meth:`repro.obs.Tracer.complete_span`, so the span needs no open
  span stack).
* **Graceful drain** (:meth:`ReproServer.stop`): stop accepting, close
  idle connections, let responses already being written flush, and
  publish the pool's final counters.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.errors import DatasetError, ExperimentError, ReproError, TreeError
from repro.obs import metrics as _metrics
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import get_tracer
from repro.serving.store import ServingStore

if TYPE_CHECKING:  # follow imports streaming, which imports this package
    from repro.serving.follow import FollowingStore

#: Longest accepted request line; longer lines poison the stream and
#: close the connection with a ``bad_request`` response.
MAX_LINE_BYTES = 1 << 16

#: Largest ``k`` a topk request may ask for, and the largest rule-query
#: ``limit`` — both bound per-request response size.
MAX_TOPK = 10_000
MAX_RULE_LIMIT = 1_000

#: Error kinds that are the client's fault: invalid parameters raised by
#: the query layer map to ``bad_request``; anything else is ``internal``.
_CLIENT_ERRORS = (TreeError, ExperimentError, DatasetError)


class _BadRequest(ReproError):
    """A request failed validation before reaching the query layer."""


def _scalar_list(value: Any, what: str) -> list[Hashable]:
    """Validate a JSON itemset/basket: a non-empty list of scalars."""
    if not isinstance(value, list) or not value:
        raise _BadRequest(f"{what} must be a non-empty list")
    for element in value:
        if isinstance(element, bool) or not isinstance(
            element, (int, float, str)
        ):
            raise _BadRequest(
                f"{what} elements must be numbers or strings, "
                f"got {type(element).__name__}"
            )
    return value


def _int_param(
    request: dict[str, Any], key: str, default: int | None, low: int, high: int
) -> int:
    value = request.get(key, default)
    if value is None:
        raise _BadRequest(f"missing required parameter {key!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise _BadRequest(f"{key} must be an integer")
    if not low <= value <= high:
        raise _BadRequest(f"{key} must be in [{low}, {high}], got {value}")
    return value


class ReproServer:
    """Query server over one shared serving store.

    Lifecycle: ``await start()`` binds (``port=0`` picks a free port,
    published back on ``self.port``), ``await serve_forever()`` blocks
    for CLI use, ``await stop()`` drains gracefully. All three run on
    one event loop, and so does every request.
    """

    def __init__(
        self,
        store: ServingStore | FollowingStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self._registry = registry if registry is not None else _metrics
        self._draining = False
        self._stopped = False
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._client_tasks: set[asyncio.Task[None]] = set()
        self._ops: dict[str, Callable[[dict[str, Any]], Any]] = {
            "support": self._op_support,
            "topk": self._op_topk,
            "rules": self._op_rules,
        }

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ReproError("serve_forever() requires start() first")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - CLI shutdown
            pass

    async def stop(self) -> None:
        """Graceful drain: flush started responses, then shut everything.

        Idempotent — a second call returns immediately, so a test (or the
        CLI's signal path) may stop a server its helper also stops.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
        # Requests run inline, so no connection is mid-request here: each
        # is parked in readline(), or in drain() flushing a response. A
        # transport flushes what it has buffered before it closes, so the
        # first kind sees EOF and the second delivers its response whole.
        for writer in list(self._connections):
            writer.close()
        if self._client_tasks:
            await asyncio.gather(*list(self._client_tasks), return_exceptions=True)
        # Since Python 3.12 this also waits for every connection to close,
        # so it comes after the connections are closed, not before.
        if self._server is not None:
            await self._server.wait_closed()
        self.store.array.pool.publish_metrics(self._registry)

    # -- connection handling --------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = self._registry
        registry.add("serving.connections")
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line longer than MAX_LINE_BYTES: the stream is
                    # poisoned mid-line, so answer and hang up.
                    registry.add("serving.errors")
                    await self._send(
                        writer,
                        _error_response(
                            None,
                            "bad_request",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                response = self._handle_line(line)
                try:
                    await self._send(writer, response)
                except (ConnectionResetError, OSError):
                    break
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass

    async def _send(
        self, writer: asyncio.StreamWriter, response: dict[str, Any]
    ) -> None:
        writer.write(json.dumps(response, ensure_ascii=True).encode("ascii") + b"\n")
        await writer.drain()

    # -- request handling -----------------------------------------------

    def _handle_line(self, line: bytes) -> dict[str, Any]:
        started = time.perf_counter()
        registry = self._registry
        registry.add("serving.requests")
        request_id: Any = None
        op = "invalid"
        try:
            request = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            registry.add("serving.errors")
            return _error_response(None, "bad_request", f"not JSON: {exc}")
        if isinstance(request, dict):
            request_id = request.get("id")
        response: dict[str, Any]
        try:
            if not isinstance(request, dict):
                raise _BadRequest("request must be a JSON object")
            raw_op = request.get("op")
            # The metric/span label comes from a fixed vocabulary: a
            # client-chosen op string must not mint new histogram names.
            op = (
                raw_op
                if isinstance(raw_op, str)
                and (raw_op in self._ops or raw_op in ("ping", "stats"))
                else "invalid"
            )
            if op == "ping":
                response = _ok_response(request_id, "pong")
            elif op == "stats":
                response = _ok_response(request_id, self._stats())
            else:
                handler = self._ops.get(op)
                if handler is None:
                    raise _BadRequest(f"unknown op {raw_op!r}")
                response = _ok_response(request_id, handler(request))
        except _BadRequest as exc:
            registry.add("serving.errors")
            response = _error_response(request_id, "bad_request", str(exc))
        except _CLIENT_ERRORS as exc:
            registry.add("serving.errors")
            response = _error_response(request_id, "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001  # lint: ignore[INV004] - any unclassified failure becomes an "internal" response; the server must not die
            registry.add("serving.errors")
            response = _error_response(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        registry.observe(f"serving.latency_ms.{op}", elapsed_ms)
        tracer = get_tracer()
        if tracer is not None:
            attrs: dict[str, Any] = {"op": op, "ok": bool(response["ok"])}
            # A following store flips between snapshot generations under
            # live traffic; stamping the generation on every request span
            # makes a flip visible as a step in the trace.
            generation = getattr(self.store, "generation", None)
            if generation is not None:
                attrs["generation"] = generation
            tracer.complete_span("serve_request", started, attrs)
        return response

    # -- op handlers ----------------------------------------------------

    def _op_support(self, request: dict[str, Any]) -> int:
        items = _scalar_list(request.get("items"), "items")
        return self.store.support(items)

    def _op_topk(self, request: dict[str, Any]) -> list[list[Any]]:
        k = _int_param(request, "k", None, 1, MAX_TOPK)
        min_length = _int_param(request, "min_length", 1, 1, 64)
        return [
            [list(itemset), support]
            for itemset, support in self.store.top_k(k, min_length=min_length)
        ]

    def _op_rules(self, request: dict[str, Any]) -> list[dict[str, Any]]:
        basket = _scalar_list(request.get("basket"), "basket")
        limit = _int_param(request, "limit", 10, 1, MAX_RULE_LIMIT)
        min_confidence = request.get("min_confidence", 0.5)
        if isinstance(min_confidence, bool) or not isinstance(
            min_confidence, (int, float)
        ):
            raise _BadRequest("min_confidence must be a number")
        rules = self.store.also_bought(
            basket, limit=limit, min_confidence=float(min_confidence)
        )
        return [
            {
                "antecedent": list(rule.antecedent),
                "consequent": list(rule.consequent),
                "support": rule.support,
                "confidence": rule.confidence,
                "lift": rule.lift,
            }
            for rule in rules
        ]

    def _stats(self) -> dict[str, Any]:
        """Cheap introspection op."""
        pool_stats = self.store.array.pool.stats
        registry = self._registry
        generation = getattr(self.store, "generation", None)
        stats: dict[str, Any] = {} if generation is None else {
            "generation": generation
        }
        return stats | {
            "draining": self._draining,
            "resident_bytes": self.store.resident_bytes,
            "pool": {
                "hits": pool_stats.hits,
                "faults": pool_stats.faults,
                "evictions": pool_stats.evictions,
            },
            "requests": registry.get("serving.requests"),
            "errors": registry.get("serving.errors"),
        }


def _ok_response(request_id: Any, result: Any) -> dict[str, Any]:
    response: dict[str, Any] = {"ok": True, "result": result}
    if request_id is not None:
        response["id"] = request_id
    return response


def _error_response(request_id: Any, code: str, message: str) -> dict[str, Any]:
    response: dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        response["id"] = request_id
    return response


__all__ = [
    "MAX_LINE_BYTES",
    "MAX_RULE_LIMIT",
    "MAX_TOPK",
    "ReproServer",
]
