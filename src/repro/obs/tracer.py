"""Span-based tracing: nested, timed spans with structured attributes.

A :class:`Tracer` collects :class:`SpanRecord` entries; one is installed
process-wide with :func:`set_tracer` and instrumented call sites fetch it
with :func:`get_tracer`. When no tracer is installed (the default) every
instrumented site reduces to one ``is None`` check, so the disabled-path
overhead is a pointer comparison.

Worker processes build their own tracers and ship ``export()``-ed records
back through the parallel miner's event-replay channel; the parent folds
them in with :meth:`Tracer.ingest`, re-parenting the foreign roots under
its current span in deterministic (rank) order.

Trace files are JSON Lines (see docs/observability.md): one ``meta``
line, one line per span, then one line per metric from the registry.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.registry import MetricsRegistry

#: Trace file schema version, bumped on incompatible layout changes.
TRACE_VERSION = 1


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    """Start time, seconds since the owning tracer's origin."""
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    worker: int | None = None
    """Worker ordinal for ingested foreign spans; None for local spans."""

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": round(self.start_s, 6),
            "dur": round(self.duration_s, 6),
            "attrs": self.attrs,
            "worker": self.worker,
        }


class Span:
    """Handle for an open span: mutate ``attrs`` while the span runs."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start_s")

    def __init__(
        self, span_id: int, parent_id: int | None, name: str, attrs: dict[str, Any]
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add(self, key: str, value: int = 1) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + value


class _NullSpan:
    """No-op stand-in yielded by :func:`maybe_span` when tracing is off."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        return None

    def add(self, key: str, value: int = 1) -> None:
        return None


#: Shared no-op span (stateless, safe to reuse).
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects closed spans; at most one is installed process-wide."""

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self.origin_unix = time.time()
        self._origin_perf = time.perf_counter()
        self._next_id = 1
        self._stack: list[Span] = []

    def _now(self) -> float:
        return time.perf_counter() - self._origin_perf

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; records on exit (exceptions included)."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1].span_id if self._stack else None
        handle = Span(span_id, parent_id, name, dict(attrs))
        self._stack.append(handle)
        start = self._now()
        try:
            yield handle
        finally:
            duration = self._now() - start
            self._stack.pop()
            self.records.append(
                SpanRecord(span_id, parent_id, name, start, duration, handle.attrs)
            )

    def begin_span(self, name: str, attrs: dict[str, Any]) -> Span:
        """Open a span without the contextmanager wrapper (hot loops).

        :meth:`span`'s generator suspend/resume and ``**kwargs`` repack
        cost a few microseconds per use — noise for phase-level spans,
        but the dominant tracing cost in a loop that opens hundreds of
        spans around sub-millisecond work (the per-rank mine loop).
        ``attrs`` is taken by reference, not copied. The caller must
        close the span with :meth:`end_span`, in a ``finally`` block if
        the spanned work can raise.
        """
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1].span_id if self._stack else None
        handle = Span(span_id, parent_id, name, attrs)
        self._stack.append(handle)
        handle.start_s = time.perf_counter() - self._origin_perf
        return handle

    def end_span(self, handle: Span) -> None:
        """Close a span opened with :meth:`begin_span` and record it.

        Must be called exactly once per handle, in LIFO order — the same
        discipline the contextmanager version enforces structurally.
        """
        duration = time.perf_counter() - self._origin_perf - handle.start_s
        self._stack.pop()
        self.records.append(
            SpanRecord(
                handle.span_id,
                handle.parent_id,
                handle.name,
                handle.start_s,
                duration,
                handle.attrs,
            )
        )

    @property
    def current_span_id(self) -> int | None:
        """Id of the innermost open span (None outside any span)."""
        return self._stack[-1].span_id if self._stack else None

    def complete_span(
        self, name: str, started_perf: float, attrs: dict[str, Any] | None = None
    ) -> SpanRecord:
        """Record an already-finished span from its raw start time.

        ``started_perf`` is a ``time.perf_counter()`` reading taken when
        the work began. The span is recorded as a *root* (no parent) and
        never touches the LIFO stack, so a caller that only knows a
        request's bounds once it is answered — the query server — cannot
        misnest the spans of whatever work runs around it. Must be called
        from the thread that owns the tracer (the server calls it from its
        event loop, which also runs every request).
        """
        span_id = self._next_id
        self._next_id += 1
        start_s = started_perf - self._origin_perf
        duration = time.perf_counter() - started_perf
        record = SpanRecord(
            span_id, None, name, start_s, duration, dict(attrs or {})
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Cross-process merge
    # ------------------------------------------------------------------

    def export(self) -> list[dict[str, Any]]:
        """Closed spans as JSON-able dicts (the worker->parent wire form)."""
        return [record.to_dict() for record in self.records]

    def ingest(
        self,
        records: list[dict[str, Any]],
        parent_id: int | None = None,
        worker: int | None = None,
    ) -> None:
        """Fold exported foreign records into this tracer.

        Span ids are re-assigned from this tracer's sequence and foreign
        *root* spans are re-parented under ``parent_id``, so calling this
        in a fixed order (the parallel miner uses descending rank) yields
        a deterministic merged structure regardless of worker scheduling.
        Foreign ``t0`` values stay on the worker's clock; ``worker`` tags
        every ingested span so consumers can tell the clocks apart.
        """
        id_map: dict[int, int] = {}
        for record in records:
            id_map[record["id"]] = self._next_id
            self._next_id += 1
        for record in records:
            foreign_parent = record.get("parent")
            new_parent = (
                id_map[foreign_parent] if foreign_parent in id_map else parent_id
            )
            self.records.append(
                SpanRecord(
                    span_id=id_map[record["id"]],
                    parent_id=new_parent,
                    name=record["name"],
                    start_s=record["t0"],
                    duration_s=record["dur"],
                    attrs=dict(record.get("attrs") or {}),
                    worker=worker,
                )
            )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def write_jsonl(
        self, path: str | os.PathLike[str], registry: MetricsRegistry | None = None
    ) -> int:
        """Write the trace file; returns the number of lines written."""
        lines = [
            json.dumps(
                {
                    "type": "meta",
                    "version": TRACE_VERSION,
                    "created_unix": round(self.origin_unix, 3),
                    "pid": os.getpid(),
                    "spans": len(self.records),
                }
            )
        ]
        for record in self.records:
            lines.append(json.dumps(record.to_dict()))
        if registry is not None:
            snapshot = registry.snapshot()
            for name, value in sorted(snapshot["counters"].items()):
                lines.append(
                    json.dumps(
                        {"type": "metric", "kind": "counter", "name": name, "value": value}
                    )
                )
            for name, gauge in sorted(snapshot["gauges"].items()):
                lines.append(
                    json.dumps(
                        {"type": "metric", "kind": "gauge", "name": name, "value": gauge}
                    )
                )
            for name, summary in sorted(snapshot.get("histograms", {}).items()):
                lines.append(
                    json.dumps(
                        {
                            "type": "metric",
                            "kind": "histogram",
                            "name": name,
                            "value": summary,
                        }
                    )
                )
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(lines)


# ----------------------------------------------------------------------
# Process-wide installation
# ----------------------------------------------------------------------

_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is off (the fast path)."""
    return _TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or with None remove) the process-wide tracer.

    Returns the previously installed tracer so callers can restore it.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer  # lint: ignore[EFF001] - installation point; workers install their own tracer and restore it per task
    return previous


@contextmanager
def maybe_span(name: str, **attrs: Any) -> Iterator[Span | _NullSpan]:
    """A span on the installed tracer, or :data:`NULL_SPAN` when off.

    Convenience for call sites that run rarely (saves, checkpoints).
    Hot loops should fetch :func:`get_tracer` once and branch on None
    instead, which keeps the disabled path allocation-free.
    """
    tracer = _TRACER
    if tracer is None:
        yield NULL_SPAN
    else:
        with tracer.span(name, **attrs) as handle:
            yield handle
