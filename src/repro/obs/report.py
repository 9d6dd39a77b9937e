"""Trace-file consumers: parsing, per-phase summaries, Meter rebuilding.

``repro stats <trace.jsonl>`` renders :func:`format_trace_summary`;
:func:`meter_from_trace` folds the span stream back into a
:class:`repro.machine.Meter`, which is what makes the Meter a *consumer*
of the trace rather than a parallel bookkeeping system — the simulated
machine can price a run straight from its trace file, and the two views
cannot drift apart because they share one source of numbers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.machine.meter import Meter


class TraceError(ReproError):
    """A trace file is missing, malformed, or schema-incompatible."""


@dataclass
class Trace:
    """Parsed trace file: meta line, span dicts, metric name -> value."""

    meta: dict[str, Any]
    spans: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, float]] = field(default_factory=dict)


def is_trace_file(path: str | os.PathLike[str]) -> bool:
    """Cheap sniff: does the file start with a JSONL trace meta line?"""
    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            first = handle.readline().strip()
    except OSError:
        return False
    if not first.startswith("{"):
        return False
    try:
        record = json.loads(first)
    except json.JSONDecodeError:
        return False
    return isinstance(record, dict) and bool(record.get("type") == "meta")


def read_trace(path: str | os.PathLike[str]) -> Trace:
    """Parse a trace file, validating the line-level schema as it goes."""
    meta: dict[str, Any] | None = None
    spans: list[dict[str, Any]] = []
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, float]] = {}
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{line_no}: not JSON: {exc}") from None
            kind = record.get("type")
            if kind == "meta":
                if meta is not None:
                    raise TraceError(f"{path}:{line_no}: duplicate meta line")
                meta = record
            elif kind == "span":
                spans.append(record)
            elif kind == "metric":
                if record.get("kind") == "gauge":
                    gauges[record["name"]] = float(record["value"])
                elif record.get("kind") == "histogram":
                    histograms[record["name"]] = dict(record["value"])
                else:
                    counters[record["name"]] = int(record["value"])
            else:
                raise TraceError(
                    f"{path}:{line_no}: unknown record type {kind!r}"
                )
    if meta is None:
        raise TraceError(f"{path}: no meta line; not a trace file")
    return Trace(
        meta=meta,
        spans=spans,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
    )


def meter_from_trace(spans: list[dict[str, Any]]) -> Meter:
    """Rebuild a Meter from the span stream.

    Every span that carries instrumentation deltas (``ops``,
    ``bytes_touched``, ``io_bytes`` attributes — written exclusively by
    the meter-bridge at the instrumented call sites) contributes them to
    a phase named after the span. The rebuilt meter's per-phase and total
    counters equal the live meter's by construction.
    """
    meter = Meter()
    for span in spans:
        attrs = span.get("attrs") or {}
        if not any(k in attrs for k in ("ops", "bytes_touched", "io_bytes")):
            continue
        name = _phase_of(span)
        target = next((p for p in meter.phases if p.name == name), None)
        if target is None:
            target = meter.begin_phase(name)
        ops = int(attrs.get("ops", 0))
        target.ops += ops
        target.bytes_touched += int(attrs.get("bytes_touched", 0))
        target.io_bytes += int(attrs.get("io_bytes", 0))
        meter._total_ops += ops
        meter._integral += float(attrs.get("integral", 0.0))
        peak = int(attrs.get("peak_bytes", 0))
        if peak > meter.peak_bytes:
            meter.peak_bytes = peak
        if peak > target.footprint_bytes:
            target.footprint_bytes = peak
    return meter


#: Span-name prefixes mapped onto canonical phase names for summaries.
_PHASE_OF_SPAN = {
    "mine_rank": "mine",
    "mine_parallel": "mine",
    "mine": "mine",
    "build": "build",
    "stream_batch": "build",
    "convert": "convert",
}


def _phase_of(span: dict[str, Any]) -> str:
    name: str = span["name"]
    return _PHASE_OF_SPAN.get(name, name)


def summarize_spans(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Group spans by name: count, wall, ops, bytes touched.

    Parent spans that merely wrap children (``mine_parallel``) carry no
    delta attributes, so summing a group never double-counts work.
    """
    groups: dict[str, dict[str, Any]] = {}
    for span in spans:
        attrs = span.get("attrs") or {}
        group = groups.setdefault(
            span["name"],
            {"name": span["name"], "count": 0, "wall_s": 0.0, "ops": 0,
             "bytes_touched": 0, "workers": set()},
        )
        group["count"] += 1
        group["wall_s"] += float(span.get("dur", 0.0))
        group["ops"] += int(attrs.get("ops", 0))
        group["bytes_touched"] += int(attrs.get("bytes_touched", 0))
        if span.get("worker") is not None:
            group["workers"].add(span["worker"])
    ordered = sorted(groups.values(), key=lambda g: -g["wall_s"])
    for group in ordered:
        group["workers"] = len(group["workers"])
    return ordered


#: Cache-like counter families rendered as hit ratios: family ->
#: (hit counter, miss/fault counter).
_RATIO_FAMILIES = {
    "subarray_cache": ("subarray_cache.hits", "subarray_cache.misses"),
    "bufferpool": ("bufferpool.hits", "bufferpool.faults"),
}


def format_trace_summary(trace: Trace) -> str:
    """Fixed-width per-phase table plus the metric roll-up."""
    lines = [
        f"trace v{trace.meta.get('version')} — {len(trace.spans)} spans, "
        f"pid {trace.meta.get('pid')}",
        f"{'span':<16} {'count':>6} {'workers':>7} {'wall_s':>9} "
        f"{'ops':>12} {'MB_touched':>11}",
    ]
    for group in summarize_spans(trace.spans):
        lines.append(
            f"{group['name']:<16} {group['count']:>6} {group['workers']:>7} "
            f"{group['wall_s']:>9.4f} {group['ops']:>12} "
            f"{group['bytes_touched'] / 1e6:>11.3f}"
        )
    rebuilt = meter_from_trace(trace.spans)
    lines.append(
        f"meter totals: {rebuilt.total_ops} ops, "
        f"{sum(p.bytes_touched for p in rebuilt.phases)} bytes touched, "
        f"peak {rebuilt.peak_bytes} bytes"
    )
    for family, (hit_name, miss_name) in sorted(_RATIO_FAMILIES.items()):
        hits = trace.counters.get(hit_name, 0)
        misses = trace.counters.get(miss_name, 0)
        if hits or misses:
            ratio = hits / (hits + misses)
            extras = " ".join(
                f"{name.split('.', 1)[1]}={value}"
                for name, value in sorted(trace.counters.items())
                if name.startswith(family + ".")
                and name not in (hit_name, miss_name)
            )
            lines.append(
                f"{family}: {hits} hits / {misses} misses "
                f"({ratio:.1%} hit ratio){' ' + extras if extras else ''}"
            )
    remaining = sorted(
        name
        for name in trace.counters
        if not any(name.startswith(f + ".") for f in _RATIO_FAMILIES)
    )
    for name in remaining:
        lines.append(f"{name}: {trace.counters[name]}")
    for name, value in sorted(trace.gauges.items()):
        lines.append(f"{name}: {value:g}")
    for name, summary in sorted(trace.histograms.items()):
        lines.append(
            f"{name}: n={summary.get('count', 0):g} "
            f"p50={summary.get('p50', 0.0):.3g} "
            f"p99={summary.get('p99', 0.0):.3g} "
            f"max={summary.get('max', 0.0):.3g}"
        )
    return "\n".join(lines)
