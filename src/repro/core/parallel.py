"""Parallel mine phase over a shared-memory CFP-array.

The CFP-array is an immutable byte buffer plus a small item index — a
textbook candidate for zero-copy fan-out (the partitioned conditional
mining of PFP-style systems, see PAPERS.md). This module publishes the
buffer once through :mod:`multiprocessing.shared_memory` and runs the
top-level mine loop's per-rank bodies (:func:`repro.core.cfp_growth.mine_rank`)
as tasks on a persistent worker pool:

* **One segment, no copies.** The parent packs ``[header | item index |
  buffer]`` into one POSIX shared-memory segment; workers attach and wrap
  the payload in a :class:`memoryview`-backed :class:`CfpArray`. Nothing
  is pickled per task beyond ``(segment name, rank, min_support)``.
* **Size-aware scheduling.** Tasks are *submitted* largest-subarray-first
  so the biggest conditional trees start earliest (classic LPT
  scheduling), but results are *merged* in the serial loop's order
  (descending rank), making output byte-identical to the serial miner for
  any worker count and any scheduling order.
* **Replayed events, not expanded itemsets.** Workers record the exact
  collector calls (``emit`` / ``emit_path_subsets``) and the parent
  replays them into the caller's collector — so a ``CountCollector``
  keeps counting single-path subsets combinatorially instead of having
  them materialized in the workers.
* **Instrumentation survives the fan-out.** When the caller passes a
  :class:`repro.machine.Meter` or has a tracer installed
  (:func:`repro.obs.set_tracer`), each worker runs its own meter and
  tracer; the worker's span records — the meter state rides inside the
  ``mine_rank`` span — come back through the same result channel as the
  events and are folded in deterministically (descending rank), so a
  ``--jobs N`` trace merges identically run to run.

Lifecycle: the parent creates the segment, workers attach per task (and
de-register it from their resource tracker — the parent owns unlinking),
and the parent closes **and unlinks** in a ``finally`` so the segment is
reclaimed even when a worker dies mid-mine. Worker-side attachments are
cached per segment name and dropped as soon as a task for a different
segment arrives. See docs/performance.md for the full walk-through.
"""

from __future__ import annotations

import atexit
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_all_start_methods, get_context, resource_tracker
from multiprocessing import shared_memory
from multiprocessing.context import BaseContext
from typing import Any, Sequence

from repro import faultinject, obs
from repro.core import kernels
from repro.core.cfp_array import CfpArray
from repro.core.cfp_growth import (
    SupportCollector,
    mine_array,
    mine_rank,
    mine_rank_span,
)
from repro.errors import ParallelMineError, SupervisionError
from repro.machine import Meter
from repro.obs.tracer import Tracer
from repro.runtime import RetryPolicy, Supervisor, default_policy

#: Segment layout: magic, format version, n_ranks, buffer length — followed
#: by ``n_ranks + 2`` little-endian u64 item-index entries, then the buffer.
_HEADER = struct.Struct("<8sHxxxxxxQQ")

_MAGIC = b"CFPSHM\x00\x00"

_FORMAT_VERSION = 1

#: One recorded collector call: ``("i", itemset, support)`` or
#: ``("p", path, suffix)``.
_Event = tuple[str, Any, Any]

#: One worker task's result: replayable events, exported span records
#: (None when uninstrumented), and the worker's metric-registry movement.
_TaskResult = tuple[list[_Event], list[dict[str, Any]] | None, dict[str, int] | None]

#: Worker pools keyed by worker count, reused across mine calls so repeated
#: parallel mining (benchmarks, experiments, tests) pays pool start-up once.
_POOLS: dict[int, ProcessPoolExecutor] = {}

#: Below this CFP-array size the fan-out overhead (segment copy, task
#: submission, event replay) reliably exceeds the mining work itself, so
#: :func:`mine_array_parallel` falls back to the serial miner. Override with
#: the ``REPRO_PARALLEL_MIN_BYTES`` environment variable (0 disables the
#: fallback); ``force=True`` bypasses it per call.
DEFAULT_PARALLEL_MIN_BYTES = 256 * 1024


def _parallel_min_bytes() -> int:
    """The serial-fallback threshold, read from the environment at call time."""
    raw = os.environ.get("REPRO_PARALLEL_MIN_BYTES")
    if raw is None:
        return DEFAULT_PARALLEL_MIN_BYTES
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_PARALLEL_MIN_BYTES

#: Worker-side cache: segment name -> (segment, payload view, array).
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, memoryview, CfpArray]] = {}


class _EventCollector:
    """Records collector calls verbatim for replay in the parent."""

    def __init__(self) -> None:
        self.events: list[_Event] = []

    def emit(self, itemset: tuple[int, ...], support: int) -> None:
        self.events.append(("i", itemset, support))

    def emit_path_subsets(
        self, path: list[tuple[int, int]], suffix: tuple[int, ...]
    ) -> None:
        self.events.append(("p", path, suffix))


# ----------------------------------------------------------------------
# Shared-memory publication (parent side)
# ----------------------------------------------------------------------


def publish_array(array: CfpArray) -> shared_memory.SharedMemory:
    """Copy ``array`` into a fresh shared-memory segment (create side).

    The caller owns the segment and must ``close()`` and ``unlink()`` it —
    :func:`mine_array_parallel` does both in a ``finally``.
    """
    starts_blob = struct.pack(f"<{len(array.starts)}Q", *array.starts)
    buffer_len = len(array.buffer)
    total = _HEADER.size + len(starts_blob) + buffer_len
    segment = shared_memory.SharedMemory(create=True, size=total)
    view = memoryview(segment.buf)
    try:
        _HEADER.pack_into(view, 0, _MAGIC, _FORMAT_VERSION, array.n_ranks, buffer_len)
        offset = _HEADER.size
        view[offset:offset + len(starts_blob)] = starts_blob
        offset += len(starts_blob)
        view[offset:offset + buffer_len] = bytes(array.buffer)
    finally:
        view.release()
    return segment


def attach_array(name: str, cache_budget: int = 0) -> CfpArray:
    """Attach to a published segment and wrap it as a zero-copy CfpArray.

    The attachment is cached per segment name; attaching to a new name
    drops every previously cached attachment (the parent never interleaves
    segments, so an old name can no longer receive tasks).
    """
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[2]
    faultinject.fire("parallel.attach", segment=name)
    _detach_all()
    segment = _attach_untracked(name)
    base = memoryview(segment.buf)
    magic, version, n_ranks, buffer_len = _HEADER.unpack_from(base, 0)
    if magic != _MAGIC or version != _FORMAT_VERSION:
        base.release()
        segment.close()
        raise ParallelMineError(
            f"shared segment {name!r} is not a v{_FORMAT_VERSION} CFP-array"
        )
    starts_end = _HEADER.size + (n_ranks + 2) * 8
    starts = list(struct.unpack_from(f"<{n_ranks + 2}Q", base, _HEADER.size))
    payload = base[starts_end:starts_end + buffer_len]
    base.release()
    array = CfpArray(n_ranks, payload, starts, cache_budget=cache_budget)
    _ATTACHED[name] = (segment, payload, array)  # lint: ignore[EFF001] - per-worker attachment cache, keyed by segment name
    return array


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker.

    Until Python 3.13 grew ``track=False``, merely *attaching* also
    registered the segment with the attaching process's resource tracker.
    The parent alone owns the unlink; a worker-side registration would
    either double-book the shared (fork) tracker or — worse, under spawn —
    have a worker's private tracker unlink the segment while the parent
    still serves tasks from it. Suppressing the registration for the
    duration of the attach sidesteps both.
    """
    original_register = resource_tracker.register

    def _skip(name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - other resources
            original_register(name, rtype)

    resource_tracker.register = _skip  # type: ignore[assignment]  # lint: ignore[EFF001] - scoped monkeypatch, restored in the finally below
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register  # type: ignore[assignment]  # lint: ignore[EFF001] - restores the original register


def _detach_all() -> None:
    """Release every cached worker-side attachment."""
    while _ATTACHED:
        __, (segment, payload, array) = _ATTACHED.popitem()
        del array
        payload.release()
        try:
            segment.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass


# ----------------------------------------------------------------------
# Worker task
# ----------------------------------------------------------------------


def _mine_rank_task(
    name: str,
    rank: int,
    min_support: int,
    suffix: tuple[int, ...],
    cache_budget: int,
    want_meter: bool,
    want_trace: bool,
    faults: tuple[str, str | None] | None = None,
) -> tuple[list[_Event], list[dict[str, Any]] | None, dict[str, int] | None]:
    """Run one top-level rank through the serial per-rank code path.

    Returns ``(events, span_records, metrics_delta)``. Instrumentation
    travels exclusively as span records: the worker's Meter state rides
    in the ``mine_rank`` span's ``meter`` attribute and the parent folds
    it back with :meth:`Meter.from_record` + :meth:`Meter.merge` — the
    span stream is the one channel, so trace and meter cannot drift.
    ``metrics_delta`` carries this task's movement of the shared
    attachment's subarray cache (traced runs only).

    ``faults`` is the parent's exported fault-injection plan (``None``
    outside chaos runs); it is adopted before anything else so count-
    bounded faults share one cross-process budget.
    """
    faultinject.adopt(faults)
    faultinject.fire("mine.worker", rank=rank)
    array = attach_array(name, cache_budget)
    collector = _EventCollector()
    if not (want_meter or want_trace):
        mine_rank(array, rank, min_support, collector, suffix, None)
        return collector.events, None, None
    meter = Meter()
    tracer = Tracer()
    cache_before = array.cache_counts()
    span = mine_rank_span(tracer, array, rank, min_support, collector, suffix, meter)
    # A finished span's attrs are its record's: the meter rides in it.
    span.set("meter", meter.to_record())
    delta: dict[str, int] = {}
    if want_trace:
        for key, value in array.cache_counts().items():
            moved = value - cache_before[key]
            if moved:
                delta[f"subarray_cache.{key}"] = moved
    return collector.events, tracer.export(), delta or None


# ----------------------------------------------------------------------
# Pool management (parent side)
# ----------------------------------------------------------------------


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        # fork is the cheapest start method and shares the loaded modules;
        # platforms without it (Windows) fall back to their default.
        context: BaseContext
        if "fork" in get_all_start_methods():
            context = get_context("fork")
        else:
            context = get_context()
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Tear down every cached worker pool (idempotent; also ran at exit)."""
    while _POOLS:
        __, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


def _noop() -> None:  # pragma: no cover - trivial warm-up task body
    return None


def warm_pool(workers: int) -> None:
    """Start (and fully spawn) the cached pool for ``workers`` workers.

    ``ProcessPoolExecutor`` forks its processes lazily on first submit, so
    the first parallel call after import pays the whole spawn cost.
    Benchmarks call this before their timed legs so pool start-up is not
    attributed to the phase under measurement.
    """
    pool = _get_pool(workers)
    for future in [pool.submit(_noop) for __ in range(workers)]:
        future.result()


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# The parallel mine phase
# ----------------------------------------------------------------------


def mine_array_parallel(
    array: CfpArray,
    min_support: int,
    collector: SupportCollector,
    suffix: tuple[int, ...] = (),
    meter: Any = None,
    jobs: int = 1,
    rank_order: Sequence[int] | None = None,
    force: bool = False,
    policy: RetryPolicy | None = None,
) -> None:
    """Mine ``array`` with ``jobs`` workers; output is byte-identical to
    :func:`repro.core.cfp_growth.mine_array` for any worker count.

    ``jobs <= 1`` (or a trivially small array) delegates to the serial
    miner unchanged, preserving its in-process Meter instrumentation.
    Arrays under :data:`DEFAULT_PARALLEL_MIN_BYTES` (override via the
    ``REPRO_PARALLEL_MIN_BYTES`` environment variable) also run serially —
    on small inputs the fan-out overhead dwarfs the mining itself, and a
    ``--jobs N`` run should never be slower than ``--jobs 1``. ``force``
    bypasses the size fallback (tests of the parallel machinery on small
    fixtures, overhead measurements), never the argument validation.

    ``rank_order`` overrides the size-aware submission order — it must be
    a permutation of the active ranks. Scheduling order never affects
    output (the determinism property tests shuffle it to prove that);
    the default orders by subarray byte length, largest first, so the
    most expensive conditional trees start before the long tail.

    Tasks run under a :class:`repro.runtime.Supervisor` with ``policy``
    (default :func:`repro.runtime.default_policy`): a dead worker, hung
    task, or transient attach failure re-executes only the affected
    ranks — completed per-rank results are kept, and the fixed
    descending-rank merge keeps the output byte-identical across any
    retry schedule. When supervision fails outright the call degrades
    to the serial miner (counting ``parallel.degraded_serial``) unless
    ``policy.fallback_serial`` is off, in which case it raises
    :class:`repro.errors.ParallelMineError`.
    """
    ranks = list(array.active_ranks_descending())
    if jobs <= 1 or len(ranks) <= 1 or len(array.buffer) == 0:
        mine_array(array, min_support, collector, suffix, meter)
        return
    if rank_order is None:
        order = sorted(ranks, key=lambda r: (-array.subarray_bytes(r), r))
    else:
        order = list(rank_order)
        if sorted(order) != sorted(ranks):
            raise ParallelMineError(
                "rank_order must be a permutation of the active ranks"
            )
    if not force and array.memory_bytes < _parallel_min_bytes():
        # Small array: the serial miner wins outright. Count the decision
        # so a trace of a --jobs N run explains why no workers appear
        # (gated on a tracer like every other metric publication).
        if obs.get_tracer() is not None:
            obs.metrics.add("parallel.serial_fallback")
        mine_array(array, min_support, collector, suffix, meter)
        return
    if policy is None:
        policy = default_policy()
    workers = min(jobs, len(ranks))
    parent_tracer = obs.get_tracer()
    want_trace = parent_tracer is not None
    segment = publish_array(array)
    results: dict[int, _TaskResult] = {}
    with obs.maybe_span(
        "mine_parallel",
        jobs=workers,
        ranks=len(ranks),
        kernel_backend=kernels.backend(),
    ):
        parent_span_id = (
            parent_tracer.current_span_id if parent_tracer is not None else None
        )
        try:
            faults = faultinject.exported()
            tasks: dict[int, tuple[Any, tuple[Any, ...]]] = {
                rank: (
                    _mine_rank_task,
                    (
                        segment.name,
                        rank,
                        min_support,
                        suffix,
                        array.cache_budget,
                        meter is not None,
                        want_trace,
                        faults,
                    ),
                )
                for rank in order
            }
            supervisor = Supervisor(
                lambda: _get_pool(workers),
                policy,
                phase="mine",
                pool_reset=shutdown_pools,
            )
            try:
                results = supervisor.run(tasks)
            except SupervisionError as exc:
                if not policy.fallback_serial:
                    raise ParallelMineError(
                        f"parallel mine failed ({exc}) and serial fallback "
                        f"is disabled"
                    ) from exc
                # Nothing has been emitted yet (events replay only after
                # every task succeeds), so the serial miner can take over
                # from scratch with byte-identical output.
                obs.metrics.add("parallel.degraded_serial")
                with obs.maybe_span(
                    "parallel.degraded_serial", phase="mine", reason=exc.kind
                ):
                    mine_array(array, min_support, collector, suffix, meter)
                return
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                pass
        # Deterministic merge: replay per-rank events (and fold in per-rank
        # instrumentation) in the serial loop's order (descending rank),
        # regardless of completion order.
        for index, rank in enumerate(ranks):
            events, records, metrics_delta = results[rank]
            for kind, first, second in events:
                if kind == "i":
                    collector.emit(first, second)
                else:
                    collector.emit_path_subsets(first, second)
            if records is not None:
                meter_record = None
                for record in records:
                    popped = (record.get("attrs") or {}).pop("meter", None)
                    if popped is not None:
                        meter_record = popped
                if meter is not None and meter_record is not None:
                    phase_name = meter.phases[-1].name if meter.phases else "mine"
                    meter.merge(Meter.from_record(meter_record), rename_to=phase_name)
                if parent_tracer is not None:
                    parent_tracer.ingest(
                        records, parent_id=parent_span_id, worker=index
                    )
            if metrics_delta:
                for key, value in metrics_delta.items():
                    obs.metrics.add(key, value)
