"""Compaction of partitioned (v3) CFP-array stores.

Partition payloads are page-padded, so a store accumulates *slack* —
pages kept on disk that hold no buffer bytes. Slack grows when partitions
are small (many one-page tails) or when a store written for one partition
size is re-sized for another. :func:`compact_store` measures that
fragmentation and, above a threshold, rewrites the whole store: the array
is loaded (every partition CRC verified), partitions are re-planned at
the target size, and the new file is written through a pluggable
:class:`~repro.storage.placement.PlacementPolicy` before atomically
replacing the old one (``os.replace``). Readers holding the old file
keep a consistent generation via their open handle; new opens see the
compacted store.

Each rewrite can place partitions through a different policy generation
(``repro compact --placement round-robin --generation N``), so repeated
compactions rotate partition payloads across the file (the
wear-leveling motivation; see docs/performance.md).

Counters (published per :func:`compact_store` call):
``compaction.runs``, ``compaction.partitions_rewritten``,
``compaction.bytes_written``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.storage.cfp_store import (
    DEFAULT_PARTITION_BYTES,
    load_cfp_array,
    pages_needed,
    plan_partitions,
    read_array_header,
    save_cfp_array_partitioned,
)
from repro.storage.pagefile import PAGE_SIZE, PageFile, fsync_dir
from repro.storage.placement import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class CompactionError(ReproError):
    """The target file is not a compactable partitioned store."""


@dataclass
class CompactionReport:
    """What one compaction pass found and did."""

    path: str
    ran: bool
    fragmentation: float
    partitions_before: int
    partitions_after: int = 0
    bytes_written: int = 0


def store_fragmentation(path: str | os.PathLike[str]) -> tuple[float, int]:
    """Slack fraction and partition count of a partitioned store.

    Fragmentation is the share of payload pages holding padding instead
    of buffer bytes: ``1 - buffer_len / (payload_pages * PAGE_SIZE)``.
    """
    with PageFile.open_readonly(path) as pagefile:
        header = read_array_header(pagefile)
    if not header.partitions:
        raise CompactionError(
            f"{os.fspath(path)} is not a partitioned (v3) CFP-array store"
        )
    payload_bytes = sum(part.pages for part in header.partitions) * PAGE_SIZE
    if payload_bytes == 0:
        return 0.0, len(header.partitions)
    return 1.0 - header.buffer_len / payload_bytes, len(header.partitions)


def compact_store(
    path: str | os.PathLike[str],
    *,
    partition_bytes: int = DEFAULT_PARTITION_BYTES,
    placement: PlacementPolicy | None = None,
    threshold: float = 0.0,
    registry: "MetricsRegistry | None" = None,
) -> CompactionReport:
    """Repack one partitioned store; no-op below ``threshold`` slack.

    The rewrite goes to a sibling temp file and lands with ``os.replace``,
    so a crash mid-compaction leaves the original store untouched. Loading
    the array verifies every page checksum and partition CRC first — a
    corrupt store raises instead of being "compacted" into a clean-looking
    one.
    """
    with PageFile.open_readonly(path) as pagefile:
        header = read_array_header(pagefile)
    if not header.partitions:
        raise CompactionError(
            f"{os.fspath(path)} is not a partitioned (v3) CFP-array store"
        )
    payload_pages = sum(part.pages for part in header.partitions)
    payload_bytes = payload_pages * PAGE_SIZE
    fragmentation = (
        1.0 - header.buffer_len / payload_bytes if payload_bytes else 0.0
    )
    report = CompactionReport(
        path=os.fspath(path),
        ran=False,
        fragmentation=fragmentation,
        partitions_before=len(header.partitions),
    )
    if fragmentation <= threshold:
        return report
    # Convergence guard: part of the slack is intrinsic (each partition's
    # final page is padded). If re-planning at the target size cannot
    # shrink the payload, a rewrite would change nothing — and a caller
    # whose threshold sits below the intrinsic slack would otherwise
    # rewrite the same bytes on every pass.
    planned = plan_partitions(header.starts, header.n_ranks, partition_bytes)
    planned_pages = sum(
        pages_needed(header.starts[last + 1] - header.starts[first])
        for first, last in planned
    )
    if planned_pages >= payload_pages:
        return report
    array = load_cfp_array(path)
    tmp_path = os.fspath(path) + ".compact.tmp"
    try:
        report.bytes_written = save_cfp_array_partitioned(
            array, tmp_path, partition_bytes=partition_bytes, placement=placement
        )
        os.replace(tmp_path, path)
        fsync_dir(os.path.dirname(os.fspath(path)))
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    with PageFile.open_readonly(path) as pagefile:
        report.partitions_after = len(read_array_header(pagefile).partitions)
    report.ran = True
    if registry is None:
        from repro.obs import metrics as registry  # type: ignore[no-redef]
    assert registry is not None
    registry.add("compaction.runs", 1)
    registry.add("compaction.partitions_rewritten", report.partitions_after)
    registry.add("compaction.bytes_written", report.bytes_written)
    return report


__all__ = [
    "CompactionError",
    "CompactionReport",
    "compact_store",
    "store_fragmentation",
]
