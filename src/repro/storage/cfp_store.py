"""On-disk formats for the CFP structures, and out-of-core mining.

**CFP-array file** (magic ``CFPA``): a header blob — version, ``n_ranks``,
buffer length, the item index (``starts``) — followed by the raw varint
buffer, page-aligned. :func:`load_cfp_array` reads it into memory;
:class:`repro.storage.partitioned.PartitionedCfpArray` reads any version
through a :class:`repro.storage.BufferPool` instead, keeping only the
item index in memory, as the paper's "small item index" does.

**CFP-tree checkpoint** (magic ``CFPT``): the arena's used prefix plus the
allocator state (next-free pointer, free-queue heads) and the tree's
metadata, so a build phase can be suspended and resumed exactly.

**Integrity (format version 2):** both formats append a *checksum trailer*
after the content pages — one little-endian CRC32 per content page (header
pages included), packed sequentially and padded to a page boundary. The
loaders verify every content page's checksum and raise
:class:`StorageFormatError` on the first mismatch; version-1 files (no
trailer) are still read. ``repro check`` / :mod:`repro.analysis.storecheck`
run the same verification offline and report every corrupt page.

**Partitioned CFP-array (format version 3):** the buffer is split by
leading-rank group into independently loadable, page-aligned partitions
described by a manifest (per-partition rank range, byte extent, first
data page, CRC32 of the raw bytes) appended to the header after the item
index. Header offsets are identical to v2 — the formerly reserved u32 at
offset 8 carries the partition count — so every v2 reader field parses
unchanged, and v1/v2 files still load. Partition payloads may be placed
in any file order (see :mod:`repro.storage.placement`); the manifest is
always in rank order. :class:`repro.storage.partitioned.PartitionedCfpArray`
mines every store partition-at-a-time, a v1/v2 file as one partition;
see docs/formats.md §4.5.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import TYPE_CHECKING, Any, BinaryIO, Iterator, NamedTuple

from repro import faultinject
from repro.core.cfp_array import CfpArray
from repro.core.ternary import TernaryCfpTree
from repro.errors import ReproError
from repro.memman.arena import Arena
from repro.obs import maybe_span
from repro.storage.pagefile import PAGE_SIZE, PageFile, fsync_dir

if TYPE_CHECKING:
    from repro.storage.placement import PlacementPolicy

_ARRAY_MAGIC = b"CFPA"
_TREE_MAGIC = b"CFPT"

#: Current monolithic on-disk format version (2 = CRC32 checksum trailer).
FORMAT_VERSION = 2

#: Partitioned CFP-array format version (3 = partition manifest + CRCs).
PARTITIONED_FORMAT_VERSION = 3

#: Versions the loaders accept.
SUPPORTED_VERSIONS = (1, 2, 3)

#: Bytes per page checksum in the trailer (CRC32, ``<I``).
CHECKSUM_SIZE = 4

#: Default target payload bytes per partition when saving format v3.
DEFAULT_PARTITION_BYTES = 64 * PAGE_SIZE

#: One manifest record: first_rank, last_rank, byte_len, data_page, crc.
_PARTITION_RECORD = struct.Struct("<IIQQI")


class StorageFormatError(ReproError):
    """A file is not a valid CFP store."""


# ----------------------------------------------------------------------
# Page/checksum helpers (shared with repro.analysis.storecheck)
# ----------------------------------------------------------------------

def pages_needed(n_bytes: int) -> int:
    """Pages a blob occupies via :meth:`PageFile.append_blob` (min 1)."""
    return max(1, -(-n_bytes // PAGE_SIZE))


def _page_padded(blob: bytes) -> bytes:
    """Pad ``blob`` to a whole number of pages (at least one)."""
    return blob.ljust(pages_needed(len(blob)) * PAGE_SIZE, b"\x00")


def page_checksum(page: bytes) -> int:
    """CRC32 of one page's 4096 bytes."""
    return zlib.crc32(page) & 0xFFFFFFFF


def checksum_trailer(content: bytes) -> bytes:
    """Checksum trailer for page-aligned ``content``: one CRC32 per page."""
    checksums = bytearray()
    for offset in range(0, len(content), PAGE_SIZE):
        checksums += struct.pack("<I", page_checksum(content[offset : offset + PAGE_SIZE]))
    return bytes(checksums)


def trailer_pages(content_pages: int) -> int:
    """Pages the checksum trailer occupies for ``content_pages`` pages."""
    return pages_needed(content_pages * CHECKSUM_SIZE)


def iter_checksum_mismatches(
    pagefile: PageFile, content_pages: int
) -> Iterator[tuple[int, int, int]]:
    """Verify the trailer of an open v2 page file.

    Yields ``(page_no, stored_crc, actual_crc)`` for every content page
    whose checksum does not match. Yields nothing for an intact file.
    """
    trailer = bytearray()
    for page_no in range(content_pages, pagefile.page_count):
        trailer += pagefile.read_page(page_no)
    if len(trailer) < content_pages * CHECKSUM_SIZE:
        raise StorageFormatError(
            f"checksum trailer truncated: {len(trailer)} bytes for "
            f"{content_pages} content pages"
        )
    for page_no in range(content_pages):
        stored = struct.unpack_from("<I", trailer, page_no * CHECKSUM_SIZE)[0]
        actual = page_checksum(pagefile.read_page(page_no))
        if stored != actual:
            yield page_no, stored, actual


def _verify_content(pagefile: PageFile, content_pages: int, version: int) -> None:
    """Raise on the first checksum mismatch (no-op for version-1 files)."""
    if version < 2:
        return
    for page_no, stored, actual in iter_checksum_mismatches(pagefile, content_pages):
        raise StorageFormatError(
            f"page {page_no} checksum mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )


def _write_pages(path: str | os.PathLike[str], content: bytes) -> int:
    """Atomically persist page content plus its checksum trailer.

    Writes go to a private (mode 0600) sibling temp file, fsynced before
    an ``os.replace`` onto ``path`` and followed by a directory fsync —
    so a crash at any point leaves either the old file or the complete
    new one, never a torn store, and a checkpoint carrying user data is
    never world-readable (not even transiently).
    """
    final = os.fspath(path)
    tmp = f"{final}.tmp.{os.getpid()}"
    try:
        with PageFile.create_private(tmp) as pagefile:
            pagefile.append_blob(content)
            pagefile.append_blob(checksum_trailer(content))
            size = pagefile.page_count * PAGE_SIZE
            pagefile.sync()
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    fsync_dir(os.path.dirname(final))
    return size


def _write_store(path: str | os.PathLike[str], header: bytes, payload: bytes) -> int:
    """Write header + payload page-aligned, then the checksum trailer."""
    return _write_pages(path, _page_padded(header) + _page_padded(payload))


# ----------------------------------------------------------------------
# CFP-array persistence
# ----------------------------------------------------------------------

class PartitionInfo(NamedTuple):
    """One manifest record of a partitioned (v3) CFP-array file.

    ``index`` is the rank-order position in the manifest; ``data_page``
    is the partition's first payload page in the *file*, which placement
    policies may order differently. ``crc`` is ``None`` for the single
    partition a reader makes of a v1/v2 file, which has no manifest.
    """

    index: int
    first_rank: int
    last_rank: int
    byte_len: int
    data_page: int
    crc: int | None

    @property
    def pages(self) -> int:
        """File pages the partition payload occupies (page-padded, min 1)."""
        return pages_needed(self.byte_len)


class ArrayHeader(NamedTuple):
    """Parsed CFP-array file header."""

    version: int
    n_ranks: int
    buffer_len: int
    starts: list[int]
    data_page: int
    """First payload page (== number of header pages)."""

    partitions: tuple[PartitionInfo, ...] = ()
    """Partition manifest in rank order (empty for v1/v2 files)."""

    @property
    def payload_pages(self) -> int:
        if self.partitions:
            return sum(part.pages for part in self.partitions)
        if self.version >= PARTITIONED_FORMAT_VERSION:
            return 0
        return pages_needed(self.buffer_len)

    @property
    def content_pages(self) -> int:
        return self.data_page + self.payload_pages


def plan_partitions(
    starts: list[int], n_ranks: int, target_bytes: int
) -> list[tuple[int, int]]:
    """Greedily group contiguous leading ranks into partition rank ranges.

    Each range ``(first_rank, last_rank)`` accumulates subarrays until
    adding the next rank would exceed ``target_bytes`` (a single oversized
    rank still gets its own partition — ranges never split a subarray).
    Every rank ``1..n_ranks`` is covered exactly once, in order; empty
    trailing ranks ride along with the preceding group.
    """
    target = max(1, target_bytes)
    ranges: list[tuple[int, int]] = []
    first = 1
    acc = 0
    for rank in range(1, n_ranks + 1):
        size = starts[rank + 1] - starts[rank]
        if acc > 0 and acc + size > target:
            ranges.append((first, rank - 1))
            first = rank
            acc = 0
        acc += size
    if n_ranks >= 1:
        ranges.append((first, n_ranks))
    return ranges


def save_cfp_array(array: CfpArray, path: str | os.PathLike[str]) -> int:
    """Write a CFP-array to ``path``; returns the file size in bytes."""
    header = bytearray()
    header += _ARRAY_MAGIC
    header += struct.pack("<II", FORMAT_VERSION, 0)
    header += struct.pack("<QQ", array.n_ranks, len(array.buffer))
    for start in array.starts:
        header += struct.pack("<Q", start)
    with maybe_span("store_save_array", path=str(path)) as span:
        size = _write_store(path, bytes(header), bytes(array.buffer))
        span.set("bytes", size)
    return size


def _header_pages(n_ranks: int, n_partitions: int = 0) -> int:
    header_size = 4 + 8 + 16 + 8 * (n_ranks + 2)
    header_size += n_partitions * _PARTITION_RECORD.size
    return pages_needed(header_size)


def save_cfp_array_partitioned(
    array: CfpArray,
    path: str | os.PathLike[str],
    *,
    partition_bytes: int = DEFAULT_PARTITION_BYTES,
    placement: "PlacementPolicy | None" = None,
) -> int:
    """Write a CFP-array as a partitioned (v3) store; returns the file size.

    The buffer is split by :func:`plan_partitions` into leading-rank
    groups, each written page-aligned so it can be loaded (and prefetched)
    independently. ``placement`` decides the *file order* of the partition
    payloads (default: manifest order, i.e. append); the manifest records
    each partition's actual first page, so readers never care.
    """
    ranges = plan_partitions(array.starts, array.n_ranks, partition_bytes)
    n_partitions = len(ranges)
    header_pages = _header_pages(array.n_ranks, n_partitions)
    file_order = (
        placement.order(n_partitions)
        if placement is not None
        else list(range(n_partitions))
    )
    if sorted(file_order) != list(range(n_partitions)):
        raise StorageFormatError(
            f"placement order {file_order!r} is not a permutation of "
            f"{n_partitions} partitions"
        )
    buffer = bytes(array.buffer)
    records: list[PartitionInfo | None] = [None] * n_partitions
    payload = bytearray()
    next_page = header_pages
    for part_index in file_order:
        first_rank, last_rank = ranges[part_index]
        raw = buffer[array.starts[first_rank] : array.starts[last_rank + 1]]
        records[part_index] = PartitionInfo(
            part_index,
            first_rank,
            last_rank,
            len(raw),
            next_page,
            zlib.crc32(raw) & 0xFFFFFFFF,
        )
        padded = _page_padded(raw)
        payload += padded
        next_page += len(padded) // PAGE_SIZE
    header = bytearray()
    header += _ARRAY_MAGIC
    header += struct.pack("<II", PARTITIONED_FORMAT_VERSION, n_partitions)
    header += struct.pack("<QQ", array.n_ranks, len(buffer))
    for start in array.starts:
        header += struct.pack("<Q", start)
    for record in records:
        assert record is not None
        header += _PARTITION_RECORD.pack(
            record.first_rank,
            record.last_rank,
            record.byte_len,
            record.data_page,
            record.crc,
        )
    with maybe_span("store_save_array", path=str(path)) as span:
        content = _page_padded(bytes(header))
        if payload:
            content += bytes(payload)
        size = _write_pages(path, content)
        span.set("bytes", size)
        span.set("partitions", n_partitions)
    return size


def _parse_partition_manifest(
    header: bytes, n_ranks: int, n_partitions: int, starts: list[int], data_page: int
) -> tuple[PartitionInfo, ...]:
    """Unpack and validate the v3 manifest records in rank order."""
    manifest_offset = 28 + 8 * (n_ranks + 2)
    partitions: list[PartitionInfo] = []
    expected_first = 1
    for index in range(n_partitions):
        first_rank, last_rank, byte_len, part_page, crc = _PARTITION_RECORD.unpack_from(
            header, manifest_offset + index * _PARTITION_RECORD.size
        )
        if first_rank != expected_first or last_rank < first_rank or last_rank > n_ranks:
            raise StorageFormatError(
                f"inconsistent partition manifest: partition {index} covers "
                f"ranks {first_rank}..{last_rank}, expected to start at "
                f"{expected_first} within 1..{n_ranks}"
            )
        if byte_len != starts[last_rank + 1] - starts[first_rank]:
            raise StorageFormatError(
                f"inconsistent partition manifest: partition {index} claims "
                f"{byte_len} bytes but the item index spans "
                f"{starts[last_rank + 1] - starts[first_rank]}"
            )
        if part_page < data_page:
            raise StorageFormatError(
                f"inconsistent partition manifest: partition {index} data page "
                f"{part_page} overlaps the header ({data_page} header pages)"
            )
        partitions.append(
            PartitionInfo(index, first_rank, last_rank, byte_len, part_page, crc)
        )
        expected_first = last_rank + 1
    if n_partitions and expected_first != n_ranks + 1:
        raise StorageFormatError(
            f"inconsistent partition manifest: ranks {expected_first}..{n_ranks} "
            f"are covered by no partition"
        )
    claimed = sorted((p.data_page, p.pages) for p in partitions)
    next_free = data_page
    for page, pages in claimed:
        if page < next_free:
            raise StorageFormatError(
                f"inconsistent partition manifest: payload page {page} claimed twice"
            )
        next_free = page + pages
    return tuple(partitions)


def read_array_header(pagefile: PageFile) -> ArrayHeader:
    """Parse and sanity-check the header of an open CFP-array file."""
    first = pagefile.read_page(0)
    if first[:4] != _ARRAY_MAGIC:
        raise StorageFormatError("not a CFP-array file (bad magic)")
    version = struct.unpack_from("<I", first, 4)[0]
    if version not in SUPPORTED_VERSIONS:
        raise StorageFormatError(f"unsupported CFP-array version {version}")
    n_partitions = 0
    if version >= PARTITIONED_FORMAT_VERSION:
        n_partitions = struct.unpack_from("<I", first, 8)[0]
    n_ranks, buffer_len = struct.unpack_from("<QQ", first, 12)
    header_pages = _header_pages(n_ranks, n_partitions)
    if header_pages > pagefile.page_count:
        raise StorageFormatError(
            f"header needs {header_pages} pages but the file has "
            f"{pagefile.page_count}"
        )
    header = bytearray(first)
    for page_no in range(1, header_pages):
        header += pagefile.read_page(page_no)
    starts = list(struct.unpack_from(f"<{n_ranks + 2}Q", header, 28))
    partitions: tuple[PartitionInfo, ...] = ()
    if version >= PARTITIONED_FORMAT_VERSION:
        partitions = _parse_partition_manifest(
            bytes(header), n_ranks, n_partitions, starts, header_pages
        )
    return ArrayHeader(version, n_ranks, buffer_len, starts, header_pages, partitions)


def read_partition_bytes(pagefile: PageFile, part: PartitionInfo) -> bytes:
    """Read one partition's raw buffer bytes, verifying its manifest CRC."""
    raw = bytearray()
    for page_no in range(part.data_page, part.data_page + part.pages):
        raw += pagefile.read_page(page_no)
    data = bytes(raw[: part.byte_len])
    actual = zlib.crc32(data) & 0xFFFFFFFF
    if actual != part.crc:
        raise StorageFormatError(
            f"partition {part.index} (ranks {part.first_rank}..{part.last_rank}) "
            f"CRC mismatch: stored {part.crc:#010x}, computed {actual:#010x}"
        )
    return data


def load_cfp_array(path: str | os.PathLike[str]) -> CfpArray:
    """Load a CFP-array fully into memory, verifying page checksums.

    Reads monolithic (v1/v2) and partitioned (v3) files alike; v3
    partitions are reassembled into rank order and their manifest CRCs
    verified on top of the page-checksum trailer.
    """
    with PageFile.open_readonly(path) as pagefile:
        header = read_array_header(pagefile)
        _verify_content(pagefile, header.content_pages, header.version)
        if header.partitions:
            blob = bytearray(header.buffer_len)
            for part in header.partitions:
                lo = header.starts[part.first_rank]
                blob[lo : lo + part.byte_len] = read_partition_bytes(pagefile, part)
        else:
            blob = bytearray()
            for page_no in range(header.data_page, header.content_pages):
                blob += pagefile.read_page(page_no)
    return CfpArray(header.n_ranks, bytearray(blob[: header.buffer_len]), header.starts)


# ----------------------------------------------------------------------
# CFP-tree checkpointing
# ----------------------------------------------------------------------

class TreeHeader(NamedTuple):
    """Parsed CFP-tree checkpoint header."""

    version: int
    meta: dict[str, Any]
    data_page: int
    """First arena page (== number of header pages)."""

    @property
    def payload_pages(self) -> int:
        return pages_needed(int(self.meta["next_free"]))

    @property
    def content_pages(self) -> int:
        return self.data_page + self.payload_pages


def save_cfp_tree(
    tree: TernaryCfpTree,
    path: str | os.PathLike[str],
    extra_meta: dict[str, Any] | None = None,
) -> int:
    """Checkpoint a CFP-tree (arena contents + allocator + metadata).

    ``extra_meta`` rides along under the ``"extra"`` key for callers that
    checkpoint more than the tree — :meth:`repro.streaming.StreamingBuilder`
    stores its batch cursor and ItemTable fingerprint there. The tree
    restore path ignores it; :func:`load_cfp_tree_checkpoint` returns it.
    """
    arena = tree.arena
    meta = {
        "n_ranks": tree.n_ranks,
        "enable_chains": tree.enable_chains,
        "enable_embedding": tree.enable_embedding,
        "max_chain_length": tree.max_chain_length,
        "logical_node_count": tree.logical_node_count,
        "transaction_count": tree.transaction_count,
        "root_slot": tree._root_slot,
        "next_free": arena.used_bytes,
        "free_heads": {str(k): v for k, v in arena.free_queue_heads().items()},
        "free_bytes": arena.free_bytes,
        "capacity": arena.capacity,
        "max_chunk_size": arena.max_chunk_size,
    }
    if extra_meta is not None:
        meta["extra"] = extra_meta
    meta_blob = json.dumps(meta).encode("ascii")
    header = _TREE_MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(meta_blob))
    with maybe_span("store_save_tree", path=str(path)) as span:
        size = _write_store(path, header + meta_blob, arena.snapshot())
        span.set("bytes", size)
    # Chaos hook: the `truncate` action tears the checkpoint that was just
    # written, simulating a crash mid-write — the recovery path
    # (StreamingBuilder.resume_or_restart) must detect and survive it.
    faultinject.fire("checkpoint.write", path=str(path))
    return size


def read_tree_header(pagefile: PageFile) -> TreeHeader:
    """Parse and sanity-check the header of an open CFP-tree checkpoint."""
    first = pagefile.read_page(0)
    if first[:4] != _TREE_MAGIC:
        raise StorageFormatError("not a CFP-tree checkpoint (bad magic)")
    version, meta_len = struct.unpack_from("<IQ", first, 4)
    if version not in SUPPORTED_VERSIONS:
        raise StorageFormatError(f"unsupported CFP-tree version {version}")
    header_len = 16 + meta_len
    header_pages = pages_needed(header_len)
    if header_pages > pagefile.page_count:
        raise StorageFormatError(
            f"header needs {header_pages} pages but the file has "
            f"{pagefile.page_count}"
        )
    header = bytearray(first)
    for page_no in range(1, header_pages):
        header += pagefile.read_page(page_no)
    try:
        meta = json.loads(bytes(header[16:header_len]).decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageFormatError(f"checkpoint metadata is not valid JSON: {exc}")
    if not isinstance(meta, dict):
        raise StorageFormatError("checkpoint metadata is not a JSON object")
    return TreeHeader(version, meta, header_pages)


def restore_tree(header: TreeHeader, blob: bytes) -> TernaryCfpTree:
    """Rebuild a tree from a parsed header and the raw arena prefix."""
    meta = header.meta
    arena = Arena.from_snapshot(
        blob,
        capacity=meta["capacity"],
        max_chunk_size=meta["max_chunk_size"],
        next_free=meta["next_free"],
        free_heads={int(k): v for k, v in meta["free_heads"].items()},
        free_bytes=meta["free_bytes"],
    )
    return TernaryCfpTree.restore(
        arena,
        n_ranks=meta["n_ranks"],
        root_slot=meta["root_slot"],
        logical_node_count=meta["logical_node_count"],
        transaction_count=meta["transaction_count"],
        enable_chains=meta["enable_chains"],
        enable_embedding=meta["enable_embedding"],
        max_chain_length=meta["max_chain_length"],
    )


def load_cfp_tree_checkpoint(
    path: str | os.PathLike[str],
) -> tuple[TernaryCfpTree, dict[str, Any]]:
    """Restore a checkpointed tree plus the saver's ``extra_meta`` dict.

    The extra dict is empty for checkpoints written without one (all
    pre-``extra`` files included), so callers can distinguish "no extra
    metadata recorded" from any recorded value.
    """
    with maybe_span("store_load_tree", path=str(path)):
        with PageFile.open_readonly(path) as pagefile:
            header = read_tree_header(pagefile)
            _verify_content(pagefile, header.content_pages, header.version)
            blob = bytearray()
            for page_no in range(header.data_page, header.content_pages):
                blob += pagefile.read_page(page_no)
        extra = header.meta.get("extra")
        if not isinstance(extra, dict):
            extra = {}
        return restore_tree(header, bytes(blob)), extra


def load_cfp_tree(path: str | os.PathLike[str]) -> TernaryCfpTree:
    """Restore a checkpointed CFP-tree (checksums verified); inserts may continue."""
    tree, __ = load_cfp_tree_checkpoint(path)
    return tree


__all__ = [
    "FORMAT_VERSION",
    "PARTITIONED_FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "CHECKSUM_SIZE",
    "DEFAULT_PARTITION_BYTES",
    "ArrayHeader",
    "PartitionInfo",
    "TreeHeader",
    "plan_partitions",
    "save_cfp_array",
    "save_cfp_array_partitioned",
    "load_cfp_array",
    "read_array_header",
    "read_partition_bytes",
    "read_tree_header",
    "restore_tree",
    "save_cfp_tree",
    "load_cfp_tree",
    "load_cfp_tree_checkpoint",
    "StorageFormatError",
    "page_checksum",
    "checksum_trailer",
    "trailer_pages",
    "pages_needed",
    "iter_checksum_mismatches",
]
