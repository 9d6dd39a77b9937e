"""Variable byte encoding (varint128, paper §2.3).

An unsigned integer is split into 7-bit blocks stored in successive bytes.
The *low* 7 bits of each byte carry the block; the high bit is a continuation
flag (1 = another block follows, 0 = last byte). Blocks are stored least
significant first, matching the classic varint128 layout.

Example from the paper: ``0x00000090`` (144) encodes to two bytes
``10010000 00000001`` — first byte carries the low 7 bits (``0010000``) with
the continuation bit set, second byte carries the remaining bit.

Compared to leading zero-byte suppression this codec needs no separate
compression mask and is one byte for all values below 128, but the encoded
length cannot be looked up without scanning the continuation bits.
"""

from __future__ import annotations

import functools
import os
from array import array
from typing import Any, Sequence, Union

from repro.errors import CorruptBufferError, ValueOutOfRangeError

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _numpy  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - numpy-less environments
    _numpy = None

#: Optional vectorized backend for the columnar decode kernel. ``None``
#: keeps every kernel on the stdlib ``array('q')`` path — numpy is an
#: auto-detected accelerator, never a dependency. ``REPRO_NO_NUMPY``
#: (any non-empty value) disables the detection for A/B runs and tests.
_np: Any = None if os.environ.get("REPRO_NO_NUMPY") else _numpy

#: Read-only byte sources the decoders accept.
Buffer = Union[bytes, bytearray, memoryview]

#: One decoded subarray as four parallel integer columns
#: ``(locals, delta_items, dposes, counts)``. Normally ``array('q')``;
#: plain lists only when a value overflows the signed-64 storage.
TripleColumns = tuple[
    Sequence[int], Sequence[int], Sequence[int], Sequence[int]
]

#: Largest value the codecs accept. The paper's fields are 32-bit; we allow
#: the full 64-bit range so positions in large CFP-arrays always fit.
MAX_VALUE = (1 << 64) - 1

#: Longest possible encoding we accept when decoding (64 bits / 7 per byte).
MAX_ENCODED_LENGTH = 10


def encoded_size(value: int) -> int:
    """Return the number of bytes ``value`` occupies when varint-encoded.

    >>> encoded_size(0), encoded_size(127), encoded_size(128)
    (1, 1, 2)
    """
    _check_value(value)
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def encode(value: int) -> bytes:
    """Encode ``value`` and return the bytes.

    >>> encode(0x90).hex()
    '9001'
    """
    _check_value(value)
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def encode_into(buf: bytearray, offset: int, value: int) -> int:
    """Encode ``value`` into ``buf`` starting at ``offset``.

    The buffer must already be large enough. Returns the offset just past the
    encoded value.
    """
    _check_value(value)
    while value >= 0x80:
        buf[offset] = (value & 0x7F) | 0x80
        value >>= 7
        offset += 1
    buf[offset] = value
    return offset + 1


def decode_from(buf: Buffer, offset: int = 0) -> tuple[int, int]:
    """Decode one varint from ``buf`` at ``offset``.

    Returns ``(value, new_offset)`` where ``new_offset`` points just past the
    encoded value. Raises :class:`CorruptBufferError` if the buffer ends
    mid-value or the encoding exceeds :data:`MAX_ENCODED_LENGTH` bytes.
    """
    value = 0
    shift = 0
    end = len(buf)
    start = offset
    while True:
        if offset >= end:
            raise CorruptBufferError(
                f"varint truncated at offset {offset} (started at {start})"
            )
        if offset - start >= MAX_ENCODED_LENGTH:
            raise CorruptBufferError(
                f"varint longer than {MAX_ENCODED_LENGTH} bytes at offset {start}"
            )
        byte = buf[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def skip(buf: Buffer, offset: int = 0) -> int:
    """Return the offset just past the varint starting at ``offset``.

    Equivalent to ``decode_from(buf, offset)[1]`` but does not build the
    value; used on hot traversal paths where a field is not needed.
    """
    end = len(buf)
    start = offset
    while True:
        if offset >= end:
            raise CorruptBufferError(
                f"varint truncated at offset {offset} (started at {start})"
            )
        if offset - start >= MAX_ENCODED_LENGTH:
            raise CorruptBufferError(
                f"varint longer than {MAX_ENCODED_LENGTH} bytes at offset {start}"
            )
        byte = buf[offset]
        offset += 1
        if not byte & 0x80:
            return offset


def decode_triples(
    buf: Buffer, start: int, end: int, *, canonical: bool = False
) -> list[tuple[int, int, int, int]]:
    """Bulk-decode one CFP-array subarray of ``(delta_item, dpos, count)``.

    Decodes every varint triple in ``buf[start:end]`` in one tight loop and
    returns ``(local, delta_item, dpos, count)`` tuples, where ``local`` is
    the triple's byte offset relative to ``start`` and ``dpos`` is already
    zigzag-decoded: the rows of :func:`decode_triples_columns`' scalar
    loop.

    A varint must not run past ``end`` (subarray boundaries are hard, unlike
    :func:`decode_from` which only knows the buffer end). With
    ``canonical=True`` an over-long encoding (wasted continuation bytes)
    also raises, which lets verifiers fall back to a diagnosing slow path.

    Raises :class:`CorruptBufferError` on truncation, over-length, or (in
    canonical mode) non-minimal encodings.
    """
    _check_bounds(buf, start, end)
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    return list(zip(*_decode_scalar(view, start, end, canonical)))


#: Maps a byte to 1 when it terminates a varint (continuation bit clear).
_TERMINATOR_TABLE = bytes(1 if byte < 0x80 else 0 for byte in range(256))

#: Below this many subarray bytes the vectorized decode loses to the scalar
#: loop — numpy's fixed per-call overhead (buffer wrap, mask, reduceat
#: set-up) dwarfs the work on the tiny subarrays conditional CFP-arrays are
#: made of. Both backends return identical columns, so the cutover is a
#: pure latency knob, invisible to callers.
_NP_MIN_BYTES = 256


def count_triples(buf: Buffer, start: int, end: int) -> int:
    """Count the triples in ``buf[start:end]`` without materializing them.

    Every varint has exactly one terminator byte (continuation bit clear),
    so the triple count is the terminator count divided by three — one
    C-speed table scan instead of a full decode. Used by
    :attr:`repro.core.CfpArray.node_count`'s lazy fallback, which must not
    charge the decoded-subarray cache.

    Raises :class:`CorruptBufferError` when the range ends mid-varint or
    the terminator count is not a multiple of three.
    """
    _check_bounds(buf, start, end)
    return terminator_map(memoryview(buf)[start:end].tobytes(), start).count(1) // 3


def terminator_map(data: bytes, start: int = 0) -> bytes:
    """Where the varints of one encoded subarray end: 1 at a terminator.

    A byte string as long as ``data``, built by one C-speed table
    translation. :func:`node_header` finds node starts in it. ``start``
    (the subarray's offset in a larger buffer) only places error
    messages.

    Raises :class:`CorruptBufferError` when ``data`` ends mid-varint or
    holds a number of varints that is not a multiple of three.
    """
    end = start + len(data)
    if data and data[-1] >= 0x80:
        raise CorruptBufferError(
            f"varint truncated at offset {end} (started inside [{start}, {end}))"
        )
    terminators = data.translate(_TERMINATOR_TABLE)
    varints = terminators.count(1)
    if varints % 3:
        raise CorruptBufferError(
            f"subarray [{start}, {end}) holds {varints} varints, "
            "not a whole number of triples"
        )
    return terminators


def node_header(data: bytes, terminators: bytes, local: int) -> tuple[int, int] | None:
    """``(delta_item, dpos)`` of the triple that starts at byte ``local``.

    The backward walk's read (§3.4): ``data`` is one encoded subarray and
    ``terminators`` its :func:`terminator_map`. The count, stored last,
    is never decoded. ``dpos`` comes back zigzag-decoded.

    Returns ``None`` when no triple starts at ``local``: it lies outside
    the subarray, inside a varint, or after a number of varints that is
    not a multiple of three. Raises :class:`CorruptBufferError` on a
    field longer than :data:`MAX_ENCODED_LENGTH` bytes; the terminator
    map already guarantees that no field runs past the subarray's end.
    """
    if (
        not 0 <= local < len(data)
        or (local and not terminators[local - 1])
        or terminators.count(1, 0, local) % 3
    ):
        return None
    delta_item = data[local]
    if delta_item < 0x80:
        offset = local + 1
    else:
        delta_item, offset = decode_from(data, local)
    dpos_raw = data[offset]
    if dpos_raw >= 0x80:
        dpos_raw = decode_from(data, offset)[0]
    if dpos_raw & 1:
        return delta_item, -((dpos_raw + 1) >> 1)
    return delta_item, dpos_raw >> 1


def decode_triples_columns(buf: Buffer, start: int, end: int) -> TripleColumns:
    """Bulk-decode one subarray into four parallel integer columns.

    The columnar twin of :func:`decode_triples`: instead of one Python
    tuple per node it returns ``(locals, delta_items, dposes, counts)``
    columns (``array('q')``), which downstream kernels index, sum and
    slice at C speed. ``dposes`` is already zigzag-decoded.

    When numpy is importable (and ``REPRO_NO_NUMPY`` is unset) the whole
    subarray is decoded vectorized — terminator mask, segment ids,
    shift-and-reduce — and falls back to the scalar loop on any anomaly
    (truncation, non-triple counts, varints past 8 bytes) so corrupt
    buffers always raise the scalar path's exact
    :class:`CorruptBufferError`. Both backends produce identical columns.
    """
    _check_bounds(buf, start, end)
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    if start == end:
        return array("q"), array("q"), array("q"), array("q")
    if _np is not None and end - start >= _NP_MIN_BYTES:
        columns = _decode_triples_columns_np(view, start, end)
        if columns is not None:
            return columns
    return _decode_triples_columns_scalar(view, start, end)


def _decode_triples_columns_scalar(
    view: memoryview, start: int, end: int
) -> TripleColumns:
    """Stdlib columnar decode: :func:`_decode_scalar` in ``array('q')``."""
    columns = _decode_scalar(view, start, end, False)
    try:
        return tuple(array("q", column) for column in columns)  # type: ignore[return-value]
    except OverflowError:
        # A value >= 2**63 cannot live in a signed-64 column; plain lists
        # satisfy the same Sequence contract (rare: hand-built buffers).
        return columns


def _decode_scalar(
    view: memoryview, start: int, end: int, canonical: bool
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The scalar triple decode loop, one plain list per column.

    Compared to three :func:`decode_from` calls per node it avoids
    per-field call overhead, bound re-checks and tuple churn. ``canonical``
    also rejects over-long encodings (see :func:`decode_triples`).
    """
    locals_col: list[int] = []
    delta_col: list[int] = []
    dpos_col: list[int] = []
    count_col: list[int] = []
    fields = [0, 0, 0]
    pos = start
    while pos < end:
        local = pos - start
        for index in range(3):
            field_start = pos
            if pos >= end:
                raise CorruptBufferError(
                    f"varint truncated at offset {pos} (triple at {start + local})"
                )
            byte = view[pos]
            pos += 1
            if byte < 0x80:
                fields[index] = byte
                continue
            value = byte & 0x7F
            shift = 7
            while True:
                if pos >= end:
                    raise CorruptBufferError(
                        f"varint truncated at offset {pos} (started at {field_start})"
                    )
                if pos - field_start >= MAX_ENCODED_LENGTH:
                    raise CorruptBufferError(
                        f"varint longer than {MAX_ENCODED_LENGTH} bytes "
                        f"at offset {field_start}"
                    )
                byte = view[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            if canonical and byte == 0:
                raise CorruptBufferError(
                    f"non-canonical varint at offset {field_start}: "
                    f"{pos - field_start} bytes encode {value}"
                )
            fields[index] = value
        dpos_raw = fields[1]
        if dpos_raw & 1:
            dpos = -((dpos_raw + 1) >> 1)
        else:
            dpos = dpos_raw >> 1
        locals_col.append(local)
        delta_col.append(fields[0])
        dpos_col.append(dpos)
        count_col.append(fields[2])
    return locals_col, delta_col, dpos_col, count_col


def _check_bounds(buf: Buffer, start: int, end: int) -> None:
    if not 0 <= start <= end <= len(buf):
        raise CorruptBufferError(
            f"subarray bounds [{start}, {end}) outside buffer of {len(buf)} bytes"
        )


def _decode_triples_columns_np(
    view: memoryview, start: int, end: int
) -> TripleColumns | None:
    """Vectorized columnar decode; ``None`` defers to the scalar loop.

    Layout: a terminator mask segments the byte range into varints; each
    byte contributes its low 7 bits shifted by ``7 * position-in-segment``
    and ``np.add.reduceat`` sums the segments. Any anomaly — truncated
    tail, varint count not a multiple of three, encodings past 8 bytes
    (whose shifts could leave int64) — returns ``None`` so the scalar
    path reports it with its precise error (or decodes the legal
    wide values the int64 columns cannot hold).
    """
    raw = _np.frombuffer(view[start:end], dtype=_np.uint8)
    term = raw < 0x80
    ends = _np.flatnonzero(term)
    n_values = int(ends.size)
    if n_values == 0 or n_values % 3 or int(ends[-1]) != raw.size - 1:
        return None
    value_starts = _np.empty(n_values, dtype=_np.int64)
    value_starts[0] = 0
    value_starts[1:] = ends[:-1] + 1
    lengths = ends - value_starts + 1
    if int(lengths.max()) > 8:
        return None
    offsets = _np.arange(raw.size, dtype=_np.int64)
    shifts = 7 * (offsets - _np.repeat(value_starts, lengths))
    payload = (raw & 0x7F).astype(_np.int64) << shifts
    values = _np.add.reduceat(payload, value_starts)
    dpos_raw = values[1::3]
    dposes = _np.where(dpos_raw & 1, -((dpos_raw + 1) >> 1), dpos_raw >> 1)
    locals_np = value_starts[0::3]
    out: list[Sequence[int]] = []
    for column in (locals_np, values[0::3], dposes, values[2::3]):
        typed = array("q")
        typed.frombytes(_np.ascontiguousarray(column, dtype=_np.int64).tobytes())
        out.append(typed)
    return out[0], out[1], out[2], out[3]


def triple_size(delta_item: int, dpos: int, count: int) -> int:
    """Return the encoded byte size of one ``(delta_item, dpos, count)`` triple.

    ``dpos`` is signed; zigzag mapping is applied inline. One call replaces
    three :func:`encoded_size` calls on the conversion sizing path.

    >>> triple_size(1, 0, 1), triple_size(200, -100, 1)
    (3, 5)
    """
    if delta_item < 0 or delta_item > MAX_VALUE:
        raise ValueOutOfRangeError(f"varint value out of range: {delta_item}")
    if count < 0 or count > MAX_VALUE:
        raise ValueOutOfRangeError(f"varint value out of range: {count}")
    if dpos >= 0:
        zz = dpos << 1
    else:
        zz = ((-dpos) << 1) - 1
    if zz > MAX_VALUE:
        raise ValueOutOfRangeError(f"varint value out of range: {dpos}")
    size = 3
    while delta_item >= 0x80:
        delta_item >>= 7
        size += 1
    while zz >= 0x80:
        zz >>= 7
        size += 1
    while count >= 0x80:
        count >>= 7
        size += 1
    return size


def encode_triples(
    buf: bytearray, offset: int, triples: Sequence[tuple[int, int, int]]
) -> int:
    """Bulk-encode CFP-array ``(delta_item, dpos, count)`` triples into ``buf``.

    The encode-side mirror of :func:`decode_triples`: writes every triple
    back-to-back starting at ``offset`` in one tight loop — no per-field
    function calls — with the signed ``dpos`` zigzag-mapped inline. ``buf``
    must already be large enough (:func:`triple_size` sizes a triple).
    Returns the offset just past the last byte written.

    The produced bytes are identical to three sequential :func:`encode_into`
    calls per triple (with :func:`zigzag` applied to ``dpos``), so existing
    buffers and checksums are unaffected.

    Raises :class:`ValueOutOfRangeError` when a field falls outside the
    codec's 64-bit range (``delta_item``/``count`` must be non-negative).
    """
    for delta_item, dpos, count in triples:
        if dpos >= 0:
            zz = dpos << 1
        else:
            zz = ((-dpos) << 1) - 1
        if (
            delta_item < 0
            or delta_item > MAX_VALUE
            or zz > MAX_VALUE
            or count < 0
            or count > MAX_VALUE
        ):
            raise ValueOutOfRangeError(
                f"varint triple out of range: ({delta_item}, {dpos}, {count})"
            )
        while delta_item >= 0x80:
            buf[offset] = (delta_item & 0x7F) | 0x80
            delta_item >>= 7
            offset += 1
        buf[offset] = delta_item
        offset += 1
        while zz >= 0x80:
            buf[offset] = (zz & 0x7F) | 0x80
            zz >>= 7
            offset += 1
        buf[offset] = zz
        offset += 1
        while count >= 0x80:
            buf[offset] = (count & 0x7F) | 0x80
            count >>= 7
            offset += 1
        buf[offset] = count
        offset += 1
    return offset


@functools.cache
def small_encodings() -> tuple[bytes, ...]:
    """The encoding of every value below 2^12, indexed by the value.

    Conversion copies a triple's fields from this table instead of
    encoding them (:func:`repro.core.conversion.splice_subtree`); on the
    benchmark's workloads every field is below 2^12. The table takes
    about 170 KB.
    """
    return tuple(
        bytes((value,)) if value < 0x80 else bytes(((value & 0x7F) | 0x80, value >> 7))
        for value in range(1 << 12)
    )


def zigzag(value: int) -> int:
    """Map a signed integer to unsigned for varint encoding.

    0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... Used for the CFP-array's ``dpos``
    field, which can be negative (a child's local position may precede its
    parent's when their subarrays fill at different rates).
    """
    if value >= 0:
        return value << 1
    return ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    if value & 1:
        return -((value + 1) >> 1)
    return value >> 1


def _check_value(value: int) -> None:
    if not isinstance(value, int):
        raise ValueOutOfRangeError(f"varint requires an int, got {type(value).__name__}")
    if value < 0 or value > MAX_VALUE:
        raise ValueOutOfRangeError(f"varint value out of range: {value}")
