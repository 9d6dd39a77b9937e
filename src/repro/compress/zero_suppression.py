"""Leading zero-byte suppression for 32-bit integers (paper §2.3).

Westmann-style "small integer" compression: the leading zero bytes of a
32-bit value are dropped and their number is recorded in a small mask stored
elsewhere (in the CFP-tree, inside the per-node compression-mask byte).

Two variants are implemented, matching the paper:

* **3-bit mask** — the mask encodes 0-4 suppressed bytes, so the value 0
  stores *no* payload bytes at all. Used for ``pcount``, which is zero for
  the vast majority of CFP-tree nodes (Table 2).
* **2-bit mask** — the mask encodes 0-3 suppressed bytes and the least
  significant byte is always stored, even when zero. Preferable when zero
  values are rare; used for ``delta_item``, which is arguably never 0.

Payloads are stored most-significant byte first (big-endian), i.e. exactly
the non-zero tail of the 4-byte big-endian representation.
"""

from __future__ import annotations

from repro.compress.varint import Buffer
from repro.errors import CorruptBufferError, ValueOutOfRangeError

#: Largest encodable value (32-bit unsigned).
MAX_VALUE = 0xFFFFFFFF

#: Width in bytes of the uncompressed integers.
WIDTH = 4


def leading_zero_bytes(value: int) -> int:
    """Number of leading zero bytes in the 4-byte representation of ``value``.

    >>> leading_zero_bytes(0), leading_zero_bytes(0x90), leading_zero_bytes(0x123456)
    (4, 3, 1)
    """
    _check_value(value)
    return WIDTH - ((value.bit_length() + 7) >> 3)


def payload_size_3bit(value: int) -> int:
    """Stored payload bytes for the 3-bit variant: 0 for value 0, else 1-4."""
    return WIDTH - leading_zero_bytes(value)


def payload_size_2bit(value: int) -> int:
    """Stored payload bytes for the 2-bit variant: always at least 1."""
    return max(1, WIDTH - leading_zero_bytes(value))


def encode_3bit(value: int) -> tuple[int, bytes]:
    """Encode with the 3-bit mask variant.

    Returns ``(mask, payload)`` where ``mask`` (0-4) is the number of
    suppressed leading zero bytes and ``payload`` holds the remaining bytes.

    >>> encode_3bit(0x90)
    (3, b'\\x90')
    >>> encode_3bit(0)
    (4, b'')
    """
    zeros = leading_zero_bytes(value)
    return zeros, value.to_bytes(WIDTH, "big")[zeros:]


def decode_3bit(mask: int, buf: Buffer, offset: int = 0) -> tuple[int, int]:
    """Decode a 3-bit-mask value whose mask is ``mask``.

    Returns ``(value, new_offset)``.
    """
    if not 0 <= mask <= WIDTH:
        raise CorruptBufferError(f"3-bit zero-suppression mask out of range: {mask}")
    size = WIDTH - mask
    return _read_payload(buf, offset, size)


def encode_2bit(value: int) -> tuple[int, bytes]:
    """Encode with the 2-bit mask variant (LSB always stored).

    Returns ``(mask, payload)`` with ``mask`` in 0-3.

    >>> encode_2bit(0)
    (3, b'\\x00')
    >>> encode_2bit(0x90)
    (3, b'\\x90')
    """
    zeros = min(leading_zero_bytes(value), WIDTH - 1)
    return zeros, value.to_bytes(WIDTH, "big")[zeros:]


def decode_2bit(mask: int, buf: Buffer, offset: int = 0) -> tuple[int, int]:
    """Decode a 2-bit-mask value whose mask is ``mask``.

    Returns ``(value, new_offset)``.
    """
    if not 0 <= mask <= WIDTH - 1:
        raise CorruptBufferError(f"2-bit zero-suppression mask out of range: {mask}")
    size = WIDTH - mask
    return _read_payload(buf, offset, size)


def _read_payload(buf: Buffer, offset: int, size: int) -> tuple[int, int]:
    end = offset + size
    if end > len(buf):
        raise CorruptBufferError(
            f"zero-suppressed payload truncated: need {size} bytes at offset {offset}"
        )
    return int.from_bytes(buf[offset:end], "big"), end


def _check_value(value: int) -> None:
    if not isinstance(value, int):
        raise ValueOutOfRangeError(
            f"zero suppression requires an int, got {type(value).__name__}"
        )
    if value < 0 or value > MAX_VALUE:
        raise ValueOutOfRangeError(f"zero-suppression value out of range: {value}")
