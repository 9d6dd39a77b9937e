"""Per-node compression-mask byte of the ternary CFP-tree (paper §3.3).

Every standard node starts with one mask byte that describes how the rest of
the node is laid out:

* bits 7-6 — 2-bit zero-suppression mask for ``delta_item`` (0-3 suppressed
  leading zero bytes; the least significant byte is always stored),
* bits 5-3 — 3-bit zero-suppression mask for ``pcount`` (0-4 suppressed
  bytes; the value 0 stores no payload),
* bits 2-0 — presence bits for the ``left``, ``right`` and ``suffix``
  pointers (1 = a 40-bit pointer follows, 0 = null pointer, nothing stored).

This is the paper's Figure 4 layout: e.g. ``delta_item = 3`` (mask ``11``),
``pcount = 0`` (mask ``100``), only the suffix pointer present (``001``)
packs to ``0b11100001``.

The pcount-mask values 5 and 6 never occur; 7 tags a chain node
(:mod:`repro.core.node_codec`), whose tag byte keeps the three presence
bits. Because every field width and pointer offset of a node follows
from this one byte, :data:`NODE_LAYOUTS` precomputes them for all 256
byte values: the build phase reads a node's fields in place through one
table lookup instead of unpacking the mask and summing payload sizes.
All mask-bit arithmetic stays in this module.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import CodecError
from repro.memman.pointers import POINTER_SIZE

#: Bit position of the 2-bit ``delta_item`` zero-suppression mask.
ITEM_MASK_SHIFT = 6

#: Field mask selecting the 2-bit ``delta_item`` mask after shifting.
ITEM_MASK_FIELD = 0x3

#: Bit position of the 3-bit ``pcount`` zero-suppression mask.
PCOUNT_MASK_SHIFT = 3

#: Field mask selecting the 3-bit ``pcount`` mask after shifting.
PCOUNT_MASK_FIELD = 0x7

#: Largest legal ``pcount`` mask value (0-4 suppressed bytes).
PCOUNT_MASK_MAX = 4

#: Presence bit for the ``left`` sibling pointer.
LEFT_PRESENT_BIT = 0x4

#: Presence bit for the ``right`` sibling pointer.
RIGHT_PRESENT_BIT = 0x2

#: Presence bit for the ``suffix`` (first-child) pointer.
SUFFIX_PRESENT_BIT = 0x1

#: pcount-mask value that tags a chain node (a real pcount mask is 0-4).
CHAIN_TAG = 7

#: Uncompressed width of ``delta_item`` and ``pcount`` (32-bit fields).
FIELD_WIDTH = 4


class NodeMask(NamedTuple):
    """Decoded contents of a compression-mask byte."""

    item_mask: int
    """2-bit zero-suppression mask for ``delta_item`` (0-3)."""

    pcount_mask: int
    """3-bit zero-suppression mask for ``pcount`` (0-4)."""

    left_present: bool
    """Whether a left-sibling pointer is stored."""

    right_present: bool
    """Whether a right-sibling pointer is stored."""

    suffix_present: bool
    """Whether a suffix (first-child) pointer is stored."""


def pack_node_mask(
    item_mask: int,
    pcount_mask: int,
    left_present: bool,
    right_present: bool,
    suffix_present: bool,
) -> int:
    """Pack the five mask components into one byte."""
    if not 0 <= item_mask <= ITEM_MASK_FIELD:
        raise CodecError(f"item mask out of range: {item_mask}")
    if not 0 <= pcount_mask <= PCOUNT_MASK_MAX:
        raise CodecError(f"pcount mask out of range: {pcount_mask}")
    return (
        item_mask << ITEM_MASK_SHIFT
        | pcount_mask << PCOUNT_MASK_SHIFT
        | presence_bits(left_present, right_present, suffix_present)
    )


def unpack_node_mask(byte: int) -> NodeMask:
    """Unpack a compression-mask byte into its components."""
    if not 0 <= byte <= 0xFF:
        raise CodecError(f"mask byte out of range: {byte}")
    pcount_mask = (byte >> PCOUNT_MASK_SHIFT) & PCOUNT_MASK_FIELD
    if pcount_mask > PCOUNT_MASK_MAX:
        raise CodecError(f"corrupt mask byte {byte:#04x}: pcount mask {pcount_mask} > 4")
    return NodeMask(
        item_mask=(byte >> ITEM_MASK_SHIFT) & ITEM_MASK_FIELD,
        pcount_mask=pcount_mask,
        left_present=bool(byte & LEFT_PRESENT_BIT),
        right_present=bool(byte & RIGHT_PRESENT_BIT),
        suffix_present=bool(byte & SUFFIX_PRESENT_BIT),
    )


class NodeLayout(NamedTuple):
    """Where a node's fields sit, derived from its mask byte alone.

    Offsets count from the mask byte; an absent pointer has offset 0
    (the mask byte itself, never a slot). A chain tag does not describe
    the chain's length byte and entries, so its widths are 0 and the
    entries' byte count (length byte included) must be added to its
    pointer offsets and its size.
    """

    chain: bool
    """Whether the byte tags a chain node rather than a standard node."""

    item_width: int
    """Payload bytes of ``delta_item`` (1-4; 0 for a chain tag)."""

    pcount_width: int
    """Payload bytes of ``pcount`` (0-4; 0 for a chain tag)."""

    left: int
    """Offset of the left-sibling slot, 0 when absent."""

    right: int
    """Offset of the right-sibling slot, 0 when absent."""

    suffix: int
    """Offset of the suffix slot, 0 when absent."""

    size: int
    """Encoded bytes: mask, payloads and present pointers."""


def _layout(byte: int) -> NodeLayout | None:
    pcount_mask = (byte >> PCOUNT_MASK_SHIFT) & PCOUNT_MASK_FIELD
    chain = pcount_mask == CHAIN_TAG
    if pcount_mask > PCOUNT_MASK_MAX and not chain:
        return None
    item_width = pcount_width = 0
    if not chain:
        item_width = FIELD_WIDTH - ((byte >> ITEM_MASK_SHIFT) & ITEM_MASK_FIELD)
        pcount_width = FIELD_WIDTH - pcount_mask
    offset = 1 + item_width + pcount_width
    slots = []
    for bit in (LEFT_PRESENT_BIT, RIGHT_PRESENT_BIT, SUFFIX_PRESENT_BIT):
        present = bool(byte & bit)
        slots.append(offset if present else 0)
        offset += POINTER_SIZE if present else 0
    left, right, suffix = slots
    return NodeLayout(chain, item_width, pcount_width, left, right, suffix, offset)


#: Layout of every mask byte value; ``None`` for the impossible pcount
#: masks 5 and 6.
NODE_LAYOUTS: tuple[NodeLayout | None, ...] = tuple(_layout(b) for b in range(256))


def presence_bits(
    left_present: bool, right_present: bool, suffix_present: bool
) -> int:
    """The three pointer presence bits of a mask or chain-tag byte."""
    bits = 0
    if left_present:
        bits |= LEFT_PRESENT_BIT
    if right_present:
        bits |= RIGHT_PRESENT_BIT
    if suffix_present:
        bits |= SUFFIX_PRESENT_BIT
    return bits


def standard_mask(item_width: int, pcount_width: int, presence: int) -> int:
    """Mask byte of a standard node from its payload widths (1-4, 0-4)."""
    return (
        (FIELD_WIDTH - item_width) << ITEM_MASK_SHIFT
        | (FIELD_WIDTH - pcount_width) << PCOUNT_MASK_SHIFT
        | presence
    )


def chain_tag(presence: int) -> int:
    """Tag byte of a chain node with the given presence bits."""
    return CHAIN_TAG << PCOUNT_MASK_SHIFT | presence
