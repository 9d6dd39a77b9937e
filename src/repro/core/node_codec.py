"""Byte layouts of ternary CFP-tree nodes (paper §3.3).

Three node kinds share the arena:

**Standard node** — the paper's Figure 4 layout::

    +------+-----------+---------+------+-------+--------+
    | mask | delta_item| pcount  | left | right | suffix |
    | 1 B  | 1-4 B     | 0-4 B   | 5 B? | 5 B?  | 5 B?   |
    +------+-----------+---------+------+-------+--------+

  The mask byte packs the 2-bit zero-suppression mask for ``delta_item``,
  the 3-bit mask for ``pcount`` and three pointer presence bits
  (:mod:`repro.compress.masks`). Pointers are stored only when present.

**Embedded leaf** — a small leaf stored *inside* its parent's 5-byte pointer
  slot: marker byte ``0xFF``, one byte ``delta_item`` (< 256), three bytes
  ``pcount`` (< 2^24). The memory manager never allocates addresses whose
  top pointer byte is ``0xFF``, so the marker is unambiguous.

**Chain node** — a run of single-child nodes packed into one chunk. The
  paper describes chains but not their exact bytes; this implementation
  uses::

    +------+--------+----------------+------+-------+--------+
    | tag  | length | entries        | left | right | suffix |
    | 1 B  | 1 B    | 1+ B per entry | 5 B? | 5 B?  | 5 B?   |
    +------+--------+----------------+------+-------+--------+

  The tag byte reuses the mask layout with the (otherwise impossible)
  pcount-mask value 7 as the chain marker, and the same three presence
  bits. ``left``/``right`` attach the chain's *first* element into its
  sibling BST; ``suffix`` continues below the *last* element. Each entry is
  a single byte ``delta_item`` in 1..255 (meaning pcount 0 — the common
  case), or the escape byte ``0x00`` followed by varint ``delta_item`` and
  varint ``pcount``. This keeps the >90%-typical interior node at one byte.

Pointer slots are handled as raw 5-byte strings throughout so embedded
leaves move with their slot during restructures.

**Reading in place.** The build phase does not decode the nodes it only
passes through. :func:`read_standard` and :func:`read_chain` (dispatched
by :func:`read_node`) return a node's fields, its slot offsets and its
size from one :data:`~repro.compress.masks.NODE_LAYOUTS` lookup;
:func:`slot_value` reads a slot as one integer; :func:`walk_subtrees`
walks a whole tree into the flat preorder lists the conversion folds.
:class:`StandardNode` and :class:`ChainNode` objects are built only for
the node an insert step mutates, and :func:`encode_standard` /
:func:`encode_chain` write a node's bytes in one go, sizing fields with
``int.bit_length()``. The object decoders are built on the readers, so
both raise the same typed errors on corrupt bytes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Iterator, Union

from repro.compress import varint
from repro.compress.masks import (
    NODE_LAYOUTS,
    chain_tag,
    presence_bits,
    standard_mask,
)
from repro.errors import (
    ChainOverflowError,
    CodecError,
    CorruptBufferError,
    ValueOutOfRangeError,
)
from repro.memman.pointers import MARKER_BYTE, POINTER_SIZE

#: Escape byte opening an extended chain entry.
CHAIN_ESCAPE = 0x00

#: Values below this bound are one-byte varints (no continuation bit).
ONE_BYTE_VARINT = 0x80

#: Maximum elements per chain node (paper §4.1 fixes 15).
DEFAULT_MAX_CHAIN_LENGTH = 15

#: An all-zero slot (the null pointer).
NULL_SLOT = bytes(POINTER_SIZE)

#: pcount bound for embedded leaves (< 2^24 fits the 3 payload bytes).
EMBEDDED_PCOUNT_LIMIT = 1 << 24

#: Smallest slot value (:func:`slot_value`) that is an embedded leaf: the
#: marker byte leads, and no arena address reaches it.
EMBEDDED_FLOOR = MARKER_BYTE << 32

#: Largest ``delta_item`` / ``pcount`` a standard node stores (32-bit).
MAX_FIELD = 0xFFFFFFFF

#: Anything the decoders accept as a raw byte source.
Buffer = Union[bytes, bytearray, memoryview]

#: A node's fields read in place: ``(delta_item, pcount, left, right,
#: suffix, size)`` for a standard node (:func:`read_standard`),
#: ``(deltas, pcounts, left, right, suffix, size)`` for a chain
#: (:func:`read_chain`). Slot offsets count from the node's address, 0
#: when the pointer is absent.
NodeFields = tuple[Any, Any, int, int, int, int]

#: One level-1 subtree in preorder: ``(ranks, parents, pcounts)`` with
#: ``parents[i]`` indexing the lists (-1 for the subtree root) and raw
#: pcounts.
FlatSubtree = tuple[list[int], list[int], list[int]]


# ----------------------------------------------------------------------
# Embedded leaves (5-byte slot payloads)
# ----------------------------------------------------------------------

def leaf_embeddable(delta_item: int, pcount: int) -> bool:
    """True when a leaf fits the embedded layout (paper §3.3)."""
    return 0 <= delta_item < 256 and 0 <= pcount < EMBEDDED_PCOUNT_LIMIT


def encode_embedded_leaf(delta_item: int, pcount: int) -> bytes:
    """Encode an embedded leaf as 5 slot bytes."""
    if not leaf_embeddable(delta_item, pcount):
        raise CorruptBufferError(
            f"leaf (delta={delta_item}, pcount={pcount}) is not embeddable"
        )
    return bytes([MARKER_BYTE, delta_item]) + pcount.to_bytes(3, "big")


def decode_embedded_leaf(raw: bytes) -> tuple[int, int]:
    """Decode 5 slot bytes into ``(delta_item, pcount)``."""
    if len(raw) != POINTER_SIZE or raw[0] != MARKER_BYTE:
        raise CorruptBufferError(f"not an embedded leaf slot: {raw!r}")
    return raw[1], int.from_bytes(raw[2:5], "big")


def slot_is_embedded(raw: bytes) -> bool:
    """True when slot content is an embedded leaf rather than a pointer."""
    return raw[0] == MARKER_BYTE


def read_slot(buf: Buffer, slot: int) -> bytes:
    """Copy the 5 raw bytes of the slot starting at ``slot``.

    All raw slot reads outside this module go through here, so the slot
    layout stays confined to the codec layer.
    """
    return bytes(buf[slot : slot + POINTER_SIZE])


def slot_address(raw: bytes) -> int:
    """Interpret slot content as a 40-bit pointer."""
    if raw[0] == MARKER_BYTE:
        raise CorruptBufferError("slot holds an embedded leaf, not a pointer")
    return int.from_bytes(raw, "big")


def pointer_slot(address: int) -> bytes:
    """Slot content for a pointer to ``address``."""
    return address.to_bytes(POINTER_SIZE, "big")


def slot_value(buf: Buffer, slot: int) -> int:
    """The slot at ``slot`` read in place as one 40-bit integer.

    0 is the null pointer, a value of at least :data:`EMBEDDED_FLOOR` is
    an embedded leaf (:func:`embedded_fields`), anything else is the
    address of a node chunk.
    """
    return int.from_bytes(buf[slot : slot + POINTER_SIZE], "big")


def embedded_fields(value: int) -> tuple[int, int]:
    """``(delta_item, pcount)`` of an embedded leaf's :func:`slot_value`."""
    return (value >> 24) & 0xFF, value & (EMBEDDED_PCOUNT_LIMIT - 1)


def slot_bytes(buf: Buffer, addr: int, offset: int) -> bytes | None:
    """Raw content of the slot at ``addr + offset``; None for offset 0.

    Offsets are the ones :func:`read_standard` and :func:`read_chain`
    return, where 0 marks an absent pointer.
    """
    return read_slot(buf, addr + offset) if offset else None


# ----------------------------------------------------------------------
# Standard nodes
# ----------------------------------------------------------------------

def read_standard(
    buf: Buffer, addr: int
) -> tuple[int, int, int, int, int, int] | None:
    """Read the standard node at ``addr`` in place.

    Returns ``(delta_item, pcount, left, right, suffix, size)``: the two
    fields, the offsets of the three pointer slots from ``addr`` (0 when
    absent) and the node's encoded size — or None when a chain node sits
    at ``addr``. One :data:`~repro.compress.masks.NODE_LAYOUTS` lookup
    replaces unpacking the mask and summing payload sizes.
    """
    layout = NODE_LAYOUTS[buf[addr]]
    if layout is None:
        raise CodecError(f"corrupt mask byte {buf[addr]:#04x}: pcount mask > 4")
    chain, item_width, pcount_width, left, right, suffix, size = layout
    if chain:
        return None
    if addr + size > len(buf):
        raise CorruptBufferError(
            f"standard node at {addr} truncated: needs {size} bytes"
        )
    start = addr + 1
    middle = start + item_width
    return (
        int.from_bytes(buf[start:middle], "big"),
        int.from_bytes(buf[middle : middle + pcount_width], "big"),
        left,
        right,
        suffix,
        size,
    )


def encode_standard(
    delta_item: int,
    pcount: int,
    left: bytes | None = None,
    right: bytes | None = None,
    suffix: bytes | None = None,
) -> bytes:
    """Serialize a standard node to the Figure-4 layout in one go.

    Payload widths come from ``int.bit_length()``: ``delta_item`` keeps
    at least one byte (2-bit mask), a zero ``pcount`` stores none (3-bit
    mask).
    """
    if not (isinstance(delta_item, int) and isinstance(pcount, int)):
        raise ValueOutOfRangeError(
            f"zero suppression requires ints, got {delta_item!r}, {pcount!r}"
        )
    if not (0 <= delta_item <= MAX_FIELD and 0 <= pcount <= MAX_FIELD):
        raise ValueOutOfRangeError(
            f"zero-suppression value out of range: ({delta_item}, {pcount})"
        )
    item_width = (delta_item.bit_length() + 7) >> 3 or 1
    pcount_width = (pcount.bit_length() + 7) >> 3
    mask = standard_mask(
        item_width,
        pcount_width,
        presence_bits(left is not None, right is not None, suffix is not None),
    )
    head = (mask << 8 * item_width | delta_item) << 8 * pcount_width | pcount
    data = head.to_bytes(1 + item_width + pcount_width, "big")
    if left is not None:
        data += left
    if right is not None:
        data += right
    if suffix is not None:
        data += suffix
    return data


class StandardNode:
    """Decoded standard node; slots are raw 5-byte strings or ``None``.

    The insert path builds one only for the node a step mutates; reads
    go through :func:`read_standard`.
    """

    __slots__ = ("delta_item", "pcount", "left", "right", "suffix")

    def __init__(
        self,
        delta_item: int,
        pcount: int = 0,
        left: bytes | None = None,
        right: bytes | None = None,
        suffix: bytes | None = None,
    ) -> None:
        self.delta_item = delta_item
        self.pcount = pcount
        self.left = left
        self.right = right
        self.suffix = suffix

    def encode(self) -> bytes:
        """Serialize to the Figure-4 layout."""
        return encode_standard(
            self.delta_item, self.pcount, self.left, self.right, self.suffix
        )

    @classmethod
    def decode(cls, buf: Buffer, addr: int) -> tuple["StandardNode", int]:
        """Decode the node at ``addr``; returns ``(node, encoded_size)``."""
        fields = read_standard(buf, addr)
        if fields is None:
            raise CodecError(f"corrupt mask byte {buf[addr]:#04x}: a chain tag")
        delta_item, pcount, left, right, suffix, size = fields
        node = cls(
            delta_item,
            pcount,
            slot_bytes(buf, addr, left),
            slot_bytes(buf, addr, right),
            slot_bytes(buf, addr, suffix),
        )
        return node, size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StandardNode(delta={self.delta_item}, pcount={self.pcount}, "
            f"L={self.left is not None}, R={self.right is not None}, "
            f"S={self.suffix is not None})"
        )


# ----------------------------------------------------------------------
# Chain nodes
# ----------------------------------------------------------------------

def _chain_entries(buf: Buffer, addr: int) -> tuple[list[int], list[int], int]:
    """Entries of the chain at ``addr`` as ``(deltas, pcounts, end)``.

    ``end`` is the offset just past the last entry.
    """
    limit = len(buf)
    if addr + 2 > limit:
        raise CorruptBufferError(f"chain header truncated at {addr}")
    length = buf[addr + 1]
    if not 1 <= length <= DEFAULT_MAX_CHAIN_LENGTH:
        raise CorruptBufferError(f"corrupt chain length {length} at {addr}")
    offset = addr + 2
    # One-byte entries (pcount 0) are the common case: take the run that
    # precedes the first escape byte in one slice.
    head = bytes(buf[offset : offset + length])
    fast = head.find(CHAIN_ESCAPE)
    if fast < 0:
        fast = len(head)
    deltas = list(head[:fast])
    pcounts = [0] * fast
    offset += fast
    for __ in range(length - fast):
        if offset >= limit:
            raise CorruptBufferError(f"chain entries truncated at {addr}")
        if buf[offset] != CHAIN_ESCAPE:
            deltas.append(buf[offset])
            pcounts.append(0)
            offset += 1
            continue
        # Escaped entry: two varints, most often one byte each.
        pair = buf[offset + 1 : offset + 3]
        if len(pair) == 2 and pair[0] < ONE_BYTE_VARINT and pair[1] < ONE_BYTE_VARINT:
            deltas.append(pair[0])
            pcounts.append(pair[1])
            offset += 3
            continue
        delta_item, offset = varint.decode_from(buf, offset + 1)
        pcount, offset = varint.decode_from(buf, offset)
        deltas.append(delta_item)
        pcounts.append(pcount)
    return deltas, pcounts, offset


def read_chain(
    buf: Buffer, addr: int
) -> tuple[list[int], list[int], int, int, int, int]:
    """Read the chain node at ``addr`` without building a :class:`ChainNode`.

    Returns ``(deltas, pcounts, left, right, suffix, size)``: the entries
    parent to child as two parallel lists, the offsets of the pointer
    slots from ``addr`` (0 when absent) and the encoded size.
    """
    layout = NODE_LAYOUTS[buf[addr]]
    if layout is None or not layout.chain:
        raise CorruptBufferError(f"not a chain node at {addr}: tag {buf[addr]:#04x}")
    deltas, pcounts, end = _chain_entries(buf, addr)
    # The tag's offsets count as if the pointers followed it directly.
    shift = end - addr - 1
    __, __, __, left, right, suffix, size = layout
    size += shift
    if addr + size > len(buf):
        raise CorruptBufferError(f"chain node at {addr} truncated: needs {size} bytes")
    return (
        deltas,
        pcounts,
        left and left + shift,
        right and right + shift,
        suffix and suffix + shift,
        size,
    )


def encode_chain(
    entries: list[tuple[int, int]],
    left: bytes | None = None,
    right: bytes | None = None,
    suffix: bytes | None = None,
) -> bytes:
    """Serialize a chain node into one ``bytearray`` pass."""
    length = len(entries)
    if not 1 <= length <= DEFAULT_MAX_CHAIN_LENGTH:
        raise ChainOverflowError(
            f"chain length {length} outside 1..{DEFAULT_MAX_CHAIN_LENGTH}"
        )
    tag = chain_tag(
        presence_bits(left is not None, right is not None, suffix is not None)
    )
    out = bytearray((tag, length))
    for delta_item, pcount in entries:
        if pcount == 0 and 1 <= delta_item <= 255:
            out.append(delta_item)
        elif 0 <= delta_item < ONE_BYTE_VARINT and 0 <= pcount < ONE_BYTE_VARINT:
            out += bytes((CHAIN_ESCAPE, delta_item, pcount))
        else:
            out.append(CHAIN_ESCAPE)
            out += varint.encode(delta_item)
            out += varint.encode(pcount)
    if left is not None:
        out += left
    if right is not None:
        out += right
    if suffix is not None:
        out += suffix
    return bytes(out)


class ChainNode:
    """Decoded chain node: ``entries`` are ``(delta_item, pcount)`` pairs.

    Entries run parent to child. ``left``/``right`` belong to the first
    entry, ``suffix`` to the last.
    """

    __slots__ = ("entries", "left", "right", "suffix")

    def __init__(
        self,
        entries: list[tuple[int, int]],
        left: bytes | None = None,
        right: bytes | None = None,
        suffix: bytes | None = None,
    ) -> None:
        self.entries = entries
        self.left = left
        self.right = right
        self.suffix = suffix

    def encode(self) -> bytes:
        return encode_chain(self.entries, self.left, self.right, self.suffix)

    @classmethod
    def decode(cls, buf: Buffer, addr: int) -> tuple["ChainNode", int]:
        deltas, pcounts, left, right, suffix, size = read_chain(buf, addr)
        node = cls(
            list(zip(deltas, pcounts)),
            slot_bytes(buf, addr, left),
            slot_bytes(buf, addr, right),
            slot_bytes(buf, addr, suffix),
        )
        return node, size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChainNode(entries={self.entries})"


def is_chain_tag(first_byte: int) -> bool:
    """Dispatch: does the byte at a node address open a chain node?"""
    layout = NODE_LAYOUTS[first_byte]
    return layout is not None and layout.chain


def read_node(buf: Buffer, addr: int) -> NodeFields:
    """The in-place :data:`NodeFields` of whichever node kind sits at ``addr``."""
    header = read_standard(buf, addr)
    return read_chain(buf, addr) if header is None else header


def node_object(
    buf: Buffer, addr: int, fields: NodeFields
) -> Union[StandardNode, ChainNode]:
    """The node object for ``fields`` read at ``addr`` (slots copied out)."""
    first, second, left, right, suffix, __ = fields
    slots = (
        slot_bytes(buf, addr, left),
        slot_bytes(buf, addr, right),
        slot_bytes(buf, addr, suffix),
    )
    if isinstance(first, list):
        return ChainNode(list(zip(first, second)), *slots)
    return StandardNode(first, second, *slots)


def decode_node(buf: Buffer, addr: int) -> tuple[Union[StandardNode, ChainNode], int]:
    """Decode whichever node kind sits at ``addr``; ``(node, size)``."""
    fields = read_node(buf, addr)
    return node_object(buf, addr, fields), fields[5]


# ----------------------------------------------------------------------
# Preorder walk
# ----------------------------------------------------------------------

def walk_subtrees(buf: Buffer, root_slot: int) -> Iterator[FlatSubtree]:
    """Walk the tree below ``root_slot`` in preorder, reading nodes in place.

    Yields each level-1 subtree as flat :data:`FlatSubtree` lists, in
    ascending leading-rank order. Siblings are visited in ascending rank
    order (in order over their BST), children after their parent: the
    traversal the CFP-array conversion needs. No node object is built.
    Corrupt bytes raise :class:`~repro.errors.CodecError` subclasses.
    """
    layouts = NODE_LAYOUTS
    limit = len(buf)
    ranks: list[int] = []
    parents: list[int] = []
    pcounts: list[int] = []
    root = slot_value(buf, root_slot)
    if not root:
        return
    # Frames are (slot value, base rank, parent index). A negated address
    # re-enters a node whose left subtree has been walked.
    stack = [(root, 0, -1)]
    pop = stack.pop
    push = stack.append
    while stack:
        value, base, parent = pop()
        if value >= EMBEDDED_FLOOR:
            if parent < 0 and ranks:
                yield ranks, parents, pcounts
                ranks, parents, pcounts = [], [], []
            delta_item, pcount = embedded_fields(value)
            parents.append(parent)
            ranks.append(base + delta_item)
            pcounts.append(pcount)
            continue
        resumed = value < 0
        addr = -value if resumed else value
        if not addr:
            continue  # a null slot stores nothing
        if addr >= limit:
            raise CorruptBufferError(f"node address {addr} beyond the buffer ({limit})")
        layout = layouts[buf[addr]]
        if layout is None:
            raise CodecError(f"corrupt mask byte {buf[addr]:#04x} at {addr}")
        chain, item_width, pcount_width, left, right, suffix, size = layout
        # Slot offsets count from ``shift``: the node's address, or for a
        # chain the byte before its pointer area (see NodeLayout).
        if chain:
            deltas, chain_pcounts, end = _chain_entries(buf, addr)
            shift = end - 1
        else:
            shift = addr
        if shift + size > limit:
            raise CorruptBufferError(f"node at {addr} truncated: needs {size} bytes")
        if not resumed:
            if right:
                push((slot_value(buf, shift + right), base, parent))
            if left:
                push((-addr, base, parent))
                push((slot_value(buf, shift + left), base, parent))
                continue
        if parent < 0 and ranks:
            yield ranks, parents, pcounts
            ranks, parents, pcounts = [], [], []
        first = len(ranks)
        parents.append(parent)
        if chain:
            # Entry k's parent is entry k-1; ranks are the running sums.
            last = first + len(deltas) - 1
            parents.extend(range(first, last))
            deltas[0] += base
            ranks.extend(accumulate(deltas))
            pcounts.extend(chain_pcounts)
            parent = last
        else:
            start = addr + 1
            middle = start + item_width
            ranks.append(base + int.from_bytes(buf[start:middle], "big"))
            pcounts.append(int.from_bytes(buf[middle : middle + pcount_width], "big"))
            parent = first
        if suffix:
            push((slot_value(buf, shift + suffix), ranks[-1], parent))
    if ranks:
        yield ranks, parents, pcounts
