"""Unit tests for the ternary CFP-tree node byte formats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compress.masks import NODE_LAYOUTS, unpack_node_mask
from repro.core import node_codec as codec
from repro.core.node_codec import (
    ChainNode,
    StandardNode,
    decode_embedded_leaf,
    decode_node,
    encode_chain,
    encode_embedded_leaf,
    encode_standard,
    is_chain_tag,
    leaf_embeddable,
    pointer_slot,
    read_chain,
    read_node,
    read_standard,
    slot_address,
    slot_is_embedded,
)
from repro.errors import (
    ChainOverflowError,
    CodecError,
    CorruptBufferError,
    ReproError,
    ValueOutOfRangeError,
)

slots = st.one_of(
    st.none(),
    st.integers(min_value=1, max_value=(1 << 39)).map(pointer_slot),
)


class TestEmbeddedLeaf:
    def test_roundtrip(self):
        raw = encode_embedded_leaf(7, 12345)
        assert len(raw) == 5
        assert raw[0] == 0xFF
        assert decode_embedded_leaf(raw) == (7, 12345)

    def test_embeddability_bounds(self):
        assert leaf_embeddable(0, 0)
        assert leaf_embeddable(255, (1 << 24) - 1)
        assert not leaf_embeddable(256, 0)
        assert not leaf_embeddable(0, 1 << 24)
        assert not leaf_embeddable(-1, 0)

    def test_encode_rejects_unembeddable(self):
        with pytest.raises(CorruptBufferError):
            encode_embedded_leaf(300, 0)

    def test_decode_rejects_non_leaf(self):
        with pytest.raises(CorruptBufferError):
            decode_embedded_leaf(b"\x01\x02\x03\x04\x05")

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=(1 << 24) - 1),
    )
    def test_roundtrip_property(self, delta, pcount):
        assert decode_embedded_leaf(encode_embedded_leaf(delta, pcount)) == (
            delta,
            pcount,
        )


class TestSlots:
    def test_pointer_slot_roundtrip(self):
        raw = pointer_slot(0x0102030405)
        assert slot_address(raw) == 0x0102030405
        assert not slot_is_embedded(raw)

    def test_embedded_slot_detected(self):
        assert slot_is_embedded(encode_embedded_leaf(1, 1))

    def test_address_of_embedded_raises(self):
        with pytest.raises(CorruptBufferError):
            slot_address(encode_embedded_leaf(1, 1))


class TestStandardNode:
    def test_paper_figure4_seven_bytes(self):
        # delta_item=3, pcount=0, only suffix present -> 7 bytes total.
        node = StandardNode(3, 0, suffix=pointer_slot(100))
        encoded = node.encode()
        assert len(encoded) == 7
        assert encoded[0] == 0b11100001

    def test_minimal_leaf_three_bytes(self):
        # §3.3: smallest standard node = mask + delta_item + pcount byte.
        node = StandardNode(5, 1)
        assert len(node.encode()) == 3

    def test_maximal_node_24_bytes(self):
        # §3.3 / Appendix A: the largest footprint is 24 bytes.
        node = StandardNode(
            0xDEADBEEF,
            0xCAFEBABE,
            left=pointer_slot(1),
            right=pointer_slot(2),
            suffix=pointer_slot(3),
        )
        assert len(node.encode()) == 24

    def test_decode_at_offset(self):
        node = StandardNode(3, 7, left=pointer_slot(42))
        buf = b"\xaa\xbb" + node.encode()
        decoded, size = StandardNode.decode(buf, 2)
        assert size == len(node.encode())
        assert decoded.delta_item == 3
        assert decoded.pcount == 7
        assert slot_address(decoded.left) == 42
        assert decoded.right is None
        assert decoded.suffix is None

    def test_embedded_leaf_survives_in_slot(self):
        leaf = encode_embedded_leaf(9, 2)
        node = StandardNode(1, 0, suffix=leaf)
        decoded, __ = StandardNode.decode(node.encode(), 0)
        assert decoded.suffix == leaf

    @given(
        st.integers(min_value=1, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        slots,
        slots,
        slots,
    )
    def test_roundtrip(self, delta, pcount, left, right, suffix):
        node = StandardNode(delta, pcount, left, right, suffix)
        encoded = node.encode()
        decoded, size = StandardNode.decode(encoded, 0)
        assert size == len(encoded)
        assert (
            decoded.delta_item,
            decoded.pcount,
            decoded.left,
            decoded.right,
            decoded.suffix,
        ) == (delta, pcount, left, right, suffix)


class TestChainNode:
    def test_fast_entries_one_byte(self):
        chain = ChainNode([(3, 0), (1, 0), (255, 0)])
        # tag + length + 3 fast entries = 5 bytes.
        assert len(chain.encode()) == 5

    def test_escape_entries(self):
        chain = ChainNode([(300, 0), (1, 7)])
        decoded, __ = ChainNode.decode(chain.encode(), 0)
        assert decoded.entries == [(300, 0), (1, 7)]

    def test_tag_disambiguates_from_standard(self):
        chain = ChainNode([(1, 0), (2, 0)])
        standard = StandardNode(1, 0)
        assert is_chain_tag(chain.encode()[0])
        assert not is_chain_tag(standard.encode()[0])

    def test_decode_node_dispatch(self):
        chain = ChainNode([(1, 0), (2, 0)])
        node, __ = decode_node(chain.encode(), 0)
        assert isinstance(node, ChainNode)
        std = StandardNode(4, 2)
        node, __ = decode_node(std.encode(), 0)
        assert isinstance(node, StandardNode)

    def test_length_limit(self):
        with pytest.raises(ChainOverflowError):
            ChainNode([(1, 0)] * 16).encode()
        with pytest.raises(ChainOverflowError):
            ChainNode([]).encode()

    def test_decode_corrupt_length(self):
        good = ChainNode([(1, 0), (2, 0)]).encode()
        corrupt = bytes([good[0], 0]) + good[2:]
        with pytest.raises(CorruptBufferError):
            ChainNode.decode(corrupt, 0)

    def test_decode_rejects_standard(self):
        with pytest.raises(CorruptBufferError):
            ChainNode.decode(StandardNode(1, 0).encode(), 0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=100_000),
                st.integers(min_value=0, max_value=100_000),
            ),
            min_size=1,
            max_size=15,
        ),
        slots,
        slots,
        slots,
    )
    def test_roundtrip(self, entries, left, right, suffix):
        chain = ChainNode(entries, left, right, suffix)
        encoded = chain.encode()
        decoded, size = ChainNode.decode(encoded, 0)
        assert size == len(encoded)
        assert decoded.entries == entries
        assert (decoded.left, decoded.right, decoded.suffix) == (left, right, suffix)


def _error_type(function, *args):
    """The exact exception type ``function(*args)`` raises."""
    with pytest.raises(ReproError) as info:
        function(*args)
    return type(info.value)


class TestLayoutTable:
    def test_matches_unpack_node_mask_for_every_byte(self):
        for byte in range(256):
            layout = NODE_LAYOUTS[byte]
            try:
                mask = unpack_node_mask(byte)
            except CodecError:
                # pcount masks 5-7: never a standard node.
                assert layout is None or layout.chain
                assert (layout is not None) == is_chain_tag(byte)
                continue
            assert layout is not None and not layout.chain
            assert layout.item_width == 4 - mask.item_mask
            assert layout.pcount_width == 4 - mask.pcount_mask
            presence = (layout.left > 0, layout.right > 0, layout.suffix > 0)
            assert presence == (
                mask.left_present,
                mask.right_present,
                mask.suffix_present,
            )
            header = 1 + layout.item_width + layout.pcount_width
            assert layout.size == header + 5 * sum(presence)

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        slots,
        slots,
        slots,
    )
    def test_read_standard_agrees_with_decode(self, delta, pcount, left, right, suffix):
        encoded = b"\x01\x02" + encode_standard(delta, pcount, left, right, suffix)
        node, size = StandardNode.decode(encoded, 2)
        fields = read_standard(encoded, 2)
        assert fields is not None
        assert fields[:2] == (delta, pcount) and fields[5] == size == len(encoded) - 2
        for offset, slot in zip(fields[2:5], (left, right, suffix)):
            assert (offset and encoded[2 + offset : 7 + offset]) == (slot or 0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=100_000),
                st.integers(min_value=0, max_value=100_000),
            ),
            min_size=1,
            max_size=15,
        ),
        slots,
        slots,
        slots,
    )
    def test_read_chain_agrees_with_decode(self, entries, left, right, suffix):
        encoded = encode_chain(entries, left, right, suffix)
        deltas, pcounts, *offsets, size = read_chain(encoded, 0)
        assert list(zip(deltas, pcounts)) == entries and size == len(encoded)
        for offset, slot in zip(offsets, (left, right, suffix)):
            assert (offset and encoded[offset : offset + 5]) == (slot or 0)
        assert read_node(encoded, 0) == read_chain(encoded, 0)


class TestErrorParity:
    """The in-place readers and encoders raise what the object API raises."""

    STANDARD_READERS = (read_standard, read_node, decode_node, StandardNode.decode)
    CHAIN_READERS = (read_chain, read_node, decode_node, ChainNode.decode)

    def _parity(self, readers, buf, expected):
        assert {_error_type(read, buf, 0) for read in readers} == {expected}

    def test_truncated_standard_payload(self):
        encoded = StandardNode(0x123456, 0x7890, suffix=pointer_slot(9)).encode()
        for cut in range(1, len(encoded)):
            self._parity(self.STANDARD_READERS, encoded[:cut], CorruptBufferError)

    @pytest.mark.parametrize("pcount_mask", [5, 6])
    def test_impossible_pcount_mask(self, pcount_mask):
        encoded = bytearray(StandardNode(1, 0, left=pointer_slot(3)).encode())
        encoded[0] = (encoded[0] & 0b11000111) | (pcount_mask << 3)
        self._parity(self.STANDARD_READERS, bytes(encoded), CodecError)

    @pytest.mark.parametrize("length", [0, 16])
    def test_corrupt_chain_length(self, length):
        encoded = bytearray(ChainNode([(1, 0), (2, 0)]).encode())
        encoded[1] = length
        self._parity(self.CHAIN_READERS, bytes(encoded), CorruptBufferError)

    def test_truncated_escape_varint(self):
        encoded = ChainNode([(300, 5), (2, 0)]).encode()
        for cut in range(3, 6):
            self._parity(self.CHAIN_READERS, encoded[:cut], CorruptBufferError)

    @pytest.mark.parametrize(
        "delta,pcount",
        [(-1, 0), (1 << 32, 0), (1, -1), (1, 1 << 32), (1, 1.5)],
    )
    def test_standard_field_out_of_range(self, delta, pcount):
        assert _error_type(encode_standard, delta, pcount) is ValueOutOfRangeError
        assert _error_type(StandardNode(delta, pcount).encode) is ValueOutOfRangeError

    @pytest.mark.parametrize("length", [0, 16])
    def test_chain_entry_count(self, length):
        entries = [(1, 0)] * length
        assert _error_type(encode_chain, entries) is ChainOverflowError
        assert _error_type(ChainNode(entries).encode) is ChainOverflowError
