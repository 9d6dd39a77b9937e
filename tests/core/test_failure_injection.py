"""Failure injection: corrupted buffers and misuse must fail loudly."""

import pytest

from repro.compress import varint
from repro.core.cfp_array import CfpArray
from repro.core.conversion import convert
from repro.core.node_codec import (
    EMBEDDED_FLOOR,
    ChainNode,
    StandardNode,
    pointer_slot,
    read_node,
    slot_value,
    walk_subtrees,
)
from repro.core.ternary import TernaryCfpTree
from repro.errors import CodecError, CorruptBufferError, ReproError, TreeError


class TestCorruptStandardNodes:
    def test_truncated_item_payload(self):
        node = StandardNode(0x123456, 7)
        encoded = node.encode()[:2]  # cut inside the delta_item payload
        with pytest.raises(CorruptBufferError):
            StandardNode.decode(encoded, 0)

    def test_truncated_pointer(self):
        node = StandardNode(1, 0, suffix=pointer_slot(100))
        encoded = bytearray(node.encode()[:-2])
        # Pointer bytes are read blindly; decode succeeds but the slot is
        # short — the structure layer validates via range checks instead.
        decoded, __ = StandardNode.decode(bytes(encoded) + b"\x00\x00", 0)
        assert decoded.suffix is not None

    def test_invalid_pcount_mask(self):
        # Mask byte with pcount bits 0b101 (= 5) is never produced.
        encoded = bytearray(StandardNode(1, 0).encode())
        encoded[0] = (encoded[0] & 0b11000111) | (5 << 3)
        with pytest.raises(CodecError):
            StandardNode.decode(bytes(encoded), 0)


class TestCorruptChainNodes:
    def test_zero_length(self):
        encoded = bytearray(ChainNode([(1, 0), (2, 0)]).encode())
        encoded[1] = 0
        with pytest.raises(CorruptBufferError):
            ChainNode.decode(bytes(encoded), 0)

    def test_overlong_length(self):
        encoded = bytearray(ChainNode([(1, 0), (2, 0)]).encode())
        encoded[1] = 16
        with pytest.raises(CorruptBufferError):
            ChainNode.decode(bytes(encoded), 0)

    def test_truncated_escape_entry(self):
        encoded = ChainNode([(300, 5), (2, 0)]).encode()
        with pytest.raises(CorruptBufferError):
            ChainNode.decode(encoded[:3], 0)


class TestCorruptCfpArray:
    def _array(self):
        tree = TernaryCfpTree(3)
        tree.insert([1, 2, 3])
        tree.insert([1, 2])
        from repro.core.conversion import convert

        return convert(tree)

    def test_truncated_buffer(self):
        array = self._array()
        broken = CfpArray.__new__(CfpArray)
        broken.n_ranks = array.n_ranks
        broken.buffer = array.buffer[:-1]
        broken.starts = list(array.starts)
        broken.starts[-1] -= 1
        broken._node_count = None
        with pytest.raises(ReproError):
            list(broken.iter_subarray(array.n_ranks))

    def test_continuation_bit_corruption(self):
        array = self._array()
        # Setting the high bit of the last byte makes the final varint
        # run off the end of the buffer.
        array.buffer[-1] |= 0x80
        with pytest.raises(CorruptBufferError):
            list(array.iter_subarray(array.n_ranks))

    def test_bad_rank_rejected(self):
        array = self._array()
        with pytest.raises(TreeError):
            list(array.iter_subarray(0))
        with pytest.raises(TreeError):
            array.rank_support(99)


class TestVarintEdges:
    def test_all_continuation_bytes(self):
        with pytest.raises(CorruptBufferError):
            varint.decode_from(b"\xff" * 12)

    def test_offset_past_end(self):
        with pytest.raises(CorruptBufferError):
            varint.decode_from(b"\x01", 5)


class TestTreeMisuse:
    def test_insert_after_interleaved_config(self):
        # Valid inserts after promotions must not corrupt: stress by
        # alternating deep and shallow inserts and validating each step.
        tree = TernaryCfpTree(10)
        expected_nodes = 0
        sequences = [[5], [1, 5], [1, 5, 9], [2], [1, 2], [1, 5, 6, 7, 8]]
        for ranks in sequences:
            tree.insert(ranks)
            logical = tree.to_logical()
            assert logical.total_pcount() == tree.transaction_count
        expected_nodes = tree.node_count
        assert tree.to_logical().node_count == expected_nodes

    def test_rank_zero_rejected(self):
        tree = TernaryCfpTree(3)
        with pytest.raises(TreeError):
            tree.insert([0, 1])

    def test_large_counts_roundtrip(self):
        tree = TernaryCfpTree(2)
        tree.insert([1, 2], count=123_456_789)
        tree.insert([1], count=987_654_321)
        logical = tree.to_logical()
        assert logical.root.children[1].pcount == 987_654_321
        assert logical.root.children[1].children[2].pcount == 123_456_789
        from repro.core.conversion import convert

        array = convert(tree)
        assert array.rank_support(1) == 123_456_789 + 987_654_321


def _fingerprint(tree):
    return (
        tree.arena.snapshot(),
        tree.arena.stats(),
        tree.transaction_count,
        tree.logical_node_count,
    )


class TestInsertValidation:
    """A rejected insert leaves every counter and arena byte untouched."""

    def _tree(self):
        tree = TernaryCfpTree(5)
        tree.insert([1, 2, 3])
        return tree

    @pytest.mark.parametrize("ranks", [[1, 9], [6], [0, 1], [2, 2], [3, 1]])
    def test_bad_ranks(self, ranks):
        tree = self._tree()
        before = _fingerprint(tree)
        with pytest.raises(TreeError):
            tree.insert(ranks)
        with pytest.raises(TreeError):
            tree.insert_batch([[1, 4], ranks])
        assert _fingerprint(tree) == before

    def test_rank_above_n_ranks_never_reaches_convert(self):
        with pytest.raises(TreeError):
            TernaryCfpTree(5).insert([1, 9])
        tree = TernaryCfpTree(5)
        with pytest.raises(TreeError):
            tree.insert_batch([[2, 300]])
        assert convert(tree).node_count == 0

    @pytest.mark.parametrize("count", [-3, 0, 1.5, "2", None])
    def test_bad_count(self, count):
        tree = self._tree()
        before = _fingerprint(tree)
        with pytest.raises(TreeError):
            tree.insert([1, 2], count=count)
        with pytest.raises(TreeError):
            tree.insert_batch([[1, 2], [1, 3]], counts=[2, count])
        assert _fingerprint(tree) == before

    def test_zero_weight_is_rejected_before_the_batch(self):
        tree = TernaryCfpTree(3)
        with pytest.raises(TreeError):
            tree.insert_batch([[1, 2], [1, 3]], counts=[0, 2])
        assert tree.transaction_count == 0 and tree.logical_node_count == 0
        assert tree.arena.stats().alloc_count == 1  # the root slot only


class TestCorruptArenaWalk:
    """The in-place preorder walk turns corrupt bytes into typed errors."""

    def _tree(self):
        tree = TernaryCfpTree(8)
        tree.insert_batch(
            [[1, 2, 3, 4, 5], [1, 2, 6], [2, 5], [3], [3, 7, 8], [4, 6]],
            counts=[1, 2, 3, 300, 5, 6],
        )
        return tree

    def _node(self, tree, chain):
        """Address of the first node of the wanted kind under the root."""
        buf = tree.arena.buf
        stack = [slot_value(buf, tree._root_slot)]
        while stack:
            addr = stack.pop()
            fields = read_node(buf, addr)
            if isinstance(fields[0], list) == chain:
                return addr
            for offset in fields[2:5]:
                if offset and slot_value(buf, addr + offset) < EMBEDDED_FLOOR:
                    stack.append(slot_value(buf, addr + offset))
        raise AssertionError("no such node")

    def _walk(self, tree):
        return list(walk_subtrees(tree.arena.buf, tree._root_slot))

    def test_intact_tree_walks(self):
        tree = self._tree()
        assert sum(len(ranks) for ranks, __, __ in self._walk(tree)) == tree.node_count

    def test_pointer_beyond_the_buffer(self):
        tree = self._tree()
        tree.arena.write(tree._root_slot, pointer_slot(len(tree.arena.buf) + 64))
        with pytest.raises(CorruptBufferError):
            self._walk(tree)

    @pytest.mark.parametrize("pcount_mask", [5, 6])
    def test_impossible_mask(self, pcount_mask):
        tree = self._tree()
        addr = self._node(tree, chain=False)
        mask = tree.arena.read(addr, 1)[0]
        tree.arena.write(addr, bytes([(mask & 0b11000111) | (pcount_mask << 3)]))
        with pytest.raises(CodecError):
            self._walk(tree)
        with pytest.raises(CodecError):
            convert(tree)

    @pytest.mark.parametrize("length", [0, 16])
    def test_corrupt_chain_length(self, length):
        tree = self._tree()
        addr = self._node(tree, chain=True)
        tree.arena.write(addr + 1, bytes([length]))
        with pytest.raises(CorruptBufferError):
            self._walk(tree)

    def test_node_truncated_at_the_buffer_end(self):
        tree = self._tree()
        addr = self._node(tree, chain=False)
        size = StandardNode.decode(tree.arena.buf, addr)[1]
        truncated = bytes(tree.arena.buf[: addr + size - 1])
        with pytest.raises(CorruptBufferError):
            list(walk_subtrees(truncated, tree._root_slot))
