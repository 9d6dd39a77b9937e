"""The compressed physical CFP-tree (paper §3.3).

The build-phase structure: a ternary search tree whose nodes live as
variable-size byte chunks in an Appendix-A arena. Sibling nodes (direct
suffixes of the same parent) form a binary search tree threaded through
``left``/``right`` slots; ``suffix`` slots move one level down. Node kinds
and byte layouts are defined in :mod:`repro.core.node_codec`:

* standard nodes (mask byte + zero-suppressed ``delta_item``/``pcount`` +
  present pointers),
* embedded leaves (5 bytes inside the parent's pointer slot),
* chain nodes (runs of single-child nodes in one chunk, max length 15).

Every node chunk is referenced by exactly **one** slot (there are no parent
pointers or nodelinks in a CFP-tree), so chunks can be relocated on resize
by patching that single slot — which the insert path does whenever a node's
encoded size changes (pcount growth, pointer additions, promotions, chain
splits).

The three structural features can be disabled individually
(``enable_chains``, ``enable_embedding``) for the ablation experiments.

Inserts and traversals read the arena in place: a descent step reads a
node's fields and slot offsets through the codec's in-place readers
(:func:`~repro.core.node_codec.read_node`) and builds a node object only
for the node it mutates, and :meth:`TernaryCfpTree.subtrees` walks the
whole tree into flat preorder lists for the conversion. The arena a
build leaves behind — chunk addresses, free-list reuse, live bytes and
the allocator's counts — is fixed by the insert order alone, and
tests/core/test_build_identity.py pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.core import node_codec as codec
from repro.core.cfp_tree import CfpNode, CfpTree
from repro.core.node_codec import (
    EMBEDDED_FLOOR,
    ChainNode,
    FlatSubtree,
    NodeFields,
    decode_embedded_leaf,
    decode_node,
    embedded_fields,
    encode_chain,
    encode_embedded_leaf,
    encode_standard,
    leaf_embeddable,
    node_object,
    pointer_slot,
    read_node,
    read_slot,
    slot_address,
    slot_bytes,
    slot_is_embedded,
    slot_value,
    walk_subtrees,
)
from repro.errors import TreeError
from repro.memman import Arena
from repro.obs import get_tracer, metrics
from repro.memman.arena import MIN_CHUNK_SIZE
from repro.memman.pointers import POINTER_SIZE

#: A batched insert's resume point at one depth: ``(slot, base, bound)``
#: (see :meth:`TernaryCfpTree.insert_batch`).
TrailEntry = tuple[int, int, int | None]


def _within_bound(entry: TrailEntry | None, rank: int) -> bool:
    """Whether a search for ``rank`` from the entry's BST root passes it."""
    assert entry is not None
    __, base, bound = entry
    return bound is None or rank - base < bound


@dataclass
class PhysicalStats:
    """Structural census of a ternary CFP-tree."""

    standard_nodes: int = 0
    chain_nodes: int = 0
    chain_entries: int = 0
    embedded_leaves: int = 0

    @property
    def logical_nodes(self) -> int:
        """FP-tree nodes represented (standard + chain entries + embedded)."""
        return self.standard_nodes + self.chain_entries + self.embedded_leaves

    @property
    def chunks(self) -> int:
        """Arena chunks in use (embedded leaves use none)."""
        return self.standard_nodes + self.chain_nodes


class TernaryCfpTree:
    """Arena-backed compressed CFP-tree with the §3.3 insert path."""

    def __init__(
        self,
        n_ranks: int,
        arena: Arena | None = None,
        *,
        enable_chains: bool = True,
        enable_embedding: bool = True,
        max_chain_length: int = codec.DEFAULT_MAX_CHAIN_LENGTH,
    ) -> None:
        if n_ranks < 0:
            raise TreeError(f"n_ranks must be non-negative, got {n_ranks}")
        if not 1 <= max_chain_length <= codec.DEFAULT_MAX_CHAIN_LENGTH:
            raise TreeError(
                f"max_chain_length must be in 1..{codec.DEFAULT_MAX_CHAIN_LENGTH}"
            )
        self.n_ranks = n_ranks
        self.arena = arena if arena is not None else Arena()
        self.enable_chains = enable_chains
        self.enable_embedding = enable_embedding
        self.max_chain_length = max_chain_length
        #: The root's suffix slot: a 5-byte chunk holding the top-level BST.
        self._root_slot = self.arena.alloc(POINTER_SIZE)
        self.logical_node_count = 0
        self.transaction_count = 0
        #: Sorted-insert fast-path counters (see :meth:`insert_batch`).
        self.prefix_skip_hits = 0
        self.prefix_skip_levels = 0

    @classmethod
    def from_rank_transactions(
        cls, transactions: Iterable[list[int]], n_ranks: int, **kwargs: Any
    ) -> "TernaryCfpTree":
        tree = cls(n_ranks, **kwargs)
        tree.insert_batch(transactions)
        return tree

    @classmethod
    def restore(
        cls,
        arena: Arena,
        *,
        n_ranks: int,
        root_slot: int,
        logical_node_count: int,
        transaction_count: int,
        enable_chains: bool = True,
        enable_embedding: bool = True,
        max_chain_length: int = codec.DEFAULT_MAX_CHAIN_LENGTH,
    ) -> "TernaryCfpTree":
        """Re-attach a tree to an arena restored from a checkpoint.

        Unlike ``__init__`` this allocates nothing: the root slot and all
        node chunks already live inside ``arena``.
        """
        tree = cls.__new__(cls)
        tree.n_ranks = n_ranks
        tree.arena = arena
        tree.enable_chains = enable_chains
        tree.enable_embedding = enable_embedding
        tree.max_chain_length = max_chain_length
        tree._root_slot = root_slot
        tree.logical_node_count = logical_node_count
        tree.transaction_count = transaction_count
        tree.prefix_skip_hits = 0
        tree.prefix_skip_levels = 0
        return tree

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Exact physical bytes in live chunks (plus the 5-byte root slot)."""
        return self.arena.live_bytes

    @property
    def node_count(self) -> int:
        """Logical (FP-tree-equivalent) node count."""
        return self.logical_node_count

    def average_node_size(self) -> float:
        """Bytes per logical node — the Figure 6(a) metric."""
        if self.logical_node_count == 0:
            return 0.0
        return self.memory_bytes / self.logical_node_count

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, ranks: list[int], count: int = 1) -> None:
        """Insert a rank-sorted transaction, adding ``count`` to its pcount.

        ``ranks`` must ascend strictly within ``1..n_ranks`` and ``count``
        must be an int >= 1; otherwise :class:`TreeError` is raised before
        any counter or arena byte changes.
        """
        self._validate_count(count)
        if not ranks:
            return
        self._validate_ranks(ranks)
        self.transaction_count += count
        self._insert_from(ranks, count, self._root_slot, 0, 0, None)

    def insert_batch(
        self,
        transactions: Iterable[list[int]],
        counts: Sequence[int] | None = None,
    ) -> int:
        """Insert many transactions via the sorted-insert fast path.

        ``counts`` (aligned with ``transactions``) adds each transaction
        with a multiplicity, exactly as per-transaction
        :meth:`insert` calls with those counts would — the conditional
        mine kernels use this to insert each distinct filtered prefix
        path once. Omitted, every transaction counts once (the build
        phase).

        The batch is sorted lexicographically (a cheap scan skips the sort
        when it arrives already sorted), so consecutive transactions share
        rank prefixes. Each insert then resumes from the deepest still-valid
        node of the previous insert's path instead of descending from the
        root: the *trail* records, per depth, the slot referencing the node
        the previous insert matched there, and an insert re-enters at the
        first divergent rank. Sorted order makes the resume O(1) even in
        degenerate sibling BSTs: the divergent rank is always >= the
        recorded node's rank, so the search continues below it rather than
        re-walking the sibling BST from its root. That is only where a
        search from the BST's root would pass, so each trail entry also
        records the node's *bound*: the smallest key at which a search from
        the root turned left on its way there (None on the BST's right
        spine). A divergent rank at or past the bound, which keys left by
        an earlier batch can cause, resumes one depth higher instead, at
        the matched parent, and searches its sibling BST from the root.
        Trail entries below a mutated depth are discarded — a resize there
        may have relocated the chunks they point into (see
        :meth:`_replace`); sorting is mandatory for the same reason (a
        smaller rank would resume into the wrong BST subtree). At depth 0
        an insert whose first rank repeats resumes at ``trail[0]``, the
        very node a search from the root finds; a new first rank resumes
        at the *finger*, the end of the longest run of right moves any
        earlier search of the batch made from the root, which every larger
        rank's search also passes through. None of these changes where a
        search ends, so the arena is byte-identical to one searched from
        the root.

        The whole batch is validated (as in :meth:`insert`) before the
        first transaction is inserted, so a rejected batch leaves the tree
        untouched.

        Returns the number of non-empty transactions inserted. The logical
        tree is identical to per-transaction :meth:`insert` calls in any
        order, over any number of batches (and so is the converted
        CFP-array); the physical arena layout may differ, because insertion
        order steers chain and sibling creation.
        """
        txns = list(transactions)
        weights: list[int] | None = None
        if counts is not None:
            weights = list(counts)
            if len(weights) != len(txns):
                raise TreeError(
                    f"insert_batch counts ({len(weights)}) must align with "
                    f"transactions ({len(txns)})"
                )
            for weight in weights:
                self._validate_count(weight)
        for ranks in txns:
            if ranks:
                self._validate_ranks(ranks)
        if any(txns[k] < txns[k - 1] for k in range(1, len(txns))):
            if weights is None:
                txns = sorted(txns)
            else:
                order = sorted(range(len(txns)), key=txns.__getitem__)
                txns = [txns[k] for k in order]
                weights = [weights[k] for k in order]
        trail: list[TrailEntry | None] = [None]
        finger = [self._root_slot]
        prev: list[int] = []
        valid = 0  # trail[:valid] may be resumed
        inserted = 0
        hits_before = self.prefix_skip_hits
        for position, ranks in enumerate(txns):
            if not ranks:
                continue
            inserted += 1
            count = 1 if weights is None else weights[position]
            self.transaction_count += count
            n = len(ranks)
            limit = min(len(prev), n, valid)
            lcp = 0
            while lcp < limit and prev[lcp] == ranks[lcp]:
                lcp += 1
            resume = min(lcp, valid - 1, n - 1)
            while resume > 0 and (
                trail[resume] is None
                or resume == lcp
                and not _within_bound(trail[resume], ranks[resume])
            ):
                resume -= 1
            if len(trail) <= n:
                trail.extend([None] * (n + 1 - len(trail)))
            if resume > 0:
                entry = trail[resume]
                assert entry is not None
                slot, base, bound = entry
                self.prefix_skip_hits += 1
                self.prefix_skip_levels += resume
            else:
                resume = 0
                if lcp:
                    # Same first rank: its depth-0 node hangs off trail[0].
                    entry = trail[0]
                    assert entry is not None
                    slot, base, bound = entry
                else:
                    slot, base, bound = finger[0], 0, None
            stop = self._insert_from(
                ranks, count, slot, base, resume, trail, finger, bound
            )
            valid = stop + 1
            prev = ranks
        # Metric publication is gated on an installed tracer, like every
        # other component: an untraced run keeps the registry empty.
        if inserted and get_tracer() is not None:
            metrics.add("build.batch_transactions", inserted)
            metrics.add(
                "build.prefix_skip_hits", self.prefix_skip_hits - hits_before
            )
        return inserted

    def _validate_ranks(self, ranks: list[int]) -> None:
        previous = 0
        for rank in ranks:
            if rank <= previous:
                raise TreeError(
                    f"transaction ranks must be strictly ascending and "
                    f"positive: {ranks}"
                )
            previous = rank
        if previous > self.n_ranks:
            raise TreeError(
                f"transaction rank {previous} exceeds the tree's "
                f"{self.n_ranks} ranks"
            )

    @staticmethod
    def _validate_count(count: int) -> None:
        if not isinstance(count, int) or count < 1:
            raise TreeError(f"transaction count must be an int >= 1, got {count!r}")

    def _insert_from(
        self,
        ranks: list[int],
        count: int,
        slot: int,
        base: int,
        i: int,
        trail: list[TrailEntry | None] | None,
        finger: list[int] | None = None,
        bound: int | None = None,
    ) -> int:
        """Run the §3.3 insert descent for ``ranks[i:]`` starting at ``slot``.

        ``slot`` must reference a position in the sibling BST of depth ``i``
        (the root slot, a suffix slot, or a left/right slot) with ``base``
        the depth ``i-1`` rank on the path, and ``bound`` the smallest key
        at which a search from the BST's root turns left on its way to
        ``slot`` (None if it never does). When ``trail`` is given, the slot
        found referencing this transaction's node at each depth is
        recorded at ``trail[depth]`` as ``(slot, base, bound)``; depths
        interior to a chain chunk get ``None`` (there is no per-depth slot
        to resume at inside a chain).

        ``finger`` (a one-slot list) is the depth-0 search's resume point
        in a sorted batch: the slot reached by the longest run of right
        moves from the root. Every later, larger first rank takes those
        same right moves, so its search may start there and end where a
        search from the root would.

        Returns the *stop depth*: the first depth of the chunk the final
        mutation touched. Trail entries at depths <= stop keep pointing into
        chunks this insert cannot have relocated: every relocation patches
        the single slot referencing the moved chunk, and that slot lives
        outside it — while slots *inside* the moved chunk reference strictly
        deeper nodes, whose trail depths exceed the returned stop.

        Descents read node headers and chain entries in place; only the
        node a step mutates is decoded into a node object.
        """
        buf = self.arena.buf
        n = len(ranks)
        while True:
            delta = ranks[i] - base
            target = slot_value(buf, slot)
            if not target:
                content = self._build_path(ranks, i, base, count)
                self._write_slot(slot, content)
                if trail is not None:
                    trail[i] = (slot, base, bound)
                return i
            if target >= EMBEDDED_FLOOR:
                leaf_delta, leaf_pcount = embedded_fields(target)
                if leaf_delta == delta and i == n - 1:
                    new_pcount = leaf_pcount + count
                    if leaf_embeddable(leaf_delta, new_pcount):
                        content = encode_embedded_leaf(leaf_delta, new_pcount)
                    else:
                        data = encode_standard(leaf_delta, new_pcount)
                        content = pointer_slot(self._store(data))
                    self._write_slot(slot, content)
                    if trail is not None:
                        trail[i] = (slot, base, bound)
                    return i
                # The leaf gains a child or a sibling: promote to standard.
                data = encode_standard(leaf_delta, leaf_pcount)
                self._write_slot(slot, pointer_slot(self._store(data)))
                continue
            fields = read_node(buf, target)
            chain = isinstance(fields[0], list)
            node_delta = fields[0][0] if chain else fields[0]
            if delta != node_delta:
                # Sibling navigation (a chain's siblings hang off its first
                # entry): the left slot is field 2, the right field 3.
                side = 2 if delta < node_delta else 3
                if side == 2:
                    bound = node_delta
                if fields[side]:
                    next_slot = target + fields[side]
                    if side == 3 and finger is not None and slot == finger[0]:
                        finger[0] = next_slot
                    slot = next_slot
                    continue
                node = node_object(buf, target, fields)
                content = self._build_path(ranks, i, base, count)
                if side == 2:
                    node.left = content
                else:
                    node.right = content
                new_addr = self._replace(slot, target, fields[5], node.encode())
                if trail is not None:
                    new_slot = new_addr + read_node(buf, new_addr)[side]
                    trail[i] = (new_slot, base, bound)
                return i
            if trail is not None:
                trail[i] = (slot, base, bound)
            if chain:
                chain_depth = i
                result = self._step_chain(slot, target, fields, ranks, i, count, trail)
                if result is None:
                    return chain_depth
                slot, base, i = result
                bound = None
                continue
            __, pcount, __, __, suffix, size = fields
            if i < n - 1 and suffix:
                slot = target + suffix
                base = ranks[i]
                i += 1
                bound = None
                continue
            if i == n - 1:
                # The transaction ends here: add its count to the node's.
                counted = (node_delta, pcount + count) + fields[2:]
                node = node_object(buf, target, counted)
            else:
                node = node_object(buf, target, fields)
                node.suffix = self._build_path(ranks, i + 1, ranks[i], count)
            self._replace(slot, target, size, node.encode())
            return i

    def _step_chain(
        self,
        slot: int,
        addr: int,
        fields: NodeFields,
        ranks: list[int],
        i: int,
        count: int,
        trail: list[TrailEntry | None] | None = None,
    ) -> tuple[int, int, int] | None:
        """Walk an insert along the chain at ``addr`` from its first entry.

        The chain's first entry matches ``ranks[i]``. ``fields`` are the
        chain's :func:`read_chain` fields; a :class:`ChainNode` is built
        only when this step mutates the chain. Returns the next
        ``(slot, base, i)`` to process, or None when the insert completed
        inside the chain.
        """
        deltas, pcounts, __, __, suffix, size = fields
        n = len(ranks)
        j = 0
        while True:
            # Entry j matches ranks[i].
            base = ranks[i]
            i += 1
            if i == n:
                pcounts[j] += count
                chain = node_object(self.arena.buf, addr, fields)
                self._replace(slot, addr, size, chain.encode())
                return None
            delta = ranks[i] - base
            j += 1
            if j == len(deltas):
                if suffix:
                    return addr + suffix, base, i
                chain = node_object(self.arena.buf, addr, fields)
                chain.suffix = self._build_path(ranks, i, base, count)
                self._replace(slot, addr, size, chain.encode())
                return None
            # Depth i sits inside this chain chunk: no slot to resume at.
            # A split overwrites this via the level-root recording on return.
            if trail is not None:
                trail[i] = None
            if deltas[j] != delta:
                return self._split_chain(slot, addr, fields, j), base, i

    def _split_chain(self, slot: int, addr: int, fields: NodeFields, j: int) -> int:
        """Split the chain at ``addr`` before entry ``j``; return the slot below.

        The returned slot is the suffix slot of the prefix's last entry.

        The prefix ``entries[:j]`` stays in place (keeping the chain's
        left/right siblings); entry ``j`` becomes a standard node so it can
        take BST siblings; the tail ``entries[j+1:]`` is re-materialized
        below it, ending in the chain's original suffix.
        """
        deltas, pcounts, left, right, suffix, size = fields
        buf = self.arena.buf
        left_raw = slot_bytes(buf, addr, left)
        right_raw = slot_bytes(buf, addr, right)
        tail = list(zip(deltas[j + 1 :], pcounts[j + 1 :]))
        tail_content = self._materialize_run(tail, slot_bytes(buf, addr, suffix))
        pivot = encode_standard(deltas[j], pcounts[j], suffix=tail_content)
        pivot_ptr = pointer_slot(self._store(pivot))
        if j == 1:
            data = encode_standard(deltas[0], pcounts[0], left_raw, right_raw, pivot_ptr)
        else:
            prefix = list(zip(deltas[:j], pcounts[:j]))
            data = encode_chain(prefix, left_raw, right_raw, pivot_ptr)
        new_addr = self._replace(slot, addr, size, data)
        return new_addr + len(data) - POINTER_SIZE

    def _build_path(
        self, ranks: list[int], i: int, base: int, count: int
    ) -> bytes:
        """Materialize the fresh path ``ranks[i:]`` and return slot content."""
        entries = []
        prev = base
        for rank in ranks[i:]:
            entries.append((rank - prev, 0))
            prev = rank
        entries[-1] = (entries[-1][0], count)
        self.logical_node_count += len(entries)
        content = self._materialize_run(entries, None)
        assert content is not None
        return content

    def _materialize_run(
        self, entries: list[tuple[int, int]], below: bytes | None
    ) -> bytes | None:
        """Encode a vertical run of single-child nodes ending in ``below``.

        Returns slot content (pointer or embedded leaf), or ``below`` itself
        when ``entries`` is empty. Chains and leaf embedding are applied per
        the tree's configuration.
        """
        content = below
        remaining = entries
        if content is None and remaining:
            last_delta, last_pcount = remaining[-1]
            # Embed the leaf when that is the cheaper layout: a lone leaf
            # in the parent's pointer slot costs 5 bytes against 8 for a
            # pointer plus a 3-byte standard node. When a chain will be
            # built anyway, keeping the leaf as the chain's final entry
            # (1-3 bytes) beats spending a 5-byte suffix slot on it.
            chain_absorbs_leaf = self.enable_chains and len(remaining) >= 2
            if (
                self.enable_embedding
                and not chain_absorbs_leaf
                and last_pcount > 0
                and leaf_embeddable(last_delta, last_pcount)
            ):
                content = encode_embedded_leaf(last_delta, last_pcount)
                remaining = remaining[:-1]
        while remaining:
            if self.enable_chains and len(remaining) >= 2:
                take = min(len(remaining), self.max_chain_length)
                data = encode_chain(remaining[-take:], suffix=content)
                remaining = remaining[:-take]
            else:
                delta_item, pcount = remaining[-1]
                remaining = remaining[:-1]
                data = encode_standard(delta_item, pcount, suffix=content)
            content = pointer_slot(self._store(data))
        return content

    # ------------------------------------------------------------------
    # Chunk plumbing
    # ------------------------------------------------------------------

    def _store(self, data: bytes) -> int:
        addr = self.arena.alloc(max(len(data), MIN_CHUNK_SIZE))
        self.arena.write(addr, data)
        return addr

    def _replace(self, slot: int, addr: int, old_size: int, data: bytes) -> int:
        """Write ``data`` over its old chunk, relocating if it outgrew it."""
        old_chunk = max(old_size, MIN_CHUNK_SIZE)
        new_chunk = max(len(data), MIN_CHUNK_SIZE)
        if new_chunk == old_chunk:
            self.arena.write(addr, data)
            return addr
        self.arena.free(addr, old_chunk)
        new_addr = self.arena.alloc(new_chunk)
        self.arena.write(new_addr, data)
        self._write_slot(slot, pointer_slot(new_addr))
        return new_addr

    def _write_slot(self, slot: int, raw: bytes) -> None:
        self.arena.write(slot, raw)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def subtrees(self) -> Iterator[FlatSubtree]:
        """Each level-1 subtree as flat preorder ``(ranks, parents, pcounts)``.

        One walk of the arena that reads every node in place
        (:func:`~repro.core.node_codec.walk_subtrees`): subtrees come in
        ascending leading-rank order, siblings in ascending rank order,
        children after their parent. ``parents[i]`` indexes the subtree's
        lists (-1 for its root); pcounts are raw. Every yielded list is
        fresh, so callers may keep or fold them.
        """
        return walk_subtrees(self.arena.buf, self._root_slot)

    def iter_events(self) -> Iterator[tuple[str, int, int]]:
        """Preorder DFS events: ``("enter", rank, pcount)`` / ``("leave", 0, 0)``.

        The event form of :meth:`subtrees`, in the same order.
        """
        for ranks, parents, pcounts in self.subtrees():
            open_nodes: list[int] = []
            for index, parent in enumerate(parents):
                while open_nodes and open_nodes[-1] != parent:
                    open_nodes.pop()
                    yield ("leave", 0, 0)
                open_nodes.append(index)
                yield ("enter", ranks[index], pcounts[index])
            for __ in open_nodes:
                yield ("leave", 0, 0)

    def iter_nodes_with_parent(self) -> Iterator[tuple[int, int, int]]:
        """DFS preorder ``(rank, pcount, parent_rank)`` triples."""
        for ranks, parents, pcounts in self.subtrees():
            for rank, parent, pcount in zip(ranks, parents, pcounts):
                yield rank, pcount, ranks[parent] if parent >= 0 else 0

    def to_logical(self) -> CfpTree:
        """Reconstruct the logical CFP-tree (used by tests and validation)."""
        tree = CfpTree(self.n_ranks)
        node_stack: list[tuple[int, CfpNode]] = [(0, tree.root)]
        for kind, rank, pcount in self.iter_events():
            if kind == "enter":
                parent_rank, parent = node_stack[-1]
                child = CfpNode(rank - parent_rank, pcount)
                if rank in parent.children:
                    raise TreeError(f"duplicate sibling rank {rank} in DFS")
                parent.children[rank] = child
                tree._node_count += 1
                tree._transaction_count += pcount
                node_stack.append((rank, child))
            else:
                node_stack.pop()
        return tree

    def single_path(self) -> list[tuple[int, int]] | None:
        """The tree's single path as ``(rank, count)`` pairs, or None.

        Counts are reconstructed from partial counts: on a path the count of
        a node is the suffix sum of pcounts from that node to the leaf. Used
        by CFP-growth's single-path shortcut (mining a path needs no
        conversion to a CFP-array).
        """
        buf = self.arena.buf
        raw = read_slot(buf, self._root_slot)
        rank = 0
        nodes: list[tuple[int, int]] = []  # (rank, pcount)
        while raw != codec.NULL_SLOT:
            if slot_is_embedded(raw):
                delta_item, pcount = decode_embedded_leaf(raw)
                rank += delta_item
                nodes.append((rank, pcount))
                break
            addr = slot_address(raw)
            node, __ = decode_node(buf, addr)
            if node.left is not None or node.right is not None:
                return None
            if isinstance(node, ChainNode):
                for delta_item, pcount in node.entries:
                    rank += delta_item
                    nodes.append((rank, pcount))
            else:
                rank += node.delta_item
                nodes.append((rank, node.pcount))
            raw = node.suffix if node.suffix is not None else codec.NULL_SLOT
        # Suffix-sum the pcounts to get cumulative counts.
        path = []
        running = 0
        for node_rank, pcount in reversed(nodes):
            running += pcount
            path.append((node_rank, running))
        path.reverse()
        return path

    def physical_stats(self) -> PhysicalStats:
        """Census of node kinds actually stored (Figure 6(a) analysis)."""
        buf = self.arena.buf
        stats = PhysicalStats()
        root_raw = read_slot(buf, self._root_slot)
        if root_raw == codec.NULL_SLOT:
            return stats
        stack = [root_raw]
        while stack:
            raw = stack.pop()
            if slot_is_embedded(raw):
                stats.embedded_leaves += 1
                continue
            addr = slot_address(raw)
            node, __ = decode_node(buf, addr)
            if isinstance(node, ChainNode):
                stats.chain_nodes += 1
                stats.chain_entries += len(node.entries)
            else:
                stats.standard_nodes += 1
            for slot in (node.left, node.right, node.suffix):
                if slot is not None and slot != codec.NULL_SLOT:
                    stack.append(slot)
        return stats
