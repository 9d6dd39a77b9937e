"""Structural validator for the ternary CFP-tree byte format.

Walks the raw arena bytes (independent of the traversal code paths) and
checks every invariant of the §3.3 layout:

* slot contents are null, a valid in-range pointer, or an embedded leaf,
* every chunk is referenced by exactly one slot,
* compression masks decode and payload sizes are canonical (no wasted
  leading zero bytes),
* chain lengths lie within 1..max, escape entries are only used when the
  fast path cannot represent them,
* delta_item >= 1 everywhere; reconstructed ranks stay within ``n_ranks``,
* every sibling BST is in order: unique ranks, smaller ones to the left,
* the sum of pcounts equals the tree's transaction count.

Returns a :class:`ValidationReport`; raises nothing for an intact tree.
Used by tests (including corruption tests) and available to users as a
consistency check after restores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compress.zero_suppression import payload_size_2bit, payload_size_3bit
from repro.core import node_codec as codec
from repro.core.node_codec import (
    ChainNode,
    StandardNode,
    decode_embedded_leaf,
    decode_node,
    read_slot,
    slot_address,
    slot_is_embedded,
)
from repro.core.ternary import TernaryCfpTree
from repro.errors import ReproError
from repro.memman.pointers import POINTER_SIZE


class ValidationError(ReproError):
    """The tree's byte structure violates a layout invariant."""


@dataclass
class ValidationReport:
    """Census gathered during validation."""

    standard_nodes: int = 0
    chain_nodes: int = 0
    embedded_leaves: int = 0
    logical_nodes: int = 0
    pcount_total: int = 0
    max_depth: int = 0
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_tree(tree: TernaryCfpTree, strict: bool = True) -> ValidationReport:
    """Validate every invariant; raise on the first issue when ``strict``."""
    report = ValidationReport()
    buf = tree.arena.buf
    seen_addresses: set[int] = set()

    def issue(message: str) -> None:
        if strict:
            raise ValidationError(message)
        report.issues.append(message)

    def count_logical(rank: int, pcount: int) -> None:
        report.logical_nodes += 1
        report.pcount_total += pcount
        if not 1 <= rank <= tree.n_ranks:
            issue(f"reconstructed rank {rank} outside 1..{tree.n_ranks}")
        if pcount < 0:
            issue(f"negative pcount {pcount}")

    def check_order(base_rank: int, low: int, high: int | None, key: int) -> None:
        if key <= low or (high is not None and key >= high):
            below = "" if high is None else f" and below {base_rank + high}"
            issue(
                f"sibling rank {base_rank + key} out of BST order: its "
                f"place needs a rank above {base_rank + low}{below}"
            )

    # Iterative walk (sibling BSTs can degenerate to long left/right
    # chains, so recursion is unsafe). Stack holds (raw_slot, base, depth,
    # low, high): the slot's BST key (its delta_item) must lie strictly
    # between the keys of the ancestors its sibling BST descended through.
    stack: list[tuple[bytes, int, int, int, int | None]] = []
    root_raw = read_slot(buf, tree._root_slot)
    if root_raw != codec.NULL_SLOT:
        stack.append((root_raw, 0, 1, 0, None))
    while stack:
        raw, base_rank, depth, low, high = stack.pop()
        if raw == codec.NULL_SLOT:
            issue(f"stored slot is null at depth {depth} (presence-bit violation)")
            continue
        report.max_depth = max(report.max_depth, depth)
        if slot_is_embedded(raw):
            delta_item, pcount = decode_embedded_leaf(raw)
            if delta_item < 1:
                issue(f"embedded leaf with delta_item {delta_item} < 1")
            if pcount < 1:
                issue("embedded leaf with pcount 0 represents nothing")
            check_order(base_rank, low, high, delta_item)
            count_logical(base_rank + delta_item, pcount)
            report.embedded_leaves += 1
            continue
        address = slot_address(raw)
        if not 0 < address < tree.arena.used_bytes:
            issue(f"pointer {address:#x} outside the arena's used region")
            continue
        if address in seen_addresses:
            issue(f"chunk at {address:#x} referenced by more than one slot")
            continue
        seen_addresses.add(address)
        try:
            node, size = decode_node(buf, address)
        except ReproError as exc:
            issue(f"undecodable node at {address:#x}: {exc}")
            continue
        if isinstance(node, ChainNode):
            report.chain_nodes += 1
            key = node.entries[0][0]
            if not 1 <= len(node.entries) <= tree.max_chain_length:
                issue(
                    f"chain at {address:#x} has {len(node.entries)} entries "
                    f"(max {tree.max_chain_length})"
                )
            rank = base_rank
            for delta_item, pcount in node.entries:
                if delta_item < 1:
                    issue(
                        f"chain entry with delta_item {delta_item} at {address:#x}"
                    )
                rank += delta_item
                count_logical(rank, pcount)
            if node.suffix is None and node.entries[-1][1] < 1:
                issue(
                    f"chain at {address:#x} ends in a zero-pcount entry "
                    f"with no suffix"
                )
            suffix_base = rank
            suffix_depth = depth + len(node.entries)
        else:
            report.standard_nodes += 1
            key = node.delta_item
            if node.delta_item < 1:
                issue(
                    f"standard node at {address:#x} has delta_item "
                    f"{node.delta_item}"
                )
            expected = (
                1
                + payload_size_2bit(node.delta_item)
                + payload_size_3bit(node.pcount)
                + POINTER_SIZE
                * sum(
                    s is not None for s in (node.left, node.right, node.suffix)
                )
            )
            if size != expected:
                issue(
                    f"standard node at {address:#x}: encoded {size} bytes, "
                    f"canonical {expected}"
                )
            rank = base_rank + node.delta_item
            count_logical(rank, node.pcount)
            suffix_base = rank
            suffix_depth = depth + 1
        check_order(base_rank, low, high, key)
        if node.left is not None:
            stack.append((node.left, base_rank, depth, low, key))
        if node.right is not None:
            stack.append((node.right, base_rank, depth, key, high))
        if node.suffix is not None:
            stack.append((node.suffix, suffix_base, suffix_depth, 0, None))

    if report.logical_nodes != tree.logical_node_count:
        issue(
            f"logical node count mismatch: walked {report.logical_nodes}, "
            f"tree records {tree.logical_node_count}"
        )
    if report.pcount_total != tree.transaction_count:
        issue(
            f"pcount sum {report.pcount_total} != transaction count "
            f"{tree.transaction_count}"
        )
    return report
