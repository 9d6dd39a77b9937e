"""Stateful property test: the ternary CFP-tree under arbitrary op orders.

Hypothesis drives interleaved inserts (fresh paths, repeats, partial
prefixes, heavy counts) against the byte-level tree while a logical
CFP-tree acts as the model; after every step the physical structure must
validate and remain equivalent to the model, and conversion plus
checkpoint round-trips must preserve everything.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.cfp_tree import CfpTree
from repro.core.conversion import convert, cumulative_counts
from repro.core.ternary import TernaryCfpTree
from repro.core.validate import validate_tree

N_RANKS = 12

transactions = st.lists(
    st.integers(min_value=1, max_value=N_RANKS), min_size=1, max_size=8
).map(lambda ranks: sorted(set(ranks)))


class TernaryCfpMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = TernaryCfpTree(N_RANKS)
        self.model = CfpTree(N_RANKS)
        self.inserted: list[list[int]] = []

    @rule(ranks=transactions, count=st.integers(min_value=1, max_value=1000))
    def insert(self, ranks, count):
        self.tree.insert(ranks, count)
        self.model.insert(ranks, count)
        self.inserted.append(ranks)

    @rule(index=st.integers(min_value=0, max_value=10_000))
    def reinsert_existing(self, index):
        """Re-inserting a seen transaction exercises the pcount-bump path."""
        if not self.inserted:
            return
        ranks = self.inserted[index % len(self.inserted)]
        self.tree.insert(ranks)
        self.model.insert(ranks)

    @rule(index=st.integers(min_value=0, max_value=10_000))
    def insert_prefix(self, index):
        """Prefixes end mid-structure — the chain-interior pcount path."""
        if not self.inserted:
            return
        ranks = self.inserted[index % len(self.inserted)]
        prefix = ranks[: max(1, len(ranks) // 2)]
        self.tree.insert(prefix)
        self.model.insert(prefix)

    @rule(batch=st.lists(transactions, min_size=1, max_size=6))
    def insert_batch(self, batch):
        """A later batch resumes sibling searches past earlier batches' keys."""
        self.tree.insert_batch(batch)
        for ranks in batch:
            self.model.insert(ranks)
        self.inserted.extend(batch)

    @invariant()
    def byte_structure_validates(self):
        report = validate_tree(self.tree)
        assert report.ok

    @invariant()
    def equivalent_to_model(self):
        assert self.tree.node_count == self.model.node_count
        assert self.tree.transaction_count == self.model.transaction_count
        physical = sorted(self.tree.iter_nodes_with_parent())
        logical = sorted(
            (rank, node.pcount, _parent_rank)
            for rank, node, _parent_rank in _walk(self.model)
        )
        assert physical == logical

    @invariant()
    def conversion_preserves_counts(self):
        counts = cumulative_counts(self.tree)
        array = convert(self.tree)
        assert array.node_count == self.tree.node_count
        assert sum(counts) >= self.tree.transaction_count


def _walk(model: CfpTree):
    stack = [(rank, node, 0) for rank, node in model.root.children.items()]
    while stack:
        rank, node, parent = stack.pop()
        yield rank, node, parent
        stack.extend(
            (child_rank, child, rank) for child_rank, child in node.children.items()
        )


TernaryCfpMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestTernaryCfpStateful = TernaryCfpMachine.TestCase
