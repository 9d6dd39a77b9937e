"""Batched builds equal one-shot builds, structure and bytes.

A sorted batch inserted into a tree that already holds nodes resumes each
sibling search where the previous transaction's search ended; that is
only right where a search from the sibling BST's root would pass the
resume node. These tests hold every multi-batch build, checkpointed and
resumed or not, to the logical tree and the converted CFP-array of a
one-shot build, and :func:`validate_tree` to catching siblings out of
BST order.
"""

from __future__ import annotations

import pytest

from repro.core import ternary
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.core.validate import validate_tree
from repro.streaming.builder import CountingPhase, StreamingBuilder
from tests.conftest import paper_example_database, random_database

#: Three batches that put a new key left of the previous batch's largest
#: sibling, then resume past it.
REPRO_BATCHES = [[[1, 2], [1, 5]], [[1, 3], [1, 6]], [[1, 6]]]


def _nodes(tree: TernaryCfpTree) -> list[tuple[int, int, int]]:
    return sorted(tree.iter_nodes_with_parent())


def _array(tree: TernaryCfpTree) -> tuple[bytes, list[int]]:
    array = convert(tree)
    return bytes(array.buffer), list(array.starts)


def _assert_same_build(got: TernaryCfpTree, want: TernaryCfpTree) -> None:
    assert validate_tree(got, strict=False).issues == []
    got.to_logical()  # raises on a duplicated sibling
    assert got.logical_node_count == want.logical_node_count
    assert got.transaction_count == want.transaction_count
    assert _nodes(got) == _nodes(want)
    assert _array(got) == _array(want)


def test_repro_batches_keep_sibling_order():
    tree = TernaryCfpTree(10)
    one_shot = TernaryCfpTree(10)
    for batch in REPRO_BATCHES:
        tree.insert_batch(batch)
        for ranks in batch:
            one_shot.insert(ranks)
    _assert_same_build(tree, one_shot)


def test_validate_flags_siblings_out_of_order(monkeypatch):
    # Resuming past the bound unconditionally is the defect the bound
    # check mends: it leaves sibling 6 right of 5 and 3 right of 2 in a
    # BST that holds 5 above them, and the last batch duplicates 6.
    monkeypatch.setattr(ternary, "_within_bound", lambda entry, rank: True)
    tree = TernaryCfpTree(10)
    for batch in REPRO_BATCHES:
        tree.insert_batch(batch)
    issues = validate_tree(tree, strict=False).issues
    assert any("out of BST order" in issue for issue in issues)


def _databases():
    return {
        "paper": (paper_example_database(), 2),
        "random-11": (random_database(11, 150, 25, 14), 3),
        "random-5": (random_database(5, 200, 40, 12), 2),
        "random-8": (random_database(8, 120, 16, 10), 1),
    }


def _splits(n: int) -> list[tuple[int, int]]:
    """Four consecutive batches, then the first third again."""
    cuts = [0, n // 4, n // 2, 3 * n // 4, n]
    return [(cuts[k], cuts[k + 1]) for k in range(4)] + [(0, n // 3)]


@pytest.mark.parametrize("source", list(_databases()))
@pytest.mark.parametrize("resume", [False, True])
def test_streaming_builder_matches_one_shot(source, resume, tmp_path):
    database, min_support = _databases()[source]
    counting = CountingPhase()
    counting.add_batch(database)
    table = counting.finish(min_support)
    batches = [database[start:end] for start, end in _splits(len(database))]
    builder = StreamingBuilder(table)
    for number, batch in enumerate(batches):
        builder.add_batch(batch)
        if resume and number in (1, 3):
            path = tmp_path / f"build-{number}.cfpt"
            builder.checkpoint(path)
            builder = StreamingBuilder.resume(table, path)
    one_shot = StreamingBuilder(table)
    one_shot.add_batch([transaction for batch in batches for transaction in batch])
    _assert_same_build(builder.tree, one_shot.tree)
    assert builder.finish() == one_shot.finish()
