"""Golden physical identity of the CFP-tree build phase.

Every digest below is a sha256 over what one build leaves behind: the
arena's used bytes, its allocator statistics and live bytes, the tree's
counters, its physical census, and the bytes and ``starts`` of its
conversion. They were computed at commit fd48629 (before the build
phase read node headers in place) and must never change: chunk
addresses, free-list reuse and alloc/free/reuse counts are part of what
checkpoints persist and what the Table 1-2 and Figure 6 numbers report.

The builds cover every tree configuration, the three insert entry
points, a checkpointed and resumed streaming build and the parallel
build; the inputs cover long transactions (chain splits) and weights
that carry a pcount across every zero-suppressed width and across the
embedded-leaf limit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.build_parallel import build_tree_parallel
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.streaming.builder import CountingPhase, StreamingBuilder
from repro.util.items import prepare_transactions
from tests.conftest import paper_example_database, random_database

#: Tree configurations: default, each feature off, short chains.
CONFIGS = {
    "default": {},
    "no-chains": {"enable_chains": False},
    "no-embedding": {"enable_embedding": False},
    "chain-1": {"max_chain_length": 1},
    "chain-4": {"max_chain_length": 4},
}

#: Weights that carry one pcount through 1, 2, 3 and 4 payload bytes and
#: across the 2^24 embedded-leaf limit (cumulative: 200, 300, 65,600,
#: 2^24 - 1, 2^24, 2^24 + 2^25).
BOUNDARY_WEIGHTS = [200, 100, 65_300, (1 << 24) - 65_601, 1, 1 << 25]


def _array_digest(array, h) -> None:
    h.update(bytes(array.buffer))
    h.update(json.dumps(list(array.starts)).encode())


def tree_digest(tree: TernaryCfpTree) -> str:
    """sha256 over the arena, the tree's counters and its conversion."""
    h = hashlib.sha256()
    h.update(tree.arena.snapshot())
    h.update(json.dumps(dataclasses.astuple(tree.arena.stats())).encode())
    h.update(
        json.dumps(
            [
                tree.memory_bytes,
                tree.logical_node_count,
                tree.transaction_count,
                tree.prefix_skip_hits,
                tree.prefix_skip_levels,
                dataclasses.astuple(tree.physical_stats()),
            ]
        ).encode()
    )
    _array_digest(convert(tree), h)
    return h.hexdigest()


def _ranked(database: list[list[int]]) -> tuple[int, list[list[int]]]:
    table, transactions = prepare_transactions(database, 1)
    return len(table), transactions


def _long_transactions(seed: int) -> tuple[int, list[list[int]]]:
    """Transactions of 16-40 ranks over a shared spine: chains that split."""
    rng = random.Random(seed)
    n_ranks = 60
    spine = list(range(1, 41))
    transactions = []
    for __ in range(40):
        keep = [rank for rank in spine if rng.random() < 0.85]
        extra = rng.sample(range(41, n_ranks + 1), rng.randint(0, 4))
        ranks = sorted(set(keep[: rng.randint(16, len(keep))]) | set(extra))
        transactions.append(ranks)
    return n_ranks, transactions


INPUTS = {
    "paper": lambda: _ranked(paper_example_database()),
    "random-1": lambda: _ranked(random_database(1)),
    "random-7": lambda: _ranked(random_database(7, 120, 20, 12)),
    "random-23": lambda: _ranked(random_database(23, 200, 30, 18)),
    "long": lambda: _long_transactions(5),
}


def _weights(transactions: list[list[int]]) -> list[int]:
    rng = random.Random(len(transactions))
    return [rng.choice([1, 2, 3, 255, 256, 70_000, 1 << 24]) for __ in transactions]


def _build(kind: str, config: dict, n_ranks: int, transactions) -> TernaryCfpTree:
    tree = TernaryCfpTree(n_ranks, **config)
    if kind == "batch":
        tree.insert_batch(transactions)
    elif kind == "weighted":
        tree.insert_batch(transactions, counts=_weights(transactions))
    else:
        for ranks in transactions:
            tree.insert(ranks)
    return tree


#: Digests computed at commit fd48629; see the module docstring. The one
#: exception is ``stream/resumed``, recomputed when batched inserts stopped
#: resuming sibling searches past earlier batches' keys (see
#: :func:`test_streaming_checkpoint_resume`).
GOLDEN: dict[str, str] = {
    "default/paper/batch": "0c43f311076b3b8cd38d72e68684bbbadf1ac35d50f04cb2dc061ce7b029079b",
    "default/paper/weighted": "4f6878f3ddd75954a635cb1b0470d6dfb981d68d08bcdd6dd41a00c94526409a",
    "default/paper/insert": "64645b513bdb662810896934695b276cd248c4e98abd64131cd35ba2b977254b",
    "default/random-1/batch": "75bffadd432f1534910c1780f1a565a5da4887c3501645cd03b1c02508e018b6",
    "default/random-1/weighted": "5cee5e386db5ac7e240f830a5e4865ac609a5c040dae831082fb15da642189dd",
    "default/random-1/insert": "ec95b5f58ac57734b037e62a66dca56a24ccccefa061c194b0cf4a494e693063",
    "default/random-7/batch": "acc12e5326cb5b2d530c92c2a5a1581c307ed470ec7f60e3105ad5db5c5745c8",
    "default/random-7/weighted": "166cae0f25067598316cd66337dfe3528879530e5a6ce2644f254fe591139963",
    "default/random-7/insert": "493944beeca62a512037c6a68c996291fca9f6f871d538a8ae55f3d47490e894",
    "default/random-23/batch": "c520e75ab2b644ae40d9b965db952b43739387a9f01b6c7c32b021f2a6e6b4d1",
    "default/random-23/weighted": "2972c7f67b76b10f3413741733af9cf4a3984134c9d663951f1aecd47645ebe3",
    "default/random-23/insert": "0d42d6936c4174629b0193b9f217fe7c1af524c236ced6ded3d1e4116a636d4e",
    "default/long/batch": "890d9f9589122796ee2642cb69950560d01008eb6d23955ee103852b27ed394e",
    "default/long/weighted": "0325684700176964f086b7e1eaf68b1e1f485c7fabeeb564b84e45e5c01425b1",
    "default/long/insert": "291c7ac4b690a63bb7ec5bce2ffb2f95929ad12f1577fce81c99e81636afa8d2",
    "no-chains/paper/batch": "71ae9946acdc26f690a77dbe95fce5e4065eae6f5368f7b02fea90613b7a7d4f",
    "no-chains/paper/weighted": "e5b7323e5faa046ad580ef5b4bc0bfa5eac9069014b84c9f693d8b0e78959323",
    "no-chains/paper/insert": "0858960215cda9779363ed381bd8a3c8d3a374bb9d6256e4ba8f3789e3db26e0",
    "no-chains/random-1/batch": "8e6d8505fc7e907e6683c95028b80ce8a4e3895b470f9b989d6c1047f9e0e009",
    "no-chains/random-1/weighted": "a49eeddeddb29143f5341762c4917dba117e324107153faeca4d23189b2a994d",
    "no-chains/random-1/insert": "9dda8d76a9e35cf212af0ae2b23a9f9a0701ab83a3ac719d71916220d2d7e848",
    "no-chains/random-7/batch": "de252f5034e0cfff959aebf8201354b4e3cdacf922a021bd7b8a65e3d073da7b",
    "no-chains/random-7/weighted": "d4b65c697bfdaf8fd6a012a2f310f429d09eaea4429776d3e64e01f8fbd1498d",
    "no-chains/random-7/insert": "abfe3b4eab2dfcb4d5a90f0aa152ed567af34df4b9af5f4a3877d4124c1f2076",
    "no-chains/random-23/batch": "9d94e01e50c5936dae3e113253d44f14432d45b27150617225442a08cc998ae8",
    "no-chains/random-23/weighted": "04a35815aebae2091864acced4c85b845b5a5d1027bf91635dfa47650d3e6c52",
    "no-chains/random-23/insert": "71ecac705c851443d7dbbd4d29db8e96ce980c46f4a37a37d6b0280bada532c0",
    "no-chains/long/batch": "c76b75e0fa887a7f9d42cc8db8399a9c0359dfc0f5e83ae27682fd5bc9e04cc3",
    "no-chains/long/weighted": "f7a06a27596b445a3c566419fc9bd29bfd06a5a19c3b752003cf009dcd63c83b",
    "no-chains/long/insert": "a8b608caae971fe6815284948b270308f963c3ac21e96ee36f575e6ea14bb544",
    "no-embedding/paper/batch": "eedbe644ef23cc48be0b88bea5573ca396cf971486a0c55848689f92c68c73c9",
    "no-embedding/paper/weighted": "2cb19bdbc80f285e5faa11383e358231f4425ca6dca0bb55cc71048cc5fcf4ec",
    "no-embedding/paper/insert": "235d43b731a1da1e85cb649ae8644cd21c7e885120c3b49cb7671e6b77da43e7",
    "no-embedding/random-1/batch": "2229a76cd4792f616a6c25ca28c0afe26871da20acca28818c3a8c75615a1c19",
    "no-embedding/random-1/weighted": "d449862acd28151c496876c02c7bd96ff35db9651fe6dc9efec34dbc5d7d863c",
    "no-embedding/random-1/insert": "bc577feafcb8446acc36e3f2fd6d69ed874e543cdf393223e58d613b30068bb0",
    "no-embedding/random-7/batch": "6bef82ef9a5c3f55aa0c6a5c81cab598d74a267946349b3b7547082585d15490",
    "no-embedding/random-7/weighted": "74935a3a11e8efbc9e886dd46a2d8621b16e64827b9c65cd3278c77577111b16",
    "no-embedding/random-7/insert": "bfda5246fc259002658764d742a68da63b65ef8bed015b2617adb35c08de5614",
    "no-embedding/random-23/batch": "f8cba416e396cf75d83b4845103dfc63286d9868f8fed6ebf85762eae039e1de",
    "no-embedding/random-23/weighted": "62a01a7855a04b0a807a76edccb14b53b5eeeb4e8a6c6e11e2af7a855323fd72",
    "no-embedding/random-23/insert": "2f642743b1495f598990e3d4c0defad5b7abcff82bcbb511144c9dcee19a9207",
    "no-embedding/long/batch": "890d9f9589122796ee2642cb69950560d01008eb6d23955ee103852b27ed394e",
    "no-embedding/long/weighted": "0325684700176964f086b7e1eaf68b1e1f485c7fabeeb564b84e45e5c01425b1",
    "no-embedding/long/insert": "291c7ac4b690a63bb7ec5bce2ffb2f95929ad12f1577fce81c99e81636afa8d2",
    "chain-1/paper/batch": "0558428c29647617cc7276c2c1e052e8051bc22d77b46c46ee8b8b86fae228ff",
    "chain-1/paper/weighted": "30d9bfad0dbf50fe868dc3019c17172ced5b6e3c5b865b7a4d720f0b415c479c",
    "chain-1/paper/insert": "3012cd958d26bfff4991ffe9e2280f0bede403ca26be042186733abada464aae",
    "chain-1/random-1/batch": "5edfe3580b2777e6cd1655afe61cca5c83b30242309aeedf2cdce7b781ed1fcd",
    "chain-1/random-1/weighted": "a514109df94500072bffc9206d9ae0f2b83b16a5f4dd33e6dcb6326fbf23dd5a",
    "chain-1/random-1/insert": "e3667a506e261ea8f6f6e5f0f951d30b936a9555a1e3f46c8999136186df294b",
    "chain-1/random-7/batch": "9e370504b6e7a3510f6e80c0c67ce1b3a54773d6c7c54c9cf7ee10339258f16c",
    "chain-1/random-7/weighted": "59d32c3ca4b3b28f2f50e88c94f5dea4d4fbebe5ed100e94f9c83967117342e4",
    "chain-1/random-7/insert": "6dd1df7560f225ddbf2b658b1024d6452c2ba7eabef4bb5fc243b96e399cc7bf",
    "chain-1/random-23/batch": "9d720e5b06f0fc7aa927f5d1a6bb06dfe87c3be0b140fe20dde80e3f71de7a2f",
    "chain-1/random-23/weighted": "555ad2da650759ff5ff0284a8b56b3b82bfc37604303a03b533ca9f572f5c3a6",
    "chain-1/random-23/insert": "75c1543ec35d06f8e73c297946b8d43c21857f0d149d567f795a3ddf7d47df06",
    "chain-1/long/batch": "9e3af91e7e65d2d35bbf68b9fbb31aa89ffbd5652187e6c747c2cd6068c59ae1",
    "chain-1/long/weighted": "2001cdc974465ab5e537e9002f15f6f141466c688e2c853359711328e99e0e83",
    "chain-1/long/insert": "26ddbee5ec60559aa44cdad276c3c2a14a15528f87ef78f86b8a0db032f94b12",
    "chain-4/paper/batch": "0c43f311076b3b8cd38d72e68684bbbadf1ac35d50f04cb2dc061ce7b029079b",
    "chain-4/paper/weighted": "4f6878f3ddd75954a635cb1b0470d6dfb981d68d08bcdd6dd41a00c94526409a",
    "chain-4/paper/insert": "64645b513bdb662810896934695b276cd248c4e98abd64131cd35ba2b977254b",
    "chain-4/random-1/batch": "75bffadd432f1534910c1780f1a565a5da4887c3501645cd03b1c02508e018b6",
    "chain-4/random-1/weighted": "5cee5e386db5ac7e240f830a5e4865ac609a5c040dae831082fb15da642189dd",
    "chain-4/random-1/insert": "22512e2f087748d1e9f4aba66d9e26e248c558a0fdbf76f978c470de1e37a75f",
    "chain-4/random-7/batch": "95a31f261e66b5d36193fe191eda59655765d9a9582cd50b4972587ac8018c30",
    "chain-4/random-7/weighted": "382ce3ed740bc7a836443f53d7d015f6016716e45058bae43d818bf146b82548",
    "chain-4/random-7/insert": "c764c42ad5d51a10cb24d5760a0d89f46dd802ad5e04f2ee62968c447cb962dc",
    "chain-4/random-23/batch": "cdc69292f2c8cfa728720ea31dd62346e3d5129cc0eba1e79ed34e4a2e418106",
    "chain-4/random-23/weighted": "fcd461e15a2fc497300cb01c3b02a79a31e2dc7a4ef6f8062937b79507b878ec",
    "chain-4/random-23/insert": "3ddd23bae76b0373daa454bdd58a800d72c828afd663eb096ab7794caaa3458a",
    "chain-4/long/batch": "83272216a0dfe86f4693def0d548e0341645f68c9e0223b616bbbe218ba99c54",
    "chain-4/long/weighted": "9e16dee7c02e2103df95171a70709e64b4b7a2cbba74719fec9e0f2a89263620",
    "chain-4/long/insert": "444414d1a0a53e27e3aca823e3cffd341742c9257ca779f4e4b79bef03a1a41e",
    "default/widths": "0b53a7af3dfc41231dcf68e6634cc37ed385111cda2e2d42d8bcf50ef96dfcae",
    "no-chains/widths": "66c8eae1a2659278f034e5ecbf3d3ea567688cc6827cb032058c79635a573d4e",
    "no-embedding/widths": "548b2a710d8e2a4b56a102f46d5cb5d28a8d376578434f62421365929eb68953",
    "chain-1/widths": "76094724c884cf75d11fd2a9eb22ef02c70c5b5a4e4476497ae4178ce872674b",
    "chain-4/widths": "0b53a7af3dfc41231dcf68e6634cc37ed385111cda2e2d42d8bcf50ef96dfcae",
    "stream/resumed": "7a9f4584a5f6ceb8146c7697dd07391e76621cbca1cbcb5b878d1b6ecbb5a2ec",
    "parallel/jobs-2": "5c923ea833b540d51786d6fcf9e45b107e900acfbad60d437840109aed23094c",
}


CASES = [
    (config, source, kind)
    for config in CONFIGS
    for source in INPUTS
    for kind in ("batch", "weighted", "insert")
]


@pytest.mark.parametrize("config,source,kind", CASES)
def test_build_is_byte_identical(config, source, kind):
    n_ranks, transactions = INPUTS[source]()
    tree = _build(kind, CONFIGS[config], n_ranks, transactions)
    assert tree_digest(tree) == GOLDEN[f"{config}/{source}/{kind}"]


@pytest.mark.parametrize("config", list(CONFIGS))
def test_pcount_crosses_every_width(config):
    tree = TernaryCfpTree(6, **CONFIGS[config])
    for weight in BOUNDARY_WEIGHTS:
        tree.insert([1, 2], count=weight)
        tree.insert([3], count=weight)
        tree.insert([1, 2, 4, 5, 6], count=weight)
        tree.insert_batch([[1, 3], [2, 4, 5]], counts=[weight, weight])
    assert tree_digest(tree) == GOLDEN[f"{config}/widths"]


def test_streaming_checkpoint_resume(tmp_path):
    # Up to commit eb5d8d2 this digest pinned a defect: a sorted batch
    # inserted into a tree that already held nodes could resume a sibling
    # search past keys an earlier batch placed, leaving siblings out of
    # rank order (this tree had ten such sibling lists and a duplicated
    # sibling). The digest was recomputed with the mend; the tree now
    # validates and converts to the one-shot build's array
    # (tests/core/test_batched_builds.py).
    database = random_database(11, 150, 25, 14)
    counting = CountingPhase()
    counting.add_batch(database)
    table = counting.finish(2)
    builder = StreamingBuilder(table)
    builder.add_batch(database[:50])
    builder.add_batch(database[50:90])
    path = tmp_path / "build.cfpt"
    builder.checkpoint(path)
    resumed = StreamingBuilder.resume(table, path)
    resumed.add_batch(database[90:])
    resumed.add_batch(database[:30])
    assert tree_digest(resumed.tree) == GOLDEN["stream/resumed"]


def test_parallel_build():
    n_ranks, transactions = _ranked(random_database(31, 200, 24, 12))
    h = hashlib.sha256()
    _array_digest(build_tree_parallel(transactions, n_ranks, jobs=2), h)
    assert h.hexdigest() == GOLDEN["parallel/jobs-2"]
