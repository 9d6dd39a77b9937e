#!/usr/bin/env python3
"""End-to-end incremental-streaming check (the CI incremental-smoke job).

Four legs over one synthetic stream, each exercising the real CLI or the
real server (docs/streaming.md), and one in-process leg that times the
merge path:

1. **byte identity** — ``repro stream`` (fresh process) publishes
   snapshots per batch over a sliding window; the final generation's
   CFP-array must be byte-identical to a from-scratch build over the
   same window with the same frozen item table.
2. **served parity across a flip** — an NDJSON ``ReproServer`` over a
   :class:`FollowingStore` answers support queries while a new
   generation is published under it: a singleton, and two or three
   items of one window transaction, which the server answers with
   backward walks. Every response must succeed (zero drops); answers
   before the flip must equal direct counts over the old window, during
   it over either window, and after the ``stats`` op shows the new
   generation over the new one.
3. **delta.merge chaos** — ``REPRO_FAULTS=delta.merge:kill:times=1``
   kills the streaming process at its first merge; the snapshot
   directory must be left consistent (no manifest, or a loadable one),
   and a clean re-run in the same directory must converge to the
   reference bytes.
4. **snapshot.flip chaos** — a kill between manifest write and rename
   must leave the previous manifest state intact; the re-run must again
   converge to the reference bytes.
5. **merge vs rebuild** — the quick quest-T10I4 set streamed in 8
   batches through delta merges must encode to the same bytes as a
   from-scratch rebuild, in under half the wall time of rebuilding at
   every batch.

``--artifacts-dir DIR`` keeps the work files (traces, snapshot dirs)
under DIR instead of a temp dir, so CI can upload them.

Exit code 0 when every leg holds, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
import time

MIN_SUPPORT = 4
BATCH_SIZE = 60
WINDOW = 3
STREAM = [
    sys.executable,
    "-m",
    "repro",
    "stream",
    "--min-support",
    str(MIN_SUPPORT),
    "--batch-size",
    str(BATCH_SIZE),
    "--window",
    str(WINDOW),
]


def _fail(message: str) -> None:
    print(f"incremental-check: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _make_dataset(path: str) -> list[list[int]]:
    from repro.datasets.fimi import write_fimi
    from repro.datasets.quest import QuestGenerator

    database = QuestGenerator(
        n_transactions=360,
        avg_transaction_length=8.0,
        avg_pattern_length=4.0,
        n_items=50,
        n_patterns=25,
        seed=77,
    ).generate()
    write_fimi(path, database)
    return database


def _stream(
    dataset: str,
    snapshot_dir: str,
    *args: str,
    env: dict[str, str] | None = None,
    expect_failure: bool = False,
) -> subprocess.CompletedProcess:
    run_env = dict(os.environ)
    run_env["PYTHONPATH"] = "src"
    run_env.update(env or {})
    result = subprocess.run(
        STREAM + [dataset, "--snapshot-dir", snapshot_dir, *args],
        capture_output=True,
        text=True,
        env=run_env,
        timeout=600,
    )
    if expect_failure:
        if result.returncode == 0:
            _fail("chaos stream run succeeded; the injected kill never fired")
    elif result.returncode != 0:
        _fail(
            f"stream {' '.join(args)} exited {result.returncode}:\n"
            f"{result.stderr}"
        )
    return result


def _final_window(database: list[list[int]]) -> list[list[int]]:
    batches = [
        database[start : start + BATCH_SIZE]
        for start in range(0, len(database), BATCH_SIZE)
    ]
    return [t for batch in batches[-WINDOW:] for t in batch]


def _reference_array(database: list[list[int]], window: list[list[int]]):
    """From-scratch CFP-array over ``window`` with the whole-stream table."""
    from repro.core.conversion import convert
    from repro.core.ternary import TernaryCfpTree
    from repro.streaming import CountingPhase

    counting = CountingPhase()
    counting.add_batch(database)
    table = counting.finish(MIN_SUPPORT)
    rank_of = table.rank_of
    ranked = [
        sorted({rank_of[item] for item in transaction if item in rank_of})
        for transaction in window
    ]
    tree = TernaryCfpTree.from_rank_transactions(ranked, len(table))
    return convert(tree), table


def _published_array(snapshot_dir: str):
    from repro.storage import load_cfp_array
    from repro.streaming.snapshots import SnapshotManager

    state = SnapshotManager(snapshot_dir).current()
    if state is None:
        _fail(f"{snapshot_dir}: no manifest after a clean stream run")
    assert state is not None
    return state[0], load_cfp_array(state[1])


def _assert_identical(published, reference, leg: str) -> None:
    if (
        bytes(published.buffer) != bytes(reference.buffer)
        or published.starts != reference.starts
    ):
        _fail(f"{leg}: array is not byte-identical to the rebuild")


def _identity_leg(dataset: str, database: list[list[int]], workdir: str):
    snapshot_dir = os.path.join(workdir, "snaps-identity")
    _stream(dataset, snapshot_dir)
    generation, published = _published_array(snapshot_dir)
    reference, table = _reference_array(database, _final_window(database))
    _assert_identical(published, reference, "identity leg")
    print(
        f"incremental-check: generation {generation} byte-identical to "
        f"from-scratch rebuild ({published.node_count} nodes)"
    )
    return reference, table


def _count_support(window: list[list[int]], probe: list) -> int:
    wanted = set(probe)
    return sum(1 for transaction in window if wanted <= set(transaction))


def _walk_probe(table, transactions: list[list[int]]) -> list:
    """Two or three frequent items of one window transaction.

    A singleton's support is one column sum; an itemset of several items
    makes the server walk node headers back from its least frequent item.
    The probe takes a transaction's most and least frequent items and
    one between, so the walks climb far.
    """
    for transaction in transactions:
        ranks = sorted({table.rank_of[i] for i in transaction if i in table.rank_of})
        if len(ranks) >= 2:
            picks = sorted({ranks[0], ranks[len(ranks) // 2], ranks[-1]})
            return [table.item_of[rank] for rank in picks]
    _fail("no window transaction holds two frequent items")
    return []


async def _drive_flip(server, store, manager, miner, table, batches) -> None:
    # A singleton is one column sum; the walk probe makes a freshly
    # flipped store run backward walks.
    probes = {
        "singleton": [table.item_of[1]],
        "walk": _walk_probe(table, batches[0]),
    }
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

    async def ask(payload: dict) -> dict:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    async def supports(when: str) -> dict[str, int]:
        results = {}
        for name, probe in probes.items():
            response = await ask({"op": "support", "items": probe})
            if not response.get("ok"):
                _fail(f"{when} query for {probe} failed: {response}")
            results[name] = response["result"]
        return results

    def counted(window: list[list[int]]) -> dict[str, int]:
        return {name: _count_support(window, probe) for name, probe in probes.items()}

    expected_pre = counted([t for b in batches[:WINDOW] for t in b])
    expected_post = counted([t for b in batches[1 : WINDOW + 1] for t in b])
    for __ in range(50):
        results = await supports("pre-flip")
        if results != expected_pre:
            _fail(f"pre-flip supports {results} != direct counts {expected_pre}")

    # Publish the next window under live traffic.
    miner.append_batch(batches[WINDOW])
    new_generation = manager.publish(
        miner.to_array(), table, miner.window_transactions
    )
    flipped = False
    for __ in range(400):
        results = await supports("mid-flip")
        for name, result in results.items():
            if result not in (expected_pre[name], expected_post[name]):
                _fail(
                    f"mid-flip support of {probes[name]} {result} matches "
                    f"neither window ({expected_pre[name]} pre, "
                    f"{expected_post[name]} post)"
                )
        stats = await ask({"op": "stats"})
        if stats.get("ok") and stats["result"].get("generation") == new_generation:
            flipped = True
            break
        await asyncio.sleep(0.02)
    if not flipped:
        _fail(f"stats never showed generation {new_generation}: {stats}")
    results = await supports("post-flip")
    if results != expected_post:
        _fail(f"post-flip supports {results} != direct counts {expected_post}")
    writer.close()
    await writer.wait_closed()
    print(
        f"incremental-check: served parity across flip to generation "
        f"{new_generation} for {probes['singleton']} and {probes['walk']} "
        f"(zero dropped queries)"
    )


def _flip_leg(database: list[list[int]], workdir: str) -> None:
    from repro.serving.follow import FollowingStore
    from repro.serving.server import ReproServer
    from repro.streaming import CountingPhase, IncrementalMiner, SnapshotManager

    snapshot_dir = os.path.join(workdir, "snaps-flip")
    batches = [
        database[start : start + BATCH_SIZE]
        for start in range(0, len(database), BATCH_SIZE)
    ]
    counting = CountingPhase()
    counting.add_batch(database)
    table = counting.finish(MIN_SUPPORT)
    manager = SnapshotManager(snapshot_dir)
    miner = IncrementalMiner(table, window=WINDOW)
    for batch in batches[:WINDOW]:
        miner.append_batch(batch)
    manager.publish(miner.to_array(), table, miner.window_transactions)

    async def run() -> None:
        with FollowingStore(snapshot_dir, pool_pages=32) as store:
            store.start_following(0.05)
            server = ReproServer(store)
            await server.start()
            try:
                await _drive_flip(server, store, manager, miner, table, batches)
            finally:
                await server.stop()

    asyncio.run(run())


def _chaos_leg(
    dataset: str,
    reference,
    workdir: str,
    site: str,
) -> None:
    from repro.streaming.snapshots import SnapshotManager

    snapshot_dir = os.path.join(workdir, f"snaps-{site.replace('.', '-')}")
    state_dir = tempfile.mkdtemp(prefix="faults-", dir=workdir)
    result = _stream(
        dataset,
        snapshot_dir,
        env={
            "REPRO_FAULTS": f"{site}:kill:times=1",
            "REPRO_FAULTS_STATE": state_dir,
        },
        expect_failure=True,
    )
    # Whatever the kill left behind must be consistent: either no
    # manifest yet, or a manifest naming a loadable generation.
    state = SnapshotManager(snapshot_dir).current()
    if state is not None:
        from repro.storage import load_cfp_array

        load_cfp_array(state[1])
    _stream(dataset, snapshot_dir)
    __, published = _published_array(snapshot_dir)
    _assert_identical(published, reference, f"{site} recovery leg")
    print(
        f"incremental-check: {site} kill (exit {result.returncode}) left a "
        "consistent directory; clean re-run converged to reference bytes"
    )


#: The merge leg streams its set in this many batches, and fails when the
#: delta-merge wall reaches this fraction of the rebuild wall: above it
#: the incremental path has stopped paying for its complexity.
MERGE_BATCHES = 8
MERGE_MAX_RATIO = 0.5


def _merge_leg() -> None:
    """Stream one dataset in batches; compare against per-batch rebuilds.

    The incremental arm maintains the window forest across
    :data:`MERGE_BATCHES` appends (delta tree build + flatten + merge
    each) and converts once at the end — the `repro stream` maintenance
    shape. The rebuild arm rebuilds the CFP-tree from scratch over each
    growing prefix and converts it every batch — what a non-incremental
    pipeline would do to keep a snapshot fresh. Both use the same frozen
    item table, so the final arrays must be byte-identical, and the wall
    ratio must stay under :data:`MERGE_MAX_RATIO`.
    """
    from repro.core.conversion import convert
    from repro.core.ternary import TernaryCfpTree
    from repro.streaming import CountingPhase, IncrementalMiner
    from trace_overhead import quest_t10i4

    database, min_support = quest_t10i4()
    counting = CountingPhase()
    counting.add_batch(database)
    table = counting.finish(min_support)
    rank_of = table.rank_of
    size = max(1, (len(database) + MERGE_BATCHES - 1) // MERGE_BATCHES)
    chunks = [database[start : start + size] for start in range(0, len(database), size)]

    miner = IncrementalMiner(table)
    incremental_wall = 0.0
    for chunk in chunks:
        started = time.perf_counter()
        miner.append_batch(chunk)
        incremental_wall += time.perf_counter() - started
    started = time.perf_counter()
    incremental_array = miner.to_array()
    incremental_wall += time.perf_counter() - started

    rebuild_wall = 0.0
    rebuilt = None
    prefix: list[list[int]] = []
    for chunk in chunks:
        prefix.extend(chunk)
        started = time.perf_counter()
        ranked = [
            sorted({rank_of[item] for item in transaction if item in rank_of})
            for transaction in prefix
        ]
        tree = TernaryCfpTree.from_rank_transactions(ranked, len(table))
        rebuilt = convert(tree)
        rebuild_wall += time.perf_counter() - started
        del tree
    _assert_identical(incremental_array, rebuilt, "merge leg")
    ratio = incremental_wall / rebuild_wall
    if ratio >= MERGE_MAX_RATIO:
        _fail(
            f"merge leg: delta-merge wall is {ratio:.2f}x the rebuild wall "
            f"(must stay under {MERGE_MAX_RATIO:.2f}x at {len(chunks)} batches)"
        )
    print(
        f"incremental-check: {len(chunks)} batches merged to the rebuild's "
        f"bytes in {incremental_wall:.3f}s vs {rebuild_wall:.3f}s rebuilding "
        f"(ratio {ratio:.2f}, max {MERGE_MAX_RATIO:.2f})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts-dir",
        default="",
        metavar="DIR",
        help="keep work files under DIR (CI uploads them) instead of a temp dir",
    )
    args = parser.parse_args()
    if args.artifacts_dir:
        workdir = os.path.abspath(args.artifacts_dir)
        os.makedirs(workdir, exist_ok=True)
    else:
        workdir = tempfile.mkdtemp(prefix="repro-incremental-check-")
    dataset = os.path.join(workdir, "stream.fimi")
    database = _make_dataset(dataset)

    reference, __ = _identity_leg(dataset, database, workdir)
    _flip_leg(database, workdir)
    _chaos_leg(dataset, reference, workdir, "delta.merge")
    _chaos_leg(dataset, reference, workdir, "snapshot.flip")
    _merge_leg()

    print("incremental-check: OK")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main())
