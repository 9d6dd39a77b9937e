"""Command-line interface.

Usage (after installation)::

    python -m repro mine data.fimi --min-support 100
    python -m repro mine data.fimi --min-support 100 --algorithm lcm --closed
    python -m repro mine data.fimi --min-support 100 --jobs 4
    python -m repro mine data.fimi --min-support 100 --trace out.jsonl
    python -m repro stats data.fimi
    python -m repro stats out.jsonl          # per-phase trace summary
    python -m repro convert data.fimi data.bin
    python -m repro check tree.cfpt array.cfpa
    python -m repro compact array.cfpa --threshold 0.25
    python -m repro experiment table1
    python -m repro serve data.fimi --min-support 100 --port 7171
    python -m repro stream data.fimi --window 8 --snapshot-dir snaps/
    python -m repro serve snaps/ --follow --port 7171

``mine`` accepts FIMI text (default) or the binary format (``.bin``).
``--jobs N`` parallelizes the mine phase for miners that support it
(currently cfp-growth); ``--build-jobs N`` does the same for the build
phase; other miners ignore both with a warning. Parallel phases run
supervised (docs/robustness.md): ``--task-timeout`` sets the per-task
deadline in seconds (0 = none), ``--max-retries`` bounds per-task
re-execution after worker crashes/timeouts, and ``--no-fallback``
disables the degraded-serial path so supervision failures raise.
``--trace FILE`` records a span trace plus metric counters
(docs/observability.md); ``stats`` renders trace files as a per-phase
summary table.

``check`` exit codes: 0 every file intact, 1 corruption diagnostics,
2 usage error, 3 a path could not be read at all.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.algorithms import get_miner, iter_miners
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET
from repro.datasets.binary import read_binary, write_binary
from repro.datasets.fimi import read_fimi, write_fimi
from repro.datasets.stats import dataset_stats
from repro.errors import ReproError
from repro.mining import closed_itemsets, maximal_itemsets, top_k_itemsets

#: Experiment modules runnable via `repro experiment <name>`.
EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "ablations",
    "outofcore",
    "distributed",
    "compression_curve",
)


def _load(path: str) -> list[list[int]]:
    if path.endswith(".bin"):
        return read_binary(path)
    return read_fimi(path)


@contextmanager
def _tracing(trace_path):
    """Install a process-wide tracer for the wrapped command.

    On exit the previous tracer is restored and the trace file (spans plus
    the metric-registry snapshot) is written, even when the command raised.
    No-op when ``trace_path`` is falsy.
    """
    if not trace_path:
        yield
        return
    from repro import obs
    from repro.obs.tracer import Tracer

    obs.metrics.reset()  # the file must reflect this run only
    tracer = Tracer()
    previous = obs.set_tracer(tracer)
    try:
        yield
    finally:
        obs.set_tracer(previous)
        lines = tracer.write_jsonl(trace_path, registry=obs.metrics)
        print(
            f"# trace: {lines} lines -> {trace_path} "
            f"(render with `repro stats {trace_path}`)",
            file=sys.stderr,
        )


def _cmd_mine(args) -> int:
    from repro import runtime

    runtime.configure(
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        # Only an explicit --no-fallback overrides REPRO_NO_FALLBACK.
        fallback=False if args.no_fallback else None,
    )
    database = _load(args.file)
    started = time.perf_counter()
    with _tracing(args.trace):
        if args.top_k:
            results = top_k_itemsets(database, args.top_k)
            kind = f"top-{args.top_k}"
        elif args.closed:
            results = closed_itemsets(database, args.min_support)
            kind = "closed"
        elif args.maximal:
            results = maximal_itemsets(database, args.min_support)
            kind = "maximal"
        else:
            miner = get_miner(args.algorithm)
            if args.jobs > 1:
                if hasattr(miner, "jobs"):
                    miner.jobs = args.jobs
                else:
                    print(
                        f"warning: --jobs ignored "
                        f"({args.algorithm} mines serially)",
                        file=sys.stderr,
                    )
            if args.build_jobs > 1:
                if hasattr(miner, "build_jobs"):
                    miner.build_jobs = args.build_jobs
                else:
                    print(
                        f"warning: --build-jobs ignored "
                        f"({args.algorithm} builds serially)",
                        file=sys.stderr,
                    )
            results = miner.mine(database, args.min_support)
            kind = "frequent"
    elapsed = time.perf_counter() - started
    results = sorted(results, key=lambda r: (-r[1], len(r[0])))
    limit = args.limit if args.limit else len(results)
    for itemset, support in results[:limit]:
        items = " ".join(str(i) for i in sorted(itemset, key=repr))
        print(f"{support}\t{items}")
    print(
        f"# {len(results)} {kind} itemsets in {elapsed:.2f}s "
        f"({args.algorithm})",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import report as obs_report

    if obs_report.is_trace_file(args.file):
        print(obs_report.format_trace_summary(obs_report.read_trace(args.file)))
        return 0
    database = _load(args.file)
    stats = dataset_stats(args.file, database)
    print(f"transactions:     {stats.n_transactions:,}")
    print(f"distinct items:   {stats.distinct_items:,}")
    print(f"avg. cardinality: {stats.avg_item_cardinality:.2f}")
    print(f"FIMI text size:   {stats.fimi_bytes:,} bytes")
    return 0


def _cmd_convert(args) -> int:
    database = _load(args.source)
    if args.target.endswith(".bin"):
        size = write_binary(args.target, database)
    else:
        write_fimi(args.target, database)
        import os

        size = os.stat(args.target).st_size
    print(f"wrote {len(database)} transactions, {size:,} bytes")
    return 0


def _cmd_check(args) -> int:
    if args.static:
        return _cmd_check_static(args)
    from repro import analysis

    if not args.paths:
        print("error: check needs CFPA/CFPT paths (or --static)", file=sys.stderr)
        return 2
    exit_code = analysis.EXIT_OK
    results = []
    for path in args.paths:
        try:
            report = analysis.check_file(path, deep=not args.shallow)
        except OSError as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            exit_code = max(exit_code, analysis.EXIT_UNREADABLE)
            continue
        results.append(report)
        if not report.ok:
            exit_code = max(exit_code, analysis.EXIT_CORRUPT)
        if args.as_json:
            continue
        if report.ok:
            print(
                f"{report.path}: ok ({report.kind} v{report.version}, "
                f"{report.page_count} pages)"
            )
        else:
            for diag in report.diagnostics:
                print(f"{report.path}: {diag}")
    if args.as_json:
        import json

        print(
            json.dumps(
                [
                    {
                        "path": r.path,
                        "kind": r.kind,
                        "version": r.version,
                        "pages": r.page_count,
                        "checksummed": r.checksummed,
                        "ok": r.ok,
                        "diagnostics": [d.to_dict() for d in r.diagnostics],
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    return exit_code


def _cmd_check_static(args) -> int:
    """Run the whole-program static analyzer (``repro check --static``)."""
    from repro.analysis import staticcheck

    repo_root = staticcheck.default_repo_root()
    paths = [Path(p) for p in args.paths] or staticcheck.default_paths(repo_root)
    if not paths:
        print(f"error: no analysis roots under {repo_root}", file=sys.stderr)
        return 2
    try:
        findings = staticcheck.run(paths, repo_root)
    except staticcheck.SourceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return staticcheck.EXIT_ERROR
    if args.as_json:
        print(staticcheck.findings_to_json(findings))
    else:
        for finding in findings:
            print(finding)
    return staticcheck.EXIT_FINDINGS if findings else staticcheck.EXIT_CLEAN


def _cmd_compact(args) -> int:
    """Repack fragmented partitioned stores (``repro compact``)."""
    from repro.storage.cfp_store import DEFAULT_PARTITION_BYTES
    from repro.storage.compaction import compact_store, store_fragmentation
    from repro.storage.placement import get_placement

    placement = get_placement(args.placement, args.generation)
    partition_bytes = args.partition_bytes or DEFAULT_PARTITION_BYTES
    exit_code = 0
    for path in args.paths:
        if args.dry_run:
            fragmentation, n_parts = store_fragmentation(path)
            action = (
                "would compact" if fragmentation > args.threshold else "ok"
            )
            print(
                f"{path}: {fragmentation:.1%} slack, {n_parts} partitions "
                f"({action})"
            )
            continue
        report = compact_store(
            path,
            partition_bytes=partition_bytes,
            placement=placement,
            threshold=args.threshold,
        )
        if report.ran:
            print(
                f"{path}: compacted {report.partitions_before} -> "
                f"{report.partitions_after} partitions "
                f"({report.fragmentation:.1%} slack, "
                f"{report.bytes_written:,} bytes written)"
            )
        else:
            print(
                f"{path}: left alone ({report.fragmentation:.1%} slack, "
                f"{report.partitions_before} partitions)"
            )
    return exit_code


def _cmd_stream(args) -> int:
    """Incrementally mine a batch stream, publishing snapshots
    (docs/streaming.md)."""
    from repro.budget import snapshot_plan
    from repro.streaming import CountingPhase, IncrementalMiner, SnapshotManager

    if args.batch_size < 1:
        print(f"error: --batch-size must be >= 1, got {args.batch_size}",
              file=sys.stderr)
        return 2
    database = _load(args.file)
    batches = [
        database[start : start + args.batch_size]
        for start in range(0, len(database), args.batch_size)
    ]
    # The item table is frozen over the whole stream before any batch is
    # merged — ranks must mean the same item in every delta, and the
    # byte-identity contract is against a same-table rebuild.
    counting = CountingPhase()
    counting.add_batch(database)
    table = counting.finish(args.min_support)
    manager = SnapshotManager(args.snapshot_dir) if args.snapshot_dir else None
    publish_every = max(1, args.publish_every)
    started = time.perf_counter()
    with _tracing(args.trace):
        miner = IncrementalMiner(table, window=args.window or None)
        for index, batch in enumerate(batches):
            inserted = miner.append_batch(batch)
            last = index + 1 == len(batches)
            if manager is None or not (last or (index + 1) % publish_every == 0):
                continue
            array = miner.to_array()
            partition_bytes, __ = snapshot_plan(
                args.memory_budget or None, array.memory_bytes
            )
            if args.partition_bytes:
                partition_bytes = args.partition_bytes
            generation = manager.publish(
                array,
                table,
                miner.window_transactions,
                partition_bytes=partition_bytes,
            )
            print(
                f"# batch {index + 1}/{len(batches)}: +{inserted} "
                f"transactions, window {miner.window_batches} batches "
                f"-> generation {generation}",
                file=sys.stderr,
            )
        if manager is None:
            results = sorted(miner.mine(), key=lambda r: (-r[1], len(r[0])))
            limit = args.limit if args.limit else len(results)
            for itemset, support in results[:limit]:
                items = " ".join(str(i) for i in sorted(itemset, key=repr))
                print(f"{support}\t{items}")
            elapsed = time.perf_counter() - started
            print(
                f"# {len(results)} frequent itemsets over the final "
                f"{miner.window_batches}-batch window in {elapsed:.2f}s",
                file=sys.stderr,
            )
    return 0


def _cmd_serve(args) -> int:
    """Build (if needed) and run the query server (docs/serving.md)."""
    import asyncio

    from repro.serving.store import ServingStore, build_store, sidecar_path

    if args.follow:
        array_path = args.file  # a snapshot directory, not an array
    elif args.file.endswith(".cfpa"):
        array_path = args.file
    else:
        database = _load(args.file)
        array_path = args.store or args.file + ".cfpa"
        size = build_store(
            database,
            args.min_support,
            array_path,
            partition_bytes=args.partition_bytes or None,
        )
        print(
            f"# built store: {size:,} bytes -> {array_path} "
            f"(+ {sidecar_path(array_path)})",
            file=sys.stderr,
        )
        if args.build_only:
            return 0

    async def _run() -> None:
        import signal

        from repro.serving.server import ReproServer

        server = ReproServer(store, host=args.host, port=args.port)
        await server.start()
        # Signals set an event instead of raising KeyboardInterrupt, so
        # the drain (close idle connections, flush started responses,
        # publish pool counters) always runs to completion — a
        # KeyboardInterrupt would cancel the main task and cut it short.
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop_requested.set)
        print(
            f"# serving {array_path} on {server.host}:{server.port} "
            "(max 1 in-flight; ctrl-c to drain)",
            file=sys.stderr,
        )
        await stop_requested.wait()
        print("# draining ...", file=sys.stderr)
        await server.stop()
        print("# drained, bye", file=sys.stderr)

    with _tracing(args.trace):
        if args.follow:
            from repro.serving.follow import FollowingStore

            with FollowingStore(
                array_path,
                pool_pages=args.pool_pages,
                cache_budget=args.cache_budget,
                hot_bytes=args.hot_bytes,
            ) as store:
                store.start_following(args.poll_interval)
                asyncio.run(_run())
        else:
            with ServingStore(
                array_path,
                pool_pages=args.pool_pages,
                cache_budget=args.cache_budget,
                hot_bytes=args.hot_bytes,
            ) as store:
                asyncio.run(_run())
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    with _tracing(args.trace):
        report = module.run()
    print(module.format_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-efficient frequent-itemset mining (CFP-growth)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine frequent itemsets from a dataset")
    mine.add_argument("file", help="FIMI text file (or .bin binary)")
    mine.add_argument("--min-support", type=int, default=2)
    mine.add_argument(
        "--algorithm", choices=iter_miners(), default="cfp-growth"
    )
    mine.add_argument("--closed", action="store_true", help="closed itemsets only")
    mine.add_argument("--maximal", action="store_true", help="maximal itemsets only")
    mine.add_argument("--top-k", type=int, default=0, help="k best itemsets")
    mine.add_argument("--limit", type=int, default=0, help="print at most N rows")
    mine.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="mine-phase worker processes (cfp-growth only; default 1 = serial)",
    )
    mine.add_argument(
        "--build-jobs",
        type=int,
        default=1,
        help="build-phase worker processes (cfp-growth only; default 1 = serial)",
    )
    mine.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="write a JSONL span trace + metrics to FILE (see docs/observability.md)",
    )
    mine.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task deadline for supervised parallel phases "
        "(0 = no deadline; default from REPRO_TASK_TIMEOUT)",
    )
    mine.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failed parallel task before degrading "
        "(default from REPRO_MAX_RETRIES, else 2)",
    )
    mine.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail instead of degrading to the serial path when parallel "
        "supervision is exhausted",
    )
    mine.set_defaults(func=_cmd_mine)

    stats = sub.add_parser(
        "stats", help="dataset summary statistics (or a trace-file summary)"
    )
    stats.add_argument("file", help="dataset, or a --trace output file")
    stats.set_defaults(func=_cmd_stats)

    convert = sub.add_parser("convert", help="convert between text and binary")
    convert.add_argument("source")
    convert.add_argument("target")
    convert.set_defaults(func=_cmd_convert)

    check = sub.add_parser(
        "check", help="verify CFP store files (fsck) or run static analysis"
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="CFPA/CFPT files to verify (with --static: source roots, "
        "default src/repro, tools, benchmarks)",
    )
    check.add_argument(
        "--static",
        action="store_true",
        help="run the whole-program static analyzer "
        "(repro.analysis.staticcheck) instead of the store fsck",
    )
    check.add_argument(
        "--shallow",
        action="store_true",
        help="headers, geometry and checksums only (skip payload decoding)",
    )
    check.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON report on stdout",
    )
    check.set_defaults(func=_cmd_check)

    compact = sub.add_parser(
        "compact",
        help="repack fragmented partitioned (v3) CFP-array stores",
    )
    compact.add_argument("paths", nargs="+", help="partitioned .cfpa stores")
    compact.add_argument(
        "--partition-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="target partition payload size (default 64 pages)",
    )
    compact.add_argument(
        "--placement",
        choices=("append", "round-robin"),
        default="append",
        help="write-placement policy for the rewritten payloads",
    )
    compact.add_argument(
        "--generation",
        type=int,
        default=0,
        help="placement generation (rotates round-robin start; default 0)",
    )
    compact.add_argument(
        "--threshold",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="only rewrite above this slack fraction (default 0 = always)",
    )
    compact.add_argument(
        "--dry-run",
        action="store_true",
        help="report fragmentation without rewriting",
    )
    compact.set_defaults(func=_cmd_compact)

    stream = sub.add_parser(
        "stream",
        help="incrementally mine a dataset as a batch stream "
        "(docs/streaming.md)",
    )
    stream.add_argument("file", help="FIMI text file (or .bin binary)")
    stream.add_argument("--min-support", type=int, default=2)
    stream.add_argument(
        "--batch-size",
        type=int,
        default=1000,
        help="transactions per batch (default 1000)",
    )
    stream.add_argument(
        "--window",
        type=int,
        default=0,
        metavar="N",
        help="sliding window in batches; 0 keeps every batch (default)",
    )
    stream.add_argument(
        "--snapshot-dir",
        default="",
        metavar="DIR",
        help="publish serving snapshots to DIR (serve them with "
        "`repro serve DIR --follow`); default: mine the final window "
        "and print itemsets",
    )
    stream.add_argument(
        "--publish-every",
        type=int,
        default=1,
        metavar="K",
        help="publish a snapshot every K batches (default 1; the final "
        "batch always publishes)",
    )
    stream.add_argument(
        "--partition-bytes",
        type=int,
        default=0,
        metavar="BYTES",
        help="force the partitioned (v3) snapshot format with this "
        "partition payload size (default: chosen from --memory-budget)",
    )
    stream.add_argument(
        "--memory-budget",
        type=int,
        default=0,
        metavar="BYTES",
        help="serving budget snapshots are partitioned for "
        "(default: monolithic v2 snapshots)",
    )
    stream.add_argument("--limit", type=int, default=0, help="print at most N rows")
    stream.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="write a JSONL span trace + metrics to FILE",
    )
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="run the itemset query server over a built store (docs/serving.md)",
    )
    serve.add_argument(
        "file",
        help="a built .cfpa store, a FIMI/.bin dataset to build one from, "
        "or (with --follow) a snapshot directory",
    )
    serve.add_argument(
        "--follow",
        action="store_true",
        help="treat FILE as a `repro stream` snapshot directory and "
        "hot-swap to each new generation (docs/streaming.md)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="manifest poll cadence with --follow (default 1.0)",
    )
    serve.add_argument("--min-support", type=int, default=2)
    serve.add_argument(
        "--store",
        default="",
        metavar="PATH",
        help="where to write the built .cfpa (default: <dataset>.cfpa)",
    )
    serve.add_argument(
        "--build-only",
        action="store_true",
        help="build the store and exit without serving",
    )
    serve.add_argument(
        "--partition-bytes",
        type=int,
        default=0,
        metavar="BYTES",
        help="build the store in the partitioned (v3) format with this "
        "target partition payload size (default: monolithic v2)",
    )
    serve.add_argument(
        "--hot-bytes",
        type=int,
        default=0,
        metavar="BYTES",
        help="pin the most frequent ranks' subarrays in memory (default 0)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7171)
    serve.add_argument(
        "--pool-pages",
        type=int,
        default=256,
        help="buffer-pool capacity in pages (default 256)",
    )
    serve.add_argument(
        "--cache-budget",
        type=int,
        default=DEFAULT_CACHE_BUDGET,
        metavar="BYTES",
        help="decoded-subarray cache budget "
        f"(default {DEFAULT_CACHE_BUDGET >> 20} MiB)",
    )
    serve.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="write a JSONL span trace + metrics to FILE on shutdown",
    )
    serve.set_defaults(func=_cmd_serve)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="write a JSONL span trace + metrics to FILE",
    )
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
