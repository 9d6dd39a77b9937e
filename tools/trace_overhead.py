#!/usr/bin/env python3
"""Tracing-overhead gate (the CI trace-smoke job).

Mines the quick quest-T10I4 set with and without a tracer installed and
exits 1 when tracing costs more than :data:`MAX_OVERHEAD_PCT` of the
serial mine phase. The observability contract (docs/observability.md)
is <8% overhead traced and ~0% disabled; this script gates the former.
It takes no options: the bound and the probe are constants, so every
run measures the same thing.

Run from the repository root::

    python tools/trace_overhead.py

Exit code 0 within the bound, 1 above it.
"""

from __future__ import annotations

import argparse
import gc
import math
import statistics
import sys
import time

#: Largest tracing overhead the gate accepts, in percent.
MAX_OVERHEAD_PCT = 8.0

#: Shortest mine each arm of a trace-overhead pair accumulates, in at
#: most ``TRACE_PROBE_MAX_RUNS`` mines: below this, one scheduling hiccup
#: moves a ratio by more than the 8% budget.
TRACE_PROBE_MIN_S = 0.6
TRACE_PROBE_MAX_RUNS = 10


def quest_t10i4() -> tuple[list[list[int]], int]:
    """T10I4D100K-style Quest data at quick size: avg |T|=10, avg pattern
    length 4, 2,000 transactions; returns ``(database, min_support)``.

    Its many small top-level ranks (281) make tracing cost the most
    here, relative to the mine.
    """
    from repro.datasets.quest import QuestGenerator

    scale = 2_000
    generator = QuestGenerator(
        n_transactions=scale,
        avg_transaction_length=10.0,
        avg_pattern_length=4.0,
        n_items=600,
        n_patterns=150,
        seed=101,
    )
    return generator.generate(), max(2, scale // 200)


def measure_trace_overhead(
    database: list[list[int]], min_support: int, repeats: int = 25
) -> dict:
    """Cost of tracing on the serial mine phase: the median of paired ratios.

    Each of ``repeats`` pairs mines freshly converted CFP-arrays in
    alternation, one with no tracer installed and the next under a fresh
    :class:`repro.obs.Tracer`, until each arm has mined for at least
    :data:`TRACE_PROBE_MIN_S` of CPU time (per the warm-up mine), and
    gives one traced/plain ratio of the two sums; the overhead is the
    median ratio's. Both arms of a pair see the host in one state, fresh
    arrays and a collected heap keep a run from inheriting another's
    state, and the median drops the pairs a disturbed run spoiled.
    """
    from repro import obs
    from repro.core.cfp_growth import mine_array
    from repro.core.conversion import convert
    from repro.core.ternary import TernaryCfpTree
    from repro.fptree.growth import CountCollector
    from repro.obs.tracer import Tracer
    from repro.util.items import prepare_transactions

    table, transactions = prepare_transactions(database, min_support)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))

    def mine_once(tracer: Tracer | None) -> float:
        array = convert(tree)
        # Every run starts from a collected heap: otherwise a full
        # collection can fall into one arm's runs again and again.
        gc.collect()
        previous = obs.set_tracer(tracer)
        try:
            # CPU time: tracing costs CPU, and a shared host's waits for
            # a core would only add noise to the ratio.
            started = time.process_time()
            mine_array(array, min_support, CountCollector())
            return time.process_time() - started
        finally:
            obs.set_tracer(previous)

    warm = mine_once(None)  # also warms allocator and branch predictors
    runs = min(TRACE_PROBE_MAX_RUNS, math.ceil(TRACE_PROBE_MIN_S / max(warm, 1e-6)))
    plain: list[float] = []
    traced: list[float] = []
    for pair in range(max(1, repeats)):
        plain_s = traced_s = 0.0
        for run in range(runs):
            if (pair + run) % 2:
                traced_s += mine_once(Tracer())
                plain_s += mine_once(None)
            else:
                plain_s += mine_once(None)
                traced_s += mine_once(Tracer())
        plain.append(plain_s / runs)
        traced.append(traced_s / runs)
    ratio = statistics.median(t / p for t, p in zip(traced, plain))
    return {
        "plain_s": round(statistics.median(plain), 4),
        "traced_s": round(statistics.median(traced), 4),
        "overhead_pct": round((ratio - 1.0) * 100.0, 2),
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    database, min_support = quest_t10i4()
    result = measure_trace_overhead(database, min_support)
    print(
        f"trace overhead: {result['overhead_pct']:.2f}% "
        f"({result['plain_s']:.3f}s plain vs {result['traced_s']:.3f}s traced, "
        f"max {MAX_OVERHEAD_PCT:.1f}%)"
    )
    if result["overhead_pct"] > MAX_OVERHEAD_PCT:
        print(
            f"error: tracing overhead {result['overhead_pct']:.2f}% exceeds "
            f"the {MAX_OVERHEAD_PCT:.1f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main())
