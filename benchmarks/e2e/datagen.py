"""Seeded Quest-model transaction generator owned by the benchmark.

The benchmark makes its own inputs instead of calling
``repro.datasets.quest``: a change to the program's generator must not
change what the benchmark measures. The model is the Agrawal-Srikant
market-basket one: a pool of potentially frequent patterns with
exponential weights and per-pattern corruption, and transactions filled
by weighted pattern picks.

Each workload fixes its pattern pool (``Shape.pool_seed``); the run's
``--seed`` draws the transactions from that pool. Seeds therefore give
fresh samples of one distribution, so the work per run stays comparable
across seeds while no two seeds share an input.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Shape:
    """Size and statistics of one workload's transaction database."""

    n_transactions: int
    avg_length: float
    avg_pattern_length: float
    n_items: int
    n_patterns: int
    min_support: int
    pool_seed: int
    max_length: int = 0
    """Longest transaction allowed (0: no cap)."""

    def scaled(self, scale: float) -> "Shape":
        """The same distribution at ``scale`` times the transactions.

        The support threshold shrinks with the square root of the scale,
        so small self-test databases stay sparse enough to mine quickly.
        """
        if scale == 1.0:
            return self
        return replace(
            self,
            n_transactions=max(50, int(self.n_transactions * scale)),
            min_support=max(2, math.ceil(self.min_support * math.sqrt(scale))),
        )


#: One shape per workload. mine-dense is the T10I4 regime; mine-ooc the
#: wide-vocabulary, low-sharing regime of the out-of-core leg, capped at 12
#: items because long transactions make the itemset count swing from seed
#: to seed; serve-mixed a small T10I4 store whose transactions are capped
#: at 10 items, because one top-k request enumerates every subset of the
#: longest transactions holding a rare item (2**L work) and an uncapped
#: sample can make a single request take seconds; stream-follow a T10I4
#: stream, whose length the workload sets from the run's seconds.
SHAPES = {
    "mine-dense": Shape(6_000, 10.0, 4.0, 1_000, 300, 6, pool_seed=101),
    "mine-ooc": Shape(800, 12.0, 4.0, 900, 250, 3, pool_seed=202, max_length=12),
    "serve-mixed": Shape(2_000, 10.0, 4.0, 600, 150, 20, pool_seed=303, max_length=10),
    "stream-follow": Shape(0, 10.0, 4.0, 1_000, 300, 30, pool_seed=404),
}


def _poisson(rng: random.Random, mean: float) -> int:
    limit = math.exp(-mean)
    product = rng.random()
    count = 0
    while product > limit:
        product *= rng.random()
        count += 1
    return count


def transactions(shape: Shape, seed: int) -> list[list[int]]:
    """The database for ``shape`` and ``seed``; identical per (shape, seed)."""
    pool = random.Random(shape.pool_seed)
    patterns: list[list[int]] = []
    previous: list[int] = []
    for __ in range(shape.n_patterns):
        length = min(shape.n_items, max(1, _poisson(pool, shape.avg_pattern_length)))
        pattern: set[int] = set()
        if previous:
            inherited = min(
                len(previous), int(length * min(1.0, pool.expovariate(1.0) * 0.5))
            )
            pattern.update(pool.sample(previous, inherited))
        while len(pattern) < length:
            pattern.add(pool.randrange(shape.n_items))
        previous = sorted(pattern)
        patterns.append(previous)
    corruption = [min(0.98, max(0.0, pool.gauss(0.5, 0.1))) for __ in patterns]
    weights = [pool.expovariate(1.0) for __ in patterns]
    total = sum(weights)
    cumulative: list[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    cumulative[-1] = 1.0

    rng = random.Random(f"{shape.pool_seed}:{seed}")
    database: list[list[int]] = []
    for __ in range(shape.n_transactions):
        target = max(1, _poisson(rng, shape.avg_length))
        transaction: set[int] = set()
        for __ in range(8 * target):
            if len(transaction) >= target:
                break
            pick = bisect.bisect_left(cumulative, rng.random())
            kept = [item for item in patterns[pick] if rng.random() >= corruption[pick]]
            if not kept:
                continue
            if len(transaction) + len(kept) > target and transaction and rng.random() < 0.5:
                break
            transaction.update(kept)
        if not transaction:
            transaction.add(rng.randrange(shape.n_items))
        if shape.max_length and len(transaction) > shape.max_length:
            transaction = set(rng.sample(sorted(transaction), shape.max_length))
        database.append(sorted(transaction))
    return database


def write_fimi(path: str, database: list[list[int]]) -> None:
    """Write ``database`` as FIMI text: one transaction per line."""
    with open(path, "w", encoding="ascii") as handle:
        for transaction in database:
            handle.write(" ".join(map(str, transaction)) + "\n")
