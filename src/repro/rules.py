"""Association-rule generation from frequent itemsets (§1's motivation).

The "customers who bought this also bought ..." application: a rule
``antecedent -> consequent`` is generated from each frequent itemset
``Z = antecedent ∪ consequent`` with

* ``support``    = support(Z) (absolute count),
* ``confidence`` = support(Z) / support(antecedent),
* ``lift``       = confidence / (support(consequent) / n_transactions).

Rule generation uses the classic Agrawal-Srikant levelwise scheme over
consequents: confidence is anti-monotone in the consequent (moving an
item from antecedent to consequent can only lower it), so consequents
that fail the threshold prune all their supersets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable

from repro.api import MiningResult
from repro.core.cfp_growth import cfp_growth
from repro.errors import ExperimentError
from repro.util.items import TransactionDatabase


@dataclass(frozen=True)
class Rule:
    """One association rule with its quality measures."""

    antecedent: tuple[Hashable, ...]
    consequent: tuple[Hashable, ...]
    support: int
    confidence: float
    lift: float

    def __str__(self) -> str:  # pragma: no cover - presentation only
        lhs = ", ".join(map(str, self.antecedent))
        rhs = ", ".join(map(str, self.consequent))
        return (
            f"{{{lhs}}} -> {{{rhs}}} "
            f"(support={self.support}, confidence={self.confidence:.2f}, "
            f"lift={self.lift:.2f})"
        )


def generate_rules(
    itemsets: Iterable[tuple[tuple[Hashable, ...], int]] | MiningResult,
    n_transactions: int,
    min_confidence: float = 0.5,
    max_consequent_size: int | None = None,
) -> list[Rule]:
    """Derive all rules meeting ``min_confidence`` from mined itemsets.

    ``itemsets`` must be downward-closed (the complete output of a miner),
    since antecedent/consequent supports are looked up in it. The output
    order is total — confidence, support, then the antecedent and
    consequent reprs — so it does not depend on the order the itemsets
    arrive in.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ExperimentError(f"min_confidence must be in (0, 1], got {min_confidence}")
    if n_transactions < 1:
        raise ExperimentError("n_transactions must be positive")
    supports = {frozenset(itemset): s for itemset, s in itemsets}
    rules: list[Rule] = []
    for itemset, support in list(supports.items()):
        if len(itemset) < 2:
            continue
        limit = max_consequent_size or (len(itemset) - 1)
        # Levelwise over consequents with confidence pruning.
        consequents: list[frozenset] = [
            frozenset([item])
            for item in itemset
            if _confident(supports, itemset, frozenset([item]), min_confidence)
        ]
        _emit(rules, supports, itemset, support, consequents, n_transactions)
        size = 1
        while consequents and size < min(limit, len(itemset) - 1):
            size += 1
            merged = set()
            for a, b in combinations(consequents, 2):
                candidate = a | b
                if len(candidate) == size and _confident(
                    supports, itemset, candidate, min_confidence
                ):
                    merged.add(candidate)
            consequents = list(merged)
            _emit(rules, supports, itemset, support, consequents, n_transactions)
    rules.sort(key=_strength)
    return rules


def also_bought(
    rules: Iterable[Rule],
    basket: Iterable[Hashable],
    limit: int = 10,
) -> list[Rule]:
    """The "customers who bought this also bought ..." query.

    Filters a rule set down to the rules a basket *triggers*: the whole
    antecedent is in the basket and the consequent recommends only items
    not already in it. Output order is deterministic — strongest rules
    first (confidence, then support, then the antecedent/consequent reprs
    as the final tie-break), truncated to ``limit`` — because the serving
    layer promises byte-identical answers to direct library calls.
    """
    if limit < 1:
        raise ExperimentError(f"limit must be >= 1, got {limit}")
    basket_set = set(basket)
    triggered = [
        rule
        for rule in rules
        if set(rule.antecedent) <= basket_set
        and not basket_set & set(rule.consequent)
    ]
    triggered.sort(key=_strength)
    return triggered[:limit]


def mine_rules(
    database: TransactionDatabase,
    min_support: int,
    min_confidence: float = 0.5,
    max_consequent_size: int | None = None,
) -> list[Rule]:
    """Mine and derive rules in one call."""
    itemsets = cfp_growth(database, min_support)
    return generate_rules(
        itemsets, len(database), min_confidence, max_consequent_size
    )


def _strength(rule: Rule) -> tuple[float, int, str, str]:
    """Sort key, strongest rule first, with the reprs as the tie-break."""
    return (
        -rule.confidence,
        -rule.support,
        repr(rule.antecedent),
        repr(rule.consequent),
    )


def _confident(supports, itemset, consequent, min_confidence) -> bool:
    antecedent = frozenset(itemset) - consequent
    if not antecedent:
        return False
    return supports[frozenset(itemset)] / supports[antecedent] >= min_confidence


def _emit(rules, supports, itemset, support, consequents, n_transactions) -> None:
    for consequent in consequents:
        antecedent = frozenset(itemset) - consequent
        confidence = support / supports[antecedent]
        base_rate = supports[consequent] / n_transactions
        rules.append(
            Rule(
                antecedent=tuple(sorted(antecedent, key=repr)),
                consequent=tuple(sorted(consequent, key=repr)),
                support=support,
                confidence=confidence,
                lift=confidence / base_rate if base_rate else 0.0,
            )
        )
