"""Partition items into strata by propensity mass and weight them by feedback."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

from .corpus import Dataset
from .propensity import COVERAGE_HINT, PropensityTable


class AssignmentError(ValueError):
    pass


@dataclass(frozen=True)
class StrataAssignment:
    """Items partitioned into K strata; stratum 1 holds the lowest-propensity
    items (the long tail), stratum K the highest (the head)."""

    K: int
    stratum_of: dict[str, int]
    mass: dict[int, float]


@dataclass(frozen=True)
class StratumWeights:
    weights: dict[int, float]
    counts: dict[int, int]


def assign_strata(propensities: PropensityTable, K: int) -> StrataAssignment:
    """Sort items by ascending propensity and cut greedily so each stratum's
    cumulative propensity mass is as close as possible to total/K.

    Ties are broken by ascending item count, then item identifier. Every
    stratum is nonempty when there are at least K items.
    """
    if K < 1:
        raise AssignmentError(f"K must be >= 1, got {K}")
    n = len(propensities.scores)
    if n == 0:
        raise AssignmentError("empty propensity table")
    if K > n:
        raise AssignmentError(f"K={K} exceeds the number of items ({n})")

    items = sorted(
        propensities.scores,
        key=lambda i: (propensities.scores[i], propensities.item_counts[i], i),
    )
    p = [propensities.scores[i] for i in items]
    total = sum(p)

    stratum_of: dict[str, int] = {}
    mass: dict[int, float] = {}
    idx = 0
    cum = 0.0
    start = 0
    for s in range(1, K):
        target = total * s / K
        cum += p[idx]
        idx += 1
        # keep extending while it brings the running mass closer to the
        # target, leaving at least one item per remaining stratum
        while idx < n - (K - s) and abs(cum + p[idx] - target) <= abs(cum - target):
            cum += p[idx]
            idx += 1
        for i in range(start, idx):
            stratum_of[items[i]] = s
        mass[s] = sum(p[start:idx])
        start = idx
    for i in range(start, n):
        stratum_of[items[i]] = K
    mass[K] = sum(p[start:])
    return StrataAssignment(K=K, stratum_of=stratum_of, mass=mass)


def stratum_weights(assignment: StrataAssignment, reference: Dataset) -> StratumWeights:
    """P(X = x): each stratum's share of the reference dataset's interactions."""
    counts = {s: 0 for s in range(1, assignment.K + 1)}
    for item, count in reference.item_counts.items():
        s = assignment.stratum_of.get(item)
        if s is None:
            raise AssignmentError(f"item {item!r} in reference has no stratum; {COVERAGE_HINT}")
        counts[s] += count
    total = sum(counts.values())
    if total == 0:
        raise AssignmentError("reference dataset is empty")
    weights = {s: c / total for s, c in counts.items()}
    return StratumWeights(weights=weights, counts=counts)


def write_assignment(
    assignment: StrataAssignment,
    propensities: PropensityTable,
    stream: IO[str],
) -> None:
    stream.write(f"# K={assignment.K}\n")
    for item in sorted(assignment.stratum_of):
        stream.write(
            f"{item},{propensities.item_counts[item]}"
            f",{propensities.scores[item]!r}"
            f",{assignment.stratum_of[item]}\n"
        )
