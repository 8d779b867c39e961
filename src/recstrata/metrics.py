"""Ranks of each user's test items, and nDCG scoring over them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .corpus import Split


@dataclass(frozen=True)
class MetricSpec:
    cutoff: int | None = None

    def __post_init__(self):
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")

    @property
    def label(self) -> str:
        return f"ndcg@{self.cutoff}" if self.cutoff is not None else "ndcg"


def rank_all(model, split: Split) -> dict[str, dict[str, int]]:
    """For every test user, the 1-based rank of each of their test items.

    Candidates are the union of train and test items minus the user's own
    train items, ordered by descending score, then descending train
    popularity, then item identifier. A test item the user also has in train
    is not a candidate and gets no rank.
    """
    train, test = split.train, split.test
    items = sorted(set(train.items) | set(test.items))
    pos = {item: k for k, item in enumerate(items)}
    train_pos = np.array([pos[i] for i in train.items], dtype=np.int64)
    test_pos = np.array([pos[i] for i in test.items], dtype=np.int64)
    train_rows = train_pos[train.item_ids]  # each train row's item, as a candidate position
    popularity = np.bincount(train_rows, minlength=len(items))
    ids = np.arange(len(items))
    ranks = ids + 1
    own_train = dict(zip(train.users, np.split(train_rows, train.user_bounds[1:-1])))
    rankings: dict[str, dict[str, int]] = {}
    for u, mine in zip(test.users, np.split(test.item_ids, test.user_bounds[1:-1])):
        own = np.zeros(len(items), dtype=bool)
        own[own_train.get(u, [])] = True
        rank = np.empty(len(items), dtype=np.int64)
        # the user's own train items sort behind every candidate
        rank[np.lexsort((ids, -popularity, -model.score_array(u, items), own))] = ranks
        rankings[u] = {test.items[j]: int(rank[p])
                       for j, p in zip(mine.tolist(), test_pos[mine].tolist()) if not own[p]}
    return rankings


def ideal_dcg(n_relevant: int, cutoff: int | None) -> float:
    depth = n_relevant if cutoff is None else min(cutoff, n_relevant)
    return sum(1.0 / math.log2(j + 1.0) for j in range(1, depth + 1))


def gain_at(rank: int | None, cutoff: int | None) -> float:
    """Discounted gain of a relevant item at the given 1-based rank;
    items missing from the ranking or below the cutoff earn nothing."""
    if rank is None or (cutoff is not None and rank > cutoff):
        return 0.0
    return 1.0 / math.log2(rank + 1.0)


def ndcg(
    rank_of: Mapping[str, int],
    relevant_test_items: Iterable[str],
    spec: MetricSpec,
    propensities: Mapping[str, float] | None = None,
) -> float | None:
    """Binary-gain nDCG@k from the ranks of the user's test items; None when
    the user has no relevant test items. With propensities, each item's gain
    is divided by its propensity (the IPS credit)."""
    rel = sorted(set(relevant_test_items))
    if not rel:
        return None
    # fsum: the score must not depend on the order the gains are added in
    dcg = math.fsum(
        gain_at(rank_of.get(item), spec.cutoff)
        / (1.0 if propensities is None else propensities[item])
        for item in rel
    )
    return dcg / ideal_dcg(len(rel), spec.cutoff)
