"""Per-user ranking construction and nDCG scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

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


@dataclass(frozen=True)
class RankedList:
    user: str
    order: tuple[str, ...]

    @cached_property
    def rank_of(self) -> dict[str, int]:
        return {item: r for r, item in enumerate(self.order, start=1)}


class RankingContext:
    """Shared candidate universe for ranking every user of a Split.

    Candidates are the union of train and test items; each user's train
    items are excluded from their own ranking. Score ties are broken by
    descending train popularity, then by item identifier.
    """

    def __init__(self, split: Split):
        self.split = split
        self.items: list[str] = sorted(
            set(split.train.item_index) | set(split.test.item_index)
        )
        self._pos = {item: k for k, item in enumerate(self.items)}
        self.popularity = np.array(
            [split.train.item_counts.get(i, 0) for i in self.items], dtype=np.float64
        )
        self._train_items: dict[str, set[str]] = {}
        for x in split.train.interactions:
            self._train_items.setdefault(x.user, set()).add(x.item)
        self._ids = np.arange(len(self.items))

    def train_items(self, user: str) -> set[str]:
        return self._train_items.get(user, set())

    def rank(self, scores: np.ndarray, user: str) -> RankedList:
        """Order the candidate items for one user given scores aligned to
        self.items; the user's train items are dropped."""
        excluded = self.train_items(user)
        if excluded:
            keep = np.ones(len(self.items), dtype=bool)
            keep[[self._pos[i] for i in excluded]] = False
            scores = scores[keep]
            pop = self.popularity[keep]
            ids = self._ids[keep]
        else:
            pop = self.popularity
            ids = self._ids
        # primary: score desc, then train popularity desc, then item id asc
        order = np.lexsort((ids, -pop, -scores))
        kept_items = [self.items[i] for i in ids]
        return RankedList(user=user, order=tuple(kept_items[j] for j in order))


def rank_all(model, split: Split) -> dict[str, RankedList]:
    """Rankings for every test user of the split."""
    ctx = RankingContext(split)
    return {u: ctx.rank(model.score_array(u, ctx.items), u) for u in split.test.users}


def ideal_dcg(n_relevant: int, cutoff: int | None) -> float:
    depth = n_relevant if cutoff is None else min(cutoff, n_relevant)
    return sum(1.0 / math.log2(j + 1.0) for j in range(1, depth + 1))


def gain_at(rank: int | None, cutoff: int | None) -> float:
    """Discounted gain of a relevant item at the given 1-based rank;
    items missing from the ranking or below the cutoff earn nothing."""
    if rank is None or (cutoff is not None and rank > cutoff):
        return 0.0
    return 1.0 / math.log2(rank + 1.0)


def ndcg(ranked: RankedList, relevant_test_items: Iterable[str], spec: MetricSpec) -> float | None:
    """Binary-gain nDCG@k; None when the user has no relevant test items."""
    rel = sorted(set(relevant_test_items))
    if not rel:
        return None
    rank_of = ranked.rank_of
    # fsum: the score must not depend on the order the gains are added in
    dcg = math.fsum(gain_at(rank_of.get(item), spec.cutoff) for item in rel)
    return dcg / ideal_dcg(len(rel), spec.cutoff)
