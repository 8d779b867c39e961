import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recstrata.corpus import Dataset, Interaction, Split
from recstrata.metrics import (
    MetricSpec,
    RankedList,
    gain_at,
    ideal_dcg,
    ndcg,
    rank_all,
)


class StubModel:
    """Scores from a fixed mapping; items not listed score 0."""

    def __init__(self, scores):
        self.scores = scores

    def score_array(self, user, items):
        return np.array([self.scores.get(i, 0.0) for i in items])


def make_split(train_rows, test_rows):
    train = Dataset.from_interactions([Interaction(u, i, r) for u, i, r in train_rows])
    test = Dataset.from_interactions([Interaction(u, i, r) for u, i, r in test_rows])
    return Split(train=train, test=test, seed=0, ratio=0.8)


class TestBuildRanking:
    def test_sorts_by_descending_score(self):
        split = make_split([("u2", "a", 5)], [("u1", "a", 5), ("u1", "b", 5), ("u1", "c", 5)])
        ranked = rank_all(StubModel({"a": 0.9, "b": 0.1, "c": 0.5}), split)["u1"]
        assert ranked.order == ("a", "c", "b")

    def test_train_items_excluded(self):
        split = make_split([("u1", "b", 5)], [("u1", "a", 5), ("u1", "c", 5)])
        ranked = rank_all(StubModel({"a": 0.9, "b": 1.0, "c": 0.5}), split)["u1"]
        assert "b" not in ranked.order

    def test_score_ties_fall_back_to_train_popularity(self):
        split = make_split(
            [("u2", "b", 5), ("u3", "b", 5), ("u2", "c", 5)],
            [("u1", "a", 5), ("u1", "b", 5), ("u1", "c", 5)],
        )
        ranked = rank_all(StubModel({}), split)["u1"]
        assert ranked.order == ("b", "c", "a")

    def test_full_tie_falls_back_to_item_id(self):
        split = make_split([("u2", "z", 5)], [("u1", "a", 5), ("u1", "b", 5)])
        ranked = rank_all(StubModel({}), split)["u1"]
        # z has popularity 1, then a/b alphabetical
        assert ranked.order == ("z", "a", "b")

    def test_rank_of_inverts_order(self):
        ranked = RankedList(user="u", order=("c", "a", "b"))
        assert ranked.rank_of == {"c": 1, "a": 2, "b": 3}

    def test_rank_all_covers_test_users(self):
        split = make_split([("u1", "a", 5)], [("u1", "b", 5), ("u2", "a", 5)])
        rankings = rank_all(StubModel({"a": 1.0, "b": 0.2}), split)
        assert set(rankings) == {"u1", "u2"}


class TestNdcg:
    def test_perfect_ranking(self):
        ranked = RankedList(user="u", order=("a", "b", "c"))
        assert ndcg(ranked, {"a"}, MetricSpec(cutoff=5)) == 1.0

    def test_single_relevant_at_rank_two(self):
        ranked = RankedList(user="u", order=("b", "a", "c"))
        value = ndcg(ranked, {"a"}, MetricSpec(cutoff=5))
        assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-4)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_no_relevant_in_cutoff(self):
        order = tuple(f"i{k}" for k in range(10))
        ranked = RankedList(user="u", order=order)
        assert ndcg(ranked, {"i9"}, MetricSpec(cutoff=5)) == 0.0

    def test_no_relevant_items_is_undefined(self):
        ranked = RankedList(user="u", order=("a", "b"))
        assert ndcg(ranked, set(), MetricSpec()) is None

    def test_relevant_item_missing_from_order_earns_nothing(self):
        ranked = RankedList(user="u", order=("a", "b"))
        value = ndcg(ranked, {"a", "zz"}, MetricSpec())
        assert value == pytest.approx(1.0 / ideal_dcg(2, None))

    def test_gain_at_cutoff_boundary(self):
        assert gain_at(5, 5) == pytest.approx(1.0 / math.log2(6.0))
        assert gain_at(6, 5) == 0.0
        assert gain_at(None, 5) == 0.0

    def test_ideal_dcg_truncates_at_cutoff(self):
        assert ideal_dcg(10, 2) == pytest.approx(1.0 + 1.0 / math.log2(3.0))
        assert ideal_dcg(2, 10) == ideal_dcg(2, None)


def reference_ndcg(order, relevant, cutoff):
    """Deliberately plain re-implementation used as an oracle."""
    gains = []
    for rank, item in enumerate(order, start=1):
        if item in relevant and (cutoff is None or rank <= cutoff):
            gains.append(1.0 / math.log2(rank + 1))
    depth = len(relevant) if cutoff is None else min(cutoff, len(relevant))
    ideal = sum(1.0 / math.log2(j + 1) for j in range(1, depth + 1))
    return sum(gains) / ideal


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    rel_mask=st.lists(st.booleans(), min_size=1, max_size=8),
    cutoff=st.one_of(st.none(), st.integers(1, 8)),
    seed=st.integers(0, 10_000),
)
def test_small_instance_oracle(n, rel_mask, cutoff, seed):
    rng = np.random.default_rng(seed)
    items = [f"i{k}" for k in range(n)]
    order = tuple(rng.permutation(items))
    relevant = {items[k] for k in range(n) if rel_mask[k % len(rel_mask)]}
    ranked = RankedList(user="u", order=order)
    spec = MetricSpec(cutoff=cutoff)
    value = ndcg(ranked, relevant, spec)
    if not relevant:
        assert value is None
    else:
        assert value == pytest.approx(reference_ndcg(order, relevant, cutoff), abs=1e-12)
        assert 0.0 <= value <= 1.0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000), cutoff=st.one_of(st.none(), st.integers(1, 12)))
def test_promoting_a_relevant_item_never_hurts(n, seed, cutoff):
    rng = np.random.default_rng(seed)
    items = [f"i{k}" for k in range(n)]
    order = list(rng.permutation(items))
    relevant = set(rng.choice(items, size=rng.integers(1, n + 1), replace=False))
    spec = MetricSpec(cutoff=cutoff)
    before = ndcg(RankedList(user="u", order=tuple(order)), relevant, spec)
    # move one relevant item up a position
    ranks = [k for k, i in enumerate(order) if i in relevant and k > 0]
    if not ranks:
        return
    k = int(rng.choice(ranks))
    if order[k - 1] in relevant:
        return  # swapping two relevant items changes nothing ordering-wise
    order[k - 1], order[k] = order[k], order[k - 1]
    after = ndcg(RankedList(user="u", order=tuple(order)), relevant, spec)
    assert after >= before - 1e-12
