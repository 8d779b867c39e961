import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recstrata.corpus import Dataset, Interaction, Split
from recstrata.metrics import (
    MetricSpec,
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
    return Split(train=train, test=test)


def ranking(order):
    """The ranking that lists `order` from the top."""
    return {item: r for r, item in enumerate(order, start=1)}


class TestBuildRanking:
    def test_sorts_by_descending_score(self):
        split = make_split([("u2", "a", 5)], [("u1", "a", 5), ("u1", "b", 5), ("u1", "c", 5)])
        ranked = rank_all(StubModel({"a": 0.9, "b": 0.1, "c": 0.5}), split)["u1"]
        assert ranked == {"a": 1, "c": 2, "b": 3}

    def test_train_items_excluded(self):
        split = make_split([("u1", "b", 5)], [("u1", "a", 5), ("u1", "b", 5), ("u1", "c", 5)])
        ranked = rank_all(StubModel({"a": 0.9, "b": 1.0, "c": 0.5}), split)["u1"]
        # b outscores both, but is the user's own train item: no rank, no place
        assert ranked == {"a": 1, "c": 2}

    def test_score_ties_fall_back_to_train_popularity(self):
        split = make_split(
            [("u2", "b", 5), ("u3", "b", 5), ("u2", "c", 5)],
            [("u1", "a", 5), ("u1", "b", 5), ("u1", "c", 5)],
        )
        ranked = rank_all(StubModel({}), split)["u1"]
        assert ranked == {"b": 1, "c": 2, "a": 3}

    def test_full_tie_falls_back_to_item_id(self):
        split = make_split([("u2", "z", 5)], [("u1", "a", 5), ("u1", "b", 5)])
        ranked = rank_all(StubModel({}), split)["u1"]
        # z has popularity 1 and takes rank 1, then a/b alphabetical
        assert ranked == {"a": 2, "b": 3}

    def test_rank_all_covers_test_users(self):
        split = make_split([("u1", "a", 5)], [("u1", "b", 5), ("u2", "a", 5)])
        rankings = rank_all(StubModel({"a": 1.0, "b": 0.2}), split)
        assert set(rankings) == {"u1", "u2"}


USERS = ["u1", "u2", "u3"]
ITEMS = ["a", "b", "c", "d", "e"]
PAIRS = st.lists(st.tuples(st.sampled_from(USERS), st.sampled_from(ITEMS)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(
    train=PAIRS,
    test=PAIRS.filter(bool),
    scores=st.dictionaries(st.sampled_from(ITEMS), st.sampled_from([-1.0, 0.0, 0.5])),
)
def test_rank_all_matches_brute_force(train, test, scores):
    # few users, items and score values, so that score and popularity ties are common
    split = make_split([(u, i, 5) for u, i in train], [(u, i, 5) for u, i in test])
    rankings = rank_all(StubModel(scores), split)
    assert set(rankings) == set(split.test.user_index)
    candidates = set(split.train.item_index) | set(split.test.item_index)
    popularity = split.train.item_counts
    for u, ranked in rankings.items():
        own = {x.item for x in split.train.interactions if x.user == u}
        order = sorted(
            candidates - own, key=lambda i: (-scores.get(i, 0.0), -popularity.get(i, 0), i)
        )
        tested = {x.item for x in split.test.interactions if x.user == u}
        assert ranked == {i: order.index(i) + 1 for i in tested - own}
        assert not own & set(ranked)


class TestNdcg:
    def test_perfect_ranking(self):
        assert ndcg(ranking(("a", "b", "c")), {"a"}, MetricSpec(cutoff=5)) == 1.0

    def test_single_relevant_at_rank_two(self):
        value = ndcg(ranking(("b", "a", "c")), {"a"}, MetricSpec(cutoff=5))
        assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-4)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_no_relevant_in_cutoff(self):
        order = tuple(f"i{k}" for k in range(10))
        assert ndcg(ranking(order), {"i9"}, MetricSpec(cutoff=5)) == 0.0

    def test_no_relevant_items_is_undefined(self):
        assert ndcg(ranking(("a", "b")), set(), MetricSpec()) is None

    def test_relevant_item_missing_from_order_earns_nothing(self):
        value = ndcg(ranking(("a", "b")), {"a", "zz"}, MetricSpec())
        assert value == pytest.approx(1.0 / ideal_dcg(2, None))

    def test_propensities_divide_each_gain(self):
        ranked = ranking(("b", "a", "c"))
        spec = MetricSpec(cutoff=5)
        weighted = ndcg(ranked, {"a", "b"}, spec, {"a": 0.5, "b": 1.0})
        expected = (1.0 + 1.0 / math.log2(3.0) / 0.5) / ideal_dcg(2, 5)
        assert weighted == pytest.approx(expected)
        unit = ndcg(ranked, {"a", "b"}, spec, {"a": 1.0, "b": 1.0})
        assert unit == ndcg(ranked, {"a", "b"}, spec)

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
    spec = MetricSpec(cutoff=cutoff)
    value = ndcg(ranking(order), relevant, spec)
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
    before = ndcg(ranking(order), relevant, spec)
    # move one relevant item up a position
    ranks = [k for k, i in enumerate(order) if i in relevant and k > 0]
    if not ranks:
        return
    k = int(rng.choice(ranks))
    if order[k - 1] in relevant:
        return  # swapping two relevant items changes nothing ordering-wise
    order[k - 1], order[k] = order[k], order[k - 1]
    after = ndcg(ranking(order), relevant, spec)
    assert after >= before - 1e-12
