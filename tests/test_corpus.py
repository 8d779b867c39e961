import io
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recstrata.corpus import (
    ColumnSchema,
    Dataset,
    Interaction,
    LoopKind,
    ParseError,
    SplitError,
    binarize,
    parse_interactions,
    split_holdout,
    write_dataset,
)


def parse(text, **kwargs):
    return parse_interactions(io.StringIO(text), **kwargs)


class TestParse:
    def test_single_record(self):
        ds = parse("u1,i1,5\n")
        assert len(ds) == 1
        assert ds.item_counts["i1"] == 1
        assert ds.interactions[0] == Interaction("u1", "i1", 5)

    def test_duplicate_pair_keeps_last(self):
        ds = parse("u1,i1,5\nu1,i1,2\n")
        assert len(ds) == 1
        assert ds.interactions[0].rating == 2

    def test_rating_out_of_range(self):
        with pytest.raises(ParseError, match="line 1"):
            parse("u1,i1,9\n")

    def test_non_integer_rating_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("u1,i1,5\nu2,i2,bad\n")

    def test_too_few_columns(self):
        with pytest.raises(ParseError, match="line 1"):
            parse("u1,i1\n")

    def test_empty_stream_gives_empty_dataset(self):
        ds = parse("")
        assert len(ds) == 0

    def test_comments_and_blank_lines_skipped(self):
        ds = parse("# header\n\nu1,i1,4\n")
        assert len(ds) == 1

    def test_extra_columns_ignored(self):
        ds = parse("u1,i1,4,973\n")
        assert ds.interactions[0].rating == 4

    def test_custom_schema(self):
        ds = parse("4,u1,i1\n", schema=ColumnSchema(user=1, item=2, rating=0))
        assert ds.interactions[0] == Interaction("u1", "i1", 4)

    def test_loop_kind_flag(self):
        assert parse("u1,i1,4\n", loop_kind=LoopKind.OPEN).loop_kind is LoopKind.OPEN


class TestDataset:
    def test_indices_are_contiguous_and_sorted(self):
        ds = parse("u2,i2,1\nu1,i1,2\n")
        assert ds.user_index == {"u1": 0, "u2": 1}
        assert ds.item_index == {"i1": 0, "i2": 1}

    def test_item_counts_sum_to_length(self):
        ds = parse("u1,i1,1\nu2,i1,2\nu2,i2,3\n")
        assert ds.item_counts == {"i1": 2, "i2": 1}
        assert sum(ds.item_counts.values()) == len(ds)

    def test_interaction_order_is_canonical(self):
        a = Dataset.from_interactions([Interaction("u2", "i1", 1), Interaction("u1", "i1", 2)])
        b = Dataset.from_interactions([Interaction("u1", "i1", 2), Interaction("u2", "i1", 1)])
        assert a.interactions == b.interactions

    def test_round_trip(self):
        ds = parse("u1,i1,5\nu2,i1,0\nu1,i2,3\n")
        buf = io.StringIO()
        write_dataset(ds, buf)
        again = parse(buf.getvalue())
        assert again == ds
        assert again.user_index == ds.user_index
        assert again.item_index == ds.item_index


class TestBinarize:
    def test_threshold_boundary(self):
        ds = binarize(parse("u1,i1,4\nu1,i2,3\n"), threshold=4)
        by_item = {x.item: x.relevant for x in ds.interactions}
        assert by_item == {"i1": True, "i2": False}

    def test_threshold_zero_marks_everything(self):
        ds = binarize(parse("u1,i1,0\nu1,i2,5\n"), threshold=0)
        assert all(x.relevant for x in ds.interactions)

    def test_ratings_preserved(self):
        ds = binarize(parse("u1,i1,2\n"))
        assert ds.interactions[0].rating == 2

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            binarize(parse("u1,i1,2\n"), threshold=6)


def make_dataset(n):
    return Dataset.from_interactions(
        [Interaction(f"u{k % 7}", f"i{k}", k % 6) for k in range(n)]
    )


class TestSplit:
    def test_cardinality_and_determinism(self):
        ds = make_dataset(10)
        s1 = split_holdout(ds, ratio=0.8, seed=7)
        s2 = split_holdout(ds, ratio=0.8, seed=7)
        assert len(s1.train) == 8 and len(s1.test) == 2
        assert s1.train == s2.train and s1.test == s2.test

    def test_other_seed_same_cardinality(self):
        ds = make_dataset(10)
        s = split_holdout(ds, ratio=0.8, seed=8)
        assert len(s.train) == 8 and len(s.test) == 2

    def test_large_split_fraction(self):
        ds = make_dataset(100_000)
        s = split_holdout(ds, ratio=0.8, seed=0)
        assert 0.799 <= len(s.train) / len(ds) <= 0.801

    def test_too_small(self):
        with pytest.raises(SplitError):
            split_holdout(make_dataset(1), seed=0)

    def test_bad_ratio(self):
        with pytest.raises(SplitError):
            split_holdout(make_dataset(10), ratio=1.0, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 200), seed=st.integers(0, 1000))
    def test_partition_property(self, n, seed):
        ds = make_dataset(n)
        s = split_holdout(ds, seed=seed)
        train_pairs = {(x.user, x.item) for x in s.train.interactions}
        test_pairs = {(x.user, x.item) for x in s.test.interactions}
        assert not train_pairs & test_pairs
        merged = sorted(
            s.train.interactions + s.test.interactions, key=lambda x: (x.user, x.item)
        )
        assert tuple(merged) == ds.interactions
        for part in (s.train, s.test):
            assert sum(part.item_counts.values()) == len(part)


def check_columns(ds):
    """The column invariants: sorted distinct vocabularies that rows all use,
    rows strictly ascending by (user, item), and each user's rows one slice."""
    assert ds.users == sorted(set(ds.users)) and ds.items == sorted(set(ds.items))
    assert set(ds.user_ids.tolist()) == set(range(len(ds.users)))
    assert set(ds.item_ids.tolist()) == set(range(len(ds.items)))
    keys = ds.user_ids * len(ds.items) + ds.item_ids
    assert np.all(np.diff(keys) > 0)
    per_user = np.repeat(np.arange(len(ds.users)), np.diff(ds.user_bounds))
    assert np.array_equal(per_user, ds.user_ids)


records = st.lists(
    st.builds(
        Interaction,
        user=st.sampled_from(["u1", "u2", "u10", "v"]),
        item=st.sampled_from(["a", "b", "c", "i9", "i10"]),
        rating=st.integers(0, 5),
        relevant=st.booleans(),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(xs=records, threshold=st.integers(0, 5), seed=st.integers(0, 1000))
def test_dataset_edge_contract(xs, threshold, seed):
    ds = Dataset.from_interactions(xs)
    check_columns(ds)
    last = {}
    for x in xs:
        last[(x.user, x.item)] = x
    expected = sorted(last.values(), key=lambda x: (x.user, x.item))
    assert list(ds.interactions) == expected

    counts = {}
    for x in expected:
        counts[x.item] = counts.get(x.item, 0) + 1
    assert list(ds.item_counts.items()) == list(counts.items())

    buf = io.StringIO()
    write_dataset(ds, buf)
    again = parse(buf.getvalue())
    check_columns(again)
    assert again == Dataset.from_interactions(replace(x, relevant=False) for x in expected)

    binary = binarize(ds, threshold)
    check_columns(binary)
    assert binary == Dataset.from_interactions(
        replace(x, relevant=x.rating >= threshold) for x in expected
    )

    if len(expected) >= 2:
        # the reference split: shuffle the row numbers, cut, keep each part in row order
        order = list(range(len(expected)))
        random.Random(seed).shuffle(order)
        n_train = min(max(int(round(0.8 * len(expected))), 1), len(expected) - 1)
        split = split_holdout(ds, seed=seed)
        for part, rows in ((split.train, order[:n_train]), (split.test, order[n_train:])):
            check_columns(part)
            assert part == Dataset.from_interactions(expected[i] for i in sorted(rows))
