import math
import sys

import numpy as np
import pytest

from recstrata.corpus import Dataset, Interaction, Split, binarize
from recstrata.evaluators import (
    EvaluationError,
    StratumResult,
    holdout_eval,
    ips_eval,
    paired_ttest,
    per_stratum_eval,
    stratified_eval,
)
from recstrata.metrics import MetricSpec
from recstrata.propensity import GammaEstimate, PropensityTable
from recstrata.strata import AssignmentError, StratumWeights, assign_strata


def make_test(rows, threshold=4):
    return binarize(
        Dataset.from_interactions([Interaction(u, i, r) for u, i, r in rows]), threshold
    )


def rankings_for(order_by_user):
    return {
        u: {item: r for r, item in enumerate(order, start=1)}
        for u, order in order_by_user.items()
    }


def unit_propensities(test):
    return PropensityTable(
        scores={i: 1.0 for i in test.item_index},
        gamma=GammaEstimate(gamma=1.0, n_samples=len(test.item_index)),
        item_counts=dict(test.item_counts),
    )


def scaled(table, factor):
    return PropensityTable(
        scores={i: s * factor for i, s in table.scores.items()},
        gamma=table.gamma,
        item_counts=table.item_counts,
    )


SPEC = MetricSpec()


class TestHoldout:
    def test_mean_of_per_user_values(self):
        test = make_test([("u1", "a", 5), ("u1", "b", 1), ("u2", "a", 5), ("u2", "b", 5)])
        rankings = rankings_for({"u1": ["b", "a"], "u2": ["a", "b"]})
        report = holdout_eval(rankings, test, SPEC)
        # u1: relevant {a} at rank 2 -> 1/log2(3); u2: both relevant -> 1.0
        expected_u1 = 1.0 / math.log2(3.0)
        assert report.per_user["u1"] == pytest.approx(expected_u1)
        assert report.per_user["u2"] == 1.0
        assert report.overall == pytest.approx((expected_u1 + 1.0) / 2.0)

    def test_perfect_single_user(self):
        test = make_test([("u1", "a", 5)])
        report = holdout_eval(rankings_for({"u1": ["a", "b"]}), test, MetricSpec(cutoff=5))
        assert report.overall == 1.0

    def test_user_without_relevant_items_is_skipped(self):
        test = make_test([("u1", "a", 1), ("u2", "a", 5), ("u2", "b", 5)])
        rankings = rankings_for({"u1": ["a", "b"], "u2": ["b", "c", "a"]})
        report = holdout_eval(rankings, test, SPEC)
        assert report.per_user["u1"] is None
        assert report.overall == report.per_user["u2"]

    def test_no_defined_user_is_an_error(self):
        test = make_test([("u1", "a", 1)])
        with pytest.raises(EvaluationError):
            holdout_eval(rankings_for({"u1": ["a"]}), test, SPEC)

    def test_missing_ranking_is_an_error(self):
        test = make_test([("u1", "a", 5)])
        with pytest.raises(EvaluationError, match="u1"):
            holdout_eval({}, test, SPEC)


class TestIps:
    def test_unit_propensities_reduce_to_holdout_exactly(self):
        test = make_test(
            [("u1", "a", 5), ("u1", "b", 1), ("u2", "a", 5), ("u2", "c", 5), ("u3", "c", 4)]
        )
        rankings = rankings_for(
            {"u1": ["b", "a", "c"], "u2": ["a", "c", "b"], "u3": ["b", "c", "a"]}
        )
        hold = holdout_eval(rankings, test, SPEC)
        ips = ips_eval(rankings, test, unit_propensities(test), SPEC)
        assert ips.overall == hold.overall
        assert ips.per_user == hold.per_user

    def test_inverse_weighting_doubles_credit(self):
        test = make_test([("u1", "a", 5)])
        rankings = rankings_for({"u1": ["b", "a"]})
        table = scaled(unit_propensities(test), 0.5)
        report = ips_eval(rankings, test, table, SPEC)
        credit = 1.0 / math.log2(3.0)
        assert report.per_user["u1"] == pytest.approx(credit / 0.5)

    def test_global_rescaling_preserves_model_order(self):
        test = make_test([("u1", "a", 5), ("u1", "b", 5), ("u2", "a", 5), ("u2", "c", 4)])
        table = unit_propensities(test)
        halved = scaled(table, 0.5)
        model_rankings = [
            rankings_for({"u1": ["a", "b", "c"], "u2": ["a", "c", "b"]}),
            rankings_for({"u1": ["c", "b", "a"], "u2": ["b", "a", "c"]}),
            rankings_for({"u1": ["b", "a", "c"], "u2": ["c", "a", "b"]}),
        ]
        before = [ips_eval(r, test, table, SPEC).overall for r in model_rankings]
        after = [ips_eval(r, test, halved, SPEC).overall for r in model_rankings]
        assert after == [pytest.approx(2.0 * v) for v in before]
        assert np.argsort(before).tolist() == np.argsort(after).tolist()

    def test_missing_propensity_names_item(self):
        test = make_test([("u1", "a", 5)])
        table = PropensityTable(
            scores={"zz": 1.0}, gamma=GammaEstimate(2.0, 1), item_counts={"zz": 1}
        )
        # the message keeps its leading text and says how to fit a table that covers the test
        with pytest.raises(EvaluationError, match="^no propensity for test item 'a'; .*concatenated"):
            ips_eval(rankings_for({"u1": ["a"]}), test, table, SPEC)

    def test_zero_propensity_is_an_error(self):
        test = make_test([("u1", "a", 5)])
        table = scaled(unit_propensities(test), 0.0)
        with pytest.raises(EvaluationError, match="'a'"):
            ips_eval(rankings_for({"u1": ["a"]}), test, table, SPEC)


def two_strata_table(test):
    scores = {}
    for i in sorted(test.item_index):
        scores[i] = 1.0 if i >= "m" else 0.1
    return PropensityTable(
        scores=scores,
        gamma=GammaEstimate(2.0, len(scores)),
        item_counts=dict(test.item_counts),
    )


class TestPerStratum:
    def test_k1_equals_holdout(self):
        test = make_test([("u1", "a", 5), ("u1", "z", 5), ("u2", "a", 4)])
        rankings = rankings_for({"u1": ["a", "z"], "u2": ["z", "a"]})
        asg = assign_strata(two_strata_table(test), 1)
        per = per_stratum_eval(rankings, test, asg, SPEC)
        hold = holdout_eval(rankings, test, SPEC)
        assert per[1].value == hold.overall
        assert per[1].interaction_count == len(test)

    def test_user_restricted_to_strata_with_their_relevant_items(self):
        test = make_test([("u1", "a", 5), ("u2", "z", 5)])
        rankings = rankings_for({"u1": ["a", "z"], "u2": ["a", "z"]})
        asg = assign_strata(two_strata_table(test), 2)
        per = per_stratum_eval(rankings, test, asg, SPEC)
        assert per[1].user_count == 1  # only u1 has relevant tail feedback
        assert per[2].user_count == 1  # only u2 in the head stratum

    def test_user_with_items_in_both_strata_contributes_twice(self):
        test = make_test([("u1", "a", 5), ("u1", "z", 5)])
        rankings = rankings_for({"u1": ["a", "z"]})
        asg = assign_strata(two_strata_table(test), 2)
        per = per_stratum_eval(rankings, test, asg, SPEC)
        assert per[1].user_count == 1 and per[2].user_count == 1
        assert per[1].value == 1.0  # a at rank 1
        assert per[2].value == pytest.approx(1.0 / math.log2(3.0))  # z at rank 2

    def test_interaction_counts_decompose_the_test_set(self):
        test = make_test([("u1", "a", 5), ("u1", "z", 1), ("u2", "b", 3), ("u2", "y", 5)])
        rankings = rankings_for({"u1": ["a", "b", "y", "z"], "u2": ["a", "b", "y", "z"]})
        asg = assign_strata(two_strata_table(test), 2)
        per = per_stratum_eval(rankings, test, asg, SPEC)
        assert sum(r.interaction_count for r in per.values()) == len(test)

    def test_item_without_stratum_is_an_assignment_error(self):
        test = make_test([("u1", "a", 5), ("u1", "new", 5)])
        table = two_strata_table(make_test([("u1", "a", 5), ("u1", "z", 5)]))
        asg = assign_strata(table, 2)
        with pytest.raises(AssignmentError, match="'new'.*concatenated"):
            per_stratum_eval(rankings_for({"u1": ["a", "new"]}), test, asg, SPEC)

    def test_single_user_stratum_is_low_support(self):
        result = StratumResult(value=0.3, weight=0.5, user_count=1, interaction_count=4)
        assert result.low_support
        assert not StratumResult(0.3, 0.5, 2, 4).low_support


def weights(mapping):
    return StratumWeights(weights=dict(mapping), counts={s: 0 for s in mapping})


class TestStratified:
    def test_marginalization(self):
        report = stratified_eval({1: 0.9, 2: 0.5}, weights({1: 0.75, 2: 0.25}))
        assert report.overall == pytest.approx(0.9 * 0.75 + 0.5 * 0.25)

    def test_single_stratum_passthrough(self):
        report = stratified_eval({1: 0.437}, weights({1: 1.0}))
        assert report.overall == pytest.approx(0.437)

    def test_convexity(self):
        report = stratified_eval({1: 0.2, 2: 0.8, 3: 0.5}, weights({1: 0.2, 2: 0.5, 3: 0.3}))
        assert 0.2 <= report.overall <= 0.8

    def test_weights_must_sum_to_one(self):
        with pytest.raises(EvaluationError):
            stratified_eval({1: 0.5, 2: 0.5}, weights({1: 0.6, 2: 0.6}))

    def test_positive_weight_needs_a_value(self):
        with pytest.raises(EvaluationError):
            stratified_eval({1: 0.5, 2: None}, weights({1: 0.9, 2: 0.1}))

    def test_zero_weight_tolerates_undefined_value(self):
        report = stratified_eval({1: 0.5, 2: None}, weights({1: 1.0, 2: 0.0}))
        assert report.overall == 0.5

    def test_accepts_stratum_results(self):
        per = {
            1: StratumResult(value=0.4, weight=0.0, user_count=3, interaction_count=30),
            2: StratumResult(value=0.8, weight=0.0, user_count=2, interaction_count=10),
        }
        report = stratified_eval(per, weights({1: 0.75, 2: 0.25}))
        assert report.overall == pytest.approx(0.4 * 0.75 + 0.8 * 0.25)
        assert report.per_stratum[1].user_count == 3
        assert report.per_stratum[1].weight == 0.75


class TestPairedTtest:
    def test_identical_vectors(self):
        a = {"u1": 0.5, "u2": 0.7, "u3": 0.2}
        assert paired_ttest(a, dict(a)) == (0.0, 1.0)

    def test_constant_nonzero_difference_hits_machine_floor(self):
        a = {"u1": 0.5, "u2": 0.7}
        b = {"u1": 0.4, "u2": 0.6}
        t, p = paired_ttest(a, b)
        assert t == math.inf
        assert p == sys.float_info.min

    def test_textbook_values(self):
        # n = 11, mean difference 0.5, sample sd of differences 0.7434
        rng = np.random.default_rng(3)
        z = rng.standard_normal(11)
        z = (z - z.mean()) / z.std(ddof=1)
        diffs = 0.5 + 0.7434 * z
        a = {f"u{k}": float(d) for k, d in enumerate(diffs)}
        b = {f"u{k}": 0.0 for k in range(11)}
        t, p = paired_ttest(a, b)
        assert t == pytest.approx(2.231, abs=2e-3)
        assert p == pytest.approx(0.0498, abs=1e-3)

    def test_undefined_users_are_dropped(self):
        a = {"u1": 0.5, "u2": None, "u3": 0.6}
        b = {"u1": 0.5, "u2": 0.9, "u3": 0.6}
        assert paired_ttest(a, b) == (0.0, 1.0)

    def test_too_few_pairs(self):
        with pytest.raises(EvaluationError):
            paired_ttest({"u1": 0.5}, {"u1": 0.4})

    def test_p_matches_scipy_student_t(self):
        from scipy.stats import t as student_t

        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            a = {f"u{k}": float(v) for k, v in enumerate(rng.random(n))}
            b = {f"u{k}": float(v) for k, v in enumerate(rng.random(n) * rng.uniform(0.0, 3.0))}
            t, p = paired_ttest(a, b)
            assert p == min(2.0 * float(student_t.sf(abs(t), n - 1)), 1.0)
