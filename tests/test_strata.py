from collections import Counter

import numpy as np
import pytest

from recstrata.corpus import Dataset, Interaction
from recstrata.propensity import GammaEstimate, PropensityTable
from recstrata.strata import AssignmentError, assign_strata, stratum_weights


def table(scores, counts=None):
    counts = counts or {i: 1 for i in scores}
    return PropensityTable(
        scores=dict(scores),
        gamma=GammaEstimate(gamma=2.0, n_samples=len(scores)),
        item_counts=dict(counts),
    )


class TestAssignStrata:
    def test_single_stratum(self):
        asg = assign_strata(table({"a": 0.2, "b": 1.0}), 1)
        assert asg.stratum_of == {"a": 1, "b": 1}

    def test_equal_scores_split_one_each(self):
        asg = assign_strata(table({"a": 1.0, "b": 1.0}), 2)
        assert sorted(asg.stratum_of.values()) == [1, 2]

    def test_greedy_mass_cut(self):
        asg = assign_strata(table({"a": 0.25, "b": 0.25, "c": 0.5}), 2)
        assert asg.stratum_of == {"a": 1, "b": 1, "c": 2}
        assert asg.mass[1] == pytest.approx(0.5)
        assert asg.mass[2] == pytest.approx(0.5)

    def test_k_exceeding_items(self):
        with pytest.raises(AssignmentError):
            assign_strata(table({"a": 1.0}), 2)

    def test_invalid_k(self):
        with pytest.raises(AssignmentError):
            assign_strata(table({"a": 1.0}), 0)

    def test_partition_every_k(self):
        scores = {f"i{k}": (k + 1) / 10 for k in range(10)}
        for K in range(1, 11):
            asg = assign_strata(table(scores), K)
            assert set(asg.stratum_of) == set(scores)
            seen = set(asg.stratum_of.values())
            assert seen == set(range(1, K + 1))

    def test_monotone_across_strata(self):
        rng = np.random.default_rng(0)
        scores = {f"i{k}": float(x) for k, x in enumerate(rng.random(40))}
        asg = assign_strata(table(scores), 4)
        for i, si in asg.stratum_of.items():
            for j, sj in asg.stratum_of.items():
                if si < sj:
                    assert scores[i] <= scores[j]

    def test_two_strata_mass_balance(self):
        rng = np.random.default_rng(1)
        scores = {f"i{k}": float(x) for k, x in enumerate(rng.random(50))}
        asg = assign_strata(table(scores), 2)
        assert abs(asg.mass[1] - asg.mass[2]) <= max(scores.values())

    def test_head_stratum_is_smaller_on_power_law_counts(self):
        # super-linear scores concentrate mass in a few heavily exposed items
        rng = np.random.default_rng(2)
        counts = {f"i{k}": int(c) for k, c in enumerate(rng.zipf(1.8, 400))}
        exponent = (2.5 + 1.0) / 2.0
        raw = {i: c**exponent for i, c in counts.items()}
        top = max(raw.values())
        scores = {i: v / top for i, v in raw.items()}
        asg = assign_strata(table(scores, counts), 2)
        sizes = Counter(asg.stratum_of.values())
        assert sizes[2] < sizes[1]


class TestStratumWeights:
    def make_reference(self, per_item):
        interactions = []
        for item, c in per_item.items():
            for k in range(c):
                interactions.append(Interaction(f"u{k}", item, 5))
        return Dataset.from_interactions(interactions)

    def test_feedback_share(self):
        asg = assign_strata(table({"tail": 0.01, "head": 1.0}), 2)
        ref = self.make_reference({"tail": 197_600, "head": 2_418})
        w = stratum_weights(asg, ref)
        assert w.weights[1] == pytest.approx(0.9879, abs=1e-4)
        assert w.weights[2] == pytest.approx(0.0121, abs=1e-4)
        assert w.counts == {1: 197_600, 2: 2_418}

    def test_single_stratum_weight_one(self):
        asg = assign_strata(table({"a": 0.5, "b": 1.0}), 1)
        w = stratum_weights(asg, self.make_reference({"a": 3, "b": 1}))
        assert w.weights == {1: 1.0}

    def test_stratum_absent_from_reference_gets_zero(self):
        asg = assign_strata(table({"a": 0.5, "b": 1.0}), 2)
        w = stratum_weights(asg, self.make_reference({"b": 4}))
        assert w.weights == {1: 0.0, 2: 1.0}

    def test_weights_sum_to_one(self):
        asg = assign_strata(table({"a": 0.2, "b": 0.4, "c": 1.0}), 3)
        w = stratum_weights(asg, self.make_reference({"a": 5, "b": 2, "c": 9}))
        assert sum(w.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_unassigned_item_is_an_error(self):
        asg = assign_strata(table({"a": 1.0, "b": 0.5}), 2)
        with pytest.raises(AssignmentError, match="'zzz'.*concatenated"):
            stratum_weights(asg, self.make_reference({"zzz": 1}))
