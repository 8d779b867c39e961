import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from recstrata.corpus import LoopKind
from recstrata.simulator import SimConfig, SimConfigError, _spearman, audit_skew, generate, gini


def small_config(**overrides):
    base = dict(n_users=150, n_items=60, exposure_budget=8, sessions=3, seed=0)
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_budget_exceeding_items_is_rejected(self):
        with pytest.raises(SimConfigError):
            SimConfig(n_users=10, n_items=5, exposure_budget=6)

    def test_bad_noise(self):
        with pytest.raises(SimConfigError):
            SimConfig(interact_noise=1.5)

    def test_unknown_policy(self):
        with pytest.raises(SimConfigError):
            SimConfig(deployed_policy="oracle")


class TestGenerate:
    def test_seed_determinism(self):
        a = generate(small_config(seed=5))
        b = generate(small_config(seed=5))
        assert a.closed_train == b.closed_train
        assert a.closed_test == b.closed_test
        assert a.open_test == b.open_test
        assert a.exposure_counts == b.exposure_counts

    def test_loop_kind_tags(self):
        log = generate(small_config())
        assert log.closed_train.loop_kind is LoopKind.CLOSED
        assert log.closed_test.loop_kind is LoopKind.CLOSED
        assert log.open_test.loop_kind is LoopKind.OPEN

    def test_closed_interactions_were_exposed(self):
        log = generate(small_config())
        for ds in (log.closed_train, log.closed_test):
            for x in ds.interactions:
                assert log.exposure_counts[x.item] >= 1

    def test_ratings_are_binarized_extremes(self):
        log = generate(small_config())
        ratings = {x.rating for x in log.closed_train.interactions}
        assert ratings <= {1, 5}
        assert all(
            x.relevant == (x.rating >= 4) for x in log.closed_train.interactions
        )

    def test_split_ratio(self):
        log = generate(small_config())
        total = len(log.closed_train) + len(log.closed_test)
        assert abs(len(log.closed_train) - round(0.8 * total)) <= 1

    def test_uniform_policy_exposure_is_uniform(self):
        log = generate(small_config(deployed_policy="uniform_random", n_users=400))
        counts = np.array([log.exposure_counts[i] for i in log.items], dtype=float)
        stat = chisquare(counts)
        assert stat.pvalue > 0.01

    def test_popularity_policy_is_more_skewed_than_uniform(self):
        pop = generate(small_config(deployed_policy="popularity_biased", n_users=400))
        uni = generate(small_config(deployed_policy="uniform_random", n_users=400))
        pop_gini = gini([pop.exposure_counts[i] for i in pop.items])
        uni_gini = gini([uni.exposure_counts[i] for i in uni.items])
        assert pop_gini > uni_gini

    def test_sharper_policy_concentrates_exposure(self):
        mild = generate(small_config(deployed_policy="popularity_biased", n_users=400))
        sharp = generate(
            small_config(
                deployed_policy="popularity_biased", n_users=400, policy_sharpness=1.5
            )
        )
        mild_gini = gini([mild.exposure_counts[i] for i in mild.items])
        sharp_gini = gini([sharp.exposure_counts[i] for i in sharp.items])
        assert sharp_gini > mild_gini

    def test_nonpositive_sharpness_is_rejected(self):
        with pytest.raises(SimConfigError):
            SimConfig(policy_sharpness=0.0)

    def test_open_budget_widens_the_open_test(self):
        narrow = generate(small_config())
        wide = generate(small_config(open_budget=30))
        assert len(wide.open_test) > len(narrow.open_test)
        per_user = {}
        for x in wide.open_test.interactions:
            per_user[x.user] = per_user.get(x.user, 0) + 1
        assert max(per_user.values()) <= 30

    def test_open_budget_exceeding_items_is_rejected(self):
        with pytest.raises(SimConfigError):
            SimConfig(n_users=10, n_items=5, exposure_budget=3, open_budget=6)

    def test_trained_mf_policy_runs(self):
        log = generate(small_config(deployed_policy="trained_mf", n_users=60, sessions=2))
        assert len(log.closed_train) > 0

    def test_open_test_is_uniform_even_under_popularity_policy(self):
        log = generate(small_config(deployed_policy="popularity_biased", n_users=500))
        counts = np.zeros(len(log.items))
        pos = {item: k for k, item in enumerate(log.items)}
        for x in log.open_test.interactions:
            counts[pos[x.item]] += 1
        # open exposure ignores the policy; the chi-square must not reject
        assert chisquare(counts).pvalue > 0.01

    def test_relevance_quantile_size(self):
        cfg = small_config(relevance_quantile=0.2)
        log = generate(cfg)
        per_user = log.relevance.sum(axis=1)
        assert np.all(per_user == round(0.2 * cfg.n_items))


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_concentrated_is_near_one(self):
        assert gini([0] * 99 + [100]) == pytest.approx(0.99, abs=1e-9)

    def test_empty_is_zero(self):
        assert gini([]) == 0.0


class TestAuditSkew:
    def test_uniform_head_share_is_small(self):
        log = generate(
            small_config(deployed_policy="uniform_random", n_users=500, n_items=100)
        )
        skew = audit_skew(log)
        # the top 1% of items (1 of 100) should hold about 1% of feedback
        assert skew.head_interaction_share <= 0.03

    def test_popularity_exposure_tracks_interactions(self):
        log = generate(
            small_config(deployed_policy="popularity_biased", n_users=500, n_items=100)
        )
        skew = audit_skew(log)
        assert skew.exposure_interaction_spearman > 0.9
        assert skew.exposure_gini > 0.0

    def test_constant_exposure_gives_zero_correlation(self):
        log = generate(small_config())
        log = dataclasses.replace(log, exposure_counts={i: 3 for i in log.items})
        assert audit_skew(log).exposure_interaction_spearman == 0.0


class TestSpearman:
    @staticmethod
    def assert_matches_scipy(a, b):
        from scipy.stats import spearmanr

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on constant input
            want = float(spearmanr(a, b).statistic)
        got = _spearman(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_matches_scipy_to_the_last_bit_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(2, 60))
            self.assert_matches_scipy(rng.integers(0, 6, n), rng.integers(0, 30, n))

    def test_two_values(self):
        self.assert_matches_scipy([1, 2], [5, 3])
        self.assert_matches_scipy([2, 7], [1, 4])

    def test_constant_input_is_undefined(self):
        self.assert_matches_scipy([4, 4, 4], [1, 2, 3])
        self.assert_matches_scipy([1, 2, 3], [0, 0, 0])
        self.assert_matches_scipy([5], [2])
