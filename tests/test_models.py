import numpy as np
import pytest

from recstrata.corpus import Dataset, Interaction
from recstrata.models import (
    ALGORITHMS,
    FitError,
    ModelConfig,
    fit,
    load_model,
    save_model,
    _add_rows,
    sweep,
)


def make_train(rows):
    return Dataset.from_interactions([Interaction(u, i, r) for u, i, r in rows])


SMALL = make_train(
    [("u1", "a", 5), ("u1", "b", 1), ("u2", "a", 4), ("u2", "c", 2), ("u3", "a", 3)]
)


class TestBaselines:
    def test_popularity_ordering(self):
        model = fit(ModelConfig("POP"), make_train([("u1", "a", 5), ("u2", "a", 4), ("u3", "b", 1)]))
        for user in ("u1", "unknown"):
            scores = model.score(user)
            assert scores["a"] > scores["b"]

    def test_global_average_is_constant(self):
        model = fit(ModelConfig("GA"), SMALL)
        scores = model.score("u1")
        assert len(set(scores.values())) == 1
        assert scores["a"] == pytest.approx(3.0)  # mean of 5,1,4,2,3

    def test_random_scorer_is_deterministic(self):
        m1 = fit(ModelConfig("BO", seed=11), SMALL)
        m2 = fit(ModelConfig("BO", seed=11), SMALL)
        assert m1.score("u1") == m2.score("u1")

    def test_random_scorer_varies_with_seed_and_user(self):
        model = fit(ModelConfig("BO", seed=11), SMALL)
        other = fit(ModelConfig("BO", seed=12), SMALL)
        assert model.score("u1") != other.score("u1")
        assert model.score("u1") != model.score("u2")

    def test_user_independent_scorers(self):
        for alg in ("GA", "POP"):
            model = fit(ModelConfig(alg), SMALL)
            assert model.score("u1") == model.score("u2")


class TestFactorModels:
    def low_rank_train(self, n=20, observed=0.5, seed=0):
        # noiseless rank-1 ratings with integer entries: r = u_a * v_b
        rng = np.random.default_rng(seed)
        u = rng.integers(1, 3, n)
        v = rng.integers(0, 3, n)
        rows = []
        for a in range(n):
            for b in range(n):
                if rng.random() < observed:
                    rows.append((f"u{a}", f"i{b}", int(u[a] * v[b])))
        return make_train(rows)

    def test_mf_fits_a_low_rank_matrix(self):
        train = self.low_rank_train()
        model = fit(ModelConfig("MF", latent_size=8, epochs=200, learning_rate=0.02), train)
        preds = []
        truth = []
        for x in train.interactions:
            preds.append(model.score(x.user)[x.item])
            truth.append(x.rating)
        rmse = float(np.sqrt(np.mean((np.array(preds) - np.array(truth)) ** 2)))
        assert rmse <= 0.1

    def test_bpr_prefers_the_single_interacted_item(self):
        wins = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            rows = [("u0", "a", 5)]
            items = [f"i{k}" for k in range(8)]
            for k in range(1, 6):
                for item in rng.choice(items, size=3, replace=False):
                    rows.append((f"u{k}", str(item), 5))
            train = make_train(rows)
            model = fit(ModelConfig("BPR", latent_size=4, epochs=200, learning_rate=0.1, seed=seed), train)
            scores = model.score("u0")
            others = [scores[i] for i in train.items if i != "a"]
            if scores["a"] > float(np.median(others)):
                wins += 1
        assert wins >= 0.95 * trials

    def test_wmf_ranks_observed_items_higher(self):
        train = make_train(
            [(f"u{k}", "a", 5) for k in range(6)]
            + [(f"u{k}", f"i{k}", 5) for k in range(6)]
            + [("u0", "b", 5)]
        )
        model = fit(ModelConfig("WMF", latent_size=4, epochs=30), train)
        scores = model.score("u0")
        assert scores["a"] > scores["i3"]

    def test_cold_start_unknown_user_is_popularity(self):
        model = fit(ModelConfig("MF", latent_size=4, epochs=5), SMALL)
        scores = model.score("stranger")
        assert scores["a"] == max(scores.values())

    def test_determinism(self):
        for alg in ("MF", "BPR", "WMF"):
            cfg = ModelConfig(alg, latent_size=4, epochs=10, seed=5)
            s1 = fit(cfg, SMALL).score("u1")
            s2 = fit(cfg, SMALL).score("u1")
            assert s1 == s2, alg

    def test_row_updates_match_add_at_bit_for_bit(self):
        # many repeated rows, so each element takes a long chain of updates
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 7, 500)
        updates = rng.standard_normal((500, 5))
        start = rng.standard_normal((7, 5))
        expected, got = start.copy(), start.copy()
        np.add.at(expected, rows, updates)
        _add_rows(got, rows, updates)
        assert got.tobytes() == expected.tobytes()


class TestScoring:
    def test_score_is_finite_for_every_item(self):
        for alg in ALGORITHMS:
            model = fit(ModelConfig(alg, latent_size=4, epochs=5), SMALL)
            assert all(np.isfinite(v) for v in model.score("u1").values()), alg

    def test_score_array_zero_for_unseen_items(self):
        model = fit(ModelConfig("POP"), SMALL)
        out = model.score_array("u1", ["a", "never-seen"])
        assert out[1] == 0.0

    def test_unfitted_model_raises(self):
        from recstrata.models import Popularity

        with pytest.raises(FitError):
            Popularity(ModelConfig("POP")).score("u1")

    def test_empty_train_raises(self):
        with pytest.raises(FitError):
            fit(ModelConfig("POP"), make_train([]))


class TestSweep:
    def test_counting_rule(self):
        models = sweep(["MF", "POP"], [10, 20], SMALL, ModelConfig("POP", epochs=2))
        assert [m.label for m in models] == ["MF10", "MF20", "POP"]

    def test_full_roster_count(self):
        sizes = list(range(10, 101, 10))
        models = sweep(ALGORITHMS, sizes, SMALL, ModelConfig("POP", epochs=1))
        assert len(models) == 33

    def test_factor_only_with_no_sizes_is_empty(self):
        assert sweep(["MF", "BPR"], [], SMALL) == []

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            sweep(["XX"], [10], SMALL)


class TestSerialization:
    def test_round_trip_every_algorithm(self, tmp_path):
        for alg in ALGORITHMS:
            model = fit(ModelConfig(alg, latent_size=4, epochs=5, seed=2), SMALL)
            path = tmp_path / f"{alg}.npz"
            save_model(model, str(path))
            again = load_model(str(path))
            items = list(SMALL.item_index)
            np.testing.assert_allclose(
                model.score_array("u1", items), again.score_array("u1", items)
            )
            np.testing.assert_allclose(
                model.score_array("stranger", items), again.score_array("stranger", items)
            )
            assert again.get_params() == model.get_params()
