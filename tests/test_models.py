import numpy as np
import pytest

from recstrata.corpus import Dataset, Interaction
from recstrata.models import (
    ALGORITHMS,
    FitError,
    ModelConfig,
    WeightedMF,
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
        # SMALL's rows hold 1 to 3 observations: latent size 2 meets rows on
        # both sides of it, and latent size 8 is above every row's count
        for alg in ("MF", "BPR", "WMF"):
            for k in (2, 4, 8):
                cfg = ModelConfig(alg, latent_size=k, epochs=10, seed=5)
                s1 = fit(cfg, SMALL).score("u1")
                s2 = fit(cfg, SMALL).score("u1")
                assert s1 == s2, (alg, k)

    def test_bpr_matches_a_dense_mask_reference_bit_for_bit(self):
        # dense enough that many sampled negatives are positives and are redrawn
        rng = np.random.default_rng(4)
        train = make_train([(f"u{a}", f"i{b}", 5) for a in range(9) for b in range(7)
                            if rng.random() < 0.6])
        cfg = ModelConfig("BPR", latent_size=3, epochs=20, learning_rate=0.05, seed=8)
        model = fit(cfg, train)
        P, Q, bi = dense_mask_bpr(cfg, train)
        assert model.P_.tobytes() == P.tobytes()
        assert model.Q_.tobytes() == Q.tobytes()
        assert model.bi_.tobytes() == bi.tobytes()

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


def dense_mask_bpr(cfg, train):
    """BPR's fit with a dense n_users x n_items positive mask: the reference
    for the sorted-key membership test."""
    rng = np.random.default_rng(cfg.seed)
    u, i = train.user_ids, train.item_ids
    nu, ni = len(train.user_index), len(train.item_index)
    scale = 0.1 / np.sqrt(cfg.latent_size)
    P = scale * rng.standard_normal((nu, cfg.latent_size))
    Q = scale * rng.standard_normal((ni, cfg.latent_size))
    bi = np.zeros(ni)
    pos_mask = np.zeros((nu, ni), dtype=bool)
    pos_mask[u, i] = True
    lr, reg, n = cfg.learning_rate, cfg.regularization, len(u)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        neg = rng.integers(0, ni, size=n)
        bad = pos_mask[u, neg]
        while np.any(bad):
            neg[bad] = rng.integers(0, ni, size=int(bad.sum()))
            bad = pos_mask[u, neg]
        for s in range(0, n, 1024):
            sel = perm[s : s + 1024]
            ub, ib, jb = u[sel], i[sel], neg[sel]
            Pu, Qi, Qj = P[ub], Q[ib], Q[jb]
            x = bi[ib] - bi[jb] + np.einsum("nk,nk->n", Pu, Qi - Qj)
            g = 1.0 / (1.0 + np.exp(x))
            np.add.at(P, ub, lr * (g[:, None] * (Qi - Qj) - reg * Pu))
            np.add.at(Q, ib, lr * (g[:, None] * Pu - reg * Qi))
            np.add.at(Q, jb, lr * (-g[:, None] * Pu - reg * Qj))
            np.add.at(bi, ib, lr * (g - reg * bi[ib]))
            np.add.at(bi, jb, lr * (-g - reg * bi[jb]))
    return P, Q, bi


def per_row_als_half(other, obs_lists, alpha, reg):
    """WMF's half-step with one k x k system per row, built in a loop and
    solved in one batched call: the reference for rows with L >= k."""
    k = other.shape[1]
    gram = other.T @ other + reg * np.eye(k)
    A = np.empty((len(obs_lists), k, k))
    b = np.empty((len(obs_lists), k))
    for a, obs in enumerate(obs_lists):
        if len(obs):
            Yo = other[obs]
            A[a] = gram + alpha * (Yo.T @ Yo)
            b[a] = (1.0 + alpha) * Yo.sum(axis=0)
        else:
            A[a] = gram
            b[a] = 0.0
    return np.linalg.solve(A, b[..., None])[..., 0]


class TestWeightedALSHalf:
    K = 4
    # rows observing 0, 2, 3 (< K) and 4, 6 (>= K) columns, two rows per count
    COUNTS = (0, 2, 4, 3, 6, 0, 2, 3, 6, 4)

    def solve(self, alpha=40.0, reg=0.01):
        rng = np.random.default_rng(7)
        other = rng.standard_normal((9, self.K))
        obs_lists = [np.sort(rng.choice(9, size=c, replace=False)) for c in self.COUNTS]
        bounds = np.concatenate([[0], np.cumsum(self.COUNTS)])
        model = WeightedMF(ModelConfig("WMF", latent_size=self.K, confidence_alpha=alpha,
                                       regularization=reg))
        got = model._als_half(other, np.concatenate(obs_lists).astype(np.int64), bounds)
        return other, obs_lists, got

    def test_every_row_solves_its_normal_equations(self):
        alpha, reg = 40.0, 0.01
        other, obs_lists, got = self.solve(alpha, reg)
        gram = other.T @ other + reg * np.eye(self.K)
        for row, obs in zip(got, obs_lists):
            if len(obs) == 0:
                assert not row.any()
                continue
            Yo = other[obs]
            want = np.linalg.solve(gram + alpha * Yo.T @ Yo, (1.0 + alpha) * Yo.sum(axis=0))
            np.testing.assert_allclose(row, want, rtol=1e-9)

    def test_rows_with_at_least_k_observations_match_the_per_row_loop_bit_for_bit(self):
        other, obs_lists, got = self.solve()
        want = per_row_als_half(other, obs_lists, 40.0, 0.01)
        full = np.array(self.COUNTS) >= self.K
        assert got[full].tobytes() == want[full].tobytes()

    def test_a_singular_system_names_the_model_and_the_remedy(self):
        # three columns cannot span a 4-dimensional gram matrix without regularization
        model = WeightedMF(ModelConfig("WMF", latent_size=4, regularization=0.0))
        other = np.random.default_rng(0).standard_normal((3, 4))
        with pytest.raises(FitError, match="WMF4: singular .* --regularization > 0"):
            model._als_half(other, np.array([0, 1]), np.array([0, 2]))


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
