"""Recommender roster with a uniform fit/score interface.

Six algorithms spanning distinct behavioural classes: random (BO), constant
(GA), popularity (POP), pointwise rating factorization (MF), pairwise
ranking factorization (BPR) and confidence-weighted implicit ALS (WMF).
All models are deterministic for a fixed (config, train) pair; unknown
users fall back to train popularity scores and items unseen at training
time score 0.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, asdict, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Dataset

ALGORITHMS = ("BO", "GA", "POP", "MF", "BPR", "WMF")
BASELINE_ALGORITHMS = ("BO", "GA", "POP")  # no latent-size hyperparameter
MODEL_FORMAT_VERSION = 1


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    algorithm: str
    latent_size: int = 10
    learning_rate: float = 0.01
    epochs: int = 100
    regularization: float = 0.01
    confidence_alpha: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.latent_size < 1 or self.epochs < 1:
            raise ValueError("latent_size and epochs must be positive")
        if self.learning_rate <= 0 or self.regularization < 0 or self.confidence_alpha <= 0:
            raise ValueError("invalid hyperparameter value")

    @property
    def label(self) -> str:
        if self.algorithm in BASELINE_ALGORITHMS:
            return self.algorithm
        return f"{self.algorithm}{self.latent_size}"


class Recommender:
    """Base estimator: fit(train) -> self, then score/score_array/score_matrix."""

    def __init__(self, config: ModelConfig):
        self.config = config

    def get_params(self) -> dict:
        return asdict(self.config)

    @property
    def label(self) -> str:
        return self.config.label

    def fit(self, train: Dataset) -> "Recommender":
        if len(train) == 0:
            raise FitError(f"{self.label}: empty training dataset")
        self.user_index_ = train.user_index
        self.item_index_ = train.item_index
        self._pop = np.bincount(train.item_ids, minlength=len(train.items)).astype(np.float64)
        self._fit(train)
        return self

    def _fit(self, train: Dataset) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _user_scores(self, user: str) -> np.ndarray:
        """Scores over self.item_index_ for a known or unknown user."""
        raise NotImplementedError

    def _cold_scores(self) -> np.ndarray:
        return self._pop.copy()

    def score(self, user: str) -> dict[str, float]:
        self._check_fitted()
        return dict(zip(self.item_index_, self._user_scores(user).tolist()))

    def score_array(self, user: str, items: Sequence[str]) -> np.ndarray:
        """Scores aligned to an arbitrary item list; unseen items score 0."""
        self._check_fitted()
        base = self._user_scores(user)
        idx = self._item_alignment(tuple(items))
        out = np.zeros(len(items), dtype=np.float64)
        known = idx >= 0
        out[known] = base[idx[known]]
        return out

    def score_matrix(self, users: Sequence[str], items: Sequence[str]) -> np.ndarray:
        return np.stack([self.score_array(u, items) for u in users])

    def _item_alignment(self, items: tuple[str, ...]) -> np.ndarray:
        cached = getattr(self, "_align_cache", None)
        if cached is not None and cached[0] == items:
            return cached[1]
        idx = np.array([self.item_index_.get(i, -1) for i in items], dtype=np.int64)
        self._align_cache = (items, idx)
        return idx

    def _check_fitted(self) -> None:
        if not hasattr(self, "item_index_"):
            raise FitError(f"{self.label}: model is not fitted")

    def _check_finite(self, arrays: Iterable[np.ndarray], epoch: int) -> None:
        for a in arrays:
            if not np.all(np.isfinite(a)):
                raise FitError(f"{self.label}: non-finite parameters at epoch {epoch}")


class RandomScorer(Recommender):
    """BO: a seeded random permutation of the items for every user."""

    def _fit(self, train: Dataset) -> None:
        pass

    def _hash_scores(self, user: str, items: Sequence[str]) -> np.ndarray:
        seed = self.config.seed
        return np.array(
            [zlib.crc32(f"{seed}|{user}|{i}".encode()) for i in items], dtype=np.float64
        ) / 2.0**32

    def _user_scores(self, user: str) -> np.ndarray:
        return self._hash_scores(user, self.item_index_)

    def score_array(self, user: str, items: Sequence[str]) -> np.ndarray:
        self._check_fitted()
        return self._hash_scores(user, items)


class GlobalAverage(Recommender):
    """GA: every item scores the global average rating."""

    def _fit(self, train: Dataset) -> None:
        self.mean_ = float(np.mean(train.ratings))

    def _user_scores(self, user: str) -> np.ndarray:
        return np.full(len(self.item_index_), self.mean_)

    def score_array(self, user: str, items: Sequence[str]) -> np.ndarray:
        self._check_fitted()
        return np.full(len(items), self.mean_)


class Popularity(Recommender):
    """POP: score equals the item's train interaction count."""

    def _fit(self, train: Dataset) -> None:
        pass

    def _user_scores(self, user: str) -> np.ndarray:
        return self._pop.copy()


class _FactorModel(Recommender):
    """Shared scoring for latent-factor models (user/item matrices + biases)."""

    def _user_scores(self, user: str) -> np.ndarray:
        uid = self.user_index_.get(user)
        if uid is None:
            return self._cold_scores()
        return self._score_uid(uid)

    def _score_uid(self, uid: int) -> np.ndarray:
        raise NotImplementedError

    def _init_factors(self, rng: np.random.Generator, n_users: int, n_items: int):
        k = self.config.latent_size
        scale = 0.1 / np.sqrt(k)
        P = scale * rng.standard_normal((n_users, k))
        Q = scale * rng.standard_normal((n_items, k))
        return P, Q


def _add_rows(A: np.ndarray, rows: np.ndarray, V: np.ndarray) -> None:
    """`np.add.at(A, rows, V)` on a C-contiguous `A` through numpy's faster 1-D loop;
    each element takes its updates in the same order, so the result is bit-identical."""
    k = A.shape[1]
    np.add.at(A.reshape(-1), (rows[:, None] * k + np.arange(k)).ravel(), V.ravel())


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of `keys` occurs in the nonempty sorted array `sorted_keys`."""
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


class MatrixFactorization(_FactorModel):
    """MF: biased matrix factorization trained by SGD on observed ratings."""

    def _fit(self, train: Dataset) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        u = train.user_ids
        i = train.item_ids
        r = train.ratings
        nu, ni = len(train.user_index), len(train.item_index)
        P, Q = self._init_factors(rng, nu, ni)
        bu = np.zeros(nu)
        bi = np.zeros(ni)
        mu = float(r.mean())
        lr, reg = cfg.learning_rate, cfg.regularization
        n = len(r)
        batch = 1024
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            for s in range(0, n, batch):
                sel = perm[s : s + batch]
                ub, ib, rb = u[sel], i[sel], r[sel]
                Pu, Qi = P[ub], Q[ib]
                err = rb - (mu + bu[ub] + bi[ib] + np.einsum("nk,nk->n", Pu, Qi))
                np.add.at(bu, ub, lr * (err - reg * bu[ub]))
                np.add.at(bi, ib, lr * (err - reg * bi[ib]))
                _add_rows(P, ub, lr * (err[:, None] * Qi - reg * Pu))
                _add_rows(Q, ib, lr * (err[:, None] * Pu - reg * Qi))
            self._check_finite((P, Q, bu, bi), epoch)
        self.mu_, self.bu_, self.bi_, self.P_, self.Q_ = mu, bu, bi, P, Q

    def _score_uid(self, uid: int) -> np.ndarray:
        return self.mu_ + self.bu_[uid] + self.bi_ + self.P_[uid] @ self.Q_.T


class BPR(_FactorModel):
    """BPR: pairwise logistic ranking with uniform negative sampling,
    negatives resampled every epoch."""

    def _fit(self, train: Dataset) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        u = train.user_ids
        i = train.item_ids
        nu, ni = len(train.user_index), len(train.item_index)
        if ni < 2:
            raise FitError(f"{self.label}: need at least 2 items for negative sampling")
        P, Q = self._init_factors(rng, nu, ni)
        bi = np.zeros(ni)
        # the rows come in (user, item) order, so their keys u * ni + i are sorted
        row_key = u * ni
        keys = row_key + i
        lr, reg = cfg.learning_rate, cfg.regularization
        n = len(u)
        batch = 1024
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            neg = rng.integers(0, ni, size=n)
            # redraw the negatives that are positives, in row order, until none
            # is; only a redrawn row can still be one
            redraw = np.flatnonzero(_member(keys, row_key + neg))
            while len(redraw):
                neg[redraw] = rng.integers(0, ni, size=len(redraw))
                redraw = redraw[_member(keys, row_key[redraw] + neg[redraw])]
            for s in range(0, n, batch):
                sel = perm[s : s + batch]
                ub, ib, jb = u[sel], i[sel], neg[sel]
                Pu, Qi, Qj = P[ub], Q[ib], Q[jb]
                x = bi[ib] - bi[jb] + np.einsum("nk,nk->n", Pu, Qi - Qj)
                g = 1.0 / (1.0 + np.exp(x))  # d/dx of -ln(sigmoid(x)), negated
                _add_rows(P, ub, lr * (g[:, None] * (Qi - Qj) - reg * Pu))
                _add_rows(Q, ib, lr * (g[:, None] * Pu - reg * Qi))
                _add_rows(Q, jb, lr * (-g[:, None] * Pu - reg * Qj))
                np.add.at(bi, ib, lr * (g - reg * bi[ib]))
                np.add.at(bi, jb, lr * (-g - reg * bi[jb]))
            self._check_finite((P, Q, bi), epoch)
        self.P_, self.Q_, self.bi_ = P, Q, bi

    def _score_uid(self, uid: int) -> np.ndarray:
        return self.bi_ + self.P_[uid] @ self.Q_.T


class WeightedMF(_FactorModel):
    """WMF: implicit-feedback alternating least squares (Hu, Koren & Volinsky,
    ICDM 2008) with confidence 1 + alpha on observed preferences and 1 elsewhere.

    A half-step holds the other side's factors Y fixed and, for each row with
    L observed columns Yo, solves (G + alpha Yo^T Yo) x = (1 + alpha) Yo^T 1,
    where G = Y^T Y + reg I. Rows are solved in batches of equal L. A row with
    L >= k solves that k x k system. A row with L < k solves the same problem
    in L x L by the push-through identity: x = (1 + alpha) Zo^T (I + alpha
    Zo Yo^T)^-1 1, where Z = Y G^-1. A row with no observations is 0.
    """

    def _fit(self, train: Dataset) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        u = train.user_ids
        i = train.item_ids
        nu, ni = len(train.user_index), len(train.item_index)
        X, Y = self._init_factors(rng, nu, ni)
        # each user's items are one slice of the sorted rows; each item's
        # users, in row order, one slice of the rows stably sorted by item
        order = np.argsort(i, kind="stable")
        users_by_item = u[order]
        item_bounds = np.searchsorted(i[order], np.arange(ni + 1))
        for epoch in range(cfg.epochs):
            X = self._als_half(Y, i, train.user_bounds)
            Y = self._als_half(X, users_by_item, item_bounds)
            self._check_finite((X, Y), epoch)
        self.X_, self.Y_ = X, Y

    def _als_half(self, other: np.ndarray, obs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """One factor row per slice `bounds[r]:bounds[r + 1]` of `obs`, the
        rows of `other` that row r observed."""
        alpha, reg = self.config.confidence_alpha, self.config.regularization
        k = other.shape[1]
        gram = other.T @ other + reg * np.eye(k)
        counts = np.diff(bounds)
        out = np.zeros((len(counts), k))
        Z = None
        try:
            for L in np.unique(counts[counts > 0]).tolist():
                rows = np.flatnonzero(counts == L)
                cols = obs[bounds[rows, None] + np.arange(L)]
                Yo = other[cols]
                if L >= k:
                    A = gram + alpha * (Yo.transpose(0, 2, 1) @ Yo)
                    b = (1.0 + alpha) * Yo.sum(axis=1)
                    out[rows] = np.linalg.solve(A, b[..., None])[..., 0]
                else:
                    if Z is None:  # other @ inv(gram), as gram is symmetric
                        Z = np.linalg.solve(gram, other.T).T
                    Zo = Z[cols]
                    M = np.eye(L) + alpha * (Zo @ Yo.transpose(0, 2, 1))
                    w = np.linalg.solve(M, np.ones((len(rows), L, 1)))
                    out[rows] = (1.0 + alpha) * (Zo.transpose(0, 2, 1) @ w)[..., 0]
        except np.linalg.LinAlgError as e:
            raise FitError(
                f"{self.label}: singular least-squares system at regularization {reg} "
                f"({e}); use --regularization > 0"
            ) from e
        return out

    def _score_uid(self, uid: int) -> np.ndarray:
        return self.X_[uid] @ self.Y_.T


_CLASSES = {
    "BO": RandomScorer,
    "GA": GlobalAverage,
    "POP": Popularity,
    "MF": MatrixFactorization,
    "BPR": BPR,
    "WMF": WeightedMF,
}


def fit(config: ModelConfig, train: Dataset) -> Recommender:
    return _CLASSES[config.algorithm](config).fit(train)


def sweep(
    algorithms: Iterable[str],
    latent_sizes: Sequence[int],
    train: Dataset,
    config: ModelConfig | None = None,
) -> list[Recommender]:
    """One trained model per (algorithm, applicable latent size); baselines
    without a latent hyperparameter appear once each. Canonical output order:
    algorithm name, then latent size."""
    base = config or ModelConfig(algorithm="POP")
    out: list[Recommender] = []
    for alg in sorted(set(algorithms)):
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r}")
        sizes = [base.latent_size] if alg in BASELINE_ALGORITHMS else list(latent_sizes)
        if alg in BASELINE_ALGORITHMS:
            configs = [replace(base, algorithm=alg)]
        else:
            configs = [replace(base, algorithm=alg, latent_size=m) for m in sizes]
        for cfg in configs:
            try:
                out.append(fit(cfg, train))
            except FitError as e:
                raise FitError(f"sweep failed for {cfg.label}: {e}") from e
    return out


def save_model(model: Recommender, path: str) -> None:
    """Versioned npz container: config plus whatever arrays the model holds."""
    model._check_fitted()
    arrays = {
        name: getattr(model, name)
        for name in ("mu_", "bu_", "bi_", "P_", "Q_", "X_", "Y_", "mean_")
        if hasattr(model, name)
    }
    np.savez(
        path,
        format_version=MODEL_FORMAT_VERSION,
        config=json.dumps(model.get_params()),
        users=np.array(list(model.user_index_)),
        items=np.array(list(model.item_index_)),
        popularity=model._pop,
        **{k: np.asarray(v) for k, v in arrays.items()},
    )


def load_model(path: str) -> Recommender:
    data = np.load(path, allow_pickle=False)
    version = int(data["format_version"])
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    config = ModelConfig(**json.loads(str(data["config"])))
    model = _CLASSES[config.algorithm](config)
    model.user_index_ = {str(x): k for k, x in enumerate(data["users"])}
    model.item_index_ = {str(x): k for k, x in enumerate(data["items"])}
    model._pop = data["popularity"]
    for name in ("mu_", "bu_", "bi_", "P_", "Q_", "X_", "Y_", "mean_"):
        if name in data:
            value = data[name]
            setattr(model, name, float(value) if value.ndim == 0 else value)
    return model
