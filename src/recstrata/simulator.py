"""Paired closed-loop / open-loop feedback generation from a synthetic
ground truth.

The generator's rules are deliberately simple: Gaussian latent vectors
define a ground-truth affinity, each user's top quantile of items is
"relevant", and a configurable deployed policy chooses what gets exposed.
Closed-loop feedback inherits the policy's exposure skew; the open-loop
log exposes uniformly random items and serves as the unbiased reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Literal

import numpy as np

from .corpus import Dataset, LoopKind, Split, binarize, split_holdout
from .models import ModelConfig, fit as fit_model

Policy = Literal["popularity_biased", "trained_mf", "uniform_random"]
POLICIES = ("popularity_biased", "trained_mf", "uniform_random")


class SimConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    n_users: int = 200
    n_items: int = 100
    true_rank: int = 8
    exposure_budget: int = 10
    sessions: int = 3
    deployed_policy: str = "popularity_biased"
    policy_sharpness: float = 1.0
    open_budget: int | None = None  # items per user in the open round; defaults to exposure_budget
    interact_noise: float = 0.1
    relevance_quantile: float = 0.1
    split_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.n_items < 1 or self.true_rank < 1 or self.sessions < 1:
            raise SimConfigError("counts must be positive")
        if self.exposure_budget < 1 or self.exposure_budget > self.n_items:
            raise SimConfigError(
                f"exposure_budget {self.exposure_budget} outside [1, n_items={self.n_items}]"
            )
        if self.policy_sharpness <= 0.0:
            raise SimConfigError("policy_sharpness must be positive")
        if self.open_budget is not None and not 1 <= self.open_budget <= self.n_items:
            raise SimConfigError(
                f"open_budget {self.open_budget} outside [1, n_items={self.n_items}]"
            )
        if not 0.0 <= self.interact_noise <= 1.0:
            raise SimConfigError("interact_noise must lie in [0, 1]")
        if not 0.0 < self.relevance_quantile < 1.0:
            raise SimConfigError("relevance_quantile must lie in (0, 1)")
        if self.deployed_policy not in POLICIES:
            raise SimConfigError(f"unknown policy {self.deployed_policy!r}")


@dataclass(frozen=True)
class FeedbackLog:
    config: SimConfig
    closed_train: Dataset
    closed_test: Dataset
    open_test: Dataset
    exposure_counts: dict[str, int]
    users: list[str]
    items: list[str]
    relevance: np.ndarray  # (n_users, n_items) ground-truth boolean

    @property
    def closed_split(self) -> Split:
        return Split(train=self.closed_train, test=self.closed_test)

    @property
    def open_split(self) -> Split:
        return Split(train=self.closed_train, test=self.open_test)


@dataclass(frozen=True)
class SkewSummary:
    exposure_gini: float
    head_interaction_share: float
    exposure_interaction_spearman: float


def _labels(prefix: str, n: int) -> list[str]:
    width = max(5, len(str(n)))
    return [f"{prefix}{k:0{width}d}" for k in range(n)]


def _ratings_for(relevant: np.ndarray, rng: np.random.Generator, noise: float) -> np.ndarray:
    ratings = np.where(relevant, 5, 1)
    flip = rng.random(len(ratings)) < noise
    ratings = np.where(flip, 6 - ratings, ratings)
    return ratings


def _dataset(users: list[str], items: list[str], blocks: list, loop_kind: LoopKind) -> Dataset:
    """A log from (user id, item ids, ratings) blocks in generation order; a
    pair exposed more than once keeps its last rating."""
    u = np.concatenate([np.full(len(j), k) for k, j, _ in blocks])
    j = np.concatenate([j for _, j, _ in blocks])
    r = np.concatenate([r for _, _, r in blocks])
    return Dataset(users, items, u, j, r, np.zeros(len(r), dtype=bool), loop_kind)


def _bootstrap_mf_scores(config: SimConfig, relevance: np.ndarray,
                         users: list[str], items: list[str],
                         rng: np.random.Generator) -> np.ndarray:
    # fit a small MF on one round of uniform exposures; the deployed policy
    # then recommends its top-scored items
    blocks = []
    for u in range(config.n_users):
        exposed = rng.choice(config.n_items, size=config.exposure_budget, replace=False)
        blocks.append((u, exposed, _ratings_for(relevance[u, exposed], rng, config.interact_noise)))
    boot = _dataset(users, items, blocks, LoopKind.CLOSED)
    # a conservative learning rate: the bootstrap log can be tiny and SGD at
    # rating scale diverges on small dense blocks with a hotter step
    mf = fit_model(
        ModelConfig(algorithm="MF", latent_size=8, epochs=30, learning_rate=0.02,
                    seed=config.seed),
        boot,
    )
    return mf.score_matrix(users, items)


def generate(config: SimConfig) -> FeedbackLog:
    """Deterministically generate a closed-loop train/test pair plus an
    open-loop test set from one synthetic ground truth."""
    rng = np.random.default_rng(config.seed)
    users = _labels("u", config.n_users)
    items = _labels("i", config.n_items)

    user_latent = rng.standard_normal((config.n_users, config.true_rank))
    item_latent = rng.standard_normal((config.n_items, config.true_rank))
    affinity = user_latent @ item_latent.T
    n_rel = max(1, int(round(config.relevance_quantile * config.n_items)))
    relevance = np.zeros_like(affinity, dtype=bool)
    top = np.argpartition(-affinity, n_rel - 1, axis=1)[:, :n_rel]
    np.put_along_axis(relevance, top, True, axis=1)

    policy_scores = None
    if config.deployed_policy == "trained_mf":
        policy_scores = _bootstrap_mf_scores(config, relevance, users, items, rng)
        policy_top = np.argsort(-policy_scores, axis=1)[:, : config.exposure_budget]

    exposure = np.zeros(config.n_items, dtype=np.int64)
    interaction_counts = np.zeros(config.n_items, dtype=np.int64)
    closed = []
    for _session in range(config.sessions):
        for u in range(config.n_users):
            if config.deployed_policy == "uniform_random":
                exposed = rng.choice(config.n_items, size=config.exposure_budget, replace=False)
            elif config.deployed_policy == "popularity_biased":
                # sharpness > 1 makes the rich-get-richer loop super-linear,
                # concentrating exposure on a handful of head items
                w = (interaction_counts + 1.0) ** config.policy_sharpness
                exposed = rng.choice(
                    config.n_items, size=config.exposure_budget, replace=False, p=w / w.sum()
                )
            else:
                exposed = policy_top[u]
            exposure[exposed] += 1
            ratings = _ratings_for(relevance[u, exposed], rng, config.interact_noise)
            closed.append((u, exposed, ratings))
            interaction_counts[exposed] += 1

    closed_ds = binarize(_dataset(users, items, closed, LoopKind.CLOSED))
    split = split_holdout(closed_ds, ratio=config.split_ratio, seed=config.seed)

    opened = []
    open_budget = config.open_budget or config.exposure_budget
    for u in range(config.n_users):
        exposed = rng.choice(config.n_items, size=open_budget, replace=False)
        opened.append((u, exposed, _ratings_for(relevance[u, exposed], rng, config.interact_noise)))
    open_ds = binarize(_dataset(users, items, opened, LoopKind.OPEN))

    return FeedbackLog(
        config=config,
        closed_train=split.train,
        closed_test=split.test,
        open_test=open_ds,
        exposure_counts={items[j]: int(exposure[j]) for j in range(config.n_items)},
        users=users,
        items=items,
        relevance=relevance,
    )


def gini(values) -> float:
    """Gini coefficient of a nonnegative sample; 0 for a uniform sample."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    total = v.sum()
    if n == 0 or total == 0.0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.dot(ranks, v)) / (n * total) - (n + 1.0) / n)


def audit_skew(log: FeedbackLog) -> SkewSummary:
    """Quantify how strongly closed-loop feedback follows the deployed
    policy's exposure pattern."""
    exposure = np.array([log.exposure_counts[i] for i in log.items], dtype=np.float64)
    if exposure.sum() == 0:
        return SkewSummary(0.0, 0.0, 0.0)
    train, test = log.closed_train.item_counts, log.closed_test.item_counts
    counts = np.array([train.get(i, 0) + test.get(i, 0) for i in log.items], dtype=np.float64)
    n_head = max(1, math.ceil(0.01 * len(log.items)))
    head = np.argsort(-exposure)[:n_head]
    total = counts.sum()
    share = float(counts[head].sum() / total) if total else 0.0
    rho = _spearman(exposure, counts)
    return SkewSummary(
        exposure_gini=gini(exposure),
        head_interaction_share=share,
        exposure_interaction_spearman=rho if math.isfinite(rho) else 0.0,
    )


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho with ties given their average rank; nan when either
    input is constant (a single value included). Bit-identical to
    scipy.stats.spearmanr's statistic, whose correlation is element [1, 0]."""
    if np.all(a == a[0]) or np.all(b == b[0]):
        return math.nan
    return float(np.corrcoef(_average_ranks(a), _average_ranks(b))[1, 0])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]
