"""Workload inputs, made from the benchmark's seed (or from no seed at all,
for the counted failing operation).  The program only sees these files."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CLI_SWEEP_USERS = 150
CLI_SWEEP_ITEMS = 500
PAPER_ITEMS = 1000
PAPER_MAX_USERS = 15400  # Yahoo! R3
PAPER_USERS_PER_SECOND = 6
CLOSED_PER_USER = (15, 25)  # closed ratings per user, inclusive range (mean 20)
OPEN_PER_USER = 10


def write_sim_config(path: Path, seed: int) -> None:
    """Criterion-08-shaped simulation (popularity-biased, 3 sessions of 10)."""
    path.write_text(json.dumps({
        "n_users": CLI_SWEEP_USERS, "n_items": CLI_SWEEP_ITEMS, "exposure_budget": 10,
        "sessions": 3, "deployed_policy": "popularity_biased", "seed": seed}))


def write_train_only_case(directory: Path) -> tuple[Path, Path]:
    """A closed train/test pair, the same on every run, whose test holds an
    item that never occurs in train: the README's `propensity --train`
    followed by `evaluate --methods ips` cannot score it."""
    rng = np.random.default_rng(0)
    directory.mkdir(parents=True, exist_ok=True)
    train, test = directory / "closed_train.csv", directory / "closed_test.csv"
    with open(train, "w", encoding="utf-8") as ftrain, open(test, "w", encoding="utf-8") as ftest:
        for u in range(40):
            items = rng.choice(29, size=8, replace=False)
            for j in items[:6]:
                ftrain.write(f"u{u:03d},i{j:03d},{rng.choice((1, 5))}\n")
            for j in items[6:]:
                ftest.write(f"u{u:03d},i{j:03d},{rng.choice((1, 5))}\n")
            if u % 4 == 0:
                ftest.write(f"u{u:03d},i029,5\n")
    return train, test


def paper_users(seconds: int) -> int:
    return min(PAPER_MAX_USERS, PAPER_USERS_PER_SECOND * seconds)


def _ratings(rng, user_f, item_f, quality, users, items, bias):
    affinity = np.einsum("nk,nk->n", user_f[users], item_f[items]) + quality[items]
    noisy = affinity + bias + 0.5 * rng.standard_normal(len(users))
    return np.digitize(noisy, (-1.0, 0.0, 0.8, 1.6)) + 1


def write_paper_logs(directory: Path, seed: int, n_users: int) -> dict[str, dict]:
    """Yahoo!-R3-shaped raw rating files (tab-separated `user item rating`,
    integer ids from 1, ratings 1..5).

    Closed ratings follow a Zipf-like exposure over the items and a
    self-selection bias toward liked items; each user's closed ratings are
    split 80/20 into closed train and closed test.  The open test rates 10
    uniformly random items per user.  Returns, per file, the counts `ingest`
    must report.
    """
    rng = np.random.default_rng(seed)
    n_items = PAPER_ITEMS
    user_f = rng.standard_normal((n_users, 8)) / np.sqrt(8)
    item_f = rng.standard_normal((n_items, 8)) / np.sqrt(8)
    quality = 0.5 * rng.standard_normal(n_items)
    log_exposure = -np.log1p(rng.permutation(n_items))  # Zipf(1) over a random item order

    rows = {"closed_train": [], "closed_test": [], "open_test": []}
    lo, hi = CLOSED_PER_USER
    for first in range(0, n_users, 2000):
        users = np.arange(first, min(first + 2000, n_users))
        # Gumbel top-k: k items per user without replacement, p ~ exposure
        keys = log_exposure + rng.gumbel(size=(len(users), n_items))
        order = np.argsort(-keys, axis=1)
        k = rng.integers(lo, hi + 1, size=len(users))
        for row, u in enumerate(users):
            closed = order[row, : k[row]]
            n_test = max(1, int(round(0.2 * k[row])))
            rows["closed_test"].append((np.full(n_test, u), closed[:n_test]))
            rows["closed_train"].append((np.full(k[row] - n_test, u), closed[n_test:]))
            rows["open_test"].append(
                (np.full(OPEN_PER_USER, u), rng.choice(n_items, OPEN_PER_USER, replace=False)))

    directory.mkdir(parents=True, exist_ok=True)
    expected = {}
    for name, parts in rows.items():
        users = np.concatenate([p[0] for p in parts])
        items = np.concatenate([p[1] for p in parts])
        bias = 0.0 if name == "open_test" else 0.7
        ratings = _ratings(rng, user_f, item_f, quality, users, items, bias)
        with open(directory / f"{name}.tsv", "w", encoding="utf-8") as f:
            f.writelines(f"{u + 1}\t{i + 1}\t{r}\n" for u, i, r in zip(
                users.tolist(), items.tolist(), ratings.tolist()))
        expected[name] = {"users": len(np.unique(users)), "items": len(np.unique(items)),
                          "rows": len(users), "relevant": int(np.sum(ratings >= 4))}
    return expected
