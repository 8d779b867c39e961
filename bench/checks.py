"""Correctness checks on the program's outputs.

Each check either recomputes a value apart from the program (numpy,
scipy) or tests a property the method must have, and raises CheckError on
the first violation.  The loaders read the program's output formats.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
from scipy.stats import kendalltau

TOL = 1e-12
RELEVANT_RATING = 4  # the CLI's and the simulator's binarization threshold


class CheckError(AssertionError):
    pass


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_log(path: Path, delimiter: str = ",") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, ratings) of a `user,item,rating` file."""
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split(delimiter) for line in f if line.strip()]
    users = np.array([r[0] for r in rows])
    items = np.array([r[1] for r in rows])
    ratings = np.array([int(r[2]) for r in rows], dtype=np.int64)
    return users, items, ratings


def read_strata(path: Path) -> dict[str, int]:
    """item -> stratum from `stratify` output (`item,count,score,stratum`)."""
    with open(path, encoding="utf-8") as f:
        return {p[0]: int(p[3]) for p in (line.strip().split(",") for line in f
                                           if line.strip() and not line.startswith("#"))}


def read_propensities(path: Path) -> list[tuple[str, int, float]]:
    with open(path, encoding="utf-8") as f:
        return [(p[0], int(p[1]), float(p[2])) for p in (line.strip().split(",") for line in f
                                                        if line.strip() and not line.startswith("#"))]


def _find(records: list[dict], model: str, method: str, cutoff) -> dict:
    for rec in records:
        if rec["model"] == model and rec["method"] == method and rec.get("cutoff") == cutoff:
            return rec
    raise CheckError(f"no {method} record for {model} at cutoff {cutoff}")


def pop_holdout_ndcg(train, test, cutoff: int) -> float:
    """Holdout nDCG@cutoff of the popularity model, recomputed from the logs.

    Candidates are the train and test items; each user's own train items are
    dropped; the order is train count desc, then item id asc.  A relevant
    test item is one rated >= 4; users without one are skipped.
    """
    t_users, t_items, _ = train
    s_users, s_items, s_ratings = test
    items = np.union1d(t_items, s_items)
    users = np.union1d(t_users, s_users)
    n = len(items)
    t_item, t_user = np.searchsorted(items, t_items), np.searchsorted(users, t_users)
    count = np.bincount(t_item, minlength=n)
    pos = np.empty(n, dtype=np.int64)
    pos[np.lexsort((np.arange(n), -count))] = np.arange(n)
    own = np.sort(t_user * n + pos[t_item])  # (user, position) of every train pair

    rel = s_ratings >= RELEVANT_RATING
    r_user = np.searchsorted(users, s_users[rel])
    r_pos = pos[np.searchsorted(items, s_items[rel])]
    key = r_user * n + r_pos
    ahead = np.searchsorted(own, key) - np.searchsorted(own, r_user * n)
    excluded = np.searchsorted(own, key, side="right") > np.searchsorted(own, key)
    rank = r_pos + 1 - ahead
    gain = np.where(~excluded & (rank <= cutoff), 1.0 / np.log2(rank + 1.0), 0.0)
    dcg = np.bincount(r_user, weights=gain, minlength=len(users))
    n_rel = np.bincount(r_user, minlength=len(users))
    scored = n_rel > 0
    ideal = np.cumsum(1.0 / np.log2(np.arange(2, cutoff + 2)))
    return float(np.mean(dcg[scored] / ideal[np.minimum(n_rel[scored], cutoff) - 1]))


def check_pop_holdout(records: list[dict], train, test, cutoff: int = 10) -> None:
    reported = _find(records, "POP", "holdout", cutoff)["overall"]
    expected = pop_holdout_ndcg(train, test, cutoff)
    if abs(reported - expected) > TOL:
        raise CheckError(f"POP holdout nDCG@{cutoff} {reported!r} != recomputed {expected!r}")


def _scores(records: list[dict], method: str, cutoff, K=None) -> dict[str, float]:
    return {r["model"]: r["overall"] for r in records
            if r["method"] == method and r.get("cutoff") == cutoff
            and (K is None or r.get("K") in (None, K))}


BASELINE = "holdout"  # the closed baseline every method is compared beside
MIN_MODELS = 4  # cli.cmd_compare skips a group with fewer common models


def check_tau(corr: list[dict], closed: list[dict], open_: list[dict]) -> None:
    """Every closed method is compared with the open-loop holdout, and each
    tau-b matches scipy's."""
    expected = set()
    for cutoff in {r.get("cutoff") for r in closed}:
        for method, K in {(r["method"], r.get("K")) for r in closed
                          if r.get("cutoff") == cutoff and r["method"] != BASELINE}:
            common = (set(_scores(open_, "holdout", cutoff)) & set(_scores(closed, BASELINE, cutoff))
                      & set(_scores(closed, method, cutoff, K)))
            if len(common) >= MIN_MODELS:
                expected.add((cutoff, method, K))
    got = {(r["cutoff"], r["method"], r["K"]) for r in corr}
    if got != expected:
        raise CheckError(f"compared groups {sorted(got, key=str)} != expected {sorted(expected, key=str)}")
    for row in corr:
        cutoff, method, K = row["cutoff"], row["method"], row["K"]
        x, y, z = (_scores(open_, "holdout", cutoff), _scores(closed, BASELINE, cutoff),
                   _scores(closed, method, cutoff, K))
        labels = sorted(set(x) & set(y) & set(z))
        x, y, z = ([s[m] for m in labels] for s in (x, y, z))
        for key, a, b in (("tau_open_baseline", x, y), ("tau_open_method", x, z),
                          ("tau_baseline_method", y, z)):
            tau = kendalltau(a, b, variant="b").statistic
            if not abs(row[key] - tau) <= TOL:
                raise CheckError(f"{key} for {method} K={K} cutoff={cutoff}: {row[key]!r} != scipy {tau!r}")


def check_k1_equals_holdout(records: list[dict]) -> None:
    """Stratified at K=1 is holdout, bit for bit, for every model and cutoff."""
    pairs = [(r, _find(records, r["model"], "holdout", r.get("cutoff"))) for r in records
             if r["method"] == "stratified" and r.get("K") == 1]
    if not pairs:
        raise CheckError("no stratified K=1 records")
    for strat, hold in pairs:
        if strat["overall"] != hold["overall"]:
            raise CheckError(f"{strat['model']} cutoff {strat.get('cutoff')}: stratified K=1 "
                             f"{strat['overall']!r} != holdout {hold['overall']!r}")


def check_ips_ge_holdout(records: list[dict]) -> None:
    """IPS >= holdout for every model and cutoff: every propensity is <= 1."""
    pairs = [(r, _find(records, r["model"], "holdout", r.get("cutoff"))) for r in records
             if r["method"] == "ips"]
    if not pairs:
        raise CheckError("no ips records")
    for ips, hold in pairs:
        if not ips["overall"] >= hold["overall"]:
            raise CheckError(f"{ips['model']} cutoff {ips.get('cutoff')}: ips {ips['overall']!r} "
                             f"< holdout {hold['overall']!r}")


def check_strata_weights(records: list[dict], K: int, stratum_of: dict[str, int],
                         test_items) -> None:
    """Each stratum's weight is its share of the test interactions, and the
    stratified value is the weighted sum of the per-stratum values."""
    counts = np.zeros(K + 1, dtype=np.int64)
    for item in test_items:
        counts[stratum_of[item]] += 1
    total = int(counts.sum())
    chosen = [r for r in records if r["method"] == "stratified" and r.get("K") == K]
    if not chosen:
        raise CheckError(f"no stratified K={K} records")
    for rec in chosen:
        per = rec["per_stratum"]
        if sorted(per, key=int) != [str(s) for s in range(1, K + 1)]:
            raise CheckError(f"{rec['model']}: strata {sorted(per)} for K={K}")
        combined = 0.0
        for s in range(1, K + 1):
            entry = per[str(s)]
            if abs(entry["weight"] - counts[s] / total) > TOL:
                raise CheckError(f"{rec['model']} K={K} stratum {s}: weight {entry['weight']!r} "
                                 f"!= recounted {counts[s] / total!r}")
            if entry["value"] is not None:
                combined += entry["value"] * entry["weight"]
        if abs(combined - rec["overall"]) > TOL:
            raise CheckError(f"{rec['model']} K={K}: overall {rec['overall']!r} != weighted "
                             f"stratum sum {combined!r}")


def check_propensities(rows: list[tuple[str, int, float]]) -> None:
    """The largest propensity is exactly 1 and propensity never falls as the
    item count rises."""
    if not rows:
        raise CheckError("empty propensity table")
    if max(score for _, _, score in rows) != 1.0:
        raise CheckError(f"max propensity {max(s for _, _, s in rows)!r} != 1")
    ordered = sorted(rows, key=lambda r: (r[1], r[2]))
    for (item_a, count_a, a), (item_b, count_b, b) in zip(ordered, ordered[1:]):
        if b < a or (count_a == count_b and a != b):
            raise CheckError(f"propensity of {item_b} (count {count_b}) {b!r} vs "
                             f"{item_a} (count {count_a}) {a!r}")


INGEST_SUMMARY = re.compile(r"(\d+) users, (\d+) items, (\d+) interactions")


def check_ingest(stdout: str, out_path: Path, expected: dict) -> None:
    """`ingest` reports the users, items and rows written, and keeps every
    rating >= 4 as relevant."""
    match = INGEST_SUMMARY.search(stdout)
    if match is None:
        raise CheckError(f"no ingest summary in {stdout!r}")
    got = dict(zip(("users", "items", "rows"), map(int, match.groups())))
    got["relevant"] = int(np.sum(read_log(out_path)[2] >= RELEVANT_RATING))
    if got != expected:
        raise CheckError(f"ingest counts {got} != written {expected}")
