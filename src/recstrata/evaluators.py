"""Effectiveness estimators over per-user rankings.

Three estimators share one per-item credit scale (discounted gain divided by
the user's ideal DCG) so their outputs are directly comparable:

* holdout: mean per-user nDCG over the test split;
* ips: each item's credit is reweighted by its inverse propensity, so unit
  propensities reproduce the holdout value exactly;
* stratified: per-stratum conditional means recombined by the strata's
  feedback weights (the marginalization over the confounder).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import Dataset
from .metrics import MetricSpec, ndcg
from .propensity import COVERAGE_HINT, PropensityTable
from .strata import StrataAssignment, StratumWeights, stratum_weights

# a ranking: the 1-based rank of each of one user's test items
Ranking = Mapping[str, int]


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class StratumResult:
    value: float | None
    weight: float
    user_count: int
    interaction_count: int

    @property
    def low_support(self) -> bool:
        return self.user_count <= 1


@dataclass(frozen=True)
class EvalReport:
    method: str
    overall: float
    per_user: dict[str, float | None]
    per_stratum: dict[int, StratumResult] | None = None
    strata_K: int | None = None


def _relevant_by_user(test: Dataset) -> dict[str, list[str]]:
    """Each test user's relevant test items, users and items in sorted order."""
    rows = np.flatnonzero(test.relevant)
    items = [test.items[i] for i in test.item_ids[rows].tolist()]
    cuts = np.searchsorted(rows, test.user_bounds).tolist()  # each user's relevant rows
    return {u: items[a:b] for u, a, b in zip(test.users, cuts, cuts[1:])}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _mean_defined(per_user: Mapping[str, float | None], method: str) -> float:
    defined = [v for u, v in sorted(per_user.items()) if v is not None]
    if not defined:
        raise EvaluationError(f"{method}: no user has a defined metric value")
    return _mean(defined)


def _require_rankings(rankings: Mapping[str, Ranking], test: Dataset) -> None:
    missing = [u for u in test.users if u not in rankings]
    if missing:
        raise EvaluationError(f"missing rankings for {len(missing)} test users (e.g. {missing[0]!r})")


def holdout_eval(
    rankings: Mapping[str, Ranking], test: Dataset, spec: MetricSpec
) -> EvalReport:
    """Mean per-user metric over the holdout test set; users with no relevant
    test item are skipped."""
    _require_rankings(rankings, test)
    relevant = _relevant_by_user(test)
    per_user = {u: ndcg(rankings[u], items, spec) for u, items in relevant.items()}
    overall = _mean_defined(per_user, "holdout")
    return EvalReport(method="holdout", overall=overall, per_user=per_user)


def ips_eval(
    rankings: Mapping[str, Ranking],
    test: Dataset,
    propensities: PropensityTable,
    spec: MetricSpec,
) -> EvalReport:
    """Inverse-propensity-weighted estimator: each relevant item's credit is
    divided by its propensity. With all propensities equal to 1 this equals
    holdout_eval exactly."""
    _require_rankings(rankings, test)
    scores = propensities.scores
    for item in test.items:
        p = scores.get(item)
        if p is None:
            raise EvaluationError(f"no propensity for test item {item!r}; {COVERAGE_HINT}")
        if p <= 0.0:
            raise EvaluationError(f"non-positive propensity for item {item!r}")
    relevant = _relevant_by_user(test)
    per_user = {u: ndcg(rankings[u], items, spec, scores) for u, items in relevant.items()}
    overall = _mean_defined(per_user, "ips")
    return EvalReport(method="ips", overall=overall, per_user=per_user)


def per_stratum_eval(
    rankings: Mapping[str, Ranking],
    test: Dataset,
    assignment: StrataAssignment,
    spec: MetricSpec,
) -> dict[int, StratumResult]:
    """Conditional per-stratum metric values.

    Rankings stay over the full candidate set; only the credited relevant
    items are restricted to the stratum. A user contributes to a stratum's
    mean only when they have at least one relevant test item there.
    Weights are filled in by stratified_eval; here they are reported as the
    stratum's share of all test interactions, from stratum_weights.
    """
    _require_rankings(rankings, test)
    weights = stratum_weights(assignment, test)
    values: dict[int, list[float]] = {s: [] for s in weights.weights}
    # users in sorted order, so each stratum's mean adds its values in that order
    for u, items in _relevant_by_user(test).items():
        by_stratum: dict[int, list[str]] = {}
        for item in items:
            by_stratum.setdefault(assignment.stratum_of[item], []).append(item)
        for s, these in by_stratum.items():
            values[s].append(ndcg(rankings[u], these, spec))
    return {
        s: StratumResult(
            value=_mean(v) if v else None,
            weight=weights.weights[s],
            user_count=len(v),
            interaction_count=weights.counts[s],
        )
        for s, v in values.items()
    }


def stratified_eval(
    per_stratum: Mapping[int, StratumResult | float],
    weights: StratumWeights,
    spec: MetricSpec = MetricSpec(),
) -> EvalReport:
    """Marginalize per-stratum values by the stratum weights:
    overall = sum_s value_s * P(X = s). `spec` is not read: the per-stratum
    values were computed at it already."""
    wsum = sum(weights.weights.values())
    if abs(wsum - 1.0) > 1e-9:
        raise EvaluationError(f"stratum weights sum to {wsum}, expected 1")
    detailed: dict[int, StratumResult] = {}
    overall = 0.0
    for s, w in weights.weights.items():
        entry = per_stratum.get(s)
        value = entry.value if isinstance(entry, StratumResult) else entry
        if value is None or entry is None:
            if w > 0.0:
                raise EvaluationError(f"stratum {s} has weight {w} but no defined value")
            value = None
        else:
            overall += value * w
        detailed[s] = StratumResult(
            value=value,
            weight=w,
            user_count=entry.user_count if isinstance(entry, StratumResult) else 0,
            interaction_count=weights.counts.get(s, 0),
        )
    return EvalReport(
        method="stratified",
        overall=overall,
        per_user={},
        per_stratum=detailed,
        strata_K=len(weights.weights),
    )


def paired_ttest(
    per_user_a: Mapping[str, float | None], per_user_b: Mapping[str, float | None]
) -> tuple[float, float]:
    """Two-sided paired t-test over users defined in both vectors.

    Zero-variance, nonzero-mean differences report p at the machine floor
    rather than dividing by zero; all-zero differences give (0, 1).
    """
    from scipy.special import stdtr  # the one scipy call; importing it here keeps it off start-up
    users = sorted(
        u
        for u in per_user_a
        if per_user_a[u] is not None and per_user_b.get(u) is not None
    )
    n = len(users)
    if n < 2:
        raise EvaluationError(f"paired t-test needs >= 2 paired users, got {n}")
    diffs = [per_user_a[u] - per_user_b[u] for u in users]
    mean = _mean(diffs)
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), sys.float_info.min
    t = mean / math.sqrt(var / n)
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return t, min(p, 1.0)
