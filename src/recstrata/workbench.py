"""Run manifests, evaluation orchestration and report emission."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .corpus import Split
from .evaluators import (
    EvalReport,
    EvaluationError,
    holdout_eval,
    ips_eval,
    paired_ttest,
    per_stratum_eval,
    stratified_eval,
)
from .metrics import MetricSpec, rank_all
from .models import Recommender
from .propensity import PropensityTable
from .stats import compare_rankings, linear_fit
from .strata import StrataAssignment, StratumWeights, assign_strata, stratum_weights

METHODS = ("holdout", "ips", "stratified")
SIGNIFICANCE_ALPHA = 0.05
BASELINE = "holdout"  # the open-loop truth's method and every method's closed rival
MIN_MODELS = 4  # Steiger's test needs at least four ranked models


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_digest: str
    seeds: list[int]
    input_digests: dict[str, str]
    artifact_paths: list[str]
    created_at: str

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_config(config: Mapping) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()


def write_manifest(
    path: str | Path,
    command: str,
    config: Mapping,
    inputs: Iterable[str | Path] = (),
    artifacts: Iterable[str | Path] = (),
    seeds: Iterable[int] = (),
) -> RunManifest:
    manifest = RunManifest(
        command=command,
        config_digest=sha256_config(config),
        seeds=list(seeds),
        input_digests={str(p): sha256_file(p) for p in inputs},
        artifact_paths=[str(p) for p in artifacts],
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )
    Path(path).write_text(manifest.to_json() + "\n")
    return manifest


@dataclass(frozen=True)
class ModelEvaluation:
    """All requested estimator outputs for one model at one metric spec."""

    model: str
    spec: MetricSpec
    reports: dict[str, EvalReport]


def check_request(methods: Sequence[str], ks: Sequence[int]) -> None:
    """Raise ValueError for a request that names an unknown method or would
    evaluate nothing."""
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown evaluation method {m!r}; choose from {', '.join(METHODS)}")
    if not methods:
        raise ValueError(f"no evaluation method given; choose from {', '.join(METHODS)}")
    if "stratified" in methods and not ks:
        raise ValueError("stratified evaluation needs at least one strata count K")
    if "stratified" in methods and min(ks) < 1:
        raise ValueError(f"strata count K must be >= 1, got {min(ks)}")


def evaluate_models(
    models: Sequence[Recommender],
    split: Split,
    specs: Sequence[MetricSpec],
    methods: Sequence[str] = ("holdout",),
    ks: Sequence[int] = (2,),
    propensities: PropensityTable | None = None,
    baseline: str | None = None,
) -> list[dict]:
    """Evaluate every model with every requested estimator at every metric
    spec and, for the stratified method, every strata count in `ks`.

    Each model is ranked once and each K's assignment and weights are built
    once. Records come per spec: first the holdout and IPS group, then one
    stratified group per K; within a group they are ordered by model, then
    method, and carry paired t-test markers against `baseline` from
    `report_records`.
    """
    check_request(methods, ks)
    if ("ips" in methods or "stratified" in methods) and propensities is None:
        raise EvaluationError(
            "this evaluation needs a propensity table; run propensity fitting first"
        )
    strata_ks = list(ks) if "stratified" in methods else []
    strata: dict[int, tuple[StrataAssignment, StratumWeights]] = {}
    # (spec index, K index or None) -> one ModelEvaluation per model; the
    # first model fills the keys in record order
    groups: dict[tuple[int, int | None], list[ModelEvaluation]] = {}
    for model in models:
        rankings = rank_all(model, split)
        for n, spec in enumerate(specs):
            reports: dict[str, EvalReport] = {}
            if "holdout" in methods:
                reports["holdout"] = holdout_eval(rankings, split.test, spec)
            if "ips" in methods:
                reports["ips"] = ips_eval(rankings, split.test, propensities, spec)
            if reports:
                groups.setdefault((n, None), []).append(ModelEvaluation(model.label, spec, reports))
            for j, K in enumerate(strata_ks):
                if K not in strata:
                    assignment = assign_strata(propensities, K)
                    strata[K] = assignment, stratum_weights(assignment, split.test)
                assignment, weights = strata[K]
                per_stratum = per_stratum_eval(rankings, split.test, assignment, spec)
                groups.setdefault((n, j), []).append(ModelEvaluation(
                    model.label, spec, {"stratified": stratified_eval(per_stratum, weights, spec)}))
    return [rec for group in groups.values() for rec in report_records(group, baseline)]


def audit_report(report: EvalReport, tol: float = 1e-9) -> None:
    """Re-check the report's arithmetic invariants; raise on violation."""
    if report.per_stratum is not None:
        wsum = sum(r.weight for r in report.per_stratum.values())
        if abs(wsum - 1.0) > tol:
            raise EvaluationError(f"stratum weights sum to {wsum}, expected 1")
        combined = sum(
            r.value * r.weight for r in report.per_stratum.values() if r.value is not None
        )
        if abs(combined - report.overall) > max(tol, 1e-12 * abs(report.overall)):
            raise EvaluationError(
                f"stratified overall {report.overall} != weighted stratum sum {combined}"
            )
    if report.per_user:
        defined = [v for _, v in sorted(report.per_user.items()) if v is not None]
        if defined and abs(sum(defined) / len(defined) - report.overall) > tol:
            raise EvaluationError("overall is not the mean of the defined per-user values")


def report_records(
    evaluations: Sequence[ModelEvaluation], baseline: str | None = None
) -> list[dict]:
    """Flatten evaluations into serializable records (one per model x method),
    with paired t-test markers against a named baseline model."""
    baseline_reports: dict[str, EvalReport] = {}
    if baseline is not None:
        for ev in evaluations:
            if ev.model == baseline:
                baseline_reports = ev.reports
                break
        else:
            raise ValueError(f"baseline model {baseline!r} not among the evaluations")
    records = []
    for ev in evaluations:
        for method, report in ev.reports.items():
            audit_report(report)
            rec: dict = {
                "model": ev.model,
                "method": method,
                "metric": ev.spec.label,
                "cutoff": ev.spec.cutoff,
                "K": report.strata_K,
                "overall": report.overall,
                "n_users": sum(v is not None for v in report.per_user.values()),
            }
            if report.per_stratum is not None:
                rec["per_stratum"] = {
                    str(s): {
                        "value": r.value,
                        "weight": r.weight,
                        "users": r.user_count,
                        "interactions": r.interaction_count,
                        "low_support": r.low_support,
                    }
                    for s, r in report.per_stratum.items()
                }
            if baseline and ev.model != baseline and method in baseline_reports:
                base = baseline_reports[method]
                if report.per_user and base.per_user:
                    t, p = paired_ttest(report.per_user, base.per_user)
                    rec["t_vs_baseline"] = t
                    rec["p_vs_baseline"] = p
                    rec["significant_vs_baseline"] = bool(
                        p < SIGNIFICANCE_ALPHA and report.overall > base.overall
                    )
            records.append(rec)
    return records


def write_records(records: Iterable[Mapping], stream: IO[str]) -> None:
    for rec in records:
        stream.write(json.dumps(rec, sort_keys=True) + "\n")


def read_records(stream: IO[str]) -> list[dict]:
    return [json.loads(line) for line in stream if line.strip()]


def write_table(records: Sequence[Mapping], stream: IO[str]) -> None:
    """Diff-friendly TSV projection of the evaluation records."""
    cols = ["model", "method", "metric", "K", "overall", "significant_vs_baseline"]
    stream.write("\t".join(cols) + "\n")
    for rec in records:
        stream.write(
            "\t".join("" if rec.get(c) is None else str(rec.get(c)) for c in cols) + "\n"
        )


def cutoffs_in(records: Iterable[Mapping]) -> list[int | None]:
    """The records' distinct cutoffs, ascending, with the full list (None) last."""
    return sorted({rec.get("cutoff") for rec in records}, key=lambda c: (c is None, c))


def _groups(records: Iterable[Mapping]) -> dict[tuple, dict[str, Mapping]]:
    """Records by (cutoff, method, K), then by model; a later record for a
    model replaces an earlier one."""
    groups: dict[tuple, dict[str, Mapping]] = {}
    for rec in records:
        groups.setdefault((rec.get("cutoff"), rec["method"], rec.get("K")), {})[rec["model"]] = rec
    return groups


def correlation_rows(
    closed_records: Sequence[Mapping], open_records: Sequence[Mapping]
) -> tuple[list[dict], list[tuple]]:
    """Score each closed-loop method against the open-loop holdout.

    One row per (cutoff, method, K) group of the closed records other than
    the closed holdout: Kendall tau-b of the open-loop holdout scores with
    the closed holdout's and with the group's, and Steiger's test of the
    difference, over the models all three hold. A group with fewer than
    MIN_MODELS such models is skipped. Each stratified group also gives
    scatter rows (cutoff, model, open score, closed score), then
    (cutoff, "__fit__", slope, intercept)."""
    closed, opened = _groups(closed_records), _groups(open_records)
    rows, scatter_rows = [], []
    for cutoff in cutoffs_in(closed_records):
        truth = opened.get((cutoff, BASELINE, None), {})
        base = closed.get((cutoff, BASELINE, None), {})
        keys = [key for key in closed if key[0] == cutoff and key[1] != BASELINE]
        # ordered by the text of (method, K), so K=10 comes between K=1 and K=2
        for _, method, K in sorted(keys, key=lambda key: str(key[1:])):
            scores = closed[cutoff, method, K]
            common = sorted(set(truth) & set(base) & set(scores))
            if len(common) < MIN_MODELS:
                continue
            x, y, z = ([group[m]["overall"] for m in common] for group in (truth, base, scores))
            report = compare_rankings(x, y, z, strict=False)
            rows.append({
                "cutoff": cutoff,
                "baseline_method": BASELINE,
                "method": method,
                "K": K,
                "n_models": report.n,
                "tau_open_baseline": report.tau_xy,
                "tau_open_method": report.tau_xz,
                "tau_baseline_method": report.tau_yz,
                "steiger_z": report.steiger_z,
                "p": report.p,
                "significant": None if report.p is None else bool(report.p < SIGNIFICANCE_ALPHA),
            })
            if method == "stratified":
                scatter_rows += [(cutoff, m, xm, zm) for m, xm, zm in zip(common, x, z)]
                scatter_rows.append((cutoff, "__fit__", *linear_fit(x, z)))
    return rows, scatter_rows


def simpson_flags(records: Sequence[Mapping], dominant_weight: float = 0.9) -> list[dict]:
    """Model pairs where the holdout winner loses in a stratum carrying at
    least `dominant_weight` of the test feedback, checked at every cutoff and
    every K of the stratified records."""
    groups = _groups(records)
    flags = []
    for cutoff in cutoffs_in(records):
        holdout = groups.get((cutoff, "holdout", None), {})
        for K in sorted(K for c, method, K in groups if c == cutoff and method == "stratified"):
            by_model = groups[cutoff, "stratified", K]
            labels = sorted(set(holdout) & set(by_model))
            for a in labels:
                for b in labels:
                    if a == b or holdout[a]["overall"] <= holdout[b]["overall"]:
                        continue
                    for s, ra in by_model[a]["per_stratum"].items():
                        rb = by_model[b]["per_stratum"][s]
                        if (
                            ra["weight"] >= dominant_weight
                            and ra["value"] is not None
                            and rb["value"] is not None
                            and ra["value"] < rb["value"]
                        ):
                            flags.append({"cutoff": cutoff, "K": K, "holdout_winner": a,
                                          "stratum_winner": b, "stratum": s,
                                          "stratum_weight": ra["weight"]})
    return flags
