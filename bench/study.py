"""One seed of the open-loop agreement study, run in-process through
recstrata's library API, in the shape of the criterion-09/10 fixture.

    python3 bench/study.py SEED OUT_DIR [SPANS_JSON]

Simulates a 150 x 150 popularity-biased log with a dense open test, fits
the 33-model roster (BO, GA, POP, MF/BPR/WMF at latent 10..100, 15
epochs), ranks every model on the closed and the open test, computes
holdout, IPS and stratified K=1..10 at nDCG@10, and compares each closed
estimator with the open-loop holdout by Kendall tau-b and Steiger's test.
Writes closed.jsonl, open.jsonl and corr.jsonl (the CLI's record formats)
and timing.json (the wall time and the time of each step: inputs, each
model, the comparison); after the timed part it dumps the logs and strata
assignments the benchmark's checks recompute from.
"""

import json
import sys
import time
from pathlib import Path

from launch import IMPORT_DONE

KS = range(1, 11)
LATENT_SIZES = range(10, 101, 10)
CUTOFF = 10
STUDY_USERS = 90


def write_log(dataset, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for x in dataset.interactions:
            f.write(f"{x.user},{x.item},{x.rating}\n")


def main() -> int:
    seed, out = int(sys.argv[1]), Path(sys.argv[2])
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    import recstrata.cli  # noqa: F401  (the same modules a CLI verb loads)

    imported = time.perf_counter()
    print(IMPORT_DONE, file=sys.stderr, flush=True)
    from tracer import Tracer, install
    from recstrata import corpus, evaluators, metrics, models, propensity, simulator, stats, strata, workbench

    tracer = Tracer()
    if spans_path:
        install(tracer)

    start = time.perf_counter()
    log = simulator.generate(simulator.SimConfig(
        n_users=STUDY_USERS, n_items=150, exposure_budget=10, sessions=5, relevance_quantile=0.2,
        open_budget=100, deployed_policy="popularity_biased", seed=seed))
    closed = corpus.Dataset.from_interactions(
        log.closed_train.interactions + log.closed_test.interactions)
    table = propensity.estimate_propensities(closed, propensity.fit_gamma(closed.item_counts))
    assignments = {K: strata.assign_strata(table, K) for K in KS}
    weights = {K: strata.stratum_weights(assignments[K], log.closed_test) for K in KS}
    spec = metrics.MetricSpec(cutoff=CUTOFF)
    roster = [models.ModelConfig(a, epochs=15, seed=seed) for a in ("BO", "GA", "POP")]
    roster += [models.ModelConfig(a, latent_size=s, epochs=15, seed=seed)
               for a in ("MF", "BPR", "WMF") for s in LATENT_SIZES]

    # records are made model by model, so that only one model's rankings
    # and per-user values are alive at a time, as in the acceptance fixture
    closed_records, open_records = [], []
    steps = [time.perf_counter() - start]  # seconds per step: inputs, each model, comparison
    for config in roster:
        began = time.perf_counter()
        model = models.fit(config, log.closed_train)
        ranked = metrics.rank_all(model, log.closed_split)
        evaluations = [workbench.ModelEvaluation(model.label, spec, {
            "holdout": evaluators.holdout_eval(ranked, log.closed_test, spec),
            "ips": evaluators.ips_eval(ranked, log.closed_test, table, spec),
        })]
        for K in KS:
            per = evaluators.per_stratum_eval(ranked, log.closed_test, assignments[K], spec)
            evaluations.append(workbench.ModelEvaluation(model.label, spec, {
                "stratified": evaluators.stratified_eval(per, weights[K], spec)}))
        closed_records += workbench.report_records(evaluations)
        ranked = metrics.rank_all(model, log.open_split)
        open_records += workbench.report_records([workbench.ModelEvaluation(
            model.label, spec, {"holdout": evaluators.holdout_eval(ranked, log.open_test, spec)})])
        steps.append(time.perf_counter() - began)

    began = time.perf_counter()
    truth = {r["model"]: r["overall"] for r in open_records}
    holdout = {r["model"]: r["overall"] for r in closed_records if r["method"] == "holdout"}
    labels = sorted(truth)
    corr = []
    for method, K in [("ips", None)] + [("stratified", K) for K in KS]:
        scores = {r["model"]: r["overall"] for r in closed_records
                  if r["method"] == method and r["K"] == K}
        report = stats.compare_rankings([truth[m] for m in labels], [holdout[m] for m in labels],
                                        [scores[m] for m in labels], strict=False)
        corr.append({"cutoff": CUTOFF, "baseline_method": "holdout", "method": method, "K": K,
                     "n_models": report.n, "tau_open_baseline": report.tau_xy,
                     "tau_open_method": report.tau_xz, "tau_baseline_method": report.tau_yz,
                     "steiger_z": report.steiger_z, "p": report.p})
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in (("closed.jsonl", closed_records), ("open.jsonl", open_records),
                       ("corr.jsonl", corr)):
        with open(out / name, "w", encoding="utf-8") as f:
            workbench.write_records(rows, f)
    steps.append(time.perf_counter() - began)
    wall_s = time.perf_counter() - start

    if spans_path:
        tracer.dump(spans_path)
    (out / "timing.json").write_text(json.dumps({"wall_s": wall_s, "steps": steps, "imported": imported}))
    write_log(log.closed_train, out / "closed_train.csv")
    write_log(log.closed_test, out / "closed_test.csv")
    write_log(log.open_test, out / "open_test.csv")
    (out / "strata.json").write_text(json.dumps(
        {K: a.stratum_of for K, a in assignments.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
