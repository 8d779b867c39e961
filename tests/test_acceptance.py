"""End-to-end acceptance checks, one test per criterion.

These are the release gates: each test pins the behaviour and tolerances the
package must deliver, from the closed-form marginalization fixtures up to the
multi-seed simulation studies.  They are slower than the unit tests; run them
with `pytest tests/test_acceptance.py -v`.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from recstrata.corpus import Dataset
from recstrata.evaluators import (
    holdout_eval,
    ips_eval,
    per_stratum_eval,
    stratified_eval,
)
from recstrata.metrics import MetricSpec, ndcg, rank_all
from recstrata.models import ALGORITHMS, ModelConfig, fit, sweep
from recstrata.propensity import (
    GammaEstimate,
    PropensityTable,
    estimate_propensities,
    fit_gamma,
)
from recstrata.simulator import SimConfig, generate
from recstrata.stats import kendall_tau_b, steiger_test
from recstrata.strata import StratumWeights, assign_strata, stratum_weights
from recstrata.workbench import correlation_rows, evaluate_models, simpson_flags

SPEC = MetricSpec()


def weights(mapping):
    return StratumWeights(weights=dict(mapping), counts={s: 0 for s in mapping})


def full_closed_log(log):
    """Train and test merged, so every evaluated item has a propensity."""
    return Dataset.from_interactions(
        log.closed_train.interactions + log.closed_test.interactions
    )


def tail_quantile_propensities(log, quantile=0.98):
    """Propensities with the power-law exponent fitted to the count tail.

    Fitting only above the given count quantile targets the heavy tail of the
    exposure distribution, which is what separates the handful of head items
    from the long tail when the strata are cut.
    """
    closed = full_closed_log(log)
    counts = np.array(sorted(closed.item_counts.values()))
    x_min = max(2, int(np.quantile(counts, quantile)))
    return estimate_propensities(closed, fit_gamma(closed.item_counts, x_min=x_min))


def test_criterion_01_two_stratum_marginalization_fixture():
    w = weights({1: 0.51, 2: 0.49})
    a = stratified_eval({1: 0.93, 2: 0.73}, w).overall
    b = stratified_eval({1: 0.87, 2: 0.69}, w).overall
    assert a == pytest.approx(0.832, abs=1e-3)
    assert b == pytest.approx(0.782, abs=1e-3)


def test_criterion_02_skewed_weight_marginalization_fixture():
    w = weights({1: 0.99, 2: 0.01})
    a = stratified_eval({1: 0.339, 2: 0.695}, w).overall
    b = stratified_eval({1: 0.350, 2: 0.418}, w).overall
    assert a == pytest.approx(0.343, abs=1e-3)
    assert b == pytest.approx(0.351, abs=1e-3)


def test_criterion_03_single_stratum_reduces_to_holdout_bit_exactly():
    rng = np.random.default_rng(42)
    policies = ("uniform_random", "popularity_biased", "trained_mf")
    for trial in range(100):
        config = SimConfig(
            n_users=int(rng.integers(30, 80)),
            n_items=int(rng.integers(15, 40)),
            exposure_budget=int(rng.integers(4, 10)),
            sessions=int(rng.integers(1, 4)),
            deployed_policy=policies[trial % 3],
            interact_noise=float(rng.uniform(0.0, 0.3)),
            seed=int(rng.integers(0, 10_000)),
        )
        log = generate(config)
        model = fit(ModelConfig("POP"), log.closed_train)
        rankings = rank_all(model, log.closed_split)
        hold = holdout_eval(rankings, log.closed_test, SPEC)
        table = estimate_propensities(
            full_closed_log(log), fit_gamma(full_closed_log(log).item_counts)
        )
        assignment = assign_strata(table, 1)
        per = per_stratum_eval(rankings, log.closed_test, assignment, SPEC)
        strat = stratified_eval(per, stratum_weights(assignment, log.closed_test), SPEC)
        assert strat.overall == hold.overall, f"trial {trial}: {config}"


def test_criterion_04_inverse_weighting_identities():
    log = generate(
        SimConfig(n_users=150, n_items=60, exposure_budget=8, sessions=3,
                  deployed_policy="popularity_biased", seed=7)
    )
    closed = full_closed_log(log)
    unit = PropensityTable(
        scores={i: 1.0 for i in closed.item_index},
        gamma=GammaEstimate(gamma=1.0, n_samples=len(closed.item_index)),
        item_counts=dict(closed.item_counts),
    )
    halved = PropensityTable(
        scores={i: 0.5 for i in closed.item_index},
        gamma=unit.gamma,
        item_counts=unit.item_counts,
    )
    base = ModelConfig("POP", epochs=5, seed=7)
    models = sweep(ALGORITHMS, range(10, 101, 10), log.closed_train, base)
    assert len(models) == 33

    unit_overall, halved_overall = [], []
    for model in models:
        rankings = rank_all(model, log.closed_split)
        hold = holdout_eval(rankings, log.closed_test, SPEC)
        ips_unit = ips_eval(rankings, log.closed_test, unit, SPEC)
        # exact reduction: unit propensities change nothing, not even rounding
        assert ips_unit.overall == hold.overall
        assert ips_unit.per_user == hold.per_user
        unit_overall.append(ips_unit.overall)
        halved_overall.append(ips_eval(rankings, log.closed_test, halved, SPEC).overall)
    # globally rescaling every propensity must preserve the model ranking
    assert kendall_tau_b(unit_overall, halved_overall) == 1.0


def test_criterion_05_rank_correlation_matches_brute_force():
    def brute_force(x, y):
        concordant = discordant = tied_x = tied_y = 0
        for a in range(len(x)):
            for b in range(a + 1, len(x)):
                dx = (x[a] > x[b]) - (x[a] < x[b])
                dy = (y[a] > y[b]) - (y[a] < y[b])
                if dx == 0 and dy == 0:
                    continue
                if dx == 0:
                    tied_x += 1
                elif dy == 0:
                    tied_y += 1
                elif dx == dy:
                    concordant += 1
                else:
                    discordant += 1
        nx = concordant + discordant + tied_y
        ny = concordant + discordant + tied_x
        if nx == 0 or ny == 0:
            return None
        return (concordant - discordant) / math.sqrt(nx * ny)

    rng = np.random.default_rng(5)
    for trial in range(1000):
        n = int(rng.integers(2, 30))
        if trial % 2:
            x = rng.integers(0, 5, n).tolist()  # heavy ties
            y = rng.integers(0, 5, n).tolist()
        else:
            x = rng.random(n).tolist()
            y = rng.random(n).tolist()
        expected = brute_force(x, y)
        actual = kendall_tau_b(x, y)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-12)


def test_criterion_06_dependent_correlation_test_is_calibrated():
    # Null model: y and z are equally correlated with the shared variable x,
    # so the test should reject at close to its nominal 5% level.
    rng = np.random.default_rng(12)
    trials, n = 10_000, 30
    cov = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.3], [0.5, 0.3, 1.0]])
    chol = np.linalg.cholesky(cov)
    samples = rng.standard_normal((trials, n, 3)) @ chol.T
    centered = samples - samples.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    r_xy = np.einsum("ti,ti->t", centered[:, :, 0], centered[:, :, 1]) / (norms[:, 0] * norms[:, 1])
    r_xz = np.einsum("ti,ti->t", centered[:, :, 0], centered[:, :, 2]) / (norms[:, 0] * norms[:, 2])
    r_yz = np.einsum("ti,ti->t", centered[:, :, 1], centered[:, :, 2]) / (norms[:, 1] * norms[:, 2])
    rejections = 0
    for k in range(trials):
        _, p = steiger_test(float(r_xy[k]), float(r_xz[k]), float(r_yz[k]), n=n)
        rejections += p < 0.05
    rate = rejections / trials
    assert 0.03 <= rate <= 0.07, f"rejection rate {rate}"


def test_criterion_07_power_law_exponent_recovery():
    rng = np.random.default_rng(99)
    for true_gamma in (1.5, 2.5, 3.5):
        draws = rng.zipf(true_gamma, size=10_000)
        counts = {f"i{k}": int(c) for k, c in enumerate(draws)}
        estimate = fit_gamma(counts)
        assert estimate.gamma == pytest.approx(true_gamma, abs=0.1), true_gamma


def test_criterion_08_aggregation_reversal_appears_under_exposure_skew():
    # A model pair must exist whose holdout winner loses inside the stratum
    # holding at least 90% of the test feedback, in at least half the seeds.
    sizes = (10, 30)
    seeds = range(20)
    flagged = 0
    for seed in seeds:
        log = generate(
            SimConfig(n_users=2000, n_items=500, exposure_budget=10, sessions=3,
                      deployed_policy="popularity_biased", seed=seed)
        )
        table = tail_quantile_propensities(log)
        models = [fit(ModelConfig(a, epochs=30, seed=seed), log.closed_train)
                  for a in ("BO", "GA", "POP")]
        models += [
            fit(ModelConfig(a, latent_size=s, epochs=30, seed=seed), log.closed_train)
            for a in ("MF", "BPR", "WMF") for s in sizes
        ]
        records = evaluate_models(
            models, log.closed_split, [SPEC],
            methods=["holdout", "stratified"], ks=[2], propensities=table,
        )
        flags = simpson_flags(records, dominant_weight=0.9)
        if flags:
            flagged += 1
            for flag in flags:
                assert flag["stratum_weight"] >= 0.9
                assert flag["holdout_winner"] != flag["stratum_winner"]
    assert flagged >= len(list(seeds)) // 2, f"reversal in only {flagged}/20 seeds"


SWEEP_SIZES = range(10, 101, 10)
SWEEP_SEEDS = range(20)


@pytest.fixture(scope="module")
def open_loop_agreement():
    """Per-seed rank correlations between each closed-loop estimator and the
    open-loop ground truth, over the full 33-model sweep.

    Shared by the estimator-agreement and strata-sweep acceptance tests.
    Simulation regime: moderate popularity skew, dense feedback, and a dense
    uniformly-exposed open test so that near-tied model pairs are measured
    rather than guessed.
    """
    spec = MetricSpec(cutoff=10)
    tau_holdout = []
    tau_strat = {K: [] for K in range(1, 11)}
    for seed in SWEEP_SEEDS:
        log = generate(
            SimConfig(n_users=500, n_items=150, exposure_budget=10, sessions=5,
                      relevance_quantile=0.2, open_budget=100,
                      deployed_policy="popularity_biased", seed=seed)
        )
        closed = full_closed_log(log)
        table = estimate_propensities(closed, fit_gamma(closed.item_counts))
        base = ModelConfig("POP", epochs=15, seed=seed)
        models = sweep(ALGORITHMS, SWEEP_SIZES, log.closed_train, base)
        closed_records = evaluate_models(
            models, log.closed_split, [spec],
            methods=["holdout", "stratified"], ks=list(tau_strat), propensities=table,
        )
        open_records = evaluate_models(models, log.open_split, [spec])
        rows, _ = correlation_rows(closed_records, open_records)
        assert [row["K"] for row in rows] == sorted(tau_strat, key=str)
        assert {row["n_models"] for row in rows} == {len(models)}
        tau_holdout.append(rows[0]["tau_open_baseline"])
        for row in rows:
            tau_strat[row["K"]].append(row["tau_open_method"])
    return tau_holdout, tau_strat


def test_criterion_09_stratified_tracks_open_loop_better_than_holdout(open_loop_agreement):
    tau_holdout, tau_strat = open_loop_agreement
    improvements = [s - h for s, h in zip(tau_strat[2], tau_holdout)]
    wins = sum(imp >= 0 for imp in improvements)
    assert wins >= 0.7 * len(improvements), f"stratified won only {wins}/{len(improvements)} seeds"
    assert float(np.mean(improvements)) > 0.0, f"mean improvement {np.mean(improvements)}"


def test_criterion_10_strata_count_has_marginal_effect(open_loop_agreement):
    tau_holdout, tau_strat = open_loop_agreement
    mean_by_k = {K: float(np.mean(tau_strat[K])) for K in tau_strat}
    multi = [mean_by_k[K] for K in range(2, 11)]
    assert float(np.mean(multi)) > mean_by_k[1]
    cv = float(np.std(multi) / abs(np.mean(multi)))
    assert cv < 0.15, f"coefficient of variation {cv}"


def test_criterion_11_factor_models_beat_the_random_baseline():
    spec = MetricSpec(cutoff=10)
    configs = {
        "BO": ModelConfig("BO"),
        "MF": ModelConfig("MF", latent_size=30, epochs=40, learning_rate=0.05),
        "BPR": ModelConfig("BPR", latent_size=30, epochs=30, learning_rate=0.05),
        "WMF": ModelConfig("WMF", latent_size=30, epochs=20),
    }
    wins = {name: 0 for name in configs if name != "BO"}
    seeds = range(20)
    for seed in seeds:
        log = generate(
            SimConfig(n_users=500, n_items=150, exposure_budget=10, sessions=5,
                      relevance_quantile=0.2, deployed_policy="popularity_biased",
                      seed=seed)
        )
        fitted = {name: fit(replace(config, seed=seed), log.closed_train)
                  for name, config in configs.items()}
        records = evaluate_models(list(fitted.values()), log.closed_split, [spec])
        values = {rec["model"]: rec["overall"] for rec in records}
        for name in wins:
            wins[name] += values[fitted[name].label] > values[fitted["BO"].label]
    for name, count in wins.items():
        assert count >= 0.95 * len(list(seeds)), f"{name} beat BO in only {count}/20 seeds"


def reference_ndcg(order, relevant, cutoff):
    ideal = sum(
        1.0 / math.log2(j + 2.0)
        for j in range(min(len(relevant), cutoff if cutoff else len(relevant)))
    )
    got = 0.0
    for pos, item in enumerate(order, start=1):
        if item in relevant and (cutoff is None or pos <= cutoff):
            got += 1.0 / math.log2(pos + 1.0)
    return got / ideal


def ranking(order):
    """The ranking that lists `order` from the top."""
    return {item: r for r, item in enumerate(order, start=1)}


def test_criterion_12_ranking_metric_properties():
    rng = np.random.default_rng(2024)
    cases = 10_000
    for _ in range(cases):
        n = int(rng.integers(2, 12))
        items = [f"i{k}" for k in range(n)]
        order = list(rng.permutation(items))
        n_rel = int(rng.integers(1, n + 1))
        relevant = set(rng.choice(items, size=n_rel, replace=False).tolist())
        cutoff = None if rng.random() < 0.5 else int(rng.integers(1, n + 2))
        spec = MetricSpec(cutoff=cutoff)
        value = ndcg(ranking(order), relevant, spec)

        # boundedness and oracle equivalence
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(reference_ndcg(order, relevant, cutoff), abs=1e-12)

        # a perfect ranking puts every relevant item first
        perfect = sorted(order, key=lambda i: i not in relevant)
        assert ndcg(ranking(perfect), relevant, spec) == pytest.approx(1.0)

        # promoting a relevant item one position never lowers the score
        idx = [k for k, item in enumerate(order) if item in relevant and k > 0]
        if idx:
            k = int(rng.choice(idx))
            promoted = list(order)
            promoted[k - 1], promoted[k] = promoted[k], promoted[k - 1]
            assert ndcg(ranking(promoted), relevant, spec) >= value


def test_criterion_13_external_dataset_pipeline():
    root = os.environ.get("RECSTRATA_EXTERNAL_DATA")
    if not root:
        pytest.skip("set RECSTRATA_EXTERNAL_DATA to a directory of rating CSVs to run")
    from recstrata import cli

    files = sorted(
        f for f in os.listdir(root) if f.endswith(".csv") and "train" in f
    )
    assert files, "expected at least one *train*.csv in RECSTRATA_EXTERNAL_DATA"
    train = os.path.join(root, files[0])
    test = train.replace("train", "test")
    out = os.path.join(root, "acceptance-out")
    os.makedirs(out, exist_ok=True)
    assert cli.main(["propensity", "--train", train,
                     "--out", os.path.join(out, "prop.csv")]) == 0
    assert cli.main(["evaluate", "--train", train, "--test", test,
                     "--models", "POP,BO,MF:10", "--methods", "holdout,ips,stratified",
                     "--k", "2", "--propensities", os.path.join(out, "prop.csv"),
                     "--out", os.path.join(out, "closed.jsonl")]) == 0
    assert cli.main(["compare", "--reports", os.path.join(out, "closed.jsonl"),
                     "--open-report", os.path.join(out, "closed.jsonl"),
                     "--out", os.path.join(out, "cmp.jsonl")]) == 0
