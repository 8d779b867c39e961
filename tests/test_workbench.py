import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import recstrata
from recstrata import cli, workbench
from recstrata.corpus import Dataset, Interaction, Split, binarize
from recstrata.evaluators import EvaluationError
from recstrata.metrics import MetricSpec
from recstrata.models import ModelConfig, fit
from recstrata.propensity import estimate_propensities, fit_gamma
from recstrata.simulator import SimConfig, generate
from recstrata.stats import kendall_tau_b, linear_fit
from recstrata.workbench import (
    correlation_rows,
    evaluate_models,
    read_records,
    sha256_file,
    simpson_flags,
    write_manifest,
    write_records,
)


@pytest.fixture(scope="module")
def sim():
    return generate(SimConfig(n_users=80, n_items=40, exposure_budget=8, sessions=2, seed=9))


@pytest.fixture(scope="module")
def propensities(sim):
    return estimate_propensities(sim.closed_train, fit_gamma(sim.closed_train.item_counts))


@pytest.fixture(scope="module")
def models(sim):
    cfgs = [ModelConfig("POP"), ModelConfig("BO"), ModelConfig("MF", latent_size=4, epochs=10)]
    return [fit(c, sim.closed_train) for c in cfgs]


class TestEvaluateModels:
    def test_all_methods_produce_audited_reports(self, sim, propensities, models):
        # report_records audits every report's arithmetic before it emits it
        records = evaluate_models(
            models, sim.closed_split, [MetricSpec()],
            methods=["holdout", "ips", "stratified"], ks=[2], propensities=propensities,
        )
        assert [(r["model"], r["method"]) for r in records] == [
            ("POP", "holdout"), ("POP", "ips"), ("BO", "holdout"), ("BO", "ips"),
            ("MF4", "holdout"), ("MF4", "ips"),
            ("POP", "stratified"), ("BO", "stratified"), ("MF4", "stratified"),
        ]

    def test_records_come_per_cutoff_then_k(self, sim, propensities, models):
        records = evaluate_models(
            models, sim.closed_split, [MetricSpec(), MetricSpec(cutoff=5)],
            methods=["holdout", "stratified"], ks=[1, 2], propensities=propensities,
        )
        groups = []
        for r in records:
            key = (r["cutoff"], r["method"], r["K"])
            if key not in groups:
                groups.append(key)
        assert groups == [
            (None, "holdout", None), (None, "stratified", 1), (None, "stratified", 2),
            (5, "holdout", None), (5, "stratified", 1), (5, "stratified", 2),
        ]

    def test_stratified_without_propensities_is_instructive(self, sim, models):
        with pytest.raises(EvaluationError, match="propensity"):
            evaluate_models(models, sim.closed_split, [MetricSpec()], methods=["ips"])

    def test_k1_stratified_equals_holdout(self, sim, propensities, models):
        records = evaluate_models(
            models, sim.closed_split, [MetricSpec()],
            methods=["holdout", "stratified"], ks=[1], propensities=propensities,
        )
        by_method = {}
        for r in records:
            by_method.setdefault(r["method"], {})[r["model"]] = r["overall"]
        assert by_method["stratified"] == by_method["holdout"]

    def test_unknown_method(self, sim, models):
        with pytest.raises(ValueError):
            evaluate_models(models, sim.closed_split, [MetricSpec()], methods=["oracle"])


class TestRecords:
    def test_baseline_markers(self, sim, propensities, models):
        records = evaluate_models(
            models, sim.closed_split, [MetricSpec()], methods=["holdout"], baseline="POP",
        )
        by_model = {r["model"]: r for r in records}
        assert "p_vs_baseline" not in by_model["POP"]
        assert 0.0 <= by_model["BO"]["p_vs_baseline"] <= 1.0

    def test_missing_baseline_is_an_error(self, sim, models):
        with pytest.raises(ValueError):
            evaluate_models(
                models, sim.closed_split, [MetricSpec()], methods=["holdout"], baseline="nope"
            )

    def test_round_trip(self, sim, models, tmp_path):
        records = evaluate_models(models, sim.closed_split, [MetricSpec()], methods=["holdout"])
        path = tmp_path / "records.jsonl"
        with open(path, "w") as f:
            write_records(records, f)
        with open(path) as f:
            assert read_records(f) == json.loads(json.dumps(records))

    def test_simpson_flags_shape(self, sim, propensities, models):
        records = evaluate_models(
            models, sim.closed_split, [MetricSpec()],
            methods=["holdout", "stratified"], ks=[2], propensities=propensities,
        )
        for flag in simpson_flags(records, dominant_weight=0.5):
            assert flag["holdout_winner"] != flag["stratum_winner"]
            assert flag["stratum_weight"] >= 0.5


def record(model, method, overall, K=None, cutoff=None):
    return {"model": model, "method": method, "metric": "ndcg", "cutoff": cutoff, "K": K,
            "overall": overall}


class TestCorrelationRows:
    # open-loop truth for A..D at the full list; E's only open record is at
    # cutoff 10, so no group at the full list can use E
    OPEN = [record(m, "holdout", v) for m, v in zip("ABCD", (0.5, 0.4, 0.3, 0.2))]
    OPEN += [record("E", "holdout", 0.9, cutoff=10)]
    STRATIFIED = {1: (0.1, 0.2, 0.3, 0.4, 0.5), 2: (0.5, 0.3, 0.4, 0.2, 0.1),
                  10: (0.2, 0.1, 0.4, 0.3, 0.5)}

    def closed(self):
        records = [record(m, "holdout", v) for m, v in zip("ABCDE", (0.1, 0.3, 0.2, 0.4, 0.5))]
        records += [record(m, "ips", v) for m, v in zip("ABCDE", (0.4, 0.3, 0.1, 0.2, 0.0))]
        for K, values in self.STRATIFIED.items():
            records += [record(m, "stratified", v, K=K) for m, v in zip("ABCDE", values)]
        # three models only: too few for a row
        records += [record(m, "stratified", v, K=3) for m, v in zip("ABC", (0.3, 0.2, 0.1))]
        return records

    def test_rows_come_ips_then_stratified_k_by_its_text(self):
        rows, _ = correlation_rows(self.closed(), self.OPEN)
        assert [(r["cutoff"], r["method"], r["K"]) for r in rows] == [
            (None, "ips", None), (None, "stratified", 1), (None, "stratified", 10),
            (None, "stratified", 2),
        ]
        assert {r["baseline_method"] for r in rows} == {"holdout"}

    def test_open_records_at_another_cutoff_are_not_used(self):
        rows, scatter = correlation_rows(self.closed(), self.OPEN)
        assert {r["n_models"] for r in rows} == {4}
        assert "E" not in {row[1] for row in scatter}
        truth = [0.5, 0.4, 0.3, 0.2]
        assert rows[0]["tau_open_baseline"] == kendall_tau_b(truth, [0.1, 0.3, 0.2, 0.4])
        assert rows[0]["tau_open_method"] == kendall_tau_b(truth, [0.4, 0.3, 0.1, 0.2])

    def test_a_later_record_replaces_an_earlier_one(self):
        # as when `compare --reports` reads two files that both hold A at K=2
        rows, scatter = correlation_rows(
            self.closed() + [record("A", "stratified", 0.05, K=2)], self.OPEN
        )
        k2 = [row for row in scatter if row[1] == "A"][2]
        assert k2 == (None, "A", 0.5, 0.05)
        assert rows[3]["tau_open_method"] == kendall_tau_b(
            [0.5, 0.4, 0.3, 0.2], [0.05, 0.3, 0.4, 0.2]
        )

    def test_each_stratified_group_ends_its_scatter_rows_with_the_fit(self):
        _, scatter = correlation_rows(self.closed(), self.OPEN)
        truth = [0.5, 0.4, 0.3, 0.2]
        expected = []
        for K in (1, 10, 2):
            closed = list(self.STRATIFIED[K][:4])
            expected += [(None, m, x, z) for m, x, z in zip("ABCD", truth, closed)]
            expected.append((None, "__fit__", *linear_fit(truth, closed)))
        assert scatter == expected

    def test_a_fully_tied_group_gets_a_row_without_a_test(self):
        tied = [record(m, "stratified", 0.0, K=5) for m in "ABCDE"]
        rows, _ = correlation_rows(self.closed() + tied, self.OPEN)
        row = next(r for r in rows if r["K"] == 5)
        assert row["tau_open_baseline"] == rows[0]["tau_open_baseline"]
        assert [row[k] for k in ("tau_open_method", "tau_baseline_method", "steiger_z", "p",
                                 "significant")] == [None] * 5
        assert [r for r in rows if r["K"] != 5] == correlation_rows(self.closed(), self.OPEN)[0]

    def test_tied_open_scores_give_rows_without_a_test_or_a_fit(self):
        rows, scatter = correlation_rows(self.closed(), [record(m, "holdout", 0.5) for m in "ABCD"])
        assert len(rows) == 4
        assert {(r["tau_open_baseline"], r["tau_open_method"], r["p"]) for r in rows} == {
            (None, None, None)}
        assert len(scatter) == 12 and "__fit__" not in {row[1] for row in scatter}

    @pytest.mark.parametrize("side", ["open-loop report", "closed reports"])
    def test_a_side_without_holdout_at_a_closed_cutoff_is_an_error(self, side):
        closed, opened = self.closed(), [r for r in self.OPEN if r["cutoff"] == 10]
        if side == "closed reports":
            closed, opened = [r for r in closed if r["method"] != "holdout"], self.OPEN
        with pytest.raises(EvaluationError, match=f"holdout record at cutoff none in the {side}"):
            correlation_rows(closed, opened)


class TestManifest:
    def test_manifest_digests_are_reproducible(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("u1,i1,5\n")
        m1 = write_manifest(tmp_path / "m1.json", "ingest", {"a": 1}, inputs=[data])
        m2 = write_manifest(tmp_path / "m2.json", "ingest", {"a": 1}, inputs=[data])
        assert m1.config_digest == m2.config_digest
        assert m1.input_digests == m2.input_digests
        loaded = json.loads((tmp_path / "m1.json").read_text())
        assert loaded["command"] == "ingest"


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("RECSTRATA_ROOT", str(tmp_path))
    config = {"n_users": 50, "n_items": 30, "exposure_budget": 6, "sessions": 2, "seed": 4}
    (tmp_path / "sim.json").write_text(json.dumps(config))
    return tmp_path


class TestCli:
    def test_simulate_is_reproducible(self, workdir):
        assert run_cli("simulate", "--config", "sim.json", "--out-dir", "run1") == 0
        assert run_cli("simulate", "--config", "sim.json", "--out-dir", "run2") == 0
        for name in ("closed_train.csv", "closed_test.csv", "open_test.csv"):
            assert sha256_file(workdir / "run1" / name) == sha256_file(workdir / "run2" / name)
        assert (workdir / "run1" / "manifest.json").exists()

    def test_full_pipeline(self, workdir, capsys):
        assert run_cli("simulate", "--config", "sim.json", "--out-dir", "sim") == 0
        assert run_cli(
            "propensity", "--train", "sim/closed_train.csv", "--out", "prop.csv"
        ) == 0
        assert run_cli(
            "stratify", "--propensities", "prop.csv", "--k", "2", "--out", "strata.csv"
        ) == 0
        assert run_cli(
            "train", "--train", "sim/closed_train.csv", "--algorithm", "POP",
            "--out", "pop.npz",
        ) == 0
        assert run_cli(
            "evaluate", "--train", "sim/closed_train.csv", "--test", "sim/closed_test.csv",
            "--models", "POP,BO,GA,MF:4", "--methods", "holdout,ips,stratified",
            "--k", "1,2", "--propensities", "prop.csv", "--epochs", "5",
            "--baseline", "POP", "--out", "closed.jsonl", "--table", "closed.tsv",
        ) == 0
        assert run_cli(
            "evaluate", "--train", "sim/closed_train.csv", "--test", "sim/open_test.csv",
            "--models", "POP,BO,GA,MF:4", "--methods", "holdout", "--epochs", "5",
            "--out", "open.jsonl",
        ) == 0
        assert run_cli(
            "compare", "--reports", "closed.jsonl", "--open-report", "open.jsonl",
            "--scatter", "scatter.tsv", "--out", "cmp.jsonl",
        ) == 0
        assert run_cli("report", "--report", "closed.jsonl") == 0
        out = capsys.readouterr().out
        assert "model\tmethod" in out

        with open(workdir / "closed.jsonl") as f:
            records = read_records(f)
        holdout = {r["model"]: r["overall"] for r in records if r["method"] == "holdout"}
        strat1 = {
            r["model"]: r["overall"]
            for r in records
            if r["method"] == "stratified" and r["K"] == 1
        }
        assert holdout == strat1

        with open(workdir / "cmp.jsonl") as f:
            comparisons = read_records(f)
        assert {c["method"] for c in comparisons} <= {"ips", "stratified"}
        assert (workdir / "scatter.tsv").read_text().startswith("cutoff\tmodel")

    def test_exit_codes(self, workdir, capsys):
        # 2: data errors (missing file, malformed line)
        assert run_cli("propensity", "--train", "missing.csv", "--out", "x.csv") == 2
        (workdir / "bad.csv").write_text("u1,i1,notanint\n")
        assert run_cli("ingest", "--input", "bad.csv", "--out", "x.csv") == 2
        assert "line 1" in capsys.readouterr().err
        # 1: usage/config errors
        assert run_cli("nonsense") == 1
        bad_cfg = {"n_users": 5, "n_items": 3, "exposure_budget": 9}
        (workdir / "bad.json").write_text(json.dumps(bad_cfg))
        assert run_cli("simulate", "--config", "bad.json", "--out-dir", "nope") == 1
        assert not (workdir / "nope").exists()

    def test_singular_wmf_system_is_a_numerical_error(self, workdir, capsys):
        # three items cannot span WMF's 8 x 8 gram matrix without regularization
        (workdir / "t.csv").write_text("u1,a,5\nu1,b,4\nu2,b,5\nu2,c,5\nu3,a,5\n")
        assert run_cli(
            "evaluate", "--train", "t.csv", "--test", "t.csv", "--models", "WMF:8",
            "--epochs", "2", "--regularization", "0", "--out", "x.jsonl",
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: WMF8: singular least-squares system")
        assert "use --regularization > 0" in err
        assert not (workdir / "x.jsonl").exists()

    def test_ips_without_propensities_instructs(self, workdir, capsys):
        assert run_cli("simulate", "--config", "sim.json", "--out-dir", "sim") == 0
        code = run_cli(
            "evaluate", "--train", "sim/closed_train.csv", "--test", "sim/closed_test.csv",
            "--models", "POP", "--methods", "ips", "--out", "x.jsonl",
        )
        assert code == 1
        assert "propensity" in capsys.readouterr().err

    def test_ingest_loop_flag(self, workdir, capsys):
        (workdir / "log.csv").write_text("u1,i1,5\nu2,i1,3\n")
        assert run_cli("ingest", "--input", "log.csv", "--out", "open.csv", "--loop", "open") == 0
        assert "open loop" in capsys.readouterr().out
        assert (workdir / "open.csv.manifest.json").exists()

    def test_train_then_evaluate_model_files(self, workdir):
        assert run_cli("simulate", "--config", "sim.json", "--out-dir", "sim") == 0
        assert run_cli(
            "train", "--train", "sim/closed_train.csv", "--algorithm", "MF",
            "--latent-size", "4", "--epochs", "5", "--out", "mf.npz",
        ) == 0
        assert run_cli(
            "evaluate", "--train", "sim/closed_train.csv", "--test", "sim/closed_test.csv",
            "--model-files", str(workdir / "mf.npz"), "--methods", "holdout",
            "--out", "frommodel.jsonl",
        ) == 0
        with open(workdir / "frommodel.jsonl") as f:
            records = read_records(f)
        assert records[0]["model"] == "MF4"

    def test_evaluate_ranks_each_model_once_per_test_log(self, workdir, monkeypatch):
        assert run_cli("simulate", "--config", "sim.json", "--out-dir", "sim") == 0
        # propensities over train and test, so every test item has one
        (workdir / "closed.csv").write_text(
            (workdir / "sim/closed_train.csv").read_text()
            + (workdir / "sim/closed_test.csv").read_text()
        )
        assert run_cli("propensity", "--train", "closed.csv", "--out", "prop.csv") == 0
        calls = []
        rank_all = workbench.rank_all

        def counting_rank_all(model, split):
            calls.append(model.label)
            return rank_all(model, split)

        monkeypatch.setattr(workbench, "rank_all", counting_rank_all)
        assert run_cli(
            "evaluate", "--train", "sim/closed_train.csv", "--test", "sim/closed_test.csv",
            "--models", "POP,BO,GA", "--methods", "holdout,ips,stratified", "--k", "1,2",
            "--cutoffs", "none,10", "--propensities", "prop.csv", "--out", "closed.jsonl",
        ) == 0
        assert calls == ["POP", "BO", "GA"]
        with open(workdir / "closed.jsonl") as f:
            # models x cutoffs x (holdout, ips, stratified K=1, stratified K=2)
            assert len(read_records(f)) == 3 * 2 * 4

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--methods", ""], "no evaluation method"),
            (["--methods", "stratified", "--k", ""], "strata count"),
            (["--methods", "foo"], "'foo'"),
            (["--methods", "stratified", "--k", "0"], "K must be >= 1, got 0"),
        ],
        ids=["no_method", "no_k", "unknown_method", "k_zero"],
    )
    def test_evaluating_nothing_is_a_usage_error(self, workdir, capsys, monkeypatch,
                                                 options, message):
        assert run_cli("simulate", "--config", "sim.json", "--out-dir", "sim") == 0
        assert run_cli("propensity", "--train", "sim/closed_train.csv", "--out", "prop.csv") == 0
        fitted = []
        fit = recstrata.models.fit

        def counting_fit(config, train):
            fitted.append(config.algorithm)
            return fit(config, train)

        monkeypatch.setattr(recstrata.models, "fit", counting_fit)
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--train", "sim/closed_train.csv", "--test", "sim/closed_test.csv",
            "--models", "POP", "--propensities", "prop.csv", *options, "--out", "x.jsonl",
        ) == 1
        assert message in capsys.readouterr().err
        assert fitted == []
        assert not (workdir / "x.jsonl").exists()

    def test_report_checks_every_k(self, workdir, capsys):
        # a reversal at K=2, none at K=3, the last K in the file
        def stratified(model, K, strata):
            per_stratum = {str(s): {"value": v, "weight": w} for s, (v, w) in strata.items()}
            return {"model": model, "method": "stratified", "metric": "ndcg", "cutoff": None,
                    "K": K, "overall": 0.0, "per_stratum": per_stratum}

        records = [
            {"model": "A", "method": "holdout", "metric": "ndcg", "cutoff": None, "K": None,
             "overall": 0.5},
            {"model": "B", "method": "holdout", "metric": "ndcg", "cutoff": None, "K": None,
             "overall": 0.4},
            stratified("A", 2, {1: (0.9, 0.05), 2: (0.3, 0.95)}),
            stratified("B", 2, {1: (0.1, 0.05), 2: (0.6, 0.95)}),
            stratified("A", 3, {1: (0.9, 0.3), 2: (0.3, 0.3), 3: (0.3, 0.4)}),
            stratified("B", 3, {1: (0.1, 0.3), 2: (0.6, 0.3), 3: (0.6, 0.4)}),
        ]
        with open(workdir / "closed.jsonl", "w") as f:
            write_records(records, f)
        assert run_cli("report", "--report", "closed.jsonl") == 0
        flags = [line for line in capsys.readouterr().out.splitlines() if "SIMPSON" in line]
        assert flags == [
            "SIMPSON at ndcg, K=2: holdout prefers A but B wins stratum 2 (weight 0.950)"
        ]

    def test_manifests_reproduce_across_interpreters(self, tmp_path):
        # the same ingest and propensity run, in two fresh interpreters
        src = str(Path(recstrata.__file__).resolve().parents[1])
        script = (
            "from recstrata import cli\n"
            "assert cli.main(['ingest', '--input', 'raw.csv', '--out', 'log.csv']) == 0\n"
            "assert cli.main(['propensity', '--train', 'log.csv', '--out', 'p.csv']) == 0\n"
        )
        digests = []
        for run in (tmp_path / "run1", tmp_path / "run2"):
            run.mkdir()
            (run / "raw.csv").write_text("u1,i1,5\nu2,i1,3\nu2,i2,4\nu3,i2,5\nu3,i3,1\n")
            env = dict(os.environ, PYTHONPATH=src, RECSTRATA_ROOT=str(run))
            subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True)
            digests.append([
                json.loads((run / name).read_text())["config_digest"]
                for name in ("log.csv.manifest.json", "p.csv.manifest.json")
            ])
        assert digests[0] == digests[1]

    def test_only_evaluate_baseline_loads_scipy(self, workdir):
        # every verb in one fresh interpreter, noting the scipy modules loaded after each
        script = """
import json, sys
from pathlib import Path
import recstrata, recstrata.cli

loaded = []
def note(step):
    loaded.append([step, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])

def run(*argv):
    assert recstrata.cli.main(list(argv)) == 0, argv
    note(" ".join(a for a in argv if a in (argv[0], "--baseline")))

note("import")
run("simulate", "--config", "sim.json", "--out-dir", "sim")
Path("all.csv").write_text(Path("sim/closed_train.csv").read_text()
                           + Path("sim/closed_test.csv").read_text())
run("ingest", "--input", "all.csv", "--out", "closed_all.csv")
run("propensity", "--train", "closed_all.csv", "--out", "prop.csv")
run("stratify", "--propensities", "prop.csv", "--k", "2", "--out", "strata.csv")
evaluate = ("evaluate", "--train", "sim/closed_train.csv", "--models", "POP,BO,GA,MF:4",
            "--epochs", "5")
run(*evaluate, "--test", "sim/closed_test.csv", "--methods", "holdout,ips,stratified",
    "--k", "1,2", "--propensities", "prop.csv", "--out", "closed.jsonl")
run(*evaluate, "--test", "sim/open_test.csv", "--out", "open.jsonl")
run("compare", "--reports", "closed.jsonl", "--open-report", "open.jsonl", "--out", "cmp.jsonl")
run("report", "--report", "closed.jsonl")
run(*evaluate, "--test", "sim/closed_test.csv", "--baseline", "POP", "--out", "base.jsonl")
print(json.dumps(loaded))
"""
        src = str(Path(recstrata.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, RECSTRATA_ROOT=str(workdir))
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=workdir, check=True,
                              capture_output=True, text=True)
        loaded = dict(json.loads(done.stdout.splitlines()[-1]))
        assert list(loaded) == ["import", "simulate", "ingest", "propensity", "stratify",
                                "evaluate", "compare", "report", "evaluate --baseline"]
        baseline = loaded.pop("evaluate --baseline")
        assert loaded == dict.fromkeys(loaded, [])
        assert "scipy.special" in baseline
        assert not {"scipy.stats", "scipy.optimize"} & set(baseline)

    def test_compare_writes_a_fully_tied_group_and_rejects_a_missing_cutoff(self, workdir,
                                                                               capsys):
        closed = TestCorrelationRows().closed()
        closed += [record(m, "stratified", 0.0, K=5) for m in "ABCDE"]
        for name, records in (("closed.jsonl", closed), ("open.jsonl", TestCorrelationRows.OPEN),
                              ("open10.jsonl", TestCorrelationRows.OPEN[4:])):
            with open(workdir / name, "w") as f:
                write_records(records, f)
        assert run_cli("compare", "--reports", "closed.jsonl", "--open-report", "open.jsonl",
                       "--out", "corr.jsonl") == 0
        with open(workdir / "corr.jsonl") as f:
            rows = read_records(f)
        assert [(r["K"], r["p"]) for r in rows if r["K"] == 5] == [(5, None)]
        assert run_cli("compare", "--reports", "closed.jsonl", "--open-report", "open10.jsonl",
                       "--out", "corr10.jsonl") == 2
        assert "no holdout record at cutoff none in the open-loop report" in capsys.readouterr().err
        assert not (workdir / "corr10.jsonl").exists()

    @pytest.mark.parametrize("text, line", [
        ("# gamma=2.0 n_samples=2 x_min=1\na,1,0.5\nb,2\n", "line 3"),
        ("a,1,0.5\nb,2,1.0\n", "line 1"),
        ("# gamma=2.0 n_samples=2 x_min=1\na,1,0.5\nb,2,1.5\n", "line 3"),
    ], ids=["short_row", "no_header", "score_above_one"])
    def test_malformed_propensity_file_is_a_data_error(self, workdir, capsys, text, line):
        (workdir / "prop.csv").write_text(text)
        assert run_cli("stratify", "--propensities", "prop.csv", "--out", "strata.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and line in err


def readme_block(heading, language):
    """The first `language` code block under the README's `heading`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(heading, 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_cli_tour():
    """The `recstrata` commands of the README's CLI tour, one argv each."""
    lines = readme_block("## Quick tour (CLI)", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("recstrata ")]


def test_readme_cli_tour_parses():
    commands = readme_cli_tour()
    assert [argv[1] for argv in commands] == [
        "simulate", "propensity", "stratify", "evaluate", "evaluate", "compare", "report"
    ]
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_library_tour_runs(capsys):
    tour = readme_block("## Quick tour (library)", "python")
    exec(compile(tour, "README.md", "exec"), {})
    hold, strat, per_stratum = capsys.readouterr().out.split(" ", 2)
    assert 0.0 < float(hold) <= 1.0 and 0.0 < float(strat) <= 1.0
    assert per_stratum.startswith("{1: ")


def test_every_name_the_benchmark_tracer_wraps_exists():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, (module, attr) in tracer.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(f"recstrata.{module}"), attr, None)), name
    assert callable(recstrata.models.fit)
    assert "__init__" in vars(Dataset)
    assert "score_array" in vars(recstrata.models.Recommender)
    assert tracer.ALGORITHMS == recstrata.models.ALGORITHMS
