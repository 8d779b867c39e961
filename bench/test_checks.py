"""Each correctness check passes on the program's real output and fails when
one value of that output is nudged.

    python3 -m pytest bench -q
"""

import copy
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from recstrata import cli  # noqa: E402

MODELS = "POP,BO,GA,MF:5,WMF:5"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small run of the cli_sweep pipeline plus one paper_scale ingest."""
    d = tmp_path_factory.mktemp("pipeline")
    mp = pytest.MonkeyPatch()
    mp.setenv("RECSTRATA_ROOT", str(d))
    (d / "sim.json").write_text('{"n_users": 150, "n_items": 60, "sessions": 3, "seed": 5}')
    expected = inputs.write_paper_logs(d / "raw", seed=5, n_users=40)
    argvs = [
        ["simulate", "--config", "sim.json", "--out-dir", "sim"],
        ["propensity", "--train", "all.csv", "--out", "prop.csv"],
        ["stratify", "--propensities", "prop.csv", "--k", "2", "--out", "strata.csv"],
        ["evaluate", "--train", "sim/closed_train.csv", "--test", "sim/closed_test.csv",
         "--models", MODELS, "--epochs", "2", "--methods", "holdout,ips,stratified",
         "--k", "1,2", "--cutoffs", "none,10", "--propensities", "prop.csv",
         "--baseline", "POP", "--out", "closed.jsonl"],
        ["evaluate", "--train", "sim/closed_train.csv", "--test", "sim/open_test.csv",
         "--models", MODELS, "--epochs", "2", "--cutoffs", "none,10", "--out", "open.jsonl"],
        ["compare", "--reports", "closed.jsonl", "--open-report", "open.jsonl", "--out", "corr.jsonl"],
        ["ingest", "--input", str(d / "raw/closed_train.tsv"), "--delimiter", "\t",
         "--out", "ingested.csv"],
    ]
    try:
        for argv in argvs:
            if argv[0] == "propensity":
                (d / "all.csv").write_bytes((d / "sim/closed_train.csv").read_bytes()
                                            + (d / "sim/closed_test.csv").read_bytes())
            assert cli.main(argv) == 0, argv
    finally:
        mp.undo()
    return {
        "closed": checks.read_records(d / "closed.jsonl"),
        "open": checks.read_records(d / "open.jsonl"),
        "corr": checks.read_records(d / "corr.jsonl"),
        "train": checks.read_log(d / "sim/closed_train.csv"),
        "test": checks.read_log(d / "sim/closed_test.csv"),
        "open_test": checks.read_log(d / "sim/open_test.csv"),
        "strata": checks.read_strata(d / "strata.csv"),
        "prop": checks.read_propensities(d / "prop.csv"),
        "ingested": d / "ingested.csv",
        "ingest_summary": f"ingested x: {expected['closed_train']['users']} users, "
                          f"{expected['closed_train']['items']} items, "
                          f"{expected['closed_train']['rows']} interactions (closed loop)",
        "expected": expected["closed_train"],
    }


CHECKS = {
    "pop_closed": lambda o: checks.check_pop_holdout(o["closed"], o["train"], o["test"]),
    "pop_open": lambda o: checks.check_pop_holdout(o["open"], o["train"], o["open_test"]),
    "tau": lambda o: checks.check_tau(o["corr"], o["closed"], o["open"]),
    "k1": lambda o: checks.check_k1_equals_holdout(o["closed"]),
    "ips": lambda o: checks.check_ips_ge_holdout(o["closed"]),
    "strata": lambda o: checks.check_strata_weights(o["closed"], 2, o["strata"], o["test"][1]),
    "propensities": lambda o: checks.check_propensities(o["prop"]),
    "ingest": lambda o: checks.check_ingest(o["ingest_summary"], o["ingested"], o["expected"]),
}


def first(records, **match):
    return next(r for r in records if all(r.get(k) == v for k, v in match.items()))


def nudge(x: float) -> float:
    return math.nextafter(x, math.inf) + 1e-9


def pop_closed(o):
    first(o["closed"], model="POP", method="holdout", cutoff=10)["overall"] += 1e-9


def pop_open(o):
    first(o["open"], model="POP", method="holdout", cutoff=10)["overall"] -= 1e-9


def tau(o):
    o["corr"][0]["tau_open_method"] += 1e-9


def tau_missing_group(o):
    del o["corr"][-1]


def k1(o):
    rec = first(o["closed"], method="stratified", K=1, cutoff=None)
    rec["overall"] = math.nextafter(rec["overall"], 0.0)


def ips(o):
    rec = first(o["closed"], method="ips", cutoff=10)
    hold = first(o["closed"], method="holdout", cutoff=10, model=rec["model"])
    rec["overall"] = math.nextafter(hold["overall"], -math.inf)


def stratum_weight(o):
    rec = first(o["closed"], method="stratified", K=2)
    rec["per_stratum"]["1"]["weight"] += 1e-9


def stratum_value(o):
    rec = first(o["closed"], method="stratified", K=2, cutoff=10)
    entry = next(e for e in rec["per_stratum"].values() if e["value"] is not None)
    entry["value"] += 1e-9


def prop_max(o):
    item, count, score = max(o["prop"], key=lambda r: r[2])
    o["prop"].remove((item, count, score))
    o["prop"].append((item, count, math.nextafter(1.0, 0.0)))


def prop_order(o):
    rows = sorted(o["prop"], key=lambda r: r[1])
    low, mid = rows[0], rows[len(rows) // 2]
    assert low[1] < mid[1] and mid[2] < 1.0
    o["prop"].remove(low)
    o["prop"].append((low[0], low[1], nudge(mid[2])))


def ingest_rows(o):
    o["expected"]["rows"] += 1


def ingest_relevant(o, tmp_path):
    lines = o["ingested"].read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if int(line.rsplit(",", 1)[1]) >= 4)
    user, item, _ = lines[k].split(",")
    lines[k] = f"{user},{item},3"
    o["ingested"] = tmp_path / "ingested.csv"
    o["ingested"].write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_passes_on_program_output(outputs, name):
    CHECKS[name](outputs)


@pytest.mark.parametrize("corrupt, name", [
    (pop_closed, "pop_closed"), (pop_open, "pop_open"), (tau, "tau"), (tau_missing_group, "tau"),
    (k1, "k1"), (ips, "ips"), (stratum_weight, "strata"), (stratum_value, "strata"),
    (prop_max, "propensities"), (prop_order, "propensities"), (ingest_rows, "ingest"),
    (ingest_relevant, "ingest"),
])
def test_check_fails_on_nudged_output(outputs, corrupt, name, tmp_path):
    o = copy.deepcopy(outputs)
    if corrupt is ingest_relevant:
        corrupt(o, tmp_path)
    else:
        corrupt(o)
    with pytest.raises(checks.CheckError):
        CHECKS[name](o)
