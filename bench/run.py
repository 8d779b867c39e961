"""recstrata benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see bench/README.md):

* study:       one seed of the open-loop agreement study, in-process;
* cli_sweep:   the documented CLI pipeline with a K sweep and two cutoffs;
* paper_scale: Yahoo!-R3-shaped raw ratings through ingest ... compare.

A run makes three cold set-ups (fresh interpreters importing recstrata.cli),
the workload's inputs, and then whole rounds of the workload's pipeline, at
least two and more while the next still fits in S seconds from the
start; it checks every round's outputs and prints one JSON object as its
last line.  A round is a fixed sequence of steps (a CLI verb after its
import, or one model of the study).  With --trace 0 the metrics are wall_s
(the sum over steps of each step's fastest time over the rounds, plus, on
the CLI workloads, one cold set-up per timed verb), setup_s (the fastest
cold set-up, from every program process of the run; see Runner) and
peak_rss_mb; with --trace 1 two untraced and two traced rounds, in turn,
give the tracing overhead, and the last traced round the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from launch import IMPORT_DONE  # noqa: E402
from tracer import layer_metrics  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
PROCESS_TIMEOUT_S = 150
SETUP_REPEATS = 3
# a fresh interpreter that imports the CLI, prints the time it was done and
# marks the end of its set-up, as launch.py and study.py do
SETUP_ENTRY = ("import sys, time, recstrata.cli; print(time.perf_counter()); "
               f"print({IMPORT_DONE!r}, file=sys.stderr)")
NO_PROPENSITY = "no propensity for test item"
# one line of `python3 -X importtime`: self time in us, cumulative, module
IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$")


class Runner:
    """Starts program processes one at a time, in the benchmark's environment,
    and keeps the timings of their cold set-ups.

    Every program process is a fresh interpreter that imports `recstrata.cli`
    (about a second, almost all of it numpy and scipy) before it does any
    work: a cold set-up.  It runs under `-X importtime`, which times each
    module's import on its own, and marks the end of its set-up with
    IMPORT_DONE on standard error.  A cold set-up's fastest time is then the
    fastest interpreter start without imports, plus each imported module's
    fastest time, over every process of the run: on a host whose speed
    drifts, a sum of minima over short units drifts about half as much as
    the minimum of one-second units does.
    """

    def __init__(self):
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            # OpenBLAS's own default (one thread per core), set so that an
            # inherited environment cannot change it
            "OPENBLAS_NUM_THREADS": str(self.threads),
            "OMP_NUM_THREADS": str(self.threads),
        })
        self.module_s: dict[str, float] = {}  # module -> fastest import self time
        self.bare_starts: list[float] = []  # cold set-ups less their imports
        self._last_import_s = 0.0

    def run(self, argv: list[str], root: Path) -> tuple[int, str, str]:
        """Run one program process; its standard error comes back without the
        import timings."""
        env = dict(self.env, RECSTRATA_ROOT=str(root))
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:  # run() has killed and reaped the process
            return -1, "", f"timed out after {e.timeout} s"
        rest, imports, done = [], {}, False
        for line in proc.stderr.splitlines(keepends=True):
            m = IMPORT_LINE.match(line)
            if m:
                if not done:
                    imports[m[2]] = int(m[1]) / 1e6
            elif line.rstrip("\n") == IMPORT_DONE:
                done = True
            elif not line.startswith("import time:"):
                rest.append(line)
        self._last_import_s = sum(imports.values())
        if done:
            for module, seconds in imports.items():
                self.module_s[module] = min(seconds, self.module_s.get(module, seconds))
        return proc.returncode, proc.stdout, "".join(rest)

    def cold_start(self, started: float, imported: float) -> None:
        """Note the cold set-up of the last process run: started before the
        process was, its import done at `imported` (the monotonic clock is
        the same in every process)."""
        self.bare_starts.append(imported - started - self._last_import_s)

    def setup_s(self) -> float:
        return min(self.bare_starts) + sum(self.module_s.values())

    def set_up(self) -> None:
        """A few cold set-ups before the first round."""
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            rc, out, err = self.run(["-c", SETUP_ENTRY], ROOT)
            if rc != 0:
                raise SystemExit(f"cannot import recstrata: {err.strip()}")
            self.cold_start(start, float(out))


class Round:
    """One pass of a workload's pipeline: its timing, operations and problems."""

    def __init__(self, runner: Runner, directory: Path, traced: bool):
        self.runner, self.dir, self.traced = runner, directory, traced
        self.attempted = self.failed = 0
        self.wall_s = 0.0
        self.steps: list[float] = []  # seconds per timed step, in pipeline order
        self.timed_verbs = 0  # CLI verbs among the steps, each its own interpreter
        self.problems: list[str] = []
        self.span_files: list[Path] = []
        directory.mkdir(parents=True)

    def verb(self, *argv: str, expect_error: str | None = None) -> str:
        """Run one CLI verb in its own interpreter; a verb that fails with
        `expect_error` is counted as failed without being a problem, and is
        outside the timed pipeline."""
        self.attempted += 1
        record = self.dir / f"verb{self.attempted}.json"
        start = time.perf_counter()
        rc, out, err = self.runner.run([str(BENCH / "launch.py"), str(record), str(int(self.traced)), *argv],
                                       self.dir)
        end = time.perf_counter()
        if rc != 0:
            self.failed += 1
            if expect_error is None or expect_error not in err:
                self.problems.append(f"{argv[0]} exited {rc}: {err.strip()[-300:]}")
        try:
            imported = json.loads(record.read_text())["imported"]
        except (OSError, ValueError, KeyError) as e:
            self.problems.append(f"{argv[0]} left no launch record: {e}")
            return out
        # the verb's step is its wall time after the import; the cold start
        # before it is the same in every verb, so it is counted once per verb
        # at the run's fastest (see fastest_wall)
        self.runner.cold_start(start, imported)
        if expect_error is None:
            self.steps.append(end - imported)
            self.timed_verbs += 1
        if self.traced:
            self.span_files.append(record)
        return out

    def verify(self, fn, *args) -> None:
        """Run a workload's checks on this round's outputs; the first failed
        check, or an output that is missing or unreadable, is a problem."""
        try:
            fn(self.dir, *args)
        except (checks.CheckError, OSError, KeyError, ValueError, IndexError) as e:
            self.problems.append(f"{type(e).__name__}: {e}")

    def traces(self) -> list[dict]:
        return [json.loads(p.read_text()) for p in self.span_files if p.exists()]


STUDY_OPERATIONS = 33  # one per roster model: fit, two rankings, every estimator


def study_round(rnd: Round, seed: int, prepared) -> None:
    argv = [str(BENCH / "study.py"), str(seed), str(rnd.dir)]
    if rnd.traced:
        rnd.span_files.append(rnd.dir / "spans.json")
        argv.append(str(rnd.span_files[0]))
    rnd.attempted = STUDY_OPERATIONS
    start = time.perf_counter()
    rc, _, err = rnd.runner.run(argv, rnd.dir)
    if rc != 0:
        rnd.failed = STUDY_OPERATIONS
        rnd.problems.append(f"study exited {rc}: {err.strip()[-300:]}")
        return
    timing = json.loads((rnd.dir / "timing.json").read_text())
    rnd.wall_s, rnd.steps = timing["wall_s"], timing["steps"]
    rnd.runner.cold_start(start, timing["imported"])
    rnd.verify(verify_study)


def verify_study(d: Path) -> None:
    closed, open_ = checks.read_records(d / "closed.jsonl"), checks.read_records(d / "open.jsonl")
    train, test = checks.read_log(d / "closed_train.csv"), checks.read_log(d / "closed_test.csv")
    checks.check_pop_holdout(closed, train, test)
    checks.check_pop_holdout(open_, train, checks.read_log(d / "open_test.csv"))
    checks.check_tau(checks.read_records(d / "corr.jsonl"), closed, open_)
    checks.check_k1_equals_holdout(closed)
    checks.check_ips_ge_holdout(closed)
    for K, stratum_of in json.loads((d / "strata.json").read_text()).items():
        checks.check_strata_weights(closed, int(K), stratum_of, test[1])


CLI_SWEEP_MODELS = "BO,GA,POP,MF:10,BPR:10,WMF:10"


def prepare_cli_sweep(runner: Runner, directory: Path, seed: int, seconds: int) -> dict:
    directory.mkdir(parents=True)
    inputs.write_sim_config(directory / "sim.json", seed)
    # the README's documented step, first half: propensities fitted on the
    # train file alone (the same file on every run)
    train, test = inputs.write_train_only_case(directory / "train_only")
    prop = directory / "train_only" / "prop_train.csv"
    rc, _, err = runner.run([str(BENCH / "launch.py"), str(directory / "propensity.json"), "0",
                             "propensity", "--train", str(train), "--out", str(prop)], directory)
    if rc != 0:
        raise SystemExit(f"propensity on {train} exited {rc}: {err.strip()[-300:]}")
    return {"config": directory / "sim.json", "train_only": (train, test, prop)}


def cli_sweep_round(rnd: Round, seed: int, prepared: dict) -> None:
    start = time.perf_counter()
    rnd.verb("simulate", "--config", str(prepared["config"]), "--out-dir", "sim")
    concatenate(rnd.dir / "closed_all.csv", rnd.dir / "sim/closed_train.csv",
                rnd.dir / "sim/closed_test.csv")
    rnd.verb("propensity", "--train", "closed_all.csv", "--out", "prop.csv")
    rnd.verb("stratify", "--propensities", "prop.csv", "--k", "2", "--out", "strata.csv")
    rnd.verb("evaluate", "--train", "sim/closed_train.csv", "--test", "sim/closed_test.csv",
             "--models", CLI_SWEEP_MODELS, "--epochs", "5", "--methods", "holdout,ips,stratified",
             "--k", "1,2", "--cutoffs", "none,10", "--propensities", "prop.csv",
             "--baseline", "POP", "--out", "closed.jsonl", "--table", "closed.tsv")
    rnd.verb("evaluate", "--train", "sim/closed_train.csv", "--test", "sim/open_test.csv",
             "--models", CLI_SWEEP_MODELS, "--epochs", "5", "--methods", "holdout",
             "--cutoffs", "none,10", "--out", "open.jsonl")
    rnd.verb("compare", "--reports", "closed.jsonl", "--open-report", "open.jsonl",
             "--scatter", "scatter.tsv", "--out", "corr.jsonl")
    rnd.verb("report", "--report", "closed.jsonl")
    rnd.wall_s = time.perf_counter() - start
    # the documented step's second half, untimed: IPS with those propensities
    # on a test file holding an item train never saw
    train, test, prop = prepared["train_only"]
    rnd.verb("evaluate", "--train", str(train), "--test", str(test), "--models", "POP",
             "--methods", "ips", "--propensities", str(prop), "--out", "train_only.jsonl",
             expect_error=NO_PROPENSITY)
    rnd.verify(verify_cli_sweep)


def verify_cli_sweep(d: Path) -> None:
    closed, open_ = checks.read_records(d / "closed.jsonl"), checks.read_records(d / "open.jsonl")
    train, test = checks.read_log(d / "sim/closed_train.csv"), checks.read_log(d / "sim/closed_test.csv")
    checks.check_pop_holdout(closed, train, test)
    checks.check_pop_holdout(open_, train, checks.read_log(d / "sim/open_test.csv"))
    checks.check_tau(checks.read_records(d / "corr.jsonl"), closed, open_)
    checks.check_k1_equals_holdout(closed)
    checks.check_ips_ge_holdout(closed)
    checks.check_strata_weights(closed, 2, checks.read_strata(d / "strata.csv"), test[1])
    checks.check_propensities(checks.read_propensities(d / "prop.csv"))


PAPER_MODELS = "POP,BO,MF:10,WMF:10"
PAPER_FILES = ("closed_train", "closed_test", "open_test")


def prepare_paper_scale(runner: Runner, directory: Path, seed: int, seconds: int) -> dict:
    expected = inputs.write_paper_logs(directory, seed, inputs.paper_users(seconds))
    return {"dir": directory, "expected": expected}


def paper_scale_round(rnd: Round, seed: int, prepared: dict) -> None:
    raw = prepared["dir"]
    start = time.perf_counter()
    summaries = {name: rnd.verb("ingest", "--input", str(raw / f"{name}.tsv"), "--out", f"{name}.csv",
                                "--delimiter", "\t", "--loop", "open" if name == "open_test" else "closed")
                 for name in PAPER_FILES}
    concatenate(rnd.dir / "closed_all.csv", rnd.dir / "closed_train.csv", rnd.dir / "closed_test.csv")
    rnd.verb("propensity", "--train", "closed_all.csv", "--out", "prop.csv")
    rnd.verb("stratify", "--propensities", "prop.csv", "--k", "2", "--out", "strata.csv")
    rnd.verb("evaluate", "--train", "closed_train.csv", "--test", "closed_test.csv",
             "--models", PAPER_MODELS, "--epochs", "5", "--methods", "holdout,ips,stratified",
             "--k", "2", "--cutoffs", "10", "--propensities", "prop.csv", "--baseline", "POP",
             "--out", "closed.jsonl")
    rnd.verb("evaluate", "--train", "closed_train.csv", "--test", "open_test.csv",
             "--models", PAPER_MODELS, "--epochs", "5", "--methods", "holdout", "--cutoffs", "10",
             "--out", "open.jsonl")
    rnd.verb("compare", "--reports", "closed.jsonl", "--open-report", "open.jsonl",
             "--out", "corr.jsonl")
    rnd.wall_s = time.perf_counter() - start
    rnd.verify(verify_paper_scale, raw, summaries, prepared["expected"])


def verify_paper_scale(d: Path, raw: Path, summaries: dict, expected: dict) -> None:
    for name in PAPER_FILES:
        checks.check_ingest(summaries[name], d / f"{name}.csv", expected[name])
    checks.check_propensities(checks.read_propensities(d / "prop.csv"))
    closed, open_ = checks.read_records(d / "closed.jsonl"), checks.read_records(d / "open.jsonl")
    train, test = checks.read_log(raw / "closed_train.tsv", "\t"), checks.read_log(raw / "closed_test.tsv", "\t")
    checks.check_pop_holdout(closed, train, test)
    checks.check_pop_holdout(open_, train, checks.read_log(raw / "open_test.tsv", "\t"))
    checks.check_tau(checks.read_records(d / "corr.jsonl"), closed, open_)
    checks.check_ips_ge_holdout(closed)
    checks.check_strata_weights(closed, 2, checks.read_strata(d / "strata.csv"), test[1])


def concatenate(out: Path, *parts: Path) -> None:
    with open(out, "wb") as f:
        for part in parts:
            if part.exists():
                f.write(part.read_bytes())


# name -> (prepare inputs, play one round); a timed run makes at least
# MIN_ROUNDS rounds, so that each step's minimum is taken over more than one
# timing even when the host is slow for the whole run, and no more, so that
# a slow run still ends near its --seconds
WORKLOADS = {
    "study": (lambda runner, d, seed, seconds: None, study_round),
    "cli_sweep": (prepare_cli_sweep, cli_sweep_round),
    "paper_scale": (prepare_paper_scale, paper_scale_round),
}
MIN_ROUNDS = 2


def fastest_wall(rounds: list[Round], setup_s: float) -> float:
    """The pipeline's wall time with each step at its fastest over the rounds.

    On the CLI workloads each timed verb also pays a cold set-up, counted
    at the run's fastest, `setup_s`.
    """
    return sum(map(min, zip(*(r.steps for r in rounds)))) + rounds[0].timed_verbs * setup_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + args.seconds
    if not (ROOT / "src" / "recstrata" / "__init__.py").is_file():
        print(f"no recstrata sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    runner = Runner()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, env=runner.env, stdout=subprocess.DEVNULL)
    runner.set_up()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    prepare, play = WORKLOADS[args.workload]
    prepared = prepare(runner, work / "inputs", args.seed, args.seconds)

    rounds: list[Round] = []

    def one_round(traced: bool) -> Round:
        rnd = Round(runner, work / f"round{len(rounds)}", traced)
        play(rnd, args.seed, prepared)
        rounds.append(rnd)
        return rnd

    if args.trace:
        # untraced and traced rounds alternate, so that neither side gets
        # all of a run's first, slower round
        pairs = [(one_round(False), one_round(True)) for _ in range(2)]
        setup_s = runner.setup_s()
        plain = fastest_wall([p for p, _ in pairs], setup_s)
        traced = fastest_wall([t for _, t in pairs], setup_s)
        traces = pairs[-1][1].traces()
        overhead = traced - plain
        print(f"trace overhead: traced wall {traced:.3f} s, untraced {plain:.3f} s, "
              f"overhead {overhead:.3f} s ({100 * overhead / plain:.1f}%), "
              f"{sum(len(t['spans']) for t in traces)} spans per traced round")
        layers = layer_metrics(traces)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    else:
        # set-up, inputs and rounds together take about --seconds: another
        # round starts while the last one's time still fits
        while True:
            began = time.perf_counter()
            one_round(False)
            cost = time.perf_counter() - began
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() + cost > deadline:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup_s = runner.setup_s()
        metrics = {
            "wall_s": {"value": fastest_wall(rounds, setup_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MiB"},
        }
    for rnd in rounds[:-1]:
        shutil.rmtree(rnd.dir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"rounds {len(rounds)}, walls {[round(r.wall_s, 3) for r in rounds]}, "
          f"BLAS threads {runner.threads}")
    print(f"cold set-ups: {len(runner.bare_starts)}, fastest bare start {min(runner.bare_starts):.4f} s, "
          f"{len(runner.module_s)} modules")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
