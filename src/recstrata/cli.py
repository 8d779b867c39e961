"""Command-line workbench: ingest, simulate, propensity, stratify, train,
evaluate, compare, report.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical error. Paths are resolved against $RECSTRATA_ROOT when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import corpus, models, propensity, simulator, strata, workbench
from .evaluators import EvaluationError
from .metrics import MetricSpec
from .models import FitError, ModelConfig
from .propensity import EstimationError
from .simulator import SimConfigError
from .stats import StatsError
from .strata import AssignmentError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _root() -> Path:
    return Path(os.environ.get("RECSTRATA_ROOT", "."))


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _root() / p


def _load_dataset(path: str) -> corpus.Dataset:
    """A closed-loop log in canonical form, binarized at the default threshold."""
    with open(_resolve(path), encoding="utf-8") as f:
        ds = corpus.parse_interactions(f)
    return corpus.binarize(ds)


def _write_dataset(ds: corpus.Dataset, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        corpus.write_dataset(ds, f)


def _config(args) -> dict:
    """A verb's options for its manifest, without the handler function, whose
    repr holds a memory address that differs from run to run."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _summary(ds: corpus.Dataset) -> str:
    return (
        f"{len(ds.users)} users, {len(ds.items)} items, "
        f"{len(ds)} interactions ({ds.loop_kind.value} loop)"
    )


def cmd_ingest(args) -> int:
    schema = corpus.ColumnSchema(user=args.user_col, item=args.item_col, rating=args.rating_col)
    with open(_resolve(args.input), encoding="utf-8") as f:
        ds = corpus.parse_interactions(
            f, schema=schema, delimiter=args.delimiter, loop_kind=corpus.LoopKind(args.loop)
        )
    out = _resolve(args.out)
    _write_dataset(ds, out)
    workbench.write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        command="ingest",
        config=_config(args),
        inputs=[_resolve(args.input)],
        artifacts=[out],
    )
    print(f"ingested {args.input}: {_summary(ds)} -> {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    with open(_resolve(args.config), encoding="utf-8") as f:
        raw = json.load(f)
    config = simulator.SimConfig(**raw)
    log = simulator.generate(config)
    out_dir = _resolve(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, ds in (
        ("closed_train", log.closed_train),
        ("closed_test", log.closed_test),
        ("open_test", log.open_test),
    ):
        paths[name] = out_dir / f"{name}.csv"
        _write_dataset(ds, paths[name])
    exposure_path = out_dir / "exposure_counts.csv"
    with open(exposure_path, "w", encoding="utf-8") as f:
        for item in log.items:
            f.write(f"{item},{log.exposure_counts[item]}\n")
    workbench.write_manifest(
        out_dir / "manifest.json",
        command="simulate",
        config=dataclasses.asdict(config),
        inputs=[_resolve(args.config)],
        artifacts=[*paths.values(), exposure_path],
        seeds=[config.seed],
    )
    skew = simulator.audit_skew(log)
    print(f"simulated: closed_train {_summary(log.closed_train)}")
    print(f"           closed_test  {_summary(log.closed_test)}")
    print(f"           open_test    {_summary(log.open_test)}")
    print(f"           exposure gini {skew.exposure_gini:.3f}, "
          f"head share {skew.head_interaction_share:.3f}")
    return EXIT_OK


def cmd_propensity(args) -> int:
    ds = _load_dataset(args.train)
    gamma = propensity.fit_gamma(ds.item_counts, x_min=args.x_min, method=args.method)
    table = propensity.estimate_propensities(ds, gamma)
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        propensity.write_propensities(table, f)
    workbench.write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        command="propensity",
        config=_config(args),
        inputs=[_resolve(args.train)],
        artifacts=[out],
    )
    print(f"gamma={gamma.gamma:.4f} over {gamma.n_samples} items -> {out}")
    return EXIT_OK


def cmd_stratify(args) -> int:
    with open(_resolve(args.propensities), encoding="utf-8") as f:
        table = propensity.read_propensities(f)
    assignment = strata.assign_strata(table, args.k)
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        strata.write_assignment(assignment, table, f)
    counts = Counter(assignment.stratum_of.values())
    sizes = {s: counts[s] for s in range(1, args.k + 1)}
    print(f"K={args.k} strata sizes {sizes} -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    train = _load_dataset(args.train)
    config = ModelConfig(
        algorithm=args.algorithm,
        latent_size=args.latent_size,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        regularization=args.regularization,
        confidence_alpha=args.confidence_alpha,
        seed=args.seed,
    )
    model = models.fit(config, train)
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    models.save_model(model, str(out))
    workbench.write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        command="train",
        config=model.get_params(),
        inputs=[_resolve(args.train)],
        artifacts=[out],
        seeds=[config.seed],
    )
    print(f"trained {model.label} -> {out}")
    return EXIT_OK


def _parse_model_specs(spec_text: str, base: ModelConfig) -> list[ModelConfig]:
    configs = []
    for part in spec_text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            alg, size = part.split(":", 1)
            configs.append(dataclasses.replace(base, algorithm=alg, latent_size=int(size)))
        else:
            configs.append(dataclasses.replace(base, algorithm=part))
    return configs


def _parse_cutoffs(text: str) -> list[int | None]:
    out: list[int | None] = []
    for part in text.split(","):
        part = part.strip().lower()
        out.append(None if part in ("none", "full", "") else int(part))
    return out


def cmd_evaluate(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    k_values = [int(k) for k in str(args.k).split(",") if k.strip()]
    specs = [MetricSpec(cutoff=c) for c in _parse_cutoffs(args.cutoffs)]
    workbench.check_request(methods, k_values)
    table = None
    if args.propensities:
        with open(_resolve(args.propensities), encoding="utf-8") as f:
            table = propensity.read_propensities(f)
    elif "ips" in methods or "stratified" in methods:
        print(
            "ips/stratified evaluation needs --propensities; "
            "run `recstrata propensity` first",
            file=sys.stderr,
        )
        return EXIT_USAGE

    train = _load_dataset(args.train)
    test = _load_dataset(args.test)
    trained: list[models.Recommender] = []
    if args.model_files:
        trained = [models.load_model(p) for p in args.model_files]
    elif args.models:
        base = ModelConfig(
            algorithm="POP",
            learning_rate=args.learning_rate,
            epochs=args.epochs,
            regularization=args.regularization,
            confidence_alpha=args.confidence_alpha,
            seed=args.seed,
        )
        trained = [models.fit(cfg, train) for cfg in _parse_model_specs(args.models, base)]
    if not trained:
        print("no models given: use --models or --model-files", file=sys.stderr)
        return EXIT_USAGE

    records = workbench.evaluate_models(
        trained, corpus.Split(train=train, test=test), specs,
        methods=methods, ks=k_values, propensities=table, baseline=args.baseline,
    )
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        workbench.write_records(records, f)
    if args.table:
        with open(_resolve(args.table), "w", encoding="utf-8") as f:
            workbench.write_table(records, f)
    workbench.write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        command="evaluate",
        config=_config(args),
        inputs=[_resolve(args.train), _resolve(args.test)],
        artifacts=[out],
        seeds=[args.seed],
    )
    print(f"wrote {len(records)} evaluation records -> {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    with open(_resolve(args.open_report), encoding="utf-8") as f:
        open_records = workbench.read_records(f)
    closed_records: list[dict] = []
    for path in args.reports:
        with open(_resolve(path), encoding="utf-8") as f:
            closed_records.extend(workbench.read_records(f))
    rows, scatter_rows = workbench.correlation_rows(closed_records, open_records)
    out = _resolve(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        workbench.write_records(rows, f)
    if args.scatter:
        with open(_resolve(args.scatter), "w", encoding="utf-8") as f:
            f.write("cutoff\tmodel\topen_score\tclosed_score\n")
            for row in scatter_rows:
                f.write("\t".join(str(v) for v in row) + "\n")
    print(f"wrote {len(rows)} correlation records -> {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    with open(_resolve(args.report), encoding="utf-8") as f:
        records = workbench.read_records(f)
    workbench.write_table(records, sys.stdout)
    flagged = workbench.simpson_flags(records)
    for flag in flagged:
        print(
            f"SIMPSON at {MetricSpec(cutoff=flag['cutoff']).label}, K={flag['K']}: "
            f"holdout prefers {flag['holdout_winner']} but "
            f"{flag['stratum_winner']} wins stratum {flag['stratum']} "
            f"(weight {flag['stratum_weight']:.3f})"
        )
    if not flagged:
        print("no Simpson reversals flagged")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="recstrata", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an interaction log into canonical form")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loop", choices=["closed", "open"], default="closed")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--user-col", type=int, default=0)
    p.add_argument("--item-col", type=int, default=1)
    p.add_argument("--rating-col", type=int, default=2)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("simulate", help="generate closed/open loop feedback")
    p.add_argument("--config", required=True, help="JSON file of simulator settings")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("propensity", help="fit gamma and per-item propensities")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["mle", "approximate"], default="mle")
    p.add_argument("--x-min", type=int, default=1)
    p.set_defaults(func=cmd_propensity)

    p = sub.add_parser("stratify", help="partition items into propensity strata")
    p.add_argument("--propensities", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("train", help="fit one model and save it")
    p.add_argument("--train", required=True)
    p.add_argument("--algorithm", required=True, choices=list(models.ALGORITHMS))
    p.add_argument("--latent-size", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--regularization", type=float, default=0.01)
    p.add_argument("--confidence-alpha", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run estimators over a model set")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--models", help="comma list, e.g. 'POP,MF:10,BPR:20'")
    p.add_argument("--model-files", nargs="*")
    p.add_argument("--methods", default="holdout")
    p.add_argument("--k", default="2", help="strata count, or a comma list for a strata sweep")
    p.add_argument("--cutoffs", default="none")
    p.add_argument("--propensities")
    p.add_argument("--baseline", help="model label for paired t-test markers")
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--regularization", type=float, default=0.01)
    p.add_argument("--confidence-alpha", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="rank correlations against an open-loop report")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--open-report", required=True)
    p.add_argument("--scatter", help="TSV path for per-model open/closed scatter data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="print a stored evaluation report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (SimConfigError, ValueError) as e:
        if isinstance(e, (corpus.ParseError, corpus.SplitError, AssignmentError,
                          EvaluationError)):
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        if isinstance(e, (EstimationError, StatsError)):
            print(f"numerical error: {e}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FitError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
