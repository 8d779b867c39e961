"""Layer spans around recstrata's public functions, installed from outside
the package.

Each traced function is replaced, in every recstrata module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent).  Spans stay in memory and are written out when the process ends;
`layer_metrics` turns the spans of one or more processes into the
per-layer metrics the benchmark reports.  Only the standard library is
imported here, so the launcher can time `import recstrata.cli` on its own.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

#: traced module functions: span name -> (module, attribute)
FUNCTIONS = {
    "corpus.parse": ("corpus", "parse_interactions"),
    "corpus.binarize": ("corpus", "binarize"),
    "corpus.write": ("corpus", "write_dataset"),
    "simulator.generate": ("simulator", "generate"),
    "propensity.fit_gamma": ("propensity", "fit_gamma"),
    "propensity.estimate": ("propensity", "estimate_propensities"),
    "propensity.read": ("propensity", "read_propensities"),
    "strata.assign": ("strata", "assign_strata"),
    "strata.weights": ("strata", "stratum_weights"),
    "metrics.rank": ("metrics", "rank_all"),
    "evaluators.holdout": ("evaluators", "holdout_eval"),
    "evaluators.ips": ("evaluators", "ips_eval"),
    "evaluators.per_stratum": ("evaluators", "per_stratum_eval"),
    "evaluators.stratified": ("evaluators", "stratified_eval"),
    "stats.compare": ("stats", "compare_rankings"),
    "workbench.evaluate": ("workbench", "evaluate_models"),
    "workbench.records": ("workbench", "report_records"),
}
ALGORITHMS = ("BO", "GA", "POP", "MF", "BPR", "WMF")
VERBS = ("ingest", "simulate", "propensity", "stratify", "evaluate", "compare", "report")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.rank_pairs: set = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """`fn` recording one span per call; `name` may be a function of the
        call's arguments, `after(args, result)` updates counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                spans[idx] = [label, start, end, parent]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "rank_pairs": len(self.rank_pairs), **extra}, f)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions wherever recstrata's modules look them up."""
    import recstrata.cli  # noqa: F401  (imports every module of the package)
    from recstrata import corpus, models

    modules = [m for n, m in sys.modules.items() if n == "recstrata" or n.startswith("recstrata.")]

    def replace_everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def count_report(args, result):
        tracer.counts["reports"] += 1

    def count_ranking(args, result):
        model, split = args[0], args[1]
        tracer.counts["rank_calls"] += 1
        tracer.counts["users_ranked"] += len(result)
        tracer.rank_pairs.add((model.label, id(split.test)))

    after = {"metrics.rank": count_ranking, "evaluators.holdout": count_report,
             "evaluators.ips": count_report, "evaluators.stratified": count_report}
    for name, (module_name, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[f"recstrata.{module_name}"], attr)
        replace_everywhere(original, tracer.wrap(name, original, after.get(name)))

    fit = models.fit
    replace_everywhere(fit, tracer.wrap(
        lambda *a, **kw: "models.fit." + (a[0] if a else kw["config"]).algorithm, fit))

    def count_rows(args, result):
        tracer.counts["rows"] += len(args[0])

    corpus.Dataset.__init__ = tracer.wrap(
        "corpus.dataset", corpus.Dataset.__init__, count_rows)
    for cls in vars(models).values():
        if isinstance(cls, type) and issubclass(cls, models.Recommender) \
                and "score_array" in vars(cls):
            cls.score_array = tracer.wrap("models.score", vars(cls)["score_array"])


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the dumps of every traced process of a round.

    Times are self times (a span's duration minus its children's), except
    `cli.<verb>_s`, which is the whole verb, and `cli.import_s`, the
    launcher's `import recstrata.cli`.  Layers a workload does not reach
    read 0.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    pairs = 0
    import_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, parent), inner in zip(spans, child_s):
            total = end - start
            self_s[name] += total if name.startswith("cli.") else total - inner
            calls[name] += 1
        counts.update(trace["counts"])
        pairs += trace["rank_pairs"]
        import_s += trace.get("import_s", 0.0)

    out: dict[str, float] = {}
    for name in ("corpus.parse", "corpus.binarize", "corpus.write", "corpus.dataset"):
        out[f"{name}_s"] = self_s[name]
    out["corpus.rows"] = counts["rows"]
    out["simulator.generate_s"] = self_s["simulator.generate"]
    for name in ("propensity.fit_gamma", "propensity.estimate", "propensity.read",
                 "strata.assign", "strata.weights"):
        out[f"{name}_s"] = self_s[name]
    out["models.fit_s"] = sum(self_s[f"models.fit.{a}"] for a in ALGORITHMS)
    for a in ALGORITHMS:
        out[f"models.fit.{a}_s"] = self_s[f"models.fit.{a}"]
    out["models.fits"] = sum(calls[f"models.fit.{a}"] for a in ALGORITHMS)
    out["models.score_s"] = self_s["models.score"]
    out["models.score_calls"] = calls["models.score"]
    out["metrics.rank_s"] = self_s["metrics.rank"]
    out["metrics.rank_calls"] = counts["rank_calls"]
    out["metrics.users_ranked"] = counts["users_ranked"]
    out["metrics.rank_passes"] = counts["rank_calls"] / pairs if pairs else 0.0
    for name in ("holdout", "ips", "per_stratum", "stratified"):
        out[f"evaluators.{name}_s"] = self_s[f"evaluators.{name}"]
    out["evaluators.reports"] = counts["reports"]
    out["stats.compare_s"] = self_s["stats.compare"]
    out["workbench.evaluate_s"] = self_s["workbench.evaluate"]
    out["workbench.records_s"] = self_s["workbench.records"]
    for verb in VERBS:
        out[f"cli.{verb}_s"] = self_s[f"cli.{verb}"]
    out["cli.import_s"] = import_s
    return out
