"""recstrata: a workbench for offline recommender evaluation under
feedback-loop exposure bias.

Modules: corpus (interaction logs and splits), propensity (power-law
exposure model), strata (propensity-mass partitions), metrics (ranking and
nDCG), models (recommender roster), evaluators (holdout / inverse-propensity
/ stratified estimators), stats (rank correlation and dependent-correlation
tests), simulator (closed vs open loop feedback generation), workbench
(orchestration, manifests, reports) and cli.
"""

from .corpus import Dataset, Interaction, LoopKind, Split, binarize, split_holdout
from .evaluators import EvalReport, holdout_eval, ips_eval, per_stratum_eval, stratified_eval
from .metrics import MetricSpec, ndcg, rank_all
from .models import ALGORITHMS, ModelConfig, fit, sweep
from .propensity import estimate_propensities, fit_gamma
from .simulator import SimConfig, generate
from .stats import compare_rankings, kendall_tau_b, steiger_test
from .strata import assign_strata, stratum_weights

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Dataset",
    "EvalReport",
    "Interaction",
    "LoopKind",
    "MetricSpec",
    "ModelConfig",
    "SimConfig",
    "Split",
    "assign_strata",
    "binarize",
    "compare_rankings",
    "estimate_propensities",
    "fit",
    "fit_gamma",
    "generate",
    "holdout_eval",
    "ips_eval",
    "kendall_tau_b",
    "ndcg",
    "per_stratum_eval",
    "rank_all",
    "split_holdout",
    "steiger_test",
    "stratified_eval",
    "stratum_weights",
    "sweep",
    "__version__",
]
