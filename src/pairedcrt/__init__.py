"""Design and analysis of cluster randomized trials with matched pairs.

The package covers the full workflow: pairing clusters on baseline
features, randomizing treatment within pairs, estimating the size-weighted
average effect (only ``analyze`` prints the equal-weighted one, without a
standard error), a pair-aware variance estimator with normal-approximation
inference, a randomization test over within-pair swaps, and a simulation
harness with a closed-form variance oracle.
"""

from .assignment import assign_within_pairs
from .core import (
    Dataset,
    build_dataset,
    load_dataset,
    read_clusters,
    write_clusters,
)
from .errors import DataError, PairedCrtError
from .estimation import PointEstimate, estimate_size_weighted
from .inference import InferenceResult, infer
from .matching import (
    MATCH_MODES,
    ImbalanceReport,
    MatchedDesign,
    imbalance_report,
    match_clusters,
    order_pairs_for_variance,
    pair_greedy_nn,
    pair_sorted_scalar,
    read_design,
    write_design,
)
from .randtest import RandTestResult, randomization_test
from .simulation import (
    PRESET_NAMES,
    CovariateLaw,
    DgpSpec,
    LinearOutcomeModel,
    SamplingRule,
    SimConfig,
    SimReport,
    SizeLaw,
    generate_trial,
    monte_carlo,
    oracle_variance,
    preset,
)

__version__ = "0.1.0"

__all__ = [
    "CovariateLaw",
    "DataError",
    "Dataset",
    "DgpSpec",
    "ImbalanceReport",
    "InferenceResult",
    "LinearOutcomeModel",
    "MATCH_MODES",
    "MatchedDesign",
    "PRESET_NAMES",
    "PairedCrtError",
    "PointEstimate",
    "RandTestResult",
    "SamplingRule",
    "SimConfig",
    "SimReport",
    "SizeLaw",
    "assign_within_pairs",
    "build_dataset",
    "estimate_size_weighted",
    "generate_trial",
    "imbalance_report",
    "infer",
    "load_dataset",
    "match_clusters",
    "monte_carlo",
    "oracle_variance",
    "order_pairs_for_variance",
    "pair_greedy_nn",
    "pair_sorted_scalar",
    "preset",
    "randomization_test",
    "read_clusters",
    "read_design",
    "write_clusters",
    "write_design",
]
