"""Random-feature operator networks with a one-shot least-squares readout.

The package learns maps between function spaces from sampled input/output
pairs: a frozen random branch embedding digests the discretized input
function, a frozen random tanh trunk embeds output locations, and the only
trained parameters form a readout matrix solved in closed form by
regularized least squares. Five operator-learning benchmarks (dataset
generators, metrics, and a reproduction harness with a CLI) are included.
"""

from .embeddings import (
    EmbeddingSpec,
    FeatureMap,
    build_feature_map,
    default_weight_bound,
)
from .funcgen import (
    CaseSamplingConfig,
    RandomFunctionParams,
    eval_antiderivative,
    eval_d2u,
    eval_du,
    eval_u,
    sample_params,
)
from .harness import (
    BenchmarkReport,
    ExperimentConfig,
    ReportRow,
    l2_percentiles,
    mse,
    run_experiment,
    split,
    write_report_csv,
    write_report_json,
)
from .linalg import (
    CODFactors,
    TruncatedSVDFactors,
    cod_factorize,
    cod_pinv_apply,
    tsvd_factorize,
    tsvd_pinv_apply,
)
from .model import (
    AlignedDataset,
    RandONetModel,
    TrainingError,
    UnalignedDataset,
    evaluate,
    explode_aligned,
    load_model,
    save_model,
    train_aligned,
    train_unaligned,
)
from .problems import (
    CaseStudy,
    ODESolverConfig,
    build_case,
    case_config,
    export_dataset_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedDataset",
    "BenchmarkReport",
    "CODFactors",
    "CaseSamplingConfig",
    "CaseStudy",
    "EmbeddingSpec",
    "ExperimentConfig",
    "FeatureMap",
    "ODESolverConfig",
    "RandONetModel",
    "RandomFunctionParams",
    "ReportRow",
    "TrainingError",
    "TruncatedSVDFactors",
    "UnalignedDataset",
    "build_case",
    "build_feature_map",
    "case_config",
    "cod_factorize",
    "cod_pinv_apply",
    "default_weight_bound",
    "eval_antiderivative",
    "eval_d2u",
    "eval_du",
    "eval_u",
    "evaluate",
    "explode_aligned",
    "export_dataset_csv",
    "l2_percentiles",
    "load_model",
    "mse",
    "run_experiment",
    "sample_params",
    "save_model",
    "split",
    "train_aligned",
    "train_unaligned",
    "tsvd_factorize",
    "tsvd_pinv_apply",
    "write_report_csv",
    "write_report_json",
    "__version__",
]
