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
    load_feature_map,
    sample_jl,
    sample_rffn,
    sample_tanh_trunk,
    save_feature_map,
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
    sweep,
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
    build_case1,
    build_case2,
    build_case3,
    build_case4,
    build_case5,
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
    "build_case1",
    "build_case2",
    "build_case3",
    "build_case4",
    "build_case5",
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
    "load_feature_map",
    "load_model",
    "mse",
    "run_experiment",
    "sample_jl",
    "sample_params",
    "sample_rffn",
    "sample_tanh_trunk",
    "save_feature_map",
    "save_model",
    "split",
    "sweep",
    "train_aligned",
    "train_unaligned",
    "tsvd_factorize",
    "tsvd_pinv_apply",
    "write_report_csv",
    "write_report_json",
    "__version__",
]
