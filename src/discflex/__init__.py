"""Surrogate-driven design exploration for flexible disc coupling elements.

The package covers the full pipeline: dataset synthesis and I/O
(:mod:`discflex.dataset`), link mechanics (:mod:`discflex.mechanics`),
polynomial response-surface surrogates (:mod:`discflex.rsm`), regularized
neural surrogates (:mod:`discflex.ann`), constrained multi-objective search
(:mod:`discflex.nsga2`), case-study assembly and parametric studies
(:mod:`discflex.explorer`), and a command-line front end
(:mod:`discflex.cli`).
"""

__version__ = "0.1.0"

from .dataset import (
    DESIGN_HIGH,
    DESIGN_LOW,
    Dataset,
    DesignTag,
    read_csv,
    sample_designs,
    split,
    write_csv,
)
from .mechanics import (
    DiscGeometry,
    min_buckling_for_torque,
    torque_capacity,
)
from .rsm import MonomialBasis, RsmModel, evaluate_batch, fit, r_squared, reference_models
from .ann import (
    NetworkShape,
    TrainConfig,
    TrainedNetwork,
    TrainingDivergenceError,
    mean_abs_percent_error,
    predict_batch,
    train,
)
from .nsga2 import GaConfig, OptimizeResult, ProblemSpec, optimize
from .explorer import (
    ExplorationResult,
    StudyReport,
    explore,
    extract_extremes,
    grid_pareto_oracle,
    run_network_size_study,
    run_training_size_study,
    select_optimum,
    synthesize_dataset,
)

__all__ = [
    "__version__",
    "DESIGN_HIGH",
    "DESIGN_LOW",
    "Dataset",
    "DesignTag",
    "read_csv",
    "sample_designs",
    "split",
    "write_csv",
    "DiscGeometry",
    "min_buckling_for_torque",
    "torque_capacity",
    "MonomialBasis",
    "RsmModel",
    "evaluate_batch",
    "fit",
    "r_squared",
    "reference_models",
    "NetworkShape",
    "TrainConfig",
    "TrainedNetwork",
    "TrainingDivergenceError",
    "mean_abs_percent_error",
    "predict_batch",
    "train",
    "GaConfig",
    "OptimizeResult",
    "ProblemSpec",
    "optimize",
    "ExplorationResult",
    "StudyReport",
    "explore",
    "extract_extremes",
    "grid_pareto_oracle",
    "run_network_size_study",
    "run_training_size_study",
    "select_optimum",
    "synthesize_dataset",
]
