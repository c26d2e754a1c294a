"""Controllable-factor feature attribution for tabular classifiers."""

from .distance import delta, delta_to_rows, estimate_proximity
from .errors import (
    CafaError,
    CorrelationUndefinedError,
    ExplanationError,
    GlobalFailureError,
    IngestionError,
    InvalidInputError,
    ModelFormatError,
    NeighborhoodImbalanceError,
    SizeLimitError,
    SurrogateError,
    TrainingError,
    UsageError,
)
from .explain import (
    Attribution,
    Background,
    lime_explain,
    shapley_exact,
    shapley_mc,
)
from .forest import ForestParams, RandomForest, accuracy, train_forest
from .pipeline import (
    CafaConfig,
    CafaResult,
    CompareResult,
    GlobalCafaResult,
    cafa_global,
    cafa_local,
    compare_with_shap,
    pearson,
    standard_shap,
)
from .sampler import NeighborhoodSample, generate_neighborhood, perturb_batch
from .schema import (
    Dataset,
    Feature,
    FeatureSchema,
    IngestionSpec,
    encode_instance,
    load_csv,
    validate_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Attribution",
    "Background",
    "CafaConfig",
    "CafaError",
    "CafaResult",
    "CompareResult",
    "CorrelationUndefinedError",
    "Dataset",
    "ExplanationError",
    "Feature",
    "FeatureSchema",
    "ForestParams",
    "GlobalCafaResult",
    "GlobalFailureError",
    "IngestionError",
    "IngestionSpec",
    "InvalidInputError",
    "ModelFormatError",
    "NeighborhoodImbalanceError",
    "NeighborhoodSample",
    "RandomForest",
    "SizeLimitError",
    "SurrogateError",
    "TrainingError",
    "UsageError",
    "accuracy",
    "cafa_global",
    "cafa_local",
    "compare_with_shap",
    "delta",
    "delta_to_rows",
    "encode_instance",
    "estimate_proximity",
    "generate_neighborhood",
    "lime_explain",
    "load_csv",
    "pearson",
    "perturb_batch",
    "shapley_exact",
    "shapley_mc",
    "standard_shap",
    "train_forest",
    "validate_instance",
]
