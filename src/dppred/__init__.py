"""Concise discriminative-rule prediction models.

Candidate rules are the prefix paths of constrained random decision trees;
a small top-k subset is selected by combined predictive performance
(greedy forward selection or an L1 penalty tuned by binary search) and
served through a generalized linear model over the binary rule space.
"""

from .data import (
    ColumnSchema,
    Dataset,
    load_csv,
    minmax_normalize_labels,
    read_schema_file,
    write_schema_file,
)
from .glm import GlmModel, fit_glm, fit_lasso, lambda_max, predict_glm
from .model import (
    DppredModel,
    HyperParams,
    evaluate,
    load,
    predict,
    predict_one,
    save,
    train,
)
from .patterns import Condition, Pattern, construct_pattern_space, extract_patterns
from .selection import SelectionResult, forward_select, lasso_select
from .stratify import (
    StratifiedModel,
    StratifyConfig,
    cluster_patients,
    predict_stratified,
    train_stratified,
)
from .synth import SynthConfig, generate_medical, generate_subtyped_regression
from .tree import DecisionTree, TreeConfig, fit_forest

__all__ = [
    "ColumnSchema", "Dataset", "load_csv", "minmax_normalize_labels",
    "read_schema_file", "write_schema_file",
    "GlmModel", "fit_glm", "fit_lasso", "lambda_max", "predict_glm",
    "DppredModel", "HyperParams", "evaluate", "load", "predict", "predict_one",
    "save", "train",
    "Condition", "Pattern", "construct_pattern_space", "extract_patterns",
    "SelectionResult", "forward_select", "lasso_select",
    "StratifiedModel", "StratifyConfig", "cluster_patients",
    "predict_stratified", "train_stratified",
    "SynthConfig", "generate_medical", "generate_subtyped_regression",
    "DecisionTree", "TreeConfig", "fit_forest",
]

__version__ = "0.1.0"
