"""Generalized classification metrics on confusion tensors and bisection-based
post-processing of probability estimates into metric-optimal weighted
classifiers."""

from .averaging import instance_utility, macro_utility, micro_confusion, micro_utility
from .bisection import (
    BisectionConfig,
    BisectionTrace,
    bisect_macro,
    bisect_micro,
    brute_force_oracle,
)
from .confusion import (
    ConfusionTensor,
    LabelMatrix,
    PredictionMatrix,
    ProbabilityField,
    expected_confusion,
    per_sample_confusion,
    sample_confusion,
)
from .decision import expected_weighted_loss, weighted_predict
from .errors import GuardError
from .estimators import (
    MultinomialLRModel,
    SyntheticConfig,
    fit_lr,
    generate_synthetic,
    performance_ratio_grid,
    predict_proba,
)
from .metrics import (
    FractionalLinearMetric,
    LossTensor,
    MetricSpec,
    as_fractional_linear,
    eval_metric,
    loss_from_gamma,
    loss_from_gradient,
    metric_from_config,
    metric_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "BisectionConfig",
    "BisectionTrace",
    "ConfusionTensor",
    "FractionalLinearMetric",
    "GuardError",
    "LabelMatrix",
    "LossTensor",
    "MetricSpec",
    "MultinomialLRModel",
    "PredictionMatrix",
    "ProbabilityField",
    "SyntheticConfig",
    "as_fractional_linear",
    "bisect_macro",
    "bisect_micro",
    "brute_force_oracle",
    "eval_metric",
    "expected_confusion",
    "expected_weighted_loss",
    "fit_lr",
    "generate_synthetic",
    "instance_utility",
    "loss_from_gamma",
    "loss_from_gradient",
    "macro_utility",
    "metric_from_config",
    "metric_gradient",
    "micro_confusion",
    "micro_utility",
    "per_sample_confusion",
    "performance_ratio_grid",
    "predict_proba",
    "sample_confusion",
    "weighted_predict",
]
