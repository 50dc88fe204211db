"""Micro-, macro-, and instance-averaging of per-output metrics.

Micro averages the confusion slices first and applies the metric once; macro
applies the metric per output and averages the scores; instance applies the
metric to each sample's output-averaged confusion and averages over samples.
The output weights of instance averaging are applied where those per-sample
confusions are built (``confusion.per_sample_confusion``), so
``instance_utility`` takes them as an (N, K, K) array.  All three coincide
exactly for linear metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confusion import ConfusionTensor
from .errors import GuardError
from .metrics import MetricSpec, _eval_batch, eval_metric

MODES = ("micro", "macro", "instance")


@dataclass(frozen=True)
class AveragingSpec:
    """Averaging mode plus optional per-output weights (default uniform 1/M)."""

    mode: str
    output_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"averaging mode must be one of {MODES}, got {self.mode!r}")
        if self.output_weights is not None:
            weights = np.asarray(self.output_weights, dtype=float)
            if weights.ndim != 1:
                raise ValueError("output weights must be a 1-D vector")
            if not np.all(np.isfinite(weights)) or weights.min() < 0:
                raise ValueError("output weights must be finite and nonnegative")
            object.__setattr__(self, "output_weights", weights)

    def weights_for(self, n_outputs: int) -> np.ndarray:
        if self.output_weights is None:
            return np.full(n_outputs, 1.0 / n_outputs)
        if self.output_weights.shape[0] != n_outputs:
            raise ValueError(
                f"got {self.output_weights.shape[0]} output weights for {n_outputs} outputs"
            )
        return self.output_weights


def micro_confusion(conf: ConfusionTensor, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of the output slices, a plain K x K array."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (conf.n_outputs,):
        raise ValueError(f"expected {conf.n_outputs} weights, got shape {weights.shape}")
    if weights.min() < 0:
        raise ValueError("output weights must be nonnegative")
    return np.einsum("m,mij->ij", weights, conf.values)


def micro_utility(spec: MetricSpec, conf: ConfusionTensor, avg: AveragingSpec) -> float:
    if avg.mode != "micro":
        raise ValueError(f"micro_utility called with mode {avg.mode!r}")
    # the slices carry unit mass, so the sum carries sum(weights), which need not be 1
    micro = micro_confusion(conf, avg.weights_for(conf.n_outputs))
    return eval_metric(spec, micro, check_mass=False)


def macro_utility(spec: MetricSpec, conf: ConfusionTensor, avg: AveragingSpec) -> float:
    if avg.mode != "macro":
        raise ValueError(f"macro_utility called with mode {avg.mode!r}")
    weights = avg.weights_for(conf.n_outputs)
    # Left-to-right summation keeps parallel refactors bit-reproducible.
    total = 0.0
    for m in range(conf.n_outputs):
        total += weights[m] * eval_metric(spec, conf.values[m])
    return total


def instance_utility(spec: MetricSpec, per_sample_confs: np.ndarray) -> float:
    """Average of the metric over per-sample confusions.

    ``per_sample_confs`` has shape (N, K, K): each sample's confusion already
    sums its outputs with their weights, as ``per_sample_confusion`` builds it.
    """
    confs = np.asarray(per_sample_confs, dtype=float)
    if confs.ndim != 3 or confs.shape[1] != confs.shape[2]:
        raise ValueError(f"per-sample confusions must have shape (N, K, K), got {confs.shape}")
    if not np.all(np.isfinite(confs)) or confs.min() < 0:
        raise ValueError("per-sample confusions must be finite and nonnegative")
    values = _eval_batch(spec, confs)
    if np.any(np.isnan(values)):
        raise GuardError("degenerate denominator in an instance confusion")
    return float(values.mean())
