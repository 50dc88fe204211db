"""Micro-, macro-, and instance-averaging of per-output metrics.

Each mode gives the M outputs equal weight 1/M.  Micro averages the confusion
slices first and applies the metric once; macro applies the metric per output
and averages the scores; instance applies the metric to each sample's
output-averaged confusion (the matrices ``confusion.per_sample_confusion``
builds) and averages over samples.  All three coincide exactly for linear
metrics.  ``averaged`` is that arithmetic over stacked confusions, for
``eval`` and the oracle alike; ``instance_utility`` builds and scores the
per-sample confusions a block of rows at a time, so it never holds all N.
"""

from __future__ import annotations

import numpy as np

from .confusion import (
    ConfusionTensor,
    LabelMatrix,
    PredictionMatrix,
    _check_paired,
    _per_sample,
    _row_blocks,
)
from .metrics import MetricSpec, _defined, _eval_batch

MODES = ("micro", "macro", "instance")


def _micro(confs: np.ndarray) -> np.ndarray:
    """Output confusions (..., M, K, K) weighted 1/M and summed, shape (..., K, K)."""
    m_out = confs.shape[-3]
    # not .mean(): a sum of 1/M-weighted terms rounds differently when M is not a power of 2
    return np.einsum("m,...mij->...ij", np.full(m_out, 1.0 / m_out), confs)


def micro_confusion(conf: ConfusionTensor) -> np.ndarray:
    """The output slices weighted 1/M and summed, a K x K array of unit mass."""
    return _micro(conf.values)


def _check_classes(spec: MetricSpec, shape: tuple[int, ...]) -> None:
    """Refuse confusions of shape ``shape`` (..., K, K) whose K is not the metric's."""
    k = spec.n_classes
    if shape[-2:] != (k, k):
        raise ValueError(f"confusion shape {shape} does not match K={k}")


def averaged(spec: MetricSpec, confs: np.ndarray, mode: str) -> np.ndarray:
    """The ``mode``-averaged metric of stacked confusions, NaN where it is undefined.

    ``confs`` holds output confusions, shape (..., M, K, K), for micro and
    macro, and per-sample confusions, shape (..., N, K, K), for instance; the
    result has shape (...).  Macro is undefined where any output is.
    """
    if mode not in MODES:
        raise ValueError(f"averaging mode must be one of {MODES}, got {mode!r}")
    _check_classes(spec, confs.shape)
    if mode == "micro":
        return _eval_batch(spec, _micro(confs))
    values = _eval_batch(spec, confs)
    if mode == "instance":
        return values.mean(axis=-1)
    weight = 1.0 / values.shape[-1]
    # Left-to-right summation keeps parallel refactors bit-reproducible.
    total = 0.0
    for m in range(values.shape[-1]):
        total = total + weight * values[..., m]
    return total


def micro_utility(spec: MetricSpec, conf: ConfusionTensor) -> float:
    return _defined(averaged(spec, conf.values, "micro"), "micro utility undefined")


def macro_utility(spec: MetricSpec, conf: ConfusionTensor) -> float:
    return _defined(averaged(spec, conf.values, "macro"), "macro utility undefined")


def instance_utility(spec: MetricSpec, labels: LabelMatrix, preds: PredictionMatrix) -> float:
    """Average of the metric over the samples' output-averaged confusions.

    Each block of rows is built with ``confusion._per_sample`` and scored with
    ``_eval_batch``, so the value is bit for bit the instance mode of
    ``averaged`` over ``per_sample_confusion(labels, preds)``, with at most one
    block of (K, K) confusions held at a time.
    """
    _check_paired(labels, preds)
    k = labels.n_classes
    _check_classes(spec, (labels.n_samples, k, k))  # the shape per_sample_confusion would have
    values = np.empty(labels.n_samples)
    for rows in _row_blocks(labels.n_samples, k * k):
        values[rows] = _eval_batch(spec, _per_sample(preds.values[rows], labels.values[rows], k))
    return _defined(values.mean(), "instance utility undefined")
