"""Micro-, macro-, and instance-averaging of per-output metrics.

Each mode gives the M outputs equal weight 1/M.  Micro averages the confusion
slices first and applies the metric once; macro applies the metric per output
and averages the scores; instance applies the metric to each sample's
output-averaged confusion (``confusion.per_sample_confusion`` builds them, so
``instance_utility`` takes them as an (N, K, K) array) and averages over
samples.  All three coincide exactly for linear metrics.
"""

from __future__ import annotations

import numpy as np

from .confusion import ConfusionTensor
from .errors import GuardError
from .metrics import MetricSpec, _eval_batch, eval_metric

MODES = ("micro", "macro", "instance")


def micro_confusion(conf: ConfusionTensor) -> np.ndarray:
    """The output slices weighted 1/M and summed, a K x K array of unit mass."""
    m_out = conf.n_outputs
    # not .mean(): a sum of 1/M-weighted terms rounds differently when M is not a power of 2
    return np.einsum("m,mij->ij", np.full(m_out, 1.0 / m_out), conf.values)


def micro_utility(spec: MetricSpec, conf: ConfusionTensor) -> float:
    return eval_metric(spec, micro_confusion(conf))


def macro_utility(spec: MetricSpec, conf: ConfusionTensor) -> float:
    weight = 1.0 / conf.n_outputs
    # Left-to-right summation keeps parallel refactors bit-reproducible.
    total = 0.0
    for m in range(conf.n_outputs):
        total += weight * eval_metric(spec, conf.values[m])
    return total


def instance_utility(spec: MetricSpec, per_sample_confs: np.ndarray) -> float:
    """Average of the metric over per-sample confusions.

    ``per_sample_confs`` has shape (N, K, K): each sample's confusion is the
    mean of its output cells, as ``per_sample_confusion`` builds it.
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
