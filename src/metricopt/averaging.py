"""Micro-, macro-, and instance-averaging of per-output metrics.

Each mode gives the M outputs equal weight 1/M.  Micro averages the confusion
slices first and applies the metric once; macro applies the metric per output
and averages the scores; instance applies the metric to each sample's
output-averaged confusion (``confusion.per_sample_confusion`` builds them, so
``instance_utility`` takes them as an (N, K, K) array) and averages over
samples.  All three coincide exactly for linear metrics.  ``averaged`` is
that arithmetic over stacked confusions, for ``eval`` and the oracle alike.
"""

from __future__ import annotations

import numpy as np

from .confusion import ConfusionTensor
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


def averaged(spec: MetricSpec, confs: np.ndarray, mode: str) -> np.ndarray:
    """The ``mode``-averaged metric of stacked confusions, NaN where it is undefined.

    ``confs`` holds output confusions, shape (..., M, K, K), for micro and
    macro, and per-sample confusions, shape (..., N, K, K), for instance; the
    result has shape (...).  Macro is undefined where any output is.
    """
    if mode not in MODES:
        raise ValueError(f"averaging mode must be one of {MODES}, got {mode!r}")
    k = spec.n_classes
    if confs.shape[-2:] != (k, k):
        raise ValueError(f"confusion shape {confs.shape} does not match K={k}")
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
    return _defined(averaged(spec, confs, "instance"), "instance utility undefined")
