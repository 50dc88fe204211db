"""Weighted decision rules over conditional class probabilities.

Loss matrices share the confusion orientation: L[m][i, j] is the cost of
predicting class j when the true class is i, so the expected loss of a
classifier is the plain inner product <L, C>.  A weighted classifier scores
each candidate class k for output m as sum_l L[m][l, k] * eta_l (column k of
the slice) and predicts the minimizing class; ties break to the lowest class
index.  The decision is invariant under positive affine transforms of L,
which is what licenses rescaling loss matrices into [0, 1].
"""

from __future__ import annotations

import numpy as np

from .confusion import ConfusionTensor, PredictionMatrix, ProbabilityField
from .metrics import LossTensor


def _row_scores(rows: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """``rows @ loss`` of (R, K) probability rows, by one gemm so a row has the same bits in any
    batch: numpy sends one row to gemv and may loop itself over rows BLAS cannot read in place."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ loss)[:1]
    if rows.strides[1] != rows.itemsize or rows.strides[0] < rows.shape[1] * rows.itemsize:
        rows = np.ascontiguousarray(rows)
    return rows @ loss


def _slices(loss: LossTensor, m_out: int, k: int, against: str) -> np.ndarray:
    """The (M, K, K) slices of ``loss``; a K x K loss is shared by every output."""
    if loss.values.shape not in ((k, k), (m_out, k, k)):
        raise ValueError(f"loss shape {loss.values.shape} does not match {against}")
    return np.broadcast_to(loss.values, (m_out, k, k))


def weighted_predict(loss: LossTensor, probs: ProbabilityField) -> PredictionMatrix:
    """Predict argmin_k <L[m][:, k], eta[n, m, :]> for every (sample, output).

    Column k of the loss slice carries the costs of predicting k against each
    true class, matching the rows-are-true confusion orientation; this is the
    decision that minimizes the expected weighted loss <L, C>.  A K x K loss
    is shared by every output.
    """
    _, m_out, k = probs.values.shape
    slices = _slices(loss, m_out, k, f"probability field (M={m_out}, K={k})")
    columns = probs.values.transpose(1, 0, 2)
    preds = np.column_stack([np.argmin(_row_scores(c, s), axis=1) for c, s in zip(columns, slices)])
    return PredictionMatrix(preds + 1, n_classes=k)


def expected_weighted_loss(loss: LossTensor, conf: ConfusionTensor) -> float:
    """Inner product <L, C> summed over all (output, true, predicted) positions.
    A K x K loss is shared by every output."""
    m_out, k, _ = conf.values.shape
    slices = _slices(loss, m_out, k, f"confusion shape {conf.values.shape}")
    return float(np.sum(slices * conf.values))
