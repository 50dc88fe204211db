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

from .confusion import ConfusionTensor, PredictionMatrix, ProbabilityField, _row_blocks
from .metrics import LossTensor


def _row_scores(rows: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """``rows @ loss`` of (R, K) probability rows, by one gemm so a row has the same bits in any
    batch: numpy sends one row to gemv and may loop itself over rows BLAS cannot read in place."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ loss)[:1]
    if rows.strides[1] != rows.itemsize or rows.strides[0] < rows.shape[1] * rows.itemsize:
        rows = np.ascontiguousarray(rows)
    return rows @ loss


# a loop over the classes' contiguous columns beats argmin + partition from this many rows,
# up to this many classes (the loop's passes grow with K, partition's per-row overhead does not)
_CLASS_MAJOR_ROWS, _CLASS_MAJOR_CLASSES = 1024, 24


def _lowest_two(scores: np.ndarray, gaps: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Each (R, K) score row's lowest class, 1-based and the lowest of equal scores as
    ``np.argmin`` picks it, and with ``gaps`` its lead over the runner-up: the bits of
    ``partition``'s ``s[:, 1] - s[:, 0]``, inf with one class.  Without gaps, below
    ``_CLASS_MAJOR_ROWS`` rows or above ``_CLASS_MAJOR_CLASSES`` classes, argmin (and an
    in-place partition) reads the rows; otherwise the scores are transposed once and each
    class column is compared with the lowest so far."""
    rows, k = scores.shape
    row_major = rows < _CLASS_MAJOR_ROWS or k > _CLASS_MAJOR_CLASSES
    if not gaps or (row_major and k > 1):
        cls = np.argmin(scores, axis=1) + 1
        if not gaps:
            return cls, None
        scores.partition(1, axis=1)  # the two lowest scores first, in order
        return cls, scores[:, 1] - scores[:, 0]
    columns = np.ascontiguousarray(scores.T)
    cls = np.ones(rows, dtype=np.intp)
    low, second, lower = columns[0].copy(), np.full(rows, np.inf), np.empty(rows, dtype=bool)
    for c, column in enumerate(columns[1:], start=2):
        np.less(column, low, out=lower)  # strict: an equal score keeps the lower class
        np.minimum(second, np.maximum(low, column), out=second)
        np.minimum(low, column, out=low)
        np.putmask(cls, lower, c)
    return cls, second - low


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
    n, m_out, k = probs.values.shape
    slices = _slices(loss, m_out, k, f"probability field (M={m_out}, K={k})")
    preds = np.empty((n, m_out), dtype=np.intp)
    for m, loss_m in enumerate(slices):
        for rows in _row_blocks(n, k):  # one block of (rows, K) scores at a time
            preds[rows, m] = _lowest_two(_row_scores(probs.values[rows, m], loss_m), False)[0]
    preds.flags.writeable = False  # the container keeps this array instead of a copy
    return PredictionMatrix(preds, n_classes=k)


def expected_weighted_loss(loss: LossTensor, conf: ConfusionTensor) -> float:
    """Inner product <L, C> summed over all (output, true, predicted) positions.
    A K x K loss is shared by every output."""
    m_out, k, _ = conf.values.shape
    slices = _slices(loss, m_out, k, f"confusion shape {conf.values.shape}")
    return float(np.sum(slices * conf.values))
