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


def weighted_predict(loss: LossTensor, probs: ProbabilityField) -> PredictionMatrix:
    """Predict argmin_k <L[m][:, k], eta[n, m, :]> for every (sample, output).

    Column k of the loss slice carries the costs of predicting k against each
    true class, matching the rows-are-true confusion orientation; this is the
    decision that minimizes the expected weighted loss <L, C>.  A K x K loss
    is shared by every output.
    """
    k = probs.n_classes
    if loss.values.shape not in ((k, k), (probs.n_outputs, k, k)):
        raise ValueError(
            f"loss shape {loss.values.shape} does not match "
            f"probability field (M={probs.n_outputs}, K={k})"
        )
    scores = np.matmul(probs.values.transpose(1, 0, 2), loss.values)  # (M, N, K)
    # argmin returns the first minimizer, which is the lowest class index.
    preds = np.argmin(scores, axis=2).T + 1
    return PredictionMatrix(preds, n_classes=k)


def expected_weighted_loss(loss: LossTensor, conf: ConfusionTensor) -> float:
    """Inner product <L, C> summed over all (output, true, predicted) positions."""
    if loss.values.shape != conf.values.shape:
        raise ValueError(
            f"loss tensor shape {loss.values.shape} does not match confusion shape "
            f"{conf.values.shape}"
        )
    return float(np.sum(loss.values * conf.values))
