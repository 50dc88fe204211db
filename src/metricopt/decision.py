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

from dataclasses import dataclass

import numpy as np

from .confusion import ConfusionTensor, PredictionMatrix, ProbabilityField, _readonly
from .metrics import LossMatrix


@dataclass(frozen=True)
class LossTensor:
    """Per-output stack of K x K loss matrices, shape (M, K, K), entries in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError(f"loss tensor must have shape (M, K, K), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("loss tensor must be finite")
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("loss tensor entries must lie in [0, 1]")
        object.__setattr__(self, "values", _readonly(values))

    @classmethod
    def shared(cls, loss: LossMatrix | np.ndarray, n_outputs: int) -> "LossTensor":
        """Tile one loss matrix across all outputs."""
        matrix = loss.values if isinstance(loss, LossMatrix) else np.asarray(loss, dtype=float)
        return cls(np.broadcast_to(matrix, (n_outputs, *matrix.shape)))

    @classmethod
    def from_slices(cls, slices) -> "LossTensor":
        stacked = [s.values if isinstance(s, LossMatrix) else np.asarray(s, float) for s in slices]
        return cls(np.stack(stacked))

    @property
    def n_outputs(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]

    def to_dict(self) -> dict:
        return {
            "M": self.n_outputs,
            "K": self.n_classes,
            "slices": self.values.tolist(),
        }


@dataclass(frozen=True)
class WeightedClassifier:
    """Deterministic argmin-of-weighted-score rule; ties go to the lowest class."""

    loss: LossTensor


def weighted_predict(clf: WeightedClassifier, probs: ProbabilityField) -> PredictionMatrix:
    """Predict argmin_k <L[m][:, k], eta[n, m, :]> for every (sample, output).

    Column k of the loss slice carries the costs of predicting k against each
    true class, matching the rows-are-true confusion orientation; this is the
    decision that minimizes the expected weighted loss <L, C>.
    """
    loss = clf.loss
    if loss.n_outputs != probs.n_outputs or loss.n_classes != probs.n_classes:
        raise ValueError(
            f"loss tensor (M={loss.n_outputs}, K={loss.n_classes}) does not match "
            f"probability field (M={probs.n_outputs}, K={probs.n_classes})"
        )
    scores = np.matmul(probs.values.transpose(1, 0, 2), loss.values)  # (M, N, K)
    # argmin returns the first minimizer, which is the lowest class index.
    preds = np.argmin(scores, axis=2).T + 1
    return PredictionMatrix(preds, n_classes=probs.n_classes)


def expected_weighted_loss(loss: LossTensor, conf: ConfusionTensor) -> float:
    """Inner product <L, C> summed over all (output, true, predicted) positions."""
    if loss.values.shape != conf.values.shape:
        raise ValueError(
            f"loss tensor shape {loss.values.shape} does not match confusion shape "
            f"{conf.values.shape}"
        )
    return float(np.sum(loss.values * conf.values))
