"""Confusion tensors for multioutput classification.

A confusion tensor stacks one K x K joint-mass matrix per output: entry
(m, i, j) is the probability mass of (true class i, predicted class j) for
output m.  Rows always index the true class and columns the predicted class,
and every output slice sums to one.  Classes are 1-based in user-facing
matrices and converted to 0-based array indices internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-row / per-slice mass must match 1 this tightly at construction time.
SIMPLEX_ATOL = 1e-9
# float64 cells per row block: a loop over rows holds this many at a time, not N rows' worth
_BLOCK_CELLS = 1 << 18


def _row_blocks(n_rows: int, width: int):
    """Slices covering ``range(n_rows)`` in order, each of at least one row and of at
    most ``_BLOCK_CELLS`` cells when a row holds ``width`` cells."""
    step = max(1, _BLOCK_CELLS // width)
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when neither it nor any array it views can be written,
    otherwise a read-only copy, so no caller can change a container's values."""
    base = arr
    while base is not None:
        if not isinstance(base, np.ndarray) or base.flags.writeable:
            out = np.array(arr, copy=True)
            out.flags.writeable = False
            return out
        base = base.base
    return arr


@dataclass(frozen=True)
class LabelMatrix:
    """Classes, true or predicted: one row per sample, one column per output,
    values in 1..K.

    Outputs with fewer native classes than K are padded implicitly: classes
    above an output's own count simply never occur in that column.
    """

    values: np.ndarray
    n_classes: int

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ValueError(
                f"class matrix must be 2-D (samples x outputs), got shape {values.shape}"
            )
        if values.size == 0:
            raise ValueError("class matrix must be non-empty")
        if not np.issubdtype(values.dtype, np.integer):
            raise ValueError("class matrix must hold integer class indices")
        lo, hi = int(values.min()), int(values.max())
        if lo < 1 or hi > self.n_classes:
            raise ValueError(f"classes must lie in [1, {self.n_classes}], found range [{lo}, {hi}]")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.values.shape[1]


# Predictions have the layout, the 1..K convention and the checks of labels.
PredictionMatrix = LabelMatrix


@dataclass(frozen=True)
class ProbabilityField:
    """Per-sample conditional class probabilities, shape (N, M, K).

    Every (sample, output) row must lie on the probability simplex.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3:
            raise ValueError(f"probability field must be 3-D (N, M, K), got {values.shape}")
        if values.size == 0:
            raise ValueError("probability field must be non-empty")
        negative, worst = False, 0.0
        for rows in _row_blocks(len(values), values[0].size):  # a block of samples at a time
            block = values[rows]
            if not np.isfinite(block).all():  # outranks a negative seen in an earlier block
                raise ValueError("probability field contains non-finite entries")
            negative = negative or block.min() < 0
            worst = max(worst, float(np.abs(block.sum(axis=2) - 1.0).max()))
        if negative:
            raise ValueError("probability field contains negative entries")
        if worst > SIMPLEX_ATOL:
            raise ValueError(
                f"probability rows must sum to 1 within {SIMPLEX_ATOL}, worst deviation {worst:.3e}"
            )
        object.__setattr__(self, "values", _readonly(values))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.values.shape[1]

    @property
    def n_classes(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class ConfusionTensor:
    """Joint (true, predicted) mass per output, shape (M, K, K).

    Entry (m, i, j) is the mass of samples with true class i predicted as j
    in output m; each output slice carries total mass 1.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError(f"confusion tensor must have shape (M, K, K), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("confusion tensor contains non-finite entries")
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("confusion entries must lie in [0, 1]")
        masses = values.sum(axis=(1, 2))
        worst = float(np.abs(masses - 1.0).max())
        if worst > SIMPLEX_ATOL:
            raise ValueError(
                f"each output slice must have mass 1 within {SIMPLEX_ATOL}, worst deviation {worst:.3e}"
            )
        object.__setattr__(self, "values", _readonly(values))


def _check_paired(a: LabelMatrix | ProbabilityField, b: LabelMatrix | ProbabilityField) -> None:
    """Refuse two of labels, predictions and probabilities that disagree on N, M or K."""
    dims = [(x.n_samples, x.n_outputs, x.n_classes) for x in (a, b)]
    if dims[0] != dims[1]:
        raise ValueError(
            f"{type(a).__name__} (N, M, K) = {dims[0]} does not match {type(b).__name__} {dims[1]}"
        )


def _joint_counts(
    pred: np.ndarray, n_classes: int, truth: np.ndarray, weights: float | np.ndarray | None = None
) -> np.ndarray:
    """Joint (true, predicted) counts per column of ``pred``, shape (M, K, K).

    ``pred`` holds 1-based (N, M) classes, counted against ``truth``: (N, M)
    1-based true classes, where each entry adds one unit, or its entry of
    ``weights`` (broadcast against ``pred``), at its class; or (N, M, K)
    weight rows, where each entry adds its row across the true classes.
    A single ``np.bincount`` adds the entries of a column in row order, so
    weighted sums equal those of a sequential loop.
    """
    k = n_classes
    m_out = pred.shape[1]
    # K * true + pred + offset is the flat index of (column, true - 1, pred - 1)
    offset = np.arange(m_out) * (k * k) - (k + 1)
    if truth.ndim == 2:
        # one index array, built in place in the memory order of ``truth``
        index = np.multiply(truth, k, dtype=np.intp)
        index += pred
        index += offset
        order = "F" if index.flags.f_contiguous else "C"
        if weights is not None:
            weights = np.broadcast_to(weights, index.shape).ravel(order)
        counts = np.bincount(index.ravel(order), weights=weights, minlength=m_out * k * k)
    else:
        index = (pred + (offset + k))[:, :, None] + k * np.arange(k)
        counts = np.bincount(index.ravel(), weights=truth.ravel(), minlength=m_out * k * k)
    return counts.reshape(m_out, k, k)


def _confusion(truth: LabelMatrix | ProbabilityField, preds: PredictionMatrix) -> ConfusionTensor:
    """``preds`` counted against ``truth``, labels or probabilities, per sample."""
    _check_paired(truth, preds)
    counts = _joint_counts(preds.values, truth.n_classes, truth.values)
    return ConfusionTensor(counts / truth.n_samples)


def sample_confusion(labels: LabelMatrix, preds: PredictionMatrix) -> ConfusionTensor:
    """Average the one-hot per-sample confusions: entry (m, i, j) is the
    fraction of samples with true class i and predicted class j in output m.
    """
    return _confusion(labels, preds)


def per_sample_confusion(labels: LabelMatrix, preds: PredictionMatrix) -> np.ndarray:
    """Output-averaged confusion per sample, shape (N, K, K).

    Sample n's matrix is ``sum_m (1/M) e_{y_nm} e_{p_nm}^T``: at most M
    nonzero cells, summed in output order.  Averaging over samples reproduces
    ``micro_confusion(sample_confusion(labels, preds))``.
    ``instance_utility`` builds the same matrices a block of rows at a time.
    """
    _check_paired(labels, preds)
    return _per_sample(preds.values, labels.values, labels.n_classes)


def _per_sample(pred: np.ndarray, true: np.ndarray, n_classes: int) -> np.ndarray:
    """Each row's cells of 1-based (N, M) classes weighted 1/M and added in
    output order, shape (N, K, K)."""
    # each row is one column of the kernel; its outputs are the rows
    return _joint_counts(pred.T, n_classes, true.T, weights=1.0 / pred.shape[1])


def expected_confusion(probs: ProbabilityField, preds: PredictionMatrix) -> ConfusionTensor:
    """Probability-weighted confusion: entry (m, i, j) averages eta_i over the
    samples predicted as j in output m.

    With one-hot probabilities equal to the labels this coincides with
    ``sample_confusion``.
    """
    return _confusion(probs, preds)
