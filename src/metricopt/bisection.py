"""Bisection search for utility-optimal weighted classifiers.

For a ratio-of-linear metric, "is the optimum at least gamma" reduces to
maximizing the linear functional <A - gamma*B, C>, which the weighted
classifier with loss gamma*B - A solves exactly (Dinkelbach's parametric
method).  The search starts from the bracket [min, max] of the ratios
A_ij / B_ij over the cells with B_ij > 0: when B >= 0 and A = 0 wherever
B = 0, every utility is a weighted mean of those ratios.  Metrics outside
that class are refused with GuardError.  Halving the bracket on the test
pins the optimal utility to within 2^-T times the initial width after T
iterations.  Micro averaging shares one loss matrix across all outputs;
macro averaging runs one independent search per output.

Candidates can be scored on the sample confusion of the evaluation labels
(``eval_mode="sample"``, the estimation setting) or on the expected confusion
under the supplied probabilities (``eval_mode="expected"``, exact when those
probabilities are the true conditionals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import AveragingSpec, micro_confusion
from .confusion import (
    LabelMatrix,
    PredictionMatrix,
    ProbabilityField,
    expected_confusion,
    sample_confusion,
)
from .decision import weighted_predict
from .errors import GuardError
from .metrics import FractionalLinearMetric, LossTensor, MetricSpec, _eval_batch, loss_from_gamma

# brute_force_oracle refuses instances with more deterministic assignments.
MAX_ENUMERATION = 1_000_000
_CHUNK = 65536


@dataclass(frozen=True)
class BisectionConfig:
    """Search parameters.

    ``iterations`` fixes the number of halvings (50 reaches machine
    precision); ``eval_mode`` picks the confusion that scores candidates.
    """

    iterations: int = 50
    eval_mode: str = "sample"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.eval_mode not in ("sample", "expected"):
            raise ValueError(f"eval_mode must be sample or expected, got {self.eval_mode!r}")


@dataclass(frozen=True)
class IterationRecord:
    gamma: float
    lower: float
    upper: float
    utility: float
    accepted: bool


@dataclass
class BisectionTrace:
    """Full iteration history plus the final loss slice and its utility."""

    records: list[IterationRecord]
    final_loss: np.ndarray
    final_utility: float

    def to_dict(self) -> dict:
        return {
            "iterations": len(self.records),
            "gammas": [r.gamma for r in self.records],
            "lowers": [r.lower for r in self.records],
            "uppers": [r.upper for r in self.records],
            "utilities": [r.utility for r in self.records],
            "accepted": [r.accepted for r in self.records],
            "final_loss": self.final_loss.tolist(),
            "final_utility": self.final_utility,
        }


def _ratio_bracket(flm: FractionalLinearMetric) -> tuple[float, float]:
    """[min, max] of A_ij / B_ij over the cells with B_ij > 0.

    Valid when B >= 0 and A = 0 wherever B = 0: then <A, C> / <B, C> is a
    weighted mean of those ratios for every nonnegative confusion C.
    """
    a, b = flm.numerator_A, flm.denominator_B
    positive = b > 0
    if (b < 0).any() or (a[~positive] != 0).any() or not positive.any():
        raise GuardError("bisection needs B >= 0, B != 0, and A = 0 wherever B = 0")
    ratios = a[positive] / b[positive]
    return float(ratios.min()), float(ratios.max())


def _bisect_single(
    labels: LabelMatrix,
    probs: ProbabilityField,
    flm: FractionalLinearMetric,
    cfg: BisectionConfig,
    weights: np.ndarray,
) -> tuple[LossTensor, float, list[IterationRecord]]:
    k = flm.n_classes
    lower, upper = _ratio_bracket(flm)

    def utility_of(loss: LossTensor) -> float:
        preds = weighted_predict(loss, probs)
        if cfg.eval_mode == "sample":
            conf = sample_confusion(labels, preds)
        else:
            conf = expected_confusion(probs, preds)
        return flm.evaluate(micro_confusion(conf, weights))

    # Start from the argmax rule (0-1 loss) so the search never returns
    # anything worse than the plain plug-in baseline.
    best_loss = LossTensor(np.ones((k, k)) - np.eye(k))
    best_utility = utility_of(best_loss)

    records: list[IterationRecord] = []
    for _ in range(cfg.iterations):
        gamma = 0.5 * (lower + upper)
        cand_loss = loss_from_gamma(flm, gamma)
        cand_utility = utility_of(cand_loss)
        accepted = cand_utility >= gamma  # exact equality counts as success
        if accepted:
            lower = gamma
            if cand_utility >= best_utility:
                best_loss, best_utility = cand_loss, cand_utility
        else:
            upper = gamma
        records.append(IterationRecord(gamma, lower, upper, cand_utility, accepted))
    return best_loss, best_utility, records


def _check_bisect_inputs(
    labels: LabelMatrix, probs_hat: ProbabilityField, flm: FractionalLinearMetric
) -> None:
    if labels.values.shape != probs_hat.values.shape[:2]:
        raise ValueError(
            f"labels shape {labels.values.shape} does not match probability field "
            f"shape {probs_hat.values.shape}"
        )
    if labels.n_classes != probs_hat.n_classes or labels.n_classes != flm.n_classes:
        raise ValueError(
            f"class counts disagree: labels K={labels.n_classes}, "
            f"probabilities K={probs_hat.n_classes}, metric K={flm.n_classes}"
        )


def bisect_micro(
    labels: LabelMatrix,
    probs_hat: ProbabilityField,
    flm: FractionalLinearMetric,
    cfg: BisectionConfig,
) -> tuple[LossTensor, BisectionTrace]:
    """Search for the micro-averaged optimum with one loss shared by all outputs.

    ``labels`` and ``probs_hat`` are the evaluation split and the probability
    estimates at its points.  The returned loss repeats that K x K matrix as
    one slice per output.
    """
    _check_bisect_inputs(labels, probs_hat, flm)
    m_out, k = labels.n_outputs, flm.n_classes
    loss, utility, records = _bisect_single(
        labels, probs_hat, flm, cfg, np.full(m_out, 1.0 / m_out)
    )
    tiled = LossTensor(np.broadcast_to(loss.values, (m_out, k, k)))
    return tiled, BisectionTrace(records, loss.values, utility)


def bisect_macro(
    labels: LabelMatrix,
    probs_hat: ProbabilityField,
    flm: FractionalLinearMetric,
    cfg: BisectionConfig,
) -> tuple[LossTensor, list[BisectionTrace]]:
    """Independent single-output searches; the loss slices may differ per output."""
    _check_bisect_inputs(labels, probs_hat, flm)
    slices = []
    traces = []
    for m in range(labels.n_outputs):
        labels_m = LabelMatrix(labels.values[:, m : m + 1], labels.n_classes)
        probs_m = ProbabilityField(probs_hat.values[:, m : m + 1, :])
        loss, utility, records = _bisect_single(labels_m, probs_m, flm, cfg, np.ones(1))
        slices.append(loss.values)
        traces.append(BisectionTrace(records, loss.values, utility))
    return LossTensor(np.stack(slices)), traces


def _decode_assignments(start: int, stop: int, n_cells: int, n_classes: int) -> np.ndarray:
    """Assignment indices [start, stop) as 0-based digits, last cell fastest."""
    remainder = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((stop - start, n_cells), dtype=np.int64)
    for pos in range(n_cells - 1, -1, -1):
        digits[:, pos] = remainder % n_classes
        remainder //= n_classes
    return digits


def _assignment_utilities(
    digits: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    spec: MetricSpec,
    mode: str,
) -> np.ndarray:
    n, m_out, k = rows.shape
    p = digits.shape[0]
    batch = np.arange(p)
    if mode in ("micro", "macro"):
        conf_t = np.zeros((p, m_out, k, k))  # (batch, output, predicted, true)
        for n_i in range(n):
            for m_i in range(m_out):
                col = digits[:, n_i * m_out + m_i]
                conf_t[batch, m_i, col, :] += rows[n_i, m_i, :] / n
        conf = conf_t.transpose(0, 1, 3, 2)
        if mode == "micro":
            return _eval_batch(spec, np.einsum("m,pmij->pij", weights, conf))
        return _eval_batch(spec, conf) @ weights
    inst_t = np.zeros((p, n, k, k))
    for n_i in range(n):
        for m_i in range(m_out):
            col = digits[:, n_i * m_out + m_i]
            inst_t[batch, n_i, col, :] += weights[m_i] * rows[n_i, m_i, :]
    return _eval_batch(spec, inst_t.transpose(0, 1, 3, 2)).mean(axis=1)


def brute_force_oracle(
    labels: LabelMatrix,
    probs: ProbabilityField | None,
    spec: MetricSpec,
    avg: AveragingSpec,
) -> tuple[float, PredictionMatrix]:
    """Exhaustively maximize the averaged metric over every deterministic
    prediction matrix.

    With ``probs`` given the utility uses expected confusions, otherwise the
    sample confusions of ``labels``.  Guarded at K^(N*M) <= 10^6 assignments;
    ties resolve to the first maximizer in enumeration order (all class-1
    predictions first, last cell varying fastest).
    """
    n, m_out = labels.values.shape
    k = labels.n_classes
    total = k ** (n * m_out)
    if total > MAX_ENUMERATION:
        raise GuardError(f"instance too large: K^(N*M) = {total} exceeds {MAX_ENUMERATION}")
    if probs is None:
        rows = np.zeros((n, m_out, k))
        sample_idx = np.arange(n)[:, None]
        output_idx = np.arange(m_out)[None, :]
        rows[sample_idx, output_idx, labels.values - 1] = 1.0
    else:
        if probs.values.shape != (n, m_out, k):
            raise ValueError(
                f"probability field shape {probs.values.shape} does not match labels "
                f"(N={n}, M={m_out}, K={k})"
            )
        rows = probs.values
    weights = avg.weights_for(m_out)

    best_utility = -np.inf
    best_digits = None
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        digits = _decode_assignments(start, stop, n * m_out, k)
        utilities = _assignment_utilities(digits, rows, weights, spec, avg.mode)
        utilities = np.where(np.isnan(utilities), -np.inf, utilities)
        local_best = int(np.argmax(utilities))
        if utilities[local_best] > best_utility:
            best_utility = float(utilities[local_best])
            best_digits = digits[local_best]
    if best_digits is None or not np.isfinite(best_utility):
        raise GuardError("degenerate denominator: metric undefined on every assignment")
    preds = PredictionMatrix(best_digits.reshape(n, m_out) + 1, n_classes=k)
    return best_utility, preds
