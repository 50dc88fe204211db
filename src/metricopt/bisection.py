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
macro averaging runs the same search loop once per output, on that column alone.

Candidates are counted against the truth the caller passes: a LabelMatrix
scores sample confusions (the estimation setting), a ProbabilityField scores
expected confusions (exact when its rows are the true conditionals).  Passing
the probability estimates themselves, ``bisect_micro(probs, probs, flm, cfg)``,
scores each candidate on the confusion it expects of itself.

Each iteration re-scores only the rows whose class can still change: the gaps
between a row's class scores gamma*b_k - a_k (b = eta@B, a = eta@A) are linear
in gamma, so a row that takes class c at both evaluated ends of the bracket,
every other class behind by more than a margin far above the kernel's rounding,
takes c everywhere between them.  Rows are scored a block at a time
(``confusion._row_blocks``), so no (N*M, K) score array is held.  Against labels,
the confusion kernel counts the argmax rule's predictions once; each later
candidate moves only the rows that change class out of their old cells and
into their new.  The counts are integers, so they hold the same values as a
recount and give the same utility bits.  Against weight rows, a candidate's
predictions are recounted whole, as the oracle counts its chunks: float sums in
another order would round differently.  A candidate changing no class keeps the
previous candidate's utility.  The inputs are checked once, at entry.

``brute_force_oracle`` is the exhaustive reference: it scores every
deterministic prediction matrix, a chunk at a time, with the confusion kernel
and the ``averaging.averaged`` arithmetic that ``eval`` applies to one of them,
so its utility equals the evaluated utility of its predictions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import _micro, averaged
from .confusion import (
    LabelMatrix,
    PredictionMatrix,
    ProbabilityField,
    _check_paired,
    _joint_counts,
    _per_sample,
    _row_blocks,
)
from .decision import _lowest_two, _row_scores
from .errors import GuardError
from .metrics import FractionalLinearMetric, LossTensor, MetricSpec, loss_from_gamma

# brute_force_oracle refuses instances with more deterministic assignments.
MAX_ENUMERATION = 1_000_000
# assignments scored per batch; larger chunks raise peak memory, not speed
_CHUNK = 16384
_SETTLED = 1e-9  # margin over the bracket's largest |gamma*B - A|; the kernel rounds at ~1e-15


@dataclass(frozen=True)
class BisectionConfig:
    """Search parameters.

    ``iterations`` fixes the number of halvings (50 reaches machine
    precision).
    A width of ``2^-t`` times the bracket's after t halvings is exact only for ends
    such as ``[0, 1]``, and only until the midpoint rounds onto an end (the width then
    stays a few ulps); for ends such as ``[1/3, 2/3]`` it is one ulp off from the start.
    """

    iterations: int = 50

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    gamma: float
    lower: float
    upper: float
    utility: float
    accepted: bool


@dataclass
class BisectionTrace:
    """Full iteration history plus the final loss slice, its utility and, left out of
    ``to_dict``, its read-only (N, M) predictions at the rows searched."""

    records: list[IterationRecord]
    final_loss: np.ndarray
    final_utility: float
    predictions: np.ndarray

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
            "bracket_holds": self.records[-1].lower <= self.final_utility <= self.records[-1].upper,
        }


def tuning_bracket(flm: FractionalLinearMetric, n_classes: int) -> tuple[float, float]:
    """The search's starting bracket: [min, max] of A_ij / B_ij over the cells with B_ij > 0.

    Valid when B >= 0 and A = 0 wherever B = 0: then <A, C> / <B, C> is a weighted mean of
    those ratios for every nonnegative confusion C.  The one check of whether a metric can be
    tuned on labels of ``n_classes`` classes: another K is a ValueError, no bracket a GuardError.
    """
    if flm.n_classes != n_classes:
        raise ValueError(f"metric K={flm.n_classes} does not match labels K={n_classes}")
    a, b = flm.numerator_A, flm.denominator_B
    positive = b > 0
    if (b < 0).any() or (a[~positive] != 0).any() or not positive.any():
        raise GuardError("bisection needs B >= 0, B != 0, and A = 0 wherever B = 0")
    ratios = a[positive] / b[positive]
    return float(ratios.min()), float(ratios.max())


def _integers(flm: FractionalLinearMetric) -> list[int]:
    """The entries of A, then of B, times the largest denominator among them: each float64 is an
    integer over a power of two, so every product is a Python integer."""
    ratios = [x.as_integer_ratio() for x in [*flm.numerator_A.flat, *flm.denominator_B.flat]]
    scale = max(q for _, q in ratios)
    return [p * (scale // q) for p, q in ratios]


def _at_least(ints: list[int], counts: np.ndarray, gamma: float) -> bool:
    """Whether <A, S> >= gamma * <B, S> holds exactly, S the (M, K, K) ``counts`` summed over the
    outputs and ``ints`` the entries of A and B from ``_integers``."""
    cells = counts.sum(axis=0).ravel().tolist()
    num, den = (sum(map(int.__mul__, ints[i * len(cells) :], cells)) for i in (0, 1))
    g, q = gamma.as_integer_ratio()
    return num * q >= g * den


def _search(
    truth: np.ndarray, rows: np.ndarray, flm: FractionalLinearMetric, cfg: BisectionConfig, bracket
) -> BisectionTrace:
    """The search from ``bracket``, (lower, upper), on (N, M, K) probabilities ``rows``, each
    prediction counted against its checked ``truth``: (N, M) classes or (N, M, K) weight rows.
    One loss is shared by the M outputs."""
    lower, upper = bracket
    n, m_out, k = rows.shape
    flat = rows.reshape(-1, k)  # row n*M + m
    preds = np.zeros(n * m_out, dtype=np.min_scalar_type(k))  # row n*M + m, 1-based
    margin = _SETTLED * (max(-lower, upper) * flm.denominator_B.max() + abs(flm.numerator_A).max())
    # the float utility rounds by at most 2 (K*K + M + 5) ulps of the bracket's largest end
    near = 4 * (k * k + m_out + 5) * np.finfo(float).eps * max(-lower, upper)
    counts = None  # against labels: the (M, K, K) int counts of ``preds``, kept by rescore
    true_flat = truth.reshape(-1) if truth.ndim == 2 else None  # row n*M + m
    ints = None if true_flat is None else _integers(flm)

    def rescore(
        loss: LossTensor, span: float | None = None, active=slice(None)
    ) -> tuple[np.ndarray | None, bool]:
        """Score ``active`` rows into ``preds``, a block at a time.  Returns their classes, 0 with
        a runner-up in the margin (gaps times ``span``, the max - min of the unrescaled loss),
        or None without a ``span``; and whether any of them changed class."""
        size = len(flat) if isinstance(active, slice) else len(active)
        end = None if span is None else np.empty(size, dtype=preds.dtype)
        changed = False
        for block in _row_blocks(size, k):
            picked = block if isinstance(active, slice) else active[block]
            cls, gaps = _lowest_two(_row_scores(flat[picked], loss.values), span is not None)
            if span is not None:
                clear = k == 1 or gaps * span > margin  # one class has no runner-up
                end[block] = np.where(clear, cls, 0)
            old = preds[picked]  # a view for a slice block: read before preds is written
            moved = old != cls
            if moved.any():
                changed = True
                if counts is not None:  # each moved row out of its old cell, into its new
                    rows = np.flatnonzero(moved) + block.start if picked is block else picked[moved]
                    # the flat index of (output, true - 1, pred - 1) less pred, as in _joint_counts
                    cells = np.multiply(true_flat[rows], k, dtype=np.intp)
                    cells += rows % m_out * (k * k) - (k + 1)
                    tally = counts.reshape(-1)  # a view: the updates land in counts
                    tally += np.bincount(cells + cls[moved], minlength=tally.size)
                    tally -= np.bincount(cells + old[moved], minlength=tally.size)
                preds[picked] = cls
        return end, changed

    def utility_of() -> float:
        """The micro utility of ``preds``: ``counts`` against labels, a recount against
        weight rows; the same bits as ``sample_confusion``/``expected_confusion`` and
        ``micro_confusion``."""
        joint = _joint_counts(preds.reshape(n, m_out), k, truth) if counts is None else counts
        return flm.evaluate(_micro(joint / n))

    # Start from the argmax rule (0-1 loss) so the search never returns
    # anything worse than the plain plug-in baseline.
    best_loss = LossTensor(np.ones((k, k)) - np.eye(k))
    rescore(best_loss)
    best_preds = preds.reshape(n, m_out).copy()
    if true_flat is not None:
        counts = _joint_counts(preds.reshape(n, m_out), k, truth)
    best_utility = cand_utility = utility_of()

    active = slice(None)  # every row, until both ends of the bracket have been scored
    ends = {}  # accepted -> rescore's classes of the active rows at that end
    records: list[IterationRecord] = []
    for _ in range(cfg.iterations):
        gamma = 0.5 * (lower + upper)
        if records and gamma == records[-1].gamma:  # every later record would repeat the last
            records += [records[-1]] * (cfg.iterations - len(records))
            break
        cand_loss = loss_from_gamma(flm, gamma)
        span = np.ptp(gamma * flm.denominator_B - flm.numerator_A)
        end, changed = rescore(cand_loss, span, active)
        if changed:  # otherwise the predictions, and so their utility, are the previous candidate's
            cand_utility = utility_of()
        accepted = cand_utility >= gamma  # exact equality counts as success
        if counts is not None and abs(cand_utility - gamma) <= near:
            accepted = _at_least(ints, counts, gamma)
        if accepted:
            lower = gamma
            if cand_utility >= best_utility:
                best_loss, best_utility = cand_loss, cand_utility
                best_preds = preds.reshape(n, m_out).copy()
        else:
            upper = gamma
        records.append(IterationRecord(gamma, lower, upper, cand_utility, accepted))
        ends[accepted] = end
        if len(ends) == 2:
            live = (ends[True] != ends[False]) | (ends[True] == 0)
            active = np.flatnonzero(live) if isinstance(active, slice) else active[live]
            ends = {side: classes[live] for side, classes in ends.items()}
    best_preds.flags.writeable = False  # a PredictionMatrix keeps it instead of a copy
    return BisectionTrace(records, best_loss.values, best_utility, best_preds)


def bisect_micro(
    truth: LabelMatrix | ProbabilityField,
    probs_hat: ProbabilityField,
    flm: FractionalLinearMetric,
    cfg: BisectionConfig,
) -> tuple[LossTensor, BisectionTrace]:
    """Search for the micro-averaged optimum with one loss shared by all outputs.

    ``probs_hat`` holds the probability estimates at the evaluation points and
    ``truth`` what each candidate's predictions there are counted against: the
    labels (sample confusions) or a probability field (expected confusions).
    The returned loss repeats that K x K matrix as one slice per output, and the
    trace's ``predictions`` are ``weighted_predict(loss, probs_hat).values``.
    """
    _check_paired(truth, probs_hat)
    bracket = tuning_bracket(flm, truth.n_classes)
    trace = _search(truth.values, probs_hat.values, flm, cfg, bracket)
    m_out, k = probs_hat.n_outputs, probs_hat.n_classes
    return LossTensor(np.broadcast_to(trace.final_loss, (m_out, k, k))), trace


def bisect_macro(
    truth: LabelMatrix | ProbabilityField,
    probs_hat: ProbabilityField,
    flm: FractionalLinearMetric,
    cfg: BisectionConfig,
) -> tuple[LossTensor, list[BisectionTrace]]:
    """The micro search on each output alone; the loss slices may differ per output.
    Trace m's ``predictions`` are column m of ``weighted_predict(loss, probs_hat).values``."""
    _check_paired(truth, probs_hat)
    bracket = tuning_bracket(flm, truth.n_classes)
    traces = [
        _search(truth.values[:, m : m + 1], probs_hat.values[:, m : m + 1], flm, cfg, bracket)
        for m in range(truth.n_outputs)
    ]
    return LossTensor(np.stack([t.final_loss for t in traces])), traces


def brute_force_oracle(
    truth: LabelMatrix | ProbabilityField, spec: MetricSpec, mode: str
) -> tuple[float, PredictionMatrix]:
    """Exhaustively maximize the metric, averaged by ``mode``, over every
    deterministic prediction matrix.

    The predictions are counted against ``truth``: sample confusions of a
    LabelMatrix, expected confusions of a ProbabilityField, which instance
    averaging refuses.  Guarded at K^(N*M) <= 10^6 assignments; ties resolve to
    the first maximizer in enumeration order (all class-1 predictions first,
    last cell varying fastest).
    """
    if mode == "instance" and isinstance(truth, ProbabilityField):
        raise ValueError("instance averaging takes no probabilities (--probs), only labels")
    n, m_out, k = truth.n_samples, truth.n_outputs, truth.n_classes
    total = k ** (n * m_out)
    if total > MAX_ENUMERATION:
        raise GuardError(f"instance too large: K^(N*M) = {total} exceeds {MAX_ENUMERATION}")
    true = truth.values

    best_utility = -np.inf
    best_preds = None
    for start in range(0, total, _CHUNK):
        cells = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), (k,) * (n * m_out))
        preds = np.stack(cells, axis=1).reshape(-1, n, m_out) + 1
        p = len(preds)
        # the confusions eval builds for each assignment, all counted in one kernel call
        if mode == "instance":
            confs = _per_sample(preds.reshape(-1, m_out), np.tile(true, (p, 1)), k)
        else:
            # one kernel column per (assignment, output), each counted against its output's truth
            cols = preds.transpose(1, 0, 2).reshape(n, -1)
            confs = _joint_counts(cols, k, np.tile(true, (1, p, 1)[: true.ndim])) / n
        utilities = averaged(spec, confs.reshape(p, -1, k, k), mode)
        utilities = np.where(np.isnan(utilities), -np.inf, utilities)
        local_best = int(np.argmax(utilities))
        if utilities[local_best] > best_utility:
            best_utility = float(utilities[local_best])
            best_preds = preds[local_best]
    if best_preds is None or not np.isfinite(best_utility):
        raise GuardError("degenerate denominator: metric undefined on every assignment")
    return best_utility, PredictionMatrix(best_preds, n_classes=k)
