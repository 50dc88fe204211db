from fractions import Fraction

import numpy as np
import pytest

from metricopt.averaging import micro_confusion
from metricopt.bisection import tuning_bracket
from metricopt.confusion import ProbabilityField, expected_confusion, sample_confusion
from metricopt.decision import weighted_predict
from metricopt.errors import GuardError
from metricopt.metrics import loss_from_gamma


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_confusion(rng, n_classes, interior=False):
    """Random valid K x K confusion; ``interior`` keeps entries well away
    from zero so finite differences stay inside the domain."""
    raw = rng.dirichlet(np.ones(n_classes * n_classes)).reshape(n_classes, n_classes)
    if interior:
        uniform = np.full_like(raw, 1.0 / raw.size)
        raw = 0.8 * raw + 0.2 * uniform
    return raw


def random_labels(rng, n_samples, n_outputs, n_classes):
    return rng.integers(1, n_classes + 1, size=(n_samples, n_outputs))


def random_prob_rows(rng, n_samples, n_outputs, n_classes):
    raw = rng.dirichlet(np.ones(n_classes), size=(n_samples, n_outputs))
    return raw


def exact_utility(flm, labels, preds):
    """The micro utility of (N, M) ``preds`` against ``labels`` in rationals: the confusion
    counted in integers over every output, each float64 entry of A and B taken exactly."""
    k = flm.n_classes
    cells = np.zeros((k, k), dtype=np.int64)
    np.add.at(cells, (labels.values.ravel() - 1, np.asarray(preds).ravel() - 1), 1)
    num, den = (
        sum(Fraction(x) * c for x, c in zip(matrix.ravel().tolist(), cells.ravel().tolist()))
        for matrix in (flm.numerator_A, flm.denominator_B)
    )
    return num / den


def exact_family_best(truth, probs, flm):
    """Best micro utility, counted against ``truth`` (labels: sample confusions; a
    probability field: expected confusions), over every rule of the weighted family
    ``gamma*B - A`` on ``probs`` with gamma inside ``tuning_bracket(flm, flm.n_classes)``.

    Class k scores ``gamma*b_k - a_k`` in a row (a = eta@A, b = eta@B), so a
    row's rule changes only where two of its classes cross, at
    ``(a_j - a_c)/(b_j - b_c)``.  Between consecutive crossings of any row the
    rule is one; its midpoint is scored with ``loss_from_gamma``,
    ``weighted_predict`` and ``sample_confusion`` (``expected_confusion`` on a
    field).  The crossings themselves, where a tie decides, are not scored.
    """
    lower, upper = tuning_bracket(flm, flm.n_classes)
    rows = probs.values.reshape(-1, flm.n_classes)
    a, b = rows @ flm.numerator_A, rows @ flm.denominator_B
    da = a[:, :, None] - a[:, None, :]
    db = b[:, :, None] - b[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = (da / db)[db != 0]
    inside = crossings[(crossings > lower) & (crossings < upper)]
    ends = np.unique(np.concatenate([[lower, upper], inside]))
    best = -np.inf
    for gamma in 0.5 * (ends[:-1] + ends[1:]):
        preds = weighted_predict(loss_from_gamma(flm, gamma), probs)
        if isinstance(truth, ProbabilityField):
            conf = expected_confusion(truth, preds)
        else:
            conf = sample_confusion(truth, preds)
        try:
            utility = flm.evaluate(micro_confusion(conf))
        except GuardError:
            continue
        best = max(best, utility)
    return best
