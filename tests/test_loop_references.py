"""Per-cell Python loops as references for the confusion builders, the
averaged utilities, the weighted decision rule and the exhaustive oracle; the
plain allocating gradient step as the reference for the logistic-regression
descent; and the bisection that re-scores every row at every gamma as the
reference for the search, which re-scores only the rows that can change."""

import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricopt import confusion
from metricopt.averaging import instance_utility, macro_utility, micro_confusion, micro_utility
from metricopt.bisection import (
    BisectionConfig,
    BisectionTrace,
    IterationRecord,
    bisect_macro,
    bisect_micro,
    brute_force_oracle,
    tuning_bracket,
)
from metricopt.confusion import (
    LabelMatrix,
    PredictionMatrix,
    ProbabilityField,
    expected_confusion,
    per_sample_confusion,
    sample_confusion,
)
from metricopt.decision import weighted_predict
from metricopt.errors import GuardError
from metricopt.estimators import fit_lr
from metricopt.metrics import (
    FractionalLinearMetric,
    LossTensor,
    MetricSpec,
    _eval_batch,
    as_fractional_linear,
    loss_from_gamma,
)

# A sum of N terms in [0, 1], divided by N, is off by at most about N ulps of 1.
EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    m_out=st.integers(1, 3),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, m_out=1, k=2, seed=0)
def test_builders_match_per_cell_loops(n, m_out, k, seed):
    rng = np.random.default_rng(seed)
    labels = LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    preds = PredictionMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    probs = ProbabilityField(rng.dirichlet(np.ones(k), size=(n, m_out)))

    counts = np.zeros((m_out, k, k), dtype=np.int64)
    for s in range(n):
        for m in range(m_out):
            counts[m, labels.values[s, m] - 1, preds.values[s, m] - 1] += 1
    np.testing.assert_array_equal(sample_confusion(labels, preds).values, counts / n)

    expected = np.zeros((m_out, k, k))
    for m in range(m_out):
        for i in range(k):
            for j in range(k):
                mass = sum(probs.values[s, m, i] for s in range(n) if preds.values[s, m] == j + 1)
                expected[m, i, j] = mass / n
    np.testing.assert_allclose(
        expected_confusion(probs, preds).values, expected, rtol=0, atol=n * EPS
    )

    # Eighths times quarters: every score is exact in any summation order,
    # so equal scores are exact ties and must go to the lowest class.
    eighths = rng.multinomial(8, np.full(k, 1.0 / k), size=(n, m_out)) / 8
    loss = LossTensor(rng.integers(0, 5, size=(m_out, k, k)) / 4)
    got = weighted_predict(loss, ProbabilityField(eighths)).values
    for s in range(n):
        for m in range(m_out):
            scores = [
                sum(loss.values[m, l, c] * eighths[s, m, l] for l in range(k)) for c in range(k)
            ]
            assert got[s, m] == scores.index(min(scores)) + 1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    m_out=st.integers(1, 5),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, m_out=1, k=2, seed=0)
@example(n=7, m_out=3, k=3, seed=0)
@example(n=7, m_out=5, k=4, seed=1)
def test_per_sample_confusion_matches_per_cell_loop(n, m_out, k, seed):
    rng = np.random.default_rng(seed)
    labels = LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    preds = PredictionMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    weights = np.full(m_out, 1.0 / m_out)

    # outputs added in order, as the kernel does, so the sums agree exactly
    looped = np.zeros((n, k, k))
    for s in range(n):
        for m in range(m_out):
            looped[s, labels.values[s, m] - 1, preds.values[s, m] - 1] += weights[m]
    per = per_sample_confusion(labels, preds)
    np.testing.assert_array_equal(per, looped)

    # micro and macro: each output weighted 1/M and added in output order, bit for bit
    conf = sample_confusion(labels, preds)
    micro = np.zeros((k, k))
    for m in range(m_out):
        micro += weights[m] * conf.values[m]
    np.testing.assert_array_equal(micro_confusion(conf), micro)
    for spec in (MetricSpec.ordinal(k), MetricSpec.micro_f1(k)):
        reference = float(_eval_batch(spec, micro))
        if np.isnan(reference):
            with pytest.raises(GuardError):
                micro_utility(spec, conf)
        else:
            assert micro_utility(spec, conf) == reference
        per_output = [float(_eval_batch(spec, conf.values[m])) for m in range(m_out)]
        if np.isnan(per_output).any():
            with pytest.raises(GuardError):
                macro_utility(spec, conf)
            continue
        macro = 0.0
        for m in range(m_out):
            macro += weights[m] * per_output[m]
        assert macro_utility(spec, conf) == macro

    # the former instance averaging: a dense one-hot (N, M, K, K) tensor folded over outputs
    dense = np.zeros((n, m_out, k, k))
    for s in range(n):
        for m in range(m_out):
            dense[s, m, labels.values[s, m] - 1, preds.values[s, m] - 1] = 1.0
    folded = np.einsum("m,nmij->nij", weights, dense)
    np.testing.assert_allclose(per, folded, rtol=0, atol=m_out * EPS)
    for spec in (MetricSpec.ordinal(k), MetricSpec.micro_f1(k)):
        reference = _eval_batch(spec, folded)
        if np.isnan(reference).any():
            with pytest.raises(GuardError):
                instance_utility(spec, labels, preds)
        else:
            assert instance_utility(spec, labels, preds) == pytest.approx(
                reference.mean(), rel=0, abs=1e-14
            )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4),
    m_out=st.integers(1, 3),
    k=st.integers(2, 3),
    kind=st.sampled_from(["micro_f1", "ordinal"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, m_out=2, k=2, kind="micro_f1", seed=0)
def test_instance_oracle_matches_per_cell_loop_and_refuses_probabilities(n, m_out, k, kind, seed):
    if k ** (n * m_out) > 1024:
        return
    rng = np.random.default_rng(seed)
    labels = LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    probs = ProbabilityField(rng.dirichlet(np.ones(k), size=(n, m_out)))
    spec = getattr(MetricSpec, kind)(k)

    # every assignment in enumeration order, last cell fastest; the first maximizer wins
    best, best_preds = -np.inf, None
    for assignment in itertools.product(range(1, k + 1), repeat=n * m_out):
        preds = np.array(assignment).reshape(n, m_out)
        # sample s's confusion: 1/M in cell (y_s,m, p_s,m), outputs added in order
        per = np.zeros((n, k, k))
        for s in range(n):
            for m in range(m_out):
                per[s, labels.values[s, m] - 1, preds[s, m] - 1] += 1.0 / m_out
        utility = _eval_batch(spec, per).mean()
        if utility > best:
            best, best_preds = utility, preds

    with pytest.raises(ValueError, match=r"instance averaging takes no probabilities \(--probs\)"):
        brute_force_oracle(probs, spec, "instance")
    if best_preds is None:
        with pytest.raises(GuardError):
            brute_force_oracle(labels, spec, "instance")
        return
    utility, preds = brute_force_oracle(labels, spec, "instance")
    assert utility == best
    np.testing.assert_array_equal(preds.values, best_preds)


def plain_descent(features, labels, l2=1e-4, step=0.1, iterations=500):
    """The descent by the plain formula, with a fresh softmax, one-hot and
    gradient on every step; ``fit_lr`` must match it bit for bit."""
    n, k = labels.n_samples, labels.n_classes
    weights = np.zeros((labels.n_outputs, k, features.shape[1]))
    for m in range(labels.n_outputs):
        if np.unique(labels.values[:, m]).size == 1:
            continue
        onehot = np.zeros((n, k))
        onehot[np.arange(n), labels.values[:, m] - 1] = 1.0
        w = weights[m]
        for _ in range(iterations):
            logits = -features @ w.T
            expd = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = expd / expd.sum(axis=1, keepdims=True)
            w -= step * (-(probs - onehot).T @ features / n + l2 * w)
    return weights


def _laid_out(features, layout):
    if layout == "F":
        return np.asfortranarray(features)
    if layout == "strided":
        wide = np.empty((features.shape[0], 2 * features.shape[1]))
        wide[:, ::2] = features
        return wide[:, ::2]
    return np.ascontiguousarray(features)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 5),
    m_out=st.integers(1, 3),
    k=st.integers(2, 12),
    iterations=st.integers(1, 20),
    layout=st.sampled_from(["C", "F", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, d=2, m_out=1, k=2, iterations=5, layout="C", seed=0)
def test_descent_matches_plain_step_bit_for_bit(n, d, m_out, k, iterations, layout, seed):
    rng = np.random.default_rng(seed)
    features = _laid_out(rng.standard_normal((n, d)) * 2.0, layout)
    values = rng.integers(1, k + 1, size=(n, m_out))
    if m_out > 1:
        values[:, -1] = values[0, -1]  # one output with a single training class
    labels = LabelMatrix(values, k)
    model = fit_lr(features, labels, iterations=iterations)
    assert np.array_equal(model.weights, plain_descent(features, labels, iterations=iterations))


def test_descent_matches_plain_step_at_benchmark_shape():
    # the fit-tune workload's fit: N=4000 rows, D=10, M=2 outputs, K=10
    rng = np.random.default_rng(7)
    features = rng.standard_normal((4000, 10))
    labels = LabelMatrix(rng.integers(1, 11, size=(4000, 2)), 10)
    model = fit_lr(features, labels, iterations=500)
    assert np.array_equal(model.weights, plain_descent(features, labels, iterations=500))


@pytest.mark.parametrize("k", [129, 200])
def test_descent_matches_plain_step_above_numpys_pairwise_block(k):
    # above 128 classes numpy's pairwise sum splits a row in two, and so must
    # the descent's class-major row sums
    rng = np.random.default_rng(k)
    features = rng.standard_normal((40, 6))
    labels = LabelMatrix(rng.integers(1, k + 1, size=(40, 2)), k)
    model = fit_lr(features, labels, iterations=8)
    assert np.array_equal(model.weights, plain_descent(features, labels, iterations=8))


def full_rescoring_bisect_micro(
    truth: LabelMatrix | ProbabilityField,
    probs_hat: ProbabilityField,
    flm: FractionalLinearMetric,
    cfg: BisectionConfig,
) -> tuple[LossTensor, BisectionTrace]:
    """The micro search as it was before it skipped settled rows: every row is
    re-scored by ``weighted_predict`` at every gamma."""
    confusion._check_paired(truth, probs_hat)
    m_out, k = truth.n_outputs, flm.n_classes
    lower, upper = tuning_bracket(flm, truth.n_classes)

    def utility_of(loss: LossTensor) -> float:
        preds = weighted_predict(loss, probs_hat)
        if isinstance(truth, LabelMatrix):
            conf = sample_confusion(truth, preds)
        else:
            conf = expected_confusion(truth, preds)
        return flm.evaluate(micro_confusion(conf))

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
    tiled = LossTensor(np.broadcast_to(best_loss.values, (m_out, k, k)))
    return tiled, BisectionTrace(records, best_loss.values, best_utility)


def _probability_rows(rng, n, m_out, k, kind):
    """(N, M, K) probabilities, drawn to make ties between classes and rows common."""
    if kind == "onehot":
        return np.eye(k)[rng.integers(0, k, size=(n, m_out))]
    if kind == "rounded":  # multiples of 1/4 and 1/10
        total = int(rng.choice([4, 10]))
        return rng.multinomial(total, np.full(k, 1.0 / k), size=(n, m_out)) / total
    rows = rng.dirichlet(np.full(k, rng.choice([0.2, 1.0, 5.0])), size=(n, m_out))
    if kind == "duplicated":  # every row one of three
        return rows.reshape(-1, k)[rng.integers(0, min(3, n * m_out), size=n * m_out)].reshape(
            n, m_out, k
        )
    return rows


def _search_metric(rng, k, kind):
    if k == 1:  # MetricSpec needs two classes; a ratio of 1x1 integers does not
        kind = "integer_ratio"
    if kind == "micro_f1":
        return as_fractional_linear(MetricSpec.micro_f1(k, int(rng.integers(1, k + 1))))
    if kind == "ordinal":
        return as_fractional_linear(MetricSpec.ordinal(k))
    # small integers tie many ratios and scores
    return FractionalLinearMetric(rng.integers(0, 4, size=(k, k)), rng.integers(1, 4, size=(k, k)))


def _truth(kind, rng, labels, probs, rows):
    """What the search counts against: the labels, the estimates themselves, or
    another field of the same ``rows`` kind, drawn last so the other kinds keep their draws."""
    if kind == "labels":
        return labels
    if kind == "probs_hat":
        return probs
    n, m_out, k = probs.values.shape
    return ProbabilityField(_probability_rows(rng, n, m_out, k, rows))


def _column(truth, m):
    if isinstance(truth, LabelMatrix):
        return LabelMatrix(truth.values[:, m : m + 1], truth.n_classes)
    return ProbabilityField(truth.values[:, m : m + 1])


def _bits(trace: BisectionTrace) -> str:
    return repr(trace.to_dict())  # repr tells every float apart, -0.0 from 0.0 included


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 40),
    m_out=st.integers(1, 4),
    k=st.integers(1, 6),
    iterations=st.integers(1, 70),
    rows=st.sampled_from(["dirichlet", "onehot", "rounded", "duplicated"]),
    metric=st.sampled_from(["micro_f1", "ordinal", "integer_ratio"]),
    truth=st.sampled_from(["labels", "probs_hat", "field"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, m_out=1, k=2, iterations=70, rows="onehot", metric="micro_f1", truth="labels",
         seed=0)
@example(n=40, m_out=4, k=6, iterations=70, rows="dirichlet", metric="micro_f1",
         truth="probs_hat", seed=1)
@example(n=5, m_out=2, k=1, iterations=70, rows="dirichlet", metric="integer_ratio",
         truth="labels", seed=2)
@example(n=5, m_out=2, k=1, iterations=70, rows="onehot", metric="integer_ratio",
         truth="probs_hat", seed=3)
@example(n=40, m_out=3, k=5, iterations=70, rows="dirichlet", metric="micro_f1", truth="field",
         seed=4)
def test_search_matches_full_rescoring_bit_for_bit(
    n, m_out, k, iterations, rows, metric, truth, seed
):
    rng = np.random.default_rng(seed)
    labels = LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    probs = ProbabilityField(_probability_rows(rng, n, m_out, k, rows))
    flm = _search_metric(rng, k, metric)
    truth = _truth(truth, rng, labels, probs, rows)
    cfg = BisectionConfig(iterations)

    def outcome(search, truth, probs):
        try:
            return search(truth, probs, flm, cfg)
        except GuardError:  # a candidate with a degenerate denominator
            return None

    expected = outcome(full_rescoring_bisect_micro, truth, probs)
    got = outcome(bisect_micro, truth, probs)
    assert (got is None) == (expected is None)
    if got is not None:
        assert _bits(got[1]) == _bits(expected[1])
        assert got[0].values.tobytes() == expected[0].values.tobytes()

    columns = [
        (_column(truth, m), ProbabilityField(probs.values[:, m : m + 1])) for m in range(m_out)
    ]
    expected = [outcome(full_rescoring_bisect_micro, *column) for column in columns]
    if any(result is None for result in expected):
        with pytest.raises(GuardError):
            bisect_macro(truth, probs, flm, cfg)
        return
    loss, traces = bisect_macro(truth, probs, flm, cfg)
    assert [_bits(t) for t in traces] == [_bits(t) for _, t in expected]
    stacked = np.stack([t.final_loss for _, t in expected])
    assert loss.values.tobytes() == stacked.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 30),
    m_out=st.integers(1, 4),
    k=st.integers(2, 5),
    iterations=st.integers(1, 60),
    rows=st.sampled_from(["dirichlet", "onehot", "rounded", "duplicated"]),
    metric=st.sampled_from(["micro_f1", "ordinal", "integer_ratio"]),
    truth=st.sampled_from(["labels", "probs_hat"]),
    block_rows=st.sampled_from([1, 2, 3, 7]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=30, m_out=4, k=5, iterations=60, rows="dirichlet", metric="micro_f1",
         truth="labels", block_rows=7, seed=0)
def test_search_in_small_row_blocks_matches_full_rescoring(
    n, m_out, k, iterations, rows, metric, truth, block_rows, seed
):
    """With blocks of a few rows, so block edges fall inside the first passes and
    the active rows alike, the search keeps the bits of re-scoring every row."""
    rng = np.random.default_rng(seed)
    labels = LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    probs = ProbabilityField(_probability_rows(rng, n, m_out, k, rows))
    flm = _search_metric(rng, k, metric)
    truth = _truth(truth, rng, labels, probs, rows)
    cfg = BisectionConfig(iterations)
    try:
        expected = full_rescoring_bisect_micro(truth, probs, flm, cfg)
    except GuardError:  # a candidate with a degenerate denominator
        with patch.object(confusion, "_BLOCK_CELLS", block_rows * k), pytest.raises(GuardError):
            bisect_micro(truth, probs, flm, cfg)
        return
    with patch.object(confusion, "_BLOCK_CELLS", block_rows * k):
        got = bisect_micro(truth, probs, flm, cfg)
    assert _bits(got[1]) == _bits(expected[1])
    assert got[0].values.tobytes() == expected[0].values.tobytes()


def test_search_rescores_rows_whose_tie_is_decided_by_rounding():
    # For eta = (0.4, 0.2, 0.4) classes 1 and 2 score exactly alike at every gamma
    # (eta@A and eta@B agree on both columns), and the kernel's rounding picks
    # one or the other from gamma to gamma.  Such a row is never settled.  Only
    # sample mode tells the two classes apart: their expected confusions are alike.
    flm = FractionalLinearMetric(
        np.array([[2, 3, 2], [3, 1, 1], [3, 3, 1]]), np.array([[3, 3, 2], [2, 2, 3], [2, 2, 2]])
    )
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(3), size=(12, 1))
    probs[:6, 0] = [0.4, 0.2, 0.4]
    labels = LabelMatrix(rng.integers(1, 4, size=(12, 1)), 3)
    cfg = BisectionConfig(70)
    got = bisect_micro(labels, ProbabilityField(probs), flm, cfg)
    expected = full_rescoring_bisect_micro(labels, ProbabilityField(probs), flm, cfg)
    assert _bits(got[1]) == _bits(expected[1])
