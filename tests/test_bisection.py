from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricopt import bisection
from metricopt.averaging import (
    instance_utility,
    macro_utility,
    micro_confusion,
    micro_utility,
)
from metricopt.bisection import (
    MAX_ENUMERATION,
    BisectionConfig,
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
    sample_confusion,
)
from metricopt.decision import weighted_predict
from metricopt.errors import GuardError
from metricopt.metrics import (
    DENOMINATOR_FLOOR,
    FractionalLinearMetric,
    LossTensor,
    MetricSpec,
    as_fractional_linear,
    loss_from_gamma,
)

from conftest import exact_family_best, exact_utility, random_labels, random_prob_rows


def grouped_fixture():
    """Labels and probabilities where eta equals the per-group empirical label
    frequencies, so sample and expected utilities coincide for every
    probability-measurable classifier."""
    # group A: 4 samples with labels (1, 1, 1, 2); group B: 4 samples (2, 2, 2, 1)
    labels = np.array([1, 1, 1, 2, 2, 2, 2, 1])[:, None]
    eta_a = np.array([0.75, 0.25])
    eta_b = np.array([0.25, 0.75])
    probs = np.array([eta_a] * 4 + [eta_b] * 4)[:, None, :]
    return LabelMatrix(labels, 2), ProbabilityField(probs)


class TestConfig:
    def test_iteration_guard(self):
        with pytest.raises(ValueError, match="iterations"):
            BisectionConfig(iterations=0)


class TestBisectMicro:
    def test_constant_metric_converges_to_its_value(self, rng):
        base = rng.random((2, 2)) + 0.5
        u0 = 0.37
        flm = FractionalLinearMetric(u0 * base, base)
        labels = LabelMatrix(random_labels(rng, 10, 1, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 10, 1, 2))
        cfg = BisectionConfig(iterations=40)
        _, trace = bisect_micro(labels, probs, flm, cfg)
        assert trace.final_utility == pytest.approx(u0, abs=1e-12)
        assert abs(trace.records[-1].gamma - u0) <= 2.0**-40 + 1e-12

    def test_micro_emits_identical_loss_slices(self, rng):
        labels = LabelMatrix(random_labels(rng, 15, 3, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 15, 3, 2))
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        loss, _ = bisect_micro(labels, probs, flm, BisectionConfig(iterations=25))
        for m in range(1, 3):
            np.testing.assert_array_equal(loss.values[m], loss.values[0])

    def test_linear_search_counts_only_changed_rules(self, rng):
        # Every candidate of a linear metric rescales to the same rule, so not all 51 rules
        # are counted: label counts are built once, for the argmax rule, and then moved by
        # the rows that change class; weight-row counts are built for the argmax rule and
        # the first candidate.
        k = 5
        labels = LabelMatrix(random_labels(rng, 200, 2, k), k)
        probs = ProbabilityField(random_prob_rows(rng, 200, 2, k))
        argmax = weighted_predict(LossTensor(np.ones((k, k)) - np.eye(k)), probs)
        flm = as_fractional_linear(MetricSpec.ordinal(k))
        assert (weighted_predict(loss_from_gamma(flm, 0.5), probs).values != argmax.values).any()
        for truth, builds in ((labels, 1), (probs, 2)):
            with patch.object(bisection, "_joint_counts", wraps=bisection._joint_counts) as counts:
                _, trace = bisect_micro(truth, probs, flm, BisectionConfig(iterations=50))
            assert counts.call_count == builds, type(truth).__name__
            assert len({record.utility for record in trace.records}) == 1

    def test_accepted_utility_never_decreases(self, rng):
        labels = LabelMatrix(random_labels(rng, 20, 1, 3), 3)
        probs = ProbabilityField(random_prob_rows(rng, 20, 1, 3))
        flm = as_fractional_linear(MetricSpec.micro_f1(3))
        _, trace = bisect_micro(labels, probs, flm, BisectionConfig(iterations=30))
        best_so_far = -np.inf
        for record in trace.records:
            if record.accepted:
                best_so_far = max(best_so_far, record.utility)
        # final classifier scores at least as well as every accepted candidate
        assert trace.final_utility >= best_so_far - 1e-15

    def test_bracket_lower_bound_is_achievable(self, rng):
        labels = LabelMatrix(random_labels(rng, 16, 2, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 16, 2, 2))
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        loss, trace = bisect_micro(labels, probs, flm, BisectionConfig(iterations=30))
        preds = weighted_predict(loss, probs)
        conf = sample_confusion(labels, preds)
        achieved = flm.evaluate(conf.values.mean(axis=0))
        assert achieved >= trace.records[-1].lower - 1e-12

    def test_beats_gamma_grid_oracle_on_grouped_fixture(self):
        labels, probs = grouped_fixture()
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        iterations = 50
        loss, trace = bisect_micro(labels, probs, flm, BisectionConfig(iterations=iterations))
        oracle = exact_family_best(labels, probs, flm)
        preds = weighted_predict(loss, probs)
        achieved = flm.evaluate(sample_confusion(labels, preds).values.mean(axis=0))
        assert achieved >= oracle - 2.0**-iterations - 1e-9

    def test_expected_mode_matches_exhaustive_oracle(self, rng):
        spec = MetricSpec.micro_f1(2)
        flm = as_fractional_linear(spec)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            labels = LabelMatrix(random_labels(rng, n, 1, 2), 2)
            probs = ProbabilityField(random_prob_rows(rng, n, 1, 2))
            cfg = BisectionConfig(iterations=50)
            loss, _ = bisect_micro(probs, probs, flm, cfg)
            oracle_u, _ = brute_force_oracle(probs, spec, "micro")
            preds = weighted_predict(loss, probs)
            achieved = flm.evaluate(expected_confusion(probs, preds).values.mean(axis=0))
            assert achieved >= oracle_u - 2.0**-50 - 1e-9

    @pytest.mark.parametrize("search", [bisect_micro, bisect_macro])
    def test_class_count_mismatch_rejected(self, rng, search):
        labels = LabelMatrix(random_labels(rng, 5, 2, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 5, 2, 3))
        flm = as_fractional_linear(MetricSpec.micro_f1(3))
        # the pairing check comes first: the metric's K matches the probabilities'
        match = r"LabelMatrix \(N, M, K\) = \(5, 2, 2\) does not match ProbabilityField"
        with pytest.raises(ValueError, match=match):
            search(labels, probs, flm, BisectionConfig())

    @pytest.mark.parametrize("search", [bisect_micro, bisect_macro])
    def test_metric_class_count_mismatch_rejected(self, rng, search):
        labels = LabelMatrix(random_labels(rng, 5, 2, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 5, 2, 2))
        flm = as_fractional_linear(MetricSpec.micro_f1(3))
        with pytest.raises(ValueError, match="metric K=3 does not match labels K=2"):
            search(labels, probs, flm, BisectionConfig())


class TestBisectMacro:
    def test_single_output_macro_equals_micro(self, rng):
        labels = LabelMatrix(random_labels(rng, 14, 1, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 14, 1, 2))
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        cfg = BisectionConfig(iterations=30)
        loss_micro, trace_micro = bisect_micro(labels, probs, flm, cfg)
        loss_macro, traces_macro = bisect_macro(labels, probs, flm, cfg)
        assert len(traces_macro) == 1
        np.testing.assert_array_equal(loss_micro.values, loss_macro.values)
        assert [r.gamma for r in trace_micro.records] == [
            r.gamma for r in traces_macro[0].records
        ]
        assert [r.utility for r in trace_micro.records] == [
            r.utility for r in traces_macro[0].records
        ]

    def test_independent_outputs_match_separate_runs(self, rng):
        labels = LabelMatrix(random_labels(rng, 12, 2, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 12, 2, 2))
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        cfg = BisectionConfig(iterations=30)
        _, traces = bisect_macro(labels, probs, flm, cfg)
        for m in range(2):
            single_labels = LabelMatrix(labels.values[:, m : m + 1], 2)
            single_probs = ProbabilityField(probs.values[:, m : m + 1, :])
            _, single_trace = bisect_micro(single_labels, single_probs, flm, cfg)
            assert [r.gamma for r in traces[m].records] == [
                r.gamma for r in single_trace.records
            ]
            np.testing.assert_array_equal(traces[m].final_loss, single_trace.final_loss)

    def test_macro_beats_shared_loss_solution_under_macro_averaging(self, rng):
        # heterogeneous outputs: per-output losses can only help
        labels_col1 = random_labels(rng, 30, 1, 2)
        labels_col2 = 3 - labels_col1  # second output systematically flipped
        labels = LabelMatrix(np.hstack([labels_col1, labels_col2]), 2)
        probs = ProbabilityField(random_prob_rows(rng, 30, 2, 2))
        spec = MetricSpec.micro_f1(2)
        flm = as_fractional_linear(spec)
        cfg = BisectionConfig(iterations=40)
        loss_macro, _ = bisect_macro(labels, probs, flm, cfg)
        loss_micro, _ = bisect_micro(labels, probs, flm, cfg)
        macro_of_macro = macro_utility(
            spec, sample_confusion(labels, weighted_predict(loss_macro, probs))
        )
        macro_of_micro = macro_utility(
            spec, sample_confusion(labels, weighted_predict(loss_micro, probs))
        )
        assert macro_of_macro >= macro_of_micro - 1e-12


@pytest.mark.parametrize("truth", ["labels", "weight rows"])
@pytest.mark.parametrize("best", ["argmax rule", "candidate before the last accepted"])
def test_searches_return_the_predictions_of_their_loss(truth, best):
    """Each trace's predictions are those ``weighted_predict`` gives under the returned loss:
    the argmax rule's when no candidate beats it, and the best candidate's, not the last
    accepted one's, when a later accepted candidate scores below it.  The micro search scores
    1200 rows a pass (the kernel's class-major path), the macro search 600 (its row path)."""
    seed, concentration = (5, 0.3) if best == "argmax rule" else (0, 1.0)
    n, m_out, k = 600, 2, 4
    rng = np.random.default_rng(seed)
    probs = ProbabilityField(rng.dirichlet(np.full(k, concentration), size=(n, m_out)))
    draws = (probs.values.cumsum(axis=2) < rng.random((n, m_out, 1))).sum(axis=2) + 1
    labels = LabelMatrix(np.minimum(draws, k), k)
    # one-hot weight rows count as the labels do, through the recounting path
    truth = labels if truth == "labels" else ProbabilityField(np.eye(k)[labels.values - 1])
    flm = MetricSpec.micro_f1(k).ratio
    loss, trace = bisect_micro(truth, probs, flm, BisectionConfig())
    macro_loss, traces = bisect_macro(truth, probs, flm, BisectionConfig())
    for searched in [trace, *traces]:
        if best == "argmax rule":
            np.testing.assert_array_equal(searched.final_loss, np.ones((k, k)) - np.eye(k))
        else:
            last_accepted = [r for r in searched.records if r.accepted][-1]
            assert last_accepted.utility < searched.final_utility
    np.testing.assert_array_equal(trace.predictions, weighted_predict(loss, probs).values)
    np.testing.assert_array_equal(
        np.hstack([t.predictions for t in traces]), weighted_predict(macro_loss, probs).values
    )


class TestRatioBracket:
    def test_micro_f1_bracket_is_the_unit_interval(self):
        for negative_class in (1, 3):
            flm = as_fractional_linear(MetricSpec.micro_f1(3, negative_class))
            assert tuning_bracket(flm, flm.n_classes) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[1.0, 0.0], [0.0, 1.0]], [[1.0, -0.5], [0.5, 1.0]]),  # negative B
            ([[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]),  # A != 0 where B = 0
            ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),  # no ratio at all
        ],
    )
    def test_unbracketable_metric_refused(self, rng, a, b):
        labels = LabelMatrix(random_labels(rng, 6, 2, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 6, 2, 2))
        flm = FractionalLinearMetric(np.array(a), np.array(b))
        for search in (bisect_micro, bisect_macro):
            with pytest.raises(GuardError, match="B >= 0"):
                search(labels, probs, flm, BisectionConfig(iterations=5))

    def test_utilities_above_one_match_exhaustive_oracle(self):
        # A = 3I, B = [[1, 1], [1, 2]]: the ratios span [0, 3], so a search
        # bracketed by [0, 1] cannot reach optima above 1
        spec = MetricSpec.fractional_linear(3.0 * np.eye(2), np.array([[1.0, 1.0], [1.0, 2.0]]))
        flm = as_fractional_linear(spec)
        iterations = 50
        slack = 3.0 * 2.0**-iterations + 1e-9
        rng = np.random.default_rng(7)
        for _ in range(90):
            n, m_out = int(rng.integers(2, 8)), int(rng.integers(1, 3))
            labels = LabelMatrix(rng.integers(1, 3, size=(n, m_out)), 2)
            probs = ProbabilityField(rng.dirichlet(np.ones(2), size=(n, m_out)))
            cfg = BisectionConfig(iterations=iterations)
            loss, trace = bisect_micro(probs, probs, flm, cfg)
            assert trace.records[0].gamma == 1.5
            conf = expected_confusion(probs, weighted_predict(loss, probs))
            achieved = flm.evaluate(micro_confusion(conf))
            oracle_u, _ = brute_force_oracle(probs, spec, "micro")
            assert achieved >= oracle_u - slack


def random_instance(seed, n, m_out, k):
    """Labels, probabilities and a ratio metric with B > 0 everywhere."""
    rng = np.random.default_rng(seed)
    labels = LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    probs = ProbabilityField(rng.dirichlet(np.ones(k), size=(n, m_out)))
    flm = FractionalLinearMetric(rng.random((k, k)), rng.random((k, k)) + 0.1)
    return labels, probs, flm


instances = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    m_out=st.integers(1, 3),
    k=st.integers(2, 4),
)


class TestSearchProperties:
    @settings(max_examples=40, deadline=None)
    @given(**instances)
    def test_sample_mode_result_ignores_row_order(self, seed, n, m_out, k):
        labels, probs, flm = random_instance(seed, n, m_out, k)
        order = np.random.default_rng(seed).permutation(n)
        shuffled_labels = LabelMatrix(labels.values[order], k)
        shuffled_probs = ProbabilityField(probs.values[order])
        cfg = BisectionConfig(iterations=50)
        for search in (bisect_micro, bisect_macro):
            loss, traces = search(labels, probs, flm, cfg)
            shuffled_loss, shuffled_traces = search(shuffled_labels, shuffled_probs, flm, cfg)
            np.testing.assert_array_equal(loss.values, shuffled_loss.values)
            if search is bisect_micro:
                traces, shuffled_traces = [traces], [shuffled_traces]
            assert [t.to_dict() for t in traces] == [t.to_dict() for t in shuffled_traces]

    @settings(max_examples=40, deadline=None)
    @given(expected=st.booleans(), **instances)
    def test_never_below_the_argmax_rule(self, expected, seed, n, m_out, k):
        labels, probs, flm = random_instance(seed, n, m_out, k)
        truth = probs if expected else labels
        cfg = BisectionConfig(iterations=50)
        argmax_preds = weighted_predict(LossTensor(np.ones((k, k)) - np.eye(k)), probs)
        if expected:
            conf = expected_confusion(probs, argmax_preds)
        else:
            conf = sample_confusion(labels, argmax_preds)

        _, trace = bisect_micro(truth, probs, flm, cfg)
        micro = micro_confusion(conf)
        assert trace.final_utility >= flm.evaluate(micro)
        _, traces = bisect_macro(truth, probs, flm, cfg)
        for m, output_trace in enumerate(traces):
            assert output_trace.final_utility >= flm.evaluate(conf.values[m])

    @settings(max_examples=40, deadline=None)
    @given(negative=st.one_of(st.none(), st.integers(0, 3)), **instances)
    def test_expected_mode_final_bracket_holds_the_family_best(self, negative, seed, n, m_out, k):
        # Dinkelbach: scored on the expected confusion, the rule at gamma maximises
        # <A - gamma*B, C> over every rule, so U(gamma) >= gamma exactly when some rule
        # reaches gamma, and the halved bracket keeps the family's best utility inside
        labels, probs, flm = random_instance(seed, n, m_out, k)
        if negative is not None:  # micro-F1 with a random negative class
            flm = MetricSpec.micro_f1(k, negative % k + 1).ratio
        cfg = BisectionConfig(iterations=50)
        try:
            _, trace = bisect_micro(probs, probs, flm, cfg)
            _, traces = bisect_macro(probs, probs, flm, cfg)
        except GuardError:
            return
        lo, hi = tuning_bracket(flm, k)
        columns = [probs] + [ProbabilityField(probs.values[:, [m]]) for m in range(m_out)]
        for column, output_trace in zip(columns, [trace, *traces]):
            best = exact_family_best(column, column, flm)
            last = output_trace.records[-1]
            assert last.lower - 1e-12 <= best <= last.upper + 1e-12
            assert output_trace.final_utility >= best - 2**-50 * (hi - lo) - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4))
    def test_bracket_holds_every_utility(self, seed, k):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=5.0, size=(k, k))
        b = rng.random((k, k))
        zero = rng.random((k, k)) < 0.3
        zero[rng.integers(k), rng.integers(k)] = False  # keep one B entry positive
        a[zero] = b[zero] = 0.0
        flm = FractionalLinearMetric(a, b)
        lower, upper = tuning_bracket(flm, flm.n_classes)
        tol = 1e-12 * max(1.0, abs(lower), abs(upper))
        for _ in range(20):
            conf = rng.dirichlet(np.ones(k * k)).reshape(k, k) * (rng.random((k, k)) < 0.7)
            if np.sum(b * conf) < DENOMINATOR_FLOOR:
                continue
            assert lower - tol <= flm.evaluate(conf) <= upper + tol


@pytest.mark.parametrize("seed, holds", [(0, True), (2, False)])
def test_trace_says_whether_its_bracket_holds_the_returned_utility(seed, holds):
    # on sample confusions the best rule can come before the bracket closes above it
    rng = np.random.default_rng(seed)
    probs = ProbabilityField(rng.dirichlet(np.ones(3), size=(60, 1)))
    labels = LabelMatrix(rng.integers(1, 4, size=(60, 1)), 3)
    _, trace = bisect_micro(labels, probs, MetricSpec.micro_f1(3).ratio, BisectionConfig())
    doc = trace.to_dict()
    assert (doc["lowers"][-1] <= doc["final_utility"] <= doc["uppers"][-1]) == holds
    assert doc["bracket_holds"] is holds


def exact_record_utilities(labels, probs, flm, records):
    """Each record's utility in rationals, its gamma's rule rebuilt with ``loss_from_gamma``
    and ``weighted_predict``."""
    return [
        exact_utility(flm, labels, weighted_predict(loss_from_gamma(flm, r.gamma), probs).values)
        for r in records
    ]


class TestExactAccept:
    def test_a_candidate_below_gamma_by_less_than_its_rounding_is_rejected(self):
        # the float ratio of the last candidate's confusion rounds 17/70 up onto gamma
        rng = np.random.default_rng(50)
        n, k = int(rng.integers(20, 200)), int(rng.integers(2, 5))
        probs = ProbabilityField(rng.dirichlet(np.ones(k), size=(n, 1)))
        labels = LabelMatrix(rng.integers(1, k + 1, size=(n, 1)), k)
        flm = MetricSpec.micro_f1(k).ratio
        _, trace = bisect_micro(labels, probs, flm, BisectionConfig(iterations=50))
        last = trace.records[-1]
        assert (n, k, last.gamma) == (160, 4, 0.24285714285714288)
        assert exact_record_utilities(labels, probs, flm, [last]) == [Fraction(17, 70)]
        assert Fraction(17, 70) < Fraction(last.gamma)
        assert not last.accepted
        assert last.upper == last.gamma

    @settings(max_examples=40, deadline=None)
    @given(micro_f1=st.booleans(), **instances)
    def test_every_decision_is_the_exact_one(self, micro_f1, seed, n, m_out, k):
        labels, probs, flm = random_instance(seed, n, m_out, k)
        if micro_f1:
            flm = MetricSpec.micro_f1(k).ratio
        cfg = BisectionConfig(iterations=50)
        try:
            _, trace = bisect_micro(labels, probs, flm, cfg)
            _, traces = bisect_macro(labels, probs, flm, cfg)
        except GuardError:
            return
        columns = [(labels, probs)] + [
            (LabelMatrix(labels.values[:, [m]], k), ProbabilityField(probs.values[:, [m]]))
            for m in range(m_out)
        ]
        for (truth, rows), searched in zip(columns, [trace, *traces]):
            exact = exact_record_utilities(truth, rows, flm, searched.records)
            for record, utility in zip(searched.records, exact):
                assert record.accepted == (utility >= Fraction(record.gamma))


class TestBruteForceOracle:
    def test_single_sample_predicts_truth(self):
        labels = LabelMatrix(np.array([[2]]), 2)
        utility, preds = brute_force_oracle(labels, MetricSpec.ordinal(2), "micro")
        assert utility == 1.0
        assert preds.values[0, 0] == 2

    def test_three_sample_micro_f1_matches_hand_enumeration(self):
        import itertools

        labels = LabelMatrix(np.array([[1], [2], [2]]), 2)
        spec = MetricSpec.micro_f1(2)
        best = -np.inf
        for assignment in itertools.product((1, 2), repeat=3):
            preds = PredictionMatrix(np.array(assignment)[:, None], 2)
            conf = sample_confusion(labels, preds).values[0]
            num = 2 * conf[1, 1]
            den = 2 - conf[0, :].sum() - conf[:, 0].sum()
            if den > 0:
                best = max(best, num / den)
        utility, _ = brute_force_oracle(labels, spec, "micro")
        assert utility == pytest.approx(best, abs=1e-12)

    def test_oracle_dominates_the_weighted_family(self, rng):
        labels = LabelMatrix(random_labels(rng, 6, 1, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 6, 1, 2))
        spec = MetricSpec.micro_f1(2)
        utility, _ = brute_force_oracle(labels, spec, "micro")
        assert utility >= exact_family_best(labels, probs, as_fractional_linear(spec)) - 1e-12

    def test_instance_averaging_supported(self, rng):
        labels = LabelMatrix(random_labels(rng, 3, 2, 2), 2)
        utility, preds = brute_force_oracle(labels, MetricSpec.micro_f1(2), "instance")
        achieved = instance_utility(MetricSpec.micro_f1(2), labels, preds)
        assert achieved == pytest.approx(utility, abs=1e-12)

    def test_oversized_instance_guarded(self):
        labels = LabelMatrix(np.ones((25, 1), dtype=int), 3)
        with pytest.raises(GuardError, match="instance too large"):
            brute_force_oracle(labels, MetricSpec.ordinal(3), "micro")
        assert 3**25 > MAX_ENUMERATION

    def test_expected_mode_equals_sample_mode_on_onehot(self, rng):
        labels = LabelMatrix(random_labels(rng, 4, 1, 3), 3)
        onehot = np.zeros((4, 1, 3))
        onehot[np.arange(4), 0, labels.values[:, 0] - 1] = 1.0
        for spec in (MetricSpec.ordinal(3), MetricSpec.micro_f1(3)):
            for mode in ("micro", "macro"):
                u_sample, p_sample = brute_force_oracle(labels, spec, mode)
                u_expected, p_expected = brute_force_oracle(ProbabilityField(onehot), spec, mode)
                assert u_sample == u_expected
                np.testing.assert_array_equal(p_sample.values, p_expected.values)

        # both searches count a one-hot field of the labels exactly as the labels
        labels = LabelMatrix(random_labels(rng, 30, 2, 3), 3)
        onehot = ProbabilityField(np.eye(3)[labels.values - 1])
        probs = ProbabilityField(random_prob_rows(rng, 30, 2, 3))
        flm = MetricSpec.micro_f1(3).ratio
        cfg = BisectionConfig(iterations=50)

        def bits(traces):  # repr tells every float apart, -0.0 from 0.0 included
            return [repr(t.to_dict()) for t in (traces if isinstance(traces, list) else [traces])]

        for search in (bisect_micro, bisect_macro):
            loss_sample, traces_sample = search(labels, probs, flm, cfg)
            loss_expected, traces_expected = search(onehot, probs, flm, cfg)
            assert bits(traces_sample) == bits(traces_expected)
            assert loss_sample.values.tobytes() == loss_expected.values.tobytes()


def oracle_instance(seed, n, m_out, k, kind):
    rng = np.random.default_rng(seed)
    labels = LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)
    probs = ProbabilityField(rng.dirichlet(np.ones(k), size=(n, m_out)))
    if kind == "fractional_linear":
        spec = MetricSpec.fractional_linear(rng.random((k, k)), rng.random((k, k)) + 0.1)
    else:
        spec = getattr(MetricSpec, kind)(k)
    return labels, probs, spec


def evaluated_utility(spec, labels, probs, preds, mode):
    """The utility ``eval`` reports for ``preds``; with ``probs``, the same
    averaging of the expected confusion."""
    if probs is not None:
        conf = expected_confusion(probs, preds)
    elif mode == "instance":
        return instance_utility(spec, labels, preds)
    else:
        conf = sample_confusion(labels, preds)
    return (micro_utility if mode == "micro" else macro_utility)(spec, conf)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    m_out=st.integers(1, 3),
    k=st.integers(2, 3),
    kind=st.sampled_from(["micro_f1", "ordinal", "macro_f1", "fractional_linear"]),
    source=st.sampled_from(
        [("micro", False), ("macro", False), ("instance", False), ("micro", True), ("macro", True)]
    ),
)
@example(seed=4, n=6, m_out=1, k=2, kind="ordinal", source=("micro", False))
@example(seed=3, n=5, m_out=2, k=2, kind="fractional_linear", source=("macro", False))
@example(seed=1429, n=2, m_out=3, k=3, kind="fractional_linear", source=("instance", False))
@example(seed=0, n=2, m_out=1, k=2, kind="micro_f1", source=("micro", True))
@example(seed=3, n=5, m_out=2, k=2, kind="macro_f1", source=("macro", True))
def test_oracle_utility_is_the_evaluated_utility_of_its_predictions(
    seed, n, m_out, k, kind, source
):
    if k ** (n * m_out) > 4096:
        return
    mode, with_probs = source
    labels, probs, spec = oracle_instance(seed, n, m_out, k, kind)
    probs = probs if with_probs else None
    try:
        utility, preds = brute_force_oracle(labels if probs is None else probs, spec, mode)
    except GuardError:
        return
    assert utility == evaluated_utility(spec, labels, probs, preds, mode)
