import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricopt.averaging import micro_confusion
from metricopt.bisection import BisectionConfig, bisect_macro, bisect_micro
from metricopt.confusion import (
    ConfusionTensor,
    LabelMatrix,
    PredictionMatrix,
    ProbabilityField,
    expected_confusion,
    per_sample_confusion,
    sample_confusion,
)
from metricopt.metrics import MetricSpec

from conftest import random_labels, random_prob_rows


class TestTypes:
    def test_label_matrix_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="classes must lie in"):
            LabelMatrix(np.array([[0], [1]]), n_classes=2)
        with pytest.raises(ValueError, match="classes must lie in"):
            LabelMatrix(np.array([[1], [3]]), n_classes=2)

    def test_probability_field_rejects_off_simplex(self):
        bad = np.full((2, 1, 3), 0.4)
        with pytest.raises(ValueError, match="sum to 1"):
            ProbabilityField(bad)

    @pytest.mark.parametrize("shape", [(0, 2, 3), (4, 0, 3), (4, 2, 0)])
    def test_probability_field_rejects_empty(self, shape):
        with pytest.raises(ValueError, match="probability field must be non-empty"):
            ProbabilityField(np.zeros(shape))

    def test_every_block_is_checked_in_refusal_order(self):
        values = np.full((200000, 2, 2), 0.5)  # four row blocks
        values[1, 0] = [-0.5, 1.5]  # first block: negative, but on the simplex
        values[-1, 1, 0] = np.nan  # last block
        with pytest.raises(ValueError, match="non-finite"):
            ProbabilityField(values)
        values[-1, 1, 0] = 0.5
        with pytest.raises(ValueError, match="negative"):
            ProbabilityField(values)
        values[1, 0] = [0.5, 0.5 + 1e-6]  # the worst deviation, in the first block
        values[-1, 1, 0] = 0.5 + 1e-7
        with pytest.raises(ValueError, match="worst deviation 1.000e-06"):
            ProbabilityField(values)

    def test_validation_peak_memory_is_bounded(self):
        rng = np.random.default_rng(0)
        values = random_prob_rows(rng, 50000, 4, 10)
        values.flags.writeable = False  # a read-only array is kept, not copied
        tracemalloc.start()
        try:
            probs = ProbabilityField(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.values is values
        # checked a row block at a time: no temporary the size of the field or of its row sums
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_confusion_tensor_rejects_wrong_mass(self):
        bad = np.full((1, 2, 2), 0.3)
        with pytest.raises(ValueError, match="mass 1"):
            ConfusionTensor(bad)

    def test_values_are_readonly(self):
        lab = LabelMatrix(np.array([[1], [2]]), 2)
        with pytest.raises(ValueError):
            lab.values[0, 0] = 2

    def test_a_read_only_array_is_shared(self):
        lab = LabelMatrix(np.array([[1], [2]]), 2)
        assert np.shares_memory(LabelMatrix(lab.values, 3).values, lab.values)

    def test_a_writable_array_is_copied(self):
        values = np.array([[1], [2]])
        lab = LabelMatrix(values, 2)
        view = values[:]
        view.flags.writeable = False  # read-only, but its base can still be written
        from_view = LabelMatrix(view, 2)
        values[:] = 2
        np.testing.assert_array_equal(lab.values, [[1], [2]])
        np.testing.assert_array_equal(from_view.values, [[1], [2]])


class TestSampleConfusion:
    def test_two_sample_binary(self):
        labels = LabelMatrix(np.array([[1], [2]]), 2)
        preds = PredictionMatrix(np.array([[1], [1]]), 2)
        conf = sample_confusion(labels, preds)
        np.testing.assert_array_equal(conf.values[0], [[0.5, 0.0], [0.5, 0.0]])

    def test_perfect_predictions_are_diagonal(self):
        values = np.array([[1], [2], [3]])
        labels = LabelMatrix(values, 3)
        preds = PredictionMatrix(values, 3)
        conf = sample_confusion(labels, preds)
        np.testing.assert_allclose(conf.values[0], np.diag([1 / 3, 1 / 3, 1 / 3]))
        assert np.trace(conf.values[0]) == pytest.approx(1.0)

    def test_two_output_hand_count(self):
        labels = LabelMatrix(np.array([[1, 1], [1, 2], [2, 1], [2, 2]]), 2)
        preds = PredictionMatrix(np.ones((4, 2), dtype=int), 2)
        conf = sample_confusion(labels, preds)
        expected = np.array([[0.5, 0.0], [0.5, 0.0]])
        np.testing.assert_array_equal(conf.values[0], expected)
        np.testing.assert_array_equal(conf.values[1], expected)

    def test_dimension_mismatch_rejected(self):
        labels = LabelMatrix(np.array([[1], [2]]), 2)
        preds = PredictionMatrix(np.array([[1]]), 2)
        with pytest.raises(ValueError, match="does not match"):
            sample_confusion(labels, preds)

    def test_orientation_rows_are_true_classes(self, rng):
        labels = LabelMatrix(random_labels(rng, 40, 3, 4), 4)
        preds = PredictionMatrix(random_labels(rng, 40, 3, 4), 4)
        conf = sample_confusion(labels, preds)
        for m in range(3):
            for i in range(4):
                for j in range(4):
                    count = np.sum(
                        (labels.values[:, m] == i + 1) & (preds.values[:, m] == j + 1)
                    )
                    assert conf.values[m, i, j] == pytest.approx(count / 40)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mass_invariant(self, data):
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(2, 4))
        seed = data.draw(st.integers(0, 2**32 - 1))
        gen = np.random.default_rng(seed)
        labels = LabelMatrix(random_labels(gen, n, m, k), k)
        preds = PredictionMatrix(random_labels(gen, n, m, k), k)
        conf = sample_confusion(labels, preds)
        np.testing.assert_allclose(conf.values.sum(axis=(1, 2)), 1.0, atol=1e-12)
        assert conf.values.min() >= 0.0 and conf.values.max() <= 1.0


class TestPadding:
    def test_outputs_with_fewer_native_classes_share_k(self):
        # output 1 uses classes 1..3, output 2 only 1..2; shared K = 3
        values = np.array([[1, 1], [2, 2], [3, 1]])
        labels = LabelMatrix(values, 3)
        preds = PredictionMatrix(values, 3)
        conf = sample_confusion(labels, preds)
        assert conf.values[1, 2, :].sum() == 0.0  # padded class carries no mass
        np.testing.assert_allclose(conf.values.sum(axis=(1, 2)), 1.0)


class TestPerSampleConfusion:
    def test_mean_recovers_sample_confusion(self, rng):
        labels = LabelMatrix(random_labels(rng, 15, 3, 3), 3)
        preds = PredictionMatrix(random_labels(rng, 15, 3, 3), 3)
        per = per_sample_confusion(labels, preds)
        assert per.shape == (15, 3, 3)
        micro = micro_confusion(sample_confusion(labels, preds))
        np.testing.assert_allclose(per.mean(axis=0), micro)
        np.testing.assert_allclose(per.sum(axis=(1, 2)), 1.0)

    def test_peak_memory_stays_near_the_result(self):
        rng = np.random.default_rng(0)
        n, m_out, k = 20000, 8, 5
        labels = LabelMatrix(random_labels(rng, n, m_out, k), k)
        preds = PredictionMatrix(random_labels(rng, n, m_out, k), k)
        tracemalloc.start()
        try:
            per = per_sample_confusion(labels, preds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # besides the (N, K, K) result: one N*M index and one N*M weight array
        assert peak <= 1.8 * per.nbytes, f"peak {peak / per.nbytes:.2f}x the result"


class TestExpectedConfusion:
    def test_one_hot_probs_match_sample_confusion(self, rng):
        labels = LabelMatrix(random_labels(rng, 20, 2, 3), 3)
        preds = PredictionMatrix(random_labels(rng, 20, 2, 3), 3)
        onehot = np.zeros((20, 2, 3))
        rows = np.arange(20)[:, None]
        cols = np.arange(2)[None, :]
        onehot[rows, cols, labels.values - 1] = 1.0
        conf = expected_confusion(ProbabilityField(onehot), preds)
        np.testing.assert_allclose(conf.values, sample_confusion(labels, preds).values)

    def test_single_point(self):
        probs = ProbabilityField(np.array([[[0.7, 0.3]]]))
        preds = PredictionMatrix(np.array([[1]]), 2)
        conf = expected_confusion(probs, preds)
        np.testing.assert_allclose(conf.values[0], [[0.7, 0.0], [0.3, 0.0]])

    def test_two_point_mean(self):
        probs = ProbabilityField(np.array([[[0.7, 0.3]], [[0.2, 0.8]]]))
        preds = PredictionMatrix(np.array([[1], [2]]), 2)
        conf = expected_confusion(probs, preds)
        expected = np.array([[0.35, 0.10], [0.15, 0.40]])
        np.testing.assert_allclose(conf.values[0], expected)

    def test_linear_in_probabilities(self, rng):
        preds = PredictionMatrix(random_labels(rng, 12, 2, 3), 3)
        p1 = random_prob_rows(rng, 12, 2, 3)
        p2 = random_prob_rows(rng, 12, 2, 3)
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            blended = expected_confusion(ProbabilityField(alpha * p1 + (1 - alpha) * p2), preds)
            parts = alpha * expected_confusion(ProbabilityField(p1), preds).values + (
                1 - alpha
            ) * expected_confusion(ProbabilityField(p2), preds).values
            np.testing.assert_allclose(blended.values, parts, atol=1e-12)


class TestConvexityWitness:
    def test_blends_stay_valid(self, rng):
        labels = LabelMatrix(random_labels(rng, 25, 2, 3), 3)
        for _ in range(25):
            h1 = PredictionMatrix(random_labels(rng, 25, 2, 3), 3)
            h2 = PredictionMatrix(random_labels(rng, 25, 2, 3), 3)
            alpha = rng.random()
            blend = (
                alpha * sample_confusion(labels, h1).values
                + (1 - alpha) * sample_confusion(labels, h2).values
            )
            np.testing.assert_allclose(blend.sum(axis=(1, 2)), 1.0, atol=1e-12)
            assert blend.min() >= 0.0 and blend.max() <= 1.0 + 1e-12


# every caller of the one N/M/K check: (takes probabilities, call on labels and the other)
PAIRED_CALLERS = {
    "sample_confusion": (False, sample_confusion),
    "per_sample_confusion": (False, per_sample_confusion),
    "expected_confusion": (True, lambda labels, probs: expected_confusion(probs, labels)),
    "bisect_micro": (
        True,
        lambda labels, probs: bisect_micro(
            labels, probs, MetricSpec.micro_f1(labels.n_classes).ratio, BisectionConfig()
        ),
    ),
    "bisect_macro": (
        True,
        lambda labels, probs: bisect_macro(
            labels, probs, MetricSpec.micro_f1(labels.n_classes).ratio, BisectionConfig()
        ),
    ),
}


@pytest.mark.parametrize("dim", ["N", "M", "K"])
@pytest.mark.parametrize("caller", PAIRED_CALLERS)
def test_mismatch_refused_before_counting(caller, dim, rng, monkeypatch):
    def counting(*args, **kwargs):
        raise AssertionError("counted before the N/M/K check")

    for target in ("confusion._joint_counts", "bisection._joint_counts", "bisection._row_scores"):
        monkeypatch.setattr(f"metricopt.{target}", counting)
    n, m_out, k = 3, 2, 2
    labels = LabelMatrix(random_labels(rng, n, m_out, k), k)
    other = {"N": (n + 1, m_out, k), "M": (n, m_out + 1, k), "K": (n, m_out, k + 1)}[dim]
    takes_probs, call = PAIRED_CALLERS[caller]
    if takes_probs:
        other = ProbabilityField(random_prob_rows(rng, *other))
    else:
        other = PredictionMatrix(random_labels(rng, *other), other[2])
    with pytest.raises(ValueError, match="does not match"):
        call(labels, other)
