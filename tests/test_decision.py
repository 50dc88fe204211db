import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricopt import confusion
from metricopt.confusion import (
    LabelMatrix,
    PredictionMatrix,
    ProbabilityField,
    expected_confusion,
    sample_confusion,
)
from metricopt.decision import _row_scores, expected_weighted_loss, weighted_predict
from metricopt.metrics import LossTensor

from conftest import random_labels, random_prob_rows


def zero_one_loss(n_classes):
    return LossTensor(np.ones((n_classes, n_classes)) - np.eye(n_classes))


class TestLossTensor:
    def test_range_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            LossTensor(np.full((1, 2, 2), 1.5))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 3), (1, 1, 2, 2)])
    def test_shape_validated(self, shape):
        with pytest.raises(ValueError, match="shape"):
            LossTensor(np.zeros(shape))

    def test_document_round_trip(self, rng):
        tensor = LossTensor(rng.random((2, 3, 3)))
        doc = tensor.to_dict()
        assert doc["M"] == 2 and doc["K"] == 3
        assert doc["slices"] == tensor.values.tolist()


class TestWeightedPredict:
    def test_zero_one_loss_reduces_to_argmax(self):
        probs = ProbabilityField(np.array([[[0.5, 0.3, 0.2]]]))
        preds = weighted_predict(zero_one_loss(3), probs)
        assert preds.values[0, 0] == 1

    def test_exponential_weights_override_argmax(self):
        # row scores 1 - 0.5*eta_1 = 0.8 and 1 - 0.25*eta_2 = 0.85: class 1 wins
        gamma = math.log(2.0)
        diag = np.exp(-gamma * np.arange(1, 3))
        loss = np.ones((2, 2)) - np.diag(diag)
        probs = ProbabilityField(np.array([[[0.4, 0.6]]]))
        preds = weighted_predict(LossTensor(loss), probs)
        scores = loss @ probs.values[0, 0]
        assert scores[0] == pytest.approx(1 - 0.5 * 0.4)
        assert scores[1] == pytest.approx(1 - 0.25 * 0.6)
        assert preds.values[0, 0] == 1
        assert np.argmax(probs.values[0, 0]) + 1 == 2

    def test_uniform_tie_breaks_to_lowest_class(self):
        probs = ProbabilityField(np.full((1, 1, 4), 0.25))
        preds = weighted_predict(zero_one_loss(4), probs)
        assert preds.values[0, 0] == 1

    def test_dimension_mismatch_rejected(self, rng):
        probs = ProbabilityField(random_prob_rows(rng, 3, 2, 3))
        with pytest.raises(ValueError, match="does not match"):
            weighted_predict(LossTensor(np.zeros((1, 3, 3))), probs)
        with pytest.raises(ValueError, match="does not match"):
            weighted_predict(zero_one_loss(2), probs)

    def test_shared_matrix_equals_its_tiled_stack(self, rng):
        # the K x K loss is broadcast by matmul; the bits match the tiled stack
        for n, m_out, k in [(25000, 4, 10), (4000, 1, 10), (300, 3, 3), (20, 3, 2)]:
            probs = ProbabilityField(random_prob_rows(rng, n, m_out, k))
            shared = LossTensor(rng.random((k, k)))
            tiled = LossTensor(np.tile(shared.values, (m_out, 1, 1)))
            np.testing.assert_array_equal(
                weighted_predict(shared, probs).values, weighted_predict(tiled, probs).values
            )

    @pytest.mark.parametrize("layout", ["contiguous", "strided-view"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["shared-loss", "per-output-loss"])
    def test_row_kernel_does_not_depend_on_batch_size(self, rng, layout, stacked):
        # numpy multiplies a single row through gemv and a strided view without
        # BLAS; the kernel must give each row the bits of its full-field batch
        n, m_out, k = 120, 3, 6
        base = rng.dirichlet(np.full(k, 0.5), size=(2 * n, m_out + 1))
        base.flags.writeable = False  # so the field keeps the view instead of copying it
        values = np.ascontiguousarray(base[:n, :m_out]) if layout == "contiguous" else base[::2, 1:, ::-1]
        probs = ProbabilityField(values)
        assert probs.values.flags.c_contiguous == (layout == "contiguous")
        loss = LossTensor(rng.random((m_out, k, k) if stacked else (k, k)))
        full = weighted_predict(loss, probs).values
        for m in range(m_out):
            rows = probs.values[:, m]
            slice_m = loss.values[m] if stacked else loss.values
            all_scores = _row_scores(rows, slice_m)
            for size in (1, 2, 3, 17, n):
                idx = rng.choice(n, size=size, replace=False)
                scores = _row_scores(rows[idx], slice_m)
                assert scores.tobytes() == all_scores[idx].tobytes()
                np.testing.assert_array_equal(np.argmin(scores, axis=1) + 1, full[idx, m])

    def test_row_kernel_does_not_depend_on_batch_size_at_benchmark_size(self, rng):
        # The search scores the N*M = 100k rows of the tune-probs field a block at
        # a time, then a few rows at a time; weighted_predict scores blocks of one
        # output's strided rows.  A BLAS that picks its kernel by size must not
        # change a bit.
        n, m_out, k = 25_000, 4, 10
        probs = ProbabilityField(rng.dirichlet(np.ones(k), size=(n, m_out)))
        loss = LossTensor(rng.random((k, k)))
        rows = probs.values.reshape(-1, k)
        all_scores = _row_scores(rows, loss.values)
        for size in (1, 2, 3, 17):
            idx = rng.choice(n * m_out, size=size, replace=False)
            assert _row_scores(rows[idx], loss.values).tobytes() == all_scores[idx].tobytes()
        by_output = all_scores.reshape(n, m_out, k)
        for m in range(m_out):
            assert _row_scores(probs.values[:, m], loss.values).tobytes() == (
                by_output[:, m].tobytes()
            )
        full = weighted_predict(loss, probs).values
        np.testing.assert_array_equal(np.argmin(by_output, axis=2) + 1, full)

    def test_output_decisions_are_slicewise(self, rng):
        # the prediction for output m depends only on slice m and eta^m
        probs = ProbabilityField(random_prob_rows(rng, 20, 3, 4))
        base = LossTensor(rng.random((3, 4, 4)))
        perturbed = base.values.copy()
        perturbed[1] = rng.random((4, 4))
        perturbed[2] = rng.random((4, 4))
        first = weighted_predict(base, probs)
        second = weighted_predict(LossTensor(perturbed), probs)
        np.testing.assert_array_equal(first.values[:, 0], second.values[:, 0])


class TestAffineInvariance:
    def test_predictions_unchanged_under_positive_affine_maps(self, rng):
        for _ in range(100):
            loss = LossTensor(rng.random((2, 3, 3)))
            probs = ProbabilityField(random_prob_rows(rng, 10, 2, 3))
            base = weighted_predict(loss, probs)
            scale = float(rng.uniform(0.05, 0.9))
            shift = float(rng.uniform(0.0, 1.0 - scale))
            mapped = LossTensor(scale * loss.values + shift)
            remapped = weighted_predict(mapped, probs)
            np.testing.assert_array_equal(base.values, remapped.values)


class TestExpectedWeightedLoss:
    def test_zero_loss(self, rng):
        labels = LabelMatrix(random_labels(rng, 6, 2, 3), 3)
        preds = PredictionMatrix(random_labels(rng, 6, 2, 3), 3)
        from metricopt.confusion import sample_confusion

        conf = sample_confusion(labels, preds)
        assert expected_weighted_loss(LossTensor(np.zeros((2, 3, 3))), conf) == 0.0

    def test_all_ones_gives_output_count(self, rng):
        labels = LabelMatrix(random_labels(rng, 6, 3, 2), 2)
        preds = PredictionMatrix(random_labels(rng, 6, 3, 2), 2)
        from metricopt.confusion import sample_confusion

        conf = sample_confusion(labels, preds)
        assert expected_weighted_loss(LossTensor(np.ones((3, 2, 2))), conf) == pytest.approx(3.0)

    def test_matches_triple_loop(self, rng):
        from metricopt.confusion import sample_confusion

        labels = LabelMatrix(random_labels(rng, 8, 2, 3), 3)
        preds = PredictionMatrix(random_labels(rng, 8, 2, 3), 3)
        conf = sample_confusion(labels, preds)
        loss = LossTensor(rng.random((2, 3, 3)))
        by_hand = 0.0
        for m in range(2):
            for i in range(3):
                for j in range(3):
                    by_hand += loss.values[m, i, j] * conf.values[m, i, j]
        assert expected_weighted_loss(loss, conf) == pytest.approx(by_hand, abs=1e-14)

    @staticmethod
    def _two_output_confusion(rng):
        labels = LabelMatrix(random_labels(rng, 8, 2, 3), 3)
        return sample_confusion(labels, PredictionMatrix(random_labels(rng, 8, 2, 3), 3))

    def test_shared_matrix_equals_its_tiled_stack(self, rng):
        conf = self._two_output_confusion(rng)
        shared = rng.random((3, 3))
        tiled = expected_weighted_loss(LossTensor(np.broadcast_to(shared, (2, 3, 3))), conf)
        assert expected_weighted_loss(LossTensor(shared), conf) == tiled
        # the 0-1 loss sums the two outputs' error rates
        assert expected_weighted_loss(zero_one_loss(3), conf) == pytest.approx(
            2 - np.trace(conf.values, axis1=1, axis2=2).sum()
        )

    @pytest.mark.parametrize("shape", [(3, 3, 3), (1, 3, 3), (2, 2), (2, 2, 2)], ids=str)
    def test_other_loss_shapes_refused(self, rng, shape):
        conf = self._two_output_confusion(rng)
        with pytest.raises(ValueError, match="does not match confusion shape"):
            expected_weighted_loss(LossTensor(np.zeros(shape)), conf)


class TestOptimalityOnKnownProbabilities:
    def test_weighted_rule_minimizes_expected_loss_exhaustively(self, rng):
        import itertools

        for _ in range(20):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(2, 4))
            probs = ProbabilityField(random_prob_rows(rng, n, 1, k))
            loss_slice = rng.random((k, k))
            loss = LossTensor(loss_slice[None, :, :])
            clf_preds = weighted_predict(loss, probs)
            best = np.inf
            for assignment in itertools.product(range(1, k + 1), repeat=n):
                preds = PredictionMatrix(np.array(assignment)[:, None], k)
                conf = expected_confusion(probs, preds)
                best = min(best, expected_weighted_loss(loss, conf))
            achieved = expected_weighted_loss(loss, expected_confusion(probs, clf_preds))
            assert achieved <= best + 1e-12


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 30),
    m_out=st.integers(1, 3),
    k=st.integers(2, 6),
    block_rows=st.sampled_from([1, 2, 3, 7]),
    rows=st.sampled_from(["dirichlet", "rounded"]),
    strided=st.booleans(),
    stacked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_predictions_equal_unblocked(n, m_out, k, block_rows, rows, strided, stacked, seed):
    """With blocks of a few rows, weighted_predict gives the classes of scoring each
    output's whole column at once; rounded rows and losses make ties common."""
    rng = np.random.default_rng(seed)
    if rows == "rounded":  # multiples of 1/4
        base = rng.multinomial(4, np.full(k, 1.0 / k), size=(2 * n, m_out + 1)) / 4
        loss = rng.integers(0, 3, size=(m_out, k, k) if stacked else (k, k)) / 2
    else:
        base = rng.dirichlet(np.full(k, 0.5), size=(2 * n, m_out + 1))
        loss = rng.random((m_out, k, k) if stacked else (k, k))
    base.flags.writeable = False  # so the field keeps the view instead of copying it
    probs = ProbabilityField(base[::2, 1:, ::-1] if strided else base[:n, :m_out])
    loss = LossTensor(loss)
    slices = np.broadcast_to(loss.values, (m_out, k, k))
    whole = [np.argmin(_row_scores(probs.values[:, m], slices[m]), axis=1) for m in range(m_out)]
    with patch.object(confusion, "_BLOCK_CELLS", block_rows * k):
        got = weighted_predict(loss, probs).values
    expected = np.column_stack(whole) + 1
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
