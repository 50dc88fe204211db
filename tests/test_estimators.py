import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricopt.confusion import LabelMatrix
from metricopt.estimators import (
    LR_L2,
    SyntheticConfig,
    _ce_grad,
    _DescentBuffers,
    _pairwise_rows,
    fit_lr,
    generate_synthetic,
    performance_ratio_grid,
    predict_proba,
    synthetic_weights,
)


def ce_loss(weights, features, onehot, l2):
    """L2-regularized mean cross-entropy, the finite-difference reference."""
    logits = -features @ weights.T
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return -np.sum(onehot * log_probs) / features.shape[0] + 0.5 * l2 * np.sum(weights**2)


def separable_blobs(rng, n_per_class=60):
    """Two well-separated Gaussian blobs (no intercept needed: means oppose)."""
    a = rng.normal(loc=(2.0, 2.0), scale=0.3, size=(n_per_class, 2))
    b = rng.normal(loc=(-2.0, -2.0), scale=0.3, size=(n_per_class, 2))
    features = np.vstack([a, b])
    labels = np.array([1] * n_per_class + [2] * n_per_class)[:, None]
    return features, LabelMatrix(labels, 2)


def spread_cells(rng, n, k):
    """(N, K) positive cells with magnitudes spread over 1e-300 ... 1, so that
    a change in the order of a row's additions shows in its rounded sum."""
    return 10.0 ** rng.uniform(-300.0, 0.0, size=(n, k))


def class_major_sums(cells):
    """``_pairwise_rows`` on the class-major copy of (N, K) ``cells``."""
    n = cells.shape[0]
    return _pairwise_rows(np.ascontiguousarray(cells.T), np.empty((8, n)), np.empty(n))


def test_pairwise_rows_equal_numpy_row_sums_bit_for_bit():
    # every branch of numpy's pairwise sum: K < 8, eight accumulators up to
    # K = 128, and the split above it, once (129-256) and more often (257 up)
    rng = np.random.default_rng(11)
    wrong = []
    for k in [*range(1, 301), 512, 513, 1025]:
        cells = spread_cells(rng, 64, k)
        if not np.array_equal(class_major_sums(cells), np.sum(cells, axis=-1)):
            wrong.append(k)
    assert wrong == []


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_pairwise_rows_equal_numpy_row_sums_on_random_shapes(n, k, seed):
    cells = spread_cells(np.random.default_rng(seed), n, k)
    assert np.array_equal(class_major_sums(cells), np.sum(cells, axis=-1))


class TestFitLR:
    def test_separable_blobs_reach_high_accuracy(self, rng):
        features, labels = separable_blobs(rng)
        model = fit_lr(features, labels, iterations=800)
        probs = predict_proba(model, features)
        preds = probs.values[:, 0, :].argmax(axis=1) + 1
        assert np.mean(preds == labels.values[:, 0]) >= 0.99

    def test_single_class_output_becomes_constant_model(self, rng):
        features = rng.standard_normal((30, 3))
        labels = LabelMatrix(np.full((30, 1), 2), 3)
        model = fit_lr(features, labels)
        probs = predict_proba(model, features)
        assert np.all(probs.values[:, 0, 1] >= 0.9)

    def test_gradient_small_at_returned_optimum(self, rng):
        features, labels = separable_blobs(rng, n_per_class=40)
        model = fit_lr(features, labels, iterations=25000)
        buf = _DescentBuffers(features, labels.values[:, 0], 2)
        grad = _ce_grad(model.weights[0], buf, LR_L2)
        assert np.linalg.norm(grad) <= 1e-4

    def test_analytic_gradient_matches_finite_differences(self, rng):
        features = rng.standard_normal((25, 3))
        labels = LabelMatrix(rng.integers(1, 4, size=(25, 1)), 3)
        onehot = np.zeros((25, 3))
        onehot[np.arange(25), labels.values[:, 0] - 1] = 1.0
        weights = rng.standard_normal((3, 3)) * 0.3
        grad = _ce_grad(weights, _DescentBuffers(features, labels.values[:, 0], 3), 1e-4)
        step = 1e-6
        flat = [(0, 0), (1, 2), (2, 1), (0, 2), (2, 2)]
        for idx in flat:
            up = weights.copy()
            dn = weights.copy()
            up[idx] += step
            dn[idx] -= step
            fd = (ce_loss(up, features, onehot, 1e-4) - ce_loss(dn, features, onehot, 1e-4)) / (
                2 * step
            )
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_nonfinite_features_rejected(self):
        features = np.array([[1.0], [np.inf]])
        labels = LabelMatrix(np.array([[1], [2]]), 2)
        with pytest.raises(ValueError, match="non-finite"):
            fit_lr(features, labels)

    def test_negative_iterations_rejected(self):
        features = np.array([[1.0], [-1.0]])
        labels = LabelMatrix(np.array([[1], [2]]), 2)
        with pytest.raises(ValueError, match="iterations must be nonnegative"):
            fit_lr(features, labels, iterations=-3)


class TestPredictProba:
    def test_zero_weights_give_uniform(self, rng):
        features = rng.standard_normal((10, 4))
        labels = LabelMatrix(np.tile([[1], [2], [3]], (4, 1))[:10], 3)
        model = fit_lr(features, labels, iterations=0)
        probs = predict_proba(model, features)
        np.testing.assert_allclose(probs.values, 1.0 / 3.0)

    def test_dominant_logit_wins(self):
        from metricopt.estimators import MultinomialLRModel

        weights = np.zeros((1, 3, 1))
        weights[0, :, 0] = [-10.0, 0.0, 10.0]  # negated logits: class 1 dominates at x=1
        model = MultinomialLRModel(weights, constant_classes=(None,))
        probs = predict_proba(model, np.array([[1.0]]))
        assert probs.values[0, 0, 0] >= 0.99

    def test_rows_on_simplex_for_random_weights(self, rng):
        from metricopt.estimators import MultinomialLRModel

        weights = rng.standard_normal((2, 4, 3))
        model = MultinomialLRModel(weights, constant_classes=(None, None))
        probs = predict_proba(model, rng.standard_normal((50, 3)))
        np.testing.assert_allclose(probs.values.sum(axis=2), 1.0, atol=1e-12)


class TestGenerateSynthetic:
    def test_zero_skew_gives_uniform_conditionals(self):
        cfg = SyntheticConfig(n_samples=50, n_features=4, n_classes=4, skew_c1=0.0, seed=3)
        _, _, eta = generate_synthetic(cfg)
        np.testing.assert_allclose(eta.values, 0.25, atol=1e-12)

    def test_fixed_seed_bit_identical(self):
        cfg = SyntheticConfig(n_samples=200, skew_c1=0.3, seed=11)
        first = generate_synthetic(cfg)
        second = generate_synthetic(cfg)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1].values, second[1].values)
        np.testing.assert_array_equal(first[2].values, second[2].values)

    def test_weight_pattern_with_clamping(self):
        cfg = SyntheticConfig(n_samples=2, n_features=5, n_classes=3, skew_c1=0.5)
        weights = synthetic_weights(cfg)
        # d clamps to K=3 for d in {4, 5}
        expected_row1 = 0.5 * np.array([0.0, 1.0, 2.0, 2.0, 2.0])
        np.testing.assert_allclose(weights[0], expected_row1)

    def test_empirical_frequencies_match_conditionals(self):
        cfg = SyntheticConfig(n_samples=10_000, n_features=3, n_classes=3, skew_c1=0.4, seed=5)
        _, labels, eta = generate_synthetic(cfg)
        mean_eta = eta.values[:, 0, :].mean(axis=0)
        for k in range(3):
            freq = np.mean(labels.values[:, 0] == k + 1)
            sigma = np.sqrt(mean_eta[k] * (1 - mean_eta[k]) / cfg.n_samples)
            assert abs(freq - mean_eta[k]) <= 3 * sigma + 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_samples=1)
        with pytest.raises(ValueError):
            SyntheticConfig(n_samples=10, n_classes=1)


class TestPerformanceRatio:
    def test_zero_metric_skew_is_exactly_one(self):
        [row] = performance_ratio_grid([0.3], [0.0], 500, [1], n_features=4, n_classes=4)
        assert row["pr"] == 1.0

    def test_zero_metric_skew_predictions_identical(self):
        # the tuned loss degenerates to the 0-1 loss, so the two rules must
        # agree sample by sample, not merely in utility
        from metricopt.decision import weighted_predict
        from metricopt.estimators import _prepare_ratio_cell
        from metricopt.metrics import LossTensor, MetricSpec, loss_from_gamma

        cfg = SyntheticConfig(n_samples=500, n_features=4, n_classes=4, skew_c1=0.3)
        labels_test, probs_test = _prepare_ratio_cell(cfg, seed=1)
        k = labels_test.n_classes
        argmax_loss = LossTensor(np.ones((k, k)) - np.eye(k))
        tuned = loss_from_gamma(MetricSpec.weighted_exp(k, 0.0).ratio, 1.0)
        preds_base = weighted_predict(argmax_loss, probs_test)
        preds_tuned = weighted_predict(tuned, probs_test)
        np.testing.assert_array_equal(preds_base.values, preds_tuned.values)

    def test_ratio_is_deterministic(self):
        def grid():
            return performance_ratio_grid([0.1], [1.0], 400, [2], n_features=4, n_classes=4)

        assert grid() == grid()

    def test_tuned_rule_not_worse_at_moderate_skew(self):
        rows = performance_ratio_grid([0.1], [1.0], 2000, range(5), n_features=5, n_classes=5)
        ratios = [row["pr"] for row in rows]
        assert np.median(ratios) >= 1.0 - 0.02
