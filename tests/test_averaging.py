import numpy as np
import pytest

from metricopt.averaging import (
    AveragingSpec,
    instance_utility,
    macro_utility,
    micro_confusion,
    micro_utility,
)
from metricopt.bisection import brute_force_oracle
from metricopt.confusion import (
    ConfusionTensor,
    LabelMatrix,
    PredictionMatrix,
    per_sample_confusion,
    sample_confusion,
)
from metricopt.metrics import MetricSpec, eval_metric

from conftest import random_confusion, random_labels

LINEAR_SPECS = [MetricSpec.ordinal(3), MetricSpec.weighted_exp(3, 0.5)]


def random_tensor(rng, n_outputs, n_classes):
    return ConfusionTensor(
        np.stack([random_confusion(rng, n_classes) for _ in range(n_outputs)])
    )


class TestAveragingSpec:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            AveragingSpec("median")


class TestMicroConfusion:
    def test_single_output_identity(self, rng):
        conf = random_tensor(rng, 1, 3)
        np.testing.assert_array_equal(micro_confusion(conf, np.array([1.0])), conf.values[0])

    def test_equal_slices_average_to_themselves(self, rng):
        slice_ = random_confusion(rng, 3)
        conf = ConfusionTensor(np.stack([slice_, slice_]))
        np.testing.assert_allclose(
            micro_confusion(conf, np.array([0.5, 0.5])), slice_, atol=1e-15
        )

    def test_weighted_mean_of_distinct_slices(self, rng):
        conf = random_tensor(rng, 2, 3)
        out = micro_confusion(conf, np.array([0.3, 0.7]))
        np.testing.assert_allclose(out, 0.3 * conf.values[0] + 0.7 * conf.values[1])

    def test_negative_weights_rejected(self, rng):
        conf = random_tensor(rng, 2, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            micro_confusion(conf, np.array([0.5, -0.5]))


class TestUtilities:
    def test_perfect_predictions_ordinal(self):
        values = np.array([[1, 2], [2, 3], [3, 1]])
        labels = LabelMatrix(values, 3)
        preds = PredictionMatrix(values, 3)
        conf = sample_confusion(labels, preds)
        assert micro_utility(MetricSpec.ordinal(3), conf, AveragingSpec("micro")) == 1.0

    def test_micro_f1_two_perfect_slices(self):
        slice_ = np.diag([0.5, 0.5])
        conf = ConfusionTensor(np.stack([slice_, slice_]))
        assert micro_utility(MetricSpec.micro_f1(2), conf, AveragingSpec("micro")) == 1.0

    def test_micro_f1_mixed_slices_two_step_hand_value(self):
        first = np.array([[0.5, 0.0], [0.0, 0.5]])
        second = np.array([[0.5, 0.0], [0.5, 0.0]])
        conf = ConfusionTensor(np.stack([first, second]))
        averaged = 0.5 * first + 0.5 * second
        num = 2 * averaged[1, 1]
        den = 2 - averaged[0, :].sum() - averaged[:, 0].sum()
        got = micro_utility(MetricSpec.micro_f1(2), conf, AveragingSpec("micro"))
        assert got == pytest.approx(num / den, abs=1e-15)

    def test_macro_single_output_equals_micro(self, rng):
        conf = random_tensor(rng, 1, 3)
        spec = MetricSpec.micro_f1(3)
        assert macro_utility(spec, conf, AveragingSpec("macro")) == micro_utility(
            spec, conf, AveragingSpec("micro")
        )

    def test_macro_micro_f1_perfect_plus_all_wrong(self):
        perfect = np.diag([0.5, 0.5])
        wrong = np.array([[0.0, 0.5], [0.5, 0.0]])
        conf = ConfusionTensor(np.stack([perfect, wrong]))
        got = macro_utility(MetricSpec.micro_f1(2), conf, AveragingSpec("macro"))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_mode_mismatch_rejected(self, rng):
        conf = random_tensor(rng, 2, 3)
        with pytest.raises(ValueError, match="mode"):
            micro_utility(MetricSpec.ordinal(3), conf, AveragingSpec("macro"))

    def test_instance_single_sample(self, rng):
        labels = LabelMatrix(random_labels(rng, 1, 2, 3), 3)
        preds = PredictionMatrix(random_labels(rng, 1, 2, 3), 3)
        per = per_sample_confusion(labels, preds, np.full(2, 0.5))
        spec = MetricSpec.ordinal(3)
        inst = instance_utility(spec, per)
        assert inst == pytest.approx(eval_metric(spec, per[0]), abs=1e-15)

    def test_instance_micro_f1_two_heterogeneous_samples(self):
        labels = LabelMatrix(np.array([[2, 2], [1, 2]]), 2)
        preds = PredictionMatrix(np.array([[2, 1], [1, 1]]), 2)
        per = per_sample_confusion(labels, preds, np.full(2, 0.5))
        spec = MetricSpec.micro_f1(2)
        by_hand = 0.5 * (eval_metric(spec, per[0]) + eval_metric(spec, per[1]))
        got = instance_utility(spec, per)
        assert got == pytest.approx(by_hand, abs=1e-15)

    def test_instance_input_validated(self):
        spec = MetricSpec.ordinal(2)
        good = np.full((3, 2, 2), 0.25)
        assert instance_utility(spec, good) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(ValueError, match="shape"):
            instance_utility(spec, good[:, None])
        for bad_value in (-0.25, np.nan):
            bad = good.copy()
            bad[1, 0, 1] = bad_value
            with pytest.raises(ValueError, match="finite and nonnegative"):
                instance_utility(spec, bad)


class TestLinearEquivalence:
    @pytest.mark.parametrize("spec", LINEAR_SPECS, ids=lambda s: s.kind)
    def test_micro_macro_instance_coincide(self, spec, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, 4))
            labels = LabelMatrix(random_labels(rng, n, m, 3), 3)
            preds = PredictionMatrix(random_labels(rng, n, m, 3), 3)
            conf = sample_confusion(labels, preds)
            per = per_sample_confusion(labels, preds, np.full(m, 1.0 / m))
            micro = micro_utility(spec, conf, AveragingSpec("micro"))
            macro = macro_utility(spec, conf, AveragingSpec("macro"))
            inst = instance_utility(spec, per)
            assert abs(micro - macro) <= 1e-12
            assert abs(micro - inst) <= 1e-12


class TestMacroDecomposability:
    def test_joint_optimum_matches_per_output_optima(self, rng):
        spec = MetricSpec.micro_f1(2)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            labels = LabelMatrix(random_labels(rng, n, 2, 2), 2)
            joint_u, joint_preds = brute_force_oracle(
                labels, None, spec, AveragingSpec("macro")
            )
            per_output_u = 0.0
            columns = []
            for m in range(2):
                u_m, preds_m = brute_force_oracle(
                    LabelMatrix(labels.values[:, m : m + 1], 2),
                    None,
                    spec,
                    AveragingSpec("macro"),
                )
                per_output_u += 0.5 * u_m
                columns.append(preds_m.values[:, 0])
            assert joint_u == pytest.approx(per_output_u, abs=1e-12)
            stitched = PredictionMatrix(np.stack(columns, axis=1), 2)
            conf = sample_confusion(labels, stitched)
            assert macro_utility(spec, conf, AveragingSpec("macro")) == pytest.approx(
                joint_u, abs=1e-12
            )


class TestWeightScaling:
    def test_micro_confusion_and_macro_utility_scale_linearly(self, rng):
        conf = random_tensor(rng, 3, 3)
        weights = rng.random(3) + 0.1
        scale = 2.5
        np.testing.assert_allclose(
            micro_confusion(conf, scale * weights),
            scale * micro_confusion(conf, weights),
            atol=1e-12,
        )
        spec = MetricSpec.ordinal(3)
        base = macro_utility(spec, conf, AveragingSpec("macro", weights))
        scaled = macro_utility(spec, conf, AveragingSpec("macro", scale * weights))
        assert scaled == pytest.approx(scale * base, rel=1e-12)

    def test_micro_utility_scales_linearly_for_a_linear_metric(self, rng):
        conf = random_tensor(rng, 3, 3)
        weights = rng.random(3) + 0.1
        scale = 2.5
        spec = MetricSpec.ordinal(3)
        base = micro_utility(spec, conf, AveragingSpec("micro", weights))
        scaled = micro_utility(spec, conf, AveragingSpec("micro", scale * weights))
        assert scaled == pytest.approx(scale * base, rel=1e-12)

    def test_micro_utility_accepts_weights_that_do_not_sum_to_one(self):
        values = np.array([[1, 2], [2, 1], [2, 2]])
        conf = sample_confusion(LabelMatrix(values, 2), PredictionMatrix(values, 2))
        avg = AveragingSpec("micro", [0.3, 0.3])
        # a perfect prediction: ordinal scales with the mass 0.6, micro-F1 is a ratio
        assert micro_utility(MetricSpec.ordinal(2), conf, avg) == pytest.approx(0.6, abs=1e-15)
        assert micro_utility(MetricSpec.micro_f1(2), conf, avg) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ["ordinal", "micro_f1"])
    def test_micro_utility_scores_the_oracle_optimum(self, kind, rng):
        spec = MetricSpec.micro_f1(2) if kind == "micro_f1" else MetricSpec.ordinal(2)
        avg = AveragingSpec("micro", [0.3, 0.3])
        for _ in range(5):
            labels = LabelMatrix(random_labels(rng, 4, 2, 2), 2)
            best, preds = brute_force_oracle(labels, None, spec, avg)
            got = micro_utility(spec, sample_confusion(labels, preds), avg)
            assert got == pytest.approx(best, abs=1e-12)

    def test_maximizer_unchanged_under_weight_scaling(self, rng):
        spec = MetricSpec.ordinal(2)
        labels = LabelMatrix(random_labels(rng, 4, 2, 2), 2)
        weights = np.array([0.3, 0.7])
        for scale in (1.0, 4.0):
            _, preds = brute_force_oracle(
                labels, None, spec, AveragingSpec("macro", scale * weights)
            )
            if scale == 1.0:
                reference = preds.values
        np.testing.assert_array_equal(preds.values, reference)
