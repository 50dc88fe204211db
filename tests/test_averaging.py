from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricopt import confusion
from metricopt.averaging import (
    MODES,
    averaged,
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
from metricopt.errors import GuardError
from metricopt.metrics import _KINDS, MetricSpec, _eval_batch, eval_metric

from conftest import random_confusion, random_labels

LINEAR_SPECS = [MetricSpec.ordinal(3), MetricSpec.weighted_exp(3, 0.5)]


def random_tensor(rng, n_outputs, n_classes):
    return ConfusionTensor(
        np.stack([random_confusion(rng, n_classes) for _ in range(n_outputs)])
    )


class TestMicroConfusion:
    def test_single_output_identity(self, rng):
        conf = random_tensor(rng, 1, 3)
        np.testing.assert_array_equal(micro_confusion(conf), conf.values[0])

    def test_equal_slices_average_to_themselves(self, rng):
        slice_ = random_confusion(rng, 3)
        conf = ConfusionTensor(np.stack([slice_, slice_]))
        np.testing.assert_allclose(micro_confusion(conf), slice_, atol=1e-15)

    def test_weighted_mean_of_distinct_slices(self, rng):
        conf = random_tensor(rng, 3, 3)
        out = micro_confusion(conf)
        np.testing.assert_allclose(out, (conf.values[0] + conf.values[1] + conf.values[2]) / 3)


class TestUtilities:
    def test_perfect_predictions_ordinal(self):
        values = np.array([[1, 2], [2, 3], [3, 1]])
        labels = LabelMatrix(values, 3)
        preds = PredictionMatrix(values, 3)
        conf = sample_confusion(labels, preds)
        assert micro_utility(MetricSpec.ordinal(3), conf) == 1.0

    def test_micro_f1_two_perfect_slices(self):
        slice_ = np.diag([0.5, 0.5])
        conf = ConfusionTensor(np.stack([slice_, slice_]))
        assert micro_utility(MetricSpec.micro_f1(2), conf) == 1.0

    def test_micro_f1_mixed_slices_two_step_hand_value(self):
        first = np.array([[0.5, 0.0], [0.0, 0.5]])
        second = np.array([[0.5, 0.0], [0.5, 0.0]])
        conf = ConfusionTensor(np.stack([first, second]))
        averaged = 0.5 * first + 0.5 * second
        num = 2 * averaged[1, 1]
        den = 2 - averaged[0, :].sum() - averaged[:, 0].sum()
        got = micro_utility(MetricSpec.micro_f1(2), conf)
        assert got == pytest.approx(num / den, abs=1e-15)

    def test_macro_single_output_equals_micro(self, rng):
        conf = random_tensor(rng, 1, 3)
        spec = MetricSpec.micro_f1(3)
        assert macro_utility(spec, conf) == micro_utility(spec, conf)

    def test_macro_micro_f1_perfect_plus_all_wrong(self):
        perfect = np.diag([0.5, 0.5])
        wrong = np.array([[0.0, 0.5], [0.5, 0.0]])
        conf = ConfusionTensor(np.stack([perfect, wrong]))
        got = macro_utility(MetricSpec.micro_f1(2), conf)
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_instance_single_sample(self, rng):
        labels = LabelMatrix(random_labels(rng, 1, 2, 3), 3)
        preds = PredictionMatrix(random_labels(rng, 1, 2, 3), 3)
        per = per_sample_confusion(labels, preds)
        spec = MetricSpec.ordinal(3)
        inst = instance_utility(spec, labels, preds)
        assert inst == pytest.approx(eval_metric(spec, per[0]), abs=1e-15)

    def test_instance_micro_f1_two_heterogeneous_samples(self):
        labels = LabelMatrix(np.array([[2, 2], [1, 2]]), 2)
        preds = PredictionMatrix(np.array([[2, 1], [1, 1]]), 2)
        per = per_sample_confusion(labels, preds)
        spec = MetricSpec.micro_f1(2)
        by_hand = 0.5 * (eval_metric(spec, per[0]) + eval_metric(spec, per[1]))
        got = instance_utility(spec, labels, preds)
        assert got == pytest.approx(by_hand, abs=1e-15)

    def test_instance_input_validated(self):
        spec = MetricSpec.ordinal(2)
        # each sample's four outputs fill every (true, predicted) cell with 1/4
        labels = LabelMatrix(np.tile([1, 1, 2, 2], (3, 1)), 2)
        preds = PredictionMatrix(np.tile([1, 2, 1, 2], (3, 1)), 2)
        assert instance_utility(spec, labels, preds) == pytest.approx(0.5, abs=1e-15)
        mismatched = [
            (spec, labels, PredictionMatrix(preds.values[:2], 2)),  # N
            (spec, labels, PredictionMatrix(preds.values[:, :3], 2)),  # M
            (spec, labels, PredictionMatrix(preds.values, 3)),  # K of the predictions
            (MetricSpec.ordinal(3), labels, preds),  # K of the metric
        ]
        for args in mismatched:
            with pytest.raises(ValueError, match="does not match"):
                instance_utility(*args)


class TestLinearEquivalence:
    @pytest.mark.parametrize("spec", LINEAR_SPECS, ids=lambda s: s.kind)
    def test_micro_macro_instance_coincide(self, spec, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, 4))
            labels = LabelMatrix(random_labels(rng, n, m, 3), 3)
            preds = PredictionMatrix(random_labels(rng, n, m, 3), 3)
            conf = sample_confusion(labels, preds)
            micro = micro_utility(spec, conf)
            macro = macro_utility(spec, conf)
            inst = instance_utility(spec, labels, preds)
            assert abs(micro - macro) <= 1e-12
            assert abs(micro - inst) <= 1e-12


class TestMacroDecomposability:
    def test_joint_optimum_matches_per_output_optima(self, rng):
        spec = MetricSpec.micro_f1(2)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            labels = LabelMatrix(random_labels(rng, n, 2, 2), 2)
            joint_u, joint_preds = brute_force_oracle(labels, spec, "macro")
            per_output_u = 0.0
            columns = []
            for m in range(2):
                u_m, preds_m = brute_force_oracle(
                    LabelMatrix(labels.values[:, m : m + 1], 2),
                    spec,
                    "macro",
                )
                per_output_u += 0.5 * u_m
                columns.append(preds_m.values[:, 0])
            assert joint_u == pytest.approx(per_output_u, abs=1e-12)
            stitched = PredictionMatrix(np.stack(columns, axis=1), 2)
            conf = sample_confusion(labels, stitched)
            assert macro_utility(spec, conf) == pytest.approx(joint_u, abs=1e-12)


class TestOracleModes:
    def test_unknown_mode_rejected(self, rng):
        labels = LabelMatrix(random_labels(rng, 2, 1, 2), 2)
        with pytest.raises(ValueError, match=r"one of \('micro', 'macro', 'instance'\)"):
            brute_force_oracle(labels, MetricSpec.ordinal(2), "median")


def spec_of_kind(kind, k, rng):
    if kind == "fractional_linear":
        # zeros in B make degenerate denominators common
        denominator = rng.random((k, k)) * (rng.random((k, k)) < 0.5)
        return MetricSpec.fractional_linear(rng.random((k, k)), denominator)
    if kind == "loss_based":
        return MetricSpec.loss_based(rng.random((k, k)))
    if kind in ("weighted_exp", "polynomial"):
        return getattr(MetricSpec, kind)(k, 1.5)
    return getattr(MetricSpec, kind)(k)


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 4),
    n=st.integers(1, 5),
    m_out=st.integers(1, 5),
    k=st.integers(2, 3),
    kind=st.sampled_from(_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=4, n=1, m_out=5, k=2, kind="micro_f1", seed=0)
def test_averaged_is_each_members_utility(p, n, m_out, k, kind, seed):
    """Over a stack of P confusions, ``averaged`` gives each member's utility
    bit for bit, and NaN exactly where that utility raises GuardError."""
    rng = np.random.default_rng(seed)
    spec = spec_of_kind(kind, k, rng)
    pairs = [
        tuple(LabelMatrix(random_labels(rng, n, m_out, k), k) for _ in range(2)) for _ in range(p)
    ]
    members = {
        "micro": [sample_confusion(*pair) for pair in pairs],
        "macro": [sample_confusion(*pair) for pair in pairs],
        "instance": [per_sample_confusion(*pair) for pair in pairs],
    }
    utility = {
        "micro": micro_utility,
        "macro": macro_utility,
        "instance": lambda spec, pair: instance_utility(spec, *pair),
    }
    for mode in MODES:
        stack = np.stack([getattr(member, "values", member) for member in members[mode]])
        got = averaged(spec, stack, mode)
        assert got.shape == (p,)
        for member, pair, value in zip(members[mode], pairs, got):
            try:
                expected = utility[mode](spec, member if mode != "instance" else pair)
            except GuardError:
                assert np.isnan(value)
            else:
                assert value == expected


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 20),
    m_out=st.integers(1, 4),
    k=st.integers(2, 4),
    kind=st.sampled_from(_KINDS),
    block_rows=st.sampled_from([1, 2, 3, 7]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=15, m_out=3, k=3, kind="micro_f1", block_rows=7, seed=0)
def test_blocked_instance_utility_is_the_dense_mean(n, m_out, k, kind, block_rows, seed):
    """With blocks of a few rows, so block edges fall inside small inputs, the
    instance utility is bit for bit the mean over the dense (N, K, K) stack, and
    a GuardError exactly where that mean is NaN."""
    rng = np.random.default_rng(seed)
    spec = spec_of_kind(kind, k, rng)
    labels = LabelMatrix(random_labels(rng, n, m_out, k), k)
    preds = PredictionMatrix(random_labels(rng, n, m_out, k), k)
    # kept alive, so the blocked result cannot land in its freed buffer with its bits
    values = _eval_batch(spec, per_sample_confusion(labels, preds))
    dense = values.mean()
    with patch.object(confusion, "_BLOCK_CELLS", block_rows * k * k):
        if np.isnan(dense):
            with pytest.raises(GuardError, match="^degenerate denominator: "):
                instance_utility(spec, labels, preds)
        else:
            assert np.float64(instance_utility(spec, labels, preds)).tobytes() == dense.tobytes()


class TestAveraged:
    def test_one_degenerate_output_leaves_macro_undefined(self):
        perfect = np.diag([0.5, 0.5])
        negative_only = np.array([[1.0, 0.0], [0.0, 0.0]])  # micro-F1's denominator vanishes
        confs = np.stack([perfect, negative_only])
        spec = MetricSpec.micro_f1(2)
        assert np.isnan(averaged(spec, confs, "macro"))
        micro = eval_metric(spec, 0.5 * perfect + 0.5 * negative_only)
        assert averaged(spec, confs, "micro") == micro
        with pytest.raises(GuardError, match="degenerate denominator"):
            macro_utility(spec, ConfusionTensor(confs))

    def test_confusion_of_another_class_count_refused(self):
        confs = np.full((2, 3, 3), 1 / 9)
        for mode in MODES:
            with pytest.raises(ValueError, match="does not match K=2"):
                averaged(MetricSpec.ordinal(2), confs, mode)
        labels = LabelMatrix(np.ones((2, 1), dtype=int), 3)  # the same check, the same message
        with pytest.raises(ValueError, match=r"confusion shape \(2, 3, 3\) does not match K=2"):
            instance_utility(MetricSpec.ordinal(2), labels, PredictionMatrix(labels.values, 3))
