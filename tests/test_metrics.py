import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricopt.averaging import instance_utility, macro_utility, micro_utility
from metricopt.confusion import ConfusionTensor, LabelMatrix, PredictionMatrix
from metricopt.errors import GuardError
from metricopt.metrics import (
    FractionalLinearMetric,
    LossTensor,
    MetricSpec,
    as_fractional_linear,
    eval_metric,
    loss_from_gamma,
    metric_from_config,
    metric_gradient,
)

from conftest import random_confusion


def finite_diff_gradient(spec, conf, step=1e-6):
    """Central-difference gradient, the independent oracle for analytic forms."""
    grad = np.zeros_like(conf)
    for idx in np.ndindex(*conf.shape):
        up = conf.copy()
        dn = conf.copy()
        up[idx] += step
        dn[idx] -= step
        grad[idx] = (
            eval_metric(spec, up, check_mass=False) - eval_metric(spec, dn, check_mass=False)
        ) / (2 * step)
    return grad


DIFFERENTIABLE_SPECS = [
    MetricSpec.ordinal(3),
    MetricSpec.weighted_exp(3, 0.7),
    MetricSpec.micro_f1(3),
    MetricSpec.macro_f1(3),
    MetricSpec.polynomial(3, 2.0),
    MetricSpec.loss_based(np.array([[0.0, 0.4, 0.9], [0.3, 0.0, 0.5], [0.8, 0.6, 0.0]])),
    MetricSpec.fractional_linear(
        np.array([[0.9, 0.1, 0.0], [0.2, 1.0, 0.3], [0.0, 0.4, 0.8]]),
        np.array([[1.0, 0.8, 0.9], [0.7, 1.1, 0.6], [0.9, 0.8, 1.2]]),
    ),
]

FRACTIONAL_SPECS = [
    MetricSpec.ordinal(3),
    MetricSpec.weighted_exp(3, 0.5),
    MetricSpec.micro_f1(3),
    MetricSpec.loss_based(np.array([[0.0, 0.4, 0.9], [0.3, 0.0, 0.5], [0.8, 0.6, 0.0]])),
]


class TestTableExamples:
    def test_ordinal_perfect_three_class(self):
        assert eval_metric(MetricSpec.ordinal(3), np.diag([1 / 3, 1 / 3, 1 / 3])) == 1.0

    def test_micro_f1_perfect_binary(self):
        assert eval_metric(MetricSpec.micro_f1(2), np.array([[0.5, 0.0], [0.0, 0.5]])) == 1.0

    def test_weighted_exp_hand_value(self):
        value = eval_metric(MetricSpec.weighted_exp(2, 0.5), np.diag([0.5, 0.5]))
        # independent scalar computation of the same weighted sum
        assert value == pytest.approx(math.exp(-0.5) * 0.5 + math.exp(-1.0) * 0.5, abs=1e-12)
        assert value == pytest.approx(0.4872051, abs=1e-6)

    def test_micro_f1_zero_when_no_positive_hits(self):
        assert eval_metric(MetricSpec.micro_f1(2), np.array([[0.5, 0.0], [0.5, 0.0]])) == 0.0

    def test_ordinal_weights_pattern(self):
        conf = np.zeros((3, 3))
        conf[0, 2] = 1.0  # worst possible single-cell mass
        assert eval_metric(MetricSpec.ordinal(3), conf) == 0.0

    def test_macro_f1_perfect(self):
        assert eval_metric(MetricSpec.macro_f1(3), np.diag([0.2, 0.3, 0.5])) == 1.0

    def test_min_max_is_worst_class_recall(self):
        conf = np.array([[0.3, 0.1], [0.2, 0.4]])
        # recalls: 0.3/0.4 = 0.75 and 0.4/0.6 = 2/3
        assert eval_metric(MetricSpec.min_max(2), conf) == pytest.approx(2 / 3)

    def test_polynomial_sums_over_classes(self):
        conf = np.diag([0.5, 0.5])
        assert eval_metric(MetricSpec.polynomial(2, 2.0), conf) == pytest.approx(0.5)


class TestEvalValidation:
    def test_nan_rejected(self):
        conf = np.array([[np.nan, 0.5], [0.25, 0.25]])
        with pytest.raises(ValueError, match="NaN"):
            eval_metric(MetricSpec.ordinal(2), conf)

    def test_mass_checked(self):
        with pytest.raises(ValueError, match="mass"):
            eval_metric(MetricSpec.ordinal(2), np.full((2, 2), 0.5))

    def test_degenerate_denominator_guarded(self):
        conf = np.zeros((2, 2))
        conf[0, 0] = 1.0  # all mass on the negative class: <B, C> = 0
        spec = MetricSpec.micro_f1(2)
        refusals = [
            lambda: spec.ratio.evaluate(conf),
            lambda: eval_metric(spec, conf),
            lambda: metric_gradient(spec, conf),
            lambda: micro_utility(spec, ConfusionTensor(conf[None])),
            lambda: macro_utility(spec, ConfusionTensor(conf[None])),
            # one sample whose single output is class 1, predicted 1: the confusion above
            lambda: instance_utility(spec, LabelMatrix(np.ones((1, 1), int), 2),
                                     PredictionMatrix(np.ones((1, 1), int), 2)),
        ]
        for refuse in refusals:
            with pytest.raises(GuardError, match="^degenerate denominator: "):
                refuse()

    def test_negative_entries_rejected(self):
        conf = np.array([[0.6, -0.1], [0.25, 0.25]])
        with pytest.raises(ValueError, match="negative"):
            eval_metric(MetricSpec.ordinal(2), conf)


class TestGradients:
    def test_ordinal_gradient_is_constant_pattern(self, rng):
        grad = metric_gradient(MetricSpec.ordinal(3), random_confusion(rng, 3))
        expected = np.array(
            [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]]
        )
        np.testing.assert_array_equal(grad, expected)

    def test_weighted_exp_gradient_is_diagonal(self, rng):
        gamma = 0.7
        grad = metric_gradient(MetricSpec.weighted_exp(3, gamma), random_confusion(rng, 3))
        np.testing.assert_allclose(grad, np.diag(np.exp(-gamma * np.arange(1, 4))))

    def test_micro_f1_matches_finite_differences_at_uniform(self):
        conf = np.full((2, 2), 0.25)
        spec = MetricSpec.micro_f1(2)
        np.testing.assert_allclose(
            metric_gradient(spec, conf), finite_diff_gradient(spec, conf), rtol=1e-5, atol=1e-8
        )

    @pytest.mark.parametrize("spec", DIFFERENTIABLE_SPECS, ids=lambda s: s.kind)
    def test_analytic_matches_finite_differences(self, spec, rng):
        for _ in range(100):
            conf = random_confusion(rng, spec.n_classes, interior=True)
            np.testing.assert_allclose(
                metric_gradient(spec, conf),
                finite_diff_gradient(spec, conf),
                rtol=1e-5,
                atol=1e-7,
            )

    def test_min_max_gradient_unavailable(self, rng):
        with pytest.raises(ValueError, match="gradient unavailable"):
            metric_gradient(MetricSpec.min_max(3), random_confusion(rng, 3))


class TestFractionalLinear:
    def test_micro_f1_matrices_binary(self):
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        np.testing.assert_array_equal(flm.numerator_A, [[0.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(flm.denominator_B, [[0.0, 1.0], [1.0, 2.0]])

    def test_ordinal_is_linear(self):
        flm = as_fractional_linear(MetricSpec.ordinal(4))
        assert flm.is_linear
        idx = np.arange(1, 5, dtype=float)
        np.testing.assert_allclose(
            flm.numerator_A, 1.0 - np.abs(idx[:, None] - idx[None, :]) / 3.0
        )

    def test_weighted_exp_is_linear_diag(self):
        flm = as_fractional_linear(MetricSpec.weighted_exp(3, 0.5))
        assert flm.is_linear
        np.testing.assert_allclose(flm.numerator_A, np.diag(np.exp(-0.5 * np.arange(1, 4))))

    @pytest.mark.parametrize("spec", FRACTIONAL_SPECS, ids=lambda s: s.kind)
    def test_faithful_on_random_confusions(self, spec, rng):
        flm = as_fractional_linear(spec)
        for _ in range(1000):
            conf = random_confusion(rng, spec.n_classes)
            assert flm.evaluate(conf) == pytest.approx(eval_metric(spec, conf), abs=1e-10)

    @pytest.mark.parametrize("kind", ["macro_f1", "min_max", "polynomial"])
    def test_unsupported_kinds_rejected(self, kind):
        spec = {
            "macro_f1": MetricSpec.macro_f1(3),
            "min_max": MetricSpec.min_max(3),
            "polynomial": MetricSpec.polynomial(3, 2.0),
        }[kind]
        with pytest.raises(ValueError, match="not fractional-linear"):
            as_fractional_linear(spec)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 10),
        kind=st.sampled_from(
            ["ordinal", "micro_f1", "weighted_exp", "fractional_linear", "loss_based"]
        ),
    )
    def test_scalar_route_is_the_averaging_route_bit_for_bit(self, seed, k, kind):
        # the search scores candidates with evaluate, the report with eval_metric
        rng = np.random.default_rng(seed)
        spec = {
            "ordinal": lambda: MetricSpec.ordinal(k),
            "micro_f1": lambda: MetricSpec.micro_f1(k, int(rng.integers(1, k + 1))),
            "weighted_exp": lambda: MetricSpec.weighted_exp(k, rng.uniform(-2.0, 2.0)),
            "fractional_linear": lambda: MetricSpec.fractional_linear(
                rng.random((k, k)), rng.random((k, k)) + 0.1
            ),
            "loss_based": lambda: MetricSpec.loss_based(rng.random((k, k))),
        }[kind]()
        flm = as_fractional_linear(spec)
        for _ in range(10):
            # micro sums of unit-mass slices need not carry unit mass
            conf = random_confusion(rng, k) * rng.uniform(0.5, 2.0)
            try:
                expected = eval_metric(spec, conf, check_mass=False)
            except GuardError:
                with pytest.raises(GuardError):
                    flm.evaluate(conf)
                continue
            assert flm.evaluate(conf) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([3, 5, 10]),
        kind=st.sampled_from(["micro_f1", "ordinal"]),
    )
    def test_values_do_not_depend_on_memory_layout(self, seed, k, kind):
        rng = np.random.default_rng(seed)
        flm = as_fractional_linear(getattr(MetricSpec, kind)(k))
        confs = np.stack([random_confusion(rng, k) for _ in range(20)])
        expected = flm.evaluate_batch(confs)
        # the same values stored column-major within each slice, and Fortran-ordered
        column_major = confs.swapaxes(-1, -2).copy().swapaxes(-1, -2)
        np.testing.assert_array_equal(flm.evaluate_batch(column_major), expected)
        np.testing.assert_array_equal(flm.evaluate_batch(np.asfortranarray(confs)), expected)
        assert [flm.evaluate(conf) for conf in column_major] == [
            flm.evaluate(conf) for conf in confs
        ]

    def test_denominator_floor_enforced(self):
        flm = FractionalLinearMetric(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(GuardError, match="degenerate denominator"):
            flm.evaluate(np.full((2, 2), 0.25))


class TestSpecEquality:
    def test_kinds_without_matrices_compare_by_parameters(self):
        same = [
            (MetricSpec.ordinal(3), MetricSpec.ordinal(3)),
            (MetricSpec.micro_f1(3, 2), MetricSpec.micro_f1(3, 2)),
            (MetricSpec.macro_f1(3), MetricSpec.macro_f1(3)),
            (MetricSpec.weighted_exp(3, 0.5), MetricSpec.weighted_exp(3, 0.5)),
            (MetricSpec.min_max(4), MetricSpec.min_max(4)),
            (MetricSpec.polynomial(3, 2.0), MetricSpec.polynomial(3, 2.0)),
        ]
        for first, second in same:
            assert first == second
            assert hash(first) == hash(second)
        different = [
            (MetricSpec.ordinal(3), MetricSpec.ordinal(4)),
            (MetricSpec.micro_f1(3, 1), MetricSpec.micro_f1(3, 2)),
            (MetricSpec.macro_f1(3), MetricSpec.min_max(3)),
            (MetricSpec.weighted_exp(3, 0.5), MetricSpec.weighted_exp(3, 0.7)),
            (MetricSpec.polynomial(3, 2.0), MetricSpec.polynomial(3, 3.0)),
        ]
        for first, second in different:
            assert first != second

    def test_different_matrices_never_compare_equal(self):
        a = np.array([[0.0, 0.0], [0.0, 2.0]])
        b = np.array([[0.0, 1.0], [1.0, 2.0]])
        spec = MetricSpec.fractional_linear(a, b)
        assert spec == MetricSpec.fractional_linear(a.copy(), b.copy())
        assert hash(spec) == hash(MetricSpec.fractional_linear(a.copy(), b.copy()))
        assert spec != MetricSpec.fractional_linear(a, b + 1.0)
        assert spec != MetricSpec.fractional_linear(a + 1.0, b)
        loss = np.array([[0.0, 1.0], [0.5, 0.0]])
        assert MetricSpec.loss_based(loss) == MetricSpec.loss_based(loss.copy())
        assert MetricSpec.loss_based(loss) != MetricSpec.loss_based(loss.T)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "spec",
        [MetricSpec.ordinal(3), MetricSpec.weighted_exp(3, 0.5), MetricSpec.micro_f1(3)],
        ids=lambda s: s.kind,
    )
    def test_diagonal_shift_never_hurts(self, spec, rng):
        delta = 1e-3
        for _ in range(200):
            conf = random_confusion(rng, 3, interior=True)
            i = rng.integers(0, 3)
            j = (i + 1 + rng.integers(0, 2)) % 3
            if conf[i, j] < delta:
                continue
            shifted = conf.copy()
            shifted[i, i] += delta
            shifted[i, j] -= delta
            assert eval_metric(spec, shifted) >= eval_metric(spec, conf) - 1e-12


class TestRange:
    @pytest.mark.parametrize(
        "spec",
        [
            MetricSpec.ordinal(3),
            MetricSpec.micro_f1(3),
            MetricSpec.macro_f1(3),
            MetricSpec.weighted_exp(3, 0.5),
            MetricSpec.min_max(3),
        ],
        ids=lambda s: s.kind,
    )
    def test_values_in_unit_interval(self, spec, rng):
        for _ in range(300):
            value = eval_metric(spec, random_confusion(rng, 3))
            assert -1e-12 <= value <= 1.0 + 1e-12


class TestLossFromGamma:
    def test_micro_f1_hand_value(self):
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        loss = loss_from_gamma(flm, 0.5)
        np.testing.assert_allclose(loss.values, [[2 / 3, 1.0], [1.0, 0.0]])
        assert loss.values.min() == 0.0 and loss.values.max() == 1.0

    def test_constant_raw_matrix_collapses_to_zero(self):
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        flm = FractionalLinearMetric(0.5 * base, base)
        np.testing.assert_array_equal(loss_from_gamma(flm, 0.5).values, np.zeros((2, 2)))

    def test_ordinal_gamma_one_recovers_distance_pattern(self):
        flm = as_fractional_linear(MetricSpec.ordinal(3))
        loss = loss_from_gamma(flm, 1.0)
        idx = np.arange(1, 4, dtype=float)
        np.testing.assert_allclose(loss.values, np.abs(idx[:, None] - idx[None, :]) / 2.0)

    def test_zero_gamma_recovers_zero_one_loss(self):
        # weighted_exp at gamma 0 is accuracy: A = I, B all-ones, so B - A is the 0-1 loss
        loss = loss_from_gamma(MetricSpec.weighted_exp(3, 0.0).ratio, 1.0)
        np.testing.assert_array_equal(loss.values, np.ones((3, 3)) - np.eye(3))


class TestConfigDocuments:
    def test_round_trip_simple_kinds(self):
        spec = metric_from_config({"kind": "weighted_exp", "params": {"gamma": 0.5}}, 4)
        assert spec.kind == "weighted_exp" and spec.gamma == 0.5 and spec.n_classes == 4

    def test_fractional_linear_inline_matrices(self):
        config = {"kind": "fractional_linear", "A": [[0.0, 0.0], [0.0, 2.0]], "B": [[0.0, 1.0], [1.0, 2.0]]}
        spec = metric_from_config(config)
        conf = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert eval_metric(spec, conf) == eval_metric(MetricSpec.micro_f1(2), conf)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            metric_from_config({"kind": "nope"}, 3)

    def test_loss_matrix_range_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            LossTensor(np.array([[0.0, 1.5], [0.2, 0.0]]))

    def test_loss_based_takes_one_matrix(self):
        with pytest.raises(ValueError, match="one K x K loss"):
            MetricSpec.loss_based(np.zeros((2, 3, 3)))
