"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Budgets are asserted in-line; the whole suite is
sized for a desk machine.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from metricopt.averaging import instance_utility, macro_utility, micro_utility
from metricopt.bisection import (
    BisectionConfig,
    bisect_macro,
    bisect_micro,
    brute_force_oracle,
)
from metricopt.confusion import (
    LabelMatrix,
    PredictionMatrix,
    ProbabilityField,
    expected_confusion,
    sample_confusion,
)
from metricopt.decision import expected_weighted_loss, weighted_predict
from metricopt.errors import GuardError
from metricopt.estimators import SyntheticConfig, generate_synthetic, performance_ratio_grid
from metricopt.metrics import (
    LossTensor,
    MetricSpec,
    as_fractional_linear,
    eval_metric,
    loss_from_gamma,
    metric_gradient,
)


@contextmanager
def criterion(number, description, budget_s=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[criterion {number}] PASS - {description} ({elapsed:.1f}s)")


def random_confusions(rng, count, n_classes):
    return rng.dirichlet(np.ones(n_classes * n_classes), size=count).reshape(
        count, n_classes, n_classes
    )


def finite_diff(spec, conf, step=1e-6):
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


def test_criterion_1_metric_suite():
    with criterion(1, "metric examples exact / fractional forms within 1e-10", budget_s=1.0):
        assert eval_metric(MetricSpec.ordinal(3), np.diag([1 / 3, 1 / 3, 1 / 3])) == 1.0
        assert eval_metric(MetricSpec.micro_f1(2), np.diag([0.5, 0.5])) == 1.0
        assert eval_metric(MetricSpec.micro_f1(2), np.array([[0.5, 0.0], [0.5, 0.0]])) == 0.0
        weighted = eval_metric(MetricSpec.weighted_exp(2, 0.5), np.diag([0.5, 0.5]))
        assert weighted == pytest.approx(
            math.exp(-0.5) * 0.5 + math.exp(-1.0) * 0.5, abs=1e-12
        )
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        np.testing.assert_array_equal(flm.numerator_A, [[0.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(flm.denominator_B, [[0.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(
            loss_from_gamma(flm, 0.5).values, [[2 / 3, 1.0], [1.0, 0.0]]
        )

        # the formulas of the metrics.py table, written without any (A, B) matrix
        rng = np.random.default_rng(11)
        k = 3
        loss = rng.random((k, k))
        confs = random_confusions(rng, 1000, k)
        idx = np.arange(1, k + 1)
        diag = np.einsum("pii->pi", confs)
        closeness = 1.0 - np.abs(idx[:, None] - idx[None, :]) / (k - 1)
        g = 0  # micro_f1's default negative class, 1-based class 1
        table = [
            (MetricSpec.ordinal(k), np.einsum("pij,ij->p", confs, closeness)),
            (
                MetricSpec.micro_f1(k),
                2 * (diag.sum(axis=1) - diag[:, g])
                / (2 - confs[:, g, :].sum(axis=1) - confs[:, :, g].sum(axis=1)),
            ),
            (MetricSpec.weighted_exp(k, 0.5), (np.exp(-0.5 * idx) * diag).sum(axis=1)),
            (MetricSpec.loss_based(loss), 1.0 - np.einsum("pij,ij->p", confs, loss)),
        ]
        for spec, formula in table:
            np.testing.assert_allclose(
                as_fractional_linear(spec).evaluate_batch(confs), formula, rtol=0, atol=1e-10
            )
            assert eval_metric(spec, confs[0]) == pytest.approx(formula[0], abs=1e-10)


def test_criterion_2_gradient_checks():
    with criterion(2, "analytic gradients match central differences (rel 1e-5)", budget_s=5.0):
        rng = np.random.default_rng(23)
        specs = [
            MetricSpec.ordinal(3),
            MetricSpec.weighted_exp(3, 0.5),
            MetricSpec.micro_f1(3),
            MetricSpec.macro_f1(3),
        ]
        for spec in specs:
            for _ in range(100):
                raw = rng.dirichlet(np.ones(9)).reshape(3, 3)
                conf = 0.8 * raw + 0.2 / 9.0  # keep entries interior
                np.testing.assert_allclose(
                    metric_gradient(spec, conf),
                    finite_diff(spec, conf),
                    rtol=1e-5,
                    atol=1e-7,
                )


def _min_expected_loss_exhaustive(loss_tensor, probs):
    """Exhaustive minimum of <L, expected confusion> over all assignments,
    evaluated by gathering per-cell scores for every enumeration index."""
    n, m_out, k = probs.values.shape
    scores = np.einsum("mik,nmi->nmk", loss_tensor.values, probs.values) / n
    cells = scores.reshape(n * m_out, k)
    total = k ** (n * m_out)
    best = np.inf
    chunk = 1 << 16
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        remainder = np.arange(start, stop, dtype=np.int64)
        value = np.zeros(stop - start)
        for pos in range(n * m_out - 1, -1, -1):
            value += cells[pos, remainder % k]
            remainder //= k
        best = min(best, float(value.min()))
    return best


def test_criterion_3_oracle_equivalence():
    with criterion(
        3, "weighted rule = exhaustive optimum; bisection within 2^-T of oracle", budget_s=60.0
    ):
        rng = np.random.default_rng(37)
        iterations = 50
        slack = 2.0**-iterations + 1e-9
        for trial in range(200):
            n = int(rng.integers(1, 7))
            m_out = int(rng.integers(1, 3))
            k = int(rng.integers(2, 4))
            probs = ProbabilityField(rng.dirichlet(np.ones(k), size=(n, m_out)))
            labels = LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k)

            # part 1: the weighted rule attains the exhaustive minimum loss
            loss = LossTensor(rng.random((m_out, k, k)))
            preds = weighted_predict(loss, probs)
            achieved = expected_weighted_loss(loss, expected_confusion(probs, preds))
            best = _min_expected_loss_exhaustive(loss, probs)
            assert achieved <= best + 1e-12
            if k ** (n * m_out) <= 729:
                # literal enumeration cross-checks the vectorized enumerator
                literal = min(
                    expected_weighted_loss(
                        loss,
                        expected_confusion(
                            probs,
                            PredictionMatrix(
                                np.array(assign).reshape(n, m_out), k
                            ),
                        ),
                    )
                    for assign in itertools.product(range(1, k + 1), repeat=n * m_out)
                )
                assert best == pytest.approx(literal, abs=1e-12)

            # part 2: bisection on the known probabilities reaches the oracle
            if n >= 2:
                spec = MetricSpec.micro_f1(k)
                flm = as_fractional_linear(spec)
                cfg = BisectionConfig(iterations=iterations, eval_mode="expected")
                loss, _ = bisect_micro(labels, probs, flm, cfg)
                bis_preds = weighted_predict(loss, probs)
                conf = expected_confusion(probs, bis_preds)
                utility = flm.evaluate(conf.values.mean(axis=0))
                oracle_u, _ = brute_force_oracle(labels, probs, spec, "micro")
                assert utility >= oracle_u - slack


def test_criterion_4_bisection_mechanics():
    with criterion(
        4, "bracket halves exactly; micro slices shared; affine rescale inert", budget_s=30.0
    ):
        rng = np.random.default_rng(41)
        labels = LabelMatrix(rng.integers(1, 3, size=(20, 3)), 2)
        probs = ProbabilityField(rng.dirichlet(np.ones(2), size=(20, 3)))
        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        loss, trace = bisect_micro(labels, probs, flm, BisectionConfig(iterations=50))
        for t, record in enumerate(trace.records, start=1):
            assert record.upper - record.lower == 2.0**-t
        for m in range(1, 3):
            np.testing.assert_array_equal(loss.values[m], loss.values[0])

        for _ in range(100):
            loss = LossTensor(rng.random((2, 3, 3)))
            field = ProbabilityField(rng.dirichlet(np.ones(3), size=(8, 2)))
            base = weighted_predict(loss, field)
            scale = float(rng.uniform(0.05, 0.9))
            shift = float(rng.uniform(0.0, 1.0 - scale))
            mapped = LossTensor(scale * loss.values + shift)
            np.testing.assert_array_equal(base.values, weighted_predict(mapped, field).values)


def test_criterion_5_averaging_identities():
    with criterion(
        5, "micro=macro=instance for linear metrics; macro optimum decomposes", budget_s=60.0
    ):
        rng = np.random.default_rng(53)
        for spec in (MetricSpec.ordinal(3), MetricSpec.weighted_exp(3, 0.5)):
            for _ in range(100):
                n = int(rng.integers(2, 10))
                m_out = int(rng.integers(1, 4))
                labels = LabelMatrix(rng.integers(1, 4, size=(n, m_out)), 3)
                preds = PredictionMatrix(rng.integers(1, 4, size=(n, m_out)), 3)
                conf = sample_confusion(labels, preds)
                micro = micro_utility(spec, conf)
                macro = macro_utility(spec, conf)
                inst = instance_utility(spec, labels, preds)
                assert abs(micro - macro) <= 1e-12
                assert abs(micro - inst) <= 1e-12

        spec = MetricSpec.micro_f1(2)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            labels = LabelMatrix(rng.integers(1, 3, size=(n, 2)), 2)
            joint_u, _ = brute_force_oracle(labels, None, spec, "macro")
            split_u = 0.0
            for m in range(2):
                u_m, _ = brute_force_oracle(
                    LabelMatrix(labels.values[:, m : m + 1], 2),
                    None,
                    spec,
                    "macro",
                )
                split_u += 0.5 * u_m
            assert joint_u == pytest.approx(split_u, abs=1e-12)


def test_criterion_6_synthetic_reproduction():
    with criterion(
        6,
        "synthetic ratio grid: PR=1 at c2=0, >=0.98 everywhere, >=1.2 at "
        "(0.05, 1.5), weakly increasing in c2",
        budget_s=600.0,
    ):
        c1_values = [0.05, 0.2, 0.5]
        c2_values = [0.0, 0.5, 1.0, 1.5]
        seeds = list(range(5))
        rows = performance_ratio_grid(c1_values, c2_values, 20_000, seeds)
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row["c1"], row["c2"]), []).append(row["pr"])

        for c1 in c1_values:
            for ratio in by_cell[(c1, 0.0)]:
                assert ratio == 1.0  # identical predictions, exact unit ratio
        for cell, ratios in by_cell.items():
            assert np.median(ratios) >= 0.98, f"cell {cell} median {np.median(ratios)}"
        assert np.median(by_cell[(0.05, 1.5)]) >= 1.2

        medians = [np.median(by_cell[(0.05, c2)]) for c2 in c2_values]
        inversions = [
            max(0.0, medians[i] - medians[i + 1]) for i in range(len(medians) - 1)
        ]
        violations = [gap for gap in inversions if gap > 0]
        assert len(violations) <= 1 and all(gap <= 0.01 for gap in violations), medians


# Criterion 7 experiment shape: the plug-in consumes the true conditionals,
# bisection scores candidates on the sample confusion of the training labels,
# and regret is measured against a dense grid of candidate loss matrices.
# The data distribution is identical for every seed, so one large shared
# reference sample fixes both the oracle value and the evaluation measure;
# per-seed datasets are nested prefixes, pairing the sample sizes.
REGRET_CLASSES = 4
REGRET_FEATURES = 4
REGRET_SKEW = 0.5
REGRET_SIZES = (250, 500, 1000, 2000, 4000)
REGRET_SEEDS = 20
REGRET_REFERENCE = 100_000
REGRET_GRID = 2001


def _population_utility(loss, eta_ref, flm):
    k = eta_ref.shape[1]
    scores = eta_ref @ loss  # column scores per candidate class
    preds = np.argmin(scores, axis=1)
    # conf_t[j, l] sums eta_l over the samples predicted as j, in sample order
    conf_t = np.stack(
        [np.bincount(preds, weights=eta_ref[:, l], minlength=k) for l in range(k)], axis=1
    )
    # a transposed view: evaluate rounds it as it would the row-major copy
    return flm.evaluate(conf_t.T / eta_ref.shape[0])


def test_criterion_7_empirical_consistency():
    with criterion(
        7, "median regret non-increasing as N doubles (micro-F1 plug-in)", budget_s=300.0
    ):
        flm = as_fractional_linear(MetricSpec.micro_f1(REGRET_CLASSES))
        ref_cfg = SyntheticConfig(
            n_samples=REGRET_REFERENCE,
            n_features=REGRET_FEATURES,
            n_classes=REGRET_CLASSES,
            skew_c1=REGRET_SKEW,
            seed=999_999,
        )
        _, _, eta_ref_field = generate_synthetic(ref_cfg)
        eta_ref = eta_ref_field.values[:, 0, :]
        best = -np.inf
        for gamma in np.linspace(0.0, 1.0, REGRET_GRID):
            try:
                best = max(
                    best,
                    _population_utility(loss_from_gamma(flm, gamma).values, eta_ref, flm),
                )
            except GuardError:
                continue

        regrets = {n: [] for n in REGRET_SIZES}
        for seed in range(REGRET_SEEDS):
            data_cfg = SyntheticConfig(
                n_samples=max(REGRET_SIZES),
                n_features=REGRET_FEATURES,
                n_classes=REGRET_CLASSES,
                skew_c1=REGRET_SKEW,
                seed=seed,
            )
            _, labels_all, eta_all = generate_synthetic(data_cfg)
            for n in REGRET_SIZES:
                labels = LabelMatrix(labels_all.values[:n], REGRET_CLASSES)
                probs = ProbabilityField(eta_all.values[:n])
                loss, _ = bisect_micro(labels, probs, flm, BisectionConfig(iterations=50))
                utility = _population_utility(loss.values[0], eta_ref, flm)
                regrets[n].append(best - utility)
        medians = [float(np.median(regrets[n])) for n in REGRET_SIZES]
        print("        regret medians:", " ".join(f"{m:.2e}" for m in medians))
        for smaller, larger in zip(medians[1:], medians[:-1]):
            assert smaller <= larger, medians


def grouped_dataset(rng, n_samples, n_groups, n_outputs, n_classes):
    """Labels drawn per (group, output) from random categoricals, with the
    probability field set to the per-group empirical label frequencies.

    Classifiers that are functions of the probability rows then see identical
    sample and expected confusions, which makes the baseline comparison exact.
    """
    groups = rng.integers(0, n_groups, size=n_samples)
    group_dists = rng.dirichlet(np.ones(n_classes), size=(n_groups, n_outputs))
    labels = np.zeros((n_samples, n_outputs), dtype=np.int64)
    for m in range(n_outputs):
        cumulative = np.cumsum(group_dists[groups, m], axis=1)
        draws = rng.random(n_samples)
        labels[:, m] = np.minimum(
            (draws[:, None] >= cumulative).sum(axis=1), n_classes - 1
        ) + 1
    empirical = np.zeros((n_groups, n_outputs, n_classes))
    for g in range(n_groups):
        members = groups == g
        count = members.sum()
        if count == 0:
            empirical[g] = 1.0 / n_classes
            continue
        for m in range(n_outputs):
            empirical[g, m] = np.bincount(
                labels[members, m] - 1, minlength=n_classes
            ) / count
    probs = ProbabilityField(empirical[groups])
    return LabelMatrix(labels, n_classes), probs


def test_criterion_8_postprocessing_never_loses():
    with criterion(
        8,
        "post-processed utility >= argmax baseline - 2^-T for ordinal, "
        "micro-F1, weighted(1/2) under micro and macro averaging",
        budget_s=120.0,
    ):
        iterations = 50
        slack = 2.0**-iterations
        rng = np.random.default_rng(71)
        fixtures = [
            grouped_dataset(rng, 240, 12, 2, 4),
            grouped_dataset(rng, 180, 9, 3, 3),
        ]
        for labels, probs in fixtures:
            k = labels.n_classes
            argmax_loss = LossTensor(np.ones((k, k)) - np.eye(k))
            baseline_preds = weighted_predict(argmax_loss, probs)
            baseline_conf = sample_confusion(labels, baseline_preds)
            specs = [
                MetricSpec.ordinal(k),
                MetricSpec.micro_f1(k),
                MetricSpec.weighted_exp(k, 0.5),
            ]
            for spec in specs:
                flm = as_fractional_linear(spec)
                for mode in ("micro", "macro"):
                    if mode == "micro":
                        loss, _ = bisect_micro(
                            labels, probs, flm, BisectionConfig(iterations=iterations)
                        )
                    else:
                        loss, _ = bisect_macro(
                            labels, probs, flm, BisectionConfig(iterations=iterations)
                        )
                    tuned_conf = sample_confusion(labels, weighted_predict(loss, probs))
                    if mode == "micro":
                        tuned_u = micro_utility(spec, tuned_conf)
                        base_u = micro_utility(spec, baseline_conf)
                    else:
                        tuned_u = macro_utility(spec, tuned_conf)
                        base_u = macro_utility(spec, baseline_conf)
                    assert tuned_u >= base_u - slack, (spec.kind, mode, tuned_u, base_u)
