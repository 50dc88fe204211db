"""Probability estimation and the synthetic performance-ratio experiment.

The multinomial logistic regression here follows the convention
eta_k(x) proportional to exp(-w_k^T x): larger weights make a class less
likely.  The synthetic generator draws standard-normal features and builds
class probabilities from weights w_{kd} = c1 * |k - d| (1-based indices), so
c1 = 0 yields exactly uniform conditionals and larger c1 skews them.

The performance-ratio experiment compares the plain argmax rule against the
weighted rule tuned to a diagonal exponential metric (weights exp(-c2 * i)):
the ratio of their test utilities is 1 exactly at c2 = 0 and grows with c2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .confusion import LabelMatrix, ProbabilityField, sample_confusion
from .decision import weighted_predict
from .errors import GuardError
from .metrics import LossTensor, MetricSpec, eval_metric, loss_from_gamma


# fit_lr's gradient-descent step size and L2 penalty
LR_STEP = 0.1
LR_L2 = 1e-4


def _softmax_negated(lt: np.ndarray, axis: int) -> np.ndarray:
    """softmax(-lt) along ``axis``, computed in ``lt`` itself, which it returns.

    The shift ``min(lt) - lt`` is exactly ``-lt - max(-lt)``, so no negated copy is made.
    """
    np.subtract(lt.min(axis=axis, keepdims=True), lt, out=lt)
    np.exp(lt, out=lt)
    lt /= lt.sum(axis=axis, keepdims=True)
    return lt


@dataclass
class MultinomialLRModel:
    """Per-output multinomial logistic regression with negated logits.

    ``weights`` has shape (M, K, D).  Outputs whose training labels contain a
    single class are recorded in ``constant_classes`` and predicted as that
    class with probability 1.
    """

    weights: np.ndarray
    constant_classes: tuple = ()


def _ce_grad(
    weights: np.ndarray, xt: np.ndarray, features: np.ndarray, flat: np.ndarray, l2: float
) -> np.ndarray:
    """A fresh gradient of the L2-regularized mean cross-entropy for one output.

    ``weights`` is (K, D), ``xt`` the contiguous (D, N) transpose of ``features`` and ``flat``
    each true class's index ``(y - 1)*N + n`` in the flattened class-major (K, N) ``L = W @ X^T``;
    the logits are -L.  Returns ``-(softmax(-L) - onehot^T) @ X / N + l2 * W``, the softmax over
    classes: its shift is the exact ``min(L) - L``, and each denominator adds its K terms in class
    order, where the sample-major formula sums them pairwise, a few ulps apart.
    """
    lt = _softmax_negated(weights @ xt, axis=0)
    lt.reshape(-1)[flat] -= 1.0
    return -(lt @ features) / len(features) + l2 * weights


def fit_lr(features: np.ndarray, labels: LabelMatrix, iterations: int = 500) -> MultinomialLRModel:
    """Fit one model per output by full-batch gradient descent with step
    ``LR_STEP`` and L2 penalty ``LR_L2``.

    The descent is deterministic from a zero initialization, and each step
    is ``_ce_grad``'s plain class-major step on one transpose of the features.
    No intercept column is added; append a constant feature when one is wanted.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    if features.shape[0] != labels.n_samples:
        raise ValueError(
            f"{features.shape[0]} feature rows for {labels.n_samples} label rows"
        )
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    m_out, k = labels.n_outputs, labels.n_classes
    xt = np.ascontiguousarray(features.T)
    weights = np.zeros((m_out, k, features.shape[1]))
    constant: list = []
    for m in range(m_out):
        classes = np.unique(labels.values[:, m])
        if classes.size == 1:
            constant.append(int(classes[0]))
            continue
        constant.append(None)
        flat = (labels.values[:, m] - 1) * len(features) + np.arange(len(features))
        w = weights[m]
        for _ in range(iterations):
            grad = _ce_grad(w, xt, features, flat, LR_L2)
            grad *= LR_STEP
            w -= grad
    return MultinomialLRModel(weights, tuple(constant))


def predict_proba(model: MultinomialLRModel, features: np.ndarray) -> ProbabilityField:
    """Class probabilities softmax(-W x) per output, rows exactly on the simplex."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.weights.shape[2]:
        raise ValueError(
            f"features shape {features.shape} does not match model dimension "
            f"D={model.weights.shape[2]}"
        )
    probs = _softmax_negated(np.einsum("mkd,nd->nmk", model.weights, features), axis=-1)
    for m, fixed in enumerate(model.constant_classes):
        if fixed is not None:
            probs[:, m, :] = 0.0
            probs[:, m, fixed - 1] = 1.0
    probs.flags.writeable = False  # the field keeps this array instead of a copy
    return ProbabilityField(probs)


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings; skew_c1 shapes the conditionals."""

    n_samples: int
    n_features: int = 10
    n_classes: int = 10
    skew_c1: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples")
        if self.n_features < 1:
            raise ValueError("need at least 1 feature")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")


def synthetic_weights(cfg: SyntheticConfig) -> np.ndarray:
    """Class-by-feature weights c1 * |k - d|, with d clamped to K when D > K."""
    class_idx = np.arange(1, cfg.n_classes + 1, dtype=float)[:, None]
    feat_idx = np.minimum(np.arange(1, cfg.n_features + 1, dtype=float), cfg.n_classes)[None, :]
    return cfg.skew_c1 * np.abs(class_idx - feat_idx)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[np.ndarray, LabelMatrix, ProbabilityField]:
    """Draw features, true conditionals, and sampled labels (single output).

    Reproducible bit-for-bit from ``cfg.seed``.
    """
    rng = np.random.default_rng(cfg.seed)
    features = rng.standard_normal((cfg.n_samples, cfg.n_features))
    eta = _softmax_negated(features @ synthetic_weights(cfg).T, axis=-1)
    cumulative = np.cumsum(eta, axis=1)
    draws = rng.random(cfg.n_samples)
    labels = np.minimum(np.sum(draws[:, None] >= cumulative, axis=1), cfg.n_classes - 1) + 1
    label_matrix = LabelMatrix(labels[:, None].astype(np.int64), n_classes=cfg.n_classes)
    return features, label_matrix, ProbabilityField(eta[:, None, :])


def _derived_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _prepare_ratio_cell(cfg: SyntheticConfig, seed: int) -> tuple[LabelMatrix, ProbabilityField]:
    """Generate data, split 80/20, fit, and return test labels with estimated
    probabilities.  Independent of the metric the cell is scored under."""
    gen_seq, split_seq = np.random.SeedSequence(entropy=(cfg.seed, seed)).spawn(2)
    features, labels, _ = generate_synthetic(replace(cfg, seed=_derived_seed(gen_seq)))
    n = cfg.n_samples
    n_train = int(round(0.8 * n))
    if n_train < 1 or n_train >= n:
        raise ValueError("sample size too small for an 80/20 split")
    order = np.random.default_rng(_derived_seed(split_seq)).permutation(n)
    train_idx, test_idx = order[:n_train], order[n_train:]
    model = fit_lr(features[train_idx], LabelMatrix(labels.values[train_idx], cfg.n_classes))
    probs_test = predict_proba(model, features[test_idx])
    labels_test = LabelMatrix(labels.values[test_idx], cfg.n_classes)
    return labels_test, probs_test


def _ratio_from_cell(
    labels_test: LabelMatrix, probs_test: ProbabilityField, c2: float
) -> tuple[float, float, float]:
    """(baseline utility, weighted-rule utility, ratio) under the c2 metric."""
    k = labels_test.n_classes
    spec = MetricSpec.weighted_exp(k, c2)
    argmax_loss = LossTensor(np.ones((k, k)) - np.eye(k))
    tuned_loss = loss_from_gamma(spec.ratio, 1.0)  # B all-ones: every gamma gives this one rule
    preds_base = weighted_predict(argmax_loss, probs_test)
    preds_tuned = weighted_predict(tuned_loss, probs_test)
    utility_base = eval_metric(spec, sample_confusion(labels_test, preds_base).values[0])
    utility_tuned = eval_metric(spec, sample_confusion(labels_test, preds_tuned).values[0])
    if utility_base <= 0.0:
        raise GuardError("degenerate ratio: baseline utility is zero")
    return utility_base, utility_tuned, utility_tuned / utility_base


def performance_ratio_grid(
    c1_values,
    c2_values,
    n_samples: int,
    seeds,
    n_features: int = 10,
    n_classes: int = 10,
) -> list[dict]:
    """One row per (c1, c2, seed) grid cell, in grid order.

    ``pr`` is the test-utility ratio of the metric-tuned rule over the argmax
    rule.  The generated data and the fitted model depend only on (c1, seed),
    so each such pair is prepared once and reused across the c2 values.
    """
    rows = []
    for c1 in c1_values:
        prepared = {}
        for seed in seeds:
            cfg = SyntheticConfig(
                n_samples=n_samples, n_features=n_features, n_classes=n_classes, skew_c1=c1
            )
            prepared[seed] = _prepare_ratio_cell(cfg, seed)
        for c2 in c2_values:
            for seed in seeds:
                labels_test, probs_test = prepared[seed]
                base, tuned, ratio = _ratio_from_cell(labels_test, probs_test, c2)
                rows.append(
                    {
                        "c1": c1,
                        "c2": c2,
                        "seed": seed,
                        "utility_baseline": base,
                        "utility_consistent": tuned,
                        "pr": ratio,
                    }
                )
    return rows
