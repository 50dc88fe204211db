"""Output checks and reference computations, in numpy of the benchmark's own.

Every workload scores micro-F1 with class 1 as the negative class, so that is
the only metric written out here.  Confusions are counted with one
``np.bincount``; the logistic-regression reference repeats the arithmetic of
``metricopt.estimators.fit_lr`` step for step, so it reproduces the same
probabilities on the same machine.  Each ``check_*`` returns a list of
problems, empty when the outputs are correct.
"""

from __future__ import annotations

import numpy as np

# Same floor as the program's fractional denominators.
DENOMINATOR_FLOOR = 1e-8
# Recomputed utilities and confusions must match the report this closely.
UTILITY_TOL = 1e-12
# A prediction may differ from the reference argmin only on a tie this close.
TIE_TOL = 1e-12
# The tuned rule may trail the argmax baseline by at most this much.
BASELINE_SLACK = 2.0**-50
# fit_lr's defaults, which the command line uses
LR_L2, LR_STEP, LR_ITERATIONS = 1e-4, 0.1, 500


def confusion(labels: np.ndarray, preds: np.ndarray, k: int) -> np.ndarray:
    """(M, K, K) fractions of samples per (true, predicted) class; 1-based inputs."""
    n, m_out = labels.shape
    cells = np.arange(m_out) * k * k + (labels - 1) * k + (preds - 1)
    counts = np.bincount(cells.ravel(), minlength=m_out * k * k)
    return counts.reshape(m_out, k, k) / n


def micro_f1(conf: np.ndarray) -> np.ndarray:
    """Micro-F1 of stacked (..., K, K) confusions; NaN where undefined."""
    diag = np.diagonal(conf, axis1=-2, axis2=-1)
    num = 2.0 * (diag.sum(axis=-1) - diag[..., 0])
    den = 2.0 - conf[..., 0, :].sum(axis=-1) - conf[..., :, 0].sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den >= DENOMINATOR_FLOOR, num / den, np.nan)


def micro_utility(labels: np.ndarray, preds: np.ndarray, k: int) -> float:
    """Micro-F1 of the output-averaged confusion; NaN where undefined."""
    return float(micro_f1(confusion(labels, preds, k).mean(axis=0)))


def _defined(value) -> float | None:
    value = float(value)
    return None if np.isnan(value) else value


def utilities(labels: np.ndarray, preds: np.ndarray, k: int) -> dict:
    """Micro, macro and instance micro-F1 with uniform output weights.

    A mode is None where some confusion it needs has a degenerate denominator.
    """
    m_out = labels.shape[1]
    conf = confusion(labels, preds, k)
    per_output = micro_f1(conf)
    micro = micro_f1(conf.mean(axis=0))
    macro = None if np.isnan(per_output).any() else float(per_output.mean())
    # A sample's instance confusion puts mass 1/M on each (label, prediction).
    hits = ((labels == preds) & (labels != 1)).sum(axis=1) / m_out
    row_neg = (labels == 1).sum(axis=1) / m_out
    col_neg = (preds == 1).sum(axis=1) / m_out
    den = 2.0 - row_neg - col_neg
    instance = None if (den < DENOMINATOR_FLOOR).any() else float((2.0 * hits / den).mean())
    return {"micro": _defined(micro), "macro": macro, "instance": instance}


def _compare_utilities(reported: dict, expected: dict) -> list[str]:
    problems = []
    for mode, want in expected.items():
        got = reported.get(mode)
        if (got is None) != (want is None):
            problems.append(f"{mode} utility reported as {got}, expected {want}")
        elif want is not None and abs(got - want) > UTILITY_TOL:
            problems.append(f"{mode} utility {got!r} differs from recomputed {want!r}")
    return problems


def _compare_confusion(report: dict, labels: np.ndarray, preds: np.ndarray, k: int) -> list[str]:
    got = np.asarray(report["confusion"], dtype=float)
    want = confusion(labels, preds, k)
    if got.shape != want.shape or np.abs(got - want).max() > UTILITY_TOL:
        return ["reported confusion differs from the recomputed one"]
    return []


def check_eval(report: dict, labels: np.ndarray, preds: np.ndarray, k: int) -> list[str]:
    """Utilities and confusion of an ``eval`` report against a bincount recount."""
    return _compare_utilities(report["utilities"], utilities(labels, preds, k)) + (
        _compare_confusion(report, labels, preds, k)
    )


def weighted_argmin(probs: np.ndarray, loss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores eta @ L[m] per (sample, output, class) and their 1-based argmin."""
    scores = np.matmul(probs.transpose(1, 0, 2), loss).transpose(1, 0, 2)
    return scores, np.argmin(scores, axis=2) + 1


def _check_decisions(preds: np.ndarray, probs: np.ndarray, loss: np.ndarray) -> list[str]:
    scores, best = weighted_argmin(probs, loss)
    wrong = np.argwhere(preds != best)
    for n, m in wrong:
        gap = scores[n, m, preds[n, m] - 1] - scores[n, m, best[n, m] - 1]
        if not 0 <= gap <= TIE_TOL * max(1.0, abs(scores[n, m, best[n, m] - 1])):
            return [f"prediction at sample {n}, output {m} is {preds[n, m]}, "
                    f"the weighted argmin is {best[n, m]}"]
    return []


def check_postprocess(
    report: dict,
    preds: np.ndarray,
    probs: np.ndarray,
    labels: np.ndarray,
    eval_idx: np.ndarray,
    averaging: str,
    iterations: int,
) -> list[str]:
    """A ``postprocess`` run against its probabilities and labels.

    The written predictions are the argmin of eta . L under the reported loss
    (ties to the lowest class); every bisection width after step t is exactly
    2^-t; each search's reported utility is what its predictions score on the
    evaluation split and is no worse than the argmax baseline there; and the
    report's utilities and confusion match a recount over all rows.
    """
    k = probs.shape[2]
    if preds.shape != labels.shape:
        return [f"predictions have shape {preds.shape}, labels {labels.shape}"]
    loss = np.asarray(report["loss"]["slices"], dtype=float)
    problems = _check_decisions(preds, probs, loss)
    traces = report["trace"] if isinstance(report["trace"], list) else [report["trace"]]
    for trace in traces:
        widths = np.subtract(trace["uppers"], trace["lowers"])
        if trace["iterations"] != iterations or not np.array_equal(
            widths, 2.0 ** -np.arange(1, iterations + 1)
        ):
            problems.append("bisection widths are not exactly 2^-t")
    problems += _compare_utilities(report["utilities"], utilities(labels, preds, k))
    problems += _compare_confusion(report, labels, preds, k)

    y_eval, p_eval = labels[eval_idx], preds[eval_idx]
    base = np.argmax(probs[eval_idx], axis=2) + 1
    if averaging == "micro":
        tuned = np.array([micro_utility(y_eval, p_eval, k)])
        baseline = np.array([micro_utility(y_eval, base, k)])
    else:
        tuned = micro_f1(confusion(y_eval, p_eval, k))
        baseline = micro_f1(confusion(y_eval, base, k))
    reported = np.array([t["final_utility"] for t in traces])
    if reported.shape != tuned.shape or np.abs(reported - tuned).max() > UTILITY_TOL:
        problems.append("search utilities differ from what the predictions score")
    elif (reported < baseline - BASELINE_SLACK).any():
        problems.append(f"tuned utility {reported} below the argmax baseline {baseline}")
    return problems


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The command line's seeded fit/eval split: ceil(N/2) rows and the rest."""
    order = np.random.default_rng(seed).permutation(n)
    cut = (n + 1) // 2
    return order[:cut], order[cut:]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def lr_probabilities(
    features: np.ndarray, labels: np.ndarray, fit_idx: np.ndarray, k: int
) -> np.ndarray:
    """(N, M, K) probabilities of the command line's logistic regression,
    fitted by full-batch gradient descent on the rows ``fit_idx``."""
    x, y = features[fit_idx], labels[fit_idx]
    n, d = x.shape
    m_out = y.shape[1]
    weights = np.zeros((m_out, k, d))
    constant = []
    for m in range(m_out):
        classes = np.unique(y[:, m])
        if classes.size == 1:
            constant.append(int(classes[0]))
            continue
        constant.append(None)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y[:, m] - 1] = 1.0
        w = weights[m]
        for _ in range(LR_ITERATIONS):
            probs = _softmax_rows(-x @ w.T)
            w -= LR_STEP * (-(probs - onehot).T @ x / n + LR_L2 * w)
    probs = _softmax_rows(-np.einsum("mkd,nd->nmk", weights, features))
    for m, fixed in enumerate(constant):
        if fixed is not None:
            probs[:, m, :] = 0.0
            probs[:, m, fixed - 1] = 1.0
    return probs


def distinct_rule_frac(probs_eval: np.ndarray, traces: list[dict], loss_of) -> float:
    """Distinct prediction vectors over candidate gammas evaluated.

    A micro trace covers all outputs; a macro run has one trace per output.
    ``loss_of(gamma)`` gives the candidate's K x K loss.
    """
    distinct = evaluated = 0
    for m, trace in enumerate(traces):
        eta = probs_eval if len(traces) == 1 else probs_eval[:, m : m + 1]
        seen = set()
        for gamma in trace["gammas"]:
            loss = np.broadcast_to(loss_of(gamma), (eta.shape[1], eta.shape[2], eta.shape[2]))
            seen.add(weighted_argmin(eta, loss)[1].tobytes())
        distinct += len(seen)
        evaluated += len(trace["gammas"])
    return distinct / evaluated
