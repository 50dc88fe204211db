"""Command-line harness: evaluate metrics, post-process probabilities into
weighted classifiers, run the synthetic grid, and query the exhaustive oracle.

Every command is deterministic given its seed (flag --seed, falling back to
the METRICOPT_SEED environment variable, then 0) and emits a JSON report:
each command returns its metric document and report fields, and ``main``
times it and builds and emits the report.
Exit codes: 0 success, 2 input error, 3 numerical/guard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .averaging import MODES, instance_utility, macro_utility, micro_utility
from .bisection import BisectionConfig, bisect_macro, bisect_micro, brute_force_oracle
from .bisection import tuning_bracket
from .confusion import (
    ConfusionTensor,
    LabelMatrix,
    PredictionMatrix,
    ProbabilityField,
    per_sample_confusion,  # noqa: F401  no command builds it; perfbench/spans.py wraps this name
    sample_confusion,
)
from .decision import weighted_predict
from .errors import GuardError
from .estimators import fit_lr, performance_ratio_grid, predict_proba
from .fileio import (
    _write_table,
    read_features,
    read_labels,
    read_probs,
    write_predictions,
    write_probs,
)
from .metrics import MetricSpec, metric_from_config


@dataclass
class RunReport:
    """Reproducibility record for one command invocation."""

    command: list[str]
    config_hash: str
    seed: int
    utilities: dict
    confusion: list | None = None
    loss: dict | None = None
    trace: dict | list | None = None
    predictions: list | None = None
    wall_clock_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    return int(os.environ.get("METRICOPT_SEED", "0"))


# the flags each reporting command echoes into its report's "command", in order
REPORT_FLAGS = {
    "eval": ("labels", "preds", "metric", "averaging"),
    "postprocess": ("labels", "probs", "features", "metric", "averaging", "iters"),
    "oracle": ("labels", "probs", "metric", "averaging"),
    "train-lr": ("features", "labels", "iters", "out"),
}


def _report(args, started: float, config: dict | None, fields: dict) -> RunReport:
    """The report of the command ``args`` parsed, with the command's own ``fields``.

    ``command`` is the subcommand and each of its REPORT_FLAGS that is set;
    ``config_hash`` covers the metric document ``config``, the averaging mode
    and the iterations where the command has them, and the seed.
    """
    command = [args.subcommand]
    for name in REPORT_FLAGS[args.subcommand]:
        if getattr(args, name) is not None:
            command += [f"--{name}", str(getattr(args, name))]
    seed = _resolve_seed(args.seed)
    parts = {**vars(args), "metric": config, "seed": seed}
    keys = ("metric", "averaging", "iters", "seed")
    hashed = {key: parts[key] for key in keys if parts.get(key) is not None}
    return RunReport(
        command=command,
        config_hash=hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest(),
        seed=seed,
        wall_clock_s=time.perf_counter() - started,
        **fields,
    )


def _load_metric_config(arg: str) -> dict:
    text = arg.strip()
    if text.startswith("{"):
        return json.loads(text)
    path = Path(arg)
    if path.exists():
        with open(path) as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError(f"metric file {arg} must hold a JSON object, got {config!r}")
        return config
    # bare kind shorthand, e.g. --metric ordinal
    return {"kind": text}


def _paired(labels: LabelMatrix, labels_path: str, path: str, shape: tuple) -> None:
    """Refuse an input file of ``shape`` that disagrees with the labels in rows, or in outputs
    where ``shape`` has them ((N, M) predictions, (N, M, K) probabilities, not (N,) features)."""
    n_rows, *rest = shape
    if n_rows != labels.n_samples:
        raise ValueError(f"{path} has {n_rows} rows but {labels_path} has {labels.n_samples}")
    if rest and rest[0] != labels.n_outputs:
        raise ValueError(f"{path} has {rest[0]} outputs but {labels_path} has {labels.n_outputs}")


def _bound_inputs(args, *class_paths) -> tuple[dict, MetricSpec, list, ProbabilityField | None]:
    """Read ``--labels``, the other class files ``class_paths`` and ``--probs`` where given,
    pair each with the labels, and bind them all to one class count K.

    A probability file fixes K: no class file may exceed it, and the metric must name it.
    Otherwise K is the largest class seen, or the metric's K if that is larger, an absent
    class a zero row and column.  A metric naming fewer classes is refused, naming the file
    that sets K.  Returns the metric document and spec, the class matrices at K (labels
    first) and the probabilities or None.
    """
    files = [(path, read_labels(path)) for path in (args.labels, *class_paths)]
    probs = None if getattr(args, "probs", None) is None else read_probs(args.probs)
    for path, held in files[1:] + ([] if probs is None else [(args.probs, probs)]):
        _paired(files[0][1], args.labels, path, held.values.shape)
    holder, top = max(files, key=lambda file: file[1].n_classes)  # the first of the largest K
    k = top.n_classes
    if probs is not None:
        if probs.n_classes < k:
            raise ValueError(f"probability file K={probs.n_classes} below labels K={k}")
        holder, k = args.probs, probs.n_classes
    config = _load_metric_config(args.metric)
    spec = metric_from_config(config, k)
    if spec.n_classes < k or (spec.n_classes > k and probs is not None):
        raise ValueError(f"metric K={spec.n_classes} does not match K={k} of {holder}")
    k = spec.n_classes
    bound = [m if m.n_classes == k else LabelMatrix(m.values, k) for _, m in files]
    return config, spec, bound, probs


def _utilities_for(
    spec: MetricSpec,
    labels: LabelMatrix,
    preds: PredictionMatrix,
    conf: ConfusionTensor,
    requested: str,
) -> dict:
    """Requested-mode utility, plus the other modes where they are defined."""
    evaluators = {
        "micro": lambda: micro_utility(spec, conf),
        "macro": lambda: macro_utility(spec, conf),
        "instance": lambda: instance_utility(spec, labels, preds),
    }
    utilities = {}
    for mode, evaluate in evaluators.items():
        try:
            utilities[mode] = evaluate()
        except GuardError:
            if mode == requested:
                raise
            utilities[mode] = None
    return utilities


def _emit(report: RunReport, out: str | None) -> None:
    text = report.to_json()
    if out:
        with open(out, "w", newline="\n") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_eval(args) -> tuple[dict, dict]:
    config, spec, (labels, preds), _ = _bound_inputs(args, args.preds)
    conf = sample_confusion(labels, preds)
    utilities = _utilities_for(spec, labels, preds, conf, args.averaging)
    return config, {"utilities": utilities, "confusion": conf.values.tolist()}


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle into a fitting half of size ceil(N/2) and the rest."""
    order = np.random.default_rng(seed).permutation(n)
    cut = (n + 1) // 2
    return order[:cut], order[cut:]


def cmd_postprocess(args) -> tuple[dict, dict]:
    cfg = BisectionConfig(iterations=args.iters)
    config, spec, (labels,), probs = _bound_inputs(args)
    # a metric the search cannot tune is refused before features are read or fit
    if spec.ratio is None:
        raise ValueError(f"bisection unsupported for this metric: {spec.kind}")
    tuning_bracket(spec.ratio, labels.n_classes)

    if probs is not None:
        labels_eval, probs_eval = labels, probs
    else:
        features = read_features(args.features)
        _paired(labels, args.labels, args.features, features.shape[:1])
        fit_idx, eval_idx = _split_indices(labels.n_samples, _resolve_seed(args.seed))
        if len(eval_idx) == 0:
            raise ValueError(f"N={labels.n_samples} leaves the evaluation split empty")
        model = fit_lr(features[fit_idx], LabelMatrix(labels.values[fit_idx], labels.n_classes))
        labels_eval = LabelMatrix(labels.values[eval_idx], labels.n_classes)
        probs_eval = predict_proba(model, features[eval_idx])

    if args.averaging == "micro":
        loss, trace = bisect_micro(labels_eval, probs_eval, spec.ratio, cfg)
        trace_doc, traces = trace.to_dict(), [trace]
    else:
        loss, traces = bisect_macro(labels_eval, probs_eval, spec.ratio, cfg)
        trace_doc = [t.to_dict() for t in traces]

    searched = np.hstack([t.predictions for t in traces])  # the evaluation rows' classes
    if probs is not None:
        values = searched
    else:  # only the fit rows are left to predict
        values = np.empty(labels.values.shape, dtype=searched.dtype)
        values[eval_idx] = searched
        values[fit_idx] = weighted_predict(loss, predict_proba(model, features[fit_idx])).values
    preds = PredictionMatrix(values, labels.n_classes)
    if args.preds:
        write_predictions(args.preds, preds)
    conf = sample_confusion(labels, preds)
    utilities = _utilities_for(spec, labels, preds, conf, args.averaging)
    return config, {"utilities": utilities, "confusion": conf.values.tolist(),
                    "loss": loss.to_dict(), "trace": trace_doc}


def _parse_list(text: str, kind=float) -> list:
    return [kind(part) for part in text.split(",") if part.strip()]


def cmd_synth(args) -> None:
    c1_values = _parse_list(args.c1)
    c2_values = _parse_list(args.c2)
    seeds = _parse_list(args.seeds, int)
    if not c1_values or not c2_values or not seeds:
        raise ValueError("--c1, --c2 and --seeds must be non-empty")
    rows = performance_ratio_grid(
        c1_values, c2_values, args.n, seeds, n_features=args.features_dim, n_classes=args.classes
    )
    # an object table keeps each seed an int, so it prints as 0, not 0.0
    table = np.array([list(row.values()) for row in rows], dtype=object)
    _write_table(args.out, [",".join(rows[0])], table)


def cmd_oracle(args) -> tuple[dict, dict]:
    config, spec, (labels,), probs = _bound_inputs(args)
    utility, preds = brute_force_oracle(labels if probs is None else probs, spec, args.averaging)
    if args.preds:
        write_predictions(args.preds, preds)
    return config, {"utilities": {args.averaging: utility}, "predictions": preds.values.tolist()}


def cmd_train_lr(args) -> tuple[None, dict]:
    features = read_features(args.features)
    labels = read_labels(args.labels)
    _paired(labels, args.labels, args.features, features.shape[:1])
    model = fit_lr(features, labels, iterations=args.iters)
    write_probs(args.out, predict_proba(model, features))
    return None, {"utilities": {}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricopt",
        description="Evaluate averaged classification metrics and post-process "
        "probabilities into metric-optimal weighted classifiers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, averaging_choices=MODES):
        p.add_argument("--seed", type=int, default=None, help="seed (default METRICOPT_SEED or 0)")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--metric", required=True, help="metric kind, JSON, or JSON file path")
        p.add_argument("--averaging", choices=averaging_choices, default="micro")

    p_eval = sub.add_parser("eval", help="evaluate a metric on labels vs predictions")
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--preds", required=True)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_post = sub.add_parser("postprocess", help="fit a weighted classifier to the metric")
    p_post.add_argument("--labels", required=True)
    source = p_post.add_mutually_exclusive_group(required=True)
    source.add_argument("--probs", default=None, help="probability CSV (full set as eval split)")
    source.add_argument("--features", default=None, help="feature CSV (internal fit/eval split)")
    p_post.add_argument("--preds", default=None, help="write final predictions here")
    p_post.add_argument("--iters", type=int, default=50, help="bisection iterations")
    # instance averaging has no weighted-classifier characterization to fit
    add_common(p_post, averaging_choices=("micro", "macro"))
    p_post.set_defaults(func=cmd_postprocess)

    p_synth = sub.add_parser("synth", help="synthetic performance-ratio grid to CSV")
    p_synth.add_argument("--c1", required=True, help="comma-separated skew values")
    p_synth.add_argument("--c2", required=True, help="comma-separated metric-skew values")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_synth.add_argument("--features-dim", type=int, default=10)
    p_synth.add_argument("--classes", type=int, default=10)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_oracle = sub.add_parser("oracle", help="exhaustive optimum over deterministic predictions")
    p_oracle.add_argument("--labels", required=True)
    p_oracle.add_argument("--probs", default=None)
    p_oracle.add_argument("--preds", default=None, help="write the optimal predictions here")
    add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_train = sub.add_parser("train-lr", help="fit logistic regression, emit probabilities")
    p_train.add_argument("--features", required=True)
    p_train.add_argument("--labels", required=True)
    p_train.add_argument("--iters", type=int, default=500, help="gradient-descent iterations")
    p_train.add_argument("--out", required=True, help="probability CSV path")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train_lr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        done = args.func(args)
        if done is not None:
            # a command that echoes --out in its report writes data there and prints the report
            echoed = "out" in REPORT_FLAGS[args.subcommand]
            _emit(_report(args, started, *done), None if echoed else args.out)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
