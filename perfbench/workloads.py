"""The benchmark's workloads and the metrics it reports.

Each workload draws its inputs from the benchmark seed, writes them with the
``metricopt.fileio`` writers, names the command line it times, and checks
that command's outputs with ``perfbench.checks``.  The program receives only
the written files.  Sizes are the defaults below; tests pass smaller ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from metricopt.confusion import LabelMatrix, ProbabilityField
from metricopt.fileio import write_features, write_predictions, write_probs
from metricopt.metrics import MetricSpec, as_fractional_linear, loss_from_gamma

from perfbench import checks

# name -> unit, reported by an untraced run
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "units_per_s": "units/s",
    "peak_rss_mb": "MiB",
}
# name -> unit, reported by a traced run; 0 where the workload skips the layer
PER_LAYER = {
    "fileio.read_s": "s",
    "fileio.bytes_read": "count",
    "fileio.read_MBps": "MB/s",
    "fileio.write_s": "s",
    "confusion.build_s": "s",
    "averaging.utility_s": "s",
    "decision.predict_s": "s",
    "bisection.search_s": "s",
    "bisection.iterations": "count",
    "bisection.iter_ms": "ms",
    "bisection.accept_frac": "fraction",
    "bisection.distinct_rule_frac": "fraction",
    "estimators.fit_s": "s",
    "estimators.gd_steps": "count",
    "estimators.step_ms": "ms",
    "estimators.predict_proba_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}

ITERATIONS = 50


def _softmax(logits: np.ndarray) -> np.ndarray:
    expd = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return expd / expd.sum(axis=-1, keepdims=True)


def _sample_classes(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One 1-based class per row of the last axis, drawn from that row."""
    draws = rng.random(probs.shape[:-1])[..., None]
    k = probs.shape[-1]
    return np.minimum((draws >= np.cumsum(probs, axis=-1)).sum(axis=-1), k - 1) + 1


def read_classes(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """One command run on seeded inputs.

    Subclasses set the class attributes and implement the hooks.
    ``units_per_op`` is the work one operation does, in the unit that
    ``units_per_s`` counts.
    """

    name: str
    stream: int  # mixed with the seed so workloads draw independent inputs
    why: str
    default_size: dict[str, int]

    def __init__(self, **size: int):
        self.size = {**self.default_size, **size}

    @property
    def units_per_op(self) -> int:
        return self.size["N"] * self.size["M"]

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, self.stream])

    def generate(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def write(self, data: dict[str, np.ndarray], directory: Path) -> dict[str, Path]:
        raise NotImplementedError

    def argv(self, files: dict[str, str], out_dir: str, seed: int) -> list[str]:
        raise NotImplementedError

    def reference(self, data: dict[str, np.ndarray], seed: int) -> dict:
        """Whatever the checks need beyond the inputs, computed once per run."""
        return data

    def check(self, ref: dict, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def distinct_rule_frac(self, ref: dict, out_dir: Path) -> float:
        return 0.0


def _labels_file(directory: Path, labels: np.ndarray) -> Path:
    path = directory / "labels.csv"
    write_predictions(path, LabelMatrix(labels, int(labels.max())))
    return path


class _Postprocess(Workload):
    """Shared checks of the two ``postprocess`` workloads."""

    averaging: str

    def check(self, ref: dict, out_dir: Path) -> list[str]:
        report = json.loads((out_dir / "report.json").read_text())
        preds = read_classes(out_dir / "preds.csv")
        return checks.check_postprocess(
            report, preds, ref["probs"], ref["labels"], ref["eval_idx"], self.averaging, ITERATIONS
        )

    def distinct_rule_frac(self, ref: dict, out_dir: Path) -> float:
        report = json.loads((out_dir / "report.json").read_text())
        trace = report["trace"]
        traces = trace if isinstance(trace, list) else [trace]
        k = ref["probs"].shape[2]
        flm = as_fractional_linear(MetricSpec.micro_f1(k))
        probs_eval = ref["probs"][ref["eval_idx"]]
        return checks.distinct_rule_frac(
            probs_eval, traces, lambda gamma: loss_from_gamma(flm, gamma).values
        )

    def _argv(self, files, out_dir, seed, source: str) -> list[str]:
        return [
            "postprocess",
            "--labels", files["labels"],
            f"--{source}", files[source],
            "--metric", "micro_f1",
            "--averaging", self.averaging,
            "--iters", str(ITERATIONS),
            "--seed", str(seed),
            "--preds", f"{out_dir}/preds.csv",
            "--out", f"{out_dir}/report.json",
        ]


class TuneProbs(_Postprocess):
    name = "tune-probs"
    stream = 1
    averaging = "micro"
    why = ("postprocess --probs, micro_f1 micro, 50 iters, N=25000 M=4 K=10: the paper's core "
           "job; probability parsing and the bisection search split the time")
    default_size = {"N": 25_000, "M": 4, "K": 10}

    def generate(self, rng):
        n, m, k = self.size["N"], self.size["M"], self.size["K"]
        probs = _softmax(2.0 * rng.standard_normal((n, m, k)))
        return {"labels": _sample_classes(rng, probs), "probs": probs}

    def write(self, data, directory):
        probs_path = directory / "probs.csv"
        write_probs(probs_path, ProbabilityField(data["probs"]))
        return {"labels": _labels_file(directory, data["labels"]), "probs": probs_path}

    def argv(self, files, out_dir, seed):
        return self._argv(files, out_dir, seed, "probs")

    def reference(self, data, seed):
        return {**data, "eval_idx": np.arange(len(data["labels"]))}


class FitTune(_Postprocess):
    name = "fit-tune"
    stream = 2
    averaging = "macro"
    why = ("postprocess --features, micro_f1 macro, 50 iters, N=8000 D=10 M=2 K=10: the only "
           "workload that fits the logistic regression and runs the macro search")
    default_size = {"N": 8_000, "D": 10, "M": 2, "K": 10}

    def generate(self, rng):
        n, d, m, k = (self.size[key] for key in ("N", "D", "M", "K"))
        features = rng.standard_normal((n, d))
        weights = 0.8 * rng.standard_normal((m, k, d))
        probs = _softmax(-np.einsum("mkd,nd->nmk", weights, features))
        labels = _sample_classes(rng, probs)
        labels[0] = k  # every output's files name class K, so the command sees K classes
        return {"features": features, "labels": labels}

    def write(self, data, directory):
        features_path = directory / "features.csv"
        write_features(features_path, data["features"])
        return {"labels": _labels_file(directory, data["labels"]), "features": features_path}

    def argv(self, files, out_dir, seed):
        return self._argv(files, out_dir, seed, "features")

    def reference(self, data, seed):
        labels = data["labels"]
        fit_idx, eval_idx = checks.split_indices(len(labels), seed)
        probs = checks.lr_probabilities(data["features"], labels, fit_idx, int(labels.max()))
        return {"labels": labels, "probs": probs, "eval_idx": eval_idx}


class EvalPreds(Workload):
    name = "eval-preds"
    stream = 3
    why = ("eval, micro_f1 micro, N=100000 M=8 K=5: two integer label files and the "
           "(N,M,K,K) instance tensor; never runs the search, so search changes show no change")
    default_size = {"N": 100_000, "M": 8, "K": 5}

    def generate(self, rng):
        n, m, k = self.size["N"], self.size["M"], self.size["K"]
        labels = rng.integers(1, k + 1, size=(n, m))
        noise = rng.integers(1, k + 1, size=(n, m))
        preds = np.where(rng.random((n, m)) < 0.4, noise, labels)
        labels[0, 0] = k
        return {"labels": labels, "preds": preds}

    def write(self, data, directory):
        preds_path = directory / "preds.csv"
        write_predictions(preds_path, LabelMatrix(data["preds"], int(data["preds"].max())))
        return {"labels": _labels_file(directory, data["labels"]), "preds": preds_path}

    def argv(self, files, out_dir, seed):
        return [
            "eval",
            "--labels", files["labels"],
            "--preds", files["preds"],
            "--metric", "micro_f1",
            "--averaging", "micro",
            "--seed", str(seed),
            "--out", f"{out_dir}/report.json",
        ]

    def check(self, ref, out_dir):
        report = json.loads((out_dir / "report.json").read_text())
        k = int(max(ref["labels"].max(), ref["preds"].max()))
        return checks.check_eval(report, ref["labels"], ref["preds"], k)


WORKLOADS = {w.name: w for w in (TuneProbs, EvalPreds, FitTune)}
