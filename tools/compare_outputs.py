"""Check that two source trees give byte-identical command outputs.

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT [--seeds 0 101 2]

For each benchmark workload and seed, the inputs are drawn and written once
with ``perfbench.workloads`` (from the repository this script sits in).  The
workload's command line then runs under each tree as
``python -m metricopt.cli``, with that tree's ``src`` on ``PYTHONPATH``, one
BLAS thread and its own output directory as the working directory, as the
benchmark runs it.  Every file a run writes, and its standard output when it
prints a report, is compared: JSON reports field by field without
``wall_clock_s``, every other file byte for byte.  No
workload runs ``oracle`` or a linear metric, so the same comparison also covers
both on a seeded N=5, M=2, K=3 fixture: ``oracle`` on micro-F1 (3^10
assignments) with micro, macro and instance averaging on the labels, and micro
and macro with ``--probs``; and ``postprocess --probs`` on ordinal, micro and
macro.  ``eval`` also runs twice on a seeded N=200, M=3, K=12 fixture, so that
two-digit classes occur: once on the files as ``write_predictions`` writes them,
which the byte reader parses, and once on the same files with CRLF line ends,
a space-padded cell and a ``+``-signed cell, which ``np.loadtxt`` parses.
``eval`` also runs on seeded binary multilabel files (N=40000, M=4, K=2, five
64 KiB blocks each) whose one-digit cells the byte reader parses as (digit,
separator) pairs, the predictions file without its last newline.
Every workload takes K from its files, so four seeded cases run at a K set
elsewhere: ``eval`` with a 3-class ``loss_based`` metric on 2-class files,
``eval`` whose predictions file holds the larger K, ``oracle`` micro with a
3-class ``fractional_linear`` metric on 2-class labels, and
``postprocess --features`` with the 3-class ``loss_based`` metric.
The benchmark reaches ``fit_lr`` only at K=10, so ``train-lr`` runs on seeded
N=400, D=6, M=2 fixtures at K=3, 10 and 130 (up to 130 terms in each
softmax denominator), and at K=3 once more with the features rewritten ``%.17e``:
negative and exponent cells for the float byte reader, where ``probs.csv`` shows
a feature's last bit.  ``postprocess --probs`` runs on a seeded N=200, M=2, K=4
field rewritten ``%.17e``, and on a seeded N=1500, M=3, K=120 field, whose
``--preds`` file holds one- to three-digit classes in more cells (4500) than
``write_predictions`` writes a block at a time.  ``postprocess --probs`` micro and
macro also run on a seeded K=4 field whose rows are permutations of
(1/2, 1/4, 1/4, 0), N twice the row count from which the argmin/runner-up kernel
turns class-major and M=2, so exact score ties are broken by both of its paths;
``synth`` runs on a 2 x 2 grid of two seeds at N=300.
The same field rewritten ``%.6f`` must fail in both trees, with the same exit
code and message.  Exits 1 on any difference, failed command or unmatched
failure, 0 when every output matches.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import BLAS_THREADS, THREAD_VARIABLES  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

from metricopt.confusion import LabelMatrix, ProbabilityField  # noqa: E402
from metricopt.decision import _CLASS_MAJOR_ROWS  # noqa: E402
from metricopt.fileio import write_features, write_predictions, write_probs  # noqa: E402

# (command, metric, averaging, with --probs) for each run on the small fixture
SMALL_CASES = [("oracle", "micro_f1", "micro", False), ("oracle", "micro_f1", "macro", False),
               ("oracle", "micro_f1", "instance", False), ("oracle", "micro_f1", "micro", True),
               ("oracle", "micro_f1", "macro", True), ("postprocess", "ordinal", "micro", True),
               ("postprocess", "ordinal", "macro", True)]

# the permutations of (1/2, 1/4, 1/4, 0): exact scores, so classes tie under many losses
DYADIC_ROWS = np.array(sorted(set(itertools.permutations((0.5, 0.25, 0.25, 0.0)))))
# (N, M, K) of the dyadic field: every search scores at least twice the rows from which
# the argmin/runner-up kernel switches to its class-major path
DYADIC_SIZE = (2 * _CLASS_MAJOR_ROWS, 2, 4)

# 3-class metric documents; on 2-class files the command reads the files at K=3
WIDE_LOSS = json.dumps({"kind": "loss_based", "L": [[0, 0.4, 1], [0.7, 0, 1], [0.2, 0.5, 0]]})
WIDE_RATIO = json.dumps({"kind": "fractional_linear",
                         "A": [[0.9, 0.1, 0], [0.2, 0.8, 0], [0.3, 0.3, 0.3]],
                         "B": [[1, 0.5, 5], [0.6, 1, 5], [1, 1, 1]]})
# (case name, command, predictions K for eval, metric) for each run at a K the labels do not set
CLASS_COUNT_CASES = [
    ("eval 3-class loss_based on K=2 files", "eval", 2, WIDE_LOSS),
    ("eval K=2 labels, K=4 predictions", "eval", 4, "micro_f1"),
    ("oracle micro 3-class fractional_linear on K=2 labels", "oracle", 2, WIDE_RATIO),
    ("postprocess --features 3-class loss_based on K=2 labels", "postprocess", 2, WIDE_LOSS),
]


def run_tree(tree: Path, argv: list[str], out_dir: Path) -> str | None:
    """Run the command under ``tree`` in ``out_dir``, keeping a printed report
    as ``stdout.json``; the error text when it fails."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.update({variable: BLAS_THREADS for variable in THREAD_VARIABLES})
    done = subprocess.run([sys.executable, "-m", "metricopt.cli", *argv], env=env,
                          cwd=out_dir, capture_output=True, text=True)
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.strip()}"
    if done.stdout:
        (out_dir / "stdout.json").write_text(done.stdout)
    return None


def _report_fields(path: Path) -> dict:
    report = json.loads(path.read_text())
    report.pop("wall_clock_s", None)
    return report


def differences(parent_out: Path, change_out: Path) -> list[str]:
    found = []
    names = {path.name for out in (parent_out, change_out) for path in out.iterdir()}
    for name in sorted(names):
        paths = [parent_out / name, change_out / name]
        if not all(path.exists() for path in paths):
            found.append(f"{name} written by one tree only")
        elif name.endswith(".json"):
            reports = [_report_fields(path) for path in paths]
            found += [f"{name} field {key!r} differs"
                      for key in sorted(reports[0].keys() | reports[1].keys())
                      if reports[0].get(key) != reports[1].get(key)]
        elif paths[0].read_bytes() != paths[1].read_bytes():
            found.append(f"{name} differs")
    return found


def compare(argv_of, trees: dict[str, Path], work: Path, fails: bool = False) -> list[str]:
    """Run ``argv_of(out_dir)`` under each tree and compare the outputs; with ``fails``,
    each tree must fail with the same exit code and message instead."""
    outs, errors = {}, {}
    for side, tree in trees.items():
        outs[side] = work / side
        outs[side].mkdir()
        errors[side] = run_tree(tree, argv_of(str(outs[side])), outs[side])
    if fails:
        if errors["parent"] is None or errors["change"] != errors["parent"]:
            return [f"{side} tree: {errors[side] or 'no failure'}" for side in trees]
        return []
    found = [f"{side} tree failed: {error}" for side, error in errors.items() if error]
    return found or differences(outs["parent"], outs["change"])


def workload_case(workload, seed: int):
    """Write the workload's inputs into a directory; its command line for an output directory."""
    def prepare(work: Path):
        data = workload.generate(workload.rng(seed))
        files = {key: str(path) for key, path in workload.write(data, work).items()}
        return lambda out_dir: workload.argv(files, out_dir, seed)
    return prepare


def small_case(command: str, metric: str, mode: str, with_probs: bool, seed: int):
    """As ``workload_case``, for one run of ``command`` on the seeded fixture."""
    def prepare(work: Path):
        rng = np.random.default_rng(seed)
        n, m_out, k = 5, 2, 3
        labels = rng.integers(1, k + 1, size=(n, m_out))
        labels[0, 0] = k  # the file names class K, so the command sees K classes
        write_predictions(work / "labels.csv", LabelMatrix(labels, k))
        write_probs(work / "probs.csv", ProbabilityField(rng.dirichlet(np.ones(k), (n, m_out))))
        argv = [command, "--labels", str(work / "labels.csv"), "--metric", metric,
                "--averaging", mode, "--seed", str(seed)]
        if with_probs:
            argv += ["--probs", str(work / "probs.csv")]
        return lambda out_dir: argv + ["--out", f"{out_dir}/report.json",
                                       "--preds", f"{out_dir}/preds.csv"]
    return prepare


def eval_case(rewritten: bool, seed: int):
    """As ``workload_case``, for ``eval`` on the seeded K=12 fixture; ``rewritten`` gives
    both files CRLF line ends, a space-padded cell and a ``+``-signed cell."""
    def prepare(work: Path):
        rng = np.random.default_rng(seed)
        n, m_out, k = 200, 3, 12
        files = {}
        for name in ("labels", "preds"):
            path = work / f"{name}.csv"
            write_predictions(path, LabelMatrix(rng.integers(1, k + 1, size=(n, m_out)), k))
            if rewritten:
                lines = path.read_text().splitlines()
                cells = lines[1].split(",")
                lines[1] = ",".join([f" {cells[0]} ", *cells[1:]])
                lines[2] = "+" + lines[2]
                path.write_bytes("".join(line + "\r\n" for line in lines).encode())
            files[name] = str(path)
        return lambda out_dir: ["eval", "--labels", files["labels"], "--preds", files["preds"],
                                "--metric", "micro_f1", "--averaging", "micro",
                                "--out", f"{out_dir}/report.json"]
    return prepare


def multilabel_eval_case(seed: int):
    """As ``workload_case``, for ``eval`` on seeded N=40000, M=4, K=2 files, the last
    newline cut from the predictions file."""
    def prepare(work: Path):
        rng = np.random.default_rng(seed)
        for name in ("labels", "preds"):
            classes = rng.integers(1, 3, size=(40000, 4))
            write_predictions(work / f"{name}.csv", LabelMatrix(classes, 2))
        preds = work / "preds.csv"
        preds.write_bytes(preds.read_bytes()[:-1])
        return lambda out_dir: ["eval", "--labels", str(work / "labels.csv"), "--preds", str(preds),
                                "--metric", "micro_f1", "--averaging", "macro",
                                "--out", f"{out_dir}/report.json"]
    return prepare


def class_count_case(command: str, k_preds: int, metric: str, seed: int):
    """As ``workload_case``, for ``command`` with ``metric`` on seeded 2-class labels, with
    predictions of ``k_preds`` classes (``eval``) or D=3 features (``postprocess``); N=5,
    M=2 for ``oracle``, N=60, M=2 otherwise."""
    def prepare(work: Path):
        rng = np.random.default_rng(seed)
        n, m_out = (5, 2) if command == "oracle" else (60, 2)
        for name, k in (("labels", 2), ("preds", k_preds)):
            values = rng.integers(1, k + 1, size=(n, m_out))
            values[0, 0] = k  # the file names class K, so the command sees K classes
            write_predictions(work / f"{name}.csv", LabelMatrix(values, k))
        write_features(work / "features.csv", rng.standard_normal((n, 3)))
        inputs = {"eval": ["--preds", str(work / "preds.csv")],
                  "postprocess": ["--features", str(work / "features.csv")], "oracle": []}
        argv = [command, "--labels", str(work / "labels.csv"), *inputs[command],
                "--metric", metric, "--seed", str(seed)]
        written = [] if command == "eval" else ["--preds", "preds.csv"]
        return lambda out_dir: argv + ["--out", f"{out_dir}/report.json", *written]
    return prepare


def reformat(path: Path, fmt: str, header_lines: int) -> None:
    """Rewrite every cell below the first ``header_lines`` lines of ``path`` as ``fmt % cell``."""
    lines = path.read_text().splitlines()
    body = [",".join(fmt % float(cell) for cell in line.split(","))
            for line in lines[header_lines:]]
    path.write_text("".join(line + "\n" for line in lines[:header_lines] + body))


def train_lr_case(k: int, seed: int, fmt: str | None = None):
    """As ``workload_case``, for ``train-lr`` on a seeded N=400, D=6, M=2 fixture
    with K classes, its features rewritten as ``fmt`` formats them if given; the
    probabilities go to ``probs.csv`` in the output directory."""
    def prepare(work: Path):
        rng = np.random.default_rng(seed)
        n, d, m_out = 400, 6, 2
        labels = rng.integers(1, k + 1, size=(n, m_out))
        labels[0] = k  # each output's labels name class K, so the command sees K classes
        write_predictions(work / "labels.csv", LabelMatrix(labels, k))
        write_features(work / "features.csv", rng.standard_normal((n, d)))
        if fmt is not None:
            reformat(work / "features.csv", fmt, header_lines=1)
        return lambda out_dir: ["train-lr", "--features", str(work / "features.csv"),
                                "--labels", str(work / "labels.csv"), "--seed", str(seed),
                                "--out", "probs.csv"]
    return prepare


def probs_case(n: int, m_out: int, k: int, fmt: str | None, seed: int, averaging: str = "micro",
               dyadic: bool = False):
    """As ``workload_case``, for ``postprocess --probs`` micro-F1 on a seeded N x M x K
    fixture, its probability cells rewritten as ``fmt`` formats them if given; with
    ``dyadic``, every row is one of the K=4 ``DYADIC_ROWS``."""
    def prepare(work: Path):
        rng = np.random.default_rng(seed)
        labels = rng.integers(1, k + 1, size=(n, m_out))
        labels[0, 0] = k  # the file names class K, so the command sees K classes
        write_predictions(work / "labels.csv", LabelMatrix(labels, k))
        if dyadic:
            field = DYADIC_ROWS[rng.integers(0, len(DYADIC_ROWS), size=(n, m_out))]
        else:
            field = rng.dirichlet(np.ones(k), (n, m_out))
        write_probs(work / "probs.csv", ProbabilityField(field))
        if fmt is not None:
            reformat(work / "probs.csv", fmt, header_lines=2)
        argv = ["postprocess", "--labels", str(work / "labels.csv"), "--probs",
                str(work / "probs.csv"), "--metric", "micro_f1", "--averaging", averaging,
                "--seed", str(seed)]
        return lambda out_dir: argv + ["--out", f"{out_dir}/report.json",
                                       "--preds", f"{out_dir}/preds.csv"]
    return prepare


def synth_case(seed: int):
    """As ``workload_case``, for ``synth`` on a 2 x 2 (c1, c2) grid of two seeds."""
    def prepare(work: Path):
        return lambda out_dir: ["synth", "--c1", "0,1.5", "--c2", "0,2", "--n", "300",
                                "--seeds", f"{seed},{seed + 1}", "--out", "grid.csv"]
    return prepare


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the reference source tree")
    parser.add_argument("change", type=Path, help="root of the source tree under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 101, 2])
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cases = [(f"{name} seed {seed}", workload_case(cls(), seed))
             for name, cls in WORKLOADS.items() for seed in args.seeds]
    cases += [(f"{command} {metric} {mode}{' --probs' * with_probs} seed {seed}",
               small_case(command, metric, mode, with_probs, seed))
              for command, metric, mode, with_probs in SMALL_CASES for seed in args.seeds]
    cases += [(f"eval K=12{' CRLF, padded, signed' * rewritten} seed {seed}",
               eval_case(rewritten, seed)) for rewritten in (False, True) for seed in args.seeds]
    cases += [(f"eval K=2 multilabel, no last newline seed {seed}", multilabel_eval_case(seed))
              for seed in args.seeds]
    cases += [(f"{name} seed {seed}", class_count_case(command, k_preds, metric, seed))
              for name, command, k_preds, metric in CLASS_COUNT_CASES for seed in args.seeds]
    cases += [(f"train-lr K={k} seed {seed}", train_lr_case(k, seed))
              for k in (3, 10, 130) for seed in args.seeds]
    cases += [(f"train-lr K=3 features %.17e seed {seed}", train_lr_case(3, seed, "%.17e"))
              for seed in args.seeds]
    cases += [(f"postprocess --probs %.17e seed {seed}", probs_case(200, 2, 4, "%.17e", seed))
              for seed in args.seeds]
    cases += [(f"postprocess --probs K=120 seed {seed}", probs_case(1500, 3, 120, None, seed))
              for seed in args.seeds]
    cases += [(f"postprocess --probs dyadic ties {mode} seed {seed}",
               probs_case(*DYADIC_SIZE, None, seed, mode, dyadic=True))
              for mode in ("micro", "macro") for seed in args.seeds]
    cases += [(f"synth seed {seed}", synth_case(seed)) for seed in args.seeds]
    # the same field written %.6f is refused: its rows miss a sum of 1 by more than allowed
    failing = [(f"postprocess --probs %.6f seed {seed}", probs_case(200, 2, 4, "%.6f", seed))
               for seed in args.seeds]
    failed = False
    for fails, group in ((False, cases), (True, failing)):
        for label, prepare in group:
            with tempfile.TemporaryDirectory() as work:
                found = compare(prepare(Path(work)), trees, Path(work), fails)
            print(f"{label}: {'; '.join(found) or 'identical'}", flush=True)
            failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
