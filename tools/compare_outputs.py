"""Check that two source trees give byte-identical command outputs.

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT [--seeds 0 101 2]

For each benchmark workload and seed, the inputs are drawn and written once
with ``perfbench.workloads`` (from the repository this script sits in).  The
workload's command line then runs under each tree as
``python -m metricopt.cli``, with that tree's ``src`` on ``PYTHONPATH`` and one
BLAS thread, as the benchmark runs it.  ``preds.csv`` is compared byte for
byte, and ``report.json`` field by field without ``wall_clock_s``.  No
workload runs ``oracle`` or a linear metric, so the same comparison also covers
both on a seeded N=5, M=2, K=3 fixture: ``oracle`` on micro-F1 (3^10
assignments) with micro, macro and instance averaging on the labels, and micro
and macro with ``--probs``; and ``postprocess --probs`` on ordinal, micro and
macro.  ``eval`` also runs twice on a seeded N=200, M=3, K=12 fixture, so that
two-digit classes occur: once on the files as ``write_predictions`` writes them,
which the byte reader parses, and once on the same files with CRLF line ends,
a space-padded cell and a ``+``-signed cell, which ``np.loadtxt`` parses.
Exits 1 on any difference or failed command, 0 when every output matches.
"""

from __future__ import annotations

import argparse
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
from metricopt.fileio import write_predictions, write_probs  # noqa: E402

# (command, metric, averaging, with --probs) for each run on the small fixture
SMALL_CASES = [("oracle", "micro_f1", "micro", False), ("oracle", "micro_f1", "macro", False),
               ("oracle", "micro_f1", "instance", False), ("oracle", "micro_f1", "micro", True),
               ("oracle", "micro_f1", "macro", True), ("postprocess", "ordinal", "micro", True),
               ("postprocess", "ordinal", "macro", True)]


def run_tree(tree: Path, argv: list[str]) -> str | None:
    """Run the command under ``tree``; the error text when it fails."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.update({variable: BLAS_THREADS for variable in THREAD_VARIABLES})
    done = subprocess.run([sys.executable, "-m", "metricopt.cli", *argv], env=env,
                          capture_output=True, text=True)
    return None if done.returncode == 0 else f"exit {done.returncode}: {done.stderr.strip()}"


def _bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def differences(parent_out: Path, change_out: Path) -> list[str]:
    found = []
    if _bytes(parent_out / "preds.csv") != _bytes(change_out / "preds.csv"):
        found.append("preds.csv differs")
    reports = [json.loads((out / "report.json").read_text()) for out in (parent_out, change_out)]
    for report in reports:
        report.pop("wall_clock_s", None)
    for key in sorted(reports[0].keys() | reports[1].keys()):
        if reports[0].get(key) != reports[1].get(key):
            found.append(f"report field {key!r} differs")
    return found


def compare(argv_of, trees: dict[str, Path], work: Path) -> list[str]:
    """Run ``argv_of(out_dir)`` under each tree and compare the outputs."""
    outs = {}
    for side, tree in trees.items():
        outs[side] = work / side
        outs[side].mkdir()
        error = run_tree(tree, argv_of(str(outs[side])))
        if error is not None:
            return [f"{side} tree failed: {error}"]
    return differences(outs["parent"], outs["change"])


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
    failed = False
    for label, prepare in cases:
        with tempfile.TemporaryDirectory() as work:
            found = compare(prepare(Path(work)), trees, Path(work))
        print(f"{label}: {'; '.join(found) or 'identical'}", flush=True)
        failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
