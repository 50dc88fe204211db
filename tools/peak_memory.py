"""Peak memory of ``eval`` and ``postprocess --probs`` at a chosen size.

    python3 tools/peak_memory.py eval postprocess --n 250000 [--m 4 --k 10]
        [--tree ROOT]

For each command the inputs are drawn as the benchmark draws them
(``perfbench.workloads``: ``eval-preds`` for ``eval``, ``tune-probs`` for
``postprocess --probs``) from seed 0 at N rows, with the workload's own M and
K unless given, and written once, in a process of their own: on Linux a process's
``ru_maxrss`` starts at the resident size of the process that started it, so
this one stays small.  The command then runs twice in a fresh process with
``ROOT/src`` on ``PYTHONPATH`` (default: the tree this script sits in) and one
BLAS thread: once untraced, for the process's ``ru_maxrss``, and once under
``tracemalloc``, for the peak of memory allocated through Python, numpy arrays
included.  Each command prints one JSON line; both peaks are in MiB.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import BLAS_THREADS, THREAD_VARIABLES  # noqa: E402

WORKLOAD_OF = {"eval": "eval-preds", "postprocess": "tune-probs"}
SEED = 0

# argv: traced (0 or 1), then the command line; prints the module path, exit code,
# tracemalloc peak in bytes and ru_maxrss in KiB
CHILD = """
import resource, sys, tracemalloc
import metricopt.cli as cli
traced = sys.argv[1] == "1"
if traced:
    tracemalloc.start()
code = cli.main(sys.argv[2:])
peak = tracemalloc.get_traced_memory()[1] if traced else 0
print(cli.__file__, code, peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def run_child(tree: Path, argv: list[str], traced: bool) -> tuple[int, int]:
    """The tracemalloc peak and ``ru_maxrss`` of one run of ``argv``, in bytes."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.update({variable: BLAS_THREADS for variable in THREAD_VARIABLES})
    done = subprocess.run([sys.executable, "-c", CHILD, str(int(traced)), *argv], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{argv[0]} failed: {done.stderr.strip()}")
    module, code, peak, maxrss_kib = done.stdout.split()[-4:]
    if not Path(module).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"metricopt resolves to {module}, outside {tree / 'src'}")
    if code != "0":
        raise SystemExit(f"{argv[0]} exited {code}: {done.stderr.strip()}")
    return int(peak), int(maxrss_kib) * 1024


def write_inputs(command: str, size: dict[str, int], work: str):
    """Draw and write the inputs of ``command`` into ``work``; the workload's full size and
    the command line.  Imports numpy itself, so only the process it runs in holds the draws."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[WORKLOAD_OF[command]](**size)
    data = workload.generate(workload.rng(SEED))
    files = {key: str(path) for key, path in workload.write(data, Path(work)).items()}
    return workload.size, workload.argv(files, work, SEED)


def measure(command: str, tree: Path, size: dict[str, int]) -> dict:
    with tempfile.TemporaryDirectory() as work:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            size, argv = pool.apply(write_inputs, (command, size, work))
        _, maxrss = run_child(tree, argv, traced=False)
        peak, _ = run_child(tree, argv, traced=True)
    mib = 1 << 20
    return {"command": command, **size, "seed": SEED, "tree": str(tree),
            "ru_maxrss_mib": round(maxrss / mib, 1), "traced_peak_mib": round(peak / mib, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="+", choices=sorted(WORKLOAD_OF))
    parser.add_argument("--n", type=int, required=True, help="rows")
    parser.add_argument("--m", type=int, default=None, help="outputs (default: the workload's)")
    parser.add_argument("--k", type=int, default=None, help="classes (default: the workload's)")
    parser.add_argument("--tree", type=Path, default=ROOT, help="root of the source tree to run")
    args = parser.parse_args(argv)
    size = {"N": args.n, **({"M": args.m} if args.m else {}), **({"K": args.k} if args.k else {})}
    for command in args.commands:
        print(json.dumps(measure(command, args.tree.resolve(), size)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
