"""Benchmark of the metricopt command line.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload tune-probs --seed 3 --seconds 20 --trace 1

Run it from the repository root.  It times the checkout's own ``src`` and
refuses to run (exit 2) when ``metricopt`` cannot be imported from there.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread in this process and every process it starts.  The
# loop is closed with one client on a 2-core machine, and a single thread
# keeps the logistic-regression fit steady from run to run.  The variables
# are read when numpy is first imported, so they are set before any import
# that pulls numpy in.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    for variable in THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path[:0] = [str(root / "src"), str(root)]
    try:
        import metricopt
    except ImportError as exc:
        print(f"error: cannot import metricopt from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(metricopt.__file__).resolve().parent != root / "src" / "metricopt":
        print(f"error: metricopt resolves to {metricopt.__file__}, outside {root / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import bench

    return bench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
