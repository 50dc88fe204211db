"""The load generator: one process that runs one command at a time.

``python3 -m perfbench.child SPEC`` reads the JSON spec written by
``perfbench/run.py``, imports ``metricopt.cli``, prints the module path as
its ready line, and then calls ``cli.main(argv)`` in a closed loop: the next
operation starts when the previous one returns, until ``seconds`` have
passed and at least ``min_ops`` operations ran.  Every operation writes to
its own directory.  The calibration kernel (``perfbench.calibrate``) is
timed before the first operation and after each one, so every operation has
a host-speed reading on either side.  With ``trace`` set, odd operations run
under a ``Tracer`` and even ones untraced, so the two can be compared.  The
result file holds each operation's wall and CPU time, calibration times and
exit code, the process's peak RSS and the recorded spans.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time


def _run_op(cli, tracer, op: int, argv: list[str]) -> int | None:
    try:
        if tracer is None:
            return cli.main(argv)
        return tracer.run(op, cli.main, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return None


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    import metricopt.cli as cli

    print(cli.__file__, flush=True)
    from perfbench import calibrate
    from perfbench.spans import Tracer, to_records

    tracer = Tracer(cli) if spec["trace"] else None
    ops = []
    deadline = perf_counter() + spec["seconds"]
    op = 0
    calibrate.kernel()  # the first call is slower than the rest
    cal_before = calibrate.measure()
    while op < spec["min_ops"] or perf_counter() < deadline:
        out_dir = Path(spec["ops_dir"]) / str(op)
        out_dir.mkdir(parents=True)
        argv = [arg.replace("{out}", str(out_dir)) for arg in spec["argv"]]
        traced = tracer is not None and op % 2 == 1
        gc.collect()
        start, cpu_start = perf_counter(), process_time()
        code = _run_op(cli, tracer if traced else None, op, argv)
        seconds, cpu_s = perf_counter() - start, process_time() - cpu_start
        cal_after = calibrate.measure()
        ops.append({"op": op, "traced": traced, "seconds": seconds, "cpu_s": cpu_s,
                    "cal_before_s": cal_before, "cal_after_s": cal_after, "exit": code})
        cal_before = cal_after
        op += 1
    result = {
        "ops": ops,
        "ru_maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": to_records(tracer.spans) if tracer else [],
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
