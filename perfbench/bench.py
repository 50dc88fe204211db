"""Run workloads, check their outputs, and report the metrics.

Process layout: this process pins itself to one CPU, draws each workload's
inputs from the seed and writes them as files, then starts, one after
another, a few set-up probes (a fresh interpreter that imports
``metricopt.cli`` and builds its parser) and one load generator
(``perfbench.child``), which is the only process that runs operations.  The
children inherit the CPU.  The outputs are checked here after the load
generator has exited, so neither input generation nor checking counts in any
metric.  Every time metric is a wall time normalised by the calibration
kernel timed on either side of it (``perfbench.calibrate``).

An untraced run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) reports the per-layer metrics.  Every run also writes a full
record to ``perfbench/_results/`` (provenance, input digests, per-operation
times, exit codes, check results and output digests, and the spans).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import calibrate, spans
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload

SETUP_PROBES = 7
# Until this many operations ran the loop goes on past --seconds; a traced
# run alternates untraced and traced operations and needs two of each.
MIN_OPS = {0: 3, 1: 4}
# The load generator is stopped if it runs this much longer than --seconds.
GRACE_S = 90
PROBE = (
    "import sys, metricopt.cli as cli; cli.build_parser(); "
    "sys.stdout.write(cli.__file__ + '\\n'); sys.stdout.flush()"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(root: Path) -> dict:
    sources = sorted((root / "src" / "metricopt").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(path.read_bytes().count(b"\n") for path in sources),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def _spawn_until_ready(cmd: list[str], root: Path, timeout: float) -> float:
    """Start ``cmd``, wait for its first stdout line and its exit.

    The line must name the checkout's ``metricopt.cli``.  Returns the seconds
    from spawn to that line.
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:3]} still running after {timeout} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited with code {proc.returncode}")
    if Path(line.strip()).resolve().parent != root / "src" / "metricopt":
        raise BenchError(f"child imported metricopt from {line.strip()!r}")
    return ready


def _setup_samples(root: Path) -> list[dict]:
    samples = []
    calibrate.kernel()  # the first call is slower than the rest
    cal_before = calibrate.measure()
    for _ in range(SETUP_PROBES):
        seconds = _spawn_until_ready([sys.executable, "-c", PROBE], root, 60)
        cal_after = calibrate.measure()
        samples.append({"seconds": seconds, "cal_before_s": cal_before, "cal_after_s": cal_after})
        cal_before = cal_after
    return samples


def _normalised(sample: dict) -> float:
    return calibrate.normalise(sample["seconds"], sample["cal_before_s"], sample["cal_after_s"])


def run_workload(wl: Workload, seed: int, seconds: int, trace: int, root: Path) -> dict:
    work = root / "perfbench" / "_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        return _run_workload(wl, seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(wl: Workload, seed: int, seconds: int, trace: int, root: Path,
                  work: Path) -> dict:
    started = perf_counter()
    data = wl.generate(wl.rng(seed))
    files = wl.write(data, work / "inputs")
    inputs = {key: {"path": str(path.relative_to(root)), "bytes": path.stat().st_size,
                    "sha256": _sha256(path)} for key, path in files.items()}
    inputs_s = perf_counter() - started

    setup = _setup_samples(root)

    ops_dir = work / "ops"
    spec = {
        "argv": wl.argv({k: v["path"] for k, v in inputs.items()}, "{out}", seed),
        "ops_dir": str(ops_dir.relative_to(root)),
        "seconds": seconds,
        "min_ops": MIN_OPS[trace],
        "trace": bool(trace),
        "result": str((work / "result.json").relative_to(root)),
    }
    (work / "spec.json").write_text(json.dumps(spec))
    child_ready_s = _spawn_until_ready(
        [sys.executable, "-m", "perfbench.child", str(work / "spec.json")], root, seconds + GRACE_S
    )
    child = json.loads((work / "result.json").read_text())

    started = perf_counter()
    ref = wl.reference(data, seed)
    ops = [_check_op(wl, ref, op, ops_dir / str(op["op"])) for op in child["ops"]]
    checks_s = perf_counter() - started
    failed = sum(bool(op["problems"]) for op in ops)
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "why": wl.why,
        "size": wl.size,
        "units_per_op": wl.units_per_op,
        "inputs": inputs,
        "inputs_s": inputs_s,
        "checks_s": checks_s,
        "setup_samples": setup,
        "child_ready_s": child_ready_s,
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "peak_rss_mb": child["ru_maxrss_kib"] / 1024,
    }
    if trace:
        record.update(_layer_metrics(wl, ref, ops, child["spans"], ops_dir))
    else:
        record["metrics"] = _end_to_end(wl, ops, setup, record["peak_rss_mb"])
    record["correct"] = failed == 0 and not record.get("span_problems")
    return record


def _check_op(wl: Workload, ref: dict, op: dict, out_dir: Path) -> dict:
    problems = [] if op["exit"] == 0 else [f"exit code {op['exit']}"]
    if not problems:
        try:
            problems = wl.check(ref, out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    outputs = {p.name: _sha256(p) for p in sorted(out_dir.glob("*")) if p.is_file()}
    report_path = out_dir / "report.json"
    if report_path.exists() and not problems:
        # The report without its wall-clock field, to compare runs bit for bit.
        report = json.loads(report_path.read_text())
        report.pop("wall_clock_s", None)
        canonical = json.dumps(report, sort_keys=True).encode()
        outputs["report.json:canonical"] = hashlib.sha256(canonical).hexdigest()
    return {**op, "problems": problems, "sha256": outputs}


def _end_to_end(wl: Workload, ops: list[dict], setup: list[dict], peak_rss_mb: float) -> dict:
    op_s = statistics.median(_normalised(op) for op in ops)
    values = {
        "setup_s": statistics.median(_normalised(sample) for sample in setup),
        "op_s": op_s,
        "units_per_s": wl.units_per_op / op_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _layer_metrics(wl: Workload, ref: dict, ops: list[dict], records: list[dict],
                   ops_dir: Path) -> dict:
    recorded = spans.from_records(records)
    values = spans.median_layers(spans.op_layers(recorded))
    traced = [op for op in ops if op["traced"]]
    untraced = [_normalised(op) for op in ops if not op["traced"]]
    values["trace.overhead_frac"] = (
        statistics.median(_normalised(op) for op in traced) / statistics.median(untraced) - 1.0
    )
    first = next((op for op in traced if not op["problems"]), None)
    values["bisection.distinct_rule_frac"] = (
        wl.distinct_rule_frac(ref, ops_dir / str(first["op"])) if first else 0.0
    )
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "traced_op_s": values["op_s"],
        "span_problems": spans.check_tree(recorded),
        "spans": records,
    }


def _print_record(record: dict) -> None:
    times = [op["seconds"] for op in record["ops"]]
    cal = [op["cal_after_s"] for op in record["ops"]]
    print(f"{record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"ops {record['attempted']}  failed {record['failed']}  "
          f"wall op time median {statistics.median(times):.4f} s, "
          f"min {min(times):.4f} s, max {max(times):.4f} s; "
          f"calibration median {statistics.median(cal) * 1e3:.3f} ms, "
          f"min {min(cal) * 1e3:.3f} ms, max {max(cal) * 1e3:.3f} ms")
    for name, metric in record["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g}  {metric['unit']}")
    print(f"  {'error_rate':<30} {record['error_rate']:>14.6g}  fraction")
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"  op {op['op']}: {problem}")
    for problem in record.get("span_problems", []):
        print(f"  spans: {problem}")


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # One CPU for this process and, by inheritance, every process it starts,
    # so each calibration reading is taken on the CPU that runs the work it
    # scales.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    prov = provenance(root)
    results_dir = root / "perfbench" / "_results"
    results_dir.mkdir(exist_ok=True)
    records = []
    for name in names:
        try:
            record = run_workload(WORKLOADS[name](), args.seed, args.seconds, args.trace, root)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        record["provenance"] = prov
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        _print_record(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0
