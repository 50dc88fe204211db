"""Spans recorded from outside the program, and the per-layer table built from them.

A span wraps one public function as ``metricopt.cli`` resolves it, so the
calls the command line makes into ``fileio``, ``confusion``, ``averaging``,
``decision``, ``bisection`` and ``estimators`` are timed without touching the
package.  The root span of an operation is the ``cli.main(argv)`` call; the
report serialiser ``RunReport.to_json`` is wrapped too and counts as ``cli``.
``metrics`` has no span of its own: the command line reaches it only through
``averaging`` and ``bisection``, and private helpers are not wrapped.

Spans stay in memory while operations run and are written out when the run
ends.  A span's self time is its duration minus the part of its interval that
its child spans cover; per operation, the self times sum to the op time.
"""

from __future__ import annotations

import inspect
import itertools
import os
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter

ROOT = "cli.main"
REPORT = "cli.RunReport.to_json"

# name in metricopt.cli -> span name; the prefix before the first dot is the layer
WRAPPED = {
    "read_labels": "fileio.read_labels",
    "read_probs": "fileio.read_probs",
    "read_features": "fileio.read_features",
    "write_predictions": "fileio.write_predictions",
    "write_probs": "fileio.write_probs",
    "sample_confusion": "confusion.sample_confusion",
    "per_sample_confusion": "confusion.per_sample_confusion",
    "micro_utility": "averaging.micro_utility",
    "macro_utility": "averaging.macro_utility",
    "instance_utility": "averaging.instance_utility",
    "weighted_predict": "decision.weighted_predict",
    "bisect_micro": "bisection.bisect_micro",
    "bisect_macro": "bisection.bisect_macro",
    "fit_lr": "estimators.fit_lr",
    "predict_proba": "estimators.predict_proba",
}

# per-layer time metric -> spans whose self times it sums
TIME_METRICS = {
    "fileio.read_s": ("fileio.read_labels", "fileio.read_probs", "fileio.read_features"),
    "fileio.write_s": ("fileio.write_predictions", "fileio.write_probs"),
    "confusion.build_s": ("confusion.sample_confusion", "confusion.per_sample_confusion"),
    "averaging.utility_s": (
        "averaging.micro_utility",
        "averaging.macro_utility",
        "averaging.instance_utility",
    ),
    "decision.predict_s": ("decision.weighted_predict",),
    "bisection.search_s": ("bisection.bisect_micro", "bisection.bisect_macro"),
    "estimators.fit_s": ("estimators.fit_lr",),
    "estimators.predict_proba_s": ("estimators.predict_proba",),
    "cli.self_s": (ROOT, REPORT),
}


def _bytes_read(bound, result) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _search_counts(bound, result) -> dict:
    traces = result[1] if isinstance(result[1], list) else [result[1]]
    records = [r for t in traces for r in t.records]
    return {"iterations": len(records), "accepted": sum(r.accepted for r in records)}


def _gd_steps(bound, result) -> dict:
    fitted = sum(fixed is None for fixed in result.constant_classes)
    return {"gd_steps": bound.arguments["iterations"] * fitted}


COUNTERS = {
    "fileio.read_labels": _bytes_read,
    "fileio.read_probs": _bytes_read,
    "fileio.read_features": _bytes_read,
    "bisection.bisect_micro": _search_counts,
    "bisection.bisect_macro": _search_counts,
    "estimators.fit_lr": _gd_steps,
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the functions ``metricopt.cli`` calls, for one operation at a time.

    Wrappers are installed only while ``run`` executes, so operations run
    outside it are untraced.  Counts are taken after a span ends, so their
    cost falls into the parent's self time, not the layer's.
    """

    def __init__(self, cli_module):
        self.cli = cli_module
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._op_id = -1

    def run(self, op_id: int, main, argv: list[str]):
        """Call ``main(argv)`` as the root span of operation ``op_id``."""
        originals = {name: getattr(self.cli, name) for name in WRAPPED}
        original_to_json = self.cli.RunReport.to_json
        for name, span_name in WRAPPED.items():
            setattr(self.cli, name, self._wrap(originals[name], span_name))
        self.cli.RunReport.to_json = self._wrap(original_to_json, REPORT)
        self._op_id = op_id
        try:
            return self._call(ROOT, main, (argv,), {})
        finally:
            for name, fn in originals.items():
                setattr(self.cli, name, fn)
            self.cli.RunReport.to_json = original_to_json

    def _wrap(self, fn, span_name: str):
        counter = COUNTERS.get(span_name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            return self._call(span_name, fn, args, kwargs, counter, signature)

        return traced

    def _call(self, name, fn, args, kwargs, counter=None, signature=None):
        span_id = next(self._ids)
        parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        counts: dict = {}
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent_id, self._op_id, name, start, end, counts))
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts.update(counter(bound, result))
        return result


def to_records(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def from_records(records: list[dict]) -> list[Span]:
    return [Span(**r) for r in records]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.span_id]]
        out[s.span_id] = s.duration - _covered(clipped)
    return out


def check_tree(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Problems with the span trees; empty when every tree is consistent.

    Each operation has one root, children lie inside their parents, self
    times are nonnegative, and per operation they sum to the root's duration.
    """
    problems = []
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    roots = defaultdict(list)
    for s in spans:
        if s.parent_id is None:
            roots[s.op_id].append(s)
            continue
        parent = by_id.get(s.parent_id)
        if parent is None or parent.op_id != s.op_id:
            problems.append(f"span {s.span_id} ({s.name}) has no parent in its operation")
        elif s.start < parent.start or s.end > parent.end:
            problems.append(f"span {s.span_id} ({s.name}) lies outside its parent {parent.name}")
        if selfs[s.span_id] < -tol:
            problems.append(f"span {s.span_id} ({s.name}) has negative self time")
    for op_id in {s.op_id for s in spans}:
        if len(roots[op_id]) != 1:
            problems.append(f"operation {op_id} has {len(roots[op_id])} root spans")
            continue
        total = sum(selfs[s.span_id] for s in spans if s.op_id == op_id)
        if abs(total - roots[op_id][0].duration) > tol:
            problems.append(f"operation {op_id}: self times sum to {total}, op took "
                            f"{roots[op_id][0].duration}")
    return problems


def op_layers(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per operation: the per-layer times and counts of one traced op."""
    selfs = self_times(spans)
    ops: dict[int, dict[str, float]] = {}
    for op_id in sorted({s.op_id for s in spans}):
        mine = [s for s in spans if s.op_id == op_id]
        row = {metric: sum(selfs[s.span_id] for s in mine if s.name in names)
               for metric, names in TIME_METRICS.items()}
        counts: dict[str, int] = defaultdict(int)
        for s in mine:
            for key, value in s.counts.items():
                counts[key] += value
        read_s, search_s = row["fileio.read_s"], row["bisection.search_s"]
        row["op_s"] = next(s.duration for s in mine if s.parent_id is None)
        row["fileio.bytes_read"] = counts["bytes"]
        row["fileio.read_MBps"] = counts["bytes"] / read_s / 1e6 if read_s > 0 else 0.0
        iterations = counts["iterations"]
        row["bisection.iterations"] = iterations
        row["bisection.iter_ms"] = 1e3 * search_s / iterations if iterations else 0.0
        row["bisection.accept_frac"] = counts["accepted"] / iterations if iterations else 0.0
        steps = counts["gd_steps"]
        row["estimators.gd_steps"] = steps
        row["estimators.step_ms"] = 1e3 * row["estimators.fit_s"] / steps if steps else 0.0
        ops[op_id] = row
    return ops


def median_layers(ops: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over traced operations of each per-layer value."""
    rows = list(ops.values())
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
