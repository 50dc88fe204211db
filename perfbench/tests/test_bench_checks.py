import json

import numpy as np
import pytest

from metricopt.confusion import LabelMatrix
from metricopt.fileio import write_predictions

from perfbench.tests.conftest import small_workloads
from perfbench.workloads import EvalPreds, FitTune, TuneProbs, read_classes


def _edit_report(out, edit):
    path = out / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def _write_preds(out, preds, k):
    write_predictions(out / "preds.csv", LabelMatrix(preds, k))


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda wl: wl.name)
def test_outputs_of_the_program_pass(wl, run_small):
    ref, out = run_small(wl)
    assert wl.check(ref, out) == []


def test_eval_check_catches_a_flipped_prediction(run_small):
    wl = EvalPreds(N=80, M=3, K=4)
    ref, out = run_small(wl)
    preds = ref["preds"].copy()
    n, m = np.argwhere((preds == ref["labels"]) & (preds != 1))[0]
    preds[n, m] = preds[n, m] % 4 + 1
    assert wl.check({**ref, "preds": preds}, out)


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda wl: wl.name)
def test_check_catches_a_utility_off_by_1e9(wl, run_small):
    ref, out = run_small(wl)

    def nudge(report):
        report["utilities"]["micro"] += 1e-9

    _edit_report(out, nudge)
    assert wl.check(ref, out)


@pytest.mark.parametrize("wl", [TuneProbs(N=60, M=2, K=4), FitTune(N=50, D=3, M=2, K=4)],
                         ids=lambda wl: wl.name)
def test_postprocess_check_catches_a_flipped_prediction(wl, run_small):
    ref, out = run_small(wl)
    preds = read_classes(out / "preds.csv")
    preds[0, 0] = preds[0, 0] % 4 + 1
    _write_preds(out, preds, 4)
    assert wl.check(ref, out)


@pytest.mark.parametrize("wl", [TuneProbs(N=60, M=2, K=4), FitTune(N=50, D=3, M=2, K=4)],
                         ids=lambda wl: wl.name)
def test_postprocess_check_catches_a_search_utility_off_by_1e9(wl, run_small):
    ref, out = run_small(wl)

    def nudge(report):
        trace = report["trace"][0] if isinstance(report["trace"], list) else report["trace"]
        trace["final_utility"] += 1e-9

    _edit_report(out, nudge)
    assert wl.check(ref, out)
