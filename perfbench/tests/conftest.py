import pytest

import metricopt.cli as cli

from perfbench.workloads import EvalPreds, FitTune, TuneProbs

SEED = 3


def small_workloads():
    return [
        TuneProbs(N=60, M=2, K=4),
        EvalPreds(N=80, M=3, K=4),
        FitTune(N=50, D=3, M=2, K=4),
    ]


@pytest.fixture
def run_small(tmp_path):
    """Run one operation of a workload in-process; returns (reference, output dir).

    ``call(argv)`` runs the command, ``cli.main`` by default.
    """

    def run(wl, call=cli.main):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        data = wl.generate(wl.rng(SEED))
        files = wl.write(data, inputs)
        out = tmp_path / "op"
        out.mkdir()
        assert call(wl.argv({key: str(path) for key, path in files.items()}, str(out), SEED)) == 0
        return wl.reference(data, SEED), out

    return run
