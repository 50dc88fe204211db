import metricopt.cli as cli
import pytest

from perfbench import spans
from perfbench.tests.conftest import small_workloads
from perfbench.workloads import EvalPreds, FitTune


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda wl: wl.name)
def test_span_trees_of_real_operations_are_consistent(wl, run_small):
    tracer = spans.Tracer(cli)
    run_small(wl, call=lambda argv: tracer.run(0, cli.main, argv))
    assert spans.check_tree(tracer.spans) == []
    (row,) = spans.op_layers(tracer.spans).values()
    layer_total = sum(row[metric] for metric in spans.TIME_METRICS)
    assert layer_total == pytest.approx(row["op_s"], abs=1e-9)
    assert all(row[metric] >= 0 for metric in spans.TIME_METRICS)


def test_tracer_restores_the_cli_functions(run_small):
    originals = {name: getattr(cli, name) for name in spans.WRAPPED}
    to_json = cli.RunReport.to_json
    tracer = spans.Tracer(cli)
    run_small(EvalPreds(N=80, M=3, K=4), call=lambda argv: tracer.run(0, cli.main, argv))
    assert {name: getattr(cli, name) for name in spans.WRAPPED} == originals
    assert cli.RunReport.to_json is to_json


def test_counts_are_taken_at_the_layer_boundaries(run_small):
    tracer = spans.Tracer(cli)
    run_small(FitTune(N=50, D=3, M=2, K=4), call=lambda argv: tracer.run(0, cli.main, argv))
    (row,) = spans.op_layers(tracer.spans).values()
    assert row["estimators.gd_steps"] == 2 * 500
    assert row["bisection.iterations"] == 2 * 50
    assert row["fileio.bytes_read"] > 0


def _span(span_id, parent_id, start, end, name="x"):
    return spans.Span(span_id, parent_id, 0, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 0, 3.0, 5.0)]
    assert spans.self_times(tree) == {0: 6.0, 1: 3.0, 2: 2.0}
    # overlapping siblings cannot happen in one thread, and break the sum
    assert any("self times sum to" in p for p in spans.check_tree(tree))


def test_a_child_outside_its_parent_is_reported():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 9.0, 11.0)]
    assert any("outside its parent" in p for p in spans.check_tree(tree))


def test_two_roots_in_one_operation_are_reported():
    tree = [_span(0, None, 0.0, 1.0), _span(1, None, 2.0, 3.0)]
    assert any("2 root spans" in p for p in spans.check_tree(tree))
