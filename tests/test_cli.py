import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import metricopt
from metricopt import confusion
from metricopt.averaging import micro_utility
from metricopt.bisection import tuning_bracket
from metricopt.cli import RunReport, _split_indices, _utilities_for, build_parser, main
from metricopt.confusion import LabelMatrix, PredictionMatrix, ProbabilityField, sample_confusion
from metricopt.decision import weighted_predict
from metricopt.estimators import fit_lr, predict_proba
from metricopt.fileio import (
    read_features,
    read_labels,
    read_probs,
    write_features,
    write_predictions,
    write_probs,
)

from metricopt.metrics import LossTensor, MetricSpec, eval_metric, metric_from_config

from conftest import random_labels, random_prob_rows


@pytest.fixture
def perfect_fixture(tmp_path):
    values = np.array([[1, 2], [2, 3], [3, 1], [1, 1]])
    labels_path = tmp_path / "labels.csv"
    preds_path = tmp_path / "preds.csv"
    write_predictions(labels_path, LabelMatrix(values, 3))
    write_predictions(preds_path, PredictionMatrix(values, 3))
    return labels_path, preds_path


class TestFileIO:
    def test_labels_round_trip(self, tmp_path, rng):
        labels = LabelMatrix(random_labels(rng, 10, 3, 4), 4)
        path = tmp_path / "labels.csv"
        write_predictions(path, labels)
        back = read_labels(path)
        np.testing.assert_array_equal(back.values, labels.values)

    def test_probs_round_trip(self, tmp_path, rng):
        probs = ProbabilityField(random_prob_rows(rng, 8, 2, 3))
        path = tmp_path / "probs.csv"
        write_probs(path, probs)
        back = read_probs(path)
        np.testing.assert_array_equal(back.values, probs.values)

    def test_features_round_trip(self, tmp_path, rng):
        features = rng.standard_normal((6, 4))
        path = tmp_path / "features.csv"
        write_features(path, features)
        np.testing.assert_array_equal(read_features(path), features)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y1,y2\n1,2\n1,oops\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            read_labels(path)

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("p_1_1,p_1_2\n0.5,0.5\n")
        with pytest.raises(ValueError, match="metadata"):
            read_probs(path)


class TestEval:
    def test_perfect_ordinal_micro_is_one(self, perfect_fixture, tmp_path, capsys):
        labels_path, preds_path = perfect_fixture
        out = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--labels", str(labels_path),
                "--preds", str(preds_path),
                "--metric", "ordinal",
                "--averaging", "micro",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = RunReport(**json.loads(out.read_text()))
        assert report.utilities["micro"] == 1.0
        assert report.utilities["macro"] == 1.0

    def test_micro_f1_known_zero(self, tmp_path):
        labels = LabelMatrix(np.array([[1], [2]]), 2)
        preds = PredictionMatrix(np.array([[1], [1]]), 2)
        write_predictions(tmp_path / "labels.csv", labels)
        write_predictions(tmp_path / "preds.csv", preds)
        out = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--labels", str(tmp_path / "labels.csv"),
                "--preds", str(tmp_path / "preds.csv"),
                "--metric", "micro_f1",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = RunReport(**json.loads(out.read_text()))
        assert report.utilities["micro"] == 0.0
        # the confusion tensor is embedded with the known values
        np.testing.assert_allclose(report.confusion, [[[0.5, 0.0], [0.5, 0.0]]])

    def test_utilities_peak_below_half_the_dense_instance_tensor(self, rng):
        n, m_out, k = 20000, 8, 5
        labels = LabelMatrix(random_labels(rng, n, m_out, k), k)
        preds = PredictionMatrix(random_labels(rng, n, m_out, k), k)
        conf = sample_confusion(labels, preds)
        tracemalloc.start()
        try:
            utilities = _utilities_for(MetricSpec.micro_f1(k), labels, preds, conf, "micro")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert utilities["instance"] is not None
        dense = n * m_out * k * k * 8  # a one-hot (N, M, K, K) float tensor
        assert peak < dense / 2, f"peak {peak / 1e6:.1f} MB, dense tensor {dense / 1e6:.0f} MB"

    def test_utilities_peak_is_bounded_by_a_block_not_by_n(self, rng):
        # the instance utility builds per-sample confusions a block of rows at a time
        n, m_out, k = 20000, 4, 10
        labels = LabelMatrix(random_labels(rng, n, m_out, k), k)
        preds = PredictionMatrix(random_labels(rng, n, m_out, k), k)
        conf = sample_confusion(labels, preds)
        spec = MetricSpec.micro_f1(k)
        tracemalloc.start()
        try:
            utilities = _utilities_for(spec, labels, preds, conf, "micro")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert utilities["instance"] is not None
        bound = 2 * confusion._BLOCK_CELLS * 8  # two blocks of float64 cells
        dense = n * k * k * 8  # the (N, K, K) per-sample tensor
        assert bound < dense
        assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"

    def test_missing_file_exit_code_and_message(self, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--labels", str(tmp_path / "nope.csv"),
                "--preds", str(tmp_path / "nope.csv"),
                "--metric", "ordinal",
            ]
        )
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_guard_error_exit_code(self, tmp_path, capsys):
        # all mass on the negative class makes micro-F1's denominator vanish
        labels = LabelMatrix(np.array([[2], [2]]), 2)
        preds = PredictionMatrix(np.array([[2], [2]]), 2)
        write_predictions(tmp_path / "labels.csv", labels)
        write_predictions(tmp_path / "preds.csv", preds)
        metric = json.dumps({"kind": "micro_f1", "params": {"negative_class": 2}})
        code = main(
            [
                "eval",
                "--labels", str(tmp_path / "labels.csv"),
                "--preds", str(tmp_path / "preds.csv"),
                "--metric", metric,
            ]
        )
        assert code == 3
        assert "error: degenerate denominator: " in capsys.readouterr().err
        # postprocess: the argmax baseline the search starts from predicts the negative class too
        write_probs(tmp_path / "probs.csv", ProbabilityField(np.array([[[0.1, 0.9]], [[0.3, 0.7]]])))
        final = tmp_path / "final.csv"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", metric,
                "--preds", str(final),
            ]
        )
        assert code == 3
        assert "error: degenerate denominator: " in capsys.readouterr().err
        assert not final.exists()

    @pytest.mark.parametrize(
        "metric, message",
        [
            ('{"kind": "ordinal", "params": 5}', "metric params must be a JSON object"),
            ('{"kind": "weighted_exp", "params": {"gamma": null}}', "metric params.gamma"),
            ('{"kind": "micro_f1", "params": {"negative_class": [1]}}',
             "metric params.negative_class"),
            ("file:5", "must hold a JSON object, got 5"),
            ('{"kind": "micro_f1", "params": {"negative_class": 2.7}}',
             "metric params.negative_class must be an integer, got 2.7"),
            ('{"kind": "micro_f1", "params": {"negative_class": true}}',
             "metric params.negative_class must be an integer, got True"),
            ('{"kind": "weighted_exp", "params": {"gamma": true}}',
             "metric params.gamma must be a number, got True"),
            ('{"kind": "weighted_exp", "params": {"gamma": 1' + "0" * 400 + "}}",
             "metric params.gamma is too large for a float"),
            ('{"kind": "polynomial", "params": {"gamma": 1' + "0" * 400 + "}}",
             "metric params.gamma is too large for a float"),
            ('{"kind": "weighted_exp", "params": {"gama": 0.5}}',
             "metric params.gama is not a parameter of weighted_exp"),
            ('{"kind": "ordinal", "params": {"gamma": 0.5}}',
             "metric params.gamma is not a parameter of ordinal"),
            ('{"kind": "micro_f1", "params": {"gamma": 0.5}}',
             "metric params.gamma is not a parameter of micro_f1"),
            ('{"kind": "fractional_linear", "params": {"A": [[1, 0], [0, 1]], '
             '"B": [[1, 1], [1, 1]], "L": [[0, 1], [1, 0]]}}',
             "metric params.L is not a parameter of fractional_linear"),
            ('{"kind": "loss_based", "params": {"L": [[0, 1], [1, 0]], "A": [[1, 0], [0, 1]]}}',
             "metric params.A is not a parameter of loss_based"),
        ],
        ids=["params-not-object", "gamma-null", "negative-class-list", "file-holds-number",
             "negative-class-fraction", "negative-class-bool", "gamma-bool",
             "weighted-exp-gamma-beyond-float", "polynomial-gamma-beyond-float", "gamma-misspelt",
             "param-on-kind-without-params", "gamma-on-micro-f1", "L-on-fractional-linear",
             "A-on-loss-based"],
    )
    def test_malformed_metric_document_exit_code_and_message(
        self, perfect_fixture, tmp_path, capsys, metric, message
    ):
        labels_path, preds_path = perfect_fixture
        if metric.startswith("file:"):
            (tmp_path / "metric.json").write_text(metric.removeprefix("file:"))
            metric = str(tmp_path / "metric.json")
        code = main(["eval", "--labels", str(labels_path), "--preds", str(preds_path),
                     "--metric", metric])
        assert code == 2
        assert message in capsys.readouterr().err


class TestPostprocess:
    def _write_problem(self, tmp_path, rng, n=40, m=2, k=3):
        labels = LabelMatrix(random_labels(rng, n, m, k), k)
        probs = ProbabilityField(random_prob_rows(rng, n, m, k))
        write_predictions(tmp_path / "labels.csv", labels)
        write_probs(tmp_path / "probs.csv", probs)
        return labels, probs

    def test_bisection_trace_has_requested_iterations(self, tmp_path, rng):
        self._write_problem(tmp_path, rng)
        out = tmp_path / "report.json"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", "micro_f1",
                "--iters", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = RunReport(**json.loads(out.read_text()))
        assert report.trace["iterations"] == 50
        final_width = report.trace["uppers"][-1] - report.trace["lowers"][-1]
        assert final_width == 2.0**-50

    def test_round_trip_utility_matches_eval(self, tmp_path, rng):
        self._write_problem(tmp_path, rng)
        post_report = tmp_path / "post.json"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", "micro_f1",
                "--averaging", "macro",
                "--preds", str(tmp_path / "final.csv"),
                "--out", str(post_report),
            ]
        )
        assert code == 0
        eval_report = tmp_path / "eval.json"
        code = main(
            [
                "eval",
                "--labels", str(tmp_path / "labels.csv"),
                "--preds", str(tmp_path / "final.csv"),
                "--metric", "micro_f1",
                "--averaging", "macro",
                "--out", str(eval_report),
            ]
        )
        assert code == 0
        posted = RunReport(**json.loads(post_report.read_text()))
        evaled = RunReport(**json.loads(eval_report.read_text()))
        assert posted.utilities["macro"] == evaled.utilities["macro"]
        # macro runs carry one trace per output
        assert isinstance(posted.trace, list) and len(posted.trace) == 2

    def test_library_equivalence_bit_for_bit(self, tmp_path, rng):
        labels, probs = self._write_problem(tmp_path, rng, n=30, m=1, k=2)
        out = tmp_path / "report.json"
        main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", "micro_f1",
                "--iters", "40",
                "--out", str(out),
            ]
        )
        report = RunReport(**json.loads(out.read_text()))
        from metricopt.bisection import BisectionConfig, bisect_micro
        from metricopt.metrics import MetricSpec, as_fractional_linear

        flm = as_fractional_linear(MetricSpec.micro_f1(2))
        _, trace = bisect_micro(labels, probs, flm, BisectionConfig(iterations=40))
        assert report.trace["gammas"] == [r.gamma for r in trace.records]
        assert report.trace["final_utility"] == trace.final_utility
        np.testing.assert_array_equal(report.trace["final_loss"], trace.final_loss)

    def test_internal_split_with_features(self, tmp_path, rng):
        n, k = 60, 3
        features = rng.standard_normal((n, 4))
        labels = LabelMatrix(random_labels(rng, n, 1, k), k)
        write_predictions(tmp_path / "labels.csv", labels)
        write_features(tmp_path / "features.csv", features)
        out = tmp_path / "report.json"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--features", str(tmp_path / "features.csv"),
                "--metric", "micro_f1",
                "--iters", "20",
                "--seed", "5",
                "--preds", str(tmp_path / "final.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        preds = read_labels(tmp_path / "final.csv")
        assert preds.values.shape == (n, 1)

    @pytest.mark.parametrize("averaging", ["micro", "macro"])
    def test_features_predictions_follow_the_reported_loss_on_every_row(
        self, tmp_path, rng, averaging
    ):
        # the search returns the evaluation rows' classes and only the fit rows are
        # predicted after it: together they are the reported rule on every row
        n, m_out, k, seed = 300, 2, 3, 7
        features = rng.standard_normal((n, 4))
        labels = LabelMatrix(random_labels(rng, n, m_out, k), k)
        write_predictions(tmp_path / "labels.csv", labels)
        write_features(tmp_path / "features.csv", features)
        code = main(["postprocess", "--labels", str(tmp_path / "labels.csv"),
                     "--features", str(tmp_path / "features.csv"), "--metric", "micro_f1",
                     "--averaging", averaging, "--seed", str(seed),
                     "--preds", str(tmp_path / "final.csv"),
                     "--out", str(tmp_path / "report.json")])
        assert code == 0
        report = RunReport(**json.loads((tmp_path / "report.json").read_text()))
        fit_idx, _ = _split_indices(n, seed)
        model = fit_lr(features[fit_idx], LabelMatrix(labels.values[fit_idx], k))
        loss = LossTensor(np.array(report.loss["slices"]))
        expected = weighted_predict(loss, predict_proba(model, features)).values
        np.testing.assert_array_equal(read_labels(tmp_path / "final.csv").values, expected)

    def test_non_fractional_metric_rejected(self, tmp_path, rng, capsys):
        self._write_problem(tmp_path, rng)
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", "macro_f1",
            ]
        )
        assert code == 2
        assert "bisection unsupported" in capsys.readouterr().err

    def test_negative_denominator_refused(self, tmp_path, rng, capsys):
        # with a negative B entry no ratio bracket is valid, so the search refuses
        self._write_problem(tmp_path, rng, k=2)
        metric = {"kind": "fractional_linear", "A": [[1, 0], [0, 1]], "B": [[1, -0.5], [0.5, 1]]}
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", json.dumps(metric),
            ]
        )
        assert code == 3
        assert "B >= 0" in capsys.readouterr().err

    def _write_skewed_problem(self, tmp_path, seed, n=200, m=4, k=10):
        """Peaked softmax probabilities and labels drawn from them."""
        rng = np.random.default_rng([seed, 1])
        logits = 2.0 * rng.standard_normal((n, m, k))
        expd = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = expd / expd.sum(axis=-1, keepdims=True)
        draws = rng.random((n, m))[..., None]
        labels = np.minimum((draws >= np.cumsum(probs, axis=-1)).sum(axis=-1), k - 1) + 1
        write_predictions(tmp_path / "labels.csv", LabelMatrix(labels, k))
        write_probs(tmp_path / "probs.csv", ProbabilityField(probs))

    def _tuned_report(self, tmp_path, averaging):
        out = tmp_path / "report.json"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", "micro_f1",
                "--averaging", averaging,
                "--out", str(out),
            ]
        )
        assert code == 0
        return RunReport(**json.loads(out.read_text()))

    def test_micro_search_utility_is_the_reported_utility(self, tmp_path):
        # the search and the report score the same predictions on the same rows
        self._write_skewed_problem(tmp_path, seed=0)
        report = self._tuned_report(tmp_path, "micro")
        assert report.trace["final_utility"] == report.utilities["micro"]

    def test_macro_search_utilities_are_the_per_output_utilities(self, tmp_path):
        self._write_skewed_problem(tmp_path, seed=0)
        report = self._tuned_report(tmp_path, "macro")
        spec = MetricSpec.micro_f1(10)
        for trace, conf in zip(report.trace, report.confusion):
            assert trace["final_utility"] == eval_metric(spec, np.array(conf))

    def _refuses_row_mismatch(self, tmp_path, capsys, source, n_rows, metric="micro_f1"):
        labels_path = tmp_path / "labels.csv"
        write_predictions(labels_path, LabelMatrix(np.arange(40)[:, None] % 3 + 1, 3))
        rng = np.random.default_rng(3)
        if source == "features":
            path = tmp_path / "features.csv"
            write_features(path, rng.standard_normal((n_rows, 2)))
        else:
            path = tmp_path / "probs.csv"
            write_probs(path, ProbabilityField(random_prob_rows(rng, n_rows, 1, 3)))
        preds_path = tmp_path / "final.csv"
        code = main(
            [
                "postprocess",
                "--labels", str(labels_path),
                f"--{source}", str(path),
                "--metric", metric,
                "--iters", "5",
                "--preds", str(preds_path),
            ]
        )
        assert code == 2
        assert not preds_path.exists()
        err = capsys.readouterr().err
        assert f"{path} has {n_rows} rows but {labels_path} has 40" in err

    def test_fewer_feature_rows_than_labels_refused(self, tmp_path, capsys):
        self._refuses_row_mismatch(tmp_path, capsys, "features", 30)

    def test_eval_prediction_row_mismatch_refused(self, tmp_path, capsys):
        labels_path, preds_path = tmp_path / "labels.csv", tmp_path / "preds.csv"
        write_predictions(labels_path, LabelMatrix(np.array([[1], [2], [1]]), 2))
        write_predictions(preds_path, PredictionMatrix(np.array([[1], [2]]), 2))
        code = main(
            ["eval", "--labels", str(labels_path), "--preds", str(preds_path), "--metric", "micro_f1"]
        )
        assert code == 2
        assert f"{preds_path} has 2 rows but {labels_path} has 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, rows, lowest",
        [("labels", "1,2\n-2,3\n", -2), ("preds", "1,2\n0,3\n", 0), ("preds", "0,0\n0,0\n", 0)],
        ids=["labels", "preds", "all-zero"],
    )
    def test_eval_class_below_one_names_its_file(self, tmp_path, capsys, bad, rows, lowest):
        paths = {name: tmp_path / f"{name}.csv" for name in ("labels", "preds")}
        for name, path in paths.items():
            path.write_text("y1,y2\n" + (rows if name == bad else "1,2\n2,3\n"))
        code = main(
            ["eval", "--labels", str(paths["labels"]), "--preds", str(paths["preds"]),
             "--metric", "micro_f1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{paths[bad]}: classes must be at least 1, found {lowest}" in err

    def test_train_lr_feature_row_mismatch_refused(self, tmp_path, capsys):
        labels_path, features_path = tmp_path / "labels.csv", tmp_path / "features.csv"
        write_predictions(labels_path, LabelMatrix(np.array([[1], [2], [1]]), 2))
        write_features(features_path, np.array([[0.5, -1.0], [1.5, 0.25]]))
        out = tmp_path / "probs.csv"
        code = main(
            ["train-lr", "--features", str(features_path), "--labels", str(labels_path),
             "--iters", "5", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert f"{features_path} has 2 rows but {labels_path} has 3" in capsys.readouterr().err

    def test_more_feature_rows_than_labels_refused(self, tmp_path, capsys):
        self._refuses_row_mismatch(tmp_path, capsys, "features", 51)

    def test_one_feature_row_refused_before_the_fit(self, tmp_path, capsys, monkeypatch):
        write_predictions(tmp_path / "labels.csv", LabelMatrix(np.array([[2]]), 2))
        write_features(tmp_path / "features.csv", np.array([[0.5, -1.0]]))
        fits = []
        monkeypatch.setattr("metricopt.cli.fit_lr", lambda *args, **kwargs: fits.append(args))
        preds_path = tmp_path / "final.csv"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--features", str(tmp_path / "features.csv"),
                "--metric", "micro_f1",
                "--preds", str(preds_path),
            ]
        )
        assert code == 2
        assert fits == []
        assert not preds_path.exists()
        assert "N=1 leaves the evaluation split empty" in capsys.readouterr().err

    def test_probability_row_mismatch_refused_for_linear_metric(self, tmp_path, capsys):
        self._refuses_row_mismatch(tmp_path, capsys, "probs", 45, metric="ordinal")

    @pytest.mark.parametrize("command", ["eval", "postprocess", "oracle"])
    def test_output_count_mismatch_names_both_files(self, tmp_path, capsys, command):
        # the labels have two outputs, the other file one; both files and counts are named
        rng = np.random.default_rng(5)
        labels_path, path = tmp_path / "labels.csv", tmp_path / "other.csv"
        write_predictions(labels_path, LabelMatrix(random_labels(rng, 3, 2, 2), 2))
        out, preds_path = tmp_path / "report.json", tmp_path / "final.csv"
        argv = [command, "--labels", str(labels_path), "--metric", "micro_f1", "--out", str(out)]
        if command == "eval":
            write_predictions(path, PredictionMatrix(random_labels(rng, 3, 1, 2), 2))
            argv += ["--preds", str(path)]
        else:
            write_probs(path, ProbabilityField(random_prob_rows(rng, 3, 1, 2)))
            argv += ["--probs", str(path), "--preds", str(preds_path)]
        assert main(argv) == 2
        assert not out.exists()
        assert not preds_path.exists()
        assert f"{path} has 1 outputs but {labels_path} has 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sources, message",
        [(("probs", "features"), "not allowed with argument"), ((), "one of the arguments")],
        ids=["both", "neither"],
    )
    def test_probability_source_is_exactly_one_of_probs_and_features(
        self, tmp_path, rng, capsys, sources, message
    ):
        self._write_problem(tmp_path, rng)
        write_features(tmp_path / "features.csv", rng.standard_normal((40, 2)))
        preds_path = tmp_path / "final.csv"
        argv = ["postprocess", "--labels", str(tmp_path / "labels.csv"), "--metric", "micro_f1",
                "--preds", str(preds_path)]
        for source in sources:
            argv += [f"--{source}", str(tmp_path / f"{source}.csv")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not preds_path.exists()

    @pytest.mark.parametrize(
        "metric, k, exit_code, message",
        [
            ("macro_f1", 2, 2, "bisection unsupported for this metric: macro_f1"),
            ('{"kind": "micro_f1", "params": {"negative_clas": 1}}', 2, 2,
             "metric params.negative_clas is not a parameter of micro_f1"),
            ('{"kind": "fractional_linear", "A": [[1, 0], [0, 1]], "B": [[1, -0.5], [0.5, 1]]}',
             2, 3, "bisection needs B >= 0"),
            # a metric naming fewer classes than the labels hold; one naming more widens K
            (json.dumps({"kind": "fractional_linear", "A": np.eye(2).tolist(),
                         "B": np.ones((2, 2)).tolist()}),
             3, 2, "metric K=2 does not match K=3 of"),
            (json.dumps({"kind": "loss_based", "L": (1 - np.eye(2)).tolist()}),
             3, 2, "metric K=2 does not match K=3 of"),
        ],
        ids=["unsupported", "misspelt", "no-bracket", "ratio-K", "loss-K"],
    )
    def test_metric_refused_before_the_fit(
        self, tmp_path, rng, capsys, monkeypatch, metric, k, exit_code, message
    ):
        self._write_problem(tmp_path, rng, k=k)
        write_features(tmp_path / "features.csv", rng.standard_normal((40, 2)))

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_lr ran before the metric was checked")

        monkeypatch.setattr("metricopt.cli.fit_lr", no_fit)
        preds_path = tmp_path / "final.csv"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--features", str(tmp_path / "features.csv"),
                "--metric", metric,
                "--preds", str(preds_path),
            ]
        )
        assert code == exit_code
        assert message in capsys.readouterr().err
        assert not preds_path.exists()

    @pytest.mark.parametrize("metric", ["ordinal", "micro_f1"])
    def test_negative_iterations_refused(self, tmp_path, rng, capsys, metric):
        self._write_problem(tmp_path, rng)
        preds_path = tmp_path / "final.csv"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", metric,
                "--iters", "-3",
                "--preds", str(preds_path),
            ]
        )
        assert code == 2
        assert "iterations must be at least 1" in capsys.readouterr().err
        assert not preds_path.exists()


def _ratio_metric(rng, kind, k):
    """A document of the ratio-of-linear ``kind`` on K classes; a fractional_linear
    one has B > 0, so its bracket is valid and its ratio defined everywhere."""
    if kind == "fractional_linear":
        return {"kind": kind, "A": rng.normal(size=(k, k)).tolist(),
                "B": (rng.random((k, k)) + 0.1).tolist()}
    if kind == "loss_based":
        return {"kind": kind, "L": rng.random((k, k)).tolist()}
    if kind == "weighted_exp":
        return {"kind": kind, "params": {"gamma": float(rng.uniform(-2, 2))}}
    return {"kind": kind}


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    m_out=st.integers(1, 2),
    k=st.integers(2, 4),
    kind=st.sampled_from(["ordinal", "micro_f1", "weighted_exp", "fractional_linear",
                          "loss_based"]),
    averaging=st.sampled_from(["micro", "macro"]),
    iters=st.integers(1, 50),
)
# the closed-form ordinal rule scored 0.7667 here, below the argmax rule's 0.8
@example(seed=5, n=30, m_out=1, k=3, kind="ordinal", averaging="micro", iters=50)
def test_tuned_rule_never_below_the_argmax_rule(seed, n, m_out, k, kind, averaging, iters):
    rng = np.random.default_rng(seed)
    eta = rng.dirichlet(np.ones(k), size=(n, m_out))
    labels = (rng.random((n, m_out, 1)) >= eta.cumsum(-1)).sum(-1).clip(max=k - 1) + 1
    noisy = eta * np.exp(0.8 * rng.standard_normal(eta.shape))
    probs = ProbabilityField(noisy / noisy.sum(-1, keepdims=True))
    config = _ratio_metric(rng, kind, k)
    # micro-F1 is undefined on an output whose labels are all the negative class 1
    assume(kind != "micro_f1" or (labels != 1).any(axis=0).all())
    with tempfile.TemporaryDirectory() as tmp:
        write_predictions(f"{tmp}/labels.csv", LabelMatrix(labels, k))
        write_probs(f"{tmp}/probs.csv", probs)
        code = main(["postprocess", "--labels", f"{tmp}/labels.csv", "--probs", f"{tmp}/probs.csv",
                     "--metric", json.dumps(config), "--averaging", averaging,
                     "--iters", str(iters), "--out", f"{tmp}/report.json"])
        assert code == 0
        report = RunReport(**json.loads(Path(f"{tmp}/report.json").read_text()))
    assert report.trace is not None
    spec = metric_from_config(config, k)
    lower, upper = tuning_bracket(spec.ratio, k)
    slack = 2.0**-iters * (upper - lower)
    argmax_preds = weighted_predict(LossTensor(np.ones((k, k)) - np.eye(k)), probs)
    argmax_conf = sample_confusion(LabelMatrix(labels, k), argmax_preds)
    if averaging == "micro":
        assert report.utilities["micro"] >= micro_utility(spec, argmax_conf) - slack
    else:
        assert len(report.trace) == m_out
        for tuned, argmax in zip(report.confusion, argmax_conf.values):
            assert eval_metric(spec, np.array(tuned)) >= eval_metric(spec, argmax) - slack


class TestSynth:
    def test_degenerate_grid_gives_unit_ratio(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "synth",
                "--c1", "0",
                "--c2", "0",
                "--n", "200",
                "--seeds", "0",
                "--features-dim", "3",
                "--classes", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "c1,c2,seed,utility_baseline,utility_consistent,pr"
        assert lines[1].endswith(",1.0")

    def test_grid_cardinality_and_determinism(self, tmp_path):
        args = [
            "synth",
            "--c1", "0.1,0.3,0.5",
            "--c2", "0,0.5,1.0",
            "--n", "150",
            "--seeds", "0,1,2,3,4",
            "--features-dim", "3",
            "--classes", "3",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert len(first.read_text().strip().splitlines()) == 1 + 45
        assert first.read_bytes() == second.read_bytes()


class TestOracle:
    def test_single_sample_predicts_truth(self, tmp_path):
        write_predictions(tmp_path / "labels.csv", LabelMatrix(np.array([[2]]), 2))
        out = tmp_path / "report.json"
        code = main(
            [
                "oracle",
                "--labels", str(tmp_path / "labels.csv"),
                "--metric", "ordinal",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = RunReport(**json.loads(out.read_text()))
        assert report.utilities["micro"] == 1.0
        assert report.predictions == [[2]]

    def test_three_sample_micro_f1_matches_library(self, tmp_path):
        labels = LabelMatrix(np.array([[1], [2], [2]]), 2)
        write_predictions(tmp_path / "labels.csv", labels)
        out = tmp_path / "report.json"
        code = main(
            [
                "oracle",
                "--labels", str(tmp_path / "labels.csv"),
                "--metric", "micro_f1",
                "--out", str(out),
            ]
        )
        assert code == 0
        from metricopt.bisection import brute_force_oracle
        from metricopt.metrics import MetricSpec, eval_metric

        expected, _ = brute_force_oracle(labels, MetricSpec.micro_f1(2), "micro")
        report = RunReport(**json.loads(out.read_text()))
        assert report.utilities["micro"] == expected

    @pytest.mark.parametrize("averaging", ["micro", "macro", "instance"])
    def test_eval_of_the_written_predictions_reports_the_oracle_utility(
        self, tmp_path, averaging
    ):
        # six rows on which adding 1/N per sample, instead of dividing the counts
        # once, rounds the micro and macro utilities an ulp away from eval's
        labels = LabelMatrix(np.random.default_rng(4).integers(1, 3, size=(6, 1)), 2)
        write_predictions(tmp_path / "labels.csv", labels)
        common = ["--labels", str(tmp_path / "labels.csv"), "--metric", "ordinal",
                  "--averaging", averaging]
        preds, oracle_out, eval_out = (tmp_path / name for name in ("p.csv", "o.json", "e.json"))
        assert main(["oracle", *common, "--preds", str(preds), "--out", str(oracle_out)]) == 0
        assert main(["eval", *common, "--preds", str(preds), "--out", str(eval_out)]) == 0
        oracle = RunReport(**json.loads(oracle_out.read_text())).utilities[averaging]
        assert RunReport(**json.loads(eval_out.read_text())).utilities[averaging] == oracle

    def test_instance_with_probabilities_refused(self, tmp_path, rng, capsys):
        TestPostprocess()._write_problem(tmp_path, rng, n=2, m=1, k=2)
        preds = tmp_path / "oracle.csv"
        code = main(["oracle", "--labels", str(tmp_path / "labels.csv"),
                     "--probs", str(tmp_path / "probs.csv"), "--metric", "micro_f1",
                     "--averaging", "instance", "--preds", str(preds)])
        assert code == 2
        err = capsys.readouterr().err
        assert "instance averaging" in err and "--probs" in err
        assert not preds.exists()

    def test_wall_clock_covers_the_prediction_write(self, tmp_path, monkeypatch):
        import types

        import metricopt.cli as cli

        write_predictions(tmp_path / "labels.csv", LabelMatrix(np.array([[1], [2]]), 2))
        clock = [0.0]
        writer = cli.write_predictions

        def slow_write(path, preds):
            writer(path, preds)
            clock[0] += 100.0

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(cli, "write_predictions", slow_write)
        out = tmp_path / "report.json"
        code = main(["oracle", "--labels", str(tmp_path / "labels.csv"), "--metric", "ordinal",
                     "--preds", str(tmp_path / "oracle.csv"), "--out", str(out)])
        assert code == 0
        assert RunReport(**json.loads(out.read_text())).wall_clock_s == 100.0

    def test_oversized_guard_exit_code(self, tmp_path, capsys):
        write_predictions(tmp_path / "labels.csv", LabelMatrix(np.full((30, 1), 2), 3))
        code = main(
            [
                "oracle",
                "--labels", str(tmp_path / "labels.csv"),
                "--metric", "ordinal",
            ]
        )
        assert code == 3
        assert "instance too large" in capsys.readouterr().err


def _wide_metric(kind):
    """A 3-class document of ``kind`` and the document of its top-left 2 x 2 block.

    On data of classes 1-2 predicting class 3 never helps: it costs the largest
    loss, or adds to the denominator alone, so every optimum stays in the block.
    """
    if kind == "loss_based":
        wide = {"kind": kind, "L": [[0.0, 0.4, 1.0], [0.7, 0.0, 1.0], [0.2, 0.5, 0.0]]}
    else:
        wide = {"kind": kind, "A": [[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.3, 0.3, 0.3]],
                "B": [[1.0, 0.5, 5.0], [0.6, 1.0, 5.0], [1.0, 1.0, 1.0]]}
    block = {name: value if name == "kind" else [row[:2] for row in value[:2]]
             for name, value in wide.items()}
    return json.dumps(wide), json.dumps(block)


def _no_counting(monkeypatch):
    def counting(*args, **kwargs):
        raise AssertionError("counted before the class counts were checked")

    for target in ("confusion._joint_counts", "bisection._joint_counts", "bisection._per_sample"):
        monkeypatch.setattr(f"metricopt.{target}", counting)


class TestMetricClassCount:
    """K is the largest class in the files, or the metric's K where it names more
    classes: an absent class is a zero row and column."""

    def _utilities(self, tmp_path, argv, metric):
        out = tmp_path / "report.json"
        assert main([*argv, "--metric", metric, "--out", str(out)]) == 0
        return RunReport(**json.loads(out.read_text()))

    @pytest.mark.parametrize("kind", ["loss_based", "fractional_linear"])
    def test_eval_widens_to_the_metric(self, tmp_path, rng, kind):
        labels, preds = (tmp_path / "labels.csv", tmp_path / "preds.csv")
        write_predictions(labels, LabelMatrix(random_labels(rng, 20, 2, 2), 2))
        write_predictions(preds, PredictionMatrix(random_labels(rng, 20, 2, 2), 2))
        argv = ["eval", "--labels", str(labels), "--preds", str(preds)]
        wide, block = _wide_metric(kind)
        got = self._utilities(tmp_path, argv, wide)
        expected = self._utilities(tmp_path, argv, block)
        assert got.utilities == pytest.approx(expected.utilities, rel=1e-12, abs=1e-15)
        confusion = np.array(got.confusion)
        assert confusion.shape == (2, 3, 3)
        assert not confusion[:, 2, :].any() and not confusion[:, :, 2].any()
        np.testing.assert_array_equal(confusion[:, :2, :2], expected.confusion)

    @pytest.mark.parametrize("averaging", ["micro", "macro", "instance"])
    @pytest.mark.parametrize("kind", ["loss_based", "fractional_linear"])
    def test_oracle_widens_to_the_metric(self, tmp_path, rng, kind, averaging):
        labels = tmp_path / "labels.csv"
        write_predictions(labels, LabelMatrix(random_labels(rng, 5, 1, 2), 2))
        argv = ["oracle", "--labels", str(labels), "--averaging", averaging]
        wide, block = _wide_metric(kind)
        got = self._utilities(tmp_path, argv, wide)
        expected = self._utilities(tmp_path, argv, block)
        assert got.utilities[averaging] == pytest.approx(expected.utilities[averaging], rel=1e-12)

    def test_postprocess_features_widens_to_the_metric(self, tmp_path, rng):
        labels, features = tmp_path / "labels.csv", tmp_path / "features.csv"
        write_predictions(labels, LabelMatrix(random_labels(rng, 40, 2, 2), 2))
        write_features(features, rng.standard_normal((40, 3)))
        argv = ["postprocess", "--labels", str(labels), "--features", str(features)]
        report = self._utilities(tmp_path, argv, _wide_metric("loss_based")[0])
        assert report.loss["K"] == 3
        assert np.array(report.confusion).shape == (2, 3, 3)

    @pytest.mark.parametrize("holder", ["labels", "preds"])
    def test_eval_refuses_fewer_classes_naming_the_file(
        self, tmp_path, rng, capsys, monkeypatch, holder
    ):
        paths = {name: tmp_path / f"{name}.csv" for name in ("labels", "preds")}
        for name, path in paths.items():
            values = random_labels(rng, 20, 1, 2)
            values[0, 0] = 3 if name == holder else 2
            write_predictions(path, LabelMatrix(values, 3))
        _no_counting(monkeypatch)
        code = main(["eval", "--labels", str(paths["labels"]), "--preds", str(paths["preds"]),
                     "--metric", _wide_metric("loss_based")[1]])
        assert code == 2
        assert f"metric K=2 does not match K=3 of {paths[holder]}" in capsys.readouterr().err

    def test_oracle_refuses_fewer_classes_naming_the_labels(self, tmp_path, capsys, monkeypatch):
        labels = tmp_path / "labels.csv"
        write_predictions(labels, LabelMatrix(np.array([[1], [2], [3], [2]]), 3))
        _no_counting(monkeypatch)
        block = _wide_metric("fractional_linear")[1]
        assert main(["oracle", "--labels", str(labels), "--metric", block]) == 2
        assert f"metric K=2 does not match K=3 of {labels}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["oracle", "postprocess"])
    def test_probability_file_fixes_k(self, tmp_path, rng, capsys, monkeypatch, command):
        labels, probs = tmp_path / "labels.csv", tmp_path / "probs.csv"
        write_predictions(labels, LabelMatrix(np.array([[1], [2], [1], [2]]), 2))
        write_probs(probs, ProbabilityField(random_prob_rows(rng, 4, 1, 2)))
        _no_counting(monkeypatch)
        wide = _wide_metric("fractional_linear")[0]
        argv = [command, "--labels", str(labels), "--probs", str(probs), "--metric", wide]
        assert main(argv) == 2
        assert f"metric K=3 does not match K=2 of {probs}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["oracle", "postprocess"])
    def test_probability_file_below_the_labels_refused(
        self, tmp_path, rng, capsys, monkeypatch, command
    ):
        labels, probs = tmp_path / "labels.csv", tmp_path / "probs.csv"
        write_predictions(labels, LabelMatrix(np.array([[1], [3], [1], [2]]), 3))
        write_probs(probs, ProbabilityField(random_prob_rows(rng, 4, 1, 2)))
        _no_counting(monkeypatch)
        argv = [command, "--labels", str(labels), "--probs", str(probs), "--metric", "micro_f1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: probability file K=2 below labels K=3\n"


def _rule_outcome(class_files, k_metric, probs):
    """(K, None) for a run the class-count rule accepts, (None, message) for one it refuses.

    ``class_files`` lists (path, K) with the labels first and ``probs`` is (path, K) or None:
    a probability file fixes K and the metric must name it; otherwise K is the largest class
    seen or the metric's if larger, and a metric naming fewer classes is refused."""
    if probs is not None:
        (labels_path, k_labels), (probs_path, k_probs) = class_files[0], probs
        if k_probs < k_labels:
            return None, f"probability file K={k_probs} below labels K={k_labels}"
        if k_metric != k_probs:
            return None, f"metric K={k_metric} does not match K={k_probs} of {probs_path}"
        return k_probs, None
    holder, k_files = max(class_files, key=lambda pair: pair[1])  # the first of the largest K
    if k_metric < k_files:
        return None, f"metric K={k_metric} does not match K={k_files} of {holder}"
    return max(k_files, k_metric), None


@settings(max_examples=25, deadline=None)
@given(
    k_labels=st.integers(2, 4),
    k_preds=st.integers(2, 4),
    k_metric=st.integers(2, 5),
    k_probs=st.one_of(st.none(), st.integers(2, 4)),
    seed=st.integers(0, 2**16),
)
def test_one_class_count_rule_for_every_command(k_labels, k_preds, k_metric, k_probs, seed):
    """``eval``, ``oracle`` and ``postprocess --probs`` all run at the K of one rule, or exit 2
    with that rule's message naming the file that sets K."""
    import contextlib
    import io

    from metricopt.bisection import brute_force_oracle

    rng = np.random.default_rng(seed)
    n = 4
    loss = rng.uniform(0.1, 1.0, (k_metric, k_metric)) * (1 - np.eye(k_metric))
    metric = {"kind": "loss_based", "L": loss.tolist()}
    with tempfile.TemporaryDirectory() as work:
        paths = {name: os.path.join(work, f"{name}.csv") for name in ("labels", "preds", "probs")}
        for name, k in (("labels", k_labels), ("preds", k_preds)):
            values = random_labels(rng, n, 1, k)
            values[0, 0] = k  # the file names class K, so the command sees K classes
            write_predictions(paths[name], LabelMatrix(values, k))
        probs = None
        if k_probs is not None:
            write_probs(paths["probs"], ProbabilityField(random_prob_rows(rng, n, 1, k_probs)))
            probs = (paths["probs"], k_probs)
        labels = (paths["labels"], k_labels)
        runs = [("eval", ["--preds", paths["preds"]], [labels, (paths["preds"], k_preds)], None),
                ("oracle", [] if probs is None else ["--probs", paths["probs"]], [labels], probs)]
        if probs is not None:
            runs.append(("postprocess", ["--probs", paths["probs"], "--iters", "2"],
                         [labels], probs))
        for command, extra, class_files, probs_file in runs:
            out, err = os.path.join(work, f"{command}.json"), io.StringIO()
            argv = [command, "--labels", paths["labels"], *extra,
                    "--metric", json.dumps(metric), "--out", out]
            with contextlib.redirect_stderr(err):
                code = main(argv)
            k, message = _rule_outcome(class_files, k_metric, probs_file)
            if message is not None:
                assert (code, err.getvalue()) == (2, f"error: {message}\n"), command
                continue
            assert code == 0, (command, err.getvalue())
            report = RunReport(**json.loads(Path(out).read_text()))
            if command == "oracle":
                truth = (LabelMatrix(read_labels(paths["labels"]).values, k) if probs is None
                         else read_probs(paths["probs"]))
                expected, _ = brute_force_oracle(truth, metric_from_config(metric), "micro")
                assert report.utilities == {"micro": expected}
            else:
                assert np.array(report.confusion).shape == (1, k, k), command


class TestTrainLR:
    def test_emits_probability_file(self, tmp_path, rng, capsys):
        features = rng.standard_normal((40, 3))
        labels = LabelMatrix(random_labels(rng, 40, 2, 3), 3)
        write_features(tmp_path / "features.csv", features)
        write_predictions(tmp_path / "labels.csv", labels)
        out = tmp_path / "probs.csv"
        code = main(
            [
                "train-lr",
                "--features", str(tmp_path / "features.csv"),
                "--labels", str(tmp_path / "labels.csv"),
                "--iters", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        probs = read_probs(out)
        assert probs.values.shape == (40, 2, 3)
        # --out names the probability file, so the report goes to stdout
        assert RunReport(**json.loads(capsys.readouterr().out)).command[0] == "train-lr"

    def test_negative_iterations_refused(self, tmp_path, rng, capsys):
        write_features(tmp_path / "features.csv", rng.standard_normal((4, 2)))
        write_predictions(tmp_path / "labels.csv", LabelMatrix(np.array([[1], [2], [1], [2]]), 2))
        out = tmp_path / "probs.csv"
        code = main(
            [
                "train-lr",
                "--features", str(tmp_path / "features.csv"),
                "--labels", str(tmp_path / "labels.csv"),
                "--iters", "-3",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "iterations" in capsys.readouterr().err
        assert not out.exists()


def _recorded(argv):
    """Parsed arguments, less the output paths and the seed: the report keeps
    its seed in a field of its own."""
    args = vars(build_parser().parse_args(argv))
    for key in ("out", "preds", "seed"):
        args.pop(key, None)
    return args


class TestReportCommand:
    def test_command_parses_back_to_the_invocation(self, tmp_path, rng, capsys):
        n, m_out, k = 6, 2, 3
        labels = LabelMatrix(random_labels(rng, n, m_out, k), k)
        probs = ProbabilityField(random_prob_rows(rng, n, m_out, k))
        write_predictions(tmp_path / "labels.csv", labels)
        preds = PredictionMatrix(random_labels(rng, n, m_out, k), k)
        write_predictions(tmp_path / "preds.csv", preds)
        write_probs(tmp_path / "probs.csv", probs)
        write_features(tmp_path / "features.csv", rng.standard_normal((n, 2)))
        # the oracle enumerates K^(N*M) assignments, so it gets two rows
        write_predictions(tmp_path / "few_labels.csv", LabelMatrix(labels.values[:2], k))
        write_probs(tmp_path / "few_probs.csv", ProbabilityField(probs.values[:2]))
        path = {name: str(tmp_path / f"{name}.csv") for name in
                ("labels", "preds", "probs", "features", "few_labels", "few_probs")}
        report = tmp_path / "report.json"
        invocations = [
            ["eval", "--labels", path["labels"], "--preds", path["preds"],
             "--metric", "ordinal", "--averaging", "macro", "--seed", "4"],
            ["postprocess", "--labels", path["labels"], "--probs", path["probs"],
             "--metric", "micro_f1", "--averaging", "macro", "--iters", "5",
             "--preds", str(tmp_path / "tuned.csv")],
            ["postprocess", "--labels", path["labels"], "--features", path["features"],
             "--metric", "micro_f1", "--iters", "5", "--seed", "3"],
            ["oracle", "--labels", path["few_labels"], "--metric", "micro_f1",
             "--averaging", "instance"],
            ["oracle", "--labels", path["few_labels"], "--probs", path["few_probs"],
             "--metric", "ordinal"],
        ]
        for argv in invocations:
            assert main(argv + ["--out", str(report)]) == 0
            command = json.loads(report.read_text())["command"]
            assert _recorded(command) == _recorded(argv)

        argv = ["train-lr", "--features", path["features"], "--labels", path["labels"],
                "--iters", "5", "--out", str(tmp_path / "lr_probs.csv")]
        capsys.readouterr()
        assert main(argv) == 0
        command = json.loads(capsys.readouterr().out)["command"]
        assert _recorded(command) == _recorded(argv)


def _sha256(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestReportPinned:
    """The echoed command and the hashed configuration, spelled out per command."""

    @pytest.fixture
    def paths(self, tmp_path, rng, monkeypatch):
        monkeypatch.delenv("METRICOPT_SEED", raising=False)
        n, m_out, k = 6, 1, 2
        write_predictions(tmp_path / "labels.csv", LabelMatrix(random_labels(rng, n, m_out, k), k))
        write_predictions(tmp_path / "preds.csv", LabelMatrix(random_labels(rng, n, m_out, k), k))
        write_probs(tmp_path / "probs.csv", ProbabilityField(random_prob_rows(rng, n, m_out, k)))
        write_features(tmp_path / "features.csv", rng.standard_normal((n, 2)))
        write_predictions(tmp_path / "few.csv", LabelMatrix(np.array([[1], [2]]), 2))
        return {name: str(tmp_path / f"{name}.csv")
                for name in ("labels", "preds", "probs", "features", "few", "lr")}

    def _run(self, argv, tmp_path, capsys):
        if argv[0] == "train-lr":
            capsys.readouterr()
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
        return json.loads((tmp_path / "report.json").read_text())

    def test_eval(self, paths, tmp_path, capsys):
        report = self._run(["eval", "--labels", paths["labels"], "--preds", paths["preds"],
                            "--metric", "ordinal", "--seed", "4"], tmp_path, capsys)
        assert report["command"] == ["eval", "--labels", paths["labels"],
                                     "--preds", paths["preds"],
                                     "--metric", "ordinal", "--averaging", "micro"]
        assert report["config_hash"] == _sha256(
            {"metric": {"kind": "ordinal"}, "averaging": "micro", "seed": 4})

    def test_postprocess_probs(self, paths, tmp_path, capsys):
        metric = '{"kind": "micro_f1", "params": {"negative_class": 2}}'
        report = self._run(["postprocess", "--labels", paths["labels"], "--probs", paths["probs"],
                            "--metric", metric, "--averaging", "macro", "--iters", "5",
                            "--preds", str(tmp_path / "tuned.csv")], tmp_path, capsys)
        assert report["command"] == ["postprocess", "--labels", paths["labels"],
                                     "--probs", paths["probs"], "--metric", metric,
                                     "--averaging", "macro", "--iters", "5"]
        assert report["config_hash"] == _sha256(
            {"metric": {"kind": "micro_f1", "params": {"negative_class": 2}},
             "averaging": "macro", "iters": 5, "seed": 0})

    def test_postprocess_features(self, paths, tmp_path, capsys):
        report = self._run(["postprocess", "--labels", paths["labels"],
                            "--features", paths["features"], "--metric", "micro_f1",
                            "--seed", "3"], tmp_path, capsys)
        assert report["command"] == ["postprocess", "--labels", paths["labels"],
                                     "--features", paths["features"], "--metric", "micro_f1",
                                     "--averaging", "micro", "--iters", "50"]
        assert report["config_hash"] == _sha256(
            {"metric": {"kind": "micro_f1"}, "averaging": "micro", "iters": 50, "seed": 3})

    def test_oracle(self, paths, tmp_path, capsys):
        report = self._run(["oracle", "--labels", paths["few"], "--metric", "micro_f1",
                            "--averaging", "instance", "--seed", "8"], tmp_path, capsys)
        assert report["command"] == ["oracle", "--labels", paths["few"], "--metric", "micro_f1",
                                     "--averaging", "instance"]
        assert report["config_hash"] == _sha256(
            {"metric": {"kind": "micro_f1"}, "averaging": "instance", "seed": 8})

    def test_train_lr(self, paths, tmp_path, capsys):
        report = self._run(["train-lr", "--labels", paths["labels"],
                            "--features", paths["features"], "--iters", "7",
                            "--out", paths["lr"]], tmp_path, capsys)
        assert report["command"] == ["train-lr", "--features", paths["features"],
                                     "--labels", paths["labels"], "--iters", "7",
                                     "--out", paths["lr"]]
        assert report["config_hash"] == _sha256({"iters": 7, "seed": 0})

    @pytest.mark.parametrize("command", ["eval", "postprocess", "oracle", "train-lr"])
    def test_json_text_is_the_asdict_text(self, paths, monkeypatch, command):
        import dataclasses

        import metricopt.cli as cli

        argv = {
            "eval": ["eval", "--labels", paths["labels"], "--preds", paths["preds"],
                     "--metric", "ordinal"],
            "postprocess": ["postprocess", "--labels", paths["labels"], "--probs", paths["probs"],
                            "--metric", "micro_f1", "--averaging", "macro", "--iters", "5"],
            "oracle": ["oracle", "--labels", paths["few"], "--metric", "micro_f1"],
            "train-lr": ["train-lr", "--features", paths["features"], "--labels", paths["labels"],
                         "--iters", "5", "--out", paths["lr"]],
        }[command]
        emitted = []
        monkeypatch.setattr(cli, "_emit", lambda report, out: emitted.append(report))
        assert main(argv) == 0
        (report,) = emitted
        assert report.to_json() == json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2)


class TestConsoleEntry:
    """``python -m metricopt.cli`` exits through ``console_entry`` with main's code."""

    @pytest.mark.parametrize(
        "case, code", [("ok", 0), ("missing", 2), ("guard", 3)], ids=["exit-0", "exit-2", "exit-3"]
    )
    def test_exit_codes(self, tmp_path, case, code):
        # all mass on micro-F1's negative class makes its denominator vanish
        labels = [[2], [2]] if case == "guard" else [[1], [2]]
        write_predictions(tmp_path / "labels.csv", LabelMatrix(np.array(labels), 2))
        write_predictions(tmp_path / "preds.csv", PredictionMatrix(np.array(labels), 2))
        preds = tmp_path / ("nope.csv" if case == "missing" else "preds.csv")
        metric = json.dumps({"kind": "micro_f1", "params": {"negative_class": 2}})
        argv = ["eval", "--labels", str(tmp_path / "labels.csv"), "--preds", str(preds),
                "--metric", metric]
        src = str(Path(metricopt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-m", "metricopt.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == code, result.stderr
        if code == 0:
            assert json.loads(result.stdout)["utilities"]["micro"] == 1.0
        else:
            assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


class TestSeedHandling:
    def test_env_var_provides_default_seed(self, tmp_path, rng, monkeypatch):
        labels = LabelMatrix(random_labels(rng, 20, 1, 2), 2)
        probs = ProbabilityField(random_prob_rows(rng, 20, 1, 2))
        write_predictions(tmp_path / "labels.csv", labels)
        write_probs(tmp_path / "probs.csv", probs)
        monkeypatch.setenv("METRICOPT_SEED", "123")
        out = tmp_path / "report.json"
        code = main(
            [
                "postprocess",
                "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"),
                "--metric", "micro_f1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert RunReport(**json.loads(out.read_text())).seed == 123

    def test_report_json_round_trip(self, tmp_path, rng):
        labels = LabelMatrix(random_labels(rng, 10, 1, 2), 2)
        preds = PredictionMatrix(random_labels(rng, 10, 1, 2), 2)
        write_predictions(tmp_path / "labels.csv", labels)
        write_predictions(tmp_path / "preds.csv", preds)
        out = tmp_path / "report.json"
        main(
            [
                "eval",
                "--labels", str(tmp_path / "labels.csv"),
                "--preds", str(tmp_path / "preds.csv"),
                "--metric", "ordinal",
                "--out", str(out),
            ]
        )
        report = RunReport(**json.loads(out.read_text()))
        again = RunReport(**json.loads(report.to_json()))
        assert again == report


class TestWorkDoneOnce:
    """Each command builds the sample confusion, and parses its metric, once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import metricopt.cli as cli

        calls = {"sample_confusion": 0, "_load_metric_config": 0}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        for name in calls:
            counted(name)
        return calls

    def test_eval(self, perfect_fixture, tmp_path, counts):
        labels_path, preds_path = perfect_fixture
        argv = ["eval", "--labels", str(labels_path), "--preds", str(preds_path),
                "--metric", "micro_f1", "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert counts == {"sample_confusion": 1, "_load_metric_config": 1}

    @pytest.mark.parametrize("averaging", ["micro", "macro"])
    def test_postprocess(self, tmp_path, rng, counts, averaging):
        TestPostprocess()._write_problem(tmp_path, rng)
        argv = ["postprocess", "--labels", str(tmp_path / "labels.csv"),
                "--probs", str(tmp_path / "probs.csv"), "--metric", "micro_f1",
                "--averaging", averaging, "--iters", "5", "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        # the search builds its own confusions through the bisection module
        assert counts == {"sample_confusion": 1, "_load_metric_config": 1}

    def test_eval_rewraps_the_files_without_copying(self, tmp_path, monkeypatch):
        import metricopt.cli as cli

        write_predictions(tmp_path / "labels.csv", LabelMatrix(np.array([[1], [2]]), 2))
        write_predictions(tmp_path / "preds.csv", LabelMatrix(np.array([[3], [1]]), 3))
        read, paired = [], []
        original = cli.sample_confusion

        def reading(path):
            read.append(read_labels(path))
            return read[-1]

        def pairing(labels, preds):
            paired.extend([labels, preds])
            return original(labels, preds)

        monkeypatch.setattr(cli, "read_labels", reading)
        monkeypatch.setattr(cli, "sample_confusion", pairing)
        argv = ["eval", "--labels", str(tmp_path / "labels.csv"),
                "--preds", str(tmp_path / "preds.csv"), "--metric", "micro_f1",
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert [m.n_classes for m in read] == [2, 3]
        assert [m.n_classes for m in paired] == [3, 3]
        for before, after in zip(read, paired):
            assert np.shares_memory(before.values, after.values)
