import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TRACE = {"lowers": [0.0, 0.5], "final_utility": 0.5}


def _differences(parent_out: Path, change_out: Path) -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools/compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.differences(parent_out, change_out)


@pytest.mark.parametrize(
    "change, expected",
    [
        (  # one added trace key and one changed list entry
            {"trace": [TRACE, {**TRACE, "lowers": [0.0, 0.375], "bracket_holds": True}]},
            ["report.json trace[1].bracket_holds added", "report.json trace[1].lowers[1] differs"],
        ),
        (  # a removed key, a removed list entry and an added top-level key
            {"trace": [TRACE, {"lowers": [0.0]}], "new": None},
            [
                "report.json new added",
                "report.json trace[1].final_utility removed",
                "report.json trace[1].lowers[1] removed",
            ],
        ),
    ],
)
def test_report_differences_name_each_nested_path(tmp_path, change, expected):
    """Reports are compared down to each nested entry, without ``wall_clock_s``,
    and CSV files byte for byte."""
    reports = {
        "parent": {"seed": 0, "trace": [TRACE, TRACE], "wall_clock_s": 1.0},
        "change": {"seed": 0, **change, "wall_clock_s": 2.0},
    }
    for side, report in reports.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "report.json").write_text(json.dumps(report))
        (tmp_path / side / "preds.csv").write_text("1,2\n")
        (tmp_path / side / "probs.csv").write_text(f"{side}\n")
    found = _differences(tmp_path / "parent", tmp_path / "change")
    assert found == ["probs.csv differs", *expected]
