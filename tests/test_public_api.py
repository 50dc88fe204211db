"""The package's star-export list names exactly its public attributes, and
the README's library quick start runs against them."""

import re
import types
from pathlib import Path

import metricopt


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from metricopt import *", namespace)
    assert set(metricopt.__all__) <= namespace.keys()


def test_all_lists_every_public_non_module_attribute():
    public = {
        name
        for name, value in vars(metricopt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(metricopt.__all__) == public
    assert len(metricopt.__all__) == len(set(metricopt.__all__))


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 <= float(printed[0]) <= 1.0
