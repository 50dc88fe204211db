import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tier1_workflow_loads_and_names_existing_scripts():
    """The CI workflow parses, each step is a ``run`` or a ``uses``, and every
    ``perfbench/*.py`` and ``tools/*.py`` script a step runs exists.

    PyYAML is one of the ``[test]`` extras, so CI runs this test; it skips
    only where the extras are not installed.
    """
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert ("run" in step) != ("uses" in step), step
    scripts = {
        path
        for step in steps
        for path in re.findall(r"\b(?:perfbench|tools)/[\w/]+\.py\b", step.get("run", ""))
    }
    assert scripts
    assert [path for path in sorted(scripts) if not (ROOT / path).is_file()] == []
