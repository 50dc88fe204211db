import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _workflow_steps() -> list[dict]:
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


def test_tier1_workflow_loads_and_names_existing_scripts():
    """The CI workflow parses, each step is a ``run`` or a ``uses``, and every
    ``perfbench/*.py`` and ``tools/*.py`` script a step runs exists.

    PyYAML is one of the ``[test]`` extras, so CI runs this test; it skips
    only where the extras are not installed.
    """
    steps = _workflow_steps()
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


def test_workflow_flags_are_ones_each_script_accepts():
    """Every ``perfbench/*.py`` and ``tools/*.py`` command a step runs answers
    ``--help`` with exit 0, and every ``--flag`` the step passes it is in that help.

    A flag a script dropped, while a step still passes it, fails here rather than
    on a runner.
    """
    # a script and its arguments, up to the end of its command
    commands = {
        (script, tuple(re.findall(r"(?<!\S)--[\w-]+", arguments)))
        for step in _workflow_steps()
        for script, arguments in re.findall(
            r"\b((?:perfbench|tools)/[\w/]+\.py)([^|>;&\n]*)", step.get("run", "")
        )
    }
    assert commands
    env = {**os.environ, "PYTHONPATH": "src"}
    for script, flags in sorted(commands):
        done = subprocess.run(
            [sys.executable, script, "--help"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, (script, done.stderr)
        missing = [f for f in flags if not re.search(rf"(?<![\w-]){f}(?![\w-])", done.stdout)]
        assert missing == [], (script, missing)


def test_tier1_step_puts_the_criterion_lines_in_the_summary():
    """The tier-1 step keeps pytest's exit status through ``tee`` and greps the
    acceptance suite's lines, as ``criterion`` and criterion 7 print them, and
    pytest's totals line into the step summary."""
    (step,) = [step for step in _workflow_steps() if step.get("name") == "Tier-1 tests"]
    assert step["shell"] == "bash"
    run = step["run"]
    assert "-rP" in run and "| tee" in run and '>> "$GITHUB_STEP_SUMMARY"' in run
    (pattern,) = re.findall(r"grep -E '([^']+)'", run)
    printed = [
        "[criterion 7] PASS - median regret (8.2s)",
        "        regret medians: 5.43e-04",
        "466 passed in 28.61s",
        "1 failed, 465 passed, 2 warnings in 30.12s",
        "==================== 466 passed in 28.61s ====================",
    ]
    assert all(re.search(pattern, line) for line in printed)
    assert not re.search(pattern, "[criterion] PASS")
    assert not re.search(pattern, "8.75s call     tests/test_acceptance.py::test_criterion_7")
