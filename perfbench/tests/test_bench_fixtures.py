import hashlib
import json
from pathlib import Path

import pytest

from perfbench.tests.conftest import small_workloads
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS


def _digests(wl, seed, directory: Path) -> dict:
    directory.mkdir()
    files = wl.write(wl.generate(wl.rng(seed)), directory)
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in files.items()}


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda wl: wl.name)
def test_inputs_are_bit_reproducible_from_the_seed(wl, tmp_path):
    first = _digests(wl, 7, tmp_path / "a")
    assert _digests(wl, 7, tmp_path / "b") == first
    assert _digests(wl, 8, tmp_path / "c") != first


def test_benchmark_json_matches_the_declared_workloads_and_metrics():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
