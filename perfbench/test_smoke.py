"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced for a moment; every metric that
BENCHMARK.json names must come out with its unit, and no operation may fail.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_workload_emits_every_metric(workload, trace, section):
    result = bench.run(workload, seed=3, seconds=0.1, trace=trace, smoke=True,
                       log=lambda line: None)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
