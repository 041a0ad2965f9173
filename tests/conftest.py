"""Shared acceptance harnesses.

The simulation criteria all consume one of two experiment grids, each run
once per session from its config in ``configs/`` by the same executor as
``rgdlab run-seq --config configs/<name>.json``:

* ``harness5`` — the forgetting/mitigation/probing grid: a 5-task suite,
  no-replay and equal-allocation runs over 5 run seeds and both canonical
  orders, with partial-rationale and task-agnostic-prefix probes on the
  most-forgotten tasks of every no-replay run, plus multi-task baselines.
* ``harness8`` — the allocation comparison grid: an 8-task suite (family
  variants repeat, so replay needs differ across tasks) with paired
  equal-allocation and difficulty-proportional runs under a fixed replay
  budget scarce enough to need triage, and 100 eval examples per task to
  halve the eval noise on paired differences.
"""

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from rgdlab import driver, fileio

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@dataclass
class Harness:
    result: driver.ExperimentResult
    runs: dict                      # (strategy, seed, order) -> RunRecord
    elapsed: float                  # suite generation through the last run


def _run_grid(name: str) -> Harness:
    start = time.time()
    cfg = fileio.load_experiment_config(CONFIGS / f"{name}.json")
    result = driver.run_experiment(cfg.make_suite(), cfg.plan)
    runs = {(r.strategy, r.run_seed, r.order_index): r for r in result.runs}
    return Harness(result=result, runs=runs, elapsed=time.time() - start)


@pytest.fixture(scope="session")
def harness5():
    return _run_grid("harness5")


@pytest.fixture(scope="session")
def harness8():
    return _run_grid("harness8")
