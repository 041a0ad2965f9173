"""Shared acceptance harnesses.

The simulation criteria all consume one of two experiment grids, each built
once per session:

* ``harness5`` — the forgetting/mitigation/probing grid: a 5-task suite,
  no-replay and equal-allocation runs over 5 run seeds and both canonical
  orders, with partial-rationale and task-agnostic-prefix probes on the
  most-forgotten tasks of every no-replay run, plus multi-task baselines.
* ``harness8`` — the allocation comparison grid: an 8-task suite (family
  variants repeat, so replay needs differ across tasks) with paired
  equal-allocation and difficulty-proportional runs under a fixed replay
  budget.
"""

import time
from dataclasses import dataclass

import pytest

from rgdlab import clmetrics, driver, taskgen

SUITE_SEED = 11
RUN_SEEDS = (101, 102, 103, 104, 105)
RUN_SEEDS_8 = (101, 102, 103, 104, 105, 106, 107, 108)
TRAIN5 = driver.TrainSettings(learning_rate=0.15, epochs=6, batch_size=16)
TRAIN8 = driver.TrainSettings(learning_rate=0.15, epochs=10, batch_size=16)
WARMUP = driver.TrainSettings(learning_rate=0.25, epochs=25, batch_size=32)
WARMUP_EXAMPLES = 2000
DIMS = driver.ModelDims(context_len=28, embed_dim=12, hidden_dim=128)
REPLAY_FRACTION = 0.1      # harness5: budget grows with the cumulative corpus
REPLAY_BUDGET_8 = 24       # harness8: fixed budget, scarce enough to need triage
EVAL_PER_TASK_8 = 100      # harness8: halves the eval noise on paired diffs


@dataclass
class Harness:
    suite: taskgen.Suite
    runs: dict                      # (strategy, seed, order) -> RunRecord
    elapsed: float = 0.0
    result: driver.ExperimentResult | None = None   # harness5 only


def _config(strategy, seed, order, train=None, **kw):
    return driver.RunConfig(strategy=strategy, run_seed=seed, order_index=order,
                            dims=DIMS, train=train or TRAIN5, warmup=WARMUP,
                            warmup_examples=WARMUP_EXAMPLES, **kw)


@pytest.fixture(scope="session")
def harness5():
    start = time.time()
    suite = taskgen.make_suite(5, 200, 50, seed=SUITE_SEED)
    plan = driver.ExperimentPlan(
        strategies=("none", "equal"), run_seeds=RUN_SEEDS, order_indices=(0, 1),
        dims=DIMS, train=TRAIN5, warmup=WARMUP, warmup_examples=WARMUP_EXAMPLES,
        replay_fraction=REPLAY_FRACTION, run_probes=True, keep_checkpoints=False)
    result = driver.run_experiment(suite, plan)
    runs = {(r.strategy, r.run_seed, r.order_index): r for r in result.runs}
    return Harness(suite=suite, runs=runs, elapsed=time.time() - start, result=result)


@pytest.fixture(scope="session")
def harness8():
    start = time.time()
    suite = taskgen.make_suite(8, 200, EVAL_PER_TASK_8, seed=SUITE_SEED)
    base = driver.build_base_model(suite, _config("none", RUN_SEEDS_8[0], 0, train=TRAIN8))
    runs = {}
    for seed in RUN_SEEDS_8:
        singles = driver.run_single_baselines(
            suite, _config("none", seed, 0, train=TRAIN8), base_model=base)
        for order in (0, 1):
            stages = {}             # the two strategies share stages while their plans agree
            for strategy in ("equal", "rgd-mean"):
                cfg = _config(strategy, seed, order, train=TRAIN8,
                              replay_budget=REPLAY_BUDGET_8)
                result = driver.run_sequence(suite, cfg, a0=singles, base_model=base,
                                             keep_checkpoints=False, stages=stages)
                runs[(strategy, seed, order)] = driver.RunRecord(
                    strategy=strategy, run_seed=seed, order_index=order,
                    result=result, report=clmetrics.compute_report(result.matrix))
    return Harness(suite=suite, runs=runs, elapsed=time.time() - start)
