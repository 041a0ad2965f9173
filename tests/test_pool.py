"""The worker pool behind ``driver.run_experiment``: errors, dead workers,
process lifetime and start-up from a script read on standard input."""

import json
import operator
import os
import re
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from rgdlab import cli, driver, pool, taskgen, tinylm
from rgdlab.errors import ConfigError

SRC = Path(__file__).resolve().parent.parent / "src"


def _gone(pids, timeout=10.0) -> bool:
    """Whether none of ``pids`` is a live or unreaped process any more."""
    deadline = time.monotonic() + timeout
    while any(os.path.exists(f"/proc/{pid}") for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _worker_pids():
    return [worker.proc.pid for worker in pool._pool.workers]


def test_pool_is_kept_between_calls_and_restarted_for_a_new_size():
    sums = []
    pool.run(2, [(operator.add, (1, 2), sums.append), (operator.add, (3, 4), sums.append)])
    first = _worker_pids()
    pool.run(2, [(operator.add, (5, 6), sums.append)])
    assert _worker_pids() == first
    pool.run(1, [(operator.add, (7, 8), sums.append)])
    assert len(_worker_pids()) == 1 and _gone(first)
    assert sorted(sums) == [3, 7, 11, 15]


def test_default_worker_count_is_the_usable_cpus():
    plan = driver.ExperimentPlan(run_seeds=(1,))
    assert plan.threads == len(os.sched_getaffinity(0))


def test_unit_error_keeps_its_type_and_message():
    suite = taskgen.make_suite(2, 4, 3, seed=3, probe_per_task=2)
    vocab = tinylm.Vocab.build(taskgen.suite_tokens(suite))
    model = tinylm.init_model(vocab, 28, 12, 16, seed=0)
    task = suite.specs[0].task_id
    with pytest.raises(ConfigError) as err:
        pool.run(2, [(driver.probe_tap, (model, suite.eval[task], suite.train[task]), print)])
    assert str(err.value) == "demo pool is empty after removing same-task examples"
    assert pool._pool is None                   # discarded; the next call starts afresh
    sums = []
    pool.run(2, [(operator.add, (1, 1), sums.append)])
    assert sums == [2]


def test_failure_stops_a_worker_mid_write_without_leaving_its_temporary_file(tmp_path):
    target = tmp_path / "checkpoint.json"
    writing = f"""
import time
from rgdlab import artifacts
with artifacts.atomic_write({str(target)!r}) as fh:
    fh.write("partial")
    time.sleep(60)
"""
    failing = f"""
import glob, time
while not glob.glob({str(target)!r} + ".*.tmp"):
    time.sleep(0.01)
raise ValueError("another unit failed")
"""
    start = time.monotonic()
    with pytest.raises(ValueError, match="another unit failed"):
        pool.run(2, [(exec, (writing,), print), (exec, (failing,), print)])
    assert time.monotonic() - start < 30        # stopped, not waited for
    assert list(tmp_path.iterdir()) == []


# Runs ``rgdlab run-seq`` with the arguments given, and kills the worker
# that receives the first (seed, order) group right after sending it.  It
# prints every worker's pid first.
KILLING_CLI = """
import os, signal, sys
from rgdlab import cli, pool

send = pool._Worker.send

def killing_send(worker, message):
    send(worker, message)
    if message[0].__name__ == "_run_group":
        print(*(w.proc.pid for w in pool._pool.workers), flush=True)
        os.kill(worker.proc.pid, signal.SIGKILL)
        pool._Worker.send = send

pool._Worker.send = killing_send
sys.exit(cli.main(sys.argv[1:]))
"""


def test_killed_worker_gives_one_error_line(tmp_path):
    config = {
        "suite": {"num_tasks": 3, "train_per_task": 30, "eval_per_task": 6,
                  "probe_per_task": 4, "seed": 5},
        "train": {"learning_rate": 0.15, "epochs": 2, "batch_size": 16},
        "warmup": {"learning_rate": 0.25, "epochs": 2, "batch_size": 32},
        "warmup_examples": 100, "strategies": ["none", "equal"], "run_seeds": [3, 4],
        "orders": [0, 1], "threads": 2, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-c", KILLING_CLI, "run-seq", "--config", str(cfg_path)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 1, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and re.fullmatch(
        r"error: pool worker [01] \(pid \d+\) exited with code -9", err[0]), err
    assert _gone(pids)


def test_run_experiment_from_a_stdin_script():
    script = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from rgdlab import driver, pool, taskgen
suite = taskgen.make_suite(2, 12, 4, seed=3, probe_per_task=4)
plan = driver.ExperimentPlan(strategies=("none", "equal"), run_seeds=(1,), orders=(0,),
                             warmup_examples=40, replay=driver.ReplaySettings(budget=4),
                             run_probes=True, k_grid=(0.0, 1.0), threads=2)
result = driver.run_experiment(suite, plan)
print(len(result.runs), len(result.probes), *(w.proc.pid for w in pool._pool.workers))
"""
    proc = subprocess.run([sys.executable, "-"], input=script, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs, probes, *pids = map(int, proc.stdout.split())
    assert (runs, probes, len(pids)) == (2, 1, 2)
    assert _gone(pids)                          # stopped when the script ended


def test_workers_exit_when_their_parent_is_killed():
    """A parent killed with SIGKILL runs no ``atexit``: its workers end at the
    end of their input."""
    script = f"""
import os, signal, sys
sys.path.insert(0, {str(SRC)!r})
from rgdlab import pool
pool.start(2)
print(*(worker.proc.pid for worker in pool._pool.workers), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2 and _gone(pids)


def test_workers_are_capped_at_the_units_the_grid_can_run_at_once(tmp_path, monkeypatch):
    """``threads`` 10**6 starts S·(O+2) + S·O·TOP_FORGOTTEN workers (here
    1·4 + 1·2·3), once for ``run-seq``'s early start and its grid, and
    ``config.json`` keeps the value given.  The pool is a fake that starts no
    process: it runs every unit here, one at a time."""
    sizes = []

    class InlinePool:
        def __init__(self, size):
            sizes.append(size)
            assert size <= 10, f"asked for {size} workers"
            self.workers = [None] * size

        def run(self, units):
            queue = list(units)
            while queue:
                fn, args, then = queue.pop(0)
                values = fn(*args)
                for value in values if isinstance(values, types.GeneratorType) else (values,):
                    queue[:0] = then(value) or ()

        def stop(self):
            pass

    monkeypatch.setattr(pool, "_Pool", InlinePool)
    monkeypatch.setattr(pool, "_pool", None)
    config = {
        "suite": {"num_tasks": 2, "train_per_task": 12, "eval_per_task": 4,
                  "probe_per_task": 4, "seed": 3},
        "warmup_examples": 40, "strategies": ["none", "equal"], "run_seeds": [1],
        "orders": [0, 1], "run_probes": True, "threads": 10**6,
        "k_grid": [0.0, 1.0],
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["run-seq", "--config", str(cfg_path)]) == 0
    assert sizes == [10]
    snapshot = json.loads((tmp_path / "out" / "config.json").read_text())
    assert snapshot["given"]["threads"] == snapshot["resolved"]["threads"] == 10**6
