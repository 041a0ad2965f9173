"""rgdlab benchmark: two workloads, end-to-end metrics and a traced layer table.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` of the same checkout and driven only
through its public functions and the ``rgdlab`` CLI entry point.  Every
input is generated from ``--seed``.  Each workload is set up several times
(``setup_s`` is the median), then run in a closed loop, one iteration after
the other, for about ``--seconds`` seconds; every iteration's outputs are
checked.  With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the result holds the per-layer metrics.  Human-readable lines
come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ITERATIONS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run: name -> unit.  Counts must repeat
# exactly between iterations and between runs with the same seed.
PER_LAYER = {
    "tinylm.train.calls": "count",
    "tinylm.train.busy_s": "s",
    "tinylm.train.steps": "count",
    "tinylm.train.tokens": "count",
    "tinylm.train.step_ms": "ms",
    "tinylm.train.gflop_computed": "GFLOP",
    "tinylm.train.gflops": "GFLOP/s",
    "tinylm.sequence_nll.calls": "count",
    "tinylm.sequence_nll.busy_s": "s",
    "tinylm.sequence_nll.tokens": "count",
    "tinylm.sequence_nll.us_per_call": "us",
    "tinylm.generate_batch.calls": "count",
    "tinylm.generate_batch.busy_s": "s",
    "tinylm.generate_batch.prompts": "count",
    "tinylm.generate_batch.tokens_out": "count",
    "tinylm.save_model.busy_s": "s",
    "tinylm.save_model.bytes": "B",
    "tinylm.load_model.busy_s": "s",
    "tinylm.load_model.bytes": "B",
    "rgd.rgd_from_model.calls": "count",
    "rgd.rgd_from_model.busy_s": "s",
    "rgd.rgd_from_model.self_s": "s",
    "rgd.task_rgd.busy_s": "s",
    "driver.score_task_rgd.calls": "count",
    "driver.score_task_rgd.examples": "count",
    "driver.score_task_rgd.busy_s": "s",
    "driver.score_task_rgd.self_s": "s",
    "replay.instruction_distance.calls": "count",
    "replay.instruction_distance.busy_s": "s",
    "replay.sample_replay.calls": "count",
    "replay.sample_replay.busy_s": "s",
    "replay.sample_replay.samples": "count",
    "replay.plan.busy_s": "s",
    "driver.run_experiment.busy_s": "s",
    "driver.run_experiment.cell_concurrency": "ratio",
    **{f"driver.{fn}.{q}": "s"
       for fn in ("build_base_model", "run_single_baselines", "run_multitask",
                  "run_sequence", "evaluate_accuracy", "probe_partial_rationale",
                  "probe_tap")
       for q in ("busy_s", "self_s")},
    "taskgen.make_suite.busy_s": "s",
    "taskgen.make_warmup_corpus.busy_s": "s",
    "taskgen.prompts.busy_s": "s",
    "clmetrics.answer_accuracy.calls": "count",
    "clmetrics.answer_accuracy.busy_s": "s",
    "clmetrics.compute_report.busy_s": "s",
    "cli.artifacts.self_s": "s",
    "fileio.files_written": "count",
    "fileio.bytes_written": "B",
    **{f"{m}.self_s": "s"
       for m in ("tinylm", "taskgen", "rgd", "replay", "clmetrics", "driver", "cli", "bench")},
    "process.cpu_s": "s",
    "bench.trace_overhead_s": "s",
}
EXACT_UNITS = ("count", "B", "GFLOP")


def _seeds(seed: int, n: int) -> list[int]:
    """Independent input seeds derived from the workload seed."""
    import numpy as np
    return [int(s) for s in np.random.SeedSequence([seed, 0x5EED]).generate_state(n)]


def _model_digest(model) -> str:
    h = hashlib.sha256(repr((model.vocab.tokens, model.context_len, model.embed_dim,
                             model.hidden_dim, model.rng_seed)).encode())
    for _, p in model.params():
        h.update(p.tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ workloads

class Warmup:
    """``driver.build_base_model`` at the default dims: the training hot path."""

    FULL = {"tasks": 5, "train": 200, "eval": 50, "probe": 32, "examples": 2000, "epochs": 10}
    SMOKE = {"tasks": 2, "train": 8, "eval": 4, "probe": 4, "examples": 60, "epochs": 3}
    setup_repeats = 9

    def __init__(self, pkg, seed, work_dir: Path, smoke: bool):
        self.pkg = pkg
        self.size = self.SMOKE if smoke else self.FULL
        self.suite_seed, self.run_seed = _seeds(seed, 2)
        self.work_dir = work_dir
        self.captured = None
        self.first_digest = None

    @contextlib.contextmanager
    def installed(self):
        """Keep the loss trace and corpus of each ``tinylm.train`` call for the checks."""
        tinylm = self.pkg.tinylm
        original = tinylm.train

        def train(model, corpus, cfg):
            out, trace = original(model, corpus, cfg)
            self.captured = (corpus, cfg, trace)
            return out, trace

        tinylm.train = train
        try:
            yield
        finally:
            tinylm.train = original

    def setup(self):
        d, s = self.pkg.driver, self.size
        self.suite = self.pkg.taskgen.make_suite(
            s["tasks"], s["train"], s["eval"], seed=self.suite_seed, probe_per_task=s["probe"])
        self.cfg = d.RunConfig(
            strategy="none", run_seed=self.run_seed, warmup_examples=s["examples"],
            warmup=d.TrainSettings(learning_rate=0.25, epochs=s["epochs"], batch_size=32))

    def prepare(self):
        self.captured = None

    def run(self):
        return self.pkg.driver.build_base_model(self.suite, self.cfg)

    def check(self, model) -> tuple[list[str], dict]:
        tinylm = self.pkg.tinylm
        problems = []
        corpus, cfg, trace = self.captured
        if not all(math.isfinite(x) for x in trace) or not trace[-1] < trace[0]:
            problems.append(f"warmup loss did not fall: {trace[0]} -> {trace[-1]}")
        digest = _model_digest(model)
        path = self.work_dir / "warmup-checkpoint.json"
        tinylm.save_model(model, path)
        if _model_digest(tinylm.load_model(path)) != digest:
            problems.append("checkpoint save/load round trip is not bit-exact")
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("warmup parameters differ between iterations")
        tokens = cfg.epochs * sum(len(t) for _, t in corpus)
        return problems, {"train_tokens": tokens}


class Grid:
    """The user's whole job through ``cli.main``: ``rgdlab run-seq``, then
    ``rgdlab score-rgd`` on the final checkpoint of the no-replay run."""

    FULL = {"tasks": 5, "train": 60, "eval": 30, "probe": 32, "epochs": 2, "run_seeds": 1,
            "warmup": 400, "warmup_epochs": 10}
    SMOKE = {"tasks": 3, "train": 12, "eval": 4, "probe": 4, "epochs": 1, "run_seeds": 2,
             "warmup": 40, "warmup_epochs": 2}
    STRATEGIES = ["none", "equal", "inscl", "rgd-mean"]
    setup_repeats = 9

    def __init__(self, pkg, seed, work_dir: Path, smoke: bool):
        self.pkg = pkg
        self.size = self.SMOKE if smoke else self.FULL
        seeds = _seeds(seed, 1 + self.size["run_seeds"])
        self.suite_seed, self.run_seeds = seeds[0], seeds[1:]
        self.work_dir = work_dir
        self.out_dir = work_dir / "grid-out"
        self.config_path = work_dir / "grid-config.json"
        self.first_outputs = None

    installed = contextlib.nullcontext

    def setup(self):
        s = self.size
        doc = {
            "suite": {"num_tasks": s["tasks"], "train_per_task": s["train"],
                      "eval_per_task": s["eval"], "probe_per_task": s["probe"],
                      "seed": self.suite_seed},
            "train": {"learning_rate": 0.15, "epochs": s["epochs"], "batch_size": 16},
            "warmup": {"learning_rate": 0.25, "epochs": s["warmup_epochs"], "batch_size": 32},
            "warmup_examples": s["warmup"],
            "strategies": self.STRATEGIES,
            "run_seeds": self.run_seeds,
            "orders": [0],
            "run_probes": True,
            "save_checkpoints": True,
            "threads": len(os.sched_getaffinity(0)),
            "output_dir": str(self.out_dir),
        }
        self.config_path.write_text(json.dumps(doc, indent=1) + "\n")
        self.config = self.pkg.fileio.load_experiment_config(self.config_path)
        self.suite = self.config.make_suite()

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _checkpoint(self) -> Path:
        run_name = f"none-o0-s{self.run_seeds[0]}"
        return self.out_dir / "runs" / run_name / "checkpoints" / f"stage-{self.size['tasks']:02d}.json"

    def run(self):
        results = []
        for argv in (["run-seq", "--config", str(self.config_path)],
                     ["score-rgd", "--config", str(self.config_path),
                      "--checkpoint", str(self._checkpoint())]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.pkg.cli.main(argv)
            results.append((argv[0], code, out.getvalue()))
        return results

    def check(self, results) -> tuple[list[str], dict]:
        fileio = self.pkg.fileio
        failed = [f"{cmd} exited {code}: {out.strip()}" for cmd, code, out in results if code]
        if failed:
            return failed, {}
        problems = []
        plan = self.config.plan
        order = self.suite.orders[0]
        slice_size = min(plan.rgd_eval_size, self.size["probe"])
        scores = [json.loads(line) for line in results[1][2].splitlines()]
        if [d["task"] for d in scores] != [spec.task_id for spec in self.suite.specs]:
            problems.append(f"score-rgd scored {[d['task'] for d in scores]}")
        for d in scores:
            if not (math.isfinite(d["mean"]) and d["mean"] > 0 and d["n"] == slice_size):
                problems.append(f"score-rgd: bad summary {d}")
        for strategy in plan.strategies:
            for seed in plan.run_seeds:
                run_dir = self.out_dir / "runs" / f"{strategy}-o0-s{seed}"
                matrix = fileio.read_matrix(run_dir / "matrix.csv")
                cells = [v for row in matrix.rows for v in row] + list(matrix.a0)
                if matrix.order != order or not all(0 <= v <= 100 for v in cells):
                    problems.append(f"{run_dir.name}: bad matrix {matrix}")
                with open(run_dir / "plans.jsonl", encoding="utf-8") as fh:
                    plans = [json.loads(line) for line in fh]
                if len(plans) != (0 if strategy == "none" else len(order) - 1):
                    problems.append(f"{run_dir.name}: {len(plans)} plans")
                for stage, doc in enumerate(plans, start=1):
                    pool = stage * self.size["train"]
                    if sum(doc["counts"].values()) != min(doc["budget"], pool):
                        problems.append(f"{run_dir.name}: stage {stage + 1} plan {doc}")
                for summary in fileio.read_summaries(run_dir / "summaries.jsonl"):
                    if not (math.isfinite(summary.mean) and summary.mean > 0
                            and summary.n == slice_size):
                        problems.append(f"{run_dir.name}: bad summary {summary}")
                checkpoints = sorted((run_dir / "checkpoints").glob("stage-*.json"))
                if len(checkpoints) != len(order):
                    problems.append(f"{run_dir.name}: {len(checkpoints)} checkpoints")
        with open(self.out_dir / "report_raw.json", encoding="utf-8") as fh:
            raw = json.load(fh)
        expected_rows = len(plan.run_seeds) * (2 + len(plan.strategies))
        if len(raw) != expected_rows:
            problems.append(f"report_raw.json has {len(raw)} rows, expected {expected_rows}")
        for name in ("singles.json", "multis.json"):
            if not (self.out_dir / name).is_file():
                problems.append(f"missing {name}")
        problems += self._check_probes(plan)
        outputs = ((self.out_dir / "report.csv").read_bytes(), results[1][2])
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            problems.append("report.csv or score-rgd output differs between iterations")
        files = [p for p in self.out_dir.rglob("*") if p.is_file()]
        return problems, {"fileio.files_written": len(files),
                          "fileio.bytes_written": sum(p.stat().st_size for p in files)}

    def _check_probes(self, plan) -> list[str]:
        """Each probe record holds the whole k-grid and the whole TAP grid."""
        with open(self.out_dir / "probe_partial.csv", encoding="utf-8") as fh:
            partial = list(csv.DictReader(fh))
        with open(self.out_dir / "probe_tap.csv", encoding="utf-8") as fh:
            tap = list(csv.DictReader(fh))
        k_len, tap_len = len(plan.k_grid), 1 + len(plan.demo_counts) * plan.demo_draws
        records = len(partial) // k_len
        if not records or len(partial) != records * k_len or len(tap) != records * tap_len:
            return [f"probe CSVs: {len(partial)} partial rows, {len(tap)} TAP rows"]
        problems = []
        for i in range(records):
            block = partial[i * k_len:(i + 1) * k_len]
            tasks = {row["task"] for row in block}
            tasks |= {row["task"] for row in tap[i * tap_len:(i + 1) * tap_len]}
            if len(tasks) != 1 or [float(row["k"]) for row in block] != list(plan.k_grid):
                problems.append(f"probe record {i}: tasks {sorted(tasks)}, bad k-grid")
        return problems


WORKLOADS = {"warmup": Warmup, "grid": Grid}


# ---------------------------------------------------------------- measuring

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    extra: dict
    layer: dict | None = None


class Tally:
    """Attempted and failed operations; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def time_setup(workload, tally: Tally) -> list[float]:
    times = []
    for _ in range(workload.setup_repeats):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            workload.setup()
        except Exception as err:  # counted as a failed operation, reported below
            tally.fail(f"setup: {type(err).__name__}: {err}")
            continue
        times.append(time.perf_counter() - t0)
    return times


def measure(workload, seconds: float, tally: Tally, tracer=None) -> list[Sample]:
    """Closed loop: start another iteration while it is expected to end in time.

    The first iteration warms caches and BLAS threads (it runs about a
    third slower than the rest); it is checked but not timed.
    """
    from spans import iteration_metrics

    samples: list[Sample] = []
    start = time.perf_counter()
    tries = 0
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(s.wall_s for s in samples) if samples else 0.0
        if tries > MIN_ITERATIONS and elapsed + typical > seconds:
            break
        tries += 1
        tally.attempted += 1
        workload.prepare()
        if tracer is not None:
            tracer.take()
        c0, t0 = os.times(), time.perf_counter()
        try:
            out = workload.run()
        except Exception as err:  # counted as a failed operation, reported below
            tally.fail(f"iteration {tries}: {type(err).__name__}: {err}")
            continue
        wall = time.perf_counter() - t0
        c1 = os.times()
        spans = tracer.take() if tracer is not None else None
        try:
            problems, extra = workload.check(out)
        except Exception as err:  # an unreadable output fails the check
            problems, extra = [f"check: {type(err).__name__}: {err}"], {}
        if problems:
            tally.fail(f"iteration {tries}: " + "; ".join(problems))
            continue
        if tries == 1:
            continue
        cpu = (c1.user - c0.user) + (c1.system - c0.system)
        layer = iteration_metrics(spans, wall) if spans is not None else None
        samples.append(Sample(wall, cpu, extra, layer))
    return samples


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, values, unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{name:<20} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def layer_metrics(samples: list[Sample], untraced: list[Sample], tally: Tally) -> dict:
    """Per-iteration layer metrics: counts must repeat exactly, times are medians."""
    rows = []
    for s in samples:
        row = {name: s.layer.get(name, 0) for name in PER_LAYER}
        row.update({k: v for k, v in s.extra.items() if k in PER_LAYER})
        busy = row["tinylm.train.busy_s"]
        flop = s.layer.get("tinylm.train.flop", 0)
        row["tinylm.train.step_ms"] = 1e3 * busy / row["tinylm.train.steps"] if busy else 0.0
        row["tinylm.train.gflop_computed"] = flop / 1e9
        row["tinylm.train.gflops"] = flop / 1e9 / busy if busy else 0.0
        nll_calls = row["tinylm.sequence_nll.calls"]
        row["tinylm.sequence_nll.us_per_call"] = (
            1e6 * row["tinylm.sequence_nll.busy_s"] / nll_calls if nll_calls else 0.0)
        rows.append(row)
    out = {}
    for name, unit in PER_LAYER.items():
        values = [row[name] for row in rows]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                tally.fail(f"{name} differs between traced iterations: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["process.cpu_s"] = statistics.median(s.cpu_s for s in untraced)
    out["bench.trace_overhead_s"] = (statistics.median(s.wall_s for s in samples)
                                     - statistics.median(s.wall_s for s in untraced))
    return out


# ------------------------------------------------------------------ reporting

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, log=print) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import rgdlab
    import rgdlab.cli  # noqa: F401  (imports and binds every submodule)
    from spans import Tracer, self_time_table

    log(f"perfbench workload={workload_name} seed={seed} seconds={seconds} trace={int(trace)}")
    log("env " + json.dumps(environment(), sort_keys=True))
    tally = Tally()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=scratch))
    try:
        workload = WORKLOADS[workload_name](rgdlab, seed, work_dir, smoke)
        with workload.installed():
            setup_times = time_setup(workload, tally)
            if not setup_times:
                samples = untraced = []
            elif not trace:
                samples = untraced = measure(workload, seconds, tally)
            else:
                untraced = measure(workload, seconds / 2, tally)
                tracer = Tracer(rgdlab)
                tracer.install()
                try:
                    samples = measure(workload, seconds / 2, tally, tracer)
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {}
    if samples and untraced:
        walls = [s.wall_s for s in untraced]
        log(describe("setup_s", setup_times, "s"))
        log(describe("wall_s", walls, "s"))
        log("wall_s samples " + " ".join(f"{w:.4f}" for w in walls))
        if "train_tokens" in untraced[0].extra:
            rates = [s.extra["train_tokens"] / s.wall_s for s in untraced]
            log(describe("train_tokens_per_s", rates, "1/s"))
        log(describe("process.cpu_s", [s.cpu_s for s in untraced], "s"))
        log(f"{'peak_rss_mb':<20} {peak_rss_mb:.6g} MB")
        if trace:
            metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                       for name, value in layer_metrics(samples, untraced, tally).items()}
            log("where the time goes (self time per traced iteration, medians):")
            log(self_time_table({k: v["value"] for k, v in metrics.items()}))
            log(f"trace overhead: {metrics['bench.trace_overhead_s']['value']:.6g} s per iteration")
        else:
            values = {"wall_s": statistics.median(walls),
                      "setup_s": statistics.median(setup_times),
                      "peak_rss_mb": peak_rss_mb}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    for problem in tally.problems:
        log(f"FAILED {problem}")
    correct = bool(metrics) and tally.failed == 0
    log(f"{'error_rate':<20} {tally.failed}/{tally.attempted} = "
        f"{tally.failed / max(tally.attempted, 1):.6g}")
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rgdlab" / "__init__.py").is_file():
        print(f"error: no rgdlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
