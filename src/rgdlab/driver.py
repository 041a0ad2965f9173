"""Sequential continual-learning runs, baselines and the two probing loops.

A run walks one task order: each stage trains the previous checkpoint on the
new task's data plus replay samples drawn according to the configured
strategy, then evaluates every task seen so far on its held-out set.
Difficulty summaries are recorded after every stage with that stage's
checkpoint, so the allocation at stage i only ever sees statistics computed
with the stage i-1 model.

A stage's result depends on the run settings, the base model, the run seed,
the order and the replay counts of every stage so far, never on the
strategy that chose those counts.  Runs handed one ``stages`` dict train
each distinct stage once and share its checkpoint, loss trace, accuracy row
and RGD summaries; ``run_experiment`` runs each (seed, order) as one unit
on its worker pool and shares stages within it.  Stage checkpoints are
read-only: copy one before changing it.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import clmetrics, rgd, replay, taskgen, tinylm
from .errors import ConfigError, InputError

STRATEGIES = ("none", "equal", "inscl", "rgd-mean")

DEFAULT_K_GRID = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_DEMO_COUNTS = (1, 2, 4, 8)
DEFAULT_DEMO_DRAWS = 3
DEFAULT_TOP_FORGOTTEN = 3

# Salts for deriving per-purpose seeds from the run seed.
_SALT_INIT = 101
_SALT_STAGE = 211
_SALT_REPLAY = 307
_SALT_SINGLE = 401
_SALT_MULTI = 503
_SALT_DEMOS = 607
_SALT_WARMUP = 701


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts via numpy's SeedSequence."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint32)[0])


TrainSettings = tinylm.TrainSettings      # config files and callers name it here


@dataclass(frozen=True)
class ModelDims:
    context_len: int = 28
    embed_dim: int = 12
    hidden_dim: int = 128


@dataclass(frozen=True, kw_only=True)
class RunSettings:
    """Settings every run of a grid shares; the grid adds strategy, seed and order."""

    dims: ModelDims = field(default_factory=ModelDims)
    train: TrainSettings = field(default_factory=TrainSettings)
    warmup: TrainSettings = field(default_factory=lambda: TrainSettings(
        learning_rate=0.25, epochs=25, batch_size=32))
    warmup_examples: int = 2000               # 0 disables the base-skills phase
    replay_budget: int | None = None          # absolute per-stage budget
    replay_fraction: float = 0.05             # of cumulative previous train data
    rgd_eval_size: int = 32                   # probe examples scored per task and stage; 0: all
    max_gen_len: int = 18

    def __post_init__(self):
        if self.replay_budget is not None and self.replay_budget < 0:
            raise ConfigError("replay_budget must be nonnegative")
        if not 0 <= self.replay_fraction <= 1:
            raise ConfigError("replay_fraction must be in [0, 1]")
        if self.rgd_eval_size < 0:
            raise ConfigError("rgd_eval_size must be nonnegative (0 scores the whole probe slice)")


@dataclass(frozen=True)
class RunConfig(RunSettings):
    strategy: str
    run_seed: int
    order_index: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.strategy.startswith("rgd") and self.rgd_eval_size < 1:
            raise ConfigError("rgd strategies need an evaluation subset of >= 1 examples")


@dataclass
class RunResult:
    order: tuple[str, ...]
    matrix: clmetrics.PerfMatrix
    summaries: list[dict[str, rgd.RgdSummary]]     # per stage, tasks seen so far
    plans: list[replay.AllocationPlan | None]      # per stage; None for stage 1
    checkpoints: list[tinylm.ModelState]           # may be shared with other runs
    loss_traces: list[tuple[float, ...]]


def build_base_model(suite: taskgen.Suite, cfg: RunConfig) -> tinylm.ModelState:
    """Fresh init plus the base-skills warmup phase.

    Both the warmup corpus and its training seeds derive from the suite
    seed, so every run over a suite starts from one shared checkpoint — the
    analogue of fine-tuning runs all starting from the same pretrained
    model.  With warmup_examples=0 this is just a seeded init.
    """
    vocab = tinylm.Vocab.build(taskgen.suite_tokens(suite))
    model = tinylm.init_model(vocab, cfg.dims.context_len, cfg.dims.embed_dim,
                              cfg.dims.hidden_dim, seed=derive_seed(suite.seed, _SALT_INIT))
    if cfg.warmup_examples == 0:
        return model
    warmup = taskgen.make_warmup_corpus(
        cfg.warmup_examples, seed=derive_seed(suite.seed, _SALT_WARMUP))
    model, _ = _train(model, warmup, cfg.warmup, derive_seed(suite.seed, _SALT_WARMUP, 1))
    return model


def training_pair(vocab: tinylm.Vocab, ex: taskgen.Example) -> tuple[list[int], list[int]]:
    """Teacher-forcing pair: the rendered prompt, then target tokens and EOS."""
    context = vocab.encode(taskgen.render_prompt(ex.instruction))
    target = vocab.encode(taskgen.training_target_tokens(ex)) + [tinylm.EOS]
    return context, target


def _train(model: tinylm.ModelState, examples, settings: TrainSettings, seed: int):
    """``tinylm.train`` on the teacher-forcing pairs of ``examples``: the one
    place a training phase's settings and seed become a ``TrainConfig``."""
    corpus = [training_pair(model.vocab, ex) for ex in examples]
    return tinylm.train(model, corpus, tinylm.TrainConfig(**vars(settings), seed=seed))


def _decoded_accuracy(model: tinylm.ModelState, prompts, examples, max_gen_len: int) -> float:
    """Greedy-decode each token prompt and score the answers against ``examples``."""
    vocab = model.vocab
    outputs = tinylm.generate_batch(model, [vocab.encode(p) for p in prompts], max_gen_len)
    return clmetrics.answer_accuracy([vocab.decode(ids) for ids in outputs],
                                     [ex.answer for ex in examples])


def evaluate_accuracy(model: tinylm.ModelState, examples, max_gen_len: int = 18) -> float:
    """Greedy-decode each instruction and score the parsed answers."""
    examples = list(examples)
    if not examples:
        raise InputError("no examples to evaluate")
    return _decoded_accuracy(model, [taskgen.render_prompt(ex.instruction) for ex in examples],
                             examples, max_gen_len)


def score_task_rgd(model: tinylm.ModelState, examples, limit: int | None = None) -> rgd.RgdSummary:
    """Difficulty summary of a task's probe slice under one checkpoint."""
    chosen = list(examples)[:limit] if limit else list(examples)
    return rgd.task_rgd(rgd.rgd_records(model, chosen))


def _stage_plan(cfg: RunConfig, suite: taskgen.Suite, order, stage: int,
                prev_summaries: dict[str, rgd.RgdSummary]) -> replay.AllocationPlan:
    prev = list(order[:stage])
    if cfg.replay_budget is not None:
        alpha = cfg.replay_budget
    else:
        alpha = round(cfg.replay_fraction * sum(len(suite.train[t]) for t in prev))
    if cfg.strategy == "equal":
        plan = replay.allocate_equal(prev, alpha)
    elif cfg.strategy == "inscl":
        current = [list(ex.instruction) for ex in suite.train[order[stage]]]
        distances = {
            t: replay.instruction_distance([list(ex.instruction) for ex in suite.train[t]], current)
            for t in prev
        }
        plan = replay.allocate_inscl(distances, alpha)
    else:
        scores = {t: rgd.summary_scalar(prev_summaries[t]) for t in prev}
        plan = replay.allocate_rgd(scores, alpha)
    return replay.fit_to_pools(plan, {t: len(suite.train[t]) for t in prev})


def _run_stage(suite: taskgen.Suite, cfg: RunConfig, order, stage: int,
               model: tinylm.ModelState, counts: tuple[int, ...]):
    """Train ``model`` on the stage's task plus ``counts`` replay samples per
    previous task, then evaluate and score every task seen so far."""
    examples = list(suite.train[order[stage]])
    for j, (prev_task, count) in enumerate(zip(order[:stage], counts)):
        examples += replay.sample_replay(suite.train[prev_task], count,
                                         seed=derive_seed(cfg.run_seed, _SALT_REPLAY, stage, j))
    model, trace = _train(model, examples, cfg.train, derive_seed(cfg.run_seed, _SALT_STAGE, stage))
    for _, param in model.params():         # the checkpoint may be shared between runs
        param.setflags(write=False)
    row = tuple(evaluate_accuracy(model, suite.eval[order[j]], cfg.max_gen_len)
                for j in range(stage + 1))
    summary = {order[j]: score_task_rgd(model, suite.probe[order[j]], cfg.rgd_eval_size)
               for j in range(stage + 1)}
    return model, tuple(trace), row, summary


def run_sequence(suite: taskgen.Suite, cfg: RunConfig, a0: dict[str, float],
                 base_model: tinylm.ModelState, keep_checkpoints: bool = True,
                 stages: dict | None = None) -> RunResult:
    """One full sequential run over the suite order ``cfg.order_index``.

    Every stage starts from ``base_model`` or the previous stage's
    checkpoint; ``a0`` holds the single-task baselines of the FWT column.
    ``stages`` shares stages between runs over one suite and one
    ``base_model``: a stage is keyed by the run settings, the base model,
    the run seed, the order and the replay counts of every stage up to it
    (``none`` replays zero of each), and is trained only if no run given
    the same dict trained it before.  The returned checkpoints may then be
    shared with other runs, so their parameter arrays are read-only.
    """
    order = suite.orders[cfg.order_index]
    model = base_model
    if stages is None:
        stages = {}
    key = (tuple(getattr(cfg, f.name) for f in fields(RunSettings)),
           id(model), cfg.run_seed, order)

    rows: list[tuple[float, ...]] = []
    summaries: list[dict[str, rgd.RgdSummary]] = []
    plans: list[replay.AllocationPlan | None] = []
    checkpoints: list[tinylm.ModelState] = []
    traces: list[tuple[float, ...]] = []
    prev_summaries: dict[str, rgd.RgdSummary] = {}

    for stage in range(len(order)):
        plan = None
        if stage > 0 and cfg.strategy != "none":
            plan = _stage_plan(cfg, suite, order, stage, prev_summaries)
        plans.append(plan)
        counts = tuple(plan.counts[t] if plan else 0 for t in order[:stage])
        key += (counts,)
        if key not in stages:
            stages[key] = _run_stage(suite, cfg, order, stage, model, counts)
        model, trace, row, prev_summaries = stages[key]
        traces.append(trace)
        if keep_checkpoints:
            checkpoints.append(model)
        rows.append(row)
        summaries.append(dict(prev_summaries))

    matrix = clmetrics.PerfMatrix(
        order=order, rows=tuple(rows), a0=tuple(a0[t] for t in order))
    return RunResult(order=order, matrix=matrix, summaries=summaries,
                     plans=plans, checkpoints=checkpoints, loss_traces=traces)


def run_single_baselines(suite: taskgen.Suite, cfg: RunConfig,
                         base_model: tinylm.ModelState) -> dict[str, float]:
    """Per-task score of a base model trained on that task alone."""
    out = {}
    for i, spec in enumerate(suite.specs):
        model, _ = _train(base_model, suite.train[spec.task_id], cfg.train,
                          derive_seed(cfg.run_seed, _SALT_SINGLE, i))
        out[spec.task_id] = evaluate_accuracy(model, suite.eval[spec.task_id], cfg.max_gen_len)
    return out


def run_multitask(suite: taskgen.Suite, cfg: RunConfig,
                  base_model: tinylm.ModelState) -> dict[str, float]:
    """Per-task score of one model trained on the union of all train sets."""
    examples = [ex for spec in suite.specs for ex in suite.train[spec.task_id]]
    model, _ = _train(base_model, examples, cfg.train, derive_seed(cfg.run_seed, _SALT_MULTI))
    return {spec.task_id: evaluate_accuracy(model, suite.eval[spec.task_id], cfg.max_gen_len)
            for spec in suite.specs}


def probe_partial_rationale(model: tinylm.ModelState, examples, k_grid=DEFAULT_K_GRID,
                            max_gen_len: int = 18) -> list[tuple[float, float]]:
    """Accuracy with the first k fraction of the gold rationale appended."""
    examples = list(examples)
    if not examples:
        raise InputError("no examples to probe")
    results = []
    for k in k_grid:
        prompts = [taskgen.render_prompt(taskgen.partial_rationale_prompt(ex, k))
                   for ex in examples]
        results.append((float(k), _decoded_accuracy(model, prompts, examples, max_gen_len)))
    return results


@dataclass(frozen=True)
class TapResult:
    best_count: int
    best_draw: int
    best_accuracy: float
    instruction_only: float
    grid: tuple[tuple[int, int, float], ...]   # (demo_count, draw, accuracy)
    best_demo_ids: tuple[str, ...]


def probe_tap(model: tinylm.ModelState, examples, demo_pool,
              demo_counts=DEFAULT_DEMO_COUNTS, draws: int = DEFAULT_DEMO_DRAWS,
              seed: int = 0, max_gen_len: int = 18) -> TapResult:
    """Grid search over demo counts and seeded demo draws.

    Every arm goes through ``taskgen.render_prompt``.  The zero-demo arm is
    always evaluated and is the rendered instruction (no context template
    or demos), so the search can never fall below instruction-only
    accuracy; ties prefer fewer demos, then the earlier draw.
    """
    examples = list(examples)
    if not examples:
        raise InputError("no examples to probe")
    demo_pool = [d for d in demo_pool if d.task_id != examples[0].task_id]
    if not demo_pool:
        raise ConfigError("demo pool is empty after removing same-task examples")
    instruction_only = _decoded_accuracy(
        model, [taskgen.render_prompt(ex.instruction) for ex in examples], examples, max_gen_len)
    grid: list[tuple[int, int, float]] = [(0, 0, instruction_only)]
    best = (0, 0, instruction_only, ())
    for count in demo_counts:
        for draw in range(draws):
            demos = replay.sample_replay(
                demo_pool, count, seed=derive_seed(seed, _SALT_DEMOS, count, draw))
            prompts = [taskgen.render_prompt(taskgen.tap_prompt(ex, demos))
                       for ex in examples]
            acc = _decoded_accuracy(model, prompts, examples, max_gen_len)
            grid.append((count, draw, acc))
            if acc > best[2]:
                best = (count, draw, acc, tuple(d.id for d in demos))
    return TapResult(
        best_count=best[0], best_draw=best[1], best_accuracy=best[2],
        instruction_only=instruction_only, grid=tuple(grid), best_demo_ids=best[3])


def most_forgotten_tasks(report: clmetrics.MetricsReport, top: int = DEFAULT_TOP_FORGOTTEN) -> list[str]:
    ranked = sorted(report.per_task_forgetting.items(), key=lambda kv: (-kv[1], kv[0]))
    return [task for task, _ in ranked[:top]]


@dataclass(frozen=True, kw_only=True)
class ExperimentPlan(RunSettings):
    """Grid of sequential runs plus baselines and optional probes.

    ``threads`` is the number of worker processes that run the grid's units
    (see ``run_experiment``); by default, the CPUs this process may use.
    Results do not depend on it.
    """

    strategies: tuple[str, ...] = ("none", "equal", "inscl", "rgd-mean")
    run_seeds: tuple[int, ...]
    order_indices: tuple[int, ...] = (0, 1)
    run_probes: bool = False
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    demo_counts: tuple[int, ...] = DEFAULT_DEMO_COUNTS
    demo_draws: int = DEFAULT_DEMO_DRAWS
    top_forgotten: int = DEFAULT_TOP_FORGOTTEN
    threads: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))
    keep_checkpoints: bool = True

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        if not self.run_seeds:
            raise ConfigError("at least one run seed is required")
        if any(seed < 0 for seed in self.run_seeds):
            raise ConfigError(f"run seeds must be >= 0, got {list(self.run_seeds)}")
        if not self.order_indices or any(o not in (0, 1) for o in self.order_indices):
            raise ConfigError("order indices must be a nonempty list of 0 and 1")
        for values, what in ((self.strategies, "strategy"), (self.run_seeds, "run seed"),
                             (self.order_indices, "order index")):
            if len(set(values)) != len(values):
                raise ConfigError(f"each {what} may appear once, got {list(values)}")
        if any(not 0 <= k <= 1 for k in self.k_grid):
            raise ConfigError(f"k_grid values must be in [0, 1], got {list(self.k_grid)}")
        if any(count < 1 for count in self.demo_counts):
            raise ConfigError(f"demo_counts must be >= 1, got {list(self.demo_counts)}")
        if self.demo_draws < 1:
            raise ConfigError("demo_draws must be >= 1")
        if self.top_forgotten < 1:
            raise ConfigError("top_forgotten must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.run_probes and "none" not in self.strategies:
            raise ConfigError('run_probes needs "none" in strategies: probes run on the '
                              "final checkpoint of the no-replay run")
        for strategy in self.strategies:        # checks the shared settings too
            self.run_config(strategy, self.run_seeds[0], self.order_indices[0])

    def run_config(self, strategy: str, seed: int, order_index: int) -> RunConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(RunSettings)}
        return RunConfig(strategy=strategy, run_seed=seed, order_index=order_index, **shared)


@dataclass
class RunRecord:
    strategy: str
    run_seed: int
    order_index: int
    result: RunResult
    report: clmetrics.MetricsReport


@dataclass
class ProbeRecord:
    run_seed: int
    order_index: int
    task_id: str
    partial: list[tuple[float, float]]
    tap: TapResult


@dataclass
class ExperimentResult:
    suite: taskgen.Suite
    plan: ExperimentPlan
    singles: dict[int, dict[str, float]]      # run seed -> task -> a0
    multis: dict[int, dict[str, float]]       # run seed -> task -> score
    runs: list[RunRecord]
    probes: list[ProbeRecord]


def _run_group(suite: taskgen.Suite, plan: ExperimentPlan, seed: int, order_index: int,
               base: tinylm.ModelState):
    """Every strategy's run of one (seed, order), sharing stages (a pool unit).

    With probes on, this first yields the ``none`` run's final checkpoint and
    most-forgotten tasks as soon as that run ends, so that its probes can
    start while the other strategies train; last it yields the runs by
    strategy.  Their matrices carry a zero baseline row: ``run_experiment``
    puts in the single-task baselines, which no stage depends on.
    """
    stages: dict = {}
    no_baselines = dict.fromkeys(suite.train, 0.0)
    results = {}
    # A stage's result does not depend on which run trains it first, so the
    # none run goes first and its probes can start as early as possible.
    for strategy in sorted(plan.strategies, key=lambda strategy: strategy != "none"):
        probed = plan.run_probes and strategy == "none"
        result = results[strategy] = run_sequence(
            suite, plan.run_config(strategy, seed, order_index), a0=no_baselines,
            base_model=base, keep_checkpoints=plan.keep_checkpoints or probed, stages=stages)
        if probed:              # forgetting does not read the baseline row
            yield result.checkpoints[-1], most_forgotten_tasks(
                clmetrics.compute_report(result.matrix), plan.top_forgotten)
    yield results


def _probe(suite: taskgen.Suite, plan: ExperimentPlan, seed: int, order_index: int,
           model: tinylm.ModelState, task: str) -> ProbeRecord:
    """Both probes of one forgotten task on a run's final checkpoint (a pool unit)."""
    partial = probe_partial_rationale(model, suite.eval[task], plan.k_grid, plan.max_gen_len)
    pool_examples = [ex for other in suite.orders[order_index] if other != task
                     for ex in suite.train[other]]
    tap = probe_tap(model, suite.eval[task], pool_examples, plan.demo_counts, plan.demo_draws,
                    seed=derive_seed(seed, order_index), max_gen_len=plan.max_gen_len)
    return ProbeRecord(run_seed=seed, order_index=order_index, task_id=task,
                       partial=partial, tap=tap)


def run_experiment(suite: taskgen.Suite, plan: ExperimentPlan) -> ExperimentResult:
    """Baselines plus every (strategy, seed, order) run, optionally probed.

    The grid's independent units run on ``plan.threads`` worker processes
    (``rgdlab.pool``), each with one BLAS thread, and the results do not
    depend on the worker count.  The units are the base-model build; then
    the runs of each (seed, order), which share every stage whose replay
    counts agree so far (see ``run_sequence``), and the single-task and
    multi-task baselines of each run seed; and one probe per most-forgotten
    task of a ``none`` run, dispatched as soon as that run has ended.  All
    runs start from one base checkpoint, and single-task baselines are
    computed once per run seed and reused across strategies and orders.
    Checkpoints may be shared between the runs of a group and are
    read-only; copy one before changing it.  ``runs`` lists the records in
    grid order: strategy, then seed, then order.
    """
    singles: dict[int, dict[str, float]] = {}
    multis: dict[int, dict[str, float]] = {}
    groups: dict[tuple[int, int], dict[str, RunResult]] = {}
    probes: dict[tuple[int, int], list[ProbeRecord | None]] = {}   # in forgetting order

    def after_base(base):
        cfgs = {seed: plan.run_config(plan.strategies[0], seed, 0) for seed in plan.run_seeds}
        return ([(_run_group, (suite, plan, seed, order, base),
                  functools.partial(after_group, seed, order))
                 for seed in plan.run_seeds for order in plan.order_indices]
                + [(run_single_baselines, (suite, cfgs[seed], base),
                    functools.partial(singles.__setitem__, seed)) for seed in plan.run_seeds]
                + [(run_multitask, (suite, cfgs[seed], base),
                    functools.partial(multis.__setitem__, seed)) for seed in plan.run_seeds])

    def after_group(seed, order, value):
        if isinstance(value, dict):             # the runs by strategy
            groups[seed, order] = value
            return []
        model, tasks = value                    # the none run's end: probe it
        records = probes[seed, order] = [None] * len(tasks)
        return [(_probe, (suite, plan, seed, order, model, task),
                 functools.partial(records.__setitem__, i)) for i, task in enumerate(tasks)]

    from . import pool    # here: a process that runs no grid never loads the pool's modules

    first = plan.run_config(plan.strategies[0], plan.run_seeds[0], 0)
    pool.run(plan.threads, [(build_base_model, (suite, first), after_base)])

    runs = []
    for strategy in plan.strategies:
        for seed in plan.run_seeds:
            for order in plan.order_indices:
                result = groups[seed, order][strategy]
                result.matrix = replace(result.matrix,
                                        a0=tuple(singles[seed][t] for t in result.order))
                runs.append(RunRecord(strategy=strategy, run_seed=seed, order_index=order,
                                      result=result,
                                      report=clmetrics.compute_report(result.matrix)))
    return ExperimentResult(
        suite=suite, plan=plan,
        singles={seed: singles[seed] for seed in plan.run_seeds},
        multis={seed: multis[seed] for seed in plan.run_seeds},
        runs=runs, probes=[record for seed in plan.run_seeds for order in plan.order_indices
                           for record in probes.get((seed, order), ())])
