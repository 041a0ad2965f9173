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
each distinct stage once and share its checkpoint, accuracy row and RGD
summaries; ``run_experiment`` runs each (seed, order) as one unit
on its worker pool and shares stages within it.  That unit also writes its
stage checkpoints, each once, so they never travel back to the caller.
Stage checkpoints are read-only: copy one before changing it.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import clmetrics, rgd, replay, taskgen, tinylm
from .errors import ConfigError, InputError

DEFAULT_K_GRID = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
DEMO_COUNTS = (1, 2, 4, 8)  # the TAP probe's demo counts, each drawn DEMO_DRAWS times
DEMO_DRAWS = 3
TOP_FORGOTTEN = 3           # most-forgotten tasks probed per no-replay run
RGD_EVAL_SIZE = 32          # leading probe examples RGD scores per task and stage
MAX_GEN_LEN = 18            # tokens greedy decoding may add to any scored prompt

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
class ReplaySettings:
    """A stage's replay budget: ``budget`` samples, or when it is None,
    ``budget_fraction`` of the cumulative previous train data."""

    budget: int | None = None
    budget_fraction: float = 0.05

    def __post_init__(self):
        if self.budget is not None and not 0 <= self.budget <= replay.MAX_BUDGET:
            raise ConfigError(f"budget must be in [0, {replay.MAX_BUDGET}]")
        if not 0 <= self.budget_fraction <= 1:
            raise ConfigError("budget_fraction must be in [0, 1]")


@dataclass(frozen=True, kw_only=True)
class RunSettings:
    """Settings every run of a grid shares; the grid adds strategy, seed and order."""

    model: tinylm.ModelDims = field(default_factory=tinylm.ModelDims)
    train: TrainSettings = field(default_factory=TrainSettings)
    warmup: TrainSettings = field(default_factory=lambda: TrainSettings(
        learning_rate=0.25, epochs=25, batch_size=32))
    warmup_examples: int = 2000               # size of the base-skills warmup corpus
    replay: ReplaySettings = field(default_factory=ReplaySettings)

    def __post_init__(self):
        if self.warmup_examples < 1:
            raise ConfigError("warmup_examples must be >= 1")


@dataclass(frozen=True)
class RunConfig(RunSettings):
    strategy: str
    run_seed: int
    order_index: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")


@dataclass
class RunResult:
    order: tuple[str, ...]
    matrix: clmetrics.PerfMatrix
    summaries: list[dict[str, rgd.RgdSummary]]     # per stage, tasks seen so far
    plans: list[replay.AllocationPlan | None]      # per stage; None for stage 1
    checkpoints: list[tinylm.ModelState]           # may be shared; run_experiment's are empty


def build_base_model(suite: taskgen.Suite, settings: RunSettings) -> tinylm.ModelState:
    """Fresh init plus the base-skills warmup phase.

    Both the warmup corpus and its training seeds derive from the suite
    seed, so every run over a suite starts from one shared checkpoint — the
    analogue of fine-tuning runs all starting from the same pretrained
    model.  Nothing here binds the warmup corpus, so ``_train`` can free it.
    """
    vocab = tinylm.Vocab.build(taskgen.suite_tokens(suite))
    dims = settings.model
    model = tinylm.init_model(vocab, dims.context_len, dims.embed_dim, dims.hidden_dim,
                              seed=derive_seed(suite.seed, _SALT_INIT))
    model, _ = _train(model, taskgen.make_warmup_corpus(
        settings.warmup_examples, seed=derive_seed(suite.seed, _SALT_WARMUP)),
        settings.warmup, derive_seed(suite.seed, _SALT_WARMUP, 1))
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
    del examples            # a corpus that only this call holds is freed before training
    return tinylm.train(model, corpus, tinylm.TrainConfig(**vars(settings), seed=seed))


def _decoded_accuracy(model: tinylm.ModelState, prompts, examples) -> float:
    """Greedy-decode each token prompt and score the answers against ``examples``."""
    vocab = model.vocab
    outputs = tinylm.generate_batch(model, [vocab.encode(p) for p in prompts], MAX_GEN_LEN)
    return clmetrics.answer_accuracy([vocab.decode(ids) for ids in outputs],
                                     [ex.answer for ex in examples])


def evaluate_accuracy(model: tinylm.ModelState, examples) -> float:
    """Greedy-decode each instruction and score the parsed answers."""
    examples = list(examples)
    if not examples:
        raise InputError("no examples to evaluate")
    return _decoded_accuracy(model, [taskgen.render_prompt(ex.instruction) for ex in examples],
                             examples)


def score_task_rgd(model: tinylm.ModelState, examples) -> rgd.RgdSummary:
    """Difficulty summary of the first ``RGD_EVAL_SIZE`` of a task's probe
    examples under one checkpoint."""
    return rgd.task_rgd(rgd.rgd_records(model, list(examples)[:RGD_EVAL_SIZE]))


@dataclass(frozen=True)
class PlanInputs:
    """What a replay strategy reads to plan stage ``stage`` of ``order``."""

    suite: taskgen.Suite
    order: tuple[str, ...]
    stage: int                                  # the previous tasks are order[:stage]
    summaries: dict[str, rgd.RgdSummary]        # theirs, under the stage i-1 checkpoint


def _inscl(inputs: PlanInputs, alpha: int) -> replay.AllocationPlan:
    train, order, stage = inputs.suite.train, inputs.order, inputs.stage
    current = [ex.instruction for ex in train[order[stage]]]
    return replay.allocate_inscl({t: replay.instruction_distance(
        [ex.instruction for ex in train[t]], current) for t in order[:stage]}, alpha)


# Each replay strategy's allocator; a new one also needs a fileio.REPORT_STRATEGY_LABELS label.
ALLOCATORS = {
    "equal": lambda inputs, alpha: replay.allocate_equal(inputs.order[:inputs.stage], alpha),
    "inscl": _inscl,
    "rgd-mean": lambda inputs, alpha: replay.allocate_rgd(
        {t: rgd.summary_scalar(s) for t, s in inputs.summaries.items()}, alpha),
}
STRATEGIES = ("none", *ALLOCATORS)


def _stage_plan(cfg: RunConfig, inputs: PlanInputs) -> replay.AllocationPlan:
    pools = {t: len(inputs.suite.train[t]) for t in inputs.order[:inputs.stage]}
    alpha = (cfg.replay.budget if cfg.replay.budget is not None
             else round(cfg.replay.budget_fraction * sum(pools.values())))
    return replay.fit_to_pools(ALLOCATORS[cfg.strategy](inputs, alpha), pools)


def _run_stage(suite: taskgen.Suite, cfg: RunConfig, order, stage: int,
               model: tinylm.ModelState, counts: tuple[int, ...]):
    """Train ``model`` on the stage's task plus ``counts`` replay samples per
    previous task, then evaluate and score every task seen so far."""
    examples = list(suite.train[order[stage]])
    for j, (prev_task, count) in enumerate(zip(order[:stage], counts)):
        examples += replay.sample_replay(suite.train[prev_task], count,
                                         seed=derive_seed(cfg.run_seed, _SALT_REPLAY, stage, j))
    model, _ = _train(model, examples, cfg.train, derive_seed(cfg.run_seed, _SALT_STAGE, stage))
    for _, param in model.params():         # the checkpoint may be shared between runs
        param.setflags(write=False)
    row = tuple(evaluate_accuracy(model, suite.eval[order[j]]) for j in range(stage + 1))
    summary = {order[j]: score_task_rgd(model, suite.probe[order[j]])
               for j in range(stage + 1)}
    return model, row, summary


def run_sequence(suite: taskgen.Suite, cfg: RunConfig, a0: dict[str, float],
                 base_model: tinylm.ModelState, stages: dict | None = None) -> RunResult:
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
    prev_summaries: dict[str, rgd.RgdSummary] = {}

    for stage in range(len(order)):
        plan = (_stage_plan(cfg, PlanInputs(suite, order, stage, prev_summaries))
                if stage > 0 and cfg.strategy in ALLOCATORS else None)
        plans.append(plan)
        counts = tuple(plan.counts[t] if plan else 0 for t in order[:stage])
        key += (counts,)
        if key not in stages:
            stages[key] = _run_stage(suite, cfg, order, stage, model, counts)
        model, row, prev_summaries = stages[key]
        checkpoints.append(model)
        rows.append(row)
        summaries.append(dict(prev_summaries))

    matrix = clmetrics.PerfMatrix(
        order=order, rows=tuple(rows), a0=tuple(a0[t] for t in order))
    return RunResult(order=order, matrix=matrix, summaries=summaries,
                     plans=plans, checkpoints=checkpoints)


def run_single_baselines(suite: taskgen.Suite, settings: RunSettings, run_seed: int,
                         base_model: tinylm.ModelState) -> dict[str, float]:
    """Per-task score of a base model trained on that task alone."""
    out = {}
    for i, spec in enumerate(suite.specs):
        model, _ = _train(base_model, suite.train[spec.task_id], settings.train,
                          derive_seed(run_seed, _SALT_SINGLE, i))
        out[spec.task_id] = evaluate_accuracy(model, suite.eval[spec.task_id])
    return out


def run_multitask(suite: taskgen.Suite, settings: RunSettings, run_seed: int,
                  base_model: tinylm.ModelState) -> dict[str, float]:
    """Per-task score of one model trained on the union of all train sets."""
    examples = [ex for spec in suite.specs for ex in suite.train[spec.task_id]]
    model, _ = _train(base_model, examples, settings.train, derive_seed(run_seed, _SALT_MULTI))
    return {spec.task_id: evaluate_accuracy(model, suite.eval[spec.task_id])
            for spec in suite.specs}


def probe_partial_rationale(model: tinylm.ModelState, examples,
                            k_grid=DEFAULT_K_GRID) -> list[tuple[float, float]]:
    """Accuracy with the first k fraction of the gold rationale appended."""
    examples = list(examples)
    if not examples:
        raise InputError("no examples to probe")
    results = []
    for k in k_grid:
        prompts = [taskgen.render_prompt(taskgen.partial_rationale_prompt(ex, k))
                   for ex in examples]
        results.append((float(k), _decoded_accuracy(model, prompts, examples)))
    return results


def probe_tap(model: tinylm.ModelState, examples, demo_pool,
              seed: int = 0) -> list[tuple[int, int, float]]:
    """Accuracy over ``DEMO_COUNTS`` and ``DEMO_DRAWS`` seeded demo draws of
    each: (count, draw, accuracy).

    Every arm goes through ``taskgen.render_prompt``.  The first arm,
    (0, 0, ...), is the rendered instruction alone: no demos and no context
    template.
    """
    examples = list(examples)
    if not examples:
        raise InputError("no examples to probe")
    demo_pool = [d for d in demo_pool if d.task_id != examples[0].task_id]
    if not demo_pool:
        raise ConfigError("demo pool is empty after removing same-task examples")
    grid = [(0, 0, _decoded_accuracy(
        model, [taskgen.render_prompt(ex.instruction) for ex in examples], examples))]
    for count in DEMO_COUNTS:
        for draw in range(DEMO_DRAWS):
            demos = replay.sample_replay(
                demo_pool, count, seed=derive_seed(seed, _SALT_DEMOS, count, draw))
            prompts = [taskgen.render_prompt(taskgen.tap_prompt(ex, demos))
                       for ex in examples]
            grid.append((count, draw, _decoded_accuracy(model, prompts, examples)))
    return grid


def most_forgotten_tasks(report: clmetrics.MetricsReport) -> list[str]:
    ranked = sorted(report.per_task_forgetting.items(), key=lambda kv: (-kv[1], kv[0]))
    return [task for task, _ in ranked[:TOP_FORGOTTEN]]


@dataclass(frozen=True, kw_only=True)
class ExperimentPlan(RunSettings):
    """Grid of sequential runs plus baselines and optional probes.

    ``threads`` is the most worker processes that run the grid's units (see
    ``run_experiment``); by default, the CPUs this process may use.  Results
    do not depend on it.  ``save_checkpoints`` has ``rgdlab run-seq`` hand
    ``run_experiment`` a directory to write the stage checkpoints to.  Each
    field's name is its config key.  The probe grid and the RGD slice are
    fixed; the plan shows them as read-only attributes.
    """

    demo_counts = DEMO_COUNTS           # unannotated, so not fields and no config keys
    demo_draws = DEMO_DRAWS
    rgd_eval_size = RGD_EVAL_SIZE

    strategies: tuple[str, ...] = STRATEGIES
    run_seeds: tuple[int, ...]
    orders: tuple[int, ...] = (0, 1)
    run_probes: bool = False
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    threads: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))
    save_checkpoints: bool = True

    def __post_init__(self):
        super().__post_init__()
        if not self.strategies:
            raise ConfigError("strategies: at least one strategy is required")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ConfigError(f"strategies: unknown strategy {strategy!r}; "
                                  f"expected one of {STRATEGIES}")
        if not self.run_seeds:
            raise ConfigError("run_seeds: at least one run seed is required")
        if any(seed < 0 for seed in self.run_seeds):
            raise ConfigError(f"run_seeds: each run seed must be >= 0, got {list(self.run_seeds)}")
        if not self.orders or any(o not in (0, 1) for o in self.orders):
            raise ConfigError("orders must be a nonempty list of 0 and 1")
        if not self.k_grid:
            raise ConfigError("k_grid: at least one value is required")
        for key, what in (("strategies", "strategy"), ("run_seeds", "run seed"),
                          ("orders", "order index"), ("k_grid", "k")):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"{key}: each {what} may appear once, got {list(values)}")
        if any(not 0 <= k <= 1 for k in self.k_grid):
            raise ConfigError(f"k_grid values must be in [0, 1], got {list(self.k_grid)}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.run_probes and "none" not in self.strategies:
            raise ConfigError('run_probes needs "none" in strategies: probes run on the '
                              "final checkpoint of the no-replay run")

    @property
    def workers(self) -> int:
        """``threads``, capped at the units that can run at once after the base
        build: each (seed, order) group, each seed's two baselines, and the
        probes of every group's ``none`` run."""
        seeds, orders = len(self.run_seeds), len(self.orders)
        probes = seeds * orders * TOP_FORGOTTEN if self.run_probes else 0
        return min(self.threads, seeds * (orders + 2) + probes)

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
    task_id: str
    partial: list[tuple[float, float]]              # (k, accuracy)
    tap: list[tuple[int, int, float]]               # (demo_count, draw, accuracy)


@dataclass
class ExperimentResult:
    suite: taskgen.Suite
    plan: ExperimentPlan
    singles: dict[int, dict[str, float]]      # run seed -> task -> a0
    multis: dict[int, dict[str, float]]       # run seed -> task -> score
    runs: list[RunRecord]
    probes: list[ProbeRecord]


def run_dir_name(strategy: str, run_seed: int, order_index: int) -> str:
    """The directory of one run under a grid's ``runs/``."""
    return f"{strategy}-o{order_index}-s{run_seed}"


def _run_group(suite: taskgen.Suite, plan: ExperimentPlan, seed: int, order_index: int,
               base: tinylm.ModelState, runs_dir: str | None):
    """Every strategy's run of one (seed, order), sharing stages (a pool unit).

    With probes on, this first yields the ``none`` run's final checkpoint and
    most-forgotten tasks as soon as that run ends, so that its probes can
    start while the other strategies train.  When the runs end and
    ``runs_dir`` is given, each distinct stage checkpoint is encoded once and
    written to ``<runs_dir>/<run>/checkpoints/stage-NN.json`` of every run
    that holds it.  Last it yields the runs by strategy, without their
    checkpoints.  Their matrices carry a zero baseline row:
    ``run_experiment`` puts in the single-task baselines, which no stage
    depends on.
    """
    stages: dict = {}
    no_baselines = dict.fromkeys(suite.train, 0.0)
    results = {}
    # A stage's result does not depend on which run trains it first, so the
    # none run goes first and its probes can start as early as possible.
    for strategy in sorted(plan.strategies, key=lambda strategy: strategy != "none"):
        result = results[strategy] = run_sequence(
            suite, plan.run_config(strategy, seed, order_index), a0=no_baselines,
            base_model=base, stages=stages)
        if plan.run_probes and strategy == "none":      # forgetting ignores the baseline row
            yield result.checkpoints[-1], most_forgotten_tasks(
                clmetrics.compute_report(result.matrix))
    if runs_dir is not None:
        paths: dict[int, tuple[tinylm.ModelState, list[str]]] = {}
        for strategy, result in results.items():
            ckpt_dir = os.path.join(runs_dir, run_dir_name(strategy, seed, order_index),
                                    "checkpoints")
            os.makedirs(ckpt_dir, exist_ok=True)
            for i, model in enumerate(result.checkpoints):
                paths.setdefault(id(model), (model, []))[1].append(
                    os.path.join(ckpt_dir, f"stage-{i + 1:02d}.json"))
        for model, targets in paths.values():
            tinylm.save_model(model, *targets)
    for result in results.values():
        result.checkpoints = []
    yield results


def probe_task(suite: taskgen.Suite, plan: ExperimentPlan, order_index: int, seed: int,
               model: tinylm.ModelState, task: str) -> ProbeRecord:
    """Both probes of ``task`` on ``model``: the grid's probe unit, and ``rgdlab probe``.

    The TAP demo pool is the train data of every other task in the order
    ``order_index``, drawn with ``seed`` as given: ``run_experiment`` passes
    ``derive_seed(run_seed, order_index)``.
    """
    partial = probe_partial_rationale(model, suite.eval[task], plan.k_grid)
    pool_examples = [ex for other in suite.orders[order_index] if other != task
                     for ex in suite.train[other]]
    tap = probe_tap(model, suite.eval[task], pool_examples, seed=seed)
    return ProbeRecord(task_id=task, partial=partial, tap=tap)


def run_experiment(suite: taskgen.Suite, plan: ExperimentPlan,
                   runs_dir: str | None = None) -> ExperimentResult:
    """Baselines plus every (strategy, seed, order) run, optionally probed.

    The grid's independent units run on ``plan.workers`` worker processes
    (``rgdlab.pool``), each with one BLAS thread, and the results do not
    depend on the worker count.  The units are the base-model build; then
    the runs of each (seed, order), which share every stage whose replay
    counts agree so far (see ``run_sequence``), and the single-task and
    multi-task baselines of each run seed; and one probe per most-forgotten
    task of a ``none`` run, dispatched as soon as that run has ended.  All
    runs start from one base checkpoint, and single-task baselines are
    computed once per run seed and reused across strategies and orders.
    Stage checkpoints are written if and only if ``runs_dir`` is given: the
    unit that trained them writes ``<runs_dir>/<run_dir_name>/checkpoints/``
    (see ``_run_group``).  The returned runs carry no checkpoints.  ``runs``
    lists the records in grid order: strategy, then seed, then order.
    """
    singles: dict[int, dict[str, float]] = {}
    multis: dict[int, dict[str, float]] = {}
    groups: dict[tuple[int, int], dict[str, RunResult]] = {}
    probes: dict[tuple[int, int], list[ProbeRecord | None]] = {}   # in forgetting order

    def after_base(base):
        return ([(_run_group, (suite, plan, seed, order, base, runs_dir),
                  functools.partial(after_group, seed, order))
                 for seed in plan.run_seeds for order in plan.orders]
                + [(run_single_baselines, (suite, plan, seed, base),
                    functools.partial(singles.__setitem__, seed)) for seed in plan.run_seeds]
                + [(run_multitask, (suite, plan, seed, base),
                    functools.partial(multis.__setitem__, seed)) for seed in plan.run_seeds])

    def after_group(seed, order, value):
        if isinstance(value, dict):             # the runs by strategy
            groups[seed, order] = value
            return []
        model, tasks = value                    # the none run's end: probe it
        records = probes[seed, order] = [None] * len(tasks)
        return [(probe_task, (suite, plan, order, derive_seed(seed, order), model, task),
                 functools.partial(records.__setitem__, i)) for i, task in enumerate(tasks)]

    from . import pool    # here: a process that runs no grid never loads the pool's modules

    pool.run(plan.workers, [(build_base_model, (suite, plan), after_base)])

    runs = []
    for strategy in plan.strategies:
        for seed in plan.run_seeds:
            for order in plan.orders:
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
        runs=runs, probes=[record for seed in plan.run_seeds for order in plan.orders
                           for record in probes.get((seed, order), ())])
