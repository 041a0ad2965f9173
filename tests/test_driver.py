"""Functional tests for the sequential-run driver at miniature scale."""

import ast
import collections
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from rgdlab import driver, fileio, pool, rgd, taskgen, tinylm
from rgdlab.errors import ConfigError, InputError

TINY_TRAIN = driver.TrainSettings(learning_rate=0.15, epochs=3, batch_size=16)
TINY_WARM = driver.TrainSettings(learning_rate=0.25, epochs=5, batch_size=16)


def tiny_cfg(strategy="none", seed=7, order=0, **kw):
    kw.setdefault("train", TINY_TRAIN)
    kw.setdefault("warmup", TINY_WARM)
    kw.setdefault("warmup_examples", 300)
    return driver.RunConfig(strategy=strategy, run_seed=seed, order_index=order, **kw)


@pytest.fixture(scope="module")
def suite():
    return taskgen.make_suite(3, 40, 10, seed=5, probe_per_task=8)


@pytest.fixture(scope="module")
def base(suite):
    return driver.build_base_model(suite, tiny_cfg())


class TestRunConfig:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            tiny_cfg(strategy="magic")

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            tiny_cfg(replay=driver.ReplaySettings(budget_fraction=1.5))


class TestStrategyTable:
    def test_every_strategy_has_a_report_label(self):
        assert set(driver.STRATEGIES) <= set(fileio.REPORT_STRATEGY_LABELS)

    def test_grids_run_every_strategy_by_default(self):
        assert driver.ExperimentPlan(run_seeds=(1,)).strategies == driver.STRATEGIES
        assert driver.STRATEGIES == ("none", *driver.ALLOCATORS)


class TestRunSequence:
    def test_matrix_shape(self, suite, base):
        res = driver.run_sequence(suite, tiny_cfg(), a0={s.task_id: 50.0 for s in suite.specs},
                                  base_model=base)
        assert res.matrix.num_tasks == 3
        assert sum(len(r) for r in res.matrix.rows) == 6
        assert len(res.matrix.a0) == 3
        assert len(res.summaries) == 3
        assert res.plans == [None, None, None]

    def test_deterministic(self, suite, base):
        a0 = {s.task_id: 50.0 for s in suite.specs}
        r1 = driver.run_sequence(suite, tiny_cfg(strategy="equal"), a0=a0, base_model=base)
        r2 = driver.run_sequence(suite, tiny_cfg(strategy="equal"), a0=a0, base_model=base)
        assert r1.matrix == r2.matrix
        assert [p.counts for p in r1.plans if p] == [p.counts for p in r2.plans if p]

    def test_replay_plans_budget_and_pools(self, suite, base):
        a0 = {s.task_id: 50.0 for s in suite.specs}
        cfg = tiny_cfg(strategy="equal", replay=driver.ReplaySettings(budget_fraction=0.1))
        res = driver.run_sequence(suite, cfg, a0=a0, base_model=base)
        for stage, plan in enumerate(res.plans):
            if stage == 0:
                assert plan is None
                continue
            expected_budget = round(0.1 * 40 * stage)
            assert plan.budget == expected_budget
            assert sum(plan.counts.values()) == expected_budget
            for task, count in plan.counts.items():
                assert count <= len(suite.train[task])

    def test_all_strategies_run(self, suite, base):
        a0 = {s.task_id: 50.0 for s in suite.specs}
        for strategy in driver.STRATEGIES:
            cfg = tiny_cfg(strategy=strategy, replay=driver.ReplaySettings(budget=6))
            res = driver.run_sequence(suite, cfg, a0=a0, base_model=base)
            assert res.matrix.num_tasks == 3

    def test_summaries_cover_seen_tasks(self, suite, base):
        res = driver.run_sequence(suite, tiny_cfg(), a0={s.task_id: 50.0 for s in suite.specs},
                                  base_model=base)
        order = res.order
        for stage, summ in enumerate(res.summaries):
            assert set(summ) == set(order[:stage + 1])
            for s in summ.values():
                assert s.n == 8

    def test_order_index_selects_canonical_order(self, suite, base):
        a0 = {s.task_id: 50.0 for s in suite.specs}
        r0 = driver.run_sequence(suite, tiny_cfg(order=0), a0=a0, base_model=base)
        r1 = driver.run_sequence(suite, tiny_cfg(order=1), a0=a0, base_model=base)
        assert r0.order == suite.orders[0]
        assert r1.order == suite.orders[1]


class TestBaselines:
    def test_single_baselines_shape_and_range(self, suite, base):
        a0 = driver.run_single_baselines(suite, tiny_cfg(), 7, base_model=base)
        assert set(a0) == {s.task_id for s in suite.specs}
        assert all(0 <= v <= 100 for v in a0.values())

    def test_single_baselines_deterministic(self, suite, base):
        one = driver.run_single_baselines(suite, tiny_cfg(), 7, base_model=base)
        two = driver.run_single_baselines(suite, tiny_cfg(), 7, base_model=base)
        assert one == two

    def test_multitask_shape_and_determinism(self, suite, base):
        one = driver.run_multitask(suite, tiny_cfg(), 7, base_model=base)
        two = driver.run_multitask(suite, tiny_cfg(), 7, base_model=base)
        assert one == two
        assert set(one) == {s.task_id for s in suite.specs}

    def test_warmup_corpus_is_freed_before_training(self, suite, monkeypatch):
        class Corpus(list):                 # a tuple cannot be weakly referenced
            pass

        refs, alive = [], []
        make_corpus, train = taskgen.make_warmup_corpus, tinylm.train

        def making(*args, **kwargs):
            corpus = Corpus(make_corpus(*args, **kwargs))
            refs.append(weakref.ref(corpus))
            return corpus

        def training(*args):
            alive.append(refs[0]() is not None)
            return train(*args)

        monkeypatch.setattr(taskgen, "make_warmup_corpus", making)
        monkeypatch.setattr(tinylm, "train", training)
        driver.build_base_model(suite, tiny_cfg(warmup_examples=20))
        assert alive == [False]

    def test_one_function_trains(self):
        package = Path(driver.__file__).parent
        calls = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if callee in ("train", "TrainConfig"):
                        calls.append((path.name, callee))
        assert sorted(calls) == [("driver.py", "TrainConfig"), ("driver.py", "train")]
        source = inspect.getsource(driver._train)
        assert "tinylm.train(" in source and "tinylm.TrainConfig(" in source

    def test_benchmark_targets_exist(self, monkeypatch):
        # perfbench/spans.py wraps these module attributes by name; a rename
        # or a removal would break the traced benchmark.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)   # dataclasses look it up
        spec.loader.exec_module(spans)
        assert spans.TARGETS
        for module, attr, _, _ in spans.TARGETS:
            fn = getattr(importlib.import_module(f"rgdlab.{module}"), attr, None)
            assert callable(fn), f"rgdlab.{module}.{attr}"


class TestProbes:
    def test_partial_grid_shape_and_boundary(self, suite, base):
        task = suite.specs[0].task_id
        grid = driver.probe_partial_rationale(base, suite.eval[task], (0.0, 0.5, 1.0))
        assert [k for k, _ in grid] == [0.0, 0.5, 1.0]
        plain = driver.evaluate_accuracy(base, suite.eval[task])
        assert grid[0][1] == plain

    def test_tap_zero_arm_is_instruction_only(self, suite, base):
        task = suite.specs[0].task_id
        pool = [ex for s in suite.specs if s.task_id != task for ex in suite.train[s.task_id]]
        examples = suite.eval[task][:4]
        tap = driver.probe_tap(base, examples, pool, seed=3)
        assert tap[0] == (0, 0, driver.evaluate_accuracy(base, examples))
        assert [arm[:2] for arm in tap] == [(0, 0)] + [
            (count, draw) for count in (1, 2, 4, 8) for draw in range(3)]

    def test_tap_prompts_are_rendered(self, suite, base, monkeypatch):
        task = suite.specs[0].task_id
        pool = [ex for s in suite.specs if s.task_id != task for ex in suite.train[s.task_id]]
        prompts = []
        original = driver._decoded_accuracy

        def recording(model, batch, examples):
            prompts.extend(batch)
            return original(model, batch, examples)

        monkeypatch.setattr(driver, "_decoded_accuracy", recording)
        driver.probe_tap(base, suite.eval[task][:4], pool, seed=3)
        assert len(prompts) == 4 * (1 + 4 * 3)
        prefix = taskgen.PROMPT_PREFIX
        assert all(tuple(prompt[:len(prefix)]) == prefix for prompt in prompts)

    def test_tap_deterministic(self, suite, base):
        task = suite.specs[1].task_id
        pool = [ex for s in suite.specs if s.task_id != task for ex in suite.train[s.task_id]]
        one = driver.probe_tap(base, suite.eval[task], pool, seed=9)
        two = driver.probe_tap(base, suite.eval[task], pool, seed=9)
        assert one == two

    def test_tap_empty_pool_rejected(self, suite, base):
        task = suite.specs[0].task_id
        with pytest.raises(ConfigError):
            driver.probe_tap(base, suite.eval[task], suite.train[task])

    def test_one_probe_unit(self):
        """Only ``driver.probe_task`` reaches the two probes, so ``run-seq`` and
        ``rgdlab probe`` run one probe unit."""
        package = Path(driver.__file__).parent
        callers = []
        for path in sorted(package.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    name = getattr(node, "attr", getattr(node, "id", None))
                    if name in ("probe_partial_rationale", "probe_tap"):
                        callers.append((path.name, getattr(top, "name", None), name))
        assert sorted(callers) == [("driver.py", "probe_task", "probe_partial_rationale"),
                                   ("driver.py", "probe_task", "probe_tap")]

    def test_probe_needs_examples(self, base):
        with pytest.raises(InputError):
            driver.probe_partial_rationale(base, [])


class TestScoreTaskRgd:
    def test_matches_per_example_records(self, suite, base):
        examples = suite.probe[suite.specs[0].task_id]
        expected = rgd.task_rgd([rgd.rgd_from_model(base, ex) for ex in examples])
        assert driver.score_task_rgd(base, examples) == expected

    @pytest.mark.parametrize("probe_per_task, n", [(4, 4), (40, 32)])
    def test_scores_the_first_32_probe_examples(self, base, probe_per_task, n):
        """``RGD_EVAL_SIZE`` caps the slice; a shorter slice is scored whole."""
        suite = taskgen.make_suite(3, 40, 10, seed=5, probe_per_task=probe_per_task)
        examples = suite.probe[suite.specs[0].task_id]
        summary = driver.score_task_rgd(base, examples)
        assert driver.RGD_EVAL_SIZE == driver.ExperimentPlan.rgd_eval_size == 32
        assert summary.n == n
        assert summary == rgd.task_rgd(rgd.rgd_records(base, examples[:n]))

    def test_scores_the_prompt_the_model_trained_on(self, suite, base, monkeypatch):
        examples = suite.probe[suite.specs[0].task_id]
        calls = []
        original = tinylm.batch_nll

        def recording(model, pairs):
            calls.append([list(context) for context, _ in pairs])
            return original(model, pairs)

        monkeypatch.setattr(tinylm, "batch_nll", recording)
        rgd.rgd_records(base, examples)
        contexts = [driver.training_pair(base.vocab, ex)[0] for ex in examples]
        assert calls[0][:len(examples)] == contexts
        assert all(context for context in contexts)

    def test_one_unconditional_nll_per_rationale(self, suite, base, monkeypatch):
        examples = [ex for spec in suite.specs for ex in suite.probe[spec.task_id]]
        calls = []
        original = tinylm.batch_nll

        def counting(model, pairs):
            calls.append([tuple(context) for context, _ in pairs])
            return original(model, pairs)

        monkeypatch.setattr(tinylm, "batch_nll", counting)
        for spec in suite.specs:
            driver.score_task_rgd(base, suite.probe[spec.task_id])
        rows = [context for call in calls for context in call]
        distinct = {(ex.task_id, ex.rationale) for ex in examples}
        assert len(distinct) < len(examples)
        assert len(calls) == len(suite.specs)               # one forward pass per task slice
        assert len(rows) == len(examples) + len(distinct)
        assert rows.count(()) == len(distinct)


class TestReplayMitigates:
    def test_equal_beats_none_on_most_tasks(self, suite, base):
        # paired-run comparison: replay should not score worse on the final
        # row for the majority of earlier tasks
        a0 = {s.task_id: 50.0 for s in suite.specs}
        cfg_kw = dict(train=driver.TrainSettings(learning_rate=0.15, epochs=6, batch_size=16),
                      warmup=TINY_WARM, warmup_examples=300,
                      replay=driver.ReplaySettings(budget_fraction=0.15))
        none = driver.run_sequence(
            suite, driver.RunConfig(strategy="none", run_seed=7, order_index=0, **cfg_kw),
            a0=a0, base_model=base)
        equal = driver.run_sequence(
            suite, driver.RunConfig(strategy="equal", run_seed=7, order_index=0, **cfg_kw),
            a0=a0, base_model=base)
        final_none = none.matrix.rows[-1]
        final_equal = equal.matrix.rows[-1]
        wins = sum(e >= n for e, n in zip(final_equal[:-1], final_none[:-1]))
        assert wins * 2 >= len(final_none) - 1


class TestInsclPlans:
    # At suite seed 3, t02 and t03 lie at exactly the same distance (2891/5700)
    # from t05; summed in set order their floats could differ by a rounding,
    # which the hash seed decided.
    SCRIPT = textwrap.dedent("""\
        import json
        from rgdlab import driver, taskgen
        suite = taskgen.make_suite(5, 60, 5, seed=3, probe_per_task=4)
        cfg = driver.RunConfig(strategy="inscl", run_seed=7,
                               replay=driver.ReplaySettings(budget=10))
        order = suite.orders[0]
        print(json.dumps([driver._stage_plan(cfg, driver.PlanInputs(suite, order, stage, {})).counts
                          for stage in range(1, len(order))]))
        """)

    def test_plans_do_not_depend_on_the_hash_seed(self):
        src = str(Path(driver.__file__).resolve().parents[1])
        outs = [subprocess.run([sys.executable, "-c", self.SCRIPT], check=True,
                               capture_output=True,
                               env={**os.environ, "PYTHONHASHSEED": hash_seed,
                                    "PYTHONPATH": src}).stdout
                for hash_seed in ("0", "3")]
        assert outs[0] == outs[1]
        # the tie goes to the earlier task
        assert list(json.loads(outs[0])[-1].values()) == [2, 3, 2, 3]


class TestExperiment:
    def test_grid_and_report_records(self, suite):
        plan = driver.ExperimentPlan(strategies=("none", "equal"), run_seeds=(7,),
                                     orders=(0,), train=TINY_TRAIN,
                                     warmup=TINY_WARM, warmup_examples=300,
                                     replay=driver.ReplaySettings(budget=6))
        result = driver.run_experiment(suite, plan)
        assert [(r.strategy, r.run_seed, r.order_index) for r in result.runs] == [
            ("none", 7, 0), ("equal", 7, 0)]
        assert set(result.singles[7]) == {s.task_id for s in suite.specs}
        assert set(result.multis[7]) == {s.task_id for s in suite.specs}

    @pytest.mark.parametrize("save", [False, True], ids=["probes", "probes-and-checkpoints"])
    def test_runs_carry_no_checkpoints(self, suite, tmp_path, save):
        plan = driver.ExperimentPlan(strategies=("none", "equal"), run_seeds=(7,),
                                     orders=(0,), train=TINY_TRAIN,
                                     warmup=TINY_WARM, warmup_examples=300,
                                     replay=driver.ReplaySettings(budget=6), run_probes=True,
                                     k_grid=(0.0,))
        result = driver.run_experiment(suite, plan, str(tmp_path / "runs") if save else None)
        assert len(result.probes) == len(suite.specs) - 1     # every task the run can forget
        assert [r.result.checkpoints for r in result.runs] == [[], []]
        written = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert len(written) == (2 * len(suite.specs) if save else 0)

    def test_probes_on_no_replay_runs(self, suite):
        plan = driver.ExperimentPlan(strategies=("none",), run_seeds=(7,),
                                     orders=(0,), train=TINY_TRAIN,
                                     warmup=TINY_WARM, warmup_examples=300,
                                     run_probes=True, k_grid=(0.0, 1.0))
        result = driver.run_experiment(suite, plan)
        assert len(result.probes) == 2
        for probe in result.probes:
            assert [k for k, _ in probe.partial] == [0.0, 1.0]
            assert [arm[:2] for arm in probe.tap] == [(0, 0)] + [
                (count, draw) for count in (1, 2, 4, 8) for draw in range(3)]


def _stage_keys(record):
    """(seed, order, replay counts of every stage so far) for each stage of a run."""
    order, counts = record.result.order, ()
    keys = []
    for stage, plan in enumerate(record.result.plans):
        counts += (tuple(plan.counts[t] if plan else 0 for t in order[:stage]),)
        keys.append((record.run_seed, record.order_index, counts))
    return keys


def _assert_same_run(shared, lone, checkpoints):
    """``shared`` and ``lone`` are one run; ``checkpoints`` are ``shared``'s
    stage checkpoints, held or read back from its files."""
    assert shared.order == lone.order
    assert shared.matrix == lone.matrix
    assert shared.summaries == lone.summaries
    assert [p and p.counts for p in shared.plans] == [p and p.counts for p in lone.plans]
    assert len(checkpoints) == len(lone.checkpoints) == len(shared.order)
    for mine, theirs in zip(checkpoints, lone.checkpoints):
        assert [p.tobytes() for _, p in mine.params()] == [p.tobytes() for _, p in theirs.params()]


def _checkpoint_files(runs_dir, record):
    """The stage checkpoint files of ``record``'s run under ``runs_dir``."""
    run = driver.run_dir_name(record.strategy, record.run_seed, record.order_index)
    return sorted((runs_dir / run / "checkpoints").glob("stage-*.json"))


def _counting_units(monkeypatch):
    """Names of the unit functions the parent sends to its pool workers."""
    sent = []
    original = pool._Worker.send

    def counting(worker, message):
        sent.append(message[0].__name__)
        original(worker, message)

    monkeypatch.setattr(pool._Worker, "send", counting)
    return sent


def _counting_train(monkeypatch):
    calls = []
    original = tinylm.train

    def counting(model, corpus, cfg):
        calls.append(cfg.seed)
        return original(model, corpus, cfg)

    monkeypatch.setattr(tinylm, "train", counting)
    return calls


class TestSharedStages:
    STRATEGIES = driver.STRATEGIES

    def plan(self, **kw):
        """A grid whose replay strategies allocate alike."""
        return driver.ExperimentPlan(strategies=self.STRATEGIES, train=TINY_TRAIN,
                                     warmup=TINY_WARM, warmup_examples=300,
                                     replay=driver.ReplaySettings(budget=6), **kw)

    @pytest.fixture(scope="class")
    def shared(self, suite, tmp_path_factory):
        """The grid, the units it ran and the directory of its run directories."""
        plan = self.plan(run_seeds=(7, 8), orders=(0, 1))
        runs_dir = tmp_path_factory.mktemp("shared") / "runs"
        with pytest.MonkeyPatch.context() as mp:
            units = _counting_units(mp)
            result = driver.run_experiment(suite, plan, str(runs_dir))
        return plan, result, collections.Counter(units), runs_dir

    def test_runs_equal_lone_runs(self, suite, base, shared):
        plan, result, _, runs_dir = shared
        for record in result.runs:
            cfg = plan.run_config(record.strategy, record.run_seed, record.order_index)
            lone = driver.run_sequence(suite, cfg, a0=result.singles[record.run_seed],
                                       base_model=base)
            assert record.result.checkpoints == []
            _assert_same_run(record.result, lone, [
                tinylm.load_model(path) for path in _checkpoint_files(runs_dir, record)])

    def test_one_training_per_distinct_stage(self, suite, shared):
        plan, result, units, runs_dir = shared
        keys = {key for record in result.runs for key in _stage_keys(record)}
        replayed = {key for r in result.runs if r.strategy != "none" for key in _stage_keys(r)}
        equal = {key for r in result.runs if r.strategy == "equal" for key in _stage_keys(r)}
        assert replayed == equal                # the replay strategies' plans coincide
        assert len(keys) < sum(len(r.result.order) for r in result.runs)
        seeds = len(plan.run_seeds)
        assert units == {"build_base_model": 1, "run_single_baselines": seeds,
                         "run_multitask": seeds, "_run_group": seeds * len(plan.orders)}
        # Training happens in the workers.  Each stage training makes one new
        # checkpoint, whose bytes every run of its group that reaches the
        # stage holds.
        stage_trainings = len({hashlib.sha256(path.read_bytes()).digest()
                               for record in result.runs
                               for path in _checkpoint_files(runs_dir, record)})
        train_calls = (units["build_base_model"]
                       + units["run_single_baselines"] * len(suite.specs)
                       + units["run_multitask"] + stage_trainings)
        # base warmup + singles per seed and task + multitask per seed + distinct stages
        assert train_calls == 1 + seeds * len(suite.specs) + seeds + len(keys)

    def test_stage_one_is_shared_by_all_strategies(self, suite, base, shared):
        _, result, _, runs_dir = shared
        firsts = {}
        for record in result.runs:
            first = _checkpoint_files(runs_dir, record)[0].read_bytes()
            assert firsts.setdefault((record.run_seed, record.order_index), first) == first
        assert len(set(firsts.values())) == len(firsts)
        stages = {}
        runs = [driver.run_sequence(suite,
                                    tiny_cfg(strategy, replay=driver.ReplaySettings(budget=6)),
                                    a0=result.singles[7], base_model=base, stages=stages)
                for strategy in self.STRATEGIES]
        assert all(run.checkpoints[0] is runs[0].checkpoints[0] for run in runs)
        with pytest.raises(ValueError):
            runs[0].checkpoints[0].embed[0, 0] = 0.0
        copy = runs[0].checkpoints[0].copy()
        copy.embed[0, 0] = 0.0

    def test_runs_stay_in_grid_order(self, shared):
        plan, result, _, _ = shared
        assert [(r.strategy, r.run_seed, r.order_index) for r in result.runs] == [
            (strategy, seed, order) for strategy in plan.strategies
            for seed in plan.run_seeds for order in plan.orders]

    def test_group_saves_each_stage_once(self, suite, base, tmp_path, monkeypatch):
        """The group unit, run here: one save per stage training, to every
        run that holds the stage, and runs yielded without checkpoints."""
        plan = self.plan(run_seeds=(7,), orders=(1,), run_probes=True)
        trains = _counting_train(monkeypatch)
        saved = []
        save = tinylm.save_model

        def counting(model, path, *copies):
            saved.append((path, *copies))
            save(model, path, *copies)

        monkeypatch.setattr(tinylm, "save_model", counting)
        (final, tasks), runs = driver._run_group(suite, plan, 7, 1, base, str(tmp_path))
        assert len(tasks) == len(suite.specs) - 1       # the none run's end, for its probes
        written = tinylm.load_model(tmp_path / "none-o1-s7/checkpoints/stage-03.json")
        assert [p.tobytes() for _, p in written.params()] == [
            p.tobytes() for _, p in final.params()]
        assert len(saved) == len(trains) < sum(len(run.order) for run in runs.values())
        files = sorted(tmp_path.glob("*/checkpoints/stage-*.json"))
        assert sorted(Path(p) for paths in saved for p in paths) == files
        assert len(files) == len(self.STRATEGIES) * len(suite.specs)
        assert len({path.read_bytes() for path in files}) == len(saved)
        assert all(run.checkpoints == [] for run in runs.values())

    def test_diverging_plans_share_only_their_prefix(self, suite, base, monkeypatch):
        a0 = {s.task_id: 50.0 for s in suite.specs}
        cfgs = [tiny_cfg(strategy, order=1, replay=driver.ReplaySettings(budget=30))
                for strategy in ("equal", "rgd-mean")]
        lone = [driver.run_sequence(suite, cfg, a0=a0, base_model=base) for cfg in cfgs]
        assert lone[0].plans[1].counts == lone[1].plans[1].counts
        assert lone[0].plans[2].counts != lone[1].plans[2].counts
        calls = _counting_train(monkeypatch)
        stages = {}
        shared = [driver.run_sequence(suite, cfg, a0=a0, base_model=base, stages=stages)
                  for cfg in cfgs]
        assert len(calls) == 3 + 1              # all of equal's stages, rgd-mean's last
        assert shared[0].checkpoints[1] is shared[1].checkpoints[1]
        assert shared[0].checkpoints[2] is not shared[1].checkpoints[2]
        for mine, theirs in zip(shared, lone):
            _assert_same_run(mine, theirs, mine.checkpoints)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert driver.derive_seed(1, 2, 3) == driver.derive_seed(1, 2, 3)
        assert driver.derive_seed(1, 2, 3) != driver.derive_seed(1, 2, 4)
