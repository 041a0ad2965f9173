"""Tests for the synthetic task suite and probing prompts."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from rgdlab import driver, fileio, taskgen
from rgdlab.errors import ConfigError, InputError
from rgdlab.taskgen import (
    DEFAULT_TAP_TEMPLATE,
    GLOBAL_FEATURES,
    PROMPT_PREFIX,
    RESULT_MARKER,
    Example,
    TaskSpec,
    make_suite,
    make_warmup_corpus,
    partial_rationale_prompt,
    render_example,
    render_prompt,
    scan_answer_leak,
    tap_prompt,
    training_target_tokens,
)


@pytest.fixture(scope="module")
def suite():
    return make_suite(5, 30, 10, seed=1, probe_per_task=8)


class TestMakeSuite:
    def test_cardinality_contract(self, suite):
        assert len(suite.specs) == 5
        for spec in suite.specs:
            assert len(suite.train[spec.task_id]) == 30
            assert len(suite.eval[spec.task_id]) == 10
            assert len(suite.probe[spec.task_id]) == 8

    def test_splits_disjoint(self, suite):
        for spec in suite.specs:
            inputs = set()
            for split in (suite.train, suite.eval, suite.probe):
                for ex in split[spec.task_id]:
                    key = ex.instruction
                    assert key not in inputs
                    inputs.add(key)

    def test_deterministic(self):
        a = make_suite(3, 10, 5, seed=4)
        b = make_suite(3, 10, 5, seed=4)
        assert a == b

    def test_single_task_rejected(self):
        with pytest.raises(ConfigError):
            make_suite(1, 10, 5, seed=0)

    def test_too_many_tasks_rejected(self):
        with pytest.raises(ConfigError):
            make_suite(16, 10, 5, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            make_suite(2, 10, 5, seed=-1)

    def test_distinct_phrasings_and_labels(self):
        suite = make_suite(10, 5, 2, seed=2, probe_per_task=2)
        instructions = [s.instruction for s in suite.specs]
        labels = [s.label_set for s in suite.specs]
        assert len(set(instructions)) == len(instructions)
        assert len(set(labels)) == len(labels)

    def test_two_distinct_orders(self, suite):
        first, second = suite.orders
        assert sorted(first) == sorted(second)
        assert first != second
        assert first == tuple(s.task_id for s in suite.specs)

    def test_answers_in_label_set(self, suite):
        for spec in suite.specs:
            for ex in suite.train[spec.task_id]:
                assert ex.answer in spec.label_set


class TestRenderExample:
    def test_presence_labeling_rule(self, suite):
        spec = next(s for s in suite.specs if s.input_grammar["family"] == "presence")
        marker = spec.input_grammar["marker"]
        others = [w for w in taskgen.CONTENT_POOL if w != marker][:6]
        with_marker = tuple([marker] + others[:5])
        without = tuple(others[:6])
        assert render_example(spec, with_marker, "x").answer == spec.label_set[0]
        assert render_example(spec, without, "x").answer == spec.label_set[1]

    def test_feature_matches_answer(self, suite):
        for spec in suite.specs:
            for ex in suite.eval[spec.task_id]:
                expected = GLOBAL_FEATURES[spec.label_set.index(ex.answer)]
                assert expected in ex.rationale

    def test_every_rationale_is_a_table_entry(self, suite):
        # rgd.rgd_records scores one unconditional NLL per distinct rationale.
        examples = [ex for split in (suite.train, suite.eval, suite.probe)
                    for spec in suite.specs for ex in split[spec.task_id]]
        examples += make_warmup_corpus(200, seed=5)
        assert {ex.rationale for ex in examples} == set(taskgen.RATIONALES)

    def test_input_outside_grammar_rejected(self, suite):
        spec = suite.specs[0]
        with pytest.raises(InputError):
            render_example(spec, ("not-a-word",) * 6, "x")
        with pytest.raises(InputError):
            render_example(spec, ("cat",) * 3, "x")

    def test_no_label_in_rationale_prefix(self, suite):
        # first 30% of every rationale holds no label string
        for spec in suite.specs:
            for split in (suite.train, suite.eval, suite.probe):
                for ex in split[spec.task_id]:
                    prefix = ex.rationale[:math.ceil(0.3 * len(ex.rationale))]
                    assert not set(spec.label_set) & set(prefix)

    def test_leak_scan_clean(self, suite):
        for spec in suite.specs:
            examples = (suite.train[spec.task_id] + suite.eval[spec.task_id]
                        + suite.probe[spec.task_id])
            assert scan_answer_leak(examples, spec) == []

    def test_leak_scan_catches_planted_leak(self, suite):
        spec = suite.specs[0]
        ex = suite.train[spec.task_id][0]
        bad = Example(task_id=ex.task_id, id="planted", answer=ex.answer,
                      instruction=ex.instruction,
                      rationale=(spec.label_set[0],) + ex.rationale[1:])
        assert scan_answer_leak([bad], spec) == ["planted"]


class TestTrainingTarget:
    def test_single_marker_and_answer_last(self, suite):
        for spec in suite.specs:
            for ex in suite.train[spec.task_id][:5]:
                target = training_target_tokens(ex)
                assert target.count(RESULT_MARKER) == 1
                assert target[-2] == RESULT_MARKER
                assert target[-1] == ex.answer


class TestPartialRationalePrompt:
    def test_k_zero_is_instruction(self, suite):
        ex = suite.train[suite.specs[0].task_id][0]
        assert partial_rationale_prompt(ex, 0.0) == ex.instruction

    def test_k_one_is_full_rationale(self, suite):
        ex = suite.train[suite.specs[0].task_id][0]
        assert partial_rationale_prompt(ex, 1.0) == ex.instruction + ex.rationale

    def test_ceiling_rule(self):
        ex = Example(task_id="t", id="x", instruction=("q",),
                     rationale=tuple("abcdefg"), answer="yes")
        assert partial_rationale_prompt(ex, 0.5) == ("q",) + tuple("abcd")

    def test_monotone_in_k(self, suite):
        ex = suite.train[suite.specs[1].task_id][0]
        lengths = [len(partial_rationale_prompt(ex, k))
                   for k in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)]
        assert lengths == sorted(lengths)

    def test_out_of_range_k(self, suite):
        ex = suite.train[suite.specs[0].task_id][0]
        with pytest.raises(ConfigError):
            partial_rationale_prompt(ex, 1.5)
        with pytest.raises(ConfigError):
            partial_rationale_prompt(ex, -0.1)


class TestTapPrompt:
    def test_empty_demos(self, suite):
        ex = suite.eval[suite.specs[0].task_id][0]
        prompt = tap_prompt(ex, [])
        assert prompt == tuple(DEFAULT_TAP_TEMPLATE.split()) + ex.instruction

    def test_demos_fully_rendered_and_ordered(self, suite):
        ex = suite.eval[suite.specs[0].task_id][0]
        demos = [suite.train[suite.specs[1].task_id][0],
                 suite.train[suite.specs[2].task_id][0]]
        prompt = tap_prompt(ex, demos)
        assert sum(1 for t in prompt if t == RESULT_MARKER) == 2
        assert prompt[-len(ex.instruction):] == ex.instruction
        for demo in demos:
            assert demo.answer in prompt

    def test_same_task_demo_rejected(self, suite):
        task = suite.specs[0].task_id
        ex = suite.eval[task][0]
        with pytest.raises(ConfigError):
            tap_prompt(ex, [suite.train[task][0]])


class TestRenderPrompt:
    def test_prefix_then_instruction(self, suite):
        ex = suite.train[suite.specs[0].task_id][0]
        assert render_prompt(ex.instruction) == PROMPT_PREFIX + ex.instruction

    def test_empty_instruction_stays_empty(self):
        assert render_prompt(()) == ()

    def test_one_module_renders_prompts(self):
        package = Path(taskgen.__file__).parent
        owners = sorted(p.name for p in package.glob("*.py") if "PROMPT_PREFIX" in p.read_text())
        assert owners == ["taskgen.py"]


class TestWarmupCorpus:
    def test_deterministic(self):
        assert make_warmup_corpus(50, seed=3) == make_warmup_corpus(50, seed=3)

    def test_answer_follows_feature_rule(self):
        for ex in make_warmup_corpus(200, seed=5):
            if not ex.instruction:
                continue
            hint = ex.instruction[ex.instruction.index("hint") + 1]
            opts_at = ex.instruction.index("options")
            first, second = ex.instruction[opts_at + 1], ex.instruction[opts_at + 3]
            assert ex.answer == (first, second)[GLOBAL_FEATURES.index(hint)]
            assert hint in ex.rationale


# Reference generators: the straightforward form of make_suite and
# make_warmup_corpus, kept here to pin the fast path to the same stream.
# Every draw, label and token must come out the same, since the suite stream
# fixes every checkpoint trained on it.

def reference_label(grammar, words):
    family, labels = grammar["family"], grammar["labels"]
    if family == "presence":
        return labels[0] if grammar["marker"] in words else labels[1]
    if family == "position":
        return labels[0] if words.index(grammar["marker"]) < taskgen.INPUT_LEN // 2 else labels[1]
    if family == "parity":
        return labels[0] if words.count(grammar["marker"]) % 2 == 0 else labels[1]
    if family == "relation":
        return labels[0] if words[0] == words[-1] else labels[1]
    a, b = grammar["groups"]
    count_a = sum(w in taskgen.CONTENT_GROUPS[a] for w in words)
    count_b = sum(w in taskgen.CONTENT_GROUPS[b] for w in words)
    return labels[0] if count_a > count_b else labels[1]


def reference_sample_input(grammar, rng):
    family = grammar["family"]
    pool = list(taskgen.CONTENT_POOL)
    n = taskgen.INPUT_LEN

    def draw(k, exclude=()):
        candidates = [w for w in pool if w not in exclude]
        return [candidates[i] for i in rng.integers(0, len(candidates), size=k)]

    if family == "presence":
        words = draw(n, exclude=(grammar["marker"],))
        if rng.random() < 0.5:
            words[int(rng.integers(0, n))] = grammar["marker"]
    elif family == "position":
        words = draw(n, exclude=(grammar["marker"],))
        words[int(rng.integers(0, n))] = grammar["marker"]
    elif family == "parity":
        words = draw(n, exclude=(grammar["marker"],))
        count = int(rng.integers(1, 3))
        for slot in rng.choice(n, size=count, replace=False):
            words[int(slot)] = grammar["marker"]
    elif family == "relation":
        a, b = grammar["marker"], grammar["marker_b"]
        words = draw(n, exclude=(a, b))
        first = a if rng.random() < 0.5 else b
        last = first if rng.random() < 0.5 else (b if first == a else a)
        words[0], words[-1] = first, last
    else:
        dominant = grammar["groups"][int(rng.integers(0, 2))]
        inside = list(taskgen.CONTENT_GROUPS[dominant])
        outside = [w for w in pool if w not in taskgen.CONTENT_GROUPS[dominant]]
        words = [inside[i] for i in rng.integers(0, len(inside), size=4)]
        words += [outside[i] for i in rng.integers(0, len(outside), size=2)]
        words = [words[i] for i in rng.permutation(n)]
    return tuple(words)


def reference_render(spec, words, ex_id):
    answer = reference_label(spec.input_grammar, words)
    instruction = " ".join(spec.instruction + ("{input}",)).format(input=" ".join(words))
    feature = GLOBAL_FEATURES[spec.label_set.index(answer)]
    return Example(task_id=spec.task_id, id=ex_id, instruction=tuple(instruction.split()),
                   rationale=tuple(f"the word {feature} here .".split()), answer=answer)


def reference_suite(num_tasks, train_per_task, eval_per_task, seed, probe_per_task):
    rng = np.random.default_rng(seed)
    specs = taskgen._build_specs(num_tasks, rng)
    splits = {"train": train_per_task, "eval": eval_per_task, "probe": probe_per_task}
    sets = {name: {} for name in splits}
    for spec in specs:
        seen = set()
        for split, size in splits.items():
            examples = []
            while len(examples) < size:
                words = reference_sample_input(spec.input_grammar, rng)
                if words in seen:
                    continue
                seen.add(words)
                rng.integers(0, 2**31)      # the per-example seed draw
                examples.append(reference_render(
                    spec, words, f"{spec.task_id}-{split}-{len(examples):04d}"))
            sets[split][spec.task_id] = tuple(examples)
    first = tuple(s.task_id for s in specs)
    second = first
    while second == first:
        second = tuple(first[i] for i in rng.permutation(num_tasks))
    return taskgen.Suite(specs=specs, train=sets["train"], eval=sets["eval"],
                         probe=sets["probe"], orders=(first, second), seed=seed)


def reference_warmup_corpus(n_examples, seed):
    lexicon = taskgen.label_lexicon()
    phrase = tuple(taskgen._WARMUP_PHRASE.split())
    rationales = [tuple(f"{taskgen.SCAFFOLD_BODY.format(feature=f)} .".split())
                  for f in GLOBAL_FEATURES]
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n_examples):
        pick = int(rng.integers(0, 2))
        first = lexicon[int(rng.integers(0, len(lexicon)))]
        second = first
        while second == first:
            second = lexicon[int(rng.integers(0, len(lexicon)))]
        words = rng.integers(0, len(taskgen.CONTENT_POOL), size=taskgen.INPUT_LEN).tolist()
        if rng.random() < 0.5:
            instruction = ()
        else:
            instruction = phrase + (",", "hint", GLOBAL_FEATURES[pick], ",", "options", first,
                                    "or", second, ":") + tuple(taskgen.CONTENT_POOL[j]
                                                               for j in words)
        examples.append(Example(task_id=taskgen.WARMUP_TASK_ID,
                                id=f"{taskgen.WARMUP_TASK_ID}-{i:04d}",
                                instruction=instruction, rationale=rationales[pick],
                                answer=(first, second)[pick]))
    return tuple(examples)


class TestReferenceEquivalence:
    # 7 and 15 tasks make the variants cycle, so families and markers repeat.
    @pytest.mark.parametrize("num_tasks", [2, 5, 7, 15])
    @pytest.mark.parametrize("seed", [0, 3, 104729])
    @pytest.mark.parametrize("sizes", [(12, 4, 3), (60, 30, 32)])
    def test_make_suite_matches_reference(self, num_tasks, seed, sizes):
        train, eval_, probe = sizes
        got = make_suite(num_tasks, train, eval_, seed=seed, probe_per_task=probe)
        assert got == reference_suite(num_tasks, train, eval_, seed, probe)

    @pytest.mark.parametrize("n_examples", [1, 57, 400])
    @pytest.mark.parametrize("seed", [0, 3, 104729])
    def test_warmup_corpus_matches_reference(self, n_examples, seed):
        assert make_warmup_corpus(n_examples, seed) == reference_warmup_corpus(n_examples, seed)

    @staticmethod
    def hand_spec(instruction):
        return TaskSpec(
            task_id="hand", instruction=tuple(instruction.split()), label_set=("front", "back"),
            input_grammar={"family": "position", "labels": ("front", "back"), "marker": "cat"})

    def test_render_example_appends_the_input(self):
        spec = self.hand_spec("which half holds the word cat ? options front or back :")
        words = ("dog", "cat", "fox", "owl", "bee", "elk")
        ex = render_example(spec, words, "hand-9")
        assert ex.instruction == spec.instruction + words
        assert ex.rationale == ("the", "word", "fits", "here", ".") and ex.answer == "front"
        assert ex.id == "hand-9"

    def test_render_example_matches_reference(self):
        spec = self.hand_spec("options front or back :")
        for words in (("dog", "cat", "fox", "owl", "bee", "elk"),
                      ("dog", "fox", "owl", "bee", "elk", "cat")):
            assert render_example(spec, words, "hand-9") == reference_render(spec, words, "hand-9")

    def test_small_suites_match_reference_across_seeds(self):
        for seed in range(200):
            num_tasks = 2 + seed % 14
            assert (make_suite(num_tasks, 3, 2, seed=seed, probe_per_task=2)
                    == reference_suite(num_tasks, 3, 2, seed, 2)), seed
            n_examples = 1 + seed % 40
            assert (make_warmup_corpus(n_examples, seed)
                    == reference_warmup_corpus(n_examples, seed)), seed


def generator_draw(rng, method, args, size=None):
    if method == "choice":
        return rng.choice(*args, size=size, replace=False).tolist()
    if method == "integers":
        return np.asarray(rng.integers(*args, size=size)).tolist()
    return np.asarray(getattr(rng, method)(*args)).tolist()


def sampler_draw(sampler, method, args, size=None):
    if method == "choice":
        return sampler.choice(*args, size)
    if method == "integers":
        return sampler.integers(*args, size=size)
    return getattr(sampler, method)(*args)


class TestSampler:
    """taskgen's sampler against numpy's Generator on the same seed, with the
    draws interleaved in the same order: every value must be the same."""

    SCRIPT = [
        ("integers", (0, 6)),               # a fresh word's lower half; the upper waits
        ("random", ()),                     # a fresh word, not the waiting half
        ("integers", (0, 22), 6),
        ("integers", (5, 6)),               # a range of one value reads no word
        ("integers", (5, 6), 3),
        ("permutation", (6,)),
        ("random", ()),
        ("choice", (6,), 2),
        ("choice", (6,), 1),
        ("choice", (4,), 4),                # Floyd's first pick, from range(1), reads no word
        ("integers", (0, 2**31)),
        ("integers", (0, 3 * 2**30), 64),   # Lemire rejects about a quarter of these
        ("permutation", (33,)),             # masks to 63, so about half the first draws reject
        ("integers", (1, 3)),
        ("permutation", (1,)),
        ("integers", (0, 2**32), 3),
    ]

    @staticmethod
    def assert_same(seed, script):
        rng, sampler = np.random.default_rng(seed), taskgen._Sampler(seed)
        for step, (method, args, *size) in enumerate(script):
            want = generator_draw(rng, method, args, *size)
            assert sampler_draw(sampler, method, args, *size) == want, (seed, step, method)

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 104729, 3054673087, 2**63 + 5])
    def test_interleaved_draws_match_generator(self, seed):
        self.assert_same(seed, self.SCRIPT * 40)

    def test_lemire_rejections_match_generator(self):
        # 2**32 % (3 * 2**30) == 2**30: a quarter of the draws are redrawn
        self.assert_same(5, [("integers", (0, 3 * 2**30), 1000), ("integers", (0, 3 * 2**30))] * 20)

    def test_masked_rejection_in_permutation_matches_generator(self):
        self.assert_same(5, [("permutation", (n,)) for n in (5, 6, 9, 17, 33, 65)] * 50)

    def test_floyd_collisions_in_choice_match_generator(self):
        # the second pick repeats the first in a sixth of the draws, and is then 5
        self.assert_same(5, [("choice", (6,), 2)] * 600)

    def test_suites_build_no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy Generator was built")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)
        make_suite(7, 5, 3, seed=2, probe_per_task=2)
        make_warmup_corpus(50, seed=2)


def examples_text(examples, tmp_path):
    path = tmp_path / "examples.jsonl"
    fileio.write_examples(examples, path)
    return path.read_bytes()


CONFIGS = Path(__file__).parent.parent / "configs"


class TestPinnedContent:
    """sha256 digests of the written examples, recorded when suites were
    drawn from numpy's Generator: the suites every checkpoint trains on."""

    @pytest.mark.parametrize("source, digest", [
        ("harness5", "22a874cf5e690ec01e28adeb3b9995384691edfadb9bf0178c40f872cef162b1"),
        ("harness8", "7ae44528b45cf03f69fc2cc0b46fc25c16bebcf72dd341efbbe8b4b023fe17c4"),
        # perfbench's grid suite at --seed 1
        ((5, 60, 30, 3054673087, 32),
         "c5436f4483e68afca84277f62cc5ff57fb4dcbfaf454f293ec2f6a993911cdb7"),
    ], ids=["harness5", "harness8", "perfbench-grid-seed1"])
    def test_suite(self, source, digest, tmp_path):
        if isinstance(source, str):         # a checked-in config
            suite = fileio.load_experiment_config(CONFIGS / f"{source}.json").make_suite()
        else:                               # make_suite's arguments
            suite = make_suite(*source)
        h = hashlib.sha256()
        for table in (suite.train, suite.eval, suite.probe):
            h.update(examples_text([ex for spec in suite.specs for ex in table[spec.task_id]],
                                   tmp_path))
        h.update(repr(suite.orders).encode())
        assert h.hexdigest() == digest

    def test_harness_warmup_corpus(self, tmp_path):
        seed = driver.derive_seed(11, driver._SALT_WARMUP)      # both harness suites use seed 11
        text = examples_text(make_warmup_corpus(2000, seed), tmp_path)
        assert (hashlib.sha256(text).hexdigest()
                == "acda7360cb7b4523c9af7bf377d8e497a44cdbd8856b66099347d13980389f50")
