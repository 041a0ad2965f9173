"""Tests for the synthetic task suite and probing prompts."""

import math
from pathlib import Path

import pytest

from rgdlab import taskgen
from rgdlab.errors import ConfigError, InputError
from rgdlab.taskgen import (
    DEFAULT_TAP_TEMPLATE,
    GLOBAL_FEATURES,
    PROMPT_PREFIX,
    RESULT_MARKER,
    Example,
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

    def test_distinct_phrasings_and_labels(self):
        suite = make_suite(10, 5, 2, seed=2, probe_per_task=2)
        templates = [s.instruction_template for s in suite.specs]
        labels = [s.label_set for s in suite.specs]
        assert len(set(templates)) == len(templates)
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
        assert render_example(spec, with_marker, seed=0).answer == spec.label_set[0]
        assert render_example(spec, without, seed=0).answer == spec.label_set[1]

    def test_feature_matches_answer(self, suite):
        for spec in suite.specs:
            for ex in suite.eval[spec.task_id]:
                expected = GLOBAL_FEATURES[spec.label_set.index(ex.answer)]
                assert expected in ex.rationale

    def test_input_outside_grammar_rejected(self, suite):
        spec = suite.specs[0]
        with pytest.raises(InputError):
            render_example(spec, ("not-a-word",) * 6, seed=0)
        with pytest.raises(InputError):
            render_example(spec, ("cat",) * 3, seed=0)

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
