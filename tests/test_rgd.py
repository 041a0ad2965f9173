"""Tests for rationale-guidance difficulty scoring and aggregation."""

import math

import numpy as np
import pytest

from rgdlab import tinylm
from rgdlab.errors import InputError
from rgdlab.rgd import (
    PplRecord,
    RgdSummary,
    rgd_from_model,
    summary_scalar,
    task_rgd,
)
from rgdlab.taskgen import PROMPT_PREFIX, Example, render_prompt
from rgdlab.tinylm import Vocab, init_model


def record(value: float, task="t", rid="r", n=1) -> PplRecord:
    """A record whose per-example score equals ``value`` exactly."""
    if value >= 1.0:
        return PplRecord(task, rid, n * math.log(value), 0.0, n)
    return PplRecord(task, rid, 0.0, n * -math.log(value), n)


def ppl_record(cond: float, uncond: float, n: int = 1) -> PplRecord:
    """A record of NLL sums ``cond`` and ``uncond`` over ``n`` rationale tokens."""
    return PplRecord("t", "e", cond, uncond, n)


class TestRgdScore:
    """``PplRecord.rgd`` is PPL(r|x) / PPL(r), each PPL the exp of a mean NLL."""

    def test_ratio(self):
        assert ppl_record(2 * math.log(2.0), 2 * math.log(4.0), 2).rgd() == pytest.approx(
            0.5, rel=1e-12)
        assert ppl_record(3.0, 1.0, 4).rgd() == pytest.approx(
            math.exp(3.0 / 4) / math.exp(1.0 / 4), rel=1e-12)

    def test_no_help_fixed_point(self):
        assert ppl_record(5.5, 5.5, 4).rgd() == 1.0

    def test_scale_invariance(self):
        # scaling both perplexities by c adds n*ln(c) to both NLL sums
        rng = np.random.default_rng(0)
        for _ in range(50):
            cond, uncond = rng.uniform(0.0, 20, size=2)
            n = int(rng.integers(1, 9))
            shift = n * math.log(rng.uniform(1.0, 10))
            assert ppl_record(cond + shift, uncond + shift, n).rgd() == pytest.approx(
                ppl_record(cond, uncond, n).rgd(), rel=1e-12)

    def test_above_one_iff_cond_harder(self):
        assert ppl_record(5.0, 4.0, 3).rgd() > 1
        assert ppl_record(3.0, 4.0, 3).rgd() < 1

    def test_log_form_equivalence(self):
        r = PplRecord("t", "x", nll_cond_sum=3.2, nll_uncond_sum=5.0,
                      n_rationale_tokens=4)
        via_ppl = math.exp(3.2 / 4) / math.exp(5.0 / 4)
        assert r.rgd() == pytest.approx(via_ppl, rel=1e-9)


class TestRgdFromModel:
    def test_empty_instruction_gives_one(self):
        vocab = Vocab.build(["alpha", "beta", "row"])
        model = init_model(vocab, 3, 4, 4, seed=0)
        ex = Example(task_id="t", id="e", instruction=(),
                     rationale=("alpha", "beta"), answer="alpha")
        assert rgd_from_model(model, ex).rgd() == 1.0

    def test_context_blind_model_gives_one(self):
        # zero hidden weights: the context cannot move the prediction
        vocab = Vocab.build(["alpha", "beta", "row", *PROMPT_PREFIX])
        model = init_model(vocab, 3, 4, 4, seed=0)
        model.w_hidden[:] = 0.0
        ex = Example(task_id="t", id="e", instruction=("row", "row"),
                     rationale=("alpha", "beta"), answer="alpha")
        assert rgd_from_model(model, ex).rgd() == pytest.approx(1.0, rel=1e-12)

    def test_memorized_quarter(self):
        # one-hot saturated model: p(r|x) ~ 1, unconditional uniform over the
        # four content tokens, so the score is exactly 1/4.  With a one-token
        # context the rendered prompt ends in the instruction's "a".
        vocab = Vocab.build(["a", "b", "c", "d", *PROMPT_PREFIX])
        v = len(vocab)
        model = init_model(vocab, 1, v, v, seed=0)
        a, b = vocab.encode(["a", "b"])
        content = vocab.encode(["a", "b", "c", "d"])
        model.embed[:] = 0.0
        np.fill_diagonal(model.embed, 50.0)
        model.w_hidden[:] = np.eye(v)
        model.b_hidden[:] = 0.0
        model.w_out[:] = 0.0
        model.b_out[:] = 0.0
        model.w_out[a, b] = 100.0                     # after "a", "b" is certain
        model.w_out[tinylm.BOS, content] = 50.0       # uniform over a-d from BOS
        ex = Example(task_id="t", id="e", instruction=("a",),
                     rationale=("b",), answer="a")
        rec = rgd_from_model(model, ex)
        assert rec.rgd() == pytest.approx(0.25, rel=1e-9)
        assert rec.n_rationale_tokens == 1

    def test_record_carries_sums(self):
        vocab = Vocab.build(["a", "b", "c", *PROMPT_PREFIX])
        model = init_model(vocab, 2, 4, 4, seed=1)
        ex = Example(task_id="t", id="e", instruction=("a", "c"),
                     rationale=("b", "a", "c"), answer="a")
        rec = rgd_from_model(model, ex)
        cond = tinylm.sequence_nll(model, vocab.encode(render_prompt(ex.instruction)),
                                   vocab.encode(ex.rationale))
        uncond = tinylm.sequence_nll(model, [], vocab.encode(ex.rationale))
        score = math.exp(cond.sum_nll / 3) / math.exp(uncond.sum_nll / 3)
        assert rec.rgd() == pytest.approx(score, rel=1e-12)
        assert rec.task_id == "t" and rec.example_id == "e"


class TestTaskRgd:
    def test_mean_and_population_std(self):
        records = [record(v, rid=str(i)) for i, v in enumerate((0.5, 1.0, 1.5))]
        summary = task_rgd(records)
        assert summary.mean == pytest.approx(1.0, rel=1e-9)
        assert summary.std == pytest.approx(math.sqrt(1 / 6), rel=1e-9)
        assert summary.n == 3
        assert summary_scalar(summary) == pytest.approx(1.0, rel=1e-9)

    def test_single_record(self):
        summary = task_rgd([record(0.7)])
        assert summary.mean == pytest.approx(0.7, rel=1e-9)
        assert summary.std == 0.0
        assert summary_scalar(summary) == pytest.approx(0.7, rel=1e-9)

    def test_scalar_floor(self):
        # a mean that underflows to zero still gives a positive allocator scalar
        assert summary_scalar(RgdSummary("t", 0.0, 0.0, 1)) == pytest.approx(1e-6)
        assert summary_scalar(RgdSummary("t", 1e-9, 0.0, 1)) == pytest.approx(1e-6)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            task_rgd([])

    def test_mixed_tasks_rejected(self):
        with pytest.raises(InputError):
            task_rgd([record(1.0, task="a"), record(1.0, task="b")])

    def test_permutation_invariant(self):
        values = [0.5, 0.9, 1.3, 2.0]
        fwd = task_rgd([record(v, rid=str(i)) for i, v in enumerate(values)])
        rev = task_rgd([record(v, rid=str(i)) for i, v in enumerate(reversed(values))])
        assert fwd.mean == pytest.approx(rev.mean, rel=1e-12)
        assert fwd.std == pytest.approx(rev.std, rel=1e-12)


class TestPplRecord:
    def test_invariants(self):
        with pytest.raises(InputError):
            PplRecord("t", "e", 1.0, 1.0, 0)
        with pytest.raises(InputError):
            PplRecord("t", "e", -1.0, 1.0, 1)
        with pytest.raises(InputError):
            PplRecord("t", "e", float("nan"), 1.0, 1)
