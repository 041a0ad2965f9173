"""Rationale-guidance difficulty: how poorly an instruction elicits its rationale.

The per-example score is the ratio of the conditional rationale perplexity
(given the instruction) to the unconditional one; above 1 means the
instruction makes the rationale harder to produce than no prompt at all.
Task-level scores are the mean over a held-out evaluation slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tinylm
from .errors import InputError
from .taskgen import Example, render_prompt

SCALAR_FLOOR = 1e-6


@dataclass(frozen=True)
class PplRecord:
    task_id: str
    example_id: str
    nll_cond_sum: float
    nll_uncond_sum: float
    n_rationale_tokens: int

    def __post_init__(self):
        if self.n_rationale_tokens < 1:
            raise InputError("n_rationale_tokens must be >= 1")
        for value in (self.nll_cond_sum, self.nll_uncond_sum):
            if not math.isfinite(value) or value < 0:
                raise InputError("NLL sums must be finite and nonnegative")

    def rgd(self) -> float:
        """PPL(r|x) / PPL(r), as exp of the difference of the mean NLLs."""
        mean_cond = self.nll_cond_sum / self.n_rationale_tokens
        mean_uncond = self.nll_uncond_sum / self.n_rationale_tokens
        log_rgd = mean_cond - mean_uncond
        try:
            return math.exp(log_rgd)
        except OverflowError:
            raise InputError(f"example {self.example_id!r}: RGD exp({log_rgd}) "
                             "overflows a float") from None


@dataclass(frozen=True)
class RgdSummary:
    task_id: str
    mean: float
    std: float
    n: int


def rgd_records(model: tinylm.ModelState, examples) -> list[PplRecord]:
    """NLL record of each example under one model snapshot, from one
    ``tinylm.batch_nll`` call; ``PplRecord.rgd`` is the example's score.

    ``PPL(r|x)`` conditions on ``x`` rendered by ``taskgen.render_prompt``,
    exactly as in training.  ``PPL(r)`` does not depend on the instruction,
    so it is computed once per distinct rationale and shared by every
    example that has it.
    """
    vocab = model.vocab
    examples = list(examples)
    cond_pairs = []
    keys = []
    uncond_row: dict[tuple[int, ...], int] = {}     # rationale ids -> its unconditional row
    for ex in examples:
        if len(ex.rationale) == 0:
            raise InputError(f"example {ex.id} has an empty rationale")
        x_ids = vocab.encode(render_prompt(ex.instruction))
        r_ids = vocab.encode(ex.rationale)
        cond_pairs.append((x_ids, r_ids))
        keys.append(tuple(r_ids))
        uncond_row.setdefault(keys[-1], len(uncond_row))
    nlls = tinylm.batch_nll(model, cond_pairs + [([], list(key)) for key in uncond_row])
    uncond_nlls = nlls[len(cond_pairs):]
    return [PplRecord(task_id=ex.task_id, example_id=ex.id, nll_cond_sum=cond.sum_nll,
                      nll_uncond_sum=uncond_nlls[uncond_row[key]].sum_nll,
                      n_rationale_tokens=cond.n_tokens)
            for ex, cond, key in zip(examples, nlls, keys)]


def rgd_from_model(model: tinylm.ModelState, ex: Example) -> PplRecord:
    """NLL record of one example against a model snapshot."""
    return rgd_records(model, [ex])[0]


def task_rgd(records) -> RgdSummary:
    """Mean and population std of per-record scores of one task."""
    records = list(records)
    if not records:
        raise InputError("records must be nonempty")
    task_ids = {r.task_id for r in records}
    if len(task_ids) != 1:
        raise InputError(f"records mix tasks: {sorted(task_ids)}")
    scores = [r.rgd() for r in records]
    n = len(scores)
    mean = sum(scores) / n
    try:
        var = sum((s - mean) ** 2 for s in scores) / n
    except OverflowError:
        var = math.inf
    if not math.isfinite(var):          # an infinite mean gives an infinite variance too
        raise InputError(f"task {records[0].task_id!r}: the mean or variance of its RGD "
                         "scores overflows a float")
    return RgdSummary(task_id=records[0].task_id, mean=mean, std=math.sqrt(var), n=n)


def summary_scalar(summary: RgdSummary) -> float:
    """The allocator scalar: the mean, floored at a small positive epsilon so
    proportional allocation stays defined."""
    return max(summary.mean, SCALAR_FLOOR)
