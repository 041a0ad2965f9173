"""Task scoring (answer accuracy) and the continual-learning metrics.

The performance matrix holds one row per training stage with the scores of
every task seen so far, plus a single-task baseline row.  Five summary
metrics are derived from it: final average performance, forgetting rate,
backward transfer, forward transfer and current average performance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, MetricUndefinedError
from .taskgen import RESULT_MARKER


@dataclass(frozen=True)
class PerfMatrix:
    """Lower-triangular stage-by-task scores plus the single-task baseline row."""

    order: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]   # rows[i] has i+1 entries
    a0: tuple[float, ...]

    def __post_init__(self):
        t = len(self.order)
        if t < 1:
            raise InputError("matrix needs at least one task")
        if len(set(self.order)) != t:
            raise InputError(f"each task may appear once in the order, got {list(self.order)}")
        if len(self.rows) != t or len(self.a0) != t:
            raise InputError("rows and a0 must have one entry per task")
        for i, row in enumerate(self.rows):
            if len(row) != i + 1:
                raise InputError(f"stage {i + 1} must score exactly {i + 1} tasks")
        for value in [v for row in self.rows for v in row] + list(self.a0):
            if not math.isfinite(value) or not 0 <= value <= 100:
                raise InputError(f"performance {value} outside [0, 100]")

    @property
    def num_tasks(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class MetricsReport:
    fap: float
    f_ra: float
    bwt: float
    fwt: float
    cap: float
    per_task_forgetting: dict[str, float]


def answer_accuracy(predictions, gold_answers) -> float:
    """Percent of predictions whose answer after the last marker matches gold.

    Matching is case-insensitive on the whitespace-joined tokens after the
    final "[RESULT]"; a prediction without the marker is wrong.
    """
    predictions = list(predictions)
    gold_answers = list(gold_answers)
    if len(predictions) != len(gold_answers):
        raise InputError("predictions and gold answers differ in length")
    if not predictions:
        raise InputError("nothing to score")
    correct = 0
    for tokens, gold in zip(predictions, gold_answers):
        tokens = list(tokens)
        if RESULT_MARKER not in tokens:
            continue
        idx = len(tokens) - 1 - tokens[::-1].index(RESULT_MARKER)
        answer = " ".join(tokens[idx + 1:]).strip().lower()
        if answer == gold.strip().lower():
            correct += 1
    return 100.0 * correct / len(predictions)


def fap(m: PerfMatrix) -> float:
    """Mean performance over all tasks after the final stage."""
    return sum(m.rows[-1]) / m.num_tasks


def cap(m: PerfMatrix) -> float:
    """Mean performance of each task at its own training stage."""
    return sum(m.rows[t][t] for t in range(m.num_tasks)) / m.num_tasks


def bwt(m: PerfMatrix) -> float:
    """Mean change on earlier tasks between their own stage and the last."""
    t_total = m.num_tasks
    if t_total < 2:
        raise MetricUndefinedError("backward transfer needs at least 2 tasks")
    return sum(m.rows[-1][t] - m.rows[t][t] for t in range(t_total - 1)) / (t_total - 1)


def fwt(m: PerfMatrix) -> float:
    """Mean gain of each task's own-stage score over its single-task baseline."""
    return sum(m.rows[t][t] - m.a0[t] for t in range(m.num_tasks)) / m.num_tasks


def per_task_forgetting(m: PerfMatrix) -> dict[str, float]:
    """Peak score before the final stage minus the final score, per task."""
    t_total = m.num_tasks
    if t_total < 2:
        raise MetricUndefinedError("forgetting needs at least 2 tasks")
    out = {}
    for t in range(t_total - 1):
        peak = max(m.rows[k][t] for k in range(t, t_total - 1))
        out[m.order[t]] = peak - m.rows[-1][t]
    return out


def forgetting_rate(m: PerfMatrix) -> float:
    """Mean per-task forgetting over the first T-1 tasks."""
    drops = per_task_forgetting(m)
    return sum(drops.values()) / len(drops)


def compute_report(m: PerfMatrix) -> MetricsReport:
    """All five metrics; checks the FAP = CAP + (T-1)/T * BWT identity."""
    t_total = m.num_tasks
    report = MetricsReport(
        fap=fap(m),
        f_ra=forgetting_rate(m),
        bwt=bwt(m),
        fwt=fwt(m),
        cap=cap(m),
        per_task_forgetting=per_task_forgetting(m),
    )
    identity_gap = report.fap - (report.cap + (t_total - 1) / t_total * report.bwt)
    if abs(identity_gap) > 1e-9:
        raise AssertionError(f"metric identity violated by {identity_gap}")
    return report
