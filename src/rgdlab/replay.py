"""Replay budget allocation across previous tasks, plus replay sampling.

Each allocator is a weight function: it turns its input into one weight per
previous task, and `_apportion` splits the budget in proportion with
largest-remainder rounding (floor the real shares, hand the leftover units
to the largest fractional parts, earlier task wins ties), so every plan hits
its budget exactly.  `fit_to_pools` caps counts at what each task's pool can
actually supply, redistributing the surplus over the remaining tasks by the
same weights and recording any clamping as shortfalls.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError


# The largest replay budget: far above any corpus, and small enough that the
# float shares of largest-remainder rounding floor to counts that sum exactly.
MAX_BUDGET = 2**31


@dataclass(frozen=True)
class AllocationPlan:
    budget: int
    strategy: str
    counts: dict[str, int]
    weights: dict[str, float]                  # allocator inputs; not serialized
    shortfalls: dict[str, int] = field(default_factory=dict)


def largest_remainder(weights, total: int) -> list[int]:
    """Integer apportionment of ``total`` proportional to ``weights``."""
    if total < 0:
        raise ConfigError("total must be nonnegative")
    weights = [float(w) for w in weights]
    if not all(math.isfinite(w) for w in weights):
        raise InputError(f"weights must be finite, got {weights}")
    if any(w < 0 for w in weights):
        raise InputError("weights must be nonnegative")
    s = sum(weights)
    if s <= 0:
        raise InputError("at least one weight must be positive")
    shares = [total * w / s for w in weights]
    if not all(map(math.isfinite, [s, *shares])):     # overflow: use weights over their max
        top = max(weights)
        weights = [w / top for w in weights]
        s = sum(weights)
        shares = [total * w / s for w in weights]
    base = [math.floor(x) for x in shares]
    leftover = total - sum(base)
    by_fraction = sorted(range(len(weights)), key=lambda i: (base[i] - shares[i], i))
    for i in by_fraction[:leftover]:
        base[i] += 1
    return base


def _apportion(strategy: str, weights: dict[str, float], alpha: int) -> AllocationPlan:
    """The plan that splits budget ``alpha`` over the tasks in proportion to ``weights``."""
    if alpha < 0:
        raise ConfigError("budget must be nonnegative")
    if alpha > MAX_BUDGET:
        raise ConfigError(f"budget must be at most {MAX_BUDGET}")
    counts = largest_remainder(weights.values(), alpha)
    return AllocationPlan(budget=alpha, strategy=strategy,
                          counts=dict(zip(weights, counts)), weights=weights)


def allocate_equal(prev_tasks, alpha: int) -> AllocationPlan:
    """Unit weights: the budget's floor split, the remainder to the earliest tasks."""
    tasks = list(prev_tasks)
    if not tasks:
        raise InputError("prev_tasks must be nonempty")
    for i, task in enumerate(tasks):
        if not task:
            raise InputError(f"task id {task!r} is empty")
        if task in tasks[:i]:
            raise InputError(f"task {task!r} is given twice")
    return _apportion("equal", dict.fromkeys(tasks, 1.0), alpha)


def allocate_rgd(scores, alpha: int) -> AllocationPlan:
    """Each previous task's difficulty scalar is its weight."""
    scores = dict(scores)
    if not scores:
        raise InputError("scores must be nonempty")
    for task, score in scores.items():
        if score is None:
            raise InputError(f"missing score for task {task!r}")
        if score <= 0:
            raise InputError(f"score for task {task!r} must be positive")
    return _apportion("rgd", {t: float(s) for t, s in scores.items()}, alpha)


def allocate_inscl(distances, alpha: int) -> AllocationPlan:
    """Each task's instruction-distribution distance is its weight.

    More different tasks replay more; if every distance is zero the weights
    are all one, an equal split.
    """
    distances = dict(distances)
    if not distances:
        raise InputError("distances must be nonempty")
    for task, d in distances.items():
        if d is None:
            raise InputError(f"missing distance for task {task!r}")
        if d < 0:
            raise InputError(f"distance for task {task!r} must be nonnegative")
    if not any(distances.values()):
        distances = dict.fromkeys(distances, 1.0)
    return _apportion("inscl", {t: float(d) for t, d in distances.items()}, alpha)


def fit_to_pools(plan: AllocationPlan, pool_sizes) -> AllocationPlan:
    """Cap counts at pool sizes; redistribute the excess, record shortfalls.

    The returned counts sum to min(budget, total pool).  A task appears in
    ``shortfalls`` with the number of samples its raw allocation wanted but
    its pool could not supply, even when other pools absorbed the surplus.
    Each round splits what is left over the uncapped tasks by weight (unit
    weights if all of theirs are zero) and caps every task it gives more
    than its pool; capped tasks come first in ``counts``, in capping order.
    """
    pools = dict(pool_sizes)
    for task in plan.counts:
        if task not in pools:
            raise InputError(f"no pool size for task {task!r}")
        if pools[task] < 0:
            raise InputError(f"pool size for task {task!r} must be nonnegative")
    counts: dict[str, int] = {}
    active = list(plan.counts)
    remaining = min(plan.budget, sum(pools[t] for t in plan.counts))
    while active and remaining > 0:
        weights = [plan.weights[t] for t in active]
        share = dict(zip(active, largest_remainder(
            weights if any(weights) else [1.0] * len(active), remaining)))
        over = [t for t in active if share[t] > pools[t]]
        if not over:
            counts.update(share)
            break
        for t in over:
            counts[t] = pools[t]
            remaining -= pools[t]
        active = [t for t in active if t not in over]
    else:           # no round fit: the budget is spent
        counts.update(dict.fromkeys(active, 0))

    shortfalls = {t: plan.counts[t] - pools[t]
                  for t in plan.counts if plan.counts[t] > pools[t]}
    return AllocationPlan(budget=plan.budget, strategy=plan.strategy,
                          counts=counts, weights=plan.weights, shortfalls=shortfalls)


def instruction_distance(task_a_instructions, task_b_instructions) -> float:
    """Transport distance between unigram token distributions.

    Under the 0/1 ground metric the optimal transport cost between two
    discrete distributions equals their total variation distance.
    """
    a = list(task_a_instructions)
    b = list(task_b_instructions)
    if not a or not b:
        raise InputError("both instruction lists must be nonempty")

    def dist(instrs):
        counts = Counter(tok for tokens in instrs for tok in tokens)
        total = sum(counts.values())
        if total == 0:
            raise InputError("instructions contain no tokens")
        return {t: c / total for t, c in counts.items()}

    # fsum rounds the exact sum once, so the set's hash-seeded order cannot
    # change the result.
    p, q = dist(a), dist(b)
    return 0.5 * math.fsum(abs(p.get(t, 0.0) - q.get(t, 0.0)) for t in p.keys() | q.keys())


def sample_replay(pool, count: int, seed: int) -> list:
    """Seeded uniform sample without replacement; counts clamp to the pool."""
    pool = list(pool)
    if count < 0:
        raise ConfigError("count must be nonnegative")
    count = min(count, len(pool))
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in picks]
