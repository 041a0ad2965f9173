"""Span tracing from outside the package.

A ``Tracer`` replaces module attributes of ``rgdlab`` with wrappers that
record one span per call: name, start, end, parent span and thread.  The
package calls these functions through their module attributes (``driver``
calls ``tinylm.train``, ``rgd`` calls ``tinylm.sequence_nll``, ``driver``
calls its own globals), so replacing the attribute is enough to see every
call.  Each thread keeps its own stack of open spans; a span opened on a
worker thread with an empty stack takes the innermost open span of the
main thread as its parent, which is the ``run_experiment`` span waiting on
its thread pool.  Spans stay in memory until ``take`` hands them over.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _flop_per_token(model) -> int:
    """Multiply-adds of the three GEMM pairs of one training token, times 2."""
    ce = model.context_len * model.embed_dim
    hv = model.hidden_dim * len(model.vocab)
    return 2 * 3 * (ce * model.hidden_dim + hv)


def _train_counts(args, kwargs, result):
    model, corpus, cfg = args[:3]
    epochs = cfg.epochs
    steps = epochs * -(-len(corpus) // cfg.batch_size)
    tokens = epochs * sum(len(target) for _, target in corpus)
    return {"steps": steps, "tokens": tokens, "flop": tokens * _flop_per_token(model)}


def _size_of(path_arg_index):
    def counts(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg_index])}
    return counts


# (module, attribute, span name, counter of work done by one call)
TARGETS = (
    ("tinylm", "train", "tinylm.train", _train_counts),
    ("tinylm", "sequence_nll", "tinylm.sequence_nll",
     lambda a, k, r: {"tokens": r.n_tokens}),
    ("tinylm", "generate_batch", "tinylm.generate_batch",
     lambda a, k, r: {"prompts": len(r), "tokens_out": sum(len(o) for o in r)}),
    ("tinylm", "save_model", "tinylm.save_model", _size_of(1)),
    ("tinylm", "load_model", "tinylm.load_model", _size_of(0)),
    ("rgd", "rgd_from_model", "rgd.rgd_from_model", None),
    ("rgd", "task_rgd", "rgd.task_rgd", None),
    ("replay", "instruction_distance", "replay.instruction_distance", None),
    ("replay", "sample_replay", "replay.sample_replay",
     lambda a, k, r: {"samples": len(r)}),
    ("replay", "allocate_equal", "replay.plan", None),
    ("replay", "allocate_rgd", "replay.plan", None),
    ("replay", "allocate_inscl", "replay.plan", None),
    ("replay", "fit_to_pools", "replay.plan", None),
    ("taskgen", "make_suite", "taskgen.make_suite", None),
    ("taskgen", "make_warmup_corpus", "taskgen.make_warmup_corpus", None),
    ("taskgen", "partial_rationale_prompt", "taskgen.prompts", None),
    ("taskgen", "tap_prompt", "taskgen.prompts", None),
    ("clmetrics", "answer_accuracy", "clmetrics.answer_accuracy", None),
    ("clmetrics", "compute_report", "clmetrics.compute_report", None),
    ("driver", "run_experiment", "driver.run_experiment", None),
    ("driver", "build_base_model", "driver.build_base_model", None),
    ("driver", "run_single_baselines", "driver.run_single_baselines", None),
    ("driver", "run_multitask", "driver.run_multitask", None),
    ("driver", "run_sequence", "driver.run_sequence", None),
    ("driver", "evaluate_accuracy", "driver.evaluate_accuracy", None),
    ("driver", "score_task_rgd", "driver.score_task_rgd",
     lambda a, k, r: {"examples": r.n}),
    ("driver", "probe_partial_rationale", "driver.probe_partial_rationale", None),
    ("driver", "probe_tap", "driver.probe_tap", None),
    ("cli", "main", "cli.main", None),
)

MODULES = ("tinylm", "taskgen", "rgd", "replay", "clmetrics", "driver", "cli")


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts the originals back."""

    def __init__(self, package):
        self._package = package
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []
        self._spans: list[Span] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack and stack is not self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = Span(next(self._ids), name, parent, threading.get_ident(), 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self._spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = getattr(self._package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """All spans finished since the last call."""
        spans, self._spans = self._spans, []
        return spans


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its children cover (their union)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _union_length(children.get(s.id, ())) for s in spans}


def iteration_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``busy_s`` of a name counts only its outermost spans, so a name that
    calls itself (``replay.allocate_inscl`` into ``allocate_equal``) is not
    counted twice; ``self_s`` sums the self time of every span of the name.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", own[s.id])
        add(f"{s.name.split('.')[0]}.self_s", own[s.id])
        for key, value in s.counts.items():
            add(f"{s.name}.{key}", value)
        ancestor = s.parent
        while ancestor is not None and by_id[ancestor].name != s.name:
            ancestor = by_id[ancestor].parent
        if ancestor is None:
            add(f"{s.name}.busy_s", s.duration)

    cells = [s for s in spans if s.name == "driver.run_sequence"]
    if cells and any(s.name == "driver.run_experiment" for s in spans):
        phase = max(s.end for s in cells) - min(s.start for s in cells)
        out["driver.run_experiment.cell_concurrency"] = sum(s.duration for s in cells) / phase

    main_roots = [(s.start, s.end) for s in spans if s.parent is None]
    out["bench.self_s"] = max(wall_s - _union_length(main_roots), 0.0)
    # Artifact writing: cli.main's own time plus the checkpoints it saves.
    out["cli.artifacts.self_s"] = out.get("cli.main.self_s", 0.0) + sum(
        s.duration for s in spans
        if s.name == "tinylm.save_model" and s.parent is not None
        and by_id[s.parent].name == "cli.main")
    return out


def self_time_table(layer: dict[str, float]) -> str:
    """Where the time goes: each module's share of the summed self time."""
    rows = [(m, layer.get(f"{m}.self_s", 0.0)) for m in MODULES + ("bench",)]
    total = sum(v for _, v in rows) or 1.0
    lines = [f"{'module':<12}{'self_s':>10}{'share':>9}"]
    for module, value in rows:
        label = "fileio/cli" if module == "cli" else module
        lines.append(f"{label:<12}{value:>10.4f}{100 * value / total:>8.1f}%")
    return "\n".join(lines)
