"""Synthetic instruction/rationale/answer tasks plus the two probing prompts.

Five task families — keyword presence, keyword half-position, marker-count
parity, end-word relation and dominant-topic classification — are stamped out
over one shared content vocabulary so that sequential training interferes.
Every instance of a family has fresh phrasing and a fresh label pair, so any
two tasks in a suite differ in both wording and labels; a repeated family
keeps its marker words and is thus a near-duplicate task, the way benchmark
collections re-template the same underlying dataset.

Every instruction follows the same shape: a family phrasing, the two answer
options, then the input words.  Rationales share one five-token scaffold that
varies only at the feature word carrying the inference.  Label strings never
appear in the rationale; the answer is appended after the "[RESULT]" marker
when an example is rendered as a training target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError

RESULT_MARKER = "[RESULT]"
INPUT_LEN = 6
MAX_TASKS = 15

# Constant document prefix prepended to every rendered prompt.  It keeps every
# training window free of BOS padding (instructions alone are shorter than the
# model's context window), so the start-of-text region is shaped only by the
# base-skills corpus and unconditional rationale perplexity stays anchored.
PROMPT_PREFIX = ("a", "new", "row", "of", "words", "arrives", ",", "work", "it", "out", ":")


def render_prompt(instruction) -> tuple[str, ...]:
    """The prompt a model sees: document prefix plus the instruction.

    Training, evaluation, both probes and RGD scoring all render through
    here.  Empty instructions (standalone reasoning text from the warmup
    corpus) stay empty, so they train the start-of-text windows.
    """
    instruction = tuple(instruction)
    if not instruction:
        return ()
    return PROMPT_PREFIX + instruction


DEFAULT_TAP_TEMPLATE = "here are some solved rows , use the same pattern for the last one ."

CONTENT_GROUPS = {
    "animals": ("cat", "dog", "fox", "owl", "bee", "elk"),
    "tools": ("hammer", "saw", "drill", "wrench", "chisel", "pliers"),
    "colors": ("red", "blue", "green", "gold", "pink", "teal"),
    "foods": ("bread", "corn", "rice", "plum", "kale", "oat"),
}
CONTENT_POOL = tuple(w for group in CONTENT_GROUPS.values() for w in group)
_CONTENT_SET = frozenset(CONTENT_POOL)
_GROUP_SETS = {name: frozenset(group) for name, group in CONTENT_GROUPS.items()}

_FAMILIES = ("presence", "position", "parity", "relation", "topic")

# Every rationale uses one scaffold so tasks differ only at the feature word.
# The unconditional rationale distribution then stays anchored across stages
# (every stage retrains the same scaffold) and the conditional/unconditional
# gap concentrates on the guided inference token.
SCAFFOLD_BODY = "the word {feature} here"

# One feature pair shared by every task: the first feature always points at
# the first listed option, the second at the other.  Each stage then trains
# the same half/half feature distribution (the unconditional prior over the
# inference token cannot drift toward any one task) and the feature-to-option
# rule is task-agnostic, so what a task owns is exactly the mapping from its
# instructions onto the right feature.
GLOBAL_FEATURES = ("fits", "breaks")

# One entry per variant; variants cycle when the suite has more than five
# tasks.  labels[i] pairs with GLOBAL_FEATURES[i].  Marker-family phrasings
# end with the marker so its distance from the input is the same everywhere.
_VARIANTS = {
    "presence": {
        "phrasings": (
            "say if the list holds the word {marker}",
            "tell whether these words include {marker}",
            "check the row below for the word {marker}",
        ),
        "labels": (("yes", "no"), ("present", "absent"), ("found", "missing")),
    },
    "position": {
        "phrasings": (
            "state the half that holds the word {marker}",
            "report the half that contains the word {marker}",
            "locate the half that carries the word {marker}",
        ),
        "labels": (("front", "back"), ("early", "late"), ("first", "second")),
    },
    "parity": {
        "phrasings": (
            "give the parity for the count of {marker}",
            "work out the parity for appearances of {marker}",
            "judge the parity for repeats of {marker}",
        ),
        "labels": (("even", "odd"), ("balanced", "skewed"), ("level", "uneven")),
    },
    "relation": {
        "phrasings": (
            "decide if the two ends of the row match",
            "compare the first word against the last",
            "say if the outer words line up together",
        ),
        "labels": (("same", "different"), ("alike", "unlike"), ("equal", "unequal")),
    },
    "topic": {
        "phrasings": (
            "name the topic of this word group",
            "classify the theme of these words",
            "label the subject of the row",
        ),
        "labels": (("animals", "tools"), ("beasts", "gadgets"), ("fauna", "hardware")),
        "groups": (("animals", "tools"), ("animals", "tools"), ("animals", "tools")),
    },
}

# The rationale of each GLOBAL_FEATURES entry, for task and warmup examples
# alike, and the rationale template a suite manifest records for every task.
RATIONALES = tuple(tuple(f"{SCAFFOLD_BODY.format(feature=f)} .".split()) for f in GLOBAL_FEATURES)
RATIONALE_TEMPLATE = f"{SCAFFOLD_BODY} . {RESULT_MARKER} {{answer}}"

# Every answer word across all families and variants, in a fixed order.  No
# word of a RATIONALES entry is one of them, so no rationale states an answer.
LABEL_LEXICON = tuple(w for spec_def in _VARIANTS.values()
                      for labels in spec_def["labels"] for w in labels)


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    instruction: tuple[str, ...]       # the tokens before the input: phrasing and options
    label_set: tuple[str, ...]
    input_grammar: dict                # family name plus its parameters


@dataclass(frozen=True)
class Example:
    task_id: str
    id: str
    instruction: tuple[str, ...]
    rationale: tuple[str, ...]
    answer: str


@dataclass(frozen=True)
class Suite:
    specs: tuple[TaskSpec, ...]
    train: dict[str, tuple[Example, ...]]
    eval: dict[str, tuple[Example, ...]]
    probe: dict[str, tuple[Example, ...]]       # held-out difficulty-scoring slice
    orders: tuple[tuple[str, ...], tuple[str, ...]]
    seed: int

    def spec(self, task_id: str) -> TaskSpec:
        for s in self.specs:
            if s.task_id == task_id:
                return s
        raise InputError(f"unknown task {task_id!r}")


def _group_counts(grammar: dict, words) -> tuple[int, int]:
    a, b = grammar["groups"]
    return (sum(map(_GROUP_SETS[a].__contains__, words)),
            sum(map(_GROUP_SETS[b].__contains__, words)))


def _label_of(grammar: dict, words) -> str:
    family = grammar["family"]
    labels = grammar["labels"]
    if family == "presence":
        return labels[0] if grammar["marker"] in words else labels[1]
    if family == "position":
        return labels[0] if words.index(grammar["marker"]) < INPUT_LEN // 2 else labels[1]
    if family == "parity":
        return labels[0] if words.count(grammar["marker"]) % 2 == 0 else labels[1]
    if family == "relation":
        return labels[0] if words[0] == words[-1] else labels[1]
    if family == "topic":
        count_a, count_b = _group_counts(grammar, words)
        return labels[0] if count_a > count_b else labels[1]
    raise ConfigError(f"unknown family {family!r}")


def _validate_input(grammar: dict, words) -> None:
    family = grammar["family"]
    if len(words) != INPUT_LEN:
        raise InputError(f"input must have exactly {INPUT_LEN} words")
    try:
        known = _CONTENT_SET.issuperset(words)
    except TypeError:                   # an unhashable item is no content word either
        known = False
    if not known:
        bad = next(w for w in words if w not in CONTENT_POOL)
        raise InputError(f"word {bad!r} is not in the content vocabulary")
    if family == "position" and words.count(grammar["marker"]) != 1:
        raise InputError("position inputs must contain the marker exactly once")
    if family == "parity" and not 1 <= words.count(grammar["marker"]) <= 2:
        raise InputError("parity inputs must contain the marker once or twice")
    if family == "relation":
        ends = {grammar["marker"], grammar["marker_b"]}
        if words[0] not in ends or words[-1] not in ends:
            raise InputError("relation inputs must start and end with a marker word")
    if family == "topic":
        count_a, count_b = _group_counts(grammar, words)
        if count_a == count_b:
            raise InputError("topic inputs need a dominant group between the pair")


# A suite reads PCG64's raw words, and _Sampler replays numpy 2.x Generator's
# draws on them word for word.  numpy's compatibility policy (NEP 19) keeps a
# bit generator's stream fixed but lets Generator methods change algorithm
# between releases, so the replay keeps suites on the stream alone.  Each draw
# keeps its kind, bounds and order, because together they fix every example
# and so every checkpoint trained on the suite: dropping even make_suite's
# per-example draw, whose value no example uses, would change every
# checkpoint and re-roll acceptance criterion 6 (RGD vs equal allocation),
# which is mostly noise.  Only the Python work around the draws is cached or
# hoisted.

_LOW32 = 0xFFFFFFFF
_BLOCK = 64     # words per random_raw call: amortizes the call, keeps few ints alive


def _raw_words(bitgen: np.random.PCG64):
    """PCG64's 64-bit outputs, in order."""
    while True:
        yield from bitgen.random_raw(_BLOCK).tolist()


def _halves(words):
    """The 32-bit outputs numpy takes from PCG64: a word's lower half, then
    its upper half.  A whole word read from ``words`` while an upper half
    waits is the word after, which is how PCG64 buffers its upper half."""
    for word in words:
        yield word & _LOW32
        yield word >> 32


class _Sampler:
    """numpy 2.x ``Generator`` draws, replayed from ``PCG64(seed)``'s raw words.

    Each method returns what the ``Generator`` method of the same name returns
    for the same seed and call sequence, as Python ints and lists:
    ``integers(low, high, size=None)`` for ``high - low <= 2**32``, ``random()``,
    ``permutation(n)``, and ``choice(n, size)`` for ``replace=False``.
    """

    __slots__ = ("_word", "_uint32")

    def __init__(self, seed: int):
        words = _raw_words(np.random.PCG64(seed))
        self._word = words.__next__
        self._uint32 = _halves(words).__next__

    def _below(self, n: int) -> int:
        """Uniform in [0, n) by Lemire's 32-bit method; n == 1 reads no word."""
        if n == 1:
            return 0
        m = self._uint32() * n
        if (m & _LOW32) < n:
            m = self._redraw(m, n)
        return m >> 32

    def _redraw(self, m: int, n: int) -> int:
        """Lemire's rejection step: draw again while ``m`` falls in the biased part."""
        threshold = (1 << 32) % n
        while (m & _LOW32) < threshold:
            m = self._uint32() * n
        return m

    def integers(self, low: int, high: int, size: int | None = None) -> int | list[int]:
        n = high - low
        if size is None:
            return low + self._below(n)
        if n == 1:
            return [low] * size
        uint32, out = self._uint32, []
        for _ in range(size):           # _below, inlined: most of a suite's draws
            m = uint32() * n
            if (m & _LOW32) < n:
                m = self._redraw(m, n)
            out.append(low + (m >> 32))
        return out

    def random(self) -> float:
        """A fresh 64-bit word, never the buffered half."""
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates from the end, each index by masked rejection."""
        out, uint32 = list(range(n)), self._uint32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = uint32() & mask
            while j > i:
                j = uint32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def choice(self, n: int, size: int) -> list[int]:
        """Floyd's sample of ``size`` from range(n), then a Lemire shuffle of it."""
        picks: list[int] = []
        for j in range(n - size, n):
            pick = self._below(j + 1)
            picks.append(j if pick in picks else pick)
        for i in range(size - 1, 0, -1):
            j = self._below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


@functools.cache
def _candidates(exclude: tuple[str, ...]) -> tuple[str, ...]:
    """The content words outside ``exclude``, in pool order."""
    return tuple(w for w in CONTENT_POOL if w not in exclude)


def _draw(rng: _Sampler, n: int, candidates: tuple[str, ...]) -> list[str]:
    return [candidates[i] for i in rng.integers(0, len(candidates), size=n)]


def _sample_input(grammar: dict, rng: _Sampler) -> tuple[str, ...]:
    family = grammar["family"]
    if family == "presence":
        marker = grammar["marker"]
        words = _draw(rng, INPUT_LEN, _candidates((marker,)))
        if rng.random() < 0.5:
            words[rng.integers(0, INPUT_LEN)] = marker
        return tuple(words)
    if family == "position":
        marker = grammar["marker"]
        words = _draw(rng, INPUT_LEN, _candidates((marker,)))
        words[rng.integers(0, INPUT_LEN)] = marker
        return tuple(words)
    if family == "parity":
        marker = grammar["marker"]
        words = _draw(rng, INPUT_LEN, _candidates((marker,)))
        count = rng.integers(1, 3)
        for slot in rng.choice(INPUT_LEN, count):
            words[slot] = marker
        return tuple(words)
    if family == "relation":
        a, b = grammar["marker"], grammar["marker_b"]
        words = _draw(rng, INPUT_LEN, _candidates((a, b)))
        first = a if rng.random() < 0.5 else b
        last = first if rng.random() < 0.5 else (b if first == a else a)
        words[0], words[-1] = first, last
        return tuple(words)
    if family == "topic":
        dominant = CONTENT_GROUPS[grammar["groups"][rng.integers(0, 2)]]
        words = _draw(rng, 4, dominant) + _draw(rng, 2, _candidates(dominant))
        return tuple([words[i] for i in rng.permutation(INPUT_LEN)])
    raise ConfigError(f"unknown family {family!r}")


def _build_specs(num_tasks: int, rng: _Sampler) -> tuple[TaskSpec, ...]:
    marker_order = [CONTENT_POOL[i] for i in rng.permutation(len(CONTENT_POOL))]
    markers = iter(marker_order)
    family_markers: dict[str, tuple] = {}
    specs = []
    for i in range(num_tasks):
        family = _FAMILIES[i % len(_FAMILIES)]
        variant = i // len(_FAMILIES)
        spec_def = _VARIANTS[family]
        labels = spec_def["labels"][variant]
        phrasing = spec_def["phrasings"][variant]
        grammar = {"family": family, "labels": labels}
        # a repeated family is a near-duplicate task: same markers and rule,
        # fresh phrasing and label words
        if family in ("presence", "position", "parity"):
            if family not in family_markers:
                family_markers[family] = (next(markers),)
            grammar["marker"] = family_markers[family][0]
            task_id = f"t{i + 1:02d}-{family}-{grammar['marker']}"
        elif family == "relation":
            if family not in family_markers:
                family_markers[family] = (next(markers), next(markers))
            grammar["marker"], grammar["marker_b"] = family_markers[family]
            task_id = f"t{i + 1:02d}-{family}-{grammar['marker']}-{grammar['marker_b']}"
        else:
            grammar["groups"] = spec_def["groups"][variant]
            task_id = f"t{i + 1:02d}-{family}-{labels[0]}"
        phrase = phrasing.format(marker=grammar.get("marker", ""))
        instruction = f"{phrase} , options {labels[0]} or {labels[1]} :"
        specs.append(TaskSpec(
            task_id=task_id,
            instruction=tuple(instruction.split()),
            label_set=labels,
            input_grammar=grammar,
        ))
    return tuple(specs)


def render_example(spec: TaskSpec, raw_input, ex_id: str) -> Example:
    """The example of ``spec`` whose input words are ``raw_input``."""
    words = tuple(raw_input)
    _validate_input(spec.input_grammar, words)
    answer = _label_of(spec.input_grammar, words)
    return Example(
        task_id=spec.task_id,
        id=ex_id,
        instruction=spec.instruction + words,   # content words are single tokens
        rationale=RATIONALES[spec.label_set.index(answer)],
        answer=answer,
    )


@dataclass(frozen=True)
class SuiteSettings:
    num_tasks: int
    train_per_task: int
    eval_per_task: int
    seed: int                       # required: seeds are never implicit
    probe_per_task: int = 32

    def __post_init__(self):
        if not 2 <= self.num_tasks <= MAX_TASKS:
            raise ConfigError(f"num_tasks must be in [2, {MAX_TASKS}], got {self.num_tasks}")
        for name in ("train_per_task", "eval_per_task", "probe_per_task"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def make_suite(num_tasks: int, train_per_task: int, eval_per_task: int, seed: int,
               probe_per_task: int = 32) -> Suite:
    """Generate specs plus disjoint train/eval/probe sets and two task orders."""
    SuiteSettings(num_tasks, train_per_task, eval_per_task, seed, probe_per_task)  # checks them
    rng = _Sampler(seed)
    specs = _build_specs(num_tasks, rng)

    splits = {"train": train_per_task, "eval": eval_per_task, "probe": probe_per_task}
    sets: dict[str, dict[str, tuple[Example, ...]]] = {name: {} for name in splits}
    for spec in specs:
        seen: set[tuple[str, ...]] = set()
        for split, size in splits.items():
            examples = []
            attempts = 0
            while len(examples) < size:
                attempts += 1
                if attempts > 1000 * size:
                    raise ConfigError(
                        f"could not draw {size} distinct inputs for {spec.task_id}")
                words = _sample_input(spec.input_grammar, rng)
                if words in seen:
                    continue
                seen.add(words)
                rng.integers(0, 2**31)          # unused, but fixes the stream: see _LOW32
                examples.append(render_example(
                    spec, words, f"{spec.task_id}-{split}-{len(examples):04d}"))
            sets[split][spec.task_id] = tuple(examples)

    first = tuple(s.task_id for s in specs)
    second = first
    while second == first:
        second = tuple(first[i] for i in rng.permutation(num_tasks))
    return Suite(
        specs=specs,
        train=sets["train"],
        eval=sets["eval"],
        probe=sets["probe"],
        orders=(first, second),
        seed=seed,
    )


WARMUP_TASK_ID = "warmup-hint"
_WARMUP_PHRASE = "follow the cue for this row"


def make_warmup_corpus(n_examples: int, seed: int) -> tuple[Example, ...]:
    """Base-skills corpus: hint-guided rationale completion.

    Each example names one of the two global feature words as a hint, lists
    two answer options in a seeded order, and completes the shared rationale
    scaffold with that feature; the answer is the option the feature points
    at (first feature, first listed option).  Training on this corpus teaches
    the output convention and the task-agnostic feature-to-option rule before
    any task is seen; task instructions never carry hints, so the per-task
    triggers stay unlearned.  The option slots sit at the same distance from
    the input as in task instructions.

    A seeded half of the corpus consists of the same chains with an
    empty instruction: standalone reasoning text that puts the start-of-text
    windows in distribution, anchoring unconditional rationale perplexity.
    """
    if n_examples <= 0:
        raise ConfigError("n_examples must be positive")
    # Every word here is one token, so these are the rendered sentences split
    # on spaces.  The draws follow the module's rule: all of them stay, in order.
    heads = [tuple(_WARMUP_PHRASE.split()) + (",", "hint", f, ",", "options")
             for f in GLOBAL_FEATURES]
    rng = _Sampler(seed)
    examples = []
    for i in range(n_examples):
        pick = rng.integers(0, 2)
        first = LABEL_LEXICON[rng.integers(0, len(LABEL_LEXICON))]
        second = first
        while second == first:
            second = LABEL_LEXICON[rng.integers(0, len(LABEL_LEXICON))]
        words = rng.integers(0, len(CONTENT_POOL), size=INPUT_LEN)
        if rng.random() < 0.5:
            instruction: tuple[str, ...] = ()
        else:
            instruction = (*heads[pick], first, "or", second, ":",
                           *(CONTENT_POOL[j] for j in words))
        examples.append(Example(
            task_id=WARMUP_TASK_ID,
            id=f"{WARMUP_TASK_ID}-{i:04d}",
            instruction=instruction,
            rationale=RATIONALES[pick],
            answer=(first, second)[pick],
        ))
    return tuple(examples)


def training_target_tokens(ex: Example) -> tuple[str, ...]:
    """Target tokens for teacher forcing; the trainer appends EOS after these."""
    return ex.rationale + (RESULT_MARKER, ex.answer)


def partial_rationale_prompt(ex: Example, k: float) -> tuple[str, ...]:
    """Instruction plus the first ceil(k * |r|) rationale tokens."""
    if not 0.0 <= k <= 1.0:
        raise ConfigError("k must be in [0, 1]")
    n = math.ceil(k * len(ex.rationale))
    return ex.instruction + ex.rationale[:n]


def tap_prompt(ex: Example, demos) -> tuple[str, ...]:
    """Context template, fully rendered unrelated demos, then the instruction."""
    tokens = tuple(DEFAULT_TAP_TEMPLATE.split())
    for demo in demos:
        if demo.task_id == ex.task_id:
            raise ConfigError(
                f"demo {demo.id} comes from the evaluated task {ex.task_id}")
        tokens += demo.instruction + demo.rationale + (RESULT_MARKER, demo.answer)
    return tokens + ex.instruction


def suite_tokens(suite: Suite) -> set[str]:
    """Every surface token a model over this suite can encounter.

    An example's tokens are its spec's instruction, its content words, one
    ``RATIONALES`` entry and one label, so the specs and this module's tables
    fix the set without reading an example.  Includes the base-skills
    lexicon (all feature/label pairs plus the hint phrasing), so checkpoints
    work with any warmup corpus over the suite.
    """
    tokens = {RESULT_MARKER}
    tokens.update(DEFAULT_TAP_TEMPLATE.split())
    tokens.update(_WARMUP_PHRASE.split())
    tokens.update(PROMPT_PREFIX)
    tokens.update(("hint", "options", "or", ",", ":", "."))
    tokens.update(CONTENT_POOL)
    tokens.update(GLOBAL_FEATURES)
    tokens.update(LABEL_LEXICON)
    tokens.update(*RATIONALES)
    tokens.update(*(spec.instruction for spec in suite.specs))
    return tokens
