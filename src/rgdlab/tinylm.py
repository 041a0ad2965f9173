"""A compact, deterministic, trainable autoregressive language model.

The model is a fixed-window feed-forward predictor: the embeddings of the
last ``context_len`` tokens are concatenated, passed through one tanh hidden
layer, and projected to a softmax over the vocabulary.  Windows shorter than
``context_len`` are left-padded with BOS, so the unconditional case (empty
context) is simply an all-BOS window.

``train`` runs in float32; everything else is float64.  A ``ModelState``,
and so every checkpoint, holds float64 parameters; ``train`` copies them
into float32 buffers, runs every step there and hands back float64 arrays
whose values are float32 numbers.  A step's six matrix products take
about half as long in float32, which makes a base-model warmup step about a
third cheaper.  Scoring (``batch_nll``), greedy decoding and ``grad_check``
stay float64: exact NLL and RGD values, and central differences at epsilon
1e-5, need the wider type.  Because a trained model holds float32 values,
its checkpoint round-trips bit-exactly and the next ``train`` call enters
without rounding.  Every source of randomness is an explicit seed fed to
numpy's PCG64 generator (``np.random.default_rng``), so identical inputs
give bit-identical outputs.

Training allocates per ``train`` call, not per step: fresh batch-sized
arrays on every step were handed back to the kernel and faulted in again
(about 280k minor page faults per base-model warmup).  Each buffer is sized
for the largest batch, and every product writes into one with the same
operands and shape, so the results are bit-identical.  A ``_Workspace``
holds the forward and log-softmax buffers, which scoring, decoding and
``grad_check`` use too; ``train`` owns the backward pass's ``d_hidden`` and
the int64 windows (``grad_check``'s step only ``d_hidden``).  Parameters,
velocities and gradients each live in one flat buffer with a view per
parameter; the step ``lr * velocity`` goes into the gradient buffer, which
the next batch overwrites.

A step runs its forward and backward pass over the batch's distinct
windows only.  A window that occurs ``m`` times in a batch gets
``d_logits = (m * softmax - sum of its targets' one-hots) / n``, the sum of
its ``m`` rows, so the loss and gradients are those of all ``n`` rows.  The
distinct windows keep their first-occurrence order, and a count of 1.0
scales exactly, so a batch with no repeated window gets the bits of a step
over all its rows; a batch with repeats rounds differently.  The base-model
warmup corpus repeats windows (its empty-context examples share one of two
fixed rationales); task corpora repeat none.

``train`` plans each epoch before its first step (``_plan``).  For every
batch the plan holds the corpus rows of its distinct windows in
first-occurrence order, its target ids, which of those windows each target
follows, and each window's count in the training dtype.  A few passes over
the whole epoch build it (one ``np.sort`` of (window id, position) keys
finds the repeats of every batch), so a step only slices the plan, gathers
its windows and runs the math; per-batch index work took about a tenth of a
warmup step.  The plan holds indices only, about 0.4 MB per warmup epoch,
and frees its whole-epoch temporaries before the first step.
The step picks each target's log-probability, and subtracts its one-hot,
through one flat index ``where * |V| + target`` into the (windows, |V|)
block, and casts the counts to the block's dtype before scaling it: the
same bits as a two-dimensional index and integer counts, which widen the
block to float64, at a fraction of the cost.  ``grad_check`` plans its one
batch the same way.

Windows are token ids in the smallest unsigned dtype that holds the
vocabulary (``uint8`` up to 256 tokens, so at lab scale), built by
``_pair_windows`` for training, scoring, ``grad_check`` and decoding's
first step: a warmup corpus's 16,000 windows of 28 ids take 0.45 MB, where
int64 took 3.6 MB, the largest array of a warmup ``train`` call.  A step
widens only its batch's distinct windows into ``train``'s int64 buffer, so
the gather and the scatter's ``bincount`` index with intp ids; scoring and
``grad_check`` index with the compact ids as they are.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import artifacts
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyTargetError,
    InvalidTokenError,
    ParseError,
)

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")

CHECKPOINT_FORMAT = "tinylm-checkpoint-v1"

# The dtype of every training step (see the module docstring).
_TRAIN_DTYPE = np.float32
MOMENTUM = 0.9              # of every SGD step

# A mean training NLL beyond this means some assigned probability underflowed
# the training dtype (about 103.3 for float32, whose smallest positive value
# is exp(-103.28)), so training has diverged even though the arithmetic
# stayed finite.
DIVERGENCE_NLL = -math.log(np.finfo(_TRAIN_DTYPE).smallest_subnormal)


@dataclass(frozen=True)
class Vocab:
    """Dense token/id table with fixed reserved ids 0..3."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.tokens[:4]) != RESERVED:
            raise ConfigError(f"vocab must start with reserved tokens {RESERVED}")
        index = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise ConfigError(f"duplicate token {tok!r}")
            index[tok] = i
        object.__setattr__(self, "index", index)

    @classmethod
    def build(cls, content_tokens) -> "Vocab":
        """Reserved tokens plus the sorted, de-duplicated content tokens."""
        content = sorted(set(content_tokens) - set(RESERVED))
        return cls(tokens=RESERVED + tuple(content))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        index = self.index
        try:
            return [index[t] for t in tokens]
        except KeyError as err:
            raise InvalidTokenError(f"unknown token {err.args[0]!r}") from None

    def decode(self, ids) -> list[str]:
        """The tokens of a sequence of ids; the first id out of range raises."""
        tokens = self.tokens
        if len(ids) and not (min(ids) >= 0 and max(ids) < len(tokens)):
            bad = next(i for i in ids if not 0 <= i < len(tokens))
            raise InvalidTokenError(f"token id {bad} out of range")
        return [tokens[i] for i in ids]


@dataclass
class ModelState:
    """All parameters of the window LM plus its vocabulary and init seed."""

    vocab: Vocab
    context_len: int
    embed_dim: int
    hidden_dim: int
    embed: np.ndarray      # (|V|, embed_dim)
    w_hidden: np.ndarray   # (context_len * embed_dim, hidden_dim)
    b_hidden: np.ndarray   # (hidden_dim,)
    w_out: np.ndarray      # (hidden_dim, |V|)
    b_out: np.ndarray      # (|V|,)
    rng_seed: int

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("embed", self.embed),
            ("w_hidden", self.w_hidden),
            ("b_hidden", self.b_hidden),
            ("w_out", self.w_out),
            ("b_out", self.b_out),
        ]

    def copy(self) -> "ModelState":
        return replace(
            self,
            embed=self.embed.copy(),
            w_hidden=self.w_hidden.copy(),
            b_hidden=self.b_hidden.copy(),
            w_out=self.w_out.copy(),
            b_out=self.b_out.copy(),
        )


@dataclass(frozen=True)
class NllResult:
    """Negative log-likelihood in nats of a target's ``n_tokens`` tokens, summed."""

    sum_nll: float
    n_tokens: int


@dataclass(frozen=True)
class ModelDims:
    context_len: int = 28
    embed_dim: int = 12
    hidden_dim: int = 128

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer settings of one training phase, as a config file gives them."""

    learning_rate: float = 0.15
    epochs: int = 10
    batch_size: int = 16

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:      # NaN fails too
            raise ConfigError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")


@dataclass(frozen=True, kw_only=True)
class TrainConfig(TrainSettings):
    """The settings of one ``train`` call: a phase's settings plus its seed."""

    seed: int


def init_model(vocab: Vocab, context_len: int, embed_dim: int, hidden_dim: int,
               seed: int) -> ModelState:
    """Fresh model with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights."""
    ModelDims(context_len, embed_dim, hidden_dim)      # checks them
    if len(vocab) < 5:
        raise ConfigError("vocab needs at least one content token beyond the reserved ids")
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        s = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    v = len(vocab)
    return ModelState(
        vocab=vocab,
        context_len=context_len,
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        embed=uniform((v, embed_dim), embed_dim),
        w_hidden=uniform((context_len * embed_dim, hidden_dim), context_len * embed_dim),
        b_hidden=np.zeros(hidden_dim),
        w_out=uniform((hidden_dim, v), hidden_dim),
        b_out=np.zeros(v),
        rng_seed=seed,
    )


def _pair_windows(model: ModelState, pairs, empty_target: Exception, context_name="context"):
    """Windows and target ids of a nonempty list of (context, target) pairs, concatenated.

    Row k of a pair's windows holds the last ``context_len`` tokens before its
    target token k, BOS-padded on the left.  Windows come in the smallest
    unsigned dtype that holds every token id of the vocabulary (``uint8`` up
    to 256 tokens); target ids are int64.  Also returns each pair's target
    count.  Pairs are checked in order: the first empty target raises
    ``empty_target``, the first out-of-range id ``InvalidTokenError``.
    """
    c, v = model.context_len, len(model.vocab)
    pad = [BOS] * c
    tokens: list[int] = []
    first = []                  # where each pair's first window starts in tokens
    lens = []
    for context, target in pairs:
        first.append(len(tokens) + len(context))
        lens.append(len(target))
        tokens += pad
        tokens += context
        tokens += target
    if min(lens) == 0 or min(tokens) < 0 or max(tokens) >= v:
        for context, target in pairs:
            if len(target) == 0:
                raise empty_target
            for what, ids in ((context_name, context), ("target", target)):
                for i in ids:
                    if not 0 <= i < v:
                        raise InvalidTokenError(f"{what} id {i} out of range for |V|={v}")
    lens = np.asarray(lens, dtype=np.int64)
    offsets = np.cumsum(lens) - lens
    starts = np.repeat(np.asarray(first, dtype=np.int64) - offsets, lens)
    starts += np.arange(len(starts))
    seq = np.asarray(tokens, dtype=np.min_scalar_type(v - 1))
    windows = np.lib.stride_tricks.sliding_window_view(seq, c)[starts]
    return windows, seq[starts + c].astype(np.int64), lens


class _Workspace:
    """Forward and log-softmax buffers for batches of up to ``rows`` windows,
    reused by every step of a ``train`` call (see the module docstring for
    why).  They have the dtype of ``model``'s parameters."""

    def __init__(self, model: ModelState, rows: int):
        v, dtype = len(model.vocab), model.embed.dtype
        self.x = np.empty((rows, model.context_len * model.embed_dim), dtype)  # x, then d_x
        self.hidden = np.empty((rows, model.hidden_dim), dtype)
        self.logits = np.empty((rows, v), dtype)
        self.exp = np.empty((rows, v), dtype)
        self.col = np.empty((rows, 1), dtype)


def _flat_views(model: ModelState, dtype) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One zeroed ``dtype`` buffer for all parameters, with a view shaped like each."""
    shapes = [(name, p.shape) for name, p in model.params()]
    flat = np.zeros(sum(math.prod(shape) for _, shape in shapes), dtype)
    views, lo = {}, 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = flat[lo:lo + size].reshape(shape)
        lo += size
    return flat, views


def _flat_copy(model: ModelState, dtype) -> tuple[np.ndarray, ModelState]:
    """A ``dtype`` copy of ``model`` whose parameters are views into one flat buffer."""
    flat, views = _flat_views(model, dtype)
    for name, p in model.params():
        views[name][...] = p
    return flat, replace(model, **views)


def _forward(model: ModelState, windows: np.ndarray, ws: _Workspace, blocks=None):
    """Logits for a batch of windows, with the activations kept for backprop.

    All three results are views into ``ws``, valid until its next use.
    ``blocks`` lists ``(lo, hi)`` row ranges that are multiplied separately
    (default: all rows at once), so each block gets the logits it would get
    alone: OpenBLAS's result for one row can depend on the row count of the
    product it is part of.
    """
    n, c = windows.shape
    blocks = blocks or [(0, n)]
    x, hidden, logits = ws.x[:n], ws.hidden[:n], ws.logits[:n]
    # Ids were range-checked on entry, so "clip" never clips; unlike the
    # default mode it writes straight into ``out`` without a buffer.
    model.embed.take(windows.ravel(), axis=0, out=x.reshape(n * c, model.embed_dim), mode="clip")
    for lo, hi in blocks:
        np.matmul(x[lo:hi], model.w_hidden, out=hidden[lo:hi])
    hidden += model.b_hidden
    np.tanh(hidden, out=hidden)
    for lo, hi in blocks:
        np.matmul(hidden[lo:hi], model.w_out, out=logits[lo:hi])
    logits += model.b_out
    return x, hidden, logits


def _log_softmax(logits: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Row-wise log-softmax, computed in place: ``logits`` is overwritten."""
    n = len(logits)
    col = ws.col[:n]
    logits -= np.max(logits, axis=1, keepdims=True, out=col)
    np.sum(np.exp(logits, out=ws.exp[:n]), axis=1, keepdims=True, out=col)
    logits -= np.log(col, out=col)
    return logits


def batch_nll(model: ModelState, pairs) -> list[NllResult]:
    """Exact NLL of each ``(context, target)`` pair, summed over its target (teacher forcing).

    All pairs share one gather, one log-softmax and one workspace; each
    result is bit-identical to what the pair scored alone would give.
    """
    if not pairs:
        return []
    windows, targets, lens = _pair_windows(model, pairs,
                                           EmptyTargetError("target must be nonempty"))
    ends = np.cumsum(lens).tolist()
    blocks = list(zip([0] + ends[:-1], ends))
    ws = _Workspace(model, len(targets))
    _, _, logits = _forward(model, windows, ws, blocks)
    per_token = -_log_softmax(logits, ws)[np.arange(len(targets)), targets]
    return [NllResult(sum_nll=float(per_token[lo:hi].sum()), n_tokens=hi - lo)
            for lo, hi in blocks]


def sequence_nll(model: ModelState, context, target) -> NllResult:
    """Exact NLL of ``target`` after ``context``, summed over its tokens (teacher forcing)."""
    return batch_nll(model, [(context, target)])[0]


def _window_ids(windows: np.ndarray) -> np.ndarray:
    """An id per window, shared by equal windows and by no other.

    Each row of the C-contiguous ``windows`` is compared as one byte string,
    so the key is exact; windows from ``_pair_windows`` are compact, so it
    costs ``context_len`` bytes a window at lab scale.
    """
    keys = windows.view(np.dtype((np.void, windows.strides[0]))).ravel()
    return np.unique(keys, return_inverse=True)[1]


def _plan(rows: np.ndarray, sizes: np.ndarray, targets: np.ndarray, ids, dtype):
    """Yields the steps of one epoch, as ``(rows, targets, where, counts)`` per batch.

    The epoch visits the corpus rows ``rows`` in order, and batch ``b`` takes
    the next ``sizes[b]`` of them.  A step gets the rows of its batch's
    distinct windows in first-occurrence order, its target ids, which of
    those windows each target follows, and how often each window occurs, in
    ``dtype``; ``ids`` comes from ``_window_ids``.  A few passes over the
    whole epoch build the plan before the first step, and it holds indices
    only: a step slices it and gathers its windows itself.
    """
    # Sorting id * n + position orders equal windows by position (a stable
    # sort by construction).  Batches follow positions, so a run of one
    # window in one batch starts where the id or the batch changes, and
    # its first entry is that window's first occurrence in the batch.
    batch = np.repeat(np.arange(len(sizes)), sizes)
    n = len(rows)
    key, pos = np.divmod(np.sort(ids[rows] * n + np.arange(n)), n)
    run_start = np.empty(n, bool)
    run_start[0] = True
    np.not_equal(key[1:], key[:-1], out=run_start[1:])
    run_start[1:] |= batch[pos[1:]] != batch[pos[:-1]]
    first_of = np.empty_like(pos)           # each row's first occurrence in its batch
    first_of[pos] = pos[run_start][np.cumsum(run_start) - 1]
    is_first = first_of == np.arange(n)
    first = np.flatnonzero(is_first)
    inverse = (np.cumsum(is_first) - 1)[first_of]   # index into first
    counts = np.bincount(inverse).astype(dtype)
    n_distinct = np.bincount(batch[first], minlength=len(sizes))
    d_ends = np.cumsum(n_distinct)
    where = inverse - np.repeat(d_ends - n_distinct, sizes)
    rows, targets = rows[first], targets[rows]
    # Only the four per-batch arrays live through the epoch's steps.
    del batch, key, pos, run_start, first_of, is_first, first, inverse
    lo, d_lo = 0, 0
    for hi, d_hi in zip(np.cumsum(sizes).tolist(), d_ends.tolist()):
        yield rows[d_lo:d_hi], targets[lo:hi], where[lo:hi], counts[d_lo:d_hi]
        lo, d_lo = hi, d_hi


def _batch_grads(model: ModelState, ws: _Workspace, d_hidden: np.ndarray, windows, targets,
                 grads, where, counts) -> float:
    """Mean-per-token CE loss of one batch of windows; gradients go into ``grads``.

    Target ``targets[i]`` follows window ``where[i]``, and window ``u``
    occurs ``counts[u]`` times in the batch.  The loss and the gradients
    are those of the ``len(targets)`` rows, each window with its target
    (see the module docstring).  ``grads`` maps each parameter name to an
    array of its shape, which is overwritten.  Every intermediate lives in
    ``ws`` and in ``d_hidden``, a (rows, hidden_dim) buffer of at least
    ``len(windows)`` rows.
    """
    n, u = len(targets), windows.shape[0]
    x, hidden, logits = _forward(model, windows, ws)
    logp = _log_softmax(logits, ws)
    # Each target's element of the contiguous (u, |V|) block, as a flat index.
    hit = where * logp.shape[1] + targets
    flat = logp.reshape(-1)
    loss = float(-flat[hit].mean())

    d_logits = np.exp(logp, out=logp)
    # In the block's dtype: an integer count would widen the product to
    # float64, which rounds back to the same bits at twice the cost.
    d_logits *= counts.astype(d_logits.dtype, copy=False)[:, None]
    np.subtract.at(flat, hit, d_logits.dtype.type(1.0))    # a window may repeat with one target
    d_logits /= n

    np.matmul(hidden.T, d_logits, out=grads["w_out"])
    np.sum(d_logits, axis=0, out=grads["b_out"])
    d_hidden = np.matmul(d_logits, model.w_out.T, out=d_hidden[:u])
    d_tanh = np.multiply(hidden, hidden, out=hidden)      # hidden is not used below
    np.subtract(1.0, d_tanh, out=d_tanh)
    d_hidden *= d_tanh
    np.matmul(x.T, d_hidden, out=grads["w_hidden"])
    np.sum(d_hidden, axis=0, out=grads["b_hidden"])
    d_x = np.matmul(d_hidden, model.w_hidden.T, out=x)    # x is not used below
    # Scatter-add of d_x into the rows of the embedding table, one column at
    # a time.  Each element (v, e) sums its terms in window order in float64,
    # then takes the table's dtype, so the result is bit-identical to
    # np.add.at into a float64 table cast to that dtype.
    v, e = model.embed.shape
    ids = windows.ravel()
    d_x = d_x.reshape(-1, e)
    g_embed = grads["embed"]
    for j in range(e):
        g_embed[:, j] = np.bincount(ids, weights=d_x[:, j], minlength=v)
    return loss


def train(model: ModelState, corpus, cfg: TrainConfig):
    """Minibatch SGD with momentum ``MOMENTUM`` over (context, target) pairs.

    Every epoch takes the pairs in a fresh seeded permutation, and batches
    are whole pairs; the loss of a batch is the mean NLL over all target
    tokens it contains.  Returns a new float64 state plus the per-epoch
    mean loss trace; the input model is left untouched.  Every step runs
    in float32, so the returned parameters are float32 values.  Parameters,
    velocities and gradients each live in one flat buffer, so the momentum
    update is four ufunc calls over all parameters at once.  Each epoch is
    planned before its first step, and every step computes each distinct
    window of its batch once, weighted by its count (see the module
    docstring).
    """
    if not corpus:
        raise ConfigError("corpus must be nonempty")
    windows, targets, lens = _pair_windows(
        model, corpus, ConfigError("corpus contains a pair with an empty target"))
    params, out = _flat_copy(model, _TRAIN_DTYPE)
    ids = _window_ids(windows)
    grad, grads = _flat_views(model, _TRAIN_DTYPE)
    velocity = np.zeros_like(params)
    most = int(np.sort(lens)[-cfg.batch_size:].sum())     # rows of the largest batch
    ws = _Workspace(out, most)
    wide = np.empty((most, model.context_len), np.int64)
    d_hidden = np.empty((most, model.hidden_dim), _TRAIN_DTYPE)
    starts = np.cumsum(lens) - lens
    all_rows = np.arange(len(targets))
    rng = np.random.default_rng(cfg.seed)
    trace = []
    n_pairs = len(corpus)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_pairs)
            pair_lens = lens[order]
            # The epoch's rows: each pair's rows, in the order of its pairs.
            rows = np.repeat(starts[order] - (np.cumsum(pair_lens) - pair_lens), pair_lens)
            rows += all_rows
            sizes = np.add.reduceat(pair_lens, np.arange(0, n_pairs, cfg.batch_size))
            epoch_nll = 0.0
            epoch_tokens = 0
            for distinct, y, where, counts in _plan(rows, sizes, targets, ids, _TRAIN_DTYPE):
                n = len(y)
                # Widened once per step: take and bincount want intp ids.
                w = wide[:len(distinct)]
                np.copyto(w, windows.take(distinct, axis=0, mode="clip"))
                loss = _batch_grads(out, ws, d_hidden, w, y, grads, where, counts)
                if not math.isfinite(loss) or loss > DIVERGENCE_NLL:
                    raise DivergenceError(f"diverged loss {loss} in epoch {epoch}")
                epoch_nll += loss * n
                epoch_tokens += n
                velocity *= MOMENTUM
                velocity += grad
                np.multiply(cfg.learning_rate, velocity, out=grad)
                params -= grad
            mean = epoch_nll / epoch_tokens
            if not math.isfinite(mean) or mean > DIVERGENCE_NLL:
                raise DivergenceError(f"diverged loss {mean} in epoch {epoch}")
            trace.append(mean)
    return _flat_copy(out, np.float64)[1], trace


def generate_batch(model: ModelState, prompts, max_len: int) -> list[list[int]]:
    """Greedy continuation of several prompts at once.

    Ties go to the lowest token id (numpy argmax picks the first maximum).
    Generation of a prompt stops at EOS, which is not part of the output.
    """
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    if not prompts:
        return []
    # A prompt's first window is the one before a one-token target; none is empty.
    windows, _, _ = _pair_windows(model, [(p, [EOS]) for p in prompts], None, "prompt")
    n = len(prompts)
    out = np.empty((n, max_len), dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)
    active = np.arange(n)               # the prompt of each row of windows
    ws = _Workspace(model, n)
    for step in range(max_len):
        if len(active) == 0:
            break
        _, _, logits = _forward(model, windows, ws)
        nxt = logits.argmax(axis=1)
        going = nxt != EOS
        active, nxt = active[going], nxt[going]
        out[active, step] = nxt
        lengths[active] = step + 1
        windows = np.concatenate((windows[going, 1:], nxt[:, None]), axis=1)
    return [out[i, :k].tolist() for i, k in enumerate(lengths.tolist())]


def grad_check(model: ModelState, pair, epsilon: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    The mean per-token NLL of ``pair`` is the objective; coordinates are a
    seeded random subset of 64 (all of them when the model has fewer).  The
    analytic gradient comes from the training step's kernel, repeated
    windows weighted by their count; the numeric one from the scoring
    kernel, ``batch_nll``, over every window.  So the check compares the
    two.  Both run in float64, not in the training dtype: central
    differences at epsilon 1e-5 need its precision.
    """
    if not 1e-8 <= epsilon <= 1e-2:
        raise ConfigError("epsilon must be in [1e-8, 1e-2]")
    windows, targets, _ = _pair_windows(model, [pair],
                                        EmptyTargetError("target must be nonempty"))
    params, work = _flat_copy(model, np.float64)
    grad, grads = _flat_views(model, np.float64)
    n = len(targets)
    (distinct, y, where, counts), = _plan(np.arange(n), np.array([n]), targets,
                                          _window_ids(windows), np.float64)
    _batch_grads(work, _Workspace(work, n), np.empty((n, model.hidden_dim)),
                 windows[distinct], y, grads, where, counts)

    rng = np.random.default_rng(model.rng_seed)
    coords = rng.choice(params.size, size=min(params.size, 64), replace=False)

    def loss_at() -> float:
        nll, = batch_nll(work, [pair])
        return nll.sum_nll / nll.n_tokens

    worst = 0.0
    for coord in sorted(int(c) for c in coords):
        orig = params[coord]
        params[coord] = orig + epsilon
        up = loss_at()
        params[coord] = orig - epsilon
        down = loss_at()
        params[coord] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = grad[coord]
        err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-12)
        worst = max(worst, err)
    return worst


def _decode_array(name: str, d: dict, shape: tuple) -> np.ndarray:
    """Checkpoint array ``name``, which the vocab and dims give ``shape``."""
    if d["dtype"] != "float64" or d["shape"] != list(shape):
        raise ValueError(f"{name} is {d['dtype']!r} of shape {d['shape']}, but must be "
                         f"'float64' of shape {list(shape)}, as the vocab and dims give")
    raw = base64.b64decode(d.pop("data"))      # the string is freed as its array is made
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{name} has {len(raw)} data bytes, not {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()


def save_model(model: ModelState, path, *copies) -> None:
    """Bit-exact checkpoint: vocab, dims, seed and float64 parameter bytes.

    The checkpoint is encoded once and written to ``path`` and to every
    path in ``copies``.
    """
    # json lays out the document with empty data, and each array's base64 is
    # spliced in after, in one join: base64 needs no JSON escaping, and
    # scanning it for escapes took most of the encoding time.  A JSON string
    # escapes its quotes, so '"data": "' occurs only where json wrote a key.
    params = dict(model.params())
    doc = {
        "format": CHECKPOINT_FORMAT,
        "vocab": list(model.vocab.tokens),
        "context_len": model.context_len,
        "embed_dim": model.embed_dim,
        "hidden_dim": model.hidden_dim,
        "rng_seed": model.rng_seed,
        "params": {name: {"shape": list(p.shape), "dtype": "float64", "data": ""}
                   for name, p in params.items()},
    }
    head, *tails = artifacts.json_text(doc, sort_keys=True).split('"data": "')
    chunks = [head]
    for name, tail in zip(sorted(params), tails):       # the arrays in document order
        data = base64.b64encode(np.ascontiguousarray(params[name], dtype=np.float64))
        chunks += ['"data": "', data.decode("ascii"), tail]
    text = "".join(chunks)
    for target in (path, *copies):
        artifacts.write_text(target, text)


def load_model(path) -> ModelState:
    """Checkpoint written by save_model; keys, ``init_model``'s bounds on the
    vocab and dims, the vocab's strings, the seed and the parameters'
    shapes, dtype and sizes are checked."""
    doc = artifacts.read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    try:
        tokens = tuple(doc["vocab"])
        for i, tok in enumerate(tokens):
            if not isinstance(tok, str):
                raise ValueError(f"vocab entry {i} is {tok!r}, not a string")
        vocab = Vocab(tokens=tokens)
        v, c, e, h = len(vocab), doc["context_len"], doc["embed_dim"], doc["hidden_dim"]
        seed = doc["rng_seed"]
        if v < 5:
            raise ValueError(f"vocab has {v} tokens, fewer than 5")
        for name, value in (("context_len", c), ("embed_dim", e), ("hidden_dim", h)):
            if not (type(value) is int and value > 0):      # JSON true is no int here
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if not (type(seed) is int and seed >= 0):
            raise ValueError(f"rng_seed must be a nonnegative int, got {seed!r}")
        shapes = {"embed": (v, e), "w_hidden": (c * e, h), "b_hidden": (h,),
                  "w_out": (h, v), "b_out": (v,)}
        params = {name: _decode_array(name, doc["params"][name], shape)
                  for name, shape in shapes.items()}
    except KeyError as err:
        raise ParseError(f"{path}: checkpoint lacks key {err}") from None
    except (TypeError, ValueError) as err:      # ConfigError (a bad vocab) is a ValueError
        raise ParseError(f"{path}: bad checkpoint: {err}") from None
    return ModelState(vocab=vocab, context_len=c, embed_dim=e, hidden_dim=h,
                      rng_seed=seed, **params)
