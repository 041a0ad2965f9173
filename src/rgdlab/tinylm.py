"""A compact, deterministic, trainable autoregressive language model.

The model is a fixed-window feed-forward predictor: the embeddings of the
last ``context_len`` tokens are concatenated, passed through one tanh hidden
layer, and projected to a softmax over the vocabulary.  Windows shorter than
``context_len`` are left-padded with BOS, so the unconditional case (empty
context) is simply an all-BOS window.

Everything is float64 and every source of randomness is an explicit seed fed
to numpy's PCG64 generator (``np.random.default_rng``), so identical inputs
give bit-identical outputs.
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

# A mean NLL beyond this means some assigned probability underflowed float64
# (exp(-745) is the smallest positive double), so training has diverged even
# though the arithmetic stayed finite.
DIVERGENCE_NLL = 745.0


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

    def id(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise InvalidTokenError(f"unknown token {token!r}") from None

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise InvalidTokenError(f"token id {token_id} out of range")
        return self.tokens[token_id]

    def encode(self, tokens) -> list[int]:
        index = self.index
        try:
            return [index[t] for t in tokens]
        except KeyError as err:
            raise InvalidTokenError(f"unknown token {err.args[0]!r}") from None

    def decode(self, ids) -> list[str]:
        return [self.token(i) for i in ids]


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
    """Total and per-token negative log-likelihood in nats."""

    sum_nll: float
    n_tokens: int
    per_token: tuple[float, ...]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    momentum: float
    seed: int
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")


def init_model(vocab: Vocab, context_len: int, embed_dim: int, hidden_dim: int,
               seed: int) -> ModelState:
    """Fresh model with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights."""
    if context_len <= 0 or embed_dim <= 0 or hidden_dim <= 0:
        raise ConfigError("context_len, embed_dim and hidden_dim must be positive")
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


def _check_ids(model: ModelState, ids, what: str):
    v = len(model.vocab)
    if len(ids) == 0 or (min(ids) >= 0 and max(ids) < v):
        return
    for i in ids:
        if not 0 <= i < v:
            raise InvalidTokenError(f"{what} id {i} out of range for |V|={v}")


def _target_windows(model: ModelState, context, target) -> np.ndarray:
    """One window per target token: the last context_len tokens before it."""
    c = model.context_len
    full = [BOS] * c
    full += context
    full += target
    start = len(context)
    rows = np.arange(start, start + len(target))
    return np.asarray(full, dtype=np.int64)[np.add.outer(rows, np.arange(c))]


def _forward(model: ModelState, windows: np.ndarray):
    """Logits for a batch of windows, with the activations kept for backprop."""
    n = windows.shape[0]
    x = model.embed.take(windows.ravel(), axis=0).reshape(n, -1)
    hidden = x @ model.w_hidden
    hidden += model.b_hidden
    np.tanh(hidden, out=hidden)
    logits = hidden @ model.w_out
    logits += model.b_out
    return x, hidden, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, computed in place: ``logits`` is overwritten."""
    logits -= logits.max(axis=1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits


def sequence_nll(model: ModelState, context, target) -> NllResult:
    """Exact per-token NLL of ``target`` after ``context`` (teacher forcing)."""
    if len(target) == 0:
        raise EmptyTargetError("target must be nonempty")
    _check_ids(model, context, "context")
    _check_ids(model, target, "target")
    windows = _target_windows(model, context, target)
    _, _, logits = _forward(model, windows)
    logp = _log_softmax(logits)
    per_token = -logp[np.arange(len(target)), np.asarray(target, dtype=np.int64)]
    return NllResult(
        sum_nll=float(per_token.sum()),
        n_tokens=len(target),
        per_token=tuple(float(t) for t in per_token),
    )


def perplexity(nll: NllResult) -> float:
    """exp of the mean per-token NLL in nats."""
    if nll.n_tokens == 0:
        raise EmptyTargetError("perplexity undefined for zero tokens")
    with np.errstate(over="ignore"):
        return float(np.exp(nll.sum_nll / nll.n_tokens))


def _batch_grads(model: ModelState, windows, targets):
    """Mean-per-token CE loss and its gradients for one batch of windows."""
    n = windows.shape[0]
    x, hidden, logits = _forward(model, windows)
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(n), targets].mean())

    d_logits = np.exp(logp, out=logp)
    d_logits[np.arange(n), targets] -= 1.0
    d_logits /= n

    g_w_out = hidden.T @ d_logits
    g_b_out = d_logits.sum(axis=0)
    d_hidden = d_logits @ model.w_out.T
    d_tanh = np.multiply(hidden, hidden, out=hidden)      # hidden is not used below
    np.subtract(1.0, d_tanh, out=d_tanh)
    d_hidden *= d_tanh
    g_w_hidden = x.T @ d_hidden
    g_b_hidden = d_hidden.sum(axis=0)
    d_x = d_hidden @ model.w_hidden.T
    # Scatter-add of d_x into the rows of the embedding table.  Each element
    # (v, e) sums its terms in window order, as np.add.at would, so the
    # result is bit-identical to it.
    v, e = model.embed.shape
    flat = (windows * e)[..., None] + np.arange(e)
    g_embed = np.bincount(flat.ravel(), weights=d_x.ravel(), minlength=v * e).reshape(v, e)

    grads = {
        "embed": g_embed,
        "w_hidden": g_w_hidden,
        "b_hidden": g_b_hidden,
        "w_out": g_w_out,
        "b_out": g_b_out,
    }
    return loss, grads


def train(model: ModelState, corpus, cfg: TrainConfig):
    """Minibatch SGD with momentum over (context, target) pairs.

    Batches are whole pairs; the loss of a batch is the mean NLL over all
    target tokens it contains.  Returns a new state plus the per-epoch mean
    loss trace; the input model is left untouched.
    """
    if not corpus:
        raise ConfigError("corpus must be nonempty")
    for context, target in corpus:
        if len(target) == 0:
            raise ConfigError("corpus contains a pair with an empty target")
        _check_ids(model, context, "context")
        _check_ids(model, target, "target")

    out = model.copy()
    if cfg.epochs == 0:
        return out, []

    windows = [_target_windows(model, ctx, tgt) for ctx, tgt in corpus]
    targets = [np.asarray(tgt, dtype=np.int64) for _, tgt in corpus]

    rng = np.random.default_rng(cfg.seed)
    velocity = {name: np.zeros_like(p) for name, p in out.params()}
    trace = []
    n_pairs = len(corpus)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_pairs) if cfg.shuffle else np.arange(n_pairs)
            epoch_nll = 0.0
            epoch_tokens = 0
            for lo in range(0, n_pairs, cfg.batch_size):
                batch = order[lo:lo + cfg.batch_size]
                w = np.concatenate([windows[i] for i in batch])
                y = np.concatenate([targets[i] for i in batch])
                loss, grads = _batch_grads(out, w, y)
                if not math.isfinite(loss) or loss > DIVERGENCE_NLL:
                    raise DivergenceError(f"diverged loss {loss} in epoch {epoch}")
                epoch_nll += loss * len(y)
                epoch_tokens += len(y)
                for name, p in out.params():
                    v = velocity[name]
                    v *= cfg.momentum
                    v += grads[name]
                    p -= cfg.learning_rate * v
            mean = epoch_nll / epoch_tokens
            if not math.isfinite(mean) or mean > DIVERGENCE_NLL:
                raise DivergenceError(f"diverged loss {mean} in epoch {epoch}")
            trace.append(mean)
    return out, trace


def generate_batch(model: ModelState, prompts, max_len: int) -> list[list[int]]:
    """Greedy continuation of several prompts at once.

    Ties go to the lowest token id (numpy argmax picks the first maximum).
    Generation of a prompt stops at EOS, which is not part of the output.
    """
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    for p in prompts:
        _check_ids(model, p, "prompt")
    c = model.context_len
    n = len(prompts)
    windows = np.full((n, c), BOS, dtype=np.int64)
    for i, p in enumerate(prompts):
        tail = np.asarray(list(p), dtype=np.int64)[-c:]
        if len(tail):
            windows[i, c - len(tail):] = tail
    outputs: list[list[int]] = [[] for _ in range(n)]
    active = np.ones(n, dtype=bool)
    for _ in range(max_len):
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        _, _, logits = _forward(model, windows[idx])
        nxt = logits.argmax(axis=1)
        for row, tok in zip(idx, nxt):
            if tok == EOS:
                active[row] = False
                continue
            outputs[row].append(int(tok))
            windows[row, :-1] = windows[row, 1:]
            windows[row, -1] = tok
    return outputs


def grad_check(model: ModelState, pair, epsilon: float, n_coords: int = 64) -> float:
    """Max relative error between analytic and central-difference gradients.

    The mean per-token NLL of ``pair`` is the objective; coordinates are a
    seeded random subset (at least 50 when the model has that many).
    """
    if not 1e-8 <= epsilon <= 1e-2:
        raise ConfigError("epsilon must be in [1e-8, 1e-2]")
    context, target = pair
    windows = _target_windows(model, context, target)
    targets = np.asarray(target, dtype=np.int64)

    work = model.copy()
    _, grads = _batch_grads(work, windows, targets)

    sizes = [(name, p.size) for name, p in work.params()]
    total = sum(s for _, s in sizes)
    rng = np.random.default_rng(model.rng_seed)
    coords = rng.choice(total, size=min(total, max(50, n_coords)), replace=False)

    def loss_at() -> float:
        _, _, logits = _forward(work, windows)
        logp = _log_softmax(logits)
        return float(-logp[np.arange(len(targets)), targets].mean())

    flat_params = {name: p.reshape(-1) for name, p in work.params()}
    flat_grads = {name: g.reshape(-1) for name, g in grads.items()}

    worst = 0.0
    for coord in sorted(int(c) for c in coords):
        offset = coord
        for name, size in sizes:
            if offset < size:
                break
            offset -= size
        buf = flat_params[name]
        orig = buf[offset]
        buf[offset] = orig + epsilon
        up = loss_at()
        buf[offset] = orig - epsilon
        down = loss_at()
        buf[offset] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = flat_grads[name][offset]
        err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-12)
        worst = max(worst, err)
    return worst


def _encode_array(a: np.ndarray) -> dict:
    return {
        "shape": list(a.shape),
        "dtype": "float64",
        "data": base64.b64encode(np.ascontiguousarray(a, dtype=np.float64).tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(d["shape"]).copy()


def save_model(model: ModelState, path) -> None:
    """Bit-exact checkpoint: vocab, dims, seed and float64 parameter bytes."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "vocab": list(model.vocab.tokens),
        "context_len": model.context_len,
        "embed_dim": model.embed_dim,
        "hidden_dim": model.hidden_dim,
        "rng_seed": model.rng_seed,
        "params": {name: _encode_array(p) for name, p in model.params()},
    }
    artifacts.write_json(path, doc, sort_keys=True)


def load_model(path) -> ModelState:
    """Checkpoint written by save_model; keys and parameter shapes are checked."""
    doc = artifacts.read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    try:
        vocab = Vocab(tokens=tuple(doc["vocab"]))
        v, c, e, h = len(vocab), doc["context_len"], doc["embed_dim"], doc["hidden_dim"]
        shapes = {"embed": (v, e), "w_hidden": (c * e, h), "b_hidden": (h,),
                  "w_out": (h, v), "b_out": (v,)}
        params = {name: _decode_array(doc["params"][name]) for name in shapes}
        seed = doc["rng_seed"]
    except KeyError as err:
        raise ParseError(f"{path}: checkpoint lacks key {err}") from None
    except (TypeError, ValueError) as err:
        raise ParseError(f"{path}: bad checkpoint: {err}") from None
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ParseError(f"{path}: {name} has shape {params[name].shape}, but the vocab "
                             f"and dims give {shape}")
    return ModelState(vocab=vocab, context_len=c, embed_dim=e, hidden_dim=h,
                      rng_seed=seed, **params)
