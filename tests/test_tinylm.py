"""Unit and oracle tests for the window language model."""

import base64
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rgdlab import artifacts, tinylm
from rgdlab.errors import (
    ConfigError,
    DivergenceError,
    EmptyTargetError,
    InvalidTokenError,
    ParseError,
)
from rgdlab.tinylm import (
    BOS,
    EOS,
    NllResult,
    TrainConfig,
    Vocab,
    generate_batch,
    grad_check,
    init_model,
    load_model,
    save_model,
    sequence_nll,
    train,
)


def make_vocab(n_content):
    return Vocab.build(f"w{i}" for i in range(n_content))


def zeroed(model):
    """All weights and biases set to zero, for hand-built parameter tests."""
    for _, p in model.params():
        p[:] = 0.0
    return model


class TestVocab:
    def test_reserved_ids_fixed(self):
        v = make_vocab(4)
        assert v.tokens[:4] == tinylm.RESERVED
        assert v.encode(["<bos>"]) == [BOS]

    def test_lookup_roundtrip(self):
        v = make_vocab(6)
        ids = list(range(len(v)))
        assert v.encode(v.decode(ids)) == ids

    def test_duplicate_token_rejected(self):
        with pytest.raises(ConfigError):
            Vocab(tokens=tinylm.RESERVED + ("a", "a"))

    def test_unknown_token(self):
        v = make_vocab(3)
        with pytest.raises(InvalidTokenError, match="unknown token 'nope'"):
            v.encode(["w0", "nope"])

    def test_decode_names_first_bad_id(self):
        v = make_vocab(3)
        assert v.decode([4, 0, 6]) == ["w0", "<pad>", "w2"]
        assert v.decode([]) == []
        # -1 would index the last token of the tuple without the range check
        with pytest.raises(InvalidTokenError, match="token id -1 out of range"):
            v.decode([4, -1, 5])
        with pytest.raises(InvalidTokenError, match="token id 7 out of range"):
            v.decode([4, 7, -1])


class TestInitModel:
    def test_same_seed_bit_identical(self):
        v = make_vocab(6)
        a = init_model(v, 4, 8, 16, seed=7)
        b = init_model(v, 4, 8, 16, seed=7)
        for (_, pa), (_, pb) in zip(a.params(), b.params()):
            assert pa.tobytes() == pb.tobytes()

    def test_different_seed_differs(self):
        v = make_vocab(6)
        a = init_model(v, 4, 8, 16, seed=7)
        b = init_model(v, 4, 8, 16, seed=8)
        assert not np.array_equal(a.embed, b.embed)

    def test_zero_context_rejected(self):
        with pytest.raises(ConfigError):
            init_model(make_vocab(6), 0, 8, 16, seed=7)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ConfigError):
            init_model(Vocab(tokens=tinylm.RESERVED), 2, 4, 4, seed=1)

    def test_init_scale(self):
        v = make_vocab(20)
        m = init_model(v, 3, 9, 16, seed=0)
        assert np.max(np.abs(m.embed)) <= 1 / math.sqrt(9)
        assert np.max(np.abs(m.w_hidden)) <= 1 / math.sqrt(27)
        assert np.all(m.b_hidden == 0) and np.all(m.b_out == 0)


class TestSequenceNll:
    def test_uniform_over_content(self):
        # Zero weights plus a large equal bias on the four content ids gives
        # a uniform distribution over them.
        v = make_vocab(4)
        m = zeroed(init_model(v, 3, 4, 4, seed=0))
        m.b_out[4:] = 50.0
        target = [4, 5, 6]
        res = sequence_nll(m, [], target)
        assert res.sum_nll == pytest.approx(3 * math.log(4), rel=1e-9)
        assert res.n_tokens == 3

    def test_certain_model_zero_nll(self):
        v = make_vocab(4)
        m = zeroed(init_model(v, 2, 4, 4, seed=0))
        m.b_out[5] = 50.0
        res = sequence_nll(m, [], [5, 5])
        assert res.sum_nll < 1e-12

    def test_hand_built_bigram(self):
        # context_len 1, scalar embedding, one hidden unit: p(b|a) = 1/4 by
        # construction, so the per-token NLL is exactly ln 4.
        v = Vocab(tokens=tinylm.RESERVED + ("a", "b"))
        m = zeroed(init_model(v, 1, 1, 1, seed=0))
        a, b = v.encode(["a", "b"])
        m.embed[a, 0] = 1.0
        m.w_hidden[0, 0] = 1.0
        # p(b|a) = e^z / (e^z + 5) = 1/4  =>  z = ln(5/3)
        m.w_out[0, b] = math.log(5.0 / 3.0) / math.tanh(1.0)
        res = sequence_nll(m, [a], [b])
        assert res.sum_nll == pytest.approx(math.log(4), rel=1e-9)

    def test_empty_target_rejected(self):
        m = init_model(make_vocab(4), 2, 4, 4, seed=0)
        with pytest.raises(EmptyTargetError):
            sequence_nll(m, [4], [])

    def test_out_of_range_id_rejected(self):
        m = init_model(make_vocab(4), 2, 4, 4, seed=0)
        with pytest.raises(InvalidTokenError):
            sequence_nll(m, [4], [99])

    def test_additivity(self):
        rng = np.random.default_rng(3)
        m = init_model(make_vocab(8), 3, 4, 6, seed=11)
        for _ in range(10):
            ctx = list(rng.integers(0, 12, size=rng.integers(0, 5)))
            t1 = list(rng.integers(0, 12, size=rng.integers(1, 4)))
            t2 = list(rng.integers(0, 12, size=rng.integers(1, 4)))
            whole = sequence_nll(m, ctx, t1 + t2).sum_nll
            parts = sequence_nll(m, ctx, t1).sum_nll + sequence_nll(m, ctx + t1, t2).sum_nll
            assert whole == pytest.approx(parts, rel=1e-9)

    def test_sum_matches_per_token(self):
        # Each token's NLL scored alone, after the context and the tokens before it.
        m = init_model(make_vocab(8), 3, 4, 6, seed=11)
        context, target = [4, 5], [6, 7, 8]
        res = sequence_nll(m, context, target)
        per_token = [sequence_nll(m, context + target[:k], [t]).sum_nll
                     for k, t in enumerate(target)]
        assert res.n_tokens == 3
        assert res.sum_nll == pytest.approx(sum(per_token), rel=1e-9)


class TestNormalization:
    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            m = init_model(make_vocab(10), 4, 5, 7, seed=seed)
            ctx = list(rng.integers(0, len(m.vocab), size=rng.integers(0, 6)))
            probs = np.exp([-sequence_nll(m, ctx, [t]).sum_nll for t in range(len(m.vocab))])
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(probs >= 0)


def float32_copy(model):
    """``model`` with its parameters rounded to float32, the dtype ``train`` steps in."""
    return replace(model, **{name: p.astype(np.float32) for name, p in model.params()})


def reference_batch_grads(model, windows, targets):
    """The training step as first written, in the dtype of ``model``'s
    parameters, scattering with np.add.at into float64 and then casting."""
    n = windows.shape[0]
    x = model.embed[windows].reshape(n, -1)
    hidden = np.tanh(x @ model.w_hidden + model.b_hidden)
    logits = hidden @ model.w_out + model.b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), targets].mean())
    d_logits = np.exp(logp)
    d_logits[np.arange(n), targets] -= 1.0
    d_logits /= n
    d_hidden = (d_logits @ model.w_out.T) * (1.0 - hidden * hidden)
    d_x = (d_hidden @ model.w_hidden.T).reshape(n, model.context_len, model.embed_dim)
    g_embed = np.zeros(model.embed.shape)
    np.add.at(g_embed, windows, d_x)
    return loss, {"embed": g_embed.astype(model.embed.dtype), "w_hidden": x.T @ d_hidden,
                  "b_hidden": d_hidden.sum(axis=0), "w_out": hidden.T @ d_logits,
                  "b_out": d_logits.sum(axis=0)}


def reference_windows(model, context, target):
    """One window per target token, from a sliding view over the padded sequence."""
    full = np.concatenate([np.full(model.context_len, BOS, dtype=np.int64),
                           np.asarray(list(context) + list(target), dtype=np.int64)])
    start = len(context)
    return np.lib.stride_tricks.sliding_window_view(
        full, model.context_len)[start:start + len(target)]


def reference_train(model, corpus, cfg):
    """The training loop as first written: fresh arrays on every step, one
    momentum update per parameter, and each batch concatenated from lists,
    all in float32, as ``train`` steps.  Also says whether some batch
    repeated a window."""
    out = float32_copy(model)
    repeated = False
    windows = [reference_windows(model, ctx, tgt) for ctx, tgt in corpus]
    targets = [np.asarray(tgt, dtype=np.int64) for _, tgt in corpus]
    rng = np.random.default_rng(cfg.seed)
    velocity = {name: np.zeros_like(p) for name, p in out.params()}
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        epoch_nll, epoch_tokens = 0.0, 0
        for lo in range(0, len(corpus), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            w = np.concatenate([windows[i] for i in batch])
            y = np.concatenate([targets[i] for i in batch])
            repeated |= len(np.unique(w, axis=0)) < len(w)
            loss, grads = reference_batch_grads(out, w, y)
            epoch_nll += loss * len(y)
            epoch_tokens += len(y)
            for name, p in out.params():
                v = velocity[name]
                v *= tinylm.MOMENTUM
                v += grads[name]
                p -= cfg.learning_rate * v
        trace.append(epoch_nll / epoch_tokens)
    return out, trace, repeated


def reference_generate(model, prompts, max_len):
    """Greedy decoding as first written: each active window shifted in a Python loop."""
    c = model.context_len
    windows = np.full((len(prompts), c), BOS, dtype=np.int64)
    for i, p in enumerate(prompts):
        tail = np.asarray(list(p), dtype=np.int64)[-c:]
        if len(tail):
            windows[i, c - len(tail):] = tail
    outputs = [[] for _ in prompts]
    active = np.ones(len(prompts), dtype=bool)
    for _ in range(max_len):
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        x = model.embed[windows[idx]].reshape(len(idx), -1)
        logits = np.tanh(x @ model.w_hidden + model.b_hidden) @ model.w_out + model.b_out
        for row, tok in zip(idx, logits.argmax(axis=1)):
            if tok == EOS:
                active[row] = False
                continue
            outputs[row].append(int(tok))
            windows[row, :-1] = windows[row, 1:]
            windows[row, -1] = tok
    return outputs


def reference_grad_check(model, pair, epsilon):
    """``grad_check`` with the numeric loss of its first form: a plain
    forward pass over every window, a log-softmax and the mean NLL."""
    windows, targets, _ = tinylm._pair_windows(model, [pair], ValueError())
    params, work = tinylm._flat_copy(model, np.float64)
    grad, grads = tinylm._flat_views(model, np.float64)
    n = len(targets)
    (distinct, y, where, counts), = tinylm._plan(np.arange(n), np.array([n]), targets,
                                                 tinylm._window_ids(windows), np.float64)
    tinylm._batch_grads(work, tinylm._Workspace(work, n), np.empty((n, model.hidden_dim)),
                        windows[distinct], y, grads, where, counts)

    def loss_at():
        x = work.embed[windows].reshape(n, -1)
        logits = np.tanh(x @ work.w_hidden + work.b_hidden) @ work.w_out + work.b_out
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(n), targets].mean())

    rng = np.random.default_rng(model.rng_seed)
    worst = 0.0
    for coord in sorted(rng.choice(params.size, size=min(params.size, 64), replace=False)):
        orig = params[coord]
        params[coord] = orig + epsilon
        up = loss_at()
        params[coord] = orig - epsilon
        down = loss_at()
        params[coord] = orig
        numeric = (up - down) / (2.0 * epsilon)
        err = abs(grad[coord] - numeric) / max(abs(grad[coord]) + abs(numeric), 1e-12)
        worst = max(worst, err)
    return worst


def distinct_corpus(n_pairs, vocab_size, seed):
    """Pairs with uneven targets and contexts that start with distinct ids, so
    that (at the sizes used here) no window repeats."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(n_pairs):
        context = [4 + i] + rng.integers(4, vocab_size, size=(1, 4, 9)[i % 3]).tolist()
        target = rng.integers(4, vocab_size, size=1 + i % 4).tolist() + [EOS]
        corpus.append((context, target))
    return corpus


# Relative and absolute tolerance of a float32 training run against the
# reference loop when some batch repeats a window: the two round that
# window's sums in a different order, about one float32 ulp per step (at
# most 1 ulp of the parameters and 0.73 ulp of the trace were measured over
# the 16 steps of these tests), so 64 ulps leave a wide margin.
REPEATS_TOL = 64 * float(np.finfo(np.float32).eps)

# Content-token counts of the training oracles' vocabularies: the first gives
# uint8 windows, the second (more than 256 tokens) uint16 windows.
CONTENT_SIZES = (12, 300)


def assert_params(got, want, exact):
    for (name, p), (_, q) in zip(got.params(), want.params()):
        assert p.shape == q.shape
        if exact:
            assert np.array_equal(p, q), name
        else:
            np.testing.assert_allclose(p, q, rtol=REPEATS_TOL, atol=REPEATS_TOL, err_msg=name)


def reference_dedup_train(model, corpus, cfg):
    """``train``'s loop with each batch's repeats found on their own: a
    np.unique over the batch's windows, its distinct windows put in
    first-occurrence order and weighted by their counts, then
    ``_batch_grads``.  Also counts the steps with and without a repeated
    window ("repeats" and "plain")."""
    windows, targets, lens = tinylm._pair_windows(model, corpus, ValueError())
    params, out = tinylm._flat_copy(model, np.float32)
    grad, grads = tinylm._flat_views(model, np.float32)
    velocity = np.zeros_like(params)
    ws = tinylm._Workspace(out, len(targets))
    d_hidden = np.empty((len(targets), model.hidden_dim), np.float32)
    starts = np.cumsum(lens) - lens
    rng = np.random.default_rng(cfg.seed)
    trace, steps = [], {"repeats": 0, "plain": 0}
    for _ in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        epoch_nll, epoch_tokens = 0.0, 0
        for lo in range(0, len(corpus), cfg.batch_size):
            rows = np.concatenate([starts[i] + np.arange(lens[i])
                                   for i in order[lo:lo + cfg.batch_size]])
            y = targets[rows]
            _, first, inverse, counts = np.unique(windows[rows], axis=0, return_index=True,
                                                  return_inverse=True, return_counts=True)
            steps["plain" if len(first) == len(rows) else "repeats"] += 1
            by_first = np.argsort(first)
            where = np.argsort(by_first)[inverse.ravel()]
            rows, counts = rows[first[by_first]], counts[by_first]
            loss = tinylm._batch_grads(out, ws, d_hidden, windows[rows], y, grads, where,
                                       counts)
            epoch_nll += loss * len(y)
            epoch_tokens += len(y)
            velocity *= tinylm.MOMENTUM
            velocity += grad
            params -= cfg.learning_rate * velocity
        trace.append(epoch_nll / epoch_tokens)
    return out, trace, steps


def mixed_corpus(n_pairs, vocab_size, seed):
    """Pairs with empty, short and longer-than-window contexts and uneven targets."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(n_pairs):
        context = rng.integers(4, vocab_size, size=(0, 2, 9)[i % 3]).tolist()
        target = rng.integers(4, vocab_size, size=1 + i % 4).tolist() + [EOS]
        corpus.append((context, target))
    return corpus


class TestExactKernels:
    """The rewritten hot-path kernels give the same bits as the plain numpy forms."""

    def test_batch_grads_match_add_at(self):
        m = init_model(make_vocab(12), 5, 6, 9, seed=4)
        pairs = [([4, 4, 5], [4, 6, 4, EOS]), ([], [7, 7, 7]), ([8, 9, 8, 9, 8, 9, 8], [9, 4])]
        windows = np.concatenate([reference_windows(m, c, t) for c, t in pairs])
        targets = np.concatenate([np.asarray(t, dtype=np.int64) for _, t in pairs])
        assert len(np.unique(windows)) < windows.size      # ids repeat across and within rows
        n = len(targets)
        for model in (m, float32_copy(m)):                  # grad_check's dtype and train's
            ws = tinylm._Workspace(model, n + 5)            # larger than the batch, as in train
            d_hidden = np.empty((n + 5, model.hidden_dim), model.embed.dtype)
            _, grads = tinylm._flat_views(model, model.embed.dtype)
            loss = tinylm._batch_grads(model, ws, d_hidden, windows, targets, grads,
                                       np.arange(n), np.ones(n, dtype=model.embed.dtype))
            ref_loss, ref_grads = reference_batch_grads(model, windows, targets)
            assert loss == ref_loss
            for name, g in ref_grads.items():
                assert grads[name].shape == g.shape and grads[name].dtype == g.dtype
                assert np.array_equal(grads[name], g), name

    @pytest.mark.parametrize("context", [[], [4, 5], [4, 5, 6, 7, 8, 9, 10, 11]])
    def test_target_windows_match_sliding_view(self, context):
        # Windows take the smallest unsigned dtype that holds every id of the
        # vocabulary; targets stay int64.
        for vocab_size, dtype in ((256, np.uint8), (257, np.uint16)):
            m = init_model(make_vocab(vocab_size - 4), 4, 3, 5, seed=0)
            top = vocab_size - 1
            pairs = [(context, [6, top, 8]), ([top], [5]), (context, [EOS])]
            windows, targets, lens = tinylm._pair_windows(m, pairs, ValueError())
            assert windows.dtype == dtype and targets.dtype == np.int64
            assert lens.tolist() == [3, 1, 1]
            want = np.concatenate([reference_windows(m, c, t) for c, t in pairs])
            assert np.array_equal(windows, want)
            assert targets.tolist() == [6, top, 8, 5, EOS]

    @pytest.mark.parametrize("batch_size", [3, 50])
    def test_train_matches_reference_loop(self, batch_size):
        for n_content in CONTENT_SIZES:
            m = init_model(make_vocab(n_content), 5, 6, 9, seed=4)
            before = [p.copy() for _, p in m.params()]
            corpus = mixed_corpus(11, len(m.vocab), seed=8)     # 11 pairs: the last batch of 3 is short
            cfg = TrainConfig(learning_rate=0.3, epochs=4, batch_size=batch_size, seed=6)
            trained, trace = train(m, corpus, cfg)
            ref, ref_trace, repeated = reference_train(m, corpus, cfg)
            # Two empty contexts in one batch share the all-BOS window, which train
            # computes once, weighted by two: the same sums, rounded differently.
            assert repeated
            np.testing.assert_allclose(trace, ref_trace, rtol=REPEATS_TOL)
            assert_params(trained, ref, exact=False)
            for (_, p), b in zip(m.params(), before):
                assert np.array_equal(p, b)

    @pytest.mark.parametrize("batch_size", [3, 4, 50])
    def test_train_without_repeats_is_bit_exact(self, batch_size):
        m = init_model(make_vocab(12), 5, 6, 9, seed=4)
        corpus = distinct_corpus(11, len(m.vocab), seed=8)
        windows, _, _ = tinylm._pair_windows(m, corpus, ValueError())
        ids = tinylm._window_ids(windows)
        assert len(np.unique(ids)) == len(ids) == len(windows)
        cfg = TrainConfig(learning_rate=0.3, epochs=4, batch_size=batch_size, seed=6)
        trained, trace = train(m, corpus, cfg)
        ref, ref_trace, repeated = reference_train(m, corpus, cfg)
        assert not repeated
        assert trace == ref_trace
        assert_params(trained, ref, exact=True)

    @pytest.mark.parametrize("batch_size", [1, 3, 50])
    def test_train_matches_per_batch_dedup_bit_for_bit(self, batch_size):
        for n_content in CONTENT_SIZES:
            m = init_model(make_vocab(n_content), 5, 6, 9, seed=4)
            # 13 pairs, so the last batch of 3 is short; the two added pairs each
            # repeat the window [6, 6, 6, 6, 6] within themselves.
            corpus = mixed_corpus(11, len(m.vocab), seed=8) + [([], [6] * 8 + [EOS]),
                                                              ([7], [6] * 7)]
            cfg = TrainConfig(learning_rate=0.3, epochs=4, batch_size=batch_size, seed=6)
            trained, trace = train(m, corpus, cfg)
            ref, ref_trace, steps = reference_dedup_train(m, corpus, cfg)
            assert steps["repeats"] > 0
            assert steps["plain"] > 0 or batch_size > len(corpus)
            assert trace == ref_trace
            assert_params(trained, ref, exact=True)

    def test_plan_keeps_first_occurrence_order(self):
        ids = np.array([7, 2, 7, 9, 2, 7, 5, 1, 3, 4, 4])
        rows = np.arange(11)
        targets = np.arange(11) + 100
        steps = list(tinylm._plan(rows, np.array([6, 3, 1, 1]), targets, ids, np.float32))
        distinct, y, where, counts = steps[0]
        assert distinct.tolist() == [0, 1, 3]
        assert y.tolist() == [100, 101, 102, 103, 104, 105]
        assert where.tolist() == [0, 1, 0, 2, 1, 0]
        assert counts.tolist() == [3, 2, 1] and counts.dtype == np.float32
        # No repeat within the batch: every window once, with a count of 1,
        # whatever other batches (or the corpus) repeat.
        for (distinct, y, where, counts), want in zip(steps[1:], ([6, 7, 8], [9], [10])):
            assert distinct.tolist() == want and y.tolist() == [r + 100 for r in want]
            assert where.tolist() == list(range(len(want)))
            assert counts.tolist() == [1] * len(want) and counts.dtype == np.float32
        (distinct, _, where, counts), = tinylm._plan(rows[:3], np.array([3]), targets,
                                                     np.arange(3), np.float64)
        assert distinct.tolist() == [0, 1, 2] and where.tolist() == [0, 1, 2]
        assert counts.tolist() == [1, 1, 1] and counts.dtype == np.float64
        # The epoch visits corpus rows in its own order.
        (distinct, y, where, counts), = tinylm._plan(np.array([4, 3, 2, 1, 0]), np.array([5]),
                                                     targets, ids, np.float64)
        assert distinct.tolist() == [4, 3, 2] and y.tolist() == [104, 103, 102, 101, 100]
        assert where.tolist() == [0, 1, 2, 0, 2] and counts.tolist() == [2, 1, 2]

    def test_window_ids_are_exact(self):
        # Ids that need two bytes, and windows that differ in one byte only.
        windows = np.array([[1, 1, 300], [1, 1, 44], [1, 1, 300], [44, 1, 1]], dtype=np.uint16)
        ids = tinylm._window_ids(windows).tolist()
        assert ids[0] == ids[2] and len(set(ids)) == 3
        assert len(set(tinylm._window_ids(windows[1:]).tolist())) == 3

    def test_weighted_batch_grads_match_repeated_rows(self):
        m = init_model(make_vocab(12), 2, 6, 9, seed=4)
        pairs = [([], [5, 5, 5, 5]), ([4], [5, 6, EOS]), ([], [5, 5, 7]), ([], [5, 5, 5, 5])]
        windows, targets, _ = tinylm._pair_windows(m, pairs, ValueError())
        n = len(targets)
        (distinct, y, where, counts), = tinylm._plan(
            np.arange(n), np.array([n]), targets, tinylm._window_ids(windows), np.float64)
        assert len(distinct) < len(windows) and counts.max() > 2
        ws, d_hidden = tinylm._Workspace(m, n), np.empty((n, m.hidden_dim))
        _, plain = tinylm._flat_views(m, np.float64)
        plain_loss = tinylm._batch_grads(m, ws, d_hidden, windows, targets, plain, np.arange(n),
                                         np.ones(n))
        _, weighted = tinylm._flat_views(m, np.float64)
        loss = tinylm._batch_grads(m, ws, d_hidden, windows[distinct], y, weighted, where,
                                   counts)
        assert loss == pytest.approx(plain_loss, rel=1e-12)
        for name, g in plain.items():
            np.testing.assert_allclose(weighted[name], g, rtol=1e-12, atol=1e-15, err_msg=name)

    def test_weighted_batch_grads_without_repeats_are_plain(self):
        m = init_model(make_vocab(12), 5, 6, 9, seed=4)
        pairs = [([4, 4, 5], [4, 6, 4, EOS]), ([8, 9, 8, 9, 8, 9, 8], [9, 4])]
        windows, targets, _ = tinylm._pair_windows(m, pairs, ValueError())
        n = len(targets)
        ws, d_hidden = tinylm._Workspace(m, n), np.empty((n, m.hidden_dim))
        plain_loss, plain = reference_batch_grads(m, windows, targets)
        _, weighted = tinylm._flat_views(m, np.float64)
        # Integer counts are cast to the block's dtype: 1 scales exactly.
        ones = np.ones(n, dtype=np.int64)
        loss = tinylm._batch_grads(m, ws, d_hidden, windows, targets, weighted, np.arange(n),
                                   ones)
        assert loss == plain_loss
        for name, g in plain.items():
            assert np.array_equal(weighted[name], g), name

    def test_train_results_share_no_memory(self):
        m = init_model(make_vocab(8), 3, 4, 8, seed=5)
        cfg = TrainConfig(learning_rate=0.2, epochs=2, batch_size=2, seed=9)
        corpus = mixed_corpus(5, len(m.vocab), seed=1)
        t1, _ = train(m, corpus, cfg)
        t2, _ = train(m, corpus, cfg)
        for x, y in [(m, t1), (m, t2), (t1, t2)]:
            for (_, a), (_, b) in itertools.product(x.params(), y.params()):
                assert not np.shares_memory(a, b)

    def test_generate_matches_reference_loop(self):
        m = init_model(make_vocab(10), 4, 8, 16, seed=1)
        corpus = [([4, 5], [6, EOS]), ([7], [8, 9, 10, EOS]), ([10, 11], [EOS]),
                  ([12, 13], [4, 5, 6, 7, 8, 9, 10, 11, 12])]
        cfg = TrainConfig(learning_rate=0.1, epochs=80, batch_size=1, seed=2)
        trained, _ = train(m, corpus, cfg)
        prompts = [ctx for ctx, _ in corpus] + [[], [4, 5, 6, 7, 8, 9, 10, 11, 12, 13], [9]]
        got = generate_batch(trained, prompts, max_len=6)
        assert got == reference_generate(trained, prompts, max_len=6)
        assert len({len(o) for o in got}) >= 3            # rows stop at different steps
        assert got[2] == [] and len(got[3]) == 6

    def test_batch_nll_matches_each_pair_alone(self):
        # lab-sized dims, so the one batched GEMM takes BLAS's blocked and threaded paths
        m = init_model(make_vocab(111), 28, 12, 128, seed=3)
        rng = np.random.default_rng(2)
        pairs = [(rng.integers(4, 115, size=int(rng.integers(0, 40))).tolist(),
                  rng.integers(4, 115, size=int(rng.integers(1, 20))).tolist())
                 for _ in range(40)]
        batched = tinylm.batch_nll(m, pairs)
        assert batched == [sequence_nll(m, c, t) for c, t in pairs]
        assert tinylm.batch_nll(m, []) == []

    def test_encode_names_unknown_token(self):
        v = make_vocab(3)
        with pytest.raises(InvalidTokenError, match="unknown token 'zzz'"):
            v.encode(["w0", "zzz", "yyy"])

    def test_check_ids_names_first_bad_id(self):
        m = init_model(make_vocab(4), 2, 4, 4, seed=0)
        with pytest.raises(InvalidTokenError, match="context id -1 out of range"):
            sequence_nll(m, [4, -1, 99], [5])
        with pytest.raises(InvalidTokenError, match="target id 99 out of range"):
            sequence_nll(m, [4], [5, 99, -1])


class TestTrain:
    def test_memorizes_single_pair(self):
        v = make_vocab(8)
        m = init_model(v, 4, 8, 16, seed=1)
        pair = ([4, 5, 6], [7, 8, 9, EOS])
        cfg = TrainConfig(learning_rate=0.1, epochs=50, batch_size=1, seed=2)
        trained, trace = train(m, [pair], cfg)
        assert len(trace) == 50
        assert trace[-1] < 0.1

    def test_input_model_untouched(self):
        m = init_model(make_vocab(6), 3, 4, 4, seed=1)
        before = [p.tobytes() for _, p in m.params()]
        cfg = TrainConfig(learning_rate=0.5, epochs=3, batch_size=1, seed=0)
        train(m, [([4], [5, EOS])], cfg)
        for (name, p), q in zip(m.params(), before):
            assert p.dtype == np.float64 and p.tobytes() == q, name

    def test_huge_learning_rate_diverges(self):
        m = init_model(make_vocab(6), 3, 4, 4, seed=1)
        cfg = TrainConfig(learning_rate=1e6, epochs=20, batch_size=1, seed=0)
        with pytest.raises(DivergenceError, match="epoch"):
            train(m, [([4], [5, 4, 5, EOS])], cfg)

    def test_underflowed_target_probability_diverges(self):
        # A finite loss of 200 nats: the target's probability exp(-200) is
        # below the smallest float32, the training dtype.
        m = zeroed(init_model(make_vocab(6), 3, 4, 4, seed=1))
        m.b_out[4] = 200.0
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, seed=0)
        assert tinylm.DIVERGENCE_NLL < 200.0 < np.finfo(np.float32).max
        with pytest.raises(DivergenceError, match="diverged loss 200.0 in epoch 0"):
            train(m, [([4], [5])], cfg)

    def test_empty_corpus_rejected(self):
        m = init_model(make_vocab(6), 3, 4, 4, seed=1)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, seed=0)
        with pytest.raises(ConfigError):
            train(m, [], cfg)

    def test_deterministic(self):
        m = init_model(make_vocab(8), 3, 4, 8, seed=5)
        corpus = [([4, 5], [6, 7, EOS]), ([5, 6], [7, 8, EOS]), ([6], [4, EOS])]
        cfg = TrainConfig(learning_rate=0.2, epochs=5, batch_size=2, seed=9)
        t1, trace1 = train(m, corpus, cfg)
        t2, trace2 = train(m, corpus, cfg)
        assert trace1 == trace2
        for (_, pa), (_, pb) in zip(t1.params(), t2.params()):
            assert pa.tobytes() == pb.tobytes()

    def test_config_bounds(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0, epochs=1, batch_size=1, seed=0)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            TrainConfig(learning_rate=0.1, epochs=0, batch_size=1, seed=0)


class TestTrainPrecision:
    """``train`` steps in float32; its results, checkpoints, scoring, decoding
    and ``grad_check`` are float64."""

    CFG = TrainConfig(learning_rate=0.2, epochs=3, batch_size=2, seed=9)

    def test_returns_float64_holding_float32_values(self):
        m = init_model(make_vocab(8), 3, 4, 8, seed=5)
        trained, _ = train(m, mixed_corpus(7, len(m.vocab), seed=1), self.CFG)
        for name, p in trained.params():
            assert p.dtype == np.float64, name
            assert np.array_equal(p.astype(np.float32), p), name
            assert not np.array_equal(p, getattr(m, name)), name

    def test_training_a_loaded_checkpoint_matches_training_in_memory(self, tmp_path):
        m = init_model(make_vocab(8), 3, 4, 8, seed=5)
        corpus = mixed_corpus(7, len(m.vocab), seed=1)
        first, _ = train(m, corpus, self.CFG)
        save_model(first, tmp_path / "model.json")
        cfg = replace(self.CFG, seed=10)
        loaded, loaded_trace = train(load_model(tmp_path / "model.json"), corpus, cfg)
        kept, kept_trace = train(first, corpus, cfg)
        assert loaded_trace == kept_trace
        for (name, p), (_, q) in zip(loaded.params(), kept.params()):
            assert p.tobytes() == q.tobytes(), name

    def test_only_train_steps_in_float32(self, monkeypatch):
        dtypes = []

        class Recorded(tinylm._Workspace):
            def __init__(self, model, rows):
                super().__init__(model, rows)
                dtypes.append(self.x.dtype)

        monkeypatch.setattr(tinylm, "_Workspace", Recorded)
        m = init_model(make_vocab(4), 2, 4, 4, seed=3)
        pair = ([4, 5], [5, 4, 5])
        trained, _ = train(m, [pair], self.CFG)
        assert dtypes == [np.float32]
        grad_check(trained, pair, epsilon=1e-5)
        # grad_check's analytic step has a workspace, and each of its two
        # losses per coordinate is a batch_nll call, with one of its own.
        n_coords = min(sum(p.size for _, p in trained.params()), 64)
        assert dtypes == [np.float32] + [np.float64] * (1 + 2 * n_coords)
        tinylm.batch_nll(trained, [pair])
        generate_batch(trained, [[4]], max_len=2)
        assert dtypes == [np.float32] + [np.float64] * (3 + 2 * n_coords)


class TestGenerate:
    def test_immediate_eos(self):
        v = make_vocab(4)
        m = zeroed(init_model(v, 2, 4, 4, seed=0))
        m.b_out[EOS] = 50.0
        assert generate_batch(m, [[4, 5]], max_len=10)[0] == []

    def test_max_len_cutoff(self):
        v = make_vocab(4)
        m = zeroed(init_model(v, 2, 4, 4, seed=0))
        m.b_out[4] = 50.0
        assert generate_batch(m, [[5]], max_len=3)[0] == [4, 4, 4]

    def test_tie_breaks_to_lowest_id(self):
        v = make_vocab(4)
        m = zeroed(init_model(v, 2, 4, 4, seed=0))
        # all logits equal: the first (lowest-id) token wins; PAD has id 0
        assert generate_batch(m, [[4]], max_len=1)[0] == [tinylm.PAD]

    def test_memorized_continuation(self):
        v = make_vocab(8)
        m = init_model(v, 4, 8, 16, seed=1)
        context, target = [4, 5, 6], [7, 8, 9, EOS]
        cfg = TrainConfig(learning_rate=0.1, epochs=60, batch_size=1, seed=2)
        trained, _ = train(m, [(context, target)], cfg)
        assert generate_batch(trained, [context], max_len=8)[0] == [7, 8, 9]

    def test_invalid_max_len(self):
        m = init_model(make_vocab(4), 2, 4, 4, seed=0)
        with pytest.raises(ConfigError):
            generate_batch(m, [[4]], max_len=0)[0]

    def test_no_prompts(self):
        m = init_model(make_vocab(4), 2, 4, 4, seed=0)
        assert generate_batch(m, [], max_len=3) == []
        with pytest.raises(ConfigError):
            generate_batch(m, [], max_len=0)

    def test_bad_prompt_id_names_the_first(self):
        m = init_model(make_vocab(4), 2, 4, 4, seed=0)
        for prompts, bad in (([[4], [5, -1, 99], [100]], -1), ([[], [4, 8, -1]], 8)):
            with pytest.raises(InvalidTokenError, match=f"^prompt id {bad} out of range"):
                generate_batch(m, prompts, max_len=3)


class TestGradCheck:
    def test_analytic_matches_numeric(self):
        m = init_model(make_vocab(2), 2, 4, 4, seed=3)
        err = grad_check(m, ([4, 5], [5, 4, 5]), epsilon=1e-5)
        assert err < 1e-4

    def test_repeated_windows_use_the_weighted_kernel(self):
        m = init_model(make_vocab(4), 2, 4, 4, seed=3)
        windows, _, _ = tinylm._pair_windows(m, [([], [5, 5, 5, 5])], ValueError())
        ids = tinylm._window_ids(windows)
        assert len(np.unique(ids)) < len(ids)               # [5, 5] precedes two targets
        assert grad_check(m, ([], [5, 5, 5, 5]), epsilon=1e-5) < 1e-4

    def test_deterministic(self):
        m = init_model(make_vocab(4), 2, 3, 4, seed=8)
        pair = ([4, 5, 6], [7, 6, 5])
        assert grad_check(m, pair, 1e-5) == grad_check(m, pair, 1e-5)

    @pytest.mark.parametrize("pair", [
        ([], [5, 6, 7]),                                    # empty context
        ([4, 5], [6, EOS]),                                 # shorter than the window
        ([4, 5, 6, 7, 8, 9, 10, 11, 12], [13, 14, 4]),      # longer than the window
        ([], [5, 5, 5, 5, 5, 5]),                           # repeated windows
        ([6], [9, 9, 9, 9, 9, 4, 9, 9, 9, 9]),
    ])
    def test_numeric_loss_matches_its_first_form(self, pair):
        # 64 of the first model's 254 parameters are checked, all 51 of the second's.
        for model in (init_model(make_vocab(12), 3, 4, 6, seed=5),
                      init_model(make_vocab(2), 2, 2, 3, seed=1)):
            ids = tuple([min(i, len(model.vocab) - 1) for i in part] for part in pair)
            for epsilon in (1e-5, 1e-3):
                assert grad_check(model, ids, epsilon) == reference_grad_check(model, ids, epsilon)

    def test_epsilon_bounds(self):
        m = init_model(make_vocab(4), 2, 3, 4, seed=8)
        with pytest.raises(ConfigError):
            grad_check(m, ([4], [5]), epsilon=1.0)
        with pytest.raises(ConfigError):
            grad_check(m, ([4], [5]), epsilon=1e-9)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = init_model(make_vocab(9), 3, 5, 7, seed=42)
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.vocab.tokens == m.vocab.tokens
        assert (loaded.context_len, loaded.embed_dim, loaded.hidden_dim) == (3, 5, 7)
        assert loaded.rng_seed == 42
        for (_, pa), (_, pb) in zip(m.params(), loaded.params()):
            assert pa.tobytes() == pb.tobytes()

    def test_copies_get_the_same_bytes(self, tmp_path):
        m = init_model(make_vocab(9), 3, 5, 7, seed=42)
        save_model(m, tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json")
        save_model(m, tmp_path / "alone.json")
        alone = (tmp_path / "alone.json").read_bytes()
        for name in ("a", "b", "c"):
            assert (tmp_path / f"{name}.json").read_bytes() == alone

    def test_bytes_are_the_json_of_the_whole_document(self, tmp_path):
        """Splicing in the base64 data gives the bytes ``json`` gives the
        document with the data in it, vocab escapes included."""
        vocab = Vocab(tokens=tinylm.RESERVED + ('say "hi"', "café", "data", "embed",
                                                '"data": "', 'w_out": "data": "'))
        m = init_model(vocab, 3, 5, 7, seed=42)
        doc = {"format": tinylm.CHECKPOINT_FORMAT, "vocab": list(vocab.tokens),
               "context_len": 3, "embed_dim": 5, "hidden_dim": 7, "rng_seed": 42,
               "params": {name: {"shape": list(p.shape), "dtype": "float64",
                                 "data": base64.b64encode(p.tobytes()).decode("ascii")}
                          for name, p in m.params()}}
        path = tmp_path / "model.json"
        save_model(m, path)
        text = path.read_text(encoding="ascii")
        assert text == artifacts.json_text(doc, sort_keys=True)
        assert '"say \\"hi\\""' in text and '"caf\\u00e9"' in text

    def test_save_is_deterministic(self, tmp_path):
        m = init_model(make_vocab(5), 2, 4, 4, seed=0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, p1)
        save_model(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_no_file(self, tmp_path):
        m = init_model(make_vocab(5), 2, 4, 4, seed=0)
        m.rng_seed = object()          # json cannot encode it; params are written first
        path = tmp_path / "model.json"
        with pytest.raises(TypeError):
            save_model(m, path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        m = init_model(make_vocab(5), 2, 4, 4, seed=0)
        path = tmp_path / "model.json"
        save_model(m, path)
        before = path.read_bytes()
        m.rng_seed = object()
        with pytest.raises(TypeError):
            save_model(m, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("key, value", [
        ("context_len", 0), ("embed_dim", -2), ("hidden_dim", 2.5), ("context_len", True),
        ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", None), ("vocab", list(tinylm.RESERVED)),
        ("vocab", [*tinylm.RESERVED, "w0", "w1", 7, None, "w4"]),
    ])
    def test_bounds_of_init_model_and_seed_checked(self, tmp_path, key, value):
        path = tmp_path / "model.json"
        save_model(init_model(make_vocab(5), 2, 4, 4, seed=0), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"model.json: bad checkpoint: .*{key}"):
            load_model(path)

    @pytest.mark.parametrize("dtype, data_dtype, message", [
        ("int8", np.float64, "b_out is 'int8'"),
        ("float32", np.float32, "b_out is 'float32'"),
        ("float64", np.float32, "b_out has 36 data bytes"),    # float32 data under float64
    ])
    def test_array_dtype_and_size_checked(self, tmp_path, dtype, data_dtype, message):
        path = tmp_path / "model.json"
        m = init_model(make_vocab(5), 2, 4, 4, seed=0)
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["params"]["b_out"].update(
            dtype=dtype, data=base64.b64encode(m.b_out.astype(data_dtype).tobytes()).decode())
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"model.json: bad checkpoint: {message}"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ConfigError):
            load_model(path)
