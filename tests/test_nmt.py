"""Neural model: gradients, residual structure, training, translation."""

import dataclasses
import fnmatch
import importlib
import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from termforge.bpe import apply_bpe, learn_bpe
from termforge.corpus import Candidate, Lexicon, LexiconEntry, ParallelCorpus
from termforge.errors import EmptyCorpusError, ModelFormatError, TrainingDivergedError
from termforge.nmt import (
    Seq2SeqModel,
    TrainConfig,
    UNK,
    Vocab,
    build_vocab,
    encode_sources,
    fine_tune,
    load_model,
    replace_unk,
    save_model,
    train,
    translate,
)
from termforge.nmt.model import RESERVED, init_params
from termforge.nmt.network import decoder_step, encode, loss_and_grads
from termforge.nmt.train import _encode_pairs, _make_batches

from nmt_oracles import dataset_loss, gradient_check


def encode_one(model, tokens):
    """``tokens``' entry from ``encode_sources`` as a group of one: the
    encoder at B=1, the start of every single-sentence search below."""
    return encode_sources(model, [tokens])[0]


def tiny_model(layers=2, hidden=4, seed=7):
    cfg = TrainConfig(
        layers=layers, hidden=hidden, batch_size=2, dropout=0.0, epochs=0,
        seed=seed,
    )
    pairs = [(("a", "b", "c"), ("x", "y")), (("b", "c", "a"), ("y", "z", "x"))]
    src_vocab = build_vocab((s for s, _ in pairs), 20)
    tgt_vocab = build_vocab((t for _, t in pairs), 20)
    rng = np.random.default_rng(seed)
    model = Seq2SeqModel(
        cfg, src_vocab, tgt_vocab,
        init_params(cfg, len(src_vocab), len(tgt_vocab), rng),
    )
    batch = _make_batches(_encode_pairs(pairs, src_vocab, tgt_vocab), 2)[0]
    return model, batch


def copy_corpus(n_pairs=50, vocab_size=12, seed=0):
    rng = random.Random(seed)
    vocab = [f"sym{i}" for i in range(vocab_size)]
    pairs = []
    seen = set()
    while len(pairs) < n_pairs:
        sent = tuple(rng.choices(vocab, k=rng.randint(3, 6)))
        if sent in seen:
            continue
        seen.add(sent)
        pairs.append((sent, sent))
    return ParallelCorpus(pairs)


COPY_CONFIG = TrainConfig(
    layers=2, hidden=24, batch_size=2, dropout=0.0,
    epochs=200, learning_rate=1.5, seed=3,
)


class TestBuildVocab:
    def test_cap_includes_reserved(self):
        vocab = build_vocab([("a",) * 3 + ("b",) * 2 + ("c",)], cap=6)
        assert vocab.itos == list(RESERVED) + ["a", "b"]
        assert vocab.encode(("c",)) == [1]  # unk id

    def test_cap_larger_than_vocab(self):
        vocab = build_vocab([("a", "b")], cap=100)
        assert set(vocab.itos) == set(RESERVED) | {"a", "b"}

    def test_frequency_ties_lexicographic(self):
        vocab = build_vocab([("zz", "aa")], cap=5)
        assert vocab.itos[-1] == "aa"

    def test_membership_matches_sort_oracle(self):
        rng = random.Random(11)
        sents = [
            tuple(f"w{rng.randrange(40)}" for _ in range(rng.randint(1, 10)))
            for _ in range(60)
        ]
        cap = 20
        vocab = build_vocab(sents, cap)
        # independent oracle: full frequency count + explicit sort
        freq = {}
        for sent in sents:
            for tok in sent:
                freq[tok] = freq.get(tok, 0) + 1
        want = {
            tok
            for tok, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[
                : cap - 4
            ]
        }
        assert set(vocab.itos) - set(RESERVED) == want

    def test_minimum_cap_enforced(self):
        with pytest.raises(ValueError):
            build_vocab([("a",)], cap=3)


class TestGradients:
    def test_finite_difference_check_mixed_dims(self):
        # one layer: the decoder's 2n-wide input beside the encoder's n-wide one
        model, batch = tiny_model(layers=1, hidden=4)
        assert gradient_check(model, batch, epsilon=1e-4) < 1e-4

    def test_finite_difference_check_residual_everywhere(self):
        model, batch = tiny_model(layers=2, hidden=4)
        assert gradient_check(model, batch, epsilon=1e-4) < 1e-4

    def test_gradients_deterministic(self):
        model, batch = tiny_model()
        loss1, grads1, _ = loss_and_grads(model, *batch)
        loss2, grads2, _ = loss_and_grads(model, *batch)
        assert loss1 == loss2
        for name in grads1:
            assert np.array_equal(grads1[name], grads2[name])


def independent_cell_output(cache, W, U, b):
    """Recompute the LSTM cell output from cached inputs with local math."""
    x, h_prev, c_prev = cache[0], cache[1], cache[2]
    n = h_prev.shape[1]
    z = x @ W + h_prev @ U + b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f = sig(z[:, :n]), sig(z[:, n:2 * n])
    g, o = np.tanh(z[:, 2 * n:3 * n]), sig(z[:, 3 * n:])
    c = f * c_prev + i * g
    return o * np.tanh(c)


def eq1_residual_deviation(model, src_ids, ablate=False):
    """Max |state_l[i] - (state_{l-1}[i] + cell_output)| over the encoder layers.

    With ``ablate=True`` the residual term is dropped from the expectation,
    which must break the check on a real model.
    """
    layer_caches = []
    top, _ = encode(model, src_ids, caches=layer_caches)
    worst = 0.0
    L = model.config.layers
    for l in range(1, L + 1):
        inputs, cell_caches, _ = layer_caches[l - 1]
        states = layer_caches[l][0] if l < L else top
        W = model.params[f"enc_W_{l}"]
        U = model.params[f"enc_U_{l}"]
        b = model.params[f"enc_b_{l}"]
        for t, cache in enumerate(cell_caches):
            cell_out = independent_cell_output(cache, W, U, b)
            expected = cell_out if ablate else inputs[t] + cell_out
            worst = max(worst, float(np.abs(states[t] - expected).max()))
    return worst


class TestResidualStructure:
    def test_eq1_holds_per_position(self):
        model, batch = tiny_model(layers=3, hidden=5)
        src_ids, _ = batch
        assert eq1_residual_deviation(model, src_ids) < 1e-6

    def test_single_layer_residual_over_embeddings(self):
        # with one layer the layer state is the embedding stream plus the
        # cell output
        model, batch = tiny_model(layers=1, hidden=4)
        src_ids, _ = batch
        assert eq1_residual_deviation(model, src_ids) < 1e-6

    def test_ablated_residual_fails_check(self):
        model, batch = tiny_model(layers=2, hidden=4)
        src_ids, _ = batch
        assert eq1_residual_deviation(model, src_ids, ablate=True) > 1e-3

    def test_recurrence_consumes_post_residual_state(self):
        # the cached recurrent input at step t+1 must be the layer state at
        # t (embedding + cell output), not the bare cell output
        model, batch = tiny_model(layers=2, hidden=4)
        src_ids, _ = batch
        layer_caches = []
        top, _ = encode(model, src_ids, caches=layer_caches)
        inputs, cell_caches, _ = layer_caches[1]
        states = top
        assert np.allclose(cell_caches[1][1], states[0], atol=1e-12)


# The parent revision's network code, kept verbatim as an oracle for
# `_layer_step`/`_layer_step_backward`, with the residual tests replaced by
# their values now that embeddings are `hidden` wide: `encoder_residual(l)`
# by True, `decoder_residual(l)` by `l > 1` and `embed_size` by `hidden`.


def reference_sigmoid(x):
    with np.errstate(over="ignore"):  # saturated gates flush to exactly 0/1
        return 1.0 / (1.0 + np.exp(-x))


def reference_lstm_cell_forward(x, h_prev, c_prev, W, U, b):
    """One LSTM step for a batch; returns (cell_output, new_memory, cache)."""
    n = h_prev.shape[1]
    z = x @ W + h_prev @ U + b
    gates = reference_sigmoid(z)  # one pass over all 4n columns; g's are unused
    i = gates[:, :n]
    f = gates[:, n:2 * n]
    g = np.tanh(z[:, 2 * n:3 * n])
    o = gates[:, 3 * n:]
    c = f * c_prev + i * g
    hout = o * np.tanh(c)
    return hout, c, (x, h_prev, c_prev, i, f, g, o, c)


def reference_lstm_cell_backward(dhout, dc_in, cache, W, U, grads, names):
    """Backward through one step; accumulates into grads[names] = (W, U, b)."""
    x, h_prev, c_prev, i, f, g, o, c = cache
    wname, uname, bname = names
    tc = np.tanh(c)
    do = dhout * tc
    dc = dc_in + dhout * o * (1.0 - tc * tc)
    di = dc * g
    dg = dc * i
    df = dc * c_prev
    dc_prev = dc * f
    dz = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ],
        axis=1,
    )
    grads[wname] += x.T @ dz
    grads[uname] += h_prev.T @ dz
    grads[bname] += dz.sum(axis=0)
    dx = dz @ W.T
    dh_prev = dz @ U.T
    return dx, dh_prev, dc_prev


def reference_dropout_mask(rng, shape, rate):
    if rng is None or rate <= 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def reference_encode(model, src_ids: np.ndarray, rng=None):
    """Run the encoder stack over a batch of equal-length sources.

    Returns (top_states (Ts,B,n), per-layer final (state, memory), cache).
    ``rng`` enables dropout between layers (training mode).
    """
    params = model.params
    cfg = model.config
    B, Ts = src_ids.shape
    n = cfg.hidden
    inputs = params["enc_E"][src_ids].transpose(1, 0, 2).copy()  # (Ts, B, m)
    layer_caches = []
    finals = []
    for l in range(1, cfg.layers + 1):
        residual = True
        mask = reference_dropout_mask(rng, inputs.shape, cfg.dropout) if l > 1 else None
        if mask is not None:
            inputs = inputs * mask
        states = np.empty((Ts, B, n))
        h = np.zeros((B, n))
        c = np.zeros((B, n))
        cell_caches = []
        for t in range(Ts):
            hout, c, cache = reference_lstm_cell_forward(
                inputs[t], h, c,
                params[f"enc_W_{l}"], params[f"enc_U_{l}"], params[f"enc_b_{l}"],
            )
            h = inputs[t] + hout if residual else hout
            states[t] = h
            cell_caches.append(cache)
        layer_caches.append((inputs, cell_caches, mask, residual))
        finals.append((states[-1].copy(), c.copy()))
        inputs = states
    return inputs, finals, (src_ids, layer_caches)


def reference_encode_backward(model, cache, d_top, d_finals, grads):
    """Backpropagate attention and decoder-init gradients through the encoder."""
    params = model.params
    cfg = model.config
    src_ids, layer_caches = cache
    Ts = d_top.shape[0]
    d_states = d_top.copy()
    for l in range(cfg.layers, 0, -1):
        inputs, cell_caches, mask, residual = layer_caches[l - 1]
        dh_final, dc_final = d_finals[l - 1]
        d_states[-1] += dh_final
        dh_carry = np.zeros_like(d_states[0])
        dc_carry = dc_final.copy()
        d_inputs = np.empty_like(inputs)
        W = params[f"enc_W_{l}"]
        U = params[f"enc_U_{l}"]
        names = (f"enc_W_{l}", f"enc_U_{l}", f"enc_b_{l}")
        for t in range(Ts - 1, -1, -1):
            ds_t = d_states[t] + dh_carry
            dx, dh_carry, dc_carry = reference_lstm_cell_backward(
                ds_t, dc_carry, cell_caches[t], W, U, grads, names
            )
            if residual:
                dx = dx + ds_t
            d_inputs[t] = dx
        if mask is not None:
            d_inputs *= mask
        d_states = d_inputs
    np.add.at(grads["enc_E"], src_ids, d_states.transpose(1, 0, 2))


def reference_attention(params, h_top, enc_top):
    """Bilinear (general) attention: returns (weights, context, cache)."""
    q = h_top @ params["att_Wa"]                      # (B, n)
    scores = np.einsum("bn,tbn->bt", q, enc_top)      # (B, Ts)
    scores = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    attn = exp / exp.sum(axis=1, keepdims=True)
    ctx = np.einsum("bt,tbn->bn", attn, enc_top)
    return attn, ctx, (q, attn)


def reference_attention_backward(params, cache, enc_top, h_top, d_attnvec, hbar, grads):
    """Backward through hbar = tanh([ctx; h_top] Wc + bc) and the attention.

    Returns (dh_top, d_enc_top_delta).
    """
    q, attn = cache
    n = h_top.shape[1]
    dz = d_attnvec * (1.0 - hbar * hbar)
    cat = np.concatenate([np.einsum("bt,tbn->bn", attn, enc_top), h_top], axis=1)
    grads["att_Wc"] += cat.T @ dz
    grads["att_bc"] += dz.sum(axis=0)
    dcat = dz @ params["att_Wc"].T
    dctx = dcat[:, :n]
    dh_top = dcat[:, n:].copy()
    d_attn = np.einsum("bn,tbn->bt", dctx, enc_top)
    d_enc = np.einsum("bt,bn->tbn", attn, dctx)
    dscores = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
    dq = np.einsum("bt,tbn->bn", dscores, enc_top)
    d_enc += np.einsum("bt,bn->tbn", dscores, q)
    dh_top += dq @ params["att_Wa"].T
    grads["att_Wa"] += h_top.T @ dq
    return dh_top, d_enc


def reference_decoder_step(model, x_in, h_layers, c_layers, enc_top, rng=None, caches=None):
    """One decoder step over the layer stack plus attention.

    ``x_in`` is [embedding; previous attentional vector].  Mutates
    ``h_layers``/``c_layers`` in place and returns (hbar, attn_row).
    """
    params = model.params
    cfg = model.config
    x = x_in
    step_caches = []
    for l in range(1, cfg.layers + 1):
        mask = reference_dropout_mask(rng, x.shape, cfg.dropout) if l > 1 else None
        if mask is not None:
            x = x * mask
        hout, c, cache = reference_lstm_cell_forward(
            x, h_layers[l - 1], c_layers[l - 1],
            params[f"dec_W_{l}"], params[f"dec_U_{l}"], params[f"dec_b_{l}"],
        )
        h = x + hout if l > 1 else hout
        step_caches.append((cache, mask, l > 1, x))
        h_layers[l - 1] = h
        c_layers[l - 1] = c
        x = h
    h_top = x
    attn, ctx, att_cache = reference_attention(params, h_top, enc_top)
    hbar = np.tanh(
        np.concatenate([ctx, h_top], axis=1) @ params["att_Wc"] + params["att_bc"]
    )
    if caches is not None:
        caches.append((step_caches, att_cache, h_top, hbar))
    return hbar, attn


def reference_loss_and_grads(model, src_ids, tgt_ids, train_rng=None, with_grads=True):
    """Teacher-forced cross-entropy over a batch; optionally with gradients.

    ``src_ids`` is (B, Ts) without padding (batches bucket source lengths);
    ``tgt_ids`` is (B, Tt+1) holding BOS + target + EOS + PAD.  The loss is
    the mean negative log-likelihood per non-pad target token.
    """
    params = model.params
    cfg = model.config
    B, _ = src_ids.shape
    n = cfg.hidden
    m = cfg.hidden
    dec_in = tgt_ids[:, :-1]
    dec_out = tgt_ids[:, 1:]
    Tt = dec_in.shape[1]
    mask = (dec_out != 0).astype(np.float64)
    total_tokens = float(mask.sum())
    if total_tokens == 0:
        raise ValueError("batch contains no target tokens")

    enc_top, enc_finals, enc_cache = reference_encode(model, src_ids, rng=train_rng)
    h_layers = [h.copy() for h, _ in enc_finals]
    c_layers = [c.copy() for _, c in enc_finals]
    hbar = np.zeros((B, n))

    caches = []
    probs_steps = []
    loss = 0.0
    for t in range(Tt):
        emb = params["dec_E"][dec_in[:, t]]
        x_in = np.concatenate([emb, hbar], axis=1)
        hbar, _ = reference_decoder_step(
            model, x_in, h_layers, c_layers, enc_top, rng=train_rng, caches=caches
        )
        logits = hbar @ params["out_W"] + params["out_b"]
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore"):  # -inf here means divergence
            logp = np.log(probs[np.arange(B), dec_out[:, t]])
        loss -= float((logp * mask[:, t]).sum())
        probs_steps.append(probs)
    loss /= total_tokens
    if not np.isfinite(loss):
        return loss, None, total_tokens
    if not with_grads:
        return loss, None, total_tokens

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    d_enc_top = np.zeros_like(enc_top)
    dh_time = [np.zeros((B, n)) for _ in range(cfg.layers)]
    dc_time = [np.zeros((B, n)) for _ in range(cfg.layers)]
    d_hbar_next = np.zeros((B, n))

    for t in range(Tt - 1, -1, -1):
        step_caches, att_cache, h_top, hbar_t = caches[t]
        probs = probs_steps[t]
        dlogits = probs.copy()
        dlogits[np.arange(B), dec_out[:, t]] -= 1.0
        dlogits *= (mask[:, t] / total_tokens)[:, None]
        grads["out_W"] += hbar_t.T @ dlogits
        grads["out_b"] += dlogits.sum(axis=0)
        d_hbar = dlogits @ params["out_W"].T + d_hbar_next

        dh_top, d_enc = reference_attention_backward(
            params, att_cache, enc_top, h_top, d_hbar, hbar_t, grads
        )
        d_enc_top += d_enc

        ds = dh_top
        for l in range(cfg.layers, 0, -1):
            cache, drop_mask, residual, _ = step_caches[l - 1]
            ds_l = ds + dh_time[l - 1]
            dx, dh_prev, dc_prev = reference_lstm_cell_backward(
                ds_l, dc_time[l - 1], cache,
                params[f"dec_W_{l}"], params[f"dec_U_{l}"], grads,
                (f"dec_W_{l}", f"dec_U_{l}", f"dec_b_{l}"),
            )
            if residual:
                dx = dx + ds_l
            if drop_mask is not None:
                dx = dx * drop_mask
            dh_time[l - 1] = dh_prev
            dc_time[l - 1] = dc_prev
            ds = dx
        # ds is now the gradient on [embedding; previous attentional vector]
        np.add.at(grads["dec_E"], dec_in[:, t], ds[:, :m])
        d_hbar_next = ds[:, m:]

    d_finals = list(zip(dh_time, dc_time))
    reference_encode_backward(model, enc_cache, d_enc_top, d_finals, grads)
    return loss, grads, total_tokens


def oracle_model(layers, dropout, hidden=5, n_src=9, n_tgt=8, seed=3):
    cfg = TrainConfig(layers=layers, hidden=hidden, dropout=dropout, seed=seed)
    src_vocab = Vocab(list(RESERVED) + [f"s{i}" for i in range(n_src - 4)])
    tgt_vocab = Vocab(list(RESERVED) + [f"t{i}" for i in range(n_tgt - 4)])
    params = init_params(cfg, n_src, n_tgt, np.random.default_rng(seed))
    return Seq2SeqModel(cfg, src_vocab, tgt_vocab, params)


def oracle_batch(B, n_src=9, n_tgt=8, Ts=4, Tt=5, seed=4):
    """B sources of one length; BOS + target + EOS + PAD of varied lengths."""
    rng = np.random.default_rng(seed)
    src_ids = rng.integers(4, n_src, size=(B, Ts))
    tgt_ids = np.zeros((B, Tt + 2), dtype=np.int64)
    for row in range(B):
        length = Tt - row % 3
        tgt_ids[row, 0] = 2  # BOS
        tgt_ids[row, 1:length + 1] = rng.integers(4, n_tgt, size=length)
        tgt_ids[row, length + 1] = 3  # EOS
    return src_ids, tgt_ids


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("B", [1, 2, 5])
@pytest.mark.parametrize("layers", [1, 2, 3])
class TestLayerStepOracle:
    """The layer-step network is bit-equal to the per-site residual code."""

    def test_loss_and_grads(self, layers, B, dropout):
        model = oracle_model(layers, dropout)
        src_ids, tgt_ids = oracle_batch(B)
        loss, grads, tokens = loss_and_grads(
            model, src_ids, tgt_ids, train_rng=np.random.default_rng(9)
        )
        ref_loss, ref_grads, ref_tokens = reference_loss_and_grads(
            model, src_ids, tgt_ids, train_rng=np.random.default_rng(9)
        )
        assert np.array_equal(loss, ref_loss)
        assert tokens == ref_tokens
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name

    def test_encode_and_decoder_step(self, layers, B, dropout):
        model = oracle_model(layers, dropout)
        src_ids, _ = oracle_batch(B)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        top, finals = encode(model, src_ids, rng=rng)
        ref_top, ref_finals, _ = reference_encode(model, src_ids, rng=ref_rng)
        assert np.array_equal(top, ref_top)
        for (h, c), (ref_h, ref_c) in zip(finals, ref_finals, strict=True):
            assert np.array_equal(h, ref_h) and np.array_equal(c, ref_c)

        n = model.config.hidden
        x_in = np.random.default_rng(1).uniform(-1, 1, (B, 2 * n))
        h_layers, c_layers = [h for h, _ in finals], [c for _, c in finals]
        ref_h_layers, ref_c_layers = list(h_layers), list(c_layers)
        hbar, attn = decoder_step(model, x_in, h_layers, c_layers, top, rng=rng)
        ref_hbar, ref_attn = reference_decoder_step(
            model, x_in, ref_h_layers, ref_c_layers, top, rng=ref_rng
        )
        assert np.array_equal(hbar, ref_hbar)
        assert np.array_equal(attn, ref_attn)
        for got, want in zip(h_layers + c_layers, ref_h_layers + ref_c_layers):
            assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()  # the same draws were made


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("layers", [1, 2, 3])
class TestCacheRule:
    """A forward pass keeps backward caches only in a list the caller
    passes, and its values do not depend on whether one is passed."""

    @staticmethod
    def forward(model, src_ids, x_in, keep):
        """``encode`` then one ``decoder_step``, with cache lists when
        ``keep``; returns every value both compute, and the lists."""
        rng = np.random.default_rng(9)
        enc_caches, step_caches = ([], []) if keep else (None, None)
        top, finals = encode(model, src_ids, rng=rng, caches=enc_caches)
        h_layers, c_layers = [h for h, _ in finals], [c for _, c in finals]
        hbar, attn = decoder_step(
            model, x_in, h_layers, c_layers, top, rng=rng, caches=step_caches
        )
        values = [top, *(a for pair in finals for a in pair), hbar, attn,
                  *h_layers, *c_layers, rng.random(1)]
        return values, enc_caches, step_caches

    def test_values_equal_with_and_without_a_cache_list(self, layers, dropout):
        model = oracle_model(layers, dropout)
        src_ids, _ = oracle_batch(3)
        x_in = np.random.default_rng(1).uniform(-1, 1, (3, 2 * model.config.hidden))
        kept, enc_caches, step_caches = self.forward(model, src_ids, x_in, keep=True)
        bare, _, _ = self.forward(model, src_ids, x_in, keep=False)
        assert len(enc_caches) == layers and len(step_caches) == 1
        assert len(kept) == len(bare)
        for got, want in zip(bare, kept):
            assert np.array_equal(got, want)

    def test_loss_without_grads_is_the_gradient_paths_loss(self, layers, dropout):
        model = oracle_model(layers, dropout)
        src_ids, tgt_ids = oracle_batch(3)
        loss, grads, tokens = loss_and_grads(
            model, src_ids, tgt_ids, train_rng=np.random.default_rng(9)
        )
        bare, no_grads, bare_tokens = loss_and_grads(
            model, src_ids, tgt_ids, train_rng=np.random.default_rng(9),
            with_grads=False,
        )
        assert grads is not None and no_grads is None
        assert bare.hex() == loss.hex() and bare_tokens == tokens


def ragged_corpus(n_pairs=48, n_symbols=5, seed=6):
    """Sources of 3-4 tokens and targets of 1-7 over a few symbols, so a
    batch holds targets of several lengths and target ids recur across
    steps."""
    rng = random.Random(seed)
    src_symbols = [f"s{i}" for i in range(n_symbols)]
    tgt_symbols = [f"t{i}" for i in range(n_symbols)]
    return ParallelCorpus([
        (tuple(rng.choices(src_symbols, k=rng.randint(3, 4))),
         tuple(rng.choices(tgt_symbols, k=rng.randint(1, 7))))
        for _ in range(n_pairs)
    ])


class TestTrainingOracle:
    """Training is bit-equal with the reference network in place of
    ``loss_and_grads``: this covers the embedding scatter of each batch and
    the optimizer loop, which the per-batch oracle above does not.

    Both runs start from zero target embeddings: a gradient one ulp off
    (as a reordered scatter makes) would vanish when added to weights of
    about 0.1, but not into weights of its own size."""

    CONFIG = TrainConfig(layers=2, hidden=6, batch_size=16, dropout=0.1,
                         epochs=2, seed=8)
    # `termforge.nmt.train` names the function, so reach the module itself
    MODULE = importlib.import_module("termforge.nmt.train")

    def with_reference(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2].shape[0])
            return reference_loss_and_grads(*args, **kwargs)

        monkeypatch.setattr(self.MODULE, "loss_and_grads", counted)
        return calls

    @staticmethod
    def assert_same(model, ref):
        assert model.train_history == ref.train_history
        assert model.params.keys() == ref.params.keys()
        for name in model.params:
            assert np.array_equal(model.params[name], ref.params[name]), name

    def test_train(self, monkeypatch):
        def zero_target_embeddings(*args):
            params = init_params(*args)
            params["dec_E"][:] = 0.0
            return params

        monkeypatch.setattr(self.MODULE, "init_params", zero_target_embeddings)
        corpus = ragged_corpus()
        model = train(corpus, self.CONFIG)
        batch_sizes = self.with_reference(monkeypatch)
        self.assert_same(model, train(corpus, self.CONFIG))
        assert max(batch_sizes) == 16

    def test_fine_tune(self, monkeypatch):
        corpus = ragged_corpus()
        base = train(corpus, dataclasses.replace(self.CONFIG, epochs=1))
        base.params["dec_E"][:] = 0.0
        dev = ParallelCorpus(corpus.pairs[:12])
        schedule = TrainConfig(epochs=2, batch_size=2, seed=8)
        tuned = fine_tune(base, dev, schedule)
        batch_sizes = self.with_reference(monkeypatch)
        self.assert_same(tuned, fine_tune(base, dev, schedule))
        assert max(batch_sizes) == 2


class TestSaturatedGates:
    """Weights scaled by 1e4 push pre-activations past ±710, where
    ``exp(-z)`` overflows: the gates flush to exactly 0 or 1 with no
    warning from any entry point."""

    def test_no_warning_and_exact_flush(self):
        model, (src_ids, tgt_ids) = tiny_model(layers=2, hidden=4)
        for name in model.params:
            if any(fnmatch.fnmatch(name, p) for p in ("*_W_*", "*_U_*", "*_b_*")):
                model.params[name] *= 1e4
        B, n = src_ids.shape[0], model.config.hidden
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layer_caches = []
            top, finals = encode(model, src_ids, caches=layer_caches)
            x_in = np.concatenate(
                [model.params["dec_E"][tgt_ids[:, 0]], np.zeros((B, n))], axis=1
            )
            step_caches = []
            decoder_step(model, x_in, [h for h, _ in finals],
                         [c for _, c in finals], top, caches=step_caches)
            loss, grads, _ = loss_and_grads(
                model, src_ids, tgt_ids, train_rng=np.random.default_rng(0)
            )
            out, _, _ = translate(model, encode_one(model, ("a", "b", "c")), beam_width=3)
        assert np.isfinite(loss) and out
        assert all(np.isfinite(g).all() for g in grads.values())

        cells = [("enc", l + 1, cache)
                 for l, (_, caches, _) in enumerate(layer_caches) for cache in caches]
        cells += [("dec", l + 1, cache)
                  for l, (cache, _) in enumerate(step_caches[0][0])]
        below = 0
        for side, l, cache in cells:
            x, h, _, gates = cache[:4]  # cell input, state, memory, gates
            z = (x @ model.params[f"{side}_W_{l}"] + h @ model.params[f"{side}_U_{l}"]
                 + model.params[f"{side}_b_{l}"])
            sig = np.r_[0:2 * n, 3 * n:4 * n]  # input, forget and output gates
            gates, z = gates[:, sig], z[:, sig]
            assert ((gates >= 0.0) & (gates <= 1.0)).all()
            assert (gates[z < -710] == 0.0).all() and (gates[z > 710] == 1.0).all()
            below += int((z < -710).sum())
        assert below > 0  # exp(-z) overflowed


class TestTraining:
    def test_copy_task_loss_decreases_then_reconstructs(self):
        corpus = copy_corpus()
        model = train(corpus, COPY_CONFIG)
        first5 = model.train_history[:5]
        assert all(b < a for a, b in zip(first5, first5[1:])), first5
        exact = sum(
            translate(model, encode_one(model, src), beam_width=1)[0] == tgt
            for src, tgt in corpus.pairs
        )
        assert exact >= 45  # >= 90% of 50

    def test_same_seed_bit_identical(self):
        corpus = copy_corpus(n_pairs=10)
        cfg = TrainConfig(layers=2, hidden=8, batch_size=4, dropout=0.2,
                          epochs=3, seed=11)
        m1 = train(corpus, cfg)
        m2 = train(corpus, cfg)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name]), name

    def test_divergence_raises(self):
        corpus = copy_corpus(n_pairs=10)
        cfg = TrainConfig(layers=1, hidden=8, batch_size=4, dropout=0.0,
                          epochs=5, learning_rate=1e9, clip_norm=0.0, seed=0)
        with pytest.raises(TrainingDivergedError):
            train(corpus, cfg)

    def test_bpe_segmentation_requires_models(self):
        bpe = learn_bpe({"a": 5}, num_merges=1)
        with pytest.raises(ValueError):
            train(copy_corpus(5), TrainConfig(epochs=0), src_bpe=bpe)
        with pytest.raises(ValueError):
            train(copy_corpus(5), TrainConfig(epochs=0), tgt_bpe=bpe)

    def test_bpe_model_stored_and_used(self):
        corpus = copy_corpus(n_pairs=10)
        bpe = learn_bpe(
            {w: 5 for s, _ in corpus.pairs for w in s}, num_merges=10
        )
        cfg = TrainConfig(layers=1, hidden=8, batch_size=4, dropout=0.0,
                          epochs=1, seed=0)
        model = train(corpus, cfg, src_bpe=bpe, tgt_bpe=bpe)
        assert model.src_bpe is bpe and model.tgt_bpe is bpe
        src = corpus.pairs[0][0]
        out, attention, _ = translate(model, encode_one(model, src), beam_width=1)
        # attention columns cover the subword-segmented source
        from termforge.bpe import apply_bpe

        assert attention.shape[1] == len(apply_bpe(bpe, corpus.pairs[0][0]))


class TestFineTune:
    def test_zero_epochs_identical_copy(self):
        corpus = copy_corpus(n_pairs=8)
        cfg = TrainConfig(layers=1, hidden=8, batch_size=4, epochs=2, seed=5)
        model = train(corpus, cfg)
        tuned = fine_tune(
            model, corpus, TrainConfig(epochs=0, batch_size=4, seed=5)
        )
        assert tuned is not model
        for name in model.params:
            assert np.array_equal(model.params[name], tuned.params[name])

    def test_adaptation_reduces_dev_loss_and_freezes_vocab(self):
        generic = copy_corpus(n_pairs=30, seed=1)
        cfg = TrainConfig(layers=1, hidden=16, batch_size=4, dropout=0.0,
                          epochs=20, learning_rate=2.0, seed=5)
        model = train(generic, cfg)
        # reversed pairs are a new "domain" over the same vocabulary
        dev = ParallelCorpus(
            [(s, tuple(reversed(t))) for s, t in generic.pairs[:10]]
        )
        before = dataset_loss(model, dev)
        tuned = fine_tune(
            model, dev,
            TrainConfig(epochs=25, batch_size=2, dropout=0.0,
                        learning_rate=2.0, seed=5),
        )
        after = dataset_loss(tuned, dev)
        assert after < before
        assert tuned.src_vocab.itos == model.src_vocab.itos
        assert tuned.tgt_vocab.itos == model.tgt_vocab.itos
        # original model untouched
        assert dataset_loss(model, dev) == pytest.approx(before)

    def test_dropout_comes_from_the_model(self):
        corpus = copy_corpus(n_pairs=8)
        model = train(corpus, TrainConfig(layers=2, hidden=8, batch_size=4,
                                          dropout=0.5, epochs=1, seed=5))

        def tuned(base, dropout):
            schedule = TrainConfig(epochs=2, batch_size=2, dropout=dropout, seed=5)
            return fine_tune(base, corpus, schedule).params

        at_zero, at_half = tuned(model, 0.0), tuned(model, 0.5)
        assert all(np.array_equal(at_zero[k], at_half[k]) for k in at_zero)
        without = model.copy()
        without.config = dataclasses.replace(model.config, dropout=0.0)
        plain = tuned(without, 0.0)
        assert not all(np.array_equal(at_zero[k], plain[k]) for k in at_zero)


class TestDatasetLoss:
    @pytest.mark.parametrize("pairs", [[], [((), ("x",))]], ids=["no-pairs", "empty-source"])
    def test_no_usable_pair_raises(self, pairs):
        model, _ = tiny_model()
        with pytest.raises(EmptyCorpusError):
            dataset_loss(model, ParallelCorpus(pairs))


def reference_beam(model, tokens, beam_width=5, max_len=None, min_len=1):
    """Beam search that steps every hypothesis as its own B=1 decoder call,
    each holding copies of its layer states: the oracle for the batched
    search in ``translate``."""
    from termforge.nmt.model import BOS_ID, EOS_ID
    from termforge.nmt.network import decoder_step

    tokens = tuple(tokens)
    if max_len is None:
        max_len = 2 * len(tokens) + 5
    src_ids = np.array([model.src_vocab.encode(tokens)], dtype=np.int64)
    enc_top, enc_finals = encode(model, src_ids)

    def norm(beam):
        return beam["logprob"] / max(len(beam["tokens"]) - 1, 1)

    beams = [dict(
        tokens=[BOS_ID], logprob=0.0,
        h=[h.copy() for h, _ in enc_finals], c=[c.copy() for _, c in enc_finals],
        hbar=np.zeros((1, model.config.hidden)), attn=[], finished=False,
    )]
    for _ in range(max_len):
        if all(b["finished"] for b in beams):
            break
        candidates = []
        for beam in beams:
            if beam["finished"]:
                candidates.append((beam["logprob"], -1, beam))
                continue
            emb = model.params["dec_E"][np.array([beam["tokens"][-1]])]
            x_in = np.concatenate([emb, beam["hbar"]], axis=1)
            h = [x.copy() for x in beam["h"]]
            c = [x.copy() for x in beam["c"]]
            hbar, attn = decoder_step(model, x_in, h, c, enc_top)
            logits = (hbar @ model.params["out_W"] + model.params["out_b"])[0]
            logits -= logits.max()
            logprobs = logits - np.log(np.exp(logits).sum())
            if len(beam["tokens"]) - 1 < min_len:
                logprobs[EOS_ID] = -np.inf
            for tok_id in np.argsort(-logprobs, kind="stable")[:beam_width]:
                tok_id = int(tok_id)
                score = beam["logprob"] + float(logprobs[tok_id])
                candidates.append((score, tok_id, dict(
                    tokens=beam["tokens"] + [tok_id], logprob=score,
                    h=h, c=c, hbar=hbar, attn=beam["attn"] + [attn[0].copy()],
                    finished=tok_id == EOS_ID,
                )))
        candidates.sort(key=lambda cand: (-cand[0], cand[1]))
        beams = [cand[2] for cand in candidates[:beam_width]]
    best = max(beams, key=lambda b: (norm(b), tuple(b["tokens"])))
    out_ids, rows = best["tokens"][1:], best["attn"]
    if out_ids and out_ids[-1] == EOS_ID:
        out_ids, rows = out_ids[:-1], rows[:-1]
    weights = np.vstack(rows) if rows else np.zeros((0, len(tokens)))
    return model.tgt_vocab.decode(out_ids), weights, norm(best)


class TestTranslate:
    def trained(self):
        corpus = copy_corpus(n_pairs=20, seed=2)
        cfg = TrainConfig(layers=2, hidden=16, batch_size=4, dropout=0.0,
                          epochs=60, learning_rate=2.0, seed=9)
        return train(corpus, cfg), corpus

    def test_attention_rows_sum_to_one(self):
        model, corpus = self.trained()
        for src, _ in corpus.pairs[:5]:
            _, attention, _ = translate(model, encode_one(model, src), beam_width=3)
            if len(attention):
                sums = attention.sum(axis=1)
                assert np.allclose(sums, 1.0, atol=1e-5)
                assert np.all(attention >= 0.0)

    def test_beam_one_equals_explicit_greedy(self):
        model, corpus = self.trained()
        from termforge.nmt.model import BOS_ID, EOS_ID
        from termforge.nmt.network import decoder_step

        for src, _ in corpus.pairs[:5]:
            out, _, _ = translate(model, encode_one(model, src), beam_width=1)
            # explicit greedy loop
            src_ids = np.array([model.src_vocab.encode(src)])
            enc_top, finals = encode(model, src_ids)
            h = [x.copy() for x, _ in finals]
            c = [x.copy() for _, x in finals]
            hbar = np.zeros((1, model.config.hidden))
            prev = BOS_ID
            greedy = []
            for _ in range(2 * len(src) + 5):
                emb = model.params["dec_E"][np.array([prev])]
                hbar, _ = decoder_step(
                    model, np.concatenate([emb, hbar], axis=1), h, c, enc_top
                )
                logits = (hbar @ model.params["out_W"] + model.params["out_b"])[0]
                prev = int(np.argmax(logits))
                if prev == EOS_ID:
                    break
                greedy.append(prev)
            assert out == model.tgt_vocab.decode(greedy)

    def test_wider_beam_never_lowers_normalized_score(self):
        model, corpus = self.trained()
        for src, _ in corpus.pairs[:4]:
            s1 = translate(model, encode_one(model, src), beam_width=1)[2]
            s5 = translate(model, encode_one(model, src), beam_width=5)[2]
            assert s5 >= s1 - 1e-9

    def test_batched_beam_matches_reference(self):
        model, corpus = self.trained()
        for beam_width in (1, 3, 5):
            for src, _ in corpus.pairs[:8]:
                case = (beam_width, src)
                out, attention, score = translate(
                    model, encode_one(model, src), beam_width=beam_width
                )
                ref_out, ref_attention, ref_score = reference_beam(
                    model, src, beam_width=beam_width
                )
                assert out == ref_out, case
                assert abs(score - ref_score) <= 1e-9, case
                assert attention.shape == ref_attention.shape, case
                assert np.allclose(attention, ref_attention), case

    def test_empty_input(self):
        model, _ = self.trained()
        out, attention, score = translate(model, encode_one(model, ()), beam_width=2)
        assert out == () and len(attention) == 0


@dataclasses.dataclass
class _ReferenceBeam:
    tokens: list
    logprob: float
    attn_rows: list
    row: int = 0
    finished: bool = False

    def norm_score(self):
        return self.logprob / max(len(self.tokens) - 1, 1)


def reference_translate(model, tokens, beam_width=5):
    """``translate`` as it was written with one object per hypothesis and
    each hypothesis holding its own list of attention rows: the bit-exact
    oracle for the array-and-back-pointer search."""
    from termforge.bpe import apply_bpe
    from termforge.nmt.model import BOS_ID, EOS_ID

    if model.src_bpe is not None:
        tokens = apply_bpe(model.src_bpe, tuple(tokens))
    tokens = tuple(tokens)
    if not tokens:
        return (), np.zeros((0, 0)), 0.0
    params = model.params
    src_ids = np.array([model.src_vocab.encode(tokens)], dtype=np.int64)
    enc_top, enc_finals = encode(model, src_ids)
    enc_by_k = {1: enc_top}
    h_layers = [h for h, _ in enc_finals]
    c_layers = [c for _, c in enc_finals]
    hbar = np.zeros((1, model.config.hidden))
    beams = [_ReferenceBeam(tokens=[BOS_ID], logprob=0.0, attn_rows=[])]
    for step in range(2 * len(tokens) + 5):
        live = [b for b in beams if not b.finished]
        if not live:
            break
        k = len(live)
        rows = [b.row for b in live]
        if k not in enc_by_k:
            enc_by_k[k] = np.repeat(enc_top, k, axis=1)
        emb = params["dec_E"][[b.tokens[-1] for b in live]]
        x_in = np.concatenate([emb, hbar[rows]], axis=1)
        h_layers = [h[rows] for h in h_layers]
        c_layers = [c[rows] for c in c_layers]
        hbar, attn = decoder_step(model, x_in, h_layers, c_layers, enc_by_k[k])
        logits = hbar @ params["out_W"] + params["out_b"]
        logits -= logits.max(axis=1, keepdims=True)
        logprobs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        if step == 0:
            logprobs[:, EOS_ID] = -np.inf
        order = np.argsort(-logprobs, axis=1, kind="stable")[:, :beam_width]
        top = np.take_along_axis(logprobs, order, axis=1)
        candidates = []
        r = 0
        for beam in beams:
            if beam.finished:
                candidates.append((beam.logprob, -1, beam, -1))
                continue
            for tok_id, lp in zip(order[r].tolist(), top[r].tolist()):
                candidates.append((beam.logprob + lp, tok_id, beam, r))
            r += 1
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = [
            parent if tok_id < 0 else _ReferenceBeam(
                tokens=parent.tokens + [tok_id],
                logprob=score,
                attn_rows=parent.attn_rows + [attn[row]],
                row=row,
                finished=tok_id == EOS_ID,
            )
            for score, tok_id, parent, row in candidates[:beam_width]
        ]
    best = max(beams, key=lambda b: (b.norm_score(), tuple(b.tokens)))
    out_ids = best.tokens[1:]
    attn_rows = best.attn_rows
    if out_ids and out_ids[-1] == EOS_ID:
        out_ids = out_ids[:-1]
        attn_rows = attn_rows[:-1]
    attention = np.vstack(attn_rows) if attn_rows else np.zeros((0, len(tokens)))
    return model.tgt_vocab.decode(out_ids), attention, best.norm_score()


def constant_output_model(out_b):
    """An untrained word model whose output layer ignores the decoder
    state, so every step scores the tokens alike: repeated biases give
    exactly tied scores, and one far above the rest a log-probability of
    exactly 0."""
    model = tiny_model(layers=2, hidden=6, seed=11)[0]
    model.params["out_W"][:] = 0.0
    model.params["out_b"][:] = out_b
    return model


@pytest.fixture(scope="module")
def oracle_translators():
    """A trained word model, a trained BPE model, an untrained word model
    (whose hypotheses run to the length limit) and two constant-output
    models, each with inputs that include an unknown token."""
    corpus = copy_corpus(n_pairs=20, seed=2)
    word = train(corpus, TrainConfig(layers=2, hidden=16, batch_size=4, dropout=0.0,
                                     epochs=60, learning_rate=2.0, seed=9))
    bpe = learn_bpe({w: 5 for s, _ in corpus.pairs for w in s}, num_merges=6)
    subword = train(corpus, TrainConfig(layers=2, hidden=16, batch_size=4, dropout=0.0,
                                        epochs=40, learning_rate=2.0, seed=5),
                    src_bpe=bpe, tgt_bpe=bpe)
    inputs = [src for src, _ in corpus.pairs[:6]] + [("sym3", "unseen", "sym1")]
    untrained = tiny_model(layers=2, hidden=6, seed=11)[0]
    short = [("a", "b", "c"), ("c", "c", "a", "b"), ("b",), ("d", "a")]
    return {
        "word": (word, inputs),
        "bpe": (subword, inputs),
        "untrained": (untrained, short),
        "tied": (constant_output_model([1.0, 1.0, 0.0, -2.0, 1.0, 1.0, -2.0]), short),
        "saturated": (constant_output_model([0.0, 0.0, 0.0, 0.0, 0.0, 800.0, 0.0]), short),
    }


class TestTranslateOracle:
    @pytest.mark.parametrize("kind", ["word", "bpe", "untrained", "tied", "saturated"])
    @pytest.mark.parametrize("beam_width", [1, 2, 3, 5, "wide"])
    def test_bit_equal_to_reference(self, oracle_translators, kind, beam_width):
        model, inputs = oracle_translators[kind]
        if beam_width == "wide":
            beam_width = len(model.tgt_vocab) + 2
        for src in inputs:
            out, attention, score = translate(
                model, encode_one(model, src), beam_width=beam_width
            )
            ref_out, ref_attention, ref_score = reference_translate(
                model, src, beam_width=beam_width
            )
            assert out == ref_out, src
            assert score == ref_score and score.hex() == ref_score.hex(), src
            assert np.array_equal(attention, ref_attention), src


def recording_encode(monkeypatch):
    """Record the source ids of each ``encode`` call ``encode_sources`` makes."""
    # the package's ``translate`` attribute is the function, not the module
    translate_module = importlib.import_module("termforge.nmt.translate")
    calls = []

    def recorded(model, src_ids, rng=None, caches=None):
        calls.append(src_ids.copy())
        return encode(model, src_ids, rng, caches)

    monkeypatch.setattr(translate_module, "encode", recorded)
    return calls


def groups_by_length(sources):
    """Source indices grouped by length, each group in input order."""
    groups = {}
    for i, tokens in enumerate(sources):
        groups.setdefault(len(tokens), []).append(i)
    return groups


class TestEncodeSources:
    @pytest.mark.parametrize("kind", ["word", "bpe"])
    def test_each_group_is_rows_of_one_encode_batch(self, oracle_translators, kind):
        model, inputs = oracle_translators[kind]
        sources = inputs + [tuple(reversed(src)) for src in inputs]
        entries = encode_sources(model, sources)
        groups = groups_by_length([entry.tokens for entry in entries])
        assert any(len(rows) > 1 for rows in groups.values())
        for rows in groups.values():
            src_ids = np.array([model.src_vocab.encode(entries[i].tokens) for i in rows])
            top, finals = encode(model, src_ids)
            for b, i in enumerate(rows):
                entry = entries[i]
                assert entry.top.shape == (top.shape[0], 1, model.config.hidden)
                assert np.array_equal(entry.top, top[:, b:b + 1])
                assert len(entry.finals) == model.config.layers
                for (h, c), (group_h, group_c) in zip(entry.finals, finals):
                    assert np.array_equal(h, group_h[b:b + 1])
                    assert np.array_equal(c, group_c[b:b + 1])

    @pytest.mark.parametrize("kind", ["word", "bpe"])
    def test_group_of_one_is_encode_at_batch_one(self, oracle_translators, kind):
        model, inputs = oracle_translators[kind]
        for src in inputs:
            (entry,) = encode_sources(model, [src])
            top, finals = encode(model, np.array([model.src_vocab.encode(entry.tokens)]))
            assert np.array_equal(entry.top, top)
            for (h, c), (ref_h, ref_c) in zip(entry.finals, finals, strict=True):
                assert np.array_equal(h, ref_h) and np.array_equal(c, ref_c)

    def test_entries_in_input_order(self, oracle_translators):
        model, inputs = oracle_translators["bpe"]
        sources = inputs + [tuple(reversed(src)) for src in inputs]
        entries = encode_sources(model, sources)
        assert [entry.tokens for entry in entries] == [
            apply_bpe(model.src_bpe, src) for src in sources
        ]
        for src, entry in zip(sources, entries):
            (alone,) = encode_sources(model, [src])
            assert entry.tokens == alone.tokens
            assert np.allclose(entry.top, alone.top, rtol=0, atol=1e-12)

    def test_chunk_peak_memory_stays_near_its_entries(self):
        # one chunk of 256 same-length lines through a hidden-32, 2-layer
        # model: with every step's backward caches built up, tracemalloc's
        # peak was 11.3 times the entries kept (13.1 of 1.16 MB); without
        # them it is 3.2 times (3.7 MB)
        cfg = TrainConfig(layers=2, hidden=32, seed=1)
        words = [f"w{i}" for i in range(40)]
        vocab = Vocab(list(RESERVED) + words)
        params = init_params(cfg, len(vocab), len(vocab), np.random.default_rng(1))
        model = Seq2SeqModel(cfg, vocab, vocab, params)
        rng = random.Random(1)
        sources = [tuple(rng.choices(words, k=10)) for _ in range(256)]
        tracemalloc.start()
        try:
            entries = encode_sources(model, sources)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(entries) == 256
        assert peak < 6 * kept

    def test_subword_model_groups_by_model_space_length(self, oracle_translators, monkeypatch):
        model, inputs = oracle_translators["bpe"]
        pieces = [apply_bpe(model.src_bpe, src) for src in inputs]
        by_pieces, by_words = groups_by_length(pieces), groups_by_length(inputs)
        assert sorted(by_pieces.values()) != sorted(by_words.values())
        calls = recording_encode(monkeypatch)
        encode_sources(model, inputs)
        expected = [
            np.array([model.src_vocab.encode(pieces[i]) for i in rows])
            for rows in by_pieces.values()
        ]
        assert len(calls) == len(expected)
        for got, want in zip(calls, expected):
            assert np.array_equal(got, want)

    def test_blank_sources_are_not_encoded(self, oracle_translators, monkeypatch):
        model, inputs = oracle_translators["word"]
        calls = recording_encode(monkeypatch)
        assert encode_sources(model, []) == []
        entries = encode_sources(model, [(), inputs[0], (), inputs[0]])
        assert [ids.shape for ids in calls] == [(2, len(inputs[0]))]
        for i in (0, 2):
            assert entries[i].tokens == () and entries[i].top is None
            out, attention, _ = translate(model, entries[i])
            assert out == () and attention.shape == (0, 0)

    @pytest.mark.parametrize("kind", ["word", "bpe", "untrained", "tied", "saturated"])
    def test_grouped_search_gives_per_sentence_tokens(self, oracle_translators, kind):
        model, inputs = oracle_translators[kind]
        sources = inputs + [tuple(reversed(src)) for src in inputs]
        entries = encode_sources(model, sources)
        for beam_width in (1, 3, 5):
            for src, entry in zip(sources, entries):
                out, attention, score = translate(model, entry, beam_width)
                ref_out, ref_attention, ref_score = translate(
                    model, encode_one(model, src), beam_width
                )
                assert out == ref_out, (beam_width, src)
                assert abs(score - ref_score) <= 1e-9, (beam_width, src)
                assert np.allclose(attention, ref_attention), (beam_width, src)


class TestReplaceUnk:
    def test_paper_style_fixture(self):
        source = ("other", "bacterial", "diseases")
        output = ("sonstige", UNK, "krankheiten")
        attention = np.array(
            [
                [0.7, 0.2, 0.1],
                [0.1, 0.8, 0.1],  # unk attends to "bacterial"
                [0.1, 0.2, 0.7],
            ]
        )
        entry = LexiconEntry(("bacterial",), [Candidate(("bakterielle",), 0.9)])
        lexicon = Lexicon({entry.source_term: entry})
        assert replace_unk(output, attention, source, lexicon) == (
            "sonstige",
            "bakterielle",
            "krankheiten",
        )

    def test_source_copy_fallback(self):
        output = (UNK,)
        attention = np.array([[0.2, 0.5, 0.3]])
        assert replace_unk(output, attention, ("a", "orbit", "b"), None) == ("orbit",)
        assert replace_unk(output, attention, ("a", "orbit", "b"), Lexicon({})) == (
            "orbit",
        )

    def test_no_unk_identity(self):
        output = ("x", "y")
        attention = np.ones((2, 3)) / 3
        assert replace_unk(output, attention, ("a", "b", "c"), None) == output

    def test_argmax_tie_lowest_index(self):
        attention = np.array([[0.5, 0.5]])
        assert replace_unk((UNK,), attention, ("left", "right"), None) == ("left",)

    def test_randomized_argmax_property(self):
        rng = np.random.default_rng(17)
        lexicon = Lexicon(
            {
                (f"s{i}",): LexiconEntry((f"s{i}",), [Candidate((f"t{i}",), 1.0)])
                for i in range(0, 10, 2)  # entries for even source words only
            }
        )
        for _ in range(100):
            n_src = int(rng.integers(1, 10))
            source = tuple(f"s{int(rng.integers(0, 10))}" for _ in range(n_src))
            n_out = int(rng.integers(1, 8))
            output = tuple(
                UNK if rng.random() < 0.4 else f"w{int(rng.integers(0, 5))}"
                for _ in range(n_out)
            )
            weights = rng.random((n_out, n_src))
            weights /= weights.sum(axis=1, keepdims=True)
            result = replace_unk(output, weights, source, lexicon)
            expected = []
            for j, tok in enumerate(output):
                if tok != UNK:
                    expected.append(tok)
                    continue
                src_tok = source[int(np.argmax(weights[j]))]
                entry = lexicon.entries.get((src_tok,))
                expected.extend(
                    entry.candidates[0].tokens if entry else (src_tok,)
                )
            assert result == tuple(expected)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            replace_unk(("a",), np.zeros((2, 2)), ("s", "s2"), None)


# a well-formed BPE block for header edits
_MERGES = b'{"marker": "@@", "merges": [["a", "b"]]}'


class TestCheckpoint:
    def test_roundtrip_and_byte_stability(self, tmp_path):
        corpus = copy_corpus(n_pairs=8)
        bpe = learn_bpe({w: 3 for s, _ in corpus.pairs for w in s}, 5)
        cfg = TrainConfig(layers=2, hidden=8, batch_size=4, epochs=1, seed=2)
        model = train(corpus, cfg, src_bpe=bpe, tgt_bpe=bpe)
        p1 = tmp_path / "model.tfnmt"
        save_model(model, p1)
        assert p1.read_bytes().startswith(b"termforge-nmt-v2\n")
        loaded = load_model(p1)
        for name in model.params:
            assert np.array_equal(model.params[name], loaded.params[name])
        assert loaded.src_bpe.merges == bpe.merges
        assert loaded.config == model.config
        p2 = tmp_path / "again.tfnmt"
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        src = corpus.pairs[0][0]
        assert (translate(loaded, encode_one(loaded, src), 2)[0]
                == translate(model, encode_one(model, src), 2)[0])

    def test_header_as_previously_written_loads_equal(self, tmp_path):
        path = tmp_path / "model.tfnmt"
        model = tiny_model(layers=1)[0]
        save_model(model, path)
        with open(path, "rb") as f:
            f.readline()
            header = json.loads(f.readline())
        assert sorted(header) == [
            "config", "src_bpe", "src_vocab", "tensors", "tgt_bpe", "tgt_vocab",
        ]
        assert header["config"] == {
            "layers": 1, "hidden": 4, "batch_size": 2,
            "dropout": 0.0, "epochs": 0, "learning_rate": 1.0,
            "decay_factor": 0.5, "clip_norm": 5.0, "seed": 7,
            "source_vocab_cap": 50000, "target_vocab_cap": 50000,
        }
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.params.keys() == model.params.keys()
        for name in model.params:
            assert np.array_equal(model.params[name], loaded.params[name])

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b'"seed": 7', b'"seed": 7, "heads": 2', "heads"),
            (b'"tensors": ', b'"tensor_list": ', "tensors"),
            (b'"src_bpe": null, ', b'"src_bpe": null ', "JSON"),
            (b'"layers": 1', b'"layers": "1"', "config field layers must be int"),
            (b'"hidden": 4', b'"hidden": null', "config field hidden must be int"),
            (b'"dropout": 0.0', b'"dropout": 1.5', "config field dropout must be in"),
            (b'"learning_rate": 1.0', b'"learning_rate": NaN',
             "config field learning_rate must be finite and > 0"),
            (b'"clip_norm": 5.0', b'"clip_norm": -1', "config field clip_norm must be finite"),
            (b'"src_vocab": ["<pad>", "<unk>", "<s>", "</s>", "a", "b", "c"]',
             b'"src_vocab": 5', "src_vocab is not a list of strings"),
            (b'"tgt_vocab": ["<pad>"', b'"tgt_vocab": [7',
             "tgt_vocab is not a list of strings"),
            (b'"tensors": [', b'"tensors": 5, "unread": [', "tensors is not a list of"),
            (b'"shape": [4, 4]', b'"shape": [4, -4]', "tensors is not a list of"),
            (b'"src_bpe": null', b'"src_bpe": {"merges": 3, "marker": "@@"}',
             "src_bpe is neither null nor string-pair merges"),
            (b'"tgt_bpe": null', b'"tgt_bpe": {"merges": [["a"]], "marker": "@@"}',
             "tgt_bpe is neither null nor string-pair merges"),
            # the marker is fixed: a header written with another is malformed
            (b'"src_bpe": null', b'"src_bpe": ' + _MERGES.replace(b'"@@"', b'"##"'),
             "src_bpe is neither null nor string-pair merges with marker '@@'"),
            (b'"src_bpe": null', b'"src_bpe": ' + _MERGES,
             "src_bpe and tgt_bpe must both be null or both hold merges"),
            # vocabularies that keep their length and so match the tensors
            (b'"tgt_vocab": ["<pad>", "<unk>", "<s>", "</s>"',
             b'"tgt_vocab": ["</s>", "<unk>", "<s>", "<pad>"',
             "tgt_vocab does not start with <pad> <unk> <s> </s>"),
            (b'"src_vocab": ["<pad>", "<unk>", "<s>", "</s>", "a"',
             b'"src_vocab": ["<pad>", "<unk>", "<s>", "</s>", "<unk>"',
             "src_vocab repeats token '<unk>'"),
            (b'"x", "y", "z"]', b'"x", "y", "x"]', "tgt_vocab repeats token 'x'"),
        ],
    )
    def test_malformed_header_names_the_file(self, tmp_path, old, new, message):
        path = tmp_path / "model.tfnmt"
        save_model(tiny_model(layers=1)[0], path)
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # a 1-layer model's tensors under a 2-layer config
            (lambda data, shape: data.replace(b'"layers": 1', b'"layers": 2'),
             "tensor dec_U_2 missing"),
            # out_W listed transposed: same byte count, wrong shape
            (lambda data, shape: data.replace(
                b'"name": "out_W", "shape": [%d, %d]' % shape,
                b'"name": "out_W", "shape": [%d, %d]' % shape[::-1]),
             r"tensor out_W has shape \(7, 4\); the config needs \(4, 7\)"),
            (lambda data, shape: data + b"\0", "1 bytes after the last tensor"),
            (lambda data, shape: data[:-1], "truncated tensor out_b"),
            # more layers than the listed tensors could hold: refused before
            # the expected shapes, one set per layer, are built
            (lambda data, shape: data.replace(b'"layers": 1', b'"layers": 1' + b"0" * 20),
             "config field layers is 1" + "0" * 20 + ", but 13 tensors are listed"),
        ],
        ids=["layers", "out_W-shape", "trailing-byte", "truncated", "layers-beyond-tensors"],
    )
    def test_tensors_must_match_the_config(self, tmp_path, edit, message):
        path = tmp_path / "model.tfnmt"
        model = tiny_model(layers=1)[0]
        save_model(model, path)
        data = path.read_bytes()
        changed = edit(data, model.params["out_W"].shape)
        assert changed != data
        path.write_bytes(changed)
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "bad.tfnmt"
        path.write_bytes(b"\xff\xfe\n{}\n")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        """A file in the earlier v1 format fails on its first line."""
        path = tmp_path / "old.tfnmt"
        save_model(tiny_model(layers=1)[0], path)
        data = path.read_bytes()
        assert data.startswith(b"termforge-nmt-v2\n")
        path.write_bytes(b"termforge-nmt-v1" + data[len(b"termforge-nmt-v2"):])
        with pytest.raises(
            ModelFormatError,
            match="expected magic 'termforge-nmt-v2', got 'termforge-nmt-v1'",
        ) as info:
            load_model(path)
        assert str(path) in str(info.value)
