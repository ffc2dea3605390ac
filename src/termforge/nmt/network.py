"""Forward and backward passes for the residual-LSTM encoder-decoder.

The layer recurrence is ``state_l[i] = state_{l-1}[i] + cell(state_{l-1}[i],
state_l[i-1])``: the cell consumes the previous layer's state at the same
position and the *post-residual* state of its own layer at the previous
position.  Embeddings are ``hidden`` wide, so every encoder layer adds its
input; decoder layers add theirs from layer 2 up, since decoder layer 1
consumes the embedding concatenated with the previous attentional vector
(input feeding).  :func:`_layer_step` and :func:`_layer_step_backward` are
the one place that rule is written.

The LSTM cell fuses its gate nonlinearities: one sigmoid pass over all 4n
pre-activation columns, from which the input, forget and output gates are
slices, and a tanh over the candidate slice.  The sigmoid is
``1/(1+exp(-z))`` element by element either way, so fusing changes no value.
A step's cache holds the fused gates, the candidate and the tanh of the new
memory, so the backward pass recomputes no nonlinearity.  It writes the four
gate gradients into one (B, 4n) buffer ``dz`` and takes all three sigmoid
derivatives with two in-place products over the whole buffer.

:func:`encode` and :func:`decoder_step` append what their backward passes
read to a ``caches`` list the caller passes and keep nothing without one;
only :func:`loss_and_grads` with gradients passes lists.

Everything is plain float64 numpy.  At these sizes (hidden 32, batches of
16 or 2) a step is bound by the fixed cost of each numpy call, not by flops,
which profiling showed plain numpy handles better than numba loop kernels or
jitted np.dot.  So the code saves calls:

- one ``np.errstate`` per encoder or decoder step call;
- the sigmoid in one buffer, and the attention backward's outer products
  as broadcast multiplies with no copy of the state gradient;
- the output softmax of all time steps at once;
- the gradient dict from ``np.zeros(shape)``, and one ``np.bincount`` per
  embedding-gradient scatter per batch;
- the decoder's dropout masks drawn once per batch, from the same random
  stream as one draw per step and layer;
- each layer's parameter names built once, not per step.

Each saving keeps every element's operations in their order, so every
value stays bit-identical; stacking matrix products across time steps
would not, and is not done.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import Seq2SeqModel


def _sigmoid(x):
    # callers enter np.errstate(over="ignore"): saturated gates flush to 0/1
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


@functools.cache
def _layer(side, l):
    """Layer ``l`` of ``side`` ("enc" or "dec"): the names of its W, U and
    b parameters, and whether it adds its input to the cell output, as
    every encoder layer and the decoder layers above the first do."""
    return f"{side}_W_{l}", f"{side}_U_{l}", f"{side}_b_{l}", side == "enc" or l > 1


def _layer_step(params, layer, x, h, c):
    """One step of a :func:`_layer` for a batch.

    Runs the fused-gate cell on the input ``x`` and the layer's previous
    (state, memory), adding ``x`` to the cell output on a residual layer.
    Returns (state, memory, cache).  The caller holds
    ``np.errstate(over="ignore")``.
    """
    W, U, b, residual = layer
    n = h.shape[1]
    z = x @ params[W]
    z += h @ params[U]
    z += params[b]
    gates = _sigmoid(z)  # one pass over all 4n columns; g's are unused
    g = np.tanh(z[:, 2 * n:3 * n])
    c_new = gates[:, n:2 * n] * c + gates[:, :n] * g
    tc = np.tanh(c_new)
    state = gates[:, 3 * n:] * tc
    if residual:
        state = x + state
    return state, c_new, (x, h, c, gates, g, tc)


def _layer_step_backward(params, layer, ds, dc, cache, mask, grads):
    """Backward through one :func:`_layer_step` given the gradients on its
    state and memory; accumulates the weight gradients into ``grads`` and
    returns (d_input, d_prev_state, d_prev_memory), the input gradient
    scaled by the dropout ``mask`` that was applied to the input."""
    W, U, b, residual = layer
    x, h_prev, c_prev, gates, g, tc = cache
    n = g.shape[1]
    dc = dc + ds * gates[:, 3 * n:] * (1.0 - tc * tc)
    # [di, df, (candidate), do] times s·(1-s), one gate slice per quarter;
    # the buffer starts at zero so the candidate quarter, rewritten below,
    # never multiplies stale memory
    dz = np.zeros(gates.shape)
    np.multiply(dc, g, out=dz[:, :n])
    np.multiply(dc, c_prev, out=dz[:, n:2 * n])
    np.multiply(ds, tc, out=dz[:, 3 * n:])
    dz *= gates
    dz *= 1.0 - gates
    dg = np.multiply(dc, gates[:, :n], out=dz[:, 2 * n:3 * n])
    dg *= 1.0 - g * g
    dc_prev = dc * gates[:, n:2 * n]
    grads[W] += x.T @ dz
    grads[U] += h_prev.T @ dz
    grads[b] += dz.sum(axis=0)
    dx = dz @ params[W].T
    dh_prev = dz @ params[U].T
    if residual:
        dx += ds
    if mask is not None:
        dx *= mask
    return dx, dh_prev, dc_prev


def _dropout_mask(rng, shape, rate):
    if rng is None or rate <= 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _row_sums(ids, rows, n_rows):
    """The ``rows`` summed by their ``ids`` into an (n_rows, n) array.

    This is ``np.add.at`` into zeros as one ``np.bincount`` over the cells
    ``id * n + column``: both add in index order, so each sum adds its
    terms in the order of ``ids``."""
    n = rows.shape[-1]
    cells = ids.reshape(-1, 1) * n + np.arange(n)
    return np.bincount(
        cells.reshape(-1), rows.reshape(-1), n_rows * n
    ).reshape(n_rows, n)


def encode(model: Seq2SeqModel, src_ids: np.ndarray, rng=None, caches=None):
    """Run the encoder stack over a batch of equal-length sources.

    Returns (top_states (Ts,B,n), per-layer final (state, memory)).
    ``rng`` enables dropout between layers (training mode).  Given a
    ``caches`` list, each layer appends (inputs, step caches, dropout mask).
    """
    params = model.params
    cfg = model.config
    B, Ts = src_ids.shape
    n = cfg.hidden
    inputs = params["enc_E"][src_ids].transpose(1, 0, 2).copy()  # (Ts, B, n)
    finals = []
    with np.errstate(over="ignore"):  # saturated gates flush to 0/1
        for l in range(1, cfg.layers + 1):
            layer = _layer("enc", l)
            mask = _dropout_mask(rng, inputs.shape, cfg.dropout) if l > 1 else None
            if mask is not None:
                inputs = inputs * mask
            states = np.empty((Ts, B, n))
            h = np.zeros((B, n))
            c = np.zeros((B, n))
            cell_caches = []
            for t in range(Ts):
                h, c, cache = _layer_step(params, layer, inputs[t], h, c)
                states[t] = h
                if caches is not None:
                    cell_caches.append(cache)
            if caches is not None:
                caches.append((inputs, cell_caches, mask))
            finals.append((states[-1].copy(), c.copy()))
            inputs = states
    return inputs, finals


def encode_backward(model, src_ids, layer_caches, d_top, d_finals, grads):
    """Backpropagate attention and decoder-init gradients through the encoder."""
    params = model.params
    cfg = model.config
    Ts = d_top.shape[0]
    d_states = d_top.copy()
    for l in range(cfg.layers, 0, -1):
        layer = _layer("enc", l)
        inputs, cell_caches, mask = layer_caches[l - 1]
        dh_final, dc_carry = d_finals[l - 1]
        d_states[-1] += dh_final
        dh_carry = np.zeros_like(dh_final)
        d_inputs = np.empty_like(inputs)
        for t in range(Ts - 1, -1, -1):
            d_inputs[t], dh_carry, dc_carry = _layer_step_backward(
                params, layer, d_states[t] + dh_carry, dc_carry, cell_caches[t],
                None if mask is None else mask[t], grads,
            )
        d_states = d_inputs
    # each enc_E row sums its terms by batch row, then source position
    grads["enc_E"] += _row_sums(
        src_ids, d_states.transpose(1, 0, 2), len(grads["enc_E"])
    )


def _attention(params, h_top, enc_top):
    """Bilinear (general) attention and the attentional vector
    hbar = tanh([ctx; h_top] Wc + bc): returns (hbar, weights, cache)."""
    q = h_top @ params["att_Wa"]                      # (B, n)
    scores = np.einsum("bn,tbn->bt", q, enc_top)      # (B, Ts)
    scores = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    attn = exp / exp.sum(axis=1, keepdims=True)
    ctx = np.einsum("bt,tbn->bn", attn, enc_top)
    cat = np.concatenate([ctx, h_top], axis=1)
    hbar = np.tanh(cat @ params["att_Wc"] + params["att_bc"])
    return hbar, attn, (q, attn, cat)


def _attention_backward(params, cache, enc_top, h_top, d_attnvec, hbar, grads):
    """Backward through :func:`_attention`.

    Returns (dh_top, d_enc_top_delta).
    """
    q, attn, cat = cache
    n = h_top.shape[1]
    dz = d_attnvec * (1.0 - hbar * hbar)
    grads["att_Wc"] += cat.T @ dz
    grads["att_bc"] += dz.sum(axis=0)
    dcat = dz @ params["att_Wc"].T
    dctx = dcat[:, :n]
    dh_top = dcat[:, n:]  # a view: dcat is not read again
    d_attn = np.einsum("bn,tbn->bt", dctx, enc_top)
    # outer products (Ts, B, n), one product per element
    d_enc = attn.T[:, :, None] * dctx
    dscores = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
    dq = np.einsum("bt,tbn->bn", dscores, enc_top)
    d_enc += dscores.T[:, :, None] * q
    dh_top += dq @ params["att_Wa"].T
    grads["att_Wa"] += h_top.T @ dq
    return dh_top, d_enc


def decoder_step(model, x_in, h_layers, c_layers, enc_top, masks=None, caches=None):
    """One decoder step over the layer stack plus attention.

    ``x_in`` is [embedding; previous attentional vector].  ``masks``
    (training mode) holds the step's dropout masks, the one of layer ``l``
    at ``masks[l - 2]`` for each layer above the first.  Mutates
    ``h_layers``/``c_layers`` in place and returns (hbar, attn_row).  Given
    a ``caches`` list, appends the step's caches for the backward pass in
    :func:`loss_and_grads`.
    """
    params = model.params
    cfg = model.config
    x = x_in
    step_caches = []
    with np.errstate(over="ignore"):  # saturated gates flush to 0/1
        for l in range(1, cfg.layers + 1):
            mask = masks[l - 2] if masks is not None and l > 1 else None
            if mask is not None:
                x = x * mask
            x, c_layers[l - 1], cache = _layer_step(
                params, _layer("dec", l), x, h_layers[l - 1], c_layers[l - 1]
            )
            h_layers[l - 1] = x
            if caches is not None:
                step_caches.append((cache, mask))
    # x is now the top layer's state
    hbar, attn, att_cache = _attention(params, x, enc_top)
    if caches is not None:
        caches.append((step_caches, att_cache, x, hbar))
    return hbar, attn


def loss_and_grads(model, src_ids, tgt_ids, train_rng=None, with_grads=True):
    """Teacher-forced cross-entropy over a batch; optionally with gradients.

    ``src_ids`` is (B, Ts) without padding (batches bucket source lengths);
    ``tgt_ids`` is (B, Tt+1) holding BOS + target + EOS + PAD.  The loss is
    the mean negative log-likelihood per non-pad target token.
    """
    params = model.params
    cfg = model.config
    B, _ = src_ids.shape
    n = cfg.hidden
    dec_in = tgt_ids[:, :-1]
    dec_out = tgt_ids[:, 1:]
    Tt = dec_in.shape[1]
    mask = (dec_out != 0).astype(np.float64)
    total_tokens = float(mask.sum())
    if total_tokens == 0:
        raise ValueError("batch contains no target tokens")
    rows = np.arange(B)

    enc_caches = [] if with_grads else None
    caches = [] if with_grads else None
    enc_top, enc_finals = encode(model, src_ids, rng=train_rng, caches=enc_caches)
    # the draws of one mask per step and layer, in that order, as one draw
    dec_masks = _dropout_mask(train_rng, (Tt, cfg.layers - 1, B, n), cfg.dropout)
    h_layers = [h.copy() for h, _ in enc_finals]
    c_layers = [c.copy() for _, c in enc_finals]
    hbar = np.zeros((B, n))

    out_W = params["out_W"]
    # each step's logits, turned in place into its softmax and, for the
    # backward pass, into the gradient on the logits
    probs = np.empty((Tt, B, out_W.shape[1]))
    emb = params["dec_E"][dec_in.T]  # (Tt, B, n)
    for t in range(Tt):
        x_in = np.concatenate([emb[t], hbar], axis=1)
        hbar, _ = decoder_step(
            model, x_in, h_layers, c_layers, enc_top,
            masks=None if dec_masks is None else dec_masks[t], caches=caches,
        )
        np.matmul(hbar, out_W, out=probs[t])
    # the softmax and the log-likelihood act row by row, so taking every
    # step at once changes no value
    probs += params["out_b"]
    probs -= probs.max(axis=2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)
    steps = np.arange(Tt)[:, None]
    with np.errstate(divide="ignore"):  # -inf here means divergence
        logp = np.log(probs[steps, rows, dec_out.T])
    loss = 0.0
    for step_logp in logp * mask.T:  # 1-D sums: sum(axis=1) adds in another order
        loss -= float(step_logp.sum())
    loss /= total_tokens
    if not with_grads or not np.isfinite(loss):
        return loss, None, total_tokens

    grads = {k: np.zeros(v.shape) for k, v in params.items()}
    d_enc_top = np.zeros_like(enc_top)
    dh_time = [np.zeros((B, n)) for _ in range(cfg.layers)]
    dc_time = [np.zeros((B, n)) for _ in range(cfg.layers)]
    d_hbar_next = np.zeros((B, n))
    dlogits = probs
    dlogits[steps, rows, dec_out.T] -= 1.0
    dlogits *= (mask / total_tokens).T[:, :, None]
    # embedding gradients by step, latest step first, for one scatter below
    d_emb = np.empty((Tt, B, n))

    for t in range(Tt - 1, -1, -1):
        step_caches, att_cache, h_top, hbar_t = caches[t]
        grads["out_W"] += hbar_t.T @ dlogits[t]
        grads["out_b"] += dlogits[t].sum(axis=0)
        d_hbar = dlogits[t] @ out_W.T
        d_hbar += d_hbar_next

        dh_top, d_enc = _attention_backward(
            params, att_cache, enc_top, h_top, d_hbar, hbar_t, grads
        )
        d_enc_top += d_enc

        ds = dh_top
        for l in range(cfg.layers, 0, -1):
            cache, drop_mask = step_caches[l - 1]
            ds, dh_time[l - 1], dc_time[l - 1] = _layer_step_backward(
                params, _layer("dec", l), ds + dh_time[l - 1], dc_time[l - 1],
                cache, drop_mask, grads,
            )
        # ds is now the gradient on [embedding; previous attentional vector]
        d_emb[Tt - 1 - t] = ds[:, :n]
        d_hbar_next = ds[:, n:]
    # each dec_E row sums its terms in the order the backward pass met
    # them: t descending, then rows
    grads["dec_E"] += _row_sums(dec_in.T[::-1], d_emb, len(grads["dec_E"]))

    d_finals = list(zip(dh_time, dc_time))
    encode_backward(model, src_ids, enc_caches, d_enc_top, d_finals, grads)
    return loss, grads, total_tokens
