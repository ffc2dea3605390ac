"""Beam-search translation and unknown-word replacement.

``encode_sources`` runs the encoder once per group of equal-length sources;
``translate`` starts its beam search from one source's entry.
``translate`` returns the attention of its output as a plain (steps x
source) array: one row per emitted target token, one column per source
position in model space (subwords for BPE models).  ``replace_unk`` reads
that array to find the source token behind each unknown.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..bpe import apply_bpe
from ..corpus import Lexicon
from .model import BOS_ID, EOS_ID, UNK, Seq2SeqModel
from .network import decoder_step, encode


class EncodedSource(NamedTuple):
    """One source as the beam search starts from it: its tokens in model
    space, the encoder's top states (Ts, 1, n) and each layer's final
    (state, memory), both (1, n).  An empty source has no states."""

    tokens: tuple[str, ...]
    top: np.ndarray | None
    finals: list[tuple[np.ndarray, np.ndarray]]


def encode_sources(model: Seq2SeqModel, sources) -> list[EncodedSource]:
    """Segment each source per the model and encode the sources with one
    ``encode`` call per length in model space; returns one entry per
    source, in input order.

    Sources of one length form one batch, as training buckets them, so the
    encoder needs no mask.  An entry's states are its row of that batch,
    and ``encode`` keeps no caches.  A group of one is ``encode`` at B=1;
    a row of a larger batch may differ from it in the last bits, because a
    matrix product's rounding depends on its row count.  Empty sources are
    not encoded.
    """
    if model.src_bpe is not None:
        sources = [apply_bpe(model.src_bpe, tuple(tokens)) for tokens in sources]
    sources = [tuple(tokens) for tokens in sources]
    entries = [EncodedSource(tokens, None, []) for tokens in sources]
    groups: dict[int, list[int]] = {}
    for i, tokens in enumerate(sources):
        if tokens:
            groups.setdefault(len(tokens), []).append(i)
    for rows in groups.values():
        src_ids = np.array([model.src_vocab.encode(sources[i]) for i in rows], dtype=np.int64)
        top, finals = encode(model, src_ids)
        for b, i in enumerate(rows):
            entries[i] = EncodedSource(
                sources[i], top[:, b:b + 1], [(h[b:b + 1], c[b:b + 1]) for h, c in finals]
            )
    return entries


def translate(
    model: Seq2SeqModel, encoded: EncodedSource, beam_width: int = 5
) -> tuple[tuple[str, ...], np.ndarray, float]:
    """Length-normalized beam search until end-of-sentence, for at most
    ``2 * len + 5`` target positions, ``len`` counted in model space.

    The search starts from ``encoded``, one source's entry from
    :func:`encode_sources`; a single source's entry is
    ``encode_sources(model, [tokens])[0]``, the encoder at B=1.  The
    returned tokens are in model space, so BPE outputs still carry
    continuation markers.  Predicted unknowns surface as the unk symbol
    for downstream replacement.  The end-of-sentence token is blocked at
    the first position, so a translation is never empty.  Returns the
    tokens, their (steps x source) attention array and the normalized
    score.

    A hypothesis is a plain tuple (negated score, tokens, attention
    pointer, row, finished): ``row`` is its decoder state's row in the
    arrays of the step that produced it, and the pointer is (that step's
    attention array, row, parent's pointer), so attention rows are
    gathered once, for the winner.  Each target position is one batched
    step: the K unfinished hypotheses gather their layer states and
    attentional vectors by row (skipped when the rows are already
    ``0..K-1``), take one ``decoder_step`` against the encoder states
    repeated K times, and score all expansions with one (K, V) output
    product, a row-wise log-softmax and one stable argsort.  Each row's
    ``beam_width`` best tokens become candidates, ordered by (-score,
    token id) and then beam order, with finished hypotheses carried over
    unchanged, so the search is the same as stepping every hypothesis on
    its own.  Scores are kept negated for that order; negation is exact,
    so every score keeps its bits.  The winner has the highest (normalized
    score, tokens).
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    tokens, enc_top, enc_finals = encoded
    if not tokens:
        return (), np.zeros((0, 0)), 0.0

    params = model.params
    dec_E, out_W, out_b = params["dec_E"], params["out_W"], params["out_b"]
    # K -> (encoder states repeated K times, (K, 1) column of row numbers)
    by_k = {}
    h_layers = [h for h, _ in enc_finals]
    c_layers = [c for _, c in enc_finals]
    hbar = np.zeros((1, model.config.hidden))
    hyps = [(-0.0, [BOS_ID], None, 0, False)]
    for step in range(2 * len(tokens) + 5):
        live = [hyp for hyp in hyps if not hyp[4]]
        if not live:
            break
        k = len(live)
        if k not in by_k:
            by_k[k] = (np.repeat(enc_top, k, axis=1), np.arange(k)[:, None])
        enc_k, row_column = by_k[k]
        rows = [hyp[3] for hyp in live]
        if len(hbar) != k or rows != list(range(k)):
            index = np.array(rows)
            hbar = hbar.take(index, axis=0)
            h_layers = [h.take(index, axis=0) for h in h_layers]
            c_layers = [c.take(index, axis=0) for c in c_layers]
        emb = dec_E.take([hyp[1][-1] for hyp in live], axis=0)
        hbar, attn = decoder_step(
            model, np.concatenate([emb, hbar], axis=1), h_layers, c_layers, enc_k
        )
        logits = hbar @ out_W
        logits += out_b
        logits -= logits.max(axis=1, keepdims=True)
        logprobs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        if step == 0:
            logprobs[:, EOS_ID] = -np.inf
        order = (-logprobs).argsort(axis=1, kind="stable")[:, :beam_width]
        top_ids = order.tolist()
        top_lps = logprobs[row_column, order].tolist()
        # (negated score, token id, parent's place in the beam, parent,
        # row): unique by the first three, so ties fall to beam order;
        # finished hypotheses carry token -1
        candidates = []
        r = 0
        for i, hyp in enumerate(hyps):
            if hyp[4]:
                candidates.append((hyp[0], -1, i, hyp, -1))
                continue
            neg = hyp[0]
            for tok_id, lp in zip(top_ids[r], top_lps[r]):
                candidates.append((neg - lp, tok_id, i, hyp, r))
            r += 1
        candidates.sort()
        hyps = [
            parent if tok_id < 0 else
            (neg, parent[1] + [tok_id], (attn, row, parent[2]), row, tok_id == EOS_ID)
            for neg, tok_id, _, parent, row in candidates[:beam_width]
        ]

    def normalized(hyp):  # the BOS seed does not count towards the length
        return -hyp[0] / max(len(hyp[1]) - 1, 1)

    best = max(hyps, key=lambda hyp: (normalized(hyp), hyp[1]))
    out_ids, pointer = best[1][1:], best[2]
    if out_ids and out_ids[-1] == EOS_ID:
        out_ids = out_ids[:-1]
        pointer = pointer[2]
    attn_rows = []
    while pointer is not None:
        step_attn, row, pointer = pointer
        attn_rows.append(step_attn[row])
    attn_rows.reverse()
    attention = np.vstack(attn_rows) if attn_rows else np.zeros((0, len(tokens)))
    return model.tgt_vocab.decode(out_ids), attention, normalized(best)


def replace_unk(
    output_tokens,
    attention: np.ndarray,
    source_tokens,
    lexicon: Lexicon | None = None,
) -> tuple[str, ...]:
    """Replace each unk by the lexicon translation of its highest-attention
    source token, falling back to copying the source token itself.
    ``attention`` is ``translate``'s (steps x source) array for the output.

    Attention argmax ties resolve to the lowest source index.  A lexicon
    entry may be multi-token; its tokens splice in place of the unk.
    """
    output_tokens = tuple(output_tokens)
    source_tokens = tuple(source_tokens)
    if attention.shape[0] != len(output_tokens):
        raise ValueError(
            f"attention has {attention.shape[0]} rows for "
            f"{len(output_tokens)} output tokens"
        )
    out: list[str] = []
    for j, tok in enumerate(output_tokens):
        if tok != UNK:
            out.append(tok)
            continue
        src_pos = int(np.argmax(attention[j]))
        src_tok = source_tokens[src_pos]
        replacement = None
        if lexicon is not None:
            candidate = lexicon.best_candidate((src_tok,))
            if candidate is not None:
                replacement = candidate.tokens
        out.extend(replacement if replacement is not None else (src_tok,))
    return tuple(out)
