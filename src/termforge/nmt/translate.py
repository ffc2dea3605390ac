"""Beam-search translation, attention traces, and unknown-word replacement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bpe import apply_bpe
from ..corpus import Lexicon
from .model import BOS_ID, EOS_ID, UNK, Seq2SeqModel
from .network import decoder_step, encode


@dataclass
class AttentionTrace:
    """Attention weights: one row per emitted target token, one column per
    source position (model space, i.e. subwords for BPE models)."""

    weights: np.ndarray

    @property
    def steps(self) -> int:
        return self.weights.shape[0]


@dataclass
class _Beam:
    """One hypothesis: its tokens and score, and the row of its decoder
    state in the arrays of the step that produced it."""

    tokens: list[int]
    logprob: float
    attn_rows: list[np.ndarray]
    row: int = 0
    finished: bool = False

    def norm_score(self) -> float:
        length = max(len(self.tokens) - 1, 1)  # exclude the BOS seed
        return self.logprob / length


def translate(
    model: Seq2SeqModel,
    tokens,
    beam_width: int = 5,
) -> tuple[tuple[str, ...], AttentionTrace, float]:
    """Length-normalized beam search until end-of-sentence, for at most
    ``2 * len(tokens) + 5`` target positions.

    Input tokens are segmented per the model (BPE models receive subwords
    internally); the returned tokens are in model space, so BPE outputs
    still carry continuation markers.  Predicted unknowns surface as the
    unk symbol for downstream replacement.  The end-of-sentence token is
    blocked at the first position, so a translation is never empty.

    Each target position is one batched step: the K unfinished hypotheses
    gather their layer states, attentional vectors and last tokens into
    (K, n) arrays by row, take one ``decoder_step`` against the encoder
    states repeated K times, and score all expansions with one (K, V)
    output product and a row-wise log-softmax.  Each row's ``beam_width``
    best tokens become candidates, ordered by (-score, token id) in beam
    order with finished hypotheses carried over unchanged, so the search
    is the same as stepping every hypothesis on its own.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if model.src_bpe is not None:
        tokens = apply_bpe(model.src_bpe, tuple(tokens))
    tokens = tuple(tokens)
    if not tokens:
        return (), AttentionTrace(np.zeros((0, 0))), 0.0

    params = model.params
    src_ids = np.array([model.src_vocab.encode(tokens)], dtype=np.int64)
    enc_top, enc_finals, _ = encode(model, src_ids)
    enc_by_k = {1: enc_top}
    h_layers = [h for h, _ in enc_finals]
    c_layers = [c for _, c in enc_finals]
    hbar = np.zeros((1, model.config.hidden))
    beams = [_Beam(tokens=[BOS_ID], logprob=0.0, attn_rows=[])]
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
        # (score, token id, parent, row); finished hypotheses carry token -1
        candidates: list[tuple[float, int, _Beam, int]] = []
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
            parent if tok_id < 0 else _Beam(
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
    trace = AttentionTrace(
        np.vstack(attn_rows) if attn_rows else np.zeros((0, len(tokens)))
    )
    return model.tgt_vocab.decode(out_ids), trace, best.norm_score()


def replace_unk(
    output_tokens,
    trace: AttentionTrace,
    source_tokens,
    lexicon: Lexicon | None = None,
) -> tuple[str, ...]:
    """Replace each unk by the lexicon translation of its highest-attention
    source token, falling back to copying the source token itself.

    Attention argmax ties resolve to the lowest source index.  A lexicon
    entry may be multi-token; its tokens splice in place of the unk.
    """
    output_tokens = tuple(output_tokens)
    source_tokens = tuple(source_tokens)
    if trace.weights.shape[0] != len(output_tokens):
        raise ValueError(
            f"trace has {trace.weights.shape[0]} rows for "
            f"{len(output_tokens)} output tokens"
        )
    out: list[str] = []
    for j, tok in enumerate(output_tokens):
        if tok != UNK:
            out.append(tok)
            continue
        src_pos = int(np.argmax(trace.weights[j]))
        src_tok = source_tokens[src_pos]
        replacement = None
        if lexicon is not None:
            candidate = lexicon.best_candidate((src_tok,))
            if candidate is not None:
                replacement = candidate.tokens
        out.extend(replacement if replacement is not None else (src_tok,))
    return tuple(out)
