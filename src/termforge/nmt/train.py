"""Training loop and fine-tuning adaptation."""

from __future__ import annotations

import logging
import math

import numpy as np

from ..bpe import BpeModel, apply_bpe
from ..corpus import ParallelCorpus
from ..errors import EmptyCorpusError, TrainingDivergedError
from .model import (
    BOS_ID,
    EOS_ID,
    Seq2SeqModel,
    TrainConfig,
    Vocab,
    build_vocab,
    init_params,
)
from .network import loss_and_grads

log = logging.getLogger("termforge.nmt")


def _segment_pairs(pairs, src_bpe, tgt_bpe):
    """Subword pairs when the merges are given (both or neither are)."""
    if tgt_bpe is None:
        return list(pairs)
    return [(apply_bpe(src_bpe, s), apply_bpe(tgt_bpe, t)) for s, t in pairs]


def _encode_pairs(pairs, src_vocab: Vocab, tgt_vocab: Vocab):
    encoded = []
    for src, tgt in pairs:
        if not src or not tgt:
            continue
        encoded.append(
            (
                np.array(src_vocab.encode(src), dtype=np.int64),
                np.array([BOS_ID] + tgt_vocab.encode(tgt) + [EOS_ID], dtype=np.int64),
            )
        )
    return encoded


def _make_batches(encoded, batch_size):
    """Bucket by source length so encoder batches need no padding; targets
    pad to the longest in the batch."""
    buckets: dict[int, list] = {}
    for src, tgt in encoded:
        buckets.setdefault(len(src), []).append((src, tgt))
    batches = []
    for length in sorted(buckets):
        items = buckets[length]
        for i in range(0, len(items), batch_size):
            chunk = items[i:i + batch_size]
            src_ids = np.stack([s for s, _ in chunk])
            max_t = max(len(t) for _, t in chunk)
            tgt_ids = np.zeros((len(chunk), max_t), dtype=np.int64)
            for row, (_, t) in enumerate(chunk):
                tgt_ids[row, : len(t)] = t
            batches.append((src_ids, tgt_ids))
    return batches


def _clip(grads, max_norm):
    if max_norm <= 0:
        return 1.0
    total = 0.0  # left to right, as sum() adds before Python 3.12
    for g in grads.values():
        total += float((g * g).sum())
    total = math.sqrt(total)
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
        return scale
    return 1.0


def _run_epochs(model, encoded, config, rng):
    """SGD with dynamic learning-rate decay on epoch perplexity."""
    batches = _make_batches(encoded, config.batch_size)
    lr = config.learning_rate
    best_ppl = math.inf
    model.train_history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(batches))
        nll = 0.0
        tokens = 0.0
        for b in order:
            src_ids, tgt_ids = batches[b]
            loss, grads, count = loss_and_grads(
                model, src_ids, tgt_ids, train_rng=rng
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch + 1}, "
                    f"lr={lr}, batch of {src_ids.shape[0]}"
                )
            _clip(grads, config.clip_norm)
            for name, grad in grads.items():
                model.params[name] -= lr * grad
            nll += loss * count
            tokens += count
        ppl = math.exp(min(nll / tokens, 50.0))
        model.train_history.append(ppl)
        log.info("epoch %d: ppl %.3f lr %.4f", epoch + 1, ppl, lr)
        if ppl >= best_ppl:
            lr *= config.decay_factor
        best_ppl = min(best_ppl, ppl)
    return model


def train(
    corpus: ParallelCorpus,
    config: TrainConfig,
    src_bpe: BpeModel | None = None,
    tgt_bpe: BpeModel | None = None,
) -> Seq2SeqModel:
    """Train an encoder-decoder from scratch; deterministic given the seed.

    With merge models for both sides the model is subword-level: the
    corpus is segmented with them before vocabulary building, and they are
    stored on the model so translation segments its input the same way.
    Without them it is word-level; giving only one raises ValueError.
    """
    config.validate()
    if not corpus.pairs:
        raise EmptyCorpusError("cannot train on an empty corpus")
    if (src_bpe is None) != (tgt_bpe is None):
        raise ValueError("subword training needs both src_bpe and tgt_bpe")

    pairs = _segment_pairs(corpus.pairs, src_bpe, tgt_bpe)
    src_vocab = build_vocab((s for s, _ in pairs), config.source_vocab_cap)
    tgt_vocab = build_vocab((t for _, t in pairs), config.target_vocab_cap)
    rng = np.random.default_rng(config.seed)
    model = Seq2SeqModel(
        config=config,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        params=init_params(config, len(src_vocab), len(tgt_vocab), rng),
        src_bpe=src_bpe,
        tgt_bpe=tgt_bpe,
    )
    encoded = _encode_pairs(pairs, src_vocab, tgt_vocab)
    if not encoded:
        raise EmptyCorpusError("no usable sentence pairs after preprocessing")
    return _run_epochs(model, encoded, config, rng)


def fine_tune(
    model: Seq2SeqModel,
    dev_terms: ParallelCorpus,
    config: TrainConfig,
) -> Seq2SeqModel:
    """Continue training all weights on the terminology set only.

    The adapted model keeps the architecture and the dropout of ``model``,
    and its vocabulary (and any subword model) stays frozen; ``config``
    supplies only the schedule: epochs, batch size, learning rate, decay
    factor, clipping norm and seed.  With zero epochs the returned model
    is an identical copy.
    """
    if not dev_terms.pairs:
        raise EmptyCorpusError("cannot adapt on an empty development set")
    config.validate()
    adapted = model.copy()
    pairs = _segment_pairs(dev_terms.pairs, model.src_bpe, model.tgt_bpe)
    encoded = _encode_pairs(pairs, model.src_vocab, model.tgt_vocab)
    if not encoded:
        raise EmptyCorpusError("no usable pairs in the development set")
    rng = np.random.default_rng(config.seed)
    _run_epochs(adapted, encoded, config, rng)
    return adapted

