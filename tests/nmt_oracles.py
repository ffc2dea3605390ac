"""Test-only NMT oracles: the finite-difference gradient check and the
dropout-free loss over a corpus."""

import numpy as np

from termforge.corpus import ParallelCorpus
from termforge.errors import EmptyCorpusError
from termforge.nmt import Seq2SeqModel
from termforge.nmt.network import loss_and_grads
from termforge.nmt.train import _encode_pairs, _make_batches, _segment_pairs


def dataset_loss(model: Seq2SeqModel, corpus: ParallelCorpus) -> float:
    """Mean per-token cross-entropy without dropout (evaluation mode).

    A corpus without a pair whose source and target are both non-empty
    raises :class:`EmptyCorpusError`.
    """
    pairs = _segment_pairs(corpus.pairs, model.src_bpe, model.tgt_bpe)
    encoded = _encode_pairs(pairs, model.src_vocab, model.tgt_vocab)
    if not encoded:
        raise EmptyCorpusError("no usable sentence pairs to score")
    total = 0.0
    tokens = 0.0
    for src_ids, tgt_ids in _make_batches(encoded, model.config.batch_size):
        loss, _, count = loss_and_grads(model, src_ids, tgt_ids, with_grads=False)
        total += loss * count
        tokens += count
    return total / tokens


def gradient_check(
    model: Seq2SeqModel,
    batch: tuple[np.ndarray, np.ndarray],
    epsilon: float = 1e-4,
) -> float:
    """Compare analytic gradients to central finite differences.

    Checks every element of every parameter tensor; returns the maximum
    relative error |analytic - numeric| / max(|analytic| + |numeric|, 1e-6).
    Intended for tiny dimensions only.
    """
    src_ids, tgt_ids = batch
    _, grads, _ = loss_and_grads(model, src_ids, tgt_ids)
    worst = 0.0
    for name, param in model.params.items():
        grad = grads[name]
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.shape[0]):
            original = flat[idx]
            flat[idx] = original + epsilon
            up, _, _ = loss_and_grads(model, src_ids, tgt_ids, with_grads=False)
            flat[idx] = original - epsilon
            down, _, _ = loss_and_grads(model, src_ids, tgt_ids, with_grads=False)
            flat[idx] = original
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(gflat[idx]) + abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[idx] - numeric) / denom)
    return worst
