"""Byte-pair-encoding subword segmentation: learning, applying, reversing.

Every non-final piece of a word carries the continuation marker ``@@``
(:data:`MARKER`), the convention of Sennrich et al. (2016) and subword-nmt;
the marker is fixed, so a model is its merge list alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import EmptyCorpusError

END_OF_WORD = "</w>"
MARKER = "@@"


@dataclass
class BpeModel:
    """Ordered merge list; rank 0 is the first (most frequent) merge."""

    merges: list[tuple[str, str]]
    _cache: dict[str, tuple[str, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )


def _pair_counts(vocab: dict[tuple[str, ...], int]) -> Counter:
    counts: Counter = Counter()
    for symbols, freq in vocab.items():
        for left, right in zip(symbols, symbols[1:]):
            if right != END_OF_WORD:  # the boundary itself is not mergeable
                counts[(left, right)] += freq
    return counts


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    left, right = pair
    merged = left + right
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i < len(symbols) - 1 and symbols[i] == left and symbols[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def learn_bpe(freqs: Mapping[str, int], num_merges: int) -> BpeModel:
    """Learn merges from a word-frequency map.

    Each word is a character sequence plus an end-of-word symbol; every merge
    is the currently most frequent adjacent pair, ties broken by lexicographic
    order of (left, right), which makes learning fully deterministic.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    if not freqs:
        raise EmptyCorpusError("cannot learn BPE from an empty vocabulary")

    vocab = {tuple(word) + (END_OF_WORD,): f for word, f in freqs.items()}
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        counts = _pair_counts(vocab)
        if not counts:
            break
        best_count = max(counts.values())
        best = min(p for p, c in counts.items() if c == best_count)
        merges.append(best)
        vocab = {_merge_word(sym, best): f for sym, f in vocab.items()}
    return BpeModel(merges)


def _segment_word(model: BpeModel, word: str) -> tuple[str, ...]:
    cached = model._cache.get(word)
    if cached is not None:
        return cached
    symbols = tuple(word) + (END_OF_WORD,)
    # Replay merges in rank order until a full pass changes nothing.
    changed = True
    while changed and len(symbols) > 1:
        changed = False
        for pair in model.merges:
            if len(symbols) < 2:
                break
            merged = _merge_word(symbols, pair)
            if merged != symbols:
                symbols = merged
                changed = True
    pieces = list(symbols)
    if pieces[-1] == END_OF_WORD:
        pieces.pop()
    elif pieces[-1].endswith(END_OF_WORD):
        pieces[-1] = pieces[-1][: -len(END_OF_WORD)]
    out = tuple(
        piece + MARKER if i < len(pieces) - 1 else piece
        for i, piece in enumerate(pieces)
    )
    model._cache[word] = out
    return out


def apply_bpe(model: BpeModel, tokens: Sequence[str]) -> tuple[str, ...]:
    """Segment each token into subwords; non-final pieces carry the marker.

    Characters unseen at learning time simply stay single-character pieces.
    """
    out: list[str] = []
    for tok in tokens:
        out.extend(_segment_word(model, tok))
    return tuple(out)


def decode_bpe(subwords: Sequence[str]) -> tuple[str, ...]:
    """Invert :func:`apply_bpe` by joining marker-suffixed pieces.

    Trailing continuation pieces join into a final word without their
    markers, as subword-nmt's ``s/@@ ?$//`` does; a piece that is only the
    marker adds nothing.
    """
    out: list[str] = []
    pending = ""
    for sub in subwords:
        if sub.endswith(MARKER):
            pending += sub[: -len(MARKER)]
        else:
            out.append(pending + sub)
            pending = ""
    if pending:
        out.append(pending)
    return tuple(out)
