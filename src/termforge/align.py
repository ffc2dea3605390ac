"""IBM Model 1 word alignment and phrase table extraction.

EM runs over integer-encoded sentence pairs on a dense table; the E-step
is one flat array pass over the corpus in :mod:`termforge._kernels`.  A
null source token (index 0) absorbs target words with no lexical
counterpart.  Viterbi links come from one table gather per sentence pair
and an argmax per direction.  Grow-diag symmetrization keeps the covered
source and target words in sets; phrase extraction grows each source span
one word at a time over per-word link bounds, and a phrase's lexical
weights are products of per-word factors taken once per sentence pair.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._kernels import flatten_encoded, ibm1_estep
from .corpus import ParallelCorpus, Tokens
from .errors import EmptyCorpusError, ModelFormatError

NULL_TOKEN = "<null>"

PROB_FLOOR = 1e-9


@dataclass
class TranslationTable:
    """Lexical translation probabilities t(target | source).

    ``table[s, t]`` is row-normalized per source word; ``inverse[s, t]`` is
    the column-normalized counterpart derived from the final expected counts
    and stands in for a reverse-direction training run.
    """

    src_vocab: list[str]  # index 0 is the null token
    tgt_vocab: list[str]
    table: np.ndarray
    inverse: np.ndarray
    log_likelihood_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        self._src_index = {w: i for i, w in enumerate(self.src_vocab)}
        self._tgt_index = {w: i for i, w in enumerate(self.tgt_vocab)}

    def prob(self, target_word: str, source_word: str) -> float:
        """t(target_word | source_word); 0.0 for unseen words."""
        si = self._src_index.get(source_word)
        ti = self._tgt_index.get(target_word)
        if si is None or ti is None:
            return 0.0
        return float(self.table[si, ti])

    def inv_prob(self, source_word: str, target_word: str) -> float:
        si = self._src_index.get(source_word)
        ti = self._tgt_index.get(target_word)
        if si is None or ti is None:
            return 0.0
        return float(self.inverse[si, ti])

    def encode(self, pair: tuple[Sequence[str], Sequence[str]]):
        src = [0] + [self._src_index[w] for w in pair[0] if w in self._src_index]
        tgt = [self._tgt_index[w] for w in pair[1] if w in self._tgt_index]
        return src, tgt


def ibm1_em(corpus: ParallelCorpus, iterations: int) -> TranslationTable:
    """Train IBM Model 1 by EM from a uniform start.

    The per-iteration data log-likelihood (computed with the parameters
    current at the start of the iteration) is recorded on the returned
    table; EM guarantees it never decreases.
    """
    if not corpus.pairs:
        raise EmptyCorpusError("cannot run EM on an empty corpus")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    src_vocab = [NULL_TOKEN] + sorted(corpus.vocab("source"))
    tgt_vocab = sorted(corpus.vocab("target"))
    src_index = {w: i for i, w in enumerate(src_vocab)}
    tgt_index = {w: i for i, w in enumerate(tgt_vocab)}

    src_sents = [[0] + [src_index[w] for w in s] for s, _ in corpus.pairs]
    tgt_sents = [[tgt_index[w] for w in t] for _, t in corpus.pairs]
    keep = [i for i, t in enumerate(tgt_sents) if t]
    src_flat, src_off = flatten_encoded([src_sents[i] for i in keep])
    tgt_flat, tgt_off = flatten_encoded([tgt_sents[i] for i in keep])

    n_src, n_tgt = len(src_vocab), len(tgt_vocab)
    table = np.full((n_src, n_tgt), 1.0 / n_tgt)
    history: list[float] = []
    counts = np.zeros_like(table)
    for _ in range(iterations):
        counts[:] = 0.0
        loglik = ibm1_estep(src_flat, src_off, tgt_flat, tgt_off, table, counts)
        history.append(float(loglik))
        row_sums = counts.sum(axis=1, keepdims=True)
        np.divide(counts, row_sums, out=table, where=row_sums > 0)

    inverse = counts  # the last expected counts, column-normalized in place
    col_sums = inverse.sum(axis=0, keepdims=True)
    np.divide(inverse, col_sums, out=inverse, where=col_sums > 0)

    return TranslationTable(
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        table=table,
        inverse=inverse,
        log_likelihood_history=history,
    )


def _directional_links(table: TranslationTable, pair) -> tuple[set, set]:
    """Argmax links in both directions from the single trained table.

    One gather takes t(t|s) for every position pair.  The first maximum
    wins in each direction; a target position links only when its best
    source beats the null token (ties go to null), and a source position
    only when its best target has p > 0.  Unknown source words read the
    null row; unknown target words take no link.
    """
    src, tgt = pair
    src_ids = [table._src_index.get(w, 0) for w in src]
    cols = [j for j, w in enumerate(tgt) if w in table._tgt_index]
    if not src_ids or not cols:
        return set(), set()
    tgt_ids = [table._tgt_index[tgt[j]] for j in cols]
    probs = table.table[np.ix_(src_ids, tgt_ids)]
    best_src = probs.argmax(axis=0).tolist()
    beats_null = probs.max(axis=0) > table.table[0, tgt_ids]
    forward = {(best_src[k], cols[k]) for k in np.flatnonzero(beats_null).tolist()}
    best_tgt = probs.argmax(axis=1).tolist()
    positive = probs.max(axis=1) > 0.0
    reverse = {(i, cols[best_tgt[i]]) for i in np.flatnonzero(positive).tolist()}
    return forward, reverse


_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def _grow_diag(forward, reverse):
    """Koehn-style grow-diag-final symmetrization.

    Each pass visits the links in row-major order, links added ahead of
    the visit included, and adopts a neighbouring union link when its
    source or target word is still uncovered.  The links still to visit
    in a pass wait in a heap, in that order.
    """
    links = set(forward & reverse)
    pending = (forward | reverse) - links
    src_used = {i for i, _ in links}
    tgt_used = {j for _, j in links}
    grew = True
    while grew and pending:
        grew = False
        queue = sorted(links)
        while queue:
            here = heapq.heappop(queue)
            for di, dj in _NEIGHBORS:
                cand = (here[0] + di, here[1] + dj)
                if cand not in pending:
                    continue
                if cand[0] not in src_used or cand[1] not in tgt_used:
                    links.add(cand)
                    pending.discard(cand)
                    src_used.add(cand[0])
                    tgt_used.add(cand[1])
                    grew = True
                    if cand > here:
                        heapq.heappush(queue, cand)
    # final step: adopt remaining union links touching an uncovered word
    for cand in sorted(pending):
        if cand[0] not in src_used or cand[1] not in tgt_used:
            links.add(cand)
            src_used.add(cand[0])
            tgt_used.add(cand[1])
    return links


def viterbi_align(
    table: TranslationTable,
    pair: tuple[Sequence[str], Sequence[str]],
    symmetrization: str = "grow-diag",
) -> set[tuple[int, int]]:
    """Alignment links (source_pos, target_pos) for one sentence pair.

    Each target position links to its argmax source (the null token yields
    no link); the reverse direction comes from the same table, and the two
    are combined per ``symmetrization``: intersection | union | grow-diag.
    """
    forward, reverse = _directional_links(table, pair)
    if symmetrization == "intersection":
        return forward & reverse
    if symmetrization == "union":
        return forward | reverse
    if symmetrization == "grow-diag":
        return _grow_diag(forward, reverse)
    raise ValueError(f"unknown symmetrization {symmetrization!r}")


@dataclass
class PhraseOption:
    target: Tokens
    features: tuple[float, float, float, float]  # phi_fwd, phi_rev, lex_fwd, lex_rev


@dataclass
class PhraseTable:
    entries: dict[Tokens, list[PhraseOption]]
    max_phrase_len: int = 7

    def options(self, source_phrase: Tokens) -> list[PhraseOption]:
        return self.entries.get(tuple(source_phrase), [])

    def __len__(self) -> int:
        return len(self.entries)


def _consistent_phrases(src_len, tgt_len, links, max_len):
    """All alignment-consistent (src_span, tgt_span) boxes up to max_len.

    For each start ``i1`` the source span grows one word at a time; the
    target box spans the min/max linked target of its source words, and
    it is consistent when every target word inside links only to sources
    inside the span.  Unaligned target words at the box edges extend it.
    """
    src_lo, src_hi = [tgt_len] * src_len, [-1] * src_len
    tgt_lo, tgt_hi = [src_len] * tgt_len, [-1] * tgt_len
    for i, j in links:
        src_lo[i], src_hi[i] = min(src_lo[i], j), max(src_hi[i], j)
        tgt_lo[j], tgt_hi[j] = min(tgt_lo[j], i), max(tgt_hi[j], i)
    out = []
    for i1 in range(src_len):
        j_min, j_max = tgt_len, 0  # target box [j_min, j_max)
        for i2 in range(i1 + 1, min(i1 + max_len, src_len) + 1):
            if src_hi[i2 - 1] >= 0:
                j_min = min(j_min, src_lo[i2 - 1])
                j_max = max(j_max, src_hi[i2 - 1] + 1)
            if j_max == 0:
                continue  # no links yet
            if j_max - j_min > max_len:
                break  # the box only widens as the span grows
            if min(tgt_lo[j_min:j_max]) < i1 or max(tgt_hi[j_min:j_max]) >= i2:
                continue
            # extend over unaligned target boundary words
            lo = j_min
            while j_max - lo <= max_len:
                hi = j_max
                while hi - lo <= max_len:
                    out.append(((i1, i2), (lo, hi)))
                    hi += 1
                    if hi > tgt_len or tgt_hi[hi - 1] >= 0:
                        break
                lo -= 1
                if lo < 0 or tgt_hi[lo] >= 0:
                    break
    return out


def _word_factors(src, tgt, links, table):
    """Per-word factors of Koehn lexical weighting for one sentence pair.

    A consistent phrase box holds every link of its words, so a word's
    factor is the same in each box of the sentence, and a box's lexical
    weights are the products of its words' factors.  A target word's
    forward factor is the mean t(t|s) over its links, or t(t|null) when it
    has none.  A source word's reverse factor is the mean inverse
    probability over its links, or 1.0: the inverse direction has no null
    target (Model 1 places null on the source side only).  Each mean sums
    in the iteration order of ``links``.
    """
    by_tgt = [[] for _ in tgt]
    by_src = [[] for _ in src]
    for i, j in links:
        by_tgt[j].append(table.prob(tgt[j], src[i]))
        by_src[i].append(table.inv_prob(src[i], tgt[j]))
    fwd = [
        sum(ps) / len(ps) if ps else table.prob(t, NULL_TOKEN)
        for ps, t in zip(by_tgt, tgt)
    ]
    rev = [sum(ps) / len(ps) if ps else 1.0 for ps in by_src]
    return fwd, rev


def extract_phrases(
    corpus: ParallelCorpus,
    alignments: Sequence[set[tuple[int, int]]],
    max_phrase_len: int = 7,
    table: TranslationTable | None = None,
) -> PhraseTable:
    """Extract all alignment-consistent phrase pairs and score them.

    Forward/backward phrase probabilities come from relative frequencies of
    extracted instances; lexical weights use the word table when given,
    otherwise 1.0, and keep the maximum over a pair's instances.  All
    features are floored at ``PROB_FLOOR``.
    """
    if len(alignments) != len(corpus.pairs):
        raise ValueError("alignments must cover the corpus pair-for-pair")
    pair_counts: dict[tuple[Tokens, Tokens], int] = defaultdict(int)
    src_counts: dict[Tokens, int] = defaultdict(int)
    tgt_counts: dict[Tokens, int] = defaultdict(int)
    lex_fwd: dict[tuple[Tokens, Tokens], float] = {}
    lex_rev: dict[tuple[Tokens, Tokens], float] = {}

    for (src, tgt), links in zip(corpus.pairs, alignments):
        boxes = _consistent_phrases(len(src), len(tgt), links, max_phrase_len)
        if table is not None:
            fwd_factors, rev_factors = _word_factors(src, tgt, links, table)
        for (i1, i2), (j1, j2) in boxes:
            s_phrase = tuple(src[i1:i2])
            t_phrase = tuple(tgt[j1:j2])
            key = (s_phrase, t_phrase)
            pair_counts[key] += 1
            src_counts[s_phrase] += 1
            tgt_counts[t_phrase] += 1
            if table is not None:
                fwd = math.prod(fwd_factors[j1:j2])
                rev = math.prod(rev_factors[i1:i2])
                lex_fwd[key] = max(lex_fwd.get(key, 0.0), fwd)
                lex_rev[key] = max(lex_rev.get(key, 0.0), rev)

    entries: dict[Tokens, list[PhraseOption]] = defaultdict(list)
    for (s_phrase, t_phrase), count in sorted(pair_counts.items()):
        key = (s_phrase, t_phrase)
        phi_fwd = count / src_counts[s_phrase]
        phi_rev = count / tgt_counts[t_phrase]
        features = (
            max(phi_fwd, PROB_FLOOR),
            max(phi_rev, PROB_FLOOR),
            max(lex_fwd.get(key, 1.0), PROB_FLOOR),
            max(lex_rev.get(key, 1.0), PROB_FLOOR),
        )
        entries[s_phrase].append(PhraseOption(t_phrase, features))
    for options in entries.values():
        options.sort(key=lambda o: (-o.features[0], o.target))
    return PhraseTable(dict(entries), max_phrase_len=max_phrase_len)


def save_phrase_table(ptable: PhraseTable, path) -> None:
    """Moses-style lines: ``source ||| target ||| f1 f2 f3 f4``."""
    with open(path, "w", encoding="utf-8") as f:
        for src in sorted(ptable.entries):
            for opt in ptable.entries[src]:
                feats = " ".join(repr(float(v)) for v in opt.features)
                f.write(f"{' '.join(src)} ||| {' '.join(opt.target)} ||| {feats}\n")


def load_phrase_table(path, max_phrase_len: int = 7) -> PhraseTable:
    entries: dict[Tokens, list[PhraseOption]] = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ||| ")
            if len(parts) != 3:
                raise ModelFormatError(f"line {lineno}: expected 3 '|||' fields")
            src = tuple(parts[0].split())
            tgt = tuple(parts[1].split())
            feats = tuple(float(x) for x in parts[2].split())
            if len(feats) != 4:
                raise ModelFormatError(f"line {lineno}: expected 4 features")
            entries[src].append(PhraseOption(tgt, feats))
    return PhraseTable(dict(entries), max_phrase_len=max_phrase_len)
