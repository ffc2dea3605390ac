"""IBM Model 1 word alignment and phrase table extraction.

EM runs over integer-encoded sentence pairs on a dense table; the E-step
is one flat array pass over the corpus in :mod:`termforge._kernels`.  A
null source token (index 0) absorbs target words with no lexical
counterpart.  Viterbi links come from one table gather per sentence pair
into a block led by the null row and a zero column, so that one argmax
per direction, taking the first maximum, also applies both tie rules;
grow-diag-final symmetrization, the only one, combines the two
directions, keeps the covered source and target words in sets and probes
only the links next to a union link it could still adopt.  Phrase
extraction takes the whole corpus as arrays: per-word lexical factors
from one gather and one ``bincount`` over all links, consistent boxes from
one pass per source length over all source positions, and instances
grouped by rows of word ranks, whose order is the phrases' tuple order.
It formats each distinct pair's line once and returns the table indexed
by source phrase, as a load does.  A phrase table's length limit is its
longest source phrase.  A loaded phrase table checks every line at load
and builds a source phrase's options on the phrase's first lookup.
"""

from __future__ import annotations

import heapq
import math
import re
import sys
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from ._kernels import estep_index, flatten_encoded, ibm1_estep
from .corpus import ParallelCorpus, Tokens, finite_float
from .errors import EmptyCorpusError, ModelFormatError
from .files import atomic_open, read_lines

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


def ibm1_em(corpus: ParallelCorpus, iterations: int) -> TranslationTable:
    """Train IBM Model 1 by EM from a uniform start.

    The per-iteration data log-likelihood (computed with the parameters
    current at the start of the iteration) is recorded on the returned
    table; EM guarantees it never decreases.
    """
    if not any(tgt for _, tgt in corpus.pairs):
        raise EmptyCorpusError("cannot run EM on a corpus with no target words")
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
    # built after the table and counts, which outlive it, so that the
    # memory it frees on return can go back to the system, not stay under them
    index = estep_index(src_flat, src_off, tgt_flat, tgt_off, n_tgt)
    for _ in range(iterations):
        counts[:] = 0.0
        loglik = ibm1_estep(
            src_flat, src_off, tgt_flat, tgt_off, table, counts, index=index
        )
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

    One gather takes t(t|s) for every position pair into a block whose
    first row is the null token and whose first column is zeros.  The
    first maximum wins in each direction, so a target position links only
    when its best source beats the null token (ties go to null), and a
    source position only when its best target has p > 0.  Unknown source
    words read the null row; unknown target words take no link.
    """
    src, tgt = pair
    src_index, tgt_index = table._src_index, table._tgt_index
    rows = [0] + [src_index.get(w, 0) for w in src]
    cols = [j for j, w in enumerate(tgt) if w in tgt_index]
    if len(rows) == 1 or not cols:
        return set(), set()
    tgt_ids = [tgt_index[tgt[j]] for j in cols]
    probs = np.zeros((len(rows), len(cols) + 1))
    probs[:, 1:] = table.table[np.array(rows)[:, None], tgt_ids]
    best_src = probs[:, 1:].argmax(axis=0).tolist()
    forward = {(b - 1, j) for b, j in zip(best_src, cols) if b}
    best_tgt = probs[1:].argmax(axis=1).tolist()
    reverse = {(i, cols[b - 1]) for i, b in enumerate(best_tgt) if b}
    return forward, reverse


_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def _grow_diag(forward, reverse):
    """Koehn-style grow-diag-final symmetrization.

    Each pass visits the links in row-major order, links added ahead of
    the visit included, and adopts a neighbouring union link when its
    source or target word is still uncovered.  The links still to visit
    in a pass wait in a heap, in that order.  A pass visits only links
    next to a pending union link, and drops the pending links whose two
    words are covered: they can never be adopted.
    """
    links = set(forward & reverse)
    pending = (forward | reverse) - links
    src_used = {i for i, _ in links}
    tgt_used = {j for _, j in links}
    grew = True
    while grew:
        grew = False
        pending = {c for c in pending if c[0] not in src_used or c[1] not in tgt_used}
        frontier = {(i + di, j + dj) for i, j in pending for di, dj in _NEIGHBORS}
        queue = sorted(links & frontier)
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
                    if cand > here and cand in frontier:
                        heapq.heappush(queue, cand)
    # final step: adopt remaining union links touching an uncovered word
    for cand in sorted(pending):
        if cand[0] not in src_used or cand[1] not in tgt_used:
            links.add(cand)
            src_used.add(cand[0])
            tgt_used.add(cand[1])
    return links


def viterbi_align(
    table: TranslationTable, pair: tuple[Sequence[str], Sequence[str]]
) -> set[tuple[int, int]]:
    """Alignment links (source_pos, target_pos) for one sentence pair.

    Each target position links to its argmax source (the null token yields
    no link); the reverse direction comes from the same table, and
    :func:`_grow_diag` combines the two.
    """
    return _grow_diag(*_directional_links(table, pair))


@dataclass(slots=True)
class PhraseOption:
    target: Tokens
    features: tuple[float, float, float, float]  # phi_fwd, phi_rev, lex_fwd, lex_rev


class PhraseTable:
    """Scored options per source phrase; ``max_phrase_len`` is the length
    of the longest source phrase, so lookups stop there.

    ``entries`` maps each source phrase to its options, or, in a table
    that :func:`extract_phrases`, :func:`load_phrase_table` or
    :func:`save_phrase_table` returns, to its lines, not yet parsed: one
    string, the lines joined by ``\n``, so an unbuilt phrase holds no
    container.  :meth:`options` builds a phrase's options from its lines
    the first time the phrase is looked up and keeps them, and reading
    :attr:`entries` builds whatever is left.  So such a table fills its
    own cache as lookups arrive; callers treat it as read-only.
    """

    def __init__(self, entries: dict[Tokens, list[PhraseOption] | str]):
        self._entries = entries
        self._all_built = False
        self.max_phrase_len = max(map(len, entries), default=0)

    @property
    def entries(self) -> dict[Tokens, list[PhraseOption]]:
        if not self._all_built:  # a scan per read would make loops quadratic
            for src, opts in self._entries.items():
                if isinstance(opts, str):
                    self._entries[src] = _build_options(opts)
            self._all_built = True
        return self._entries

    def options(self, source_phrase: Tokens) -> list[PhraseOption]:
        source_phrase = tuple(source_phrase)
        opts = self._entries.get(source_phrase, [])
        if isinstance(opts, str):
            opts = self._entries[source_phrase] = _build_options(opts)
        return opts

    def __len__(self) -> int:
        return len(self._entries)


def _cat(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, np.int64)


def _phrase_boxes(src_off, tgt_off, link_src, link_tgt, max_len):
    """Every alignment-consistent phrase box of a corpus, up to ``max_len``
    words a side.

    Positions are corpus-wide: sentence pair ``k`` holds source positions
    ``src_off[k]`` to ``src_off[k + 1] - 1`` and target positions likewise,
    and link ``l`` joins ``link_src[l]`` to ``link_tgt[l]``.  One pass per
    source length grows the spans of all source starts by one word: a
    span's target box runs from the lowest to past the highest target its
    words link to, and it is consistent when the box's target columns hold
    as many links as the span's words.  A start leaves once its box is
    wider than ``max_len``, since the box only widens as the span grows.
    Each consistent box then extends over the runs of unaligned target
    words at its edges.

    Returns ``(span_start, span_len, box_span, box_start, box_len)``: the
    consistent source spans, and per box the index of its span and its
    target range.
    """
    n_src, n_tgt = int(src_off[-1]), int(tgt_off[-1])
    # per source word: lowest and past the highest linked target, links
    lo = np.full(n_src, n_tgt)
    np.minimum.at(lo, link_src, link_tgt)
    hi = np.zeros(n_src, np.int64)
    np.maximum.at(hi, link_src, link_tgt + 1)
    row_links = np.bincount(link_src, minlength=n_src)
    col_links = np.bincount(link_tgt, minlength=n_tgt)
    below = np.zeros(n_tgt + 1, np.int64)  # links in target columns < g
    np.cumsum(col_links, out=below[1:])
    sent_end = np.repeat(src_off[1:], np.diff(src_off))

    starts = np.arange(n_src)
    j_min = np.full(n_src, n_tgt)  # an unlinked span's box is empty
    j_max = np.zeros(n_src, np.int64)
    links = np.zeros(n_src, np.int64)
    span_start, span_len, span_lo, span_hi = [], [], [], []
    for length in range(1, max_len + 1):
        inside = starts + length <= sent_end[starts]
        starts, j_min, j_max, links = (
            a[inside] for a in (starts, j_min, j_max, links)
        )
        last = starts + length - 1
        j_min = np.minimum(j_min, lo[last])
        j_max = np.maximum(j_max, hi[last])
        links = links + row_links[last]
        narrow = j_max - j_min <= max_len
        ok = narrow & (links > 0)
        ok[ok] = below[j_max[ok]] - below[j_min[ok]] == links[ok]
        span_start.append(starts[ok])
        span_len.append(np.full(int(ok.sum()), length))
        span_lo.append(j_min[ok])
        span_hi.append(j_max[ok])
        starts, j_min, j_max, links = (
            a[narrow] for a in (starts, j_min, j_max, links)
        )
        if not len(starts):  # every span has left its sentence or max_len
            break
    span_start, span_len = _cat(span_start), _cat(span_len)
    j_min, j_max = _cat(span_lo), _cat(span_hi)

    # how far each box may extend: to the nearest linked target word or
    # sentence bound on either side
    pos = np.arange(n_tgt + 1)
    bound = np.zeros(n_tgt + 1, bool)
    bound[tgt_off] = True
    left, right = bound.copy(), bound
    left[1:] |= col_links > 0  # target g - 1 is linked
    right[:-1] |= col_links > 0  # target g is linked
    left_stop = np.maximum.accumulate(np.where(left, pos, 0))
    right_stop = np.minimum.accumulate(np.where(right, pos, n_tgt)[::-1])[::-1]
    grow_lo = j_min - left_stop[j_min]
    grow_hi = right_stop[j_max] - j_max
    width = j_max - j_min
    box_span, box_start, box_len = [], [], []
    for dl in range(max_len):
        reach = (grow_lo >= dl) & (width + dl <= max_len)
        if not reach.any():
            break
        for dh in range(max_len - dl):
            take = np.flatnonzero(reach & (grow_hi >= dh) & (width + dl + dh <= max_len))
            if not take.size:
                break
            box_span.append(take)
            box_start.append(j_min[take] - dl)
            box_len.append(width[take] + dl + dh)
    return span_start, span_len, _cat(box_span), _cat(box_start), _cat(box_len)


def _word_ids(words: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted vocabulary of ``words`` and each word's rank in it,
    counted from 1, so that ranks order words as strings order."""
    vocab = sorted(set(words))
    rank = {w: r for r, w in enumerate(vocab, start=1)}
    return vocab, np.fromiter(map(rank.__getitem__, words), np.int64, len(words))


def _phrase_keys(ids, starts, lengths, vocab_size) -> list[np.ndarray]:
    """Integer columns that order phrases as their word tuples order.

    Each column packs the ranks of a run of a phrase's positions, first
    word highest, with 0 past the phrase's end, so a phrase sorts before
    the phrases it is a prefix of."""
    longest = int(lengths.max())
    bits = vocab_size.bit_length()
    per_key = max(1, 63 // bits)
    padded = np.concatenate([ids, np.zeros(longest, np.int64)])
    keys = []
    for first in range(0, longest, per_key):
        key = np.zeros(len(starts), np.int64)
        for d in range(first, min(first + per_key, longest)):
            key <<= bits
            key |= np.where(lengths > d, padded[starts + d], 0)
        keys.append(key)
    return keys


def _changes(keys, order) -> np.ndarray:
    """Where the rows of ``keys`` taken in ``order`` differ from the row
    before; the first row counts as a change."""
    changed = np.zeros(len(order), bool)
    changed[:1] = True
    for key in keys:
        key = key[order]
        changed[1:] |= key[1:] != key[:-1]
    return changed


def _products(factors, starts, lengths) -> np.ndarray:
    """The product of ``factors[s:s + n]`` for each start and length,
    multiplied left to right as :func:`math.prod` does."""
    out = factors[starts]
    for d in range(1, int(lengths.max())):
        more = np.flatnonzero(lengths > d)
        out[more] *= factors[starts[more] + d]
    return out


def _corpus_links(pairs, alignments):
    """Sentence offsets of both sides and every link at corpus-wide
    positions, in each link set's iteration order; see
    :func:`_phrase_boxes`."""
    src_off = np.zeros(len(pairs) + 1, np.int64)
    np.cumsum([len(src) for src, _ in pairs], out=src_off[1:])
    tgt_off = np.zeros(len(pairs) + 1, np.int64)
    np.cumsum([len(tgt) for _, tgt in pairs], out=tgt_off[1:])
    flat: list[int] = []
    sizes: list[int] = []
    for links in alignments:
        flat.extend(chain.from_iterable(links))
        sizes.append(len(links))
    if len(sizes) != len(pairs):
        raise ValueError("alignments must cover the corpus pair-for-pair")
    links = np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
    del flat
    pair = np.repeat(np.arange(len(pairs)), sizes)
    link_src, link_tgt = links[:, 0], links[:, 1]
    if ((link_src < 0) | (link_src >= np.diff(src_off)[pair])
            | (link_tgt < 0) | (link_tgt >= np.diff(tgt_off)[pair])).any():
        raise ValueError("a link lies outside its sentence pair")
    return src_off, tgt_off, link_src + src_off[pair], link_tgt + tgt_off[pair]


def _lexical_factors(src_vocab, src_ids, tgt_vocab, tgt_ids, link_src, link_tgt, table):
    """Per-word factors of Koehn lexical weighting over the whole corpus.

    A consistent box holds every link of its words, so a box's lexical
    weights are products of its words' factors.  A target word's forward
    factor is the mean t(t|s) over its links, or t(t|null) when it has
    none; a source word's reverse factor is the mean inverse probability
    over its links, or 1.0 (Model 1 puts null on the source side only).
    One gather reads every link's probabilities and one ``bincount`` adds
    them, each mean left to right in link order.  A word the table does
    not know has probability 0.0, as in :meth:`TranslationTable.prob`.
    """
    s = np.array([-1] + [table._src_index.get(w, -1) for w in src_vocab])[src_ids]
    t = np.array([-1] + [table._tgt_index.get(w, -1) for w in tgt_vocab])[tgt_ids]
    s_link, t_link = s[link_src], t[link_tgt]
    known = (s_link >= 0) & (t_link >= 0)
    cells = (np.where(known, s_link, 0), np.where(known, t_link, 0))
    n_fwd = np.bincount(link_tgt, minlength=len(t))
    n_rev = np.bincount(link_src, minlength=len(s))
    null = table._src_index.get(NULL_TOKEN)
    unlinked = (
        np.where(t >= 0, table.table[null, np.maximum(t, 0)], 0.0)
        if null is not None else np.zeros(len(t))
    )
    fwd = np.where(
        n_fwd > 0,
        np.bincount(link_tgt, np.where(known, table.table[cells], 0.0), len(t))
        / np.maximum(n_fwd, 1),
        unlinked,
    )
    rev = np.where(
        n_rev > 0,
        np.bincount(link_src, np.where(known, table.inverse[cells], 0.0), len(s))
        / np.maximum(n_rev, 1),
        1.0,
    )
    return fwd, rev


def _scored_pairs(s_keys, t_keys, lex_fwd, lex_rev):
    """Group instances into phrase pairs and score each pair.

    ``s_keys`` and ``t_keys`` are the :func:`_phrase_keys` of each
    instance's source and target phrase, ``lex_fwd`` and ``lex_rev`` its
    lexical weights.  Returns, for each pair in file order (source phrases
    in sorted order, a phrase's pairs by falling forward probability, then
    target phrase): one instance, the index of its source phrase among the
    sorted source phrases, and its four floored features; and one instance
    per source phrase.  A pair's maximum lexical weight starts at 0.0 and
    takes no NaN, as a running ``>`` comparison does.
    """
    order = np.lexsort(t_keys[::-1] + s_keys[::-1])
    new_src = _changes(s_keys, order)
    first = np.flatnonzero(new_src | _changes(t_keys, order))  # of each pair
    src_group = np.cumsum(new_src) - 1
    pair_src = src_group[first]
    t_order = np.lexsort(t_keys[::-1])
    tgt_group = np.empty(len(order), np.int64)
    tgt_group[t_order] = np.cumsum(_changes(t_keys, t_order)) - 1
    count = np.diff(np.append(first, len(order)))
    features = [
        count / np.bincount(src_group)[pair_src],
        count / np.bincount(tgt_group)[tgt_group[order[first]]],
        np.fmax(np.fmax.reduceat(lex_fwd[order], first), 0.0),
        np.fmax(np.fmax.reduceat(lex_rev[order], first), 0.0),
    ]
    features = [np.maximum(f, PROB_FLOOR) for f in features]
    lines = np.lexsort((-features[0], pair_src))
    return (
        order[first[lines]], pair_src[lines], [f[lines] for f in features],
        order[np.flatnonzero(new_src)],
    )


def extract_phrases(
    corpus: ParallelCorpus,
    alignments: Iterable[set[tuple[int, int]]],
    table: TranslationTable,
    max_phrase_len: int = 7,
) -> PhraseTable:
    """Extract all alignment-consistent phrase pairs and score them.

    Forward/backward phrase probabilities come from relative frequencies of
    extracted instances; lexical weights come from the word table and keep
    the maximum over a pair's instances.  All features are floored at
    ``PROB_FLOOR``.

    ``alignments`` holds one link set per sentence pair and may be a
    generator: each set is read once, in its iteration order.  The whole
    corpus is then processed as arrays: the factors of
    :func:`_lexical_factors`, the boxes of :func:`_phrase_boxes`, and the
    instances grouped by their phrases as rows of word ranks in sorted
    vocabularies, so row order is tuple order (:func:`_scored_pairs`).

    Each distinct pair's line is formatted once, as
    :func:`save_phrase_table` writes it, and the returned table holds the
    lines unparsed, indexed by source phrase in sorted order, as a loaded
    table does.
    """
    pairs = corpus.pairs
    src_off, tgt_off, link_src, link_tgt = _corpus_links(pairs, alignments)
    span_start, span_len, box_span, box_start, box_len = _phrase_boxes(
        src_off, tgt_off, link_src, link_tgt, max_phrase_len
    )
    if not box_span.size:
        return PhraseTable({})
    src_words = list(chain.from_iterable(src for src, _ in pairs))
    tgt_words = list(chain.from_iterable(tgt for _, tgt in pairs))
    src_vocab, src_ids = _word_ids(src_words)
    tgt_vocab, tgt_ids = _word_ids(tgt_words)
    fwd, rev = _lexical_factors(
        src_vocab, src_ids, tgt_vocab, tgt_ids, link_src, link_tgt, table
    )
    del link_src, link_tgt
    rep, line_src, features, src_rep = _scored_pairs(
        [k[box_span] for k in _phrase_keys(src_ids, span_start, span_len, len(src_vocab))],
        _phrase_keys(tgt_ids, box_start, box_len, len(tgt_vocab)),
        _products(fwd, box_start, box_len),
        _products(rev, span_start, span_len)[box_span],
    )
    phrases = [
        tuple(src_words[i:i + n])
        for i, n in zip(
            span_start[box_span[src_rep]].tolist(),
            span_len[box_span[src_rep]].tolist(),
        )
    ]
    heads = [" ".join(phrase) + " ||| " for phrase in phrases]
    lines = (
        f"{heads[g]}{' '.join(tgt_words[j:j + n])} ||| {f1!r} {f2!r} {f3!r} {f4!r}"
        for g, j, n, f1, f2, f3, f4 in zip(
            line_src.tolist(), box_start[rep].tolist(), box_len[rep].tolist(),
            *(f.tolist() for f in features),
        )
    )
    return PhraseTable({
        phrase: "\n".join(islice(lines, n))
        for phrase, n in zip(phrases, np.bincount(line_src).tolist())
    })


# a feature that is not finite, as repr writes it; a phrase's word "inf"
# matches too, which only costs a load
_NOT_FINITE = re.compile(r" -?(?:inf|nan)(?= |$)", re.MULTILINE)


def save_phrase_table(ptable: PhraseTable, path) -> PhraseTable | None:
    """Write Moses-style lines, ``source ||| target ||| f1 f2 f3 f4``, and
    return the table :func:`load_phrase_table` reads back from the file,
    or None when the loader rejects the file.

    A source phrase whose lines the table holds as text (see
    :class:`PhraseTable`) is written as it is; a phrase with built options
    is formatted here.  The returned table holds the lines just written,
    indexed by source phrase in file order under ``ptable``'s own source
    tuples, so it builds each phrase's options on first lookup from the
    text a load would check.  An option whose features are not four
    numbers raises ValueError and writes nothing.  When the text might not
    read back as written (an empty word or phrase, a word holding
    whitespace or ``|||``, a feature that is not finite, or no line at
    all), the file is loaded instead."""
    entries = ptable._entries
    index: dict[Tokens, str] = {}
    n = 0  # lines
    for src in sorted(entries):
        opts = entries[src]
        if isinstance(opts, str):
            if opts:
                index[src] = opts
                n += opts.count("\n") + 1
            continue
        head = " ".join(src) + " ||| "
        lines = []
        for opt in opts:
            f1, f2, f3, f4 = opt.features
            feats = f"{float(f1)!r} {float(f2)!r} {float(f3)!r} {float(f4)!r}"
            lines.append(f"{head}{' '.join(opt.target)} ||| {feats}")
        if lines:
            index[src] = "\n".join(lines)
            n += len(lines)
    text = "\n".join(index.values())
    with atomic_open(path) as f:
        f.write(text)
        f.write("\n" if text else "")
    # each line is one line, its two separators are its only "|||", and no
    # word is empty or holds whitespace (all but " " and "\n" unprintable)
    if not (
        n and text.count("\n") == n - 1 and text.count("|||") == 2 * n
        and not (("inf" in text or "nan" in text) and _NOT_FINITE.search(text))
        and "  " not in text and "\n " not in text and text[0] != " "
        and text.replace("\n", "").isprintable()
    ):
        try:
            return load_phrase_table(path)
        except ModelFormatError:
            return None
    return PhraseTable(index)


def _parse_line(line: str) -> tuple[list[str], list[str], tuple[float, ...]]:
    """The source words, target words and features of one line that
    :func:`save_phrase_table` writes.  A malformed line raises a
    ValueError that says what is wrong."""
    parts = line.split(" ||| ")
    if len(parts) != 3:
        raise ValueError("expected 3 '|||' fields")
    src, tgt, fields = parts[0].split(), parts[1].split(), parts[2].split()
    if not src or not tgt:
        raise ValueError(f"empty {'target' if src else 'source'} phrase")
    try:  # the lean form of finite_float, which every line of a load pays
        feats = tuple(map(float, fields))
        if not all(map(math.isfinite, feats)):
            raise ValueError
    except ValueError:
        # finite_float rejects exactly these values and names the first
        try:
            for text in fields:
                finite_float(text)
        except ValueError as exc:
            raise ValueError(f"bad feature value: {exc}") from None
    if len(feats) != 4:
        raise ValueError("expected 4 features")
    return src, tgt, feats


def _build_options(lines: str) -> list[PhraseOption]:
    """The options of one source phrase, from its checked lines."""
    return [
        PhraseOption(tuple(map(sys.intern, tgt)), feats)
        for _, tgt, feats in map(_parse_line, lines.split("\n"))
    ]


def load_phrase_table(path) -> PhraseTable:
    """Read the lines :func:`save_phrase_table` writes.

    Every line is checked here, and the first malformed one raises
    :class:`ModelFormatError` naming the file and the line, whether or not
    any input ever needs its source phrase.  The lines are kept unparsed,
    indexed by source phrase, and the returned table builds a phrase's
    options on its first lookup (see :class:`PhraseTable`).  Each word is
    one shared string, however many phrases hold it.  A table with no
    entries is never written, so an empty or blank file is malformed."""
    index: dict[Tokens, list[str]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        try:
            src = _parse_line(line)[0]
        except ValueError as exc:
            raise ModelFormatError(f"{path}: line {lineno}: {exc}") from None
        src = tuple(map(sys.intern, src))
        lines = index.get(src)
        if lines is None:
            index[src] = [line]
        else:
            lines.append(line)
    if not index:
        raise ModelFormatError(f"{path}: no phrase entries")
    return PhraseTable({src: "\n".join(lines) for src, lines in index.items()})
