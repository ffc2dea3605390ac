"""IBM Model 1 word alignment and phrase table extraction.

EM runs over integer-encoded sentence pairs on a dense table; the E-step
is one flat array pass over the corpus in :mod:`termforge._kernels`.  A
null source token (index 0) absorbs target words with no lexical
counterpart.  Viterbi links come from one table gather per sentence pair
into a block led by the null row and a zero column, so that one argmax
per direction, taking the first maximum, also applies both tie rules;
grow-diag-final symmetrization, the only one, combines the two
directions, keeps the covered source and target words in sets and probes
only the links next to a union link it could still adopt.  Phrase extraction grows each
source span one word at a time over per-word link bounds and tests a box
by counting its links; a phrase's lexical weights are products of
per-word factors read from the word table once per sentence pair.  Each
phrase pair keeps one record, the source side of an instance is taken
once per source span, and the table is assembled one source phrase at a
time.  A phrase table's length limit is its longest source phrase.  A
loaded phrase table checks every line at load and builds a source
phrase's options on the phrase's first lookup.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

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
    that :func:`load_phrase_table` or :func:`save_phrase_table` returns,
    to its checked lines, not yet parsed: one string, the lines joined by
    ``\n``, so an unbuilt phrase holds no container.  :meth:`options`
    builds a phrase's options from its lines the first time the phrase is
    looked up and keeps them, and reading :attr:`entries` builds whatever
    is left.  So such a table fills its own cache as lookups arrive;
    callers treat it as read-only.
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


def _consistent_phrases(src_len, tgt_len, links, max_len):
    """All alignment-consistent (src_span, tgt_span) boxes up to max_len.

    For each start ``i1`` the source span grows one word at a time; the
    target box spans the min/max linked target of its source words, and
    it is consistent when every target word inside links only to sources
    inside the span: when the box's target columns hold as many links as
    the span's source words.  Unaligned target words at the box edges
    extend it.  The boxes of one source span come together and share one
    span tuple.
    """
    rows = [None] * src_len  # per source word: [lowest j, highest j + 1, links]
    col_links = [0] * (tgt_len + 1)  # becomes: links in target columns < j
    for i, j in links:
        row = rows[i]
        if row is None:
            rows[i] = [j, j + 1, 1]
        else:
            if j < row[0]:
                row[0] = j
            if j >= row[1]:
                row[1] = j + 1
            row[2] += 1
        col_links[j + 1] += 1
    aligned = [n > 0 for n in col_links[1:]]
    for j in range(tgt_len):
        col_links[j + 1] += col_links[j]
    out = []
    for i1 in range(src_len):
        j_min, j_max = tgt_len, 0  # target box [j_min, j_max)
        span_links = 0
        i2 = i1
        for row in rows[i1:i1 + max_len]:
            i2 += 1
            if row is not None:
                lo, hi, n = row
                if lo < j_min:
                    j_min = lo
                if hi > j_max:
                    j_max = hi
                span_links += n
            elif not span_links:
                continue  # no links yet
            if j_max - j_min > max_len:
                break  # the box only widens as the span grows
            if col_links[j_max] - col_links[j_min] != span_links:
                continue
            # extend over unaligned target boundary words
            span = (i1, i2)
            lo = j_min
            while j_max - lo <= max_len:
                hi = j_max
                while hi - lo <= max_len:
                    out.append((span, (lo, hi)))
                    hi += 1
                    if hi > tgt_len or aligned[hi - 1]:
                        break
                lo -= 1
                if lo < 0 or aligned[lo]:
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
    in the iteration order of ``links``.  The probabilities are read from
    ``table.table`` and ``table.inverse`` by word index; a word the table
    does not know has probability 0.0, as in :meth:`TranslationTable.prob`.
    """
    probs, inverse = table.table, table.inverse
    src_ids = [table._src_index.get(w) for w in src]
    tgt_ids = [table._tgt_index.get(w) for w in tgt]
    by_tgt = [[] for _ in tgt]
    by_src = [[] for _ in src]
    for i, j in links:
        s, t = src_ids[i], tgt_ids[j]
        known = s is not None and t is not None
        by_tgt[j].append(probs.item(s, t) if known else 0.0)
        by_src[i].append(inverse.item(s, t) if known else 0.0)
    null = table._src_index.get(NULL_TOKEN)
    fwd = [
        sum(ps) / len(ps) if ps
        else probs.item(null, t) if null is not None and t is not None
        else 0.0
        for ps, t in zip(by_tgt, tgt_ids)
    ]
    rev = [sum(ps) / len(ps) if ps else 1.0 for ps in by_src]
    return fwd, rev


def extract_phrases(
    corpus: ParallelCorpus,
    alignments: Sequence[set[tuple[int, int]]],
    table: TranslationTable,
    max_phrase_len: int = 7,
) -> PhraseTable:
    """Extract all alignment-consistent phrase pairs and score them.

    Forward/backward phrase probabilities come from relative frequencies of
    extracted instances; lexical weights come from the word table and keep
    the maximum over a pair's instances.  All features are floored at
    ``PROB_FLOOR``.

    Each phrase pair keeps one record, grouped under its source phrase:
    its instance count and its two maximum lexical weights.  The source
    side of an instance (the phrase, its reverse lexical weight, its
    records) is taken once per source span, for all the span's target
    boxes.  The table is assembled one source phrase at a time, in sorted
    order; a source phrase's count is the sum over its records, and its
    records are dropped as its options are built.
    """
    if len(alignments) != len(corpus.pairs):
        raise ValueError("alignments must cover the corpus pair-for-pair")
    # source phrase -> target phrase -> [instances, max lex_fwd, max lex_rev]
    stats: dict[Tokens, dict[Tokens, list]] = {}
    tgt_counts: dict[Tokens, int] = defaultdict(int)

    for (src, tgt), links in zip(corpus.pairs, alignments):
        src, tgt = tuple(src), tuple(tgt)  # so that a slice is a phrase
        fwd_factors, rev_factors = _word_factors(src, tgt, links, table)
        span = None
        for box_span, (j1, j2) in _consistent_phrases(
            len(src), len(tgt), links, max_phrase_len
        ):
            if box_span is not span:
                span = box_span
                s_phrase = src[span[0]:span[1]]
                rev = math.prod(rev_factors[span[0]:span[1]])
                targets = stats.get(s_phrase)
                if targets is None:
                    targets = stats[s_phrase] = {}
            t_phrase = tgt[j1:j2]
            fwd = math.prod(fwd_factors[j1:j2])
            tgt_counts[t_phrase] += 1
            record = targets.get(t_phrase)
            if record is None:
                record = targets[t_phrase] = [0, 0.0, 0.0]
            record[0] += 1
            if fwd > record[1]:
                record[1] = fwd
            if rev > record[2]:
                record[2] = rev

    entries: dict[Tokens, list[PhraseOption]] = {}
    for s_phrase in sorted(stats):
        targets = stats.pop(s_phrase)
        total = sum(record[0] for record in targets.values())
        options = [
            PhraseOption(t_phrase, (
                max(count / total, PROB_FLOOR),
                max(count / tgt_counts[t_phrase], PROB_FLOOR),
                max(lex_fwd, PROB_FLOOR),
                max(lex_rev, PROB_FLOOR),
            ))
            for t_phrase, (count, lex_fwd, lex_rev) in targets.items()
        ]
        options.sort(key=lambda o: (-o.features[0], o.target))
        entries[s_phrase] = options
    return PhraseTable(entries)


def save_phrase_table(ptable: PhraseTable, path) -> PhraseTable | None:
    """Write Moses-style lines, ``source ||| target ||| f1 f2 f3 f4``, and
    return the table :func:`load_phrase_table` reads back from the file,
    or None when the loader rejects the file.

    The returned table holds the lines just written, indexed by source
    phrase in file order under ``ptable``'s own source tuples, so it
    builds each phrase's options on first lookup from the text a load
    would check.  An option whose features are not four numbers raises
    ValueError and writes nothing.  When the text might not read back as
    written (an empty word or phrase, a word holding whitespace or ``|||``,
    a feature that is not finite, or no line at all), the file is loaded
    instead."""
    entries = ptable.entries
    index: dict[Tokens, str] = {}
    n = 0  # lines
    finite = True
    for src in sorted(entries):
        head = " ".join(src) + " ||| "
        lines = []
        for opt in entries[src]:
            f1, f2, f3, f4 = opt.features
            feats = f"{float(f1)!r} {float(f2)!r} {float(f3)!r} {float(f4)!r}"
            if "n" in feats:  # nan, inf
                finite = False
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
        finite and n and text.count("\n") == n - 1 and text.count("|||") == 2 * n
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
