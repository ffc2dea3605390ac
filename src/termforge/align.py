"""IBM Model 1 word alignment and phrase table extraction.

EM runs over integer-encoded sentence pairs on a dense table; the E-step is
the package's hottest loop and lives in :mod:`termforge._kernels`.  A null
source token (index 0) absorbs target words with no lexical counterpart.
"""

from __future__ import annotations

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

    inverse = np.array(counts)
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
    """Argmax links in both directions from the single trained table."""
    src, tgt = pair
    src_ids = [table._src_index.get(w, 0) for w in src]
    tgt_ids = [table._tgt_index.get(w) for w in tgt]

    forward: set[tuple[int, int]] = set()
    for j, tj in enumerate(tgt_ids):
        if tj is None:
            continue
        best_i, best_p = None, table.table[0, tj]  # null link wins ties
        for i, si in enumerate(src_ids):
            p = table.table[si, tj]
            if p > best_p:
                best_i, best_p = i, p
        if best_i is not None:
            forward.add((best_i, j))

    reverse: set[tuple[int, int]] = set()
    for i, si in enumerate(src_ids):
        best_j, best_p = None, 0.0
        for j, tj in enumerate(tgt_ids):
            if tj is None:
                continue
            p = table.table[si, tj]
            if p > best_p:
                best_j, best_p = j, p
        if best_j is not None:
            reverse.add((i, best_j))
    return forward, reverse


def _grow_diag(forward, reverse, src_len, tgt_len):
    """Koehn-style grow-diag-final symmetrization."""
    links = set(forward & reverse)
    union = forward | reverse
    neighbors = [(-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    grew = True
    while grew:
        grew = False
        for i in range(src_len):
            for j in range(tgt_len):
                if (i, j) not in links:
                    continue
                for di, dj in neighbors:
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < src_len and 0 <= nj < tgt_len):
                        continue
                    if (ni, nj) not in union or (ni, nj) in links:
                        continue
                    src_free = all(link[0] != ni for link in links)
                    tgt_free = all(link[1] != nj for link in links)
                    if src_free or tgt_free:
                        links.add((ni, nj))
                        grew = True
    # final step: adopt remaining union links touching an uncovered word
    for cand in sorted(union - links):
        src_free = all(link[0] != cand[0] for link in links)
        tgt_free = all(link[1] != cand[1] for link in links)
        if src_free or tgt_free:
            links.add(cand)
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
        return _grow_diag(forward, reverse, len(pair[0]), len(pair[1]))
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
    """All alignment-consistent (src_span, tgt_span) boxes up to max_len."""
    aligned_tgt = {j for _, j in links}
    out = []
    for i1 in range(src_len):
        for i2 in range(i1 + 1, min(i1 + max_len, src_len) + 1):
            span_links = [(i, j) for i, j in links if i1 <= i < i2]
            if not span_links:
                continue
            j_min = min(j for _, j in span_links)
            j_max = max(j for _, j in span_links) + 1
            # consistency: no link from inside the target box leaves the box
            if any(
                j_min <= j < j_max and not (i1 <= i < i2) for i, j in links
            ):
                continue
            if j_max - j_min > max_len:
                continue
            # extend over unaligned target boundary words
            lo = j_min
            while True:
                hi = j_max
                while True:
                    if hi - lo <= max_len:
                        out.append(((i1, i2), (lo, hi)))
                    hi += 1
                    if hi > tgt_len or (hi - 1) in aligned_tgt:
                        break
                lo -= 1
                if lo < 0 or lo in aligned_tgt:
                    break
    return out


def _lexical_weight(src_phrase, tgt_phrase, span_links, table, inverse=False):
    """Koehn lexical weighting over the phrase-internal alignment.

    Unaligned target words draw on t(t|null); the inverse direction has no
    null target (Model 1 places null on the source side only), so unaligned
    source words contribute a neutral factor there.
    """
    if inverse:
        weight = 1.0
        for i, s in enumerate(src_phrase):
            aligned = [j for (ii, j) in span_links if ii == i]
            if aligned:
                total = sum(table.inv_prob(s, tgt_phrase[j]) for j in aligned)
                weight *= total / len(aligned)
        return weight
    weight = 1.0
    for j, t in enumerate(tgt_phrase):
        aligned = [i for (i, jj) in span_links if jj == j]
        if aligned:
            total = sum(table.prob(t, src_phrase[i]) for i in aligned)
            weight *= total / len(aligned)
        else:
            weight *= table.prob(t, NULL_TOKEN)
    return weight


def extract_phrases(
    corpus: ParallelCorpus,
    alignments: Sequence[set[tuple[int, int]]],
    max_phrase_len: int = 7,
    table: TranslationTable | None = None,
) -> PhraseTable:
    """Extract all alignment-consistent phrase pairs and score them.

    Forward/backward phrase probabilities come from relative frequencies of
    extracted instances; lexical weights use the word table when given,
    otherwise 1.0.  All features are floored at ``PROB_FLOOR``.
    """
    if len(alignments) != len(corpus.pairs):
        raise ValueError("alignments must cover the corpus pair-for-pair")
    pair_counts: dict[tuple[Tokens, Tokens], int] = defaultdict(int)
    src_counts: dict[Tokens, int] = defaultdict(int)
    tgt_counts: dict[Tokens, int] = defaultdict(int)
    lex_fwd: dict[tuple[Tokens, Tokens], float] = {}
    lex_rev: dict[tuple[Tokens, Tokens], float] = {}

    for (src, tgt), links in zip(corpus.pairs, alignments):
        for (i1, i2), (j1, j2) in _consistent_phrases(
            len(src), len(tgt), links, max_phrase_len
        ):
            s_phrase = tuple(src[i1:i2])
            t_phrase = tuple(tgt[j1:j2])
            key = (s_phrase, t_phrase)
            pair_counts[key] += 1
            src_counts[s_phrase] += 1
            tgt_counts[t_phrase] += 1
            if table is not None:
                internal = [
                    (i - i1, j - j1)
                    for i, j in links
                    if i1 <= i < i2 and j1 <= j < j2
                ]
                fwd = _lexical_weight(s_phrase, t_phrase, internal, table)
                rev = _lexical_weight(s_phrase, t_phrase, internal, table, inverse=True)
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
