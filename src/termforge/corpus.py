"""Parallel corpora and term lexicons: loading, normalization, analytics.

Everything downstream (alignment, LM and NMT training, evaluation) consumes
the tokenized pairs produced here, so normalization is deterministic and
fixed: lowercased, whitespace split, leading/trailing punctuation detached.
A lexicon maps each source term to its entry; its scored ``Candidate``s are
also what the SMT decoder's annotated spans hold.
"""

from __future__ import annotations

import math
import sys
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import AlignmentError, EmptyCorpusError, LexiconFormatError
from .files import atomic_open, read_lines

Tokens = tuple[str, ...]

_PUNCT = set(string.punctuation)


def finite_float(text: str) -> float:
    """``float(text)``; a ValueError also for nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def tokenize(text: str) -> Tokens:
    """Tokenize one sentence: lowercase, whitespace split, then detach edge
    punctuation.

    Interior punctuation (hyphens, apostrophes) stays attached so compounds
    like "blood-vessel" survive as single tokens.  Each token is interned,
    so a word is one shared string wherever models keep it.
    """
    out: list[str] = []
    for chunk in text.lower().split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
            out.append(chunk)
            continue
        lead: list[str] = []
        while len(chunk) > 1 and chunk[0] in _PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while len(chunk) > 1 and chunk[-1] in _PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(lead)
        out.append(chunk)
        out.extend(reversed(trail))
    return tuple(map(sys.intern, out))


@dataclass
class ParallelCorpus:
    """Aligned source/target sentence pairs after normalization."""

    pairs: list[tuple[Tokens, Tokens]]
    name: str = "corpus"

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def source_sentences(self) -> list[Tokens]:
        return [src for src, _ in self.pairs]

    @property
    def target_sentences(self) -> list[Tokens]:
        return [tgt for _, tgt in self.pairs]

    def vocab(self, side: str) -> set[str]:
        idx = 0 if side == "source" else 1
        return {tok for pair in self.pairs for tok in pair[idx]}


@dataclass
class Candidate:
    """One target translation option for a lexicon entry or an annotated
    input span, with its probability ``score`` in [0, 1]."""

    tokens: Tokens
    score: float


@dataclass
class LexiconEntry:
    source_term: Tokens
    candidates: list[Candidate]
    abstract: str | None = None


@dataclass
class Lexicon:
    """Bilingual term entries by source term, the external-knowledge
    carrier; ``max_term_len`` is the length of the longest source term, so
    lookups stop there."""

    entries: dict[Tokens, LexiconEntry] = field(default_factory=dict)
    max_term_len: int = field(init=False)

    def __post_init__(self):
        self.max_term_len = max(map(len, self.entries), default=0)

    def __len__(self) -> int:
        return len(self.entries)

    def best_candidate(self, source_term: Tokens) -> Candidate | None:
        """Highest-scoring candidate for a source term, ties resolved by
        listing order."""
        entry = self.entries.get(source_term)
        if entry is None or not entry.candidates:
            return None
        return max(entry.candidates, key=lambda cand: cand.score)


@dataclass
class CorpusStats:
    """Line/word/vocabulary counts per side (one table row per corpus)."""

    name: str
    lines: int
    source_words: int
    target_words: int
    source_vocab: int
    target_vocab: int


@dataclass
class SideOverlap:
    in_corpus: int
    oov: int

    @property
    def coverage_percent(self) -> float:
        total = self.in_corpus + self.oov
        return 100.0 * self.in_corpus / total if total else 0.0


@dataclass
class OverlapReport:
    """Word- and term-level overlap of an evaluation set against a reference."""

    name: str
    word_source: SideOverlap
    word_target: SideOverlap
    term_source: SideOverlap
    term_target: SideOverlap
    term_joint: SideOverlap


def load_parallel(source_path, target_path, name: str | None = None) -> ParallelCorpus:
    """Load a pair of one-sentence-per-line UTF-8 files into a corpus.

    Raises :class:`AlignmentError` on unequal line counts and
    :class:`EmptyCorpusError` when no pairs remain.
    """
    src_lines = read_lines(source_path)
    tgt_lines = read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise AlignmentError(
            f"{source_path}: {len(src_lines)} lines vs {target_path}: "
            f"{len(tgt_lines)} lines"
        )
    pairs = [(tokenize(s), tokenize(t)) for s, t in zip(src_lines, tgt_lines)]
    pairs = [(s, t) for s, t in pairs if s or t]
    if not pairs:
        raise EmptyCorpusError(f"no sentence pairs in {source_path} / {target_path}")
    if name is None:
        name = str(source_path)
    return ParallelCorpus(pairs, name=name)


def load_lexicon(path) -> Lexicon:
    """Parse a lexicon TSV: ``source<TAB>target[<TAB>score][<TAB>abstract]``.

    A row without a score (or with an empty score column) reads as 1.0.
    ``#``-prefixed lines are comments.  Rows sharing a source term merge into
    one entry with multiple candidates; the first abstract seen wins.
    """
    entries: dict[Tokens, LexiconEntry] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        where = f"{path}: line {lineno}"
        cols = line.split("\t")
        if len(cols) < 2:
            raise LexiconFormatError(
                f"{where}: expected at least 2 tab-separated columns, got {len(cols)}"
            )
        source = tokenize(cols[0])
        target = tokenize(cols[1])
        if not source or not target:
            raise LexiconFormatError(f"{where}: empty source or target term")
        score = 1.0
        if len(cols) >= 3 and cols[2].strip():
            try:
                score = float(cols[2])
            except ValueError:
                raise LexiconFormatError(
                    f"{where}: score {cols[2]!r} is not a number"
                ) from None
            if not 0.0 <= score <= 1.0:
                raise LexiconFormatError(f"{where}: score {score} outside [0, 1]")
        abstract = cols[3] if len(cols) >= 4 and cols[3].strip() else None
        entry = entries.get(source)
        if entry is None:
            entries[source] = LexiconEntry(source, [Candidate(target, score)], abstract)
        else:
            entry.candidates.append(Candidate(target, score))
            if entry.abstract is None:
                entry.abstract = abstract
    return Lexicon(entries)


def save_lexicon(lexicon: Lexicon, path) -> None:
    """Write a lexicon back to the TSV format accepted by :func:`load_lexicon`,
    every row with its score."""
    with atomic_open(path) as f:
        for entry in lexicon.entries.values():
            for cand in entry.candidates:
                cols = [" ".join(entry.source_term), " ".join(cand.tokens)]
                cols.append(str(cand.score))
                if entry.abstract is not None:
                    cols.append(entry.abstract)
                f.write("\t".join(cols) + "\n")


def corpus_stats(corpus: ParallelCorpus) -> CorpusStats:
    """Count lines, running words, and distinct vocabulary per side."""
    src_words = sum(len(s) for s, _ in corpus.pairs)
    tgt_words = sum(len(t) for _, t in corpus.pairs)
    return CorpusStats(
        name=corpus.name,
        lines=len(corpus.pairs),
        source_words=src_words,
        target_words=tgt_words,
        source_vocab=len(corpus.vocab("source")),
        target_vocab=len(corpus.vocab("target")),
    )


def contains_contiguous(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    """True if ``needle`` occurs in ``haystack`` as a contiguous run."""
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return False
    first = needle[0]
    for i in range(n - m + 1):
        if haystack[i] == first and tuple(haystack[i:i + m]) == tuple(needle):
            return True
    return False


def overlap_report(
    eval_set: ParallelCorpus, reference: ParallelCorpus, name: str | None = None
) -> OverlapReport:
    """Word- and term-level overlap of ``eval_set`` against a reference corpus.

    A term (one evaluation line per side) is in-corpus when its full token
    sequence occurs contiguously in a reference sentence.  Joint matches
    require both sides in the same reference pair.
    """
    if not eval_set.pairs:
        raise EmptyCorpusError("evaluation set is empty")

    def src_match(term: Tokens) -> bool:
        return any(contains_contiguous(s, term) for s, _ in reference.pairs)

    def tgt_match(term: Tokens) -> bool:
        return any(contains_contiguous(t, term) for _, t in reference.pairs)

    def joint_match(src: Tokens, tgt: Tokens) -> bool:
        return any(
            contains_contiguous(s, src) and contains_contiguous(t, tgt)
            for s, t in reference.pairs
        )

    def side_words(side_vocab: set[str], ref_vocab: set[str]) -> SideOverlap:
        found = sum(1 for w in side_vocab if w in ref_vocab)
        return SideOverlap(found, len(side_vocab) - found)

    eval_src_vocab = eval_set.vocab("source")
    eval_tgt_vocab = eval_set.vocab("target")

    src_terms_distinct = {s for s, _ in eval_set.pairs}
    tgt_terms_distinct = {t for _, t in eval_set.pairs}
    joint_distinct = {(s, t) for s, t in eval_set.pairs}

    term_src_in = sum(1 for t in src_terms_distinct if src_match(t))
    term_tgt_in = sum(1 for t in tgt_terms_distinct if tgt_match(t))
    joint_in = sum(1 for s, t in joint_distinct if joint_match(s, t))

    return OverlapReport(
        name=name or eval_set.name,
        word_source=side_words(eval_src_vocab, reference.vocab("source")),
        word_target=side_words(eval_tgt_vocab, reference.vocab("target")),
        term_source=SideOverlap(term_src_in, len(src_terms_distinct) - term_src_in),
        term_target=SideOverlap(term_tgt_in, len(tgt_terms_distinct) - term_tgt_in),
        term_joint=SideOverlap(joint_in, len(joint_distinct) - joint_in),
    )


def word_frequencies(sentences: Iterable[Sequence[str]]) -> Counter:
    """Token frequency map over an iterable of token sequences."""
    freq: Counter = Counter()
    for sent in sentences:
        freq.update(sent)
    return freq


def format_stats(stats_list: Sequence[CorpusStats]) -> str:
    """Key-value report mirroring the lines/words/vocabulary table layout."""
    lines = []
    for st in stats_list:
        lines.append(f"{st.name}\tlines\t{st.lines}")
        lines.append(f"{st.name}\twords.source\t{st.source_words}")
        lines.append(f"{st.name}\twords.target\t{st.target_words}")
        lines.append(f"{st.name}\tvocab.source\t{st.source_vocab}")
        lines.append(f"{st.name}\tvocab.target\t{st.target_vocab}")
    return "\n".join(lines) + "\n"


def format_overlap(reports: Sequence[OverlapReport]) -> str:
    """Key-value report with word/term/joint in-corpus, OOV, and coverage rows."""
    lines = []
    for rep in reports:
        for level, side, so in [
            ("words", "source", rep.word_source),
            ("words", "target", rep.word_target),
            ("terms", "source", rep.term_source),
            ("terms", "target", rep.term_target),
            ("terms", "joint", rep.term_joint),
        ]:
            lines.append(
                f"{rep.name}\t{level}.{side}\tin_corpus={so.in_corpus}"
                f"\toov={so.oov}\tcoverage={so.coverage_percent:.2f}"
            )
    return "\n".join(lines) + "\n"
