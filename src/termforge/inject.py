"""Rank external translation candidates by domain fit and annotate inputs.

Candidate scores come either uniformly (1.0 everywhere) or from the cosine
similarity between a domain vocabulary vector and each candidate's abstract
text, both as L2-normalized term-frequency bags.  Ranked candidates land in
decoder spans via longest-match scanning, as ``Candidate``s whose score is
the injection probability (a missing score becomes 1.0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus import Candidate, Lexicon, LexiconEntry, tokenize
from .smt import AnnotatedInput, EXCLUSIVE, Span

UNIFORM = "uniform"
COSINE = "cosine"


@dataclass
class VocabVector:
    """Sparse L2-normalized term-frequency vector."""

    weights: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "VocabVector":
        raw: dict[str, float] = {}
        for tok in tokens:
            raw[tok] = raw.get(tok, 0.0) + 1.0
        norm = math.sqrt(sum(v * v for v in raw.values()))
        if norm > 0:
            raw = {k: v / norm for k, v in raw.items()}
        return cls(raw)

    @classmethod
    def from_text(cls, text: str) -> "VocabVector":
        return cls.from_tokens(tokenize(text))

    @property
    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.weights.values()))


def cosine_score(x: VocabVector, y: VocabVector) -> float:
    """cos(x, y) = x.y / (|x| |y|); empty vectors score 0."""
    if not x.weights or not y.weights:
        return 0.0
    if len(x.weights) > len(y.weights):
        x, y = y, x
    dot = sum(w * y.weights.get(tok, 0.0) for tok, w in x.weights.items())
    denom = x.norm * y.norm
    if denom == 0.0:
        return 0.0
    return min(max(dot / denom, 0.0), 1.0)


def domain_vector(terms: Iterable[str]) -> VocabVector:
    """Domain vocabulary vector from a list of term texts."""
    return VocabVector.from_tokens(tok for term in terms for tok in tokenize(term))


def rank_candidates(
    domain_vocab: VocabVector, lexicon: Lexicon, mode: str = UNIFORM
) -> Lexicon:
    """Return a new lexicon with candidate scores set by the ranking mode.

    ``uniform`` sets every score to 1.0; ``cosine`` scores each candidate by
    the similarity of its entry's abstract to the domain vocabulary, with
    score 0 for entries lacking an abstract.
    """
    if mode not in (UNIFORM, COSINE):
        raise ValueError(f"unknown ranking mode {mode!r}")
    entries = {}
    for source_term, entry in lexicon.entries.items():
        if mode == UNIFORM:
            score = 1.0
        elif entry.abstract is None:
            score = 0.0
        else:
            score = cosine_score(domain_vocab, VocabVector.from_text(entry.abstract))
        entries[source_term] = LexiconEntry(
            source_term,
            [Candidate(c.tokens, score) for c in entry.candidates],
            entry.abstract,
        )
    return Lexicon(entries)


def annotate(
    source: Sequence[str],
    lexicon: Lexicon,
    mode: str = EXCLUSIVE,
) -> AnnotatedInput:
    """Longest-match left-to-right scan turning lexicon hits into spans.

    A match consumes its tokens, so later overlapping matches are skipped;
    spans come out non-overlapping and in ascending order.
    """
    tokens = tuple(source)
    entries, max_len = lexicon.entries, lexicon.max_term_len
    spans: list[Span] = []
    i = 0
    while i < len(tokens):
        for k in range(min(max_len, len(tokens) - i), 0, -1):
            entry = entries.get(tokens[i:i + k])
            if entry is not None:
                break
        else:
            i += 1
            continue
        candidates = [
            Candidate(c.tokens, 1.0 if c.score is None else c.score)
            for c in entry.candidates
        ]
        spans.append(Span(i, i + k, candidates, mode))
        i += k
    return AnnotatedInput(tokens, spans)
