"""Rank external translation candidates by domain fit and annotate inputs.

Candidate scores come either uniformly (1.0 everywhere, when no domain
vector is given) or from the cosine similarity between a domain vocabulary
vector and each candidate's abstract text.  Vectors are plain
``dict[str, float]`` L2-normalized term-frequency bags (:func:`tf_vector`).
Ranked candidates land in decoder spans via longest-match scanning, as
the entry's own ``Candidate``s, whose score is the injection probability.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from .corpus import Candidate, Lexicon, LexiconEntry, tokenize
from .smt import AnnotatedInput, EXCLUSIVE, Span

UNIFORM = "uniform"
COSINE = "cosine"


def tf_vector(tokens: Iterable[str]) -> dict[str, float]:
    """L2-normalized term-frequency vector of ``tokens``; empty for none."""
    counts = Counter(tokens)
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return {tok: c / norm for tok, c in counts.items()}


def _norm(x: dict[str, float]) -> float:
    return math.sqrt(sum(v * v for v in x.values()))


def cosine_score(x: dict[str, float], y: dict[str, float]) -> float:
    """cos(x, y) = x.y / (|x| |y|); empty vectors score 0."""
    if not x or not y:
        return 0.0
    if len(x) > len(y):
        x, y = y, x
    dot = sum(w * y.get(tok, 0.0) for tok, w in x.items())
    denom = _norm(x) * _norm(y)
    if denom == 0.0:
        return 0.0
    return min(max(dot / denom, 0.0), 1.0)


def domain_vector(terms: Iterable[str]) -> dict[str, float]:
    """Domain vocabulary vector from a list of term texts."""
    return tf_vector(tok for term in terms for tok in tokenize(term))


def rank_candidates(
    lexicon: Lexicon, domain: dict[str, float] | None = None
) -> Lexicon:
    """Return a new lexicon with candidate scores set by domain fit.

    Without a ``domain`` vector every score is 1.0 (uniform ranking);
    with one, each candidate scores the cosine similarity of its entry's
    abstract to the domain, and 0 for an entry lacking an abstract.  An
    empty domain vector is still a domain: every candidate scores 0.
    """
    entries = {}
    for source_term, entry in lexicon.entries.items():
        if domain is None:
            score = 1.0
        elif entry.abstract is None:
            score = 0.0
        else:
            score = cosine_score(domain, tf_vector(tokenize(entry.abstract)))
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
        spans.append(Span(i, i + k, entry.candidates, mode))
        i += k
    return AnnotatedInput(tokens, spans)
