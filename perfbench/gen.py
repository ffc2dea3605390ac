"""Seeded, scalable synthetic corpora for the benchmark workloads.

A hidden lexical map turns Zipf-sampled source sentences into targets:
content words map one-to-one (a share split 1->2), the most frequent
source words act as function words and are dropped with a fixed
probability, and adjacent chunks swap with a fixed probability.  Multiword
lexicon terms are planted in sentences; a share of them translates to one
fused compound token.

The language (vocabulary, lexical map, terms) and the tuning set come
from the fixed ``LANGUAGE_SEED``, like a fixed language pair with a fixed
dev set; the workload seed draws the training and evaluation sentences.
Sentence lengths follow a schedule that depends only on the sizes, so
seeds change content but not the amount of work.

``write_inputs`` writes corpora, the lexicon and a flat pipeline config;
the same knobs and seed give the same bytes.  The answer key (which term
sits where in each evaluation sentence) stays with the benchmark and is
never handed to the program.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

SRC_ONSETS = "bdgklmnprstv"
SRC_VOWELS = "aeiou"
TGT_ONSETS = ("f", "h", "j", "w", "z", "sh", "ch", "kr", "tr", "pl")
TGT_VOWELS = ("a", "e", "i", "o", "u", "y", "ou")
LANGUAGE_SEED = 0
TERM_LENGTH = (2, 3)  # source tokens per lexicon term
ABSTRACT_WORDS = 12  # words in each term's abstract


@dataclass(frozen=True)
class Knobs:
    """Generator settings; every field changes the generated bytes."""

    pairs: int
    vocab: int
    zipf: float = 1.0
    length: tuple[int, int] = (8, 25)
    swap_rate: float = 0.1
    split_rate: float = 0.05
    drop_rate: float = 0.5
    function_words: int = 6
    compound_rate: float = 0.0
    terms: int = 100
    term_rate: float = 0.2  # share of training sentences holding one term
    dev: int = 24
    dev_length: tuple[int, int] = (4, 10)
    dev_terms: bool = False  # dev set is lexicon term pairs instead of sentences
    eval: int = 200
    eval_length: tuple[int, int] = (8, 14)
    eval_terms: tuple[int, int] = (1, 2)
    eval_parts: tuple[str, ...] = ("eval",)


@dataclass
class Term:
    source: tuple[str, ...]
    candidates: list[tuple[str, ...]]  # first is the reference rendering
    abstract: str


@dataclass
class Inputs:
    train: list[tuple[tuple[str, ...], tuple[str, ...]]]
    dev: list[tuple[tuple[str, ...], tuple[str, ...]]]
    eval_parts: dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]]
    terms: list[Term]
    # per evaluation part and sentence: (start, end, candidates) of each term
    key: dict[str, list[list[tuple[int, int, list[tuple[str, ...]]]]]]


def _words(rng, onsets, vowels, count, taken):
    syllables = [o + v for o in onsets for v in vowels]
    out = []
    while len(out) < count:
        word = "".join(rng.choice(syllables) for _ in range(rng.choice((2, 2, 3))))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _length_schedule(rng, count, lo, hi):
    """Lengths cycling evenly over [lo, hi]: the histogram is seed-free."""
    lengths = [lo + i % (hi - lo + 1) for i in range(count)]
    rng.shuffle(lengths)
    return lengths


class _Language:
    def __init__(self, knobs: Knobs, rng: random.Random):
        taken: set[str] = set()
        self.source = _words(rng, SRC_ONSETS, SRC_VOWELS, knobs.vocab, taken)
        target = _words(rng, TGT_ONSETS, TGT_VOWELS, 2 * knobs.vocab, taken)
        self.function = set(self.source[: knobs.function_words])
        extra = iter(target[knobs.vocab:])
        self.chunk: dict[str, tuple[str, ...]] = {}
        for word, tgt in zip(self.source, target):
            if word not in self.function and rng.random() < knobs.split_rate:
                self.chunk[word] = (tgt, next(extra))
            else:
                self.chunk[word] = (tgt,)
        self.cum_weights = list(
            itertools.accumulate(
                1.0 / (r + 1) ** knobs.zipf for r in range(knobs.vocab)
            )
        )
        self.knobs = knobs

    def sample(self, n, rng):
        return rng.choices(self.source, cum_weights=self.cum_weights, k=n)

    def translate(self, tokens, terms_at, rng):
        """Target for ``tokens``; ``terms_at`` maps start -> (end, rendering).

        Chunks are produced left to right, then adjacent chunks outside
        terms swap with probability ``swap_rate``.
        """
        chunks: list[tuple[tuple[str, ...], bool]] = []
        i = 0
        while i < len(tokens):
            if i in terms_at:
                end, rendering = terms_at[i]
                chunks.append((rendering, True))
                i = end
                continue
            word = tokens[i]
            if word in self.function and rng.random() < self.knobs.drop_rate:
                chunks.append(((), False))
            else:
                chunks.append((self.chunk[word], False))
            i += 1
        k = 0
        while k + 1 < len(chunks):
            if (
                not chunks[k][1]
                and not chunks[k + 1][1]
                and rng.random() < self.knobs.swap_rate
            ):
                chunks[k], chunks[k + 1] = chunks[k + 1], chunks[k]
                k += 2
            else:
                k += 1
        return tuple(tok for chunk, _ in chunks for tok in chunk)


def _make_terms(lang: _Language, knobs: Knobs, rng: random.Random) -> list[Term]:
    content = [w for w in lang.source if w not in lang.function]
    # mid-frequency band: frequent enough to be learned, rare enough to matter
    band = content[len(content) // 10:] or content
    lo, hi = TERM_LENGTH
    terms: list[Term] = []
    seen: set[tuple[str, ...]] = set()
    while len(terms) < knobs.terms:
        source = tuple(rng.sample(band, rng.randint(lo, hi)))
        if source in seen:
            continue
        seen.add(source)
        separate = tuple(tok for w in source for tok in lang.chunk[w])
        if rng.random() < knobs.compound_rate:
            candidates = [("".join(separate),), separate]
        else:
            candidates = [separate]
        abstract = " ".join(
            lang.sample(ABSTRACT_WORDS // 2, rng)
            + rng.sample(content, ABSTRACT_WORDS - ABSTRACT_WORDS // 2)
        )
        terms.append(Term(source, candidates, abstract))
    return terms


def _scan(tokens, by_source, max_len):
    """Longest-match term spans, the way the program's annotator scans."""
    spans = []
    i = 0
    while i < len(tokens):
        for k in range(min(max_len, len(tokens) - i), 0, -1):
            if tuple(tokens[i:i + k]) in by_source:
                spans.append((i, i + k))
                i += k
                break
        else:
            i += 1
    return spans


def _sentence(lang, terms, by_source, max_len, length, n_terms, rng):
    """One pair of ``length`` source tokens holding ``n_terms`` planted terms.

    Resamples until the longest-match scan finds exactly the planted spans,
    so the answer key and the program's annotation agree, and until the
    target is not empty.
    """
    while True:
        chosen = [rng.choice(terms) for _ in range(n_terms)]
        filler = length - sum(len(t.source) for t in chosen)
        if filler < 0:
            continue
        pieces: list[tuple[str, ...] | Term] = [(w,) for w in lang.sample(filler, rng)]
        for term in chosen:
            pieces.insert(rng.randint(0, len(pieces)), term)
        tokens: list[str] = []
        spans = []
        for piece in pieces:
            if isinstance(piece, Term):
                spans.append((len(tokens), len(tokens) + len(piece.source), piece))
                tokens.extend(piece.source)
            else:
                tokens.extend(piece)
        if _scan(tokens, by_source, max_len) != [(s, e) for s, e, _ in spans]:
            continue
        target = lang.translate(
            tokens, {s: (e, t.candidates[0]) for s, e, t in spans}, rng
        )
        if not target:  # every word was a dropped function word
            continue
        key = [(s, e, t.candidates) for s, e, t in spans]
        return (tuple(tokens), target), key


def generate(knobs: Knobs, seed: int) -> Inputs:
    lang_rng = random.Random(LANGUAGE_SEED)
    lang = _Language(knobs, lang_rng)
    terms = _make_terms(lang, knobs, lang_rng)
    rng = random.Random(seed)
    by_source = {t.source: t for t in terms}
    max_len = max(len(t.source) for t in terms)

    train = []
    for length in _length_schedule(rng, knobs.pairs, *knobs.length):
        with_term = rng.random() < knobs.term_rate and length > TERM_LENGTH[1]
        pair, _ = _sentence(lang, terms, by_source, max_len, length, int(with_term), rng)
        train.append(pair)

    # the tuning set belongs to the language: the same for every seed
    if knobs.dev_terms:
        dev = [(t.source, t.candidates[0]) for t in terms[: knobs.dev]]
    else:
        dev, seen = [], set()
        for length in _length_schedule(lang_rng, knobs.dev, *knobs.dev_length):
            while True:
                pair, _ = _sentence(lang, terms, by_source, max_len, length, 0, lang_rng)
                if pair[0] not in seen:  # tuning tracks hypotheses per source
                    seen.add(pair[0])
                    break
            dev.append(pair)

    eval_parts, key = {}, {}
    per_part = -(-knobs.eval // len(knobs.eval_parts))
    lo, hi = knobs.eval_terms
    for part in knobs.eval_parts:
        pairs, part_key = [], []
        lengths = _length_schedule(rng, per_part, *knobs.eval_length)
        counts = _length_schedule(rng, per_part, lo, hi)
        for length, n_terms in zip(lengths, counts):
            pair, spans = _sentence(lang, terms, by_source, max_len, length, n_terms, rng)
            pairs.append(pair)
            part_key.append(spans)
        eval_parts[part], key[part] = pairs, part_key
    return Inputs(train, dev, eval_parts, terms, key)


def _write_pairs(directory, stem, pairs):
    for side, suffix in ((0, "src"), (1, "tgt")):
        with open(os.path.join(directory, f"{stem}.{suffix}"), "w", encoding="utf-8") as f:
            f.writelines(" ".join(pair[side]) + "\n" for pair in pairs)


def write_inputs(directory, knobs: Knobs, seed: int, config: dict[str, str]) -> Inputs:
    """Generate and write ``train``, ``dev``, each evaluation part, all
    references (``eval-all.tgt``), ``lexicon.tsv`` and the flat
    ``pipeline.cfg`` built from ``config``; returns the inputs, whose answer
    key stays in memory."""
    inputs = generate(knobs, seed)
    os.makedirs(directory, exist_ok=True)
    _write_pairs(directory, "train", inputs.train)
    _write_pairs(directory, "dev", inputs.dev)
    refs = []
    for part, pairs in inputs.eval_parts.items():
        _write_pairs(directory, part, pairs)
        refs.extend(pairs)
    with open(os.path.join(directory, "eval-all.tgt"), "w", encoding="utf-8") as f:
        f.writelines(" ".join(t) + "\n" for _, t in refs)
    with open(os.path.join(directory, "lexicon.tsv"), "w", encoding="utf-8") as f:
        for term in inputs.terms:
            for cand in term.candidates:
                f.write(f"{' '.join(term.source)}\t{' '.join(cand)}\t\t{term.abstract}\n")
    with open(os.path.join(directory, "pipeline.cfg"), "w", encoding="utf-8") as f:
        f.writelines(f"{k} = {v}\n" for k, v in config.items())
    return inputs
