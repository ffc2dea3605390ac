"""Deterministic synthetic fixtures: two disjoint-vocabulary toy domains.

Domain A imitates a compounding ontology (two-word source terms map to one
concatenated target token, the way medical German fuses compounds); domain B
keeps the analytic two-token style.  The generic corpus shows both target
styles for both vocabularies, with the separate-token style more frequent,
so a generically trained system prefers it and adaptation to either domain
has a real, opposite-signed signal to learn.

Everything is derived from the seed; identical seeds give identical corpora.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .corpus import Candidate, Lexicon, LexiconEntry, ParallelCorpus, save_lexicon
from .files import atomic_open

FUNCTION_WORDS = [("the", "die"), ("of", "der"), ("and", "und"), ("with", "mit")]
VOCAB_SIZE = 14  # content words per domain
EVAL_ROUNDS = 2  # permutation rounds of evaluation term pairs


@dataclass
class DomainData:
    name: str
    dev: ParallelCorpus
    eval: ParallelCorpus


@dataclass
class FixtureSet:
    generic: ParallelCorpus
    domain_a: DomainData
    domain_b: DomainData
    lexicon: Lexicon


def _vocab(prefix: str, size: int) -> list[tuple[str, str]]:
    return [(f"{prefix}{i:02d}", f"{prefix}t{i:02d}") for i in range(size)]


def _term_pairs(words, rng, rounds):
    """Term pairs built from disjoint permutation rounds.

    Each round pairs every vocabulary word exactly once, so after R rounds
    every word participates in exactly R pairs; uniform count profiles keep
    the learned feature values comparable across pairs.
    """
    pairs = []
    seen = set()
    for _ in range(rounds):
        while True:
            perm = list(range(len(words)))
            rng.shuffle(perm)
            candidate = [
                (perm[i], perm[i + 1]) for i in range(0, len(perm) - 1, 2)
            ]
            if all((x, y) not in seen for x, y in candidate):
                break
        for x, y in candidate:
            seen.add((x, y))
            pairs.append((words[x], words[y]))
    return pairs


def _compound(tgt_x: str, tgt_y: str) -> str:
    return tgt_x + tgt_y


def build_fixture_set(
    seed: int = 42,
    dev_rounds: int = 3,
    separate_repeats: int = 3,
    compound_repeats: int = 1,
    domain_a_style: str = "reorder",
) -> FixtureSet:
    """Construct the two-domain fixture set.

    Every term pair of both domains occurs ``separate_repeats`` times in the
    straight two-token style; domain-A pairs additionally occur
    ``compound_repeats`` times in compound form.  Domain A's terminology
    style is ``reorder`` (references swap the two target words, a pattern
    every system can pick up from a small development set) or ``compound``
    (references fuse them into one token, the subword-vs-word mechanism).
    With ``compound_repeats=1`` every compound is a singleton in the
    generic data, which the rare-compound experiments exploit via
    vocabulary caps.

    Pair pools are permutation rounds (``dev_rounds`` for development,
    ``EVAL_ROUNDS`` for evaluation) over ``VOCAB_SIZE`` words per domain,
    giving every content word the same count profile; singleton noise
    translations give the phrase table the junk tail real tables have,
    without which inverted feature weights would look viable during tuning.
    """
    if domain_a_style not in ("reorder", "compound"):
        raise ValueError(f"unknown domain_a_style {domain_a_style!r}")
    rng = random.Random(seed)
    vocab_a = _vocab("meda", VOCAB_SIZE)
    vocab_b = _vocab("finb", VOCAB_SIZE)
    per_round = VOCAB_SIZE // 2
    dev_terms = dev_rounds * per_round
    eval_terms = EVAL_ROUNDS * per_round

    term_pool_a = _term_pairs(vocab_a, rng, dev_rounds + EVAL_ROUNDS)
    term_pool_b = _term_pairs(vocab_b, rng, dev_rounds + EVAL_ROUNDS)

    generic_pairs = []

    def add_sentence(words, style):
        """One generic sentence over a pair of content words."""
        (sx, tx), (sy, ty) = words
        the_s, the_t = FUNCTION_WORDS[0]
        of_s, of_t = FUNCTION_WORDS[1]
        if style == "separate":
            generic_pairs.append(
                ((the_s, sx, of_s, sy), (the_t, tx, of_t, ty))
            )
        elif style == "bare":
            generic_pairs.append(((sx, sy), (tx, ty)))
        else:  # compound
            generic_pairs.append(((sx, sy), (_compound(tx, ty),)))

    for pool in (term_pool_a, term_pool_b):
        for (x, y) in pool:
            for _ in range(separate_repeats):
                add_sentence((x, y), "bare")
    if domain_a_style == "compound":
        for _ in range(compound_repeats):
            for (x, y) in term_pool_a:
                add_sentence((x, y), "compound")
    # function-word fillers with deterministic partners (balanced counts)
    all_words = vocab_a + vocab_b
    for i in range(len(all_words)):
        add_sentence(
            (all_words[i], all_words[(i + 5) % len(all_words)]), "separate"
        )
    # a sprinkle of reversed-order sentences: generic corpora do contain
    # reorderings, and adaptation can only amplify a pattern that exists
    for i in range(len(all_words)):
        sx, tx = all_words[i]
        sy, ty = all_words[(i + 9) % len(all_words)]
        generic_pairs.append(((sx, sy), (ty, tx)))
    # singleton noise translations (the junk tail)
    for sx, tx in all_words:
        generic_pairs.append(((sx,), (f"xx{tx}",)))

    order = list(range(len(generic_pairs)))
    rng.shuffle(order)
    generic = ParallelCorpus(
        [generic_pairs[i] for i in order], name=f"generic-{seed}"
    )

    def styled_target(tx, ty, style):
        if style == "compound":
            return (_compound(tx, ty),)
        if style == "reorder":
            return (ty, tx)
        return (tx, ty)

    def domain_corpus(pool, style, start, count, name):
        pairs = []
        for (sx, tx), (sy, ty) in pool[start:start + count]:
            pairs.append(((sx, sy), styled_target(tx, ty, style)))
        return ParallelCorpus(pairs, name=name)

    domain_a = DomainData(
        name="icdtoy",
        dev=domain_corpus(term_pool_a, domain_a_style, 0, dev_terms, "icdtoy-dev"),
        eval=domain_corpus(
            term_pool_a, domain_a_style, dev_terms, eval_terms, "icdtoy-eval"
        ),
    )
    domain_b = DomainData(
        name="ifrstoy",
        dev=domain_corpus(term_pool_b, "straight", 0, dev_terms, "ifrstoy-dev"),
        eval=domain_corpus(
            term_pool_b, "straight", dev_terms, eval_terms, "ifrstoy-eval"
        ),
    )

    # external-knowledge lexicon for the injection path: domain-A terms with
    # a domain-correct candidate and the generic straight-style candidate,
    # plus abstracts for cosine ranking
    entries = {}
    for (sx, tx), (sy, ty) in term_pool_a[:dev_terms]:
        correct = styled_target(tx, ty, domain_a_style)
        abstract_domain = f"{sx} {sy} term of the {vocab_a[0][0]} domain"
        entries[(sx, sy)] = LexiconEntry(
            (sx, sy),
            [Candidate(correct, 1.0), Candidate((tx, ty), 1.0)],
            abstract=abstract_domain,
        )
    lexicon = Lexicon(entries)
    return FixtureSet(
        generic=generic, domain_a=domain_a, domain_b=domain_b, lexicon=lexicon
    )


def write_fixture_files(root, seed: int = 42) -> dict[str, str]:
    """Write the fixture set as plain corpus/lexicon files under ``root``.

    Returns a name -> path map for the pipeline configuration.
    """
    fixtures = build_fixture_set(seed=seed)
    paths: dict[str, str] = {}

    def write_corpus(corpus, stem):
        for side, suffix in enumerate(("src", "tgt")):
            path = os.path.join(root, f"{stem}.{suffix}")
            with atomic_open(path) as f:
                f.writelines(" ".join(pair[side]) + "\n" for pair in corpus.pairs)
            paths[f"{stem}.{suffix}"] = path

    write_corpus(fixtures.generic, "generic")
    write_corpus(fixtures.domain_a.dev, "icdtoy-dev")
    write_corpus(fixtures.domain_a.eval, "icdtoy-eval")
    write_corpus(fixtures.domain_b.dev, "ifrstoy-dev")
    write_corpus(fixtures.domain_b.eval, "ifrstoy-eval")

    lex_path = os.path.join(root, "lexicon.tsv")
    save_lexicon(fixtures.lexicon, lex_path)
    paths["lexicon.tsv"] = lex_path
    return paths
