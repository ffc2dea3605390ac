"""Cosine candidate ranking and annotated-input construction."""

import math
import random

import pytest

from termforge.corpus import Candidate, Lexicon, LexiconEntry, tokenize
from termforge.inject import (
    annotate,
    cosine_score,
    domain_vector,
    rank_candidates,
    tf_vector,
)
from termforge.smt import CONSTRAINT, EXCLUSIVE, format_markup, parse_markup

MEDICAL_ABSTRACT = (
    "the orbit is the cavity or socket of the skull in which the eye and "
    "its appendages are situated the eye socket protects the eye"
)
ASTRONOMY_ABSTRACT = (
    "in physics an orbit is the gravitationally curved trajectory of an "
    "object around a planet or star such as the trajectory of a satellite"
)
MEDICAL_DOMAIN_TERMS = [
    "diseases of the eye and skull",
    "disorders of eye socket and cavity",
    "injury of the eye",
]


def random_vector(rng, size=8, vocab=30):
    return tf_vector(
        [f"v{rng.randrange(vocab)}" for _ in range(rng.randint(1, size))]
    )


class TestCosineScore:
    def test_identical_vectors(self):
        x = tf_vector(["a", "b", "b"])
        assert cosine_score(x, x) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        x = tf_vector(["a"])
        y = tf_vector(["b"])
        assert cosine_score(x, y) == 0.0

    def test_empty_vector(self):
        assert tf_vector([]) == {}
        assert cosine_score({}, tf_vector(["a"])) == 0.0

    def test_symmetry_random(self):
        rng = random.Random(3)
        for _ in range(1000):
            x, y = random_vector(rng), random_vector(rng)
            assert abs(cosine_score(x, y) - cosine_score(y, x)) < 1e-12
            assert 0.0 <= cosine_score(x, y) <= 1.0

    def test_scale_invariance(self):
        rng = random.Random(5)
        for _ in range(200):
            tokens = [f"v{rng.randrange(10)}" for _ in range(rng.randint(1, 8))]
            x = tf_vector(tokens)
            # scaling all raw weights by one constant leaves cosine unchanged
            c = rng.uniform(0.1, 50.0)
            uniform_scaled = {k: v * c for k, v in x.items()}
            y = random_vector(rng, vocab=10)
            assert cosine_score(uniform_scaled, y) == pytest.approx(
                cosine_score(x, y), abs=1e-9
            )

    def test_l2_normalization_invariant(self):
        rng = random.Random(7)
        for _ in range(100):
            vec = random_vector(rng)
            norm = math.sqrt(sum(v * v for v in vec.values()))
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_orbita_beats_umlaufbahn_for_medical_domain(self):
        domain = domain_vector(MEDICAL_DOMAIN_TERMS)
        medical = cosine_score(domain, tf_vector(tokenize(MEDICAL_ABSTRACT)))
        astro = cosine_score(domain, tf_vector(tokenize(ASTRONOMY_ABSTRACT)))
        assert medical > astro


def lexicon_of(*entries):
    # a later entry for the same source term replaces an earlier one
    return Lexicon({e.source_term: e for e in entries})


def orbit_lexicon():
    return lexicon_of(
        LexiconEntry(
            ("orbit",), [Candidate(("orbita",), 1.0)], MEDICAL_ABSTRACT
        ),
        LexiconEntry(
            ("orbit",), [Candidate(("umlaufbahn",), 1.0)], None
        ),
    )


class TestRankCandidates:
    def lexicon(self):
        return lexicon_of(
            LexiconEntry(
                ("orbit",),
                [Candidate(("orbita",), 0.3), Candidate(("umlaufbahn",), 1.0)],
                MEDICAL_ABSTRACT,
            ),
            LexiconEntry(("burn",), [Candidate(("verbrennung",), 1.0)]),
        )

    def test_uniform_sets_all_to_one(self):
        ranked = rank_candidates(self.lexicon())
        for entry in ranked.entries.values():
            for cand in entry.candidates:
                assert cand.score == 1.0

    def test_cosine_without_abstract_scores_zero(self):
        domain = domain_vector(MEDICAL_DOMAIN_TERMS)
        ranked = rank_candidates(self.lexicon(), domain)
        burn = ranked.entries[("burn",)]
        assert burn.candidates[0].score == 0.0

    def test_cosine_matches_hand_computed_dot_product(self):
        # two-token domain, one-token overlap with the abstract "a a b"
        domain = tf_vector(["a", "c"])
        lex = lexicon_of(LexiconEntry(("x",), [Candidate(("y",), 1.0)], "a a b"))
        ranked = rank_candidates(lex, domain)
        # abstract tf: a=2, b=1 -> normalized a=2/sqrt(5), b=1/sqrt(5)
        # domain: a=c=1/sqrt(2); dot = (1/sqrt(2)) * (2/sqrt(5))
        want = (1 / 2**0.5) * (2 / 5**0.5)
        assert ranked.entries[("x",)].candidates[0].score == pytest.approx(want, abs=1e-12)

    def test_input_lexicon_unchanged(self):
        lex = self.lexicon()
        rank_candidates(lex)
        assert lex.entries[("orbit",)].candidates[0].score == 0.3

    def test_empty_domain_scores_zero_not_uniform(self):
        # an empty domain vector is still cosine ranking: no overlap, score 0
        ranked = rank_candidates(self.lexicon(), {})
        for entry in ranked.entries.values():
            for cand in entry.candidates:
                assert cand.score == 0.0


class TestAnnotate:
    def lexicon(self):
        return lexicon_of(
            LexiconEntry(
                ("orbit",),
                [Candidate(("orbita",), 0.872), Candidate(("umlaufbahn",), 0.512)],
            ),
            LexiconEntry(("blood",), [Candidate(("blut",), 0.9)]),
            LexiconEntry(
                ("blood", "vessels"), [Candidate(("blutgefäßen",), 0.8)]
            ),
        )

    def test_single_match_with_two_candidates(self):
        annotated = annotate(("disorders", "of", "orbit"), self.lexicon())
        (span,) = annotated.spans
        assert (span.start, span.end) == (2, 3)
        assert [(c.tokens, c.score) for c in span.candidates] == [
            (("orbita",), 0.872),
            (("umlaufbahn",), 0.512),
        ]

    def test_no_match_passthrough(self):
        annotated = annotate(("sonstige", "krankheiten"), self.lexicon())
        assert annotated.spans == []
        assert annotated.tokens == ("sonstige", "krankheiten")

    def test_longest_match_wins(self):
        annotated = annotate(
            ("injury", "of", "blood", "vessels"), self.lexicon()
        )
        (span,) = annotated.spans
        assert (span.start, span.end) == (2, 4)
        assert span.candidates[0].tokens == ("blutgefäßen",)

    def test_matches_consume_tokens(self):
        annotated = annotate(("blood", "blood", "vessels"), self.lexicon())
        assert [(s.start, s.end) for s in annotated.spans] == [(0, 1), (1, 3)]

    def test_spans_ascending_non_overlapping(self):
        rng = random.Random(31)
        vocab = ["orbit", "blood", "vessels", "x", "y", "z"]
        for _ in range(50):
            tokens = tuple(rng.choices(vocab, k=rng.randint(1, 10)))
            annotated = annotate(tokens, self.lexicon(), mode=CONSTRAINT)
            annotated.validate()
            ends = 0
            for span in annotated.spans:
                assert span.start >= ends
                assert span.mode == CONSTRAINT
                ends = span.end

    def test_markup_roundtrip(self):
        annotated = annotate(("disorders", "of", "orbit"), self.lexicon())
        line = format_markup(annotated)
        assert line == (
            'disorders of <n translation="orbita||umlaufbahn" '
            'prob="0.872 || 0.512">orbit</n>'
        )
        assert parse_markup(line, mode=EXCLUSIVE) == annotated

    def test_missing_scores_become_certainty(self):
        annotated = annotate(("orbit",), orbit_lexicon())
        assert all(c.score == 1.0 for c in annotated.spans[0].candidates)

    def test_matches_brute_force_scan(self):
        """Random lexicons over a four-word vocabulary (terms of 1-4
        tokens, so prefixes are shared; some sources listed twice, the later
        entry winning) against a scan that tries every listed entry at every
        position, left to right, longest match first."""

        def scan(tokens, entries):
            spans, i = [], 0
            while i < len(tokens):
                best = None
                for entry in entries:
                    term = entry.source_term
                    if tokens[i:i + len(term)] == term and (
                        best is None or len(term) >= len(best.source_term)
                    ):
                        best = entry
                if best is None:
                    i += 1
                    continue
                end = i + len(best.source_term)
                scores = [c.score for c in best.candidates]
                spans.append((i, end, [c.tokens for c in best.candidates], scores))
                i = end
            return spans

        rng = random.Random(24)
        vocab = ["a", "b", "c", "d"]
        for _ in range(300):
            entries = []
            for k in range(rng.randint(0, 8)):
                if entries and rng.random() < 0.2:
                    source = rng.choice(entries).source_term
                else:
                    source = tuple(rng.choices(vocab, k=rng.randint(1, 4)))
                candidates = [
                    Candidate((f"t{k}_{j}",), rng.choice((1.0, rng.random())))
                    for j in range(rng.randint(1, 3))
                ]
                entries.append(LexiconEntry(source, candidates))
            lexicon = lexicon_of(*entries)
            for _ in range(10):
                tokens = tuple(rng.choices(vocab + ["z"], k=rng.randint(0, 12)))
                mode = rng.choice((EXCLUSIVE, CONSTRAINT))
                annotated = annotate(tokens, lexicon, mode)
                assert annotated.tokens == tokens
                got = [
                    (s.start, s.end, [c.tokens for c in s.candidates],
                     [c.score for c in s.candidates])
                    for s in annotated.spans
                ]
                assert got == scan(tokens, entries), (entries, tokens)
                assert all(s.mode == mode for s in annotated.spans)
