"""BPE learning, application, and inversion."""

import random
from collections import Counter

import pytest

from termforge.bpe import (
    apply_bpe,
    decode_bpe,
    learn_bpe,
)
from termforge.errors import EmptyCorpusError


def brute_force_best_pair(freqs):
    """Oracle: count adjacent character pairs inside each word directly."""
    counts = Counter()
    for word, f in freqs.items():
        for a, b in zip(word, word[1:]):
            counts[(a, b)] += f
    best = max(counts.values())
    return min(p for p, c in counts.items() if c == best)


class TestLearnBpe:
    def test_first_merge_matches_oracle(self):
        freqs = {"low": 5, "lower": 2}
        model = learn_bpe(freqs, 1)
        assert model.merges[0] == brute_force_best_pair(freqs)

    def test_first_merge_oracle_on_random_corpora(self):
        rng = random.Random(3)
        for trial in range(10):
            freqs = {
                "".join(rng.choices("abcde", k=rng.randint(1, 6))): rng.randint(1, 9)
                for _ in range(rng.randint(2, 12))
            }
            model = learn_bpe(freqs, 1)
            assert model.merges[0] == brute_force_best_pair(freqs), freqs

    def test_zero_merges(self):
        model = learn_bpe({"abc": 1}, 0)
        assert model.merges == []
        assert apply_bpe(model, ("abc",)) == ("a@@", "b@@", "c")

    def test_single_repeated_char_word(self):
        model = learn_bpe({"aa": 1}, 1)
        assert model.merges[0] == ("a", "a")

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            learn_bpe({}, 5)

    def test_no_duplicate_merges(self):
        model = learn_bpe({"banana": 4, "bandana": 3, "cabana": 2}, 50)
        assert len(model.merges) == len(set(model.merges))

    def test_deterministic(self):
        freqs = {"low": 3, "lowest": 3, "newer": 3, "wider": 3}
        first = learn_bpe(freqs, 20).merges
        second = learn_bpe(freqs, 20).merges
        assert first == second


class TestApplyBpe:
    def test_compound_splits_into_trained_units(self):
        # Trained on the pieces only: the unseen compound must come out as
        # exactly those pieces, the way 'heartburn' -> 'heart' + 'burn'.
        freqs = {"heart": 20, "burn": 20}
        model = learn_bpe(freqs, 50)
        assert apply_bpe(model, ("heartburn",)) == ("heart@@", "burn")

    def test_empty_sequence(self):
        model = learn_bpe({"ab": 1}, 1)
        assert apply_bpe(model, ()) == ()

    def test_seen_word_becomes_single_unit(self):
        model = learn_bpe({"low": 5}, 10)
        assert apply_bpe(model, ("low",)) == ("low",)

    def test_unknown_characters_stay_single(self):
        model = learn_bpe({"ab": 3}, 5)
        out = apply_bpe(model, ("xy",))
        assert out == ("x@@", "y")

    def test_monotone_subword_count(self):
        freqs = {"terminology": 3, "terminal": 5, "nominal": 2}
        words = ("terminology", "terminal", "nominal", "term")
        prev = None
        for k in range(0, 30, 3):
            model = learn_bpe(freqs, k)
            counts = [len(apply_bpe(model, (w,))) for w in words]
            if prev is not None:
                assert all(c <= p for c, p in zip(counts, prev))
            prev = counts


class TestDecodeBpe:
    def test_marker_join(self):
        assert decode_bpe(("heart@@", "burn")) == ("heartburn",)

    def test_no_markers_passthrough(self):
        assert decode_bpe(("sonstige", "bakterielle", "krankheiten")) == (
            "sonstige",
            "bakterielle",
            "krankheiten",
        )

    def test_dangling_marker_joins_the_final_word(self):
        assert decode_bpe(("low", "heart@@")) == ("low", "heart")
        assert decode_bpe(("low", "he@@", "art@@")) == ("low", "heart")
        assert decode_bpe(("low", "he@@", "@@")) == ("low", "he")
        assert decode_bpe(("low", "@@")) == ("low",)

    def test_roundtrip_random_sentences(self):
        rng = random.Random(11)
        vocab = ["heart", "burn", "low", "lower", "orbit", "blutgefäßen", "a", "zq"]
        model = learn_bpe({w: rng.randint(1, 10) for w in vocab}, 40)
        for _ in range(1000):
            sent = tuple(rng.choices(vocab + ["unseen", "xyzzy"], k=rng.randint(1, 8)))
            assert decode_bpe(apply_bpe(model, sent)) == sent

