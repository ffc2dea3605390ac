"""BLEU / chrF3 / METEOR-lite oracles and report formatting."""

import math
import random
from collections import Counter

import pytest

from termforge import metrics
from termforge.metrics import (
    BLEU_ORDER,
    bleu,
    bleu_from_stats,
    bleu_stats,
    chrf3,
    format_report,
    load_results,
    meteor_lite,
    ngram_counts,
    save_results,
    score_all,
)


def random_segments(seed, n=100, vocab=30, max_len=12):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab)]
    return [tuple(rng.choices(words, k=rng.randint(1, max_len))) for _ in range(n)]


class TestBleu:
    def test_identity_is_100(self):
        segs = random_segments(1)
        assert bleu(segs, segs) == pytest.approx(100.0)

    def test_clipping_the_the_the(self):
        ref = ("the", "cat")
        correct, total, hyp_len, ref_len = bleu_stats(
            ("the", "the", "the"), ref, ngram_counts(ref)
        )
        # modified unigram precision is exactly 1/3: one clipped match of 3
        assert correct[0] == 1 and total[0] == 3
        assert hyp_len == 3 and ref_len == 2

    def test_disjoint_vocabulary_is_zero(self):
        hyps = [("aaa", "bbb")] * 5
        refs = [("xxx", "yyy")] * 5
        assert bleu(hyps, refs) < 1e-4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu([("a",)], [("a",), ("b",)])
        with pytest.raises(ValueError):
            bleu([], [])

    def test_modified_precision_never_exceeds_one(self):
        rng = random.Random(5)
        for _ in range(200):
            hyp = tuple(rng.choices(["a", "b", "c"], k=rng.randint(1, 8)))
            ref = tuple(rng.choices(["a", "b", "c"], k=rng.randint(1, 8)))
            correct, total, _, _ = bleu_stats(hyp, ref, ngram_counts(ref))
            for c, t in zip(correct, total):
                assert c <= t

    def test_brevity_penalty_boundary(self):
        # equal or longer hypothesis: no penalty; shorter: strictly below 1
        assert bleu_from_stats([2, 1, 0, 0], [2, 1, 0, 0], 2, 2) == pytest.approx(
            100.0
        )
        longer = bleu_from_stats([2, 1, 0, 0], [2, 1, 0, 0], 2, 4)
        assert longer < 100.0
        assert longer == pytest.approx(100.0 * math.exp(1 - 4 / 2))

    def test_segment_order_invariance(self):
        hyps = random_segments(7, n=30)
        refs = random_segments(8, n=30)
        direct = bleu(hyps, refs)
        perm = list(range(30))
        random.Random(3).shuffle(perm)
        assert bleu([hyps[i] for i in perm], [refs[i] for i in perm]) == pytest.approx(
            direct
        )


def _reference_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def reference_bleu_stats(hypothesis, reference):
    """``bleu_stats`` as it was before it took reference counts: one
    ``Counter`` per order and side."""
    correct = [0] * BLEU_ORDER
    total = [0] * BLEU_ORDER
    for n in range(1, BLEU_ORDER + 1):
        hyp_ngrams = _reference_ngram_counts(hypothesis, n)
        ref_ngrams = _reference_ngram_counts(reference, n)
        total[n - 1] = sum(hyp_ngrams.values())
        correct[n - 1] = sum(
            min(count, ref_ngrams.get(gram, 0)) for gram, count in hyp_ngrams.items()
        )
    return correct, total, len(hypothesis), len(reference)


def oracle_segment_pairs(seed=0):
    """Hypothesis/reference pairs: empty sides, lengths 1-3 (orders with no
    n-grams), few-word vocabularies (repeated tokens and n-grams) and long
    segments."""
    rng = random.Random(seed)
    pairs = [((), ()), ((), ("a",)), (("a",), ()), (("a", "a", "a"), ("a", "a"))]
    for _ in range(400):
        words = [f"w{i}" for i in range(rng.choice([1, 2, 3, 8, 40]))]
        lengths = [rng.choice([0, 1, 2, 3, rng.randint(4, 12), rng.randint(30, 80)])
                   for _ in range(2)]
        hyp, ref = (tuple(rng.choices(words, k=k)) for k in lengths)
        pairs.append((hyp, ref))
        pairs.append((hyp, hyp[: rng.randint(0, len(hyp))]))
    return pairs


class TestBleuStatsOracle:
    def test_equals_one_counter_per_order(self):
        for hyp, ref in oracle_segment_pairs():
            got = bleu_stats(hyp, ref, ngram_counts(ref))
            assert got == reference_bleu_stats(hyp, ref), (hyp, ref)

    def test_precomputed_reference_counts(self):
        for hyp, ref in oracle_segment_pairs(seed=1):
            counts = metrics.ngram_counts(ref)
            assert bleu_stats(hyp, ref, counts) == reference_bleu_stats(hyp, ref)
            # the counts are read, never changed
            assert counts == metrics.ngram_counts(ref)


def oracle_chrf(hyps, refs, max_n=6, beta=3.0):
    """Independent enumeration: build every n-gram list explicitly."""
    precisions, recalls = [], []
    for n in range(1, max_n + 1):
        hyp_total = ref_total = overlap = 0
        for hyp, ref in zip(hyps, refs):
            h = "".join(hyp)
            r = "".join(ref)
            h_grams = [h[i:i + n] for i in range(len(h) - n + 1)]
            r_grams = [r[i:i + n] for i in range(len(r) - n + 1)]
            hyp_total += len(h_grams)
            ref_total += len(r_grams)
            r_remaining = Counter(r_grams)
            for g in h_grams:
                if r_remaining[g] > 0:
                    overlap += 1
                    r_remaining[g] -= 1
        if hyp_total and ref_total:
            precisions.append(overlap / hyp_total)
            recalls.append(overlap / ref_total)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0:
        return 0.0
    return 100.0 * (1 + beta**2) * p * r / (beta**2 * p + r)


class TestChrf3:
    def test_identity_is_100(self):
        segs = random_segments(11)
        assert chrf3(segs, segs) == pytest.approx(100.0)

    def test_abc_abd_matches_enumeration(self):
        got = chrf3([("abc",)], [("abd",)])
        want = oracle_chrf([("abc",)], [("abd",)])
        assert got == pytest.approx(want, abs=1e-6)
        # symmetric counts make F equal the shared average precision=recall
        assert got == pytest.approx(100.0 * (2 / 3 + 1 / 2 + 0) / 3, abs=1e-6)

    def test_twenty_hand_enumerated_pairs(self):
        rng = random.Random(17)
        words = ["heart", "burn", "orbit", "orbita", "blut", "gefäßen", "a", "bb"]
        for _ in range(20):
            hyp = [tuple(rng.choices(words, k=rng.randint(1, 5)))]
            ref = [tuple(rng.choices(words, k=rng.randint(1, 5)))]
            assert chrf3(hyp, ref) == pytest.approx(oracle_chrf(hyp, ref), abs=1e-6)

    def test_recall_weighting_dominates(self):
        # same counts, beta=3 must exceed beta=1 whenever recall > precision;
        # F1 comes from the oracle
        hyp = [("ab",)]
        ref = [("abab",)]  # recall < precision here, so F3 < F1
        assert chrf3(hyp, ref) < oracle_chrf(hyp, ref, beta=1.0)
        hyp2 = [("abab",)]
        ref2 = [("ab",)]  # precision < recall: F3 > F1
        assert chrf3(hyp2, ref2) > oracle_chrf(hyp2, ref2, beta=1.0)

    def test_whitespace_excluded(self):
        # tokens are concatenated, so token boundaries add no n-grams
        assert chrf3([("ab", "cd")], [("abcd",)]) == pytest.approx(100.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chrf3([("a",)], [])


class TestMeteorLite:
    def test_identical_segment_approaches_100(self):
        for m in range(5, 11):
            seg = tuple(f"w{i}" for i in range(m))
            score = meteor_lite([seg], [seg])
            want = (1.0 - 0.5 * (1.0 / m) ** 3) * 100.0
            assert score == pytest.approx(want, abs=1e-9)
            assert abs(score - 100.0) < 0.5

    def test_zero_matches_is_zero(self):
        assert meteor_lite([("aaa",)], [("bbb",)]) == 0.0

    def test_manual_formula_oracle(self):
        hyp = ("the", "cat", "sat")
        ref = ("the", "cat", "is", "on", "the", "mat")
        # greedy alignment: the->0, cat->1; one chunk of two matches
        p, r = 2 / 3, 2 / 6
        f_mean = p * r / (0.9 * p + 0.1 * r)
        want = 100.0 * f_mean * (1.0 - 0.5 * (1 / 2) ** 3)
        assert meteor_lite([hyp], [ref]) == pytest.approx(want, abs=1e-6)

    def test_recall_weighted_higher_than_precision(self):
        # drop a hypothesis word (precision 1) vs add a spurious word
        # (recall 1): sacrificing recall must cost more
        ref = [("a", "b", "c", "d")]
        short_hyp = [("a", "b")]          # P=1, R=1/2
        long_hyp = [("a", "b", "c", "d", "x", "y", "z", "q")]  # P=1/2, R=1
        assert meteor_lite(long_hyp, ref) > meteor_lite(short_hyp, ref)

    def test_chunks_penalize_fragmentation(self):
        ref = [("a", "b", "c", "d")]
        contiguous = [("a", "b", "c", "d")]
        scrambled = [("b", "a", "d", "c")]  # same matches, more chunks
        assert meteor_lite(scrambled, ref) < meteor_lite(contiguous, ref)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            meteor_lite([("a",)], [("a",), ("b",)])


class TestReport:
    def one_score(self):
        return {"bleu": 12.5, "meteor": 20.0, "chrf3": 40.0}

    def test_single_cell(self):
        text = format_report({("smt", "icd"): self.one_score()})
        assert "BLEU" in text and "chrF3" in text and "METEOR" in text
        assert "12.50" in text and "40.00" in text

    def test_matrix_shape_and_missing_cells(self):
        results = {
            ("smt", "icd"): self.one_score(),
            ("smt", "ifrs"): self.one_score(),
            ("nmt", "icd"): self.one_score(),
        }
        text = format_report(results)
        lines = text.splitlines()
        bleu_block = lines[: lines.index("")]
        assert bleu_block[0] == "BLEU"
        assert "icd" in bleu_block[1] and "ifrs" in bleu_block[1]
        assert any(row.startswith("nmt") and "/" in row for row in bleu_block)

    def test_tsv_export(self, tmp_path):
        results = {("smt", "icd"): self.one_score()}
        path = tmp_path / "results.tsv"
        save_results(results, path)
        text = path.read_text(encoding="utf-8")
        rows = [line.split("\t") for line in text.strip().splitlines()]
        assert ["smt", "icd", "bleu", "12.500000"] in rows
        assert ["smt", "icd", "chrf3", "40.000000"] in rows
        assert load_results(path) == results

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_report({})


class TestScoreAll:
    def test_purity_and_determinism(self):
        hyps = random_segments(41, n=20)
        refs = random_segments(42, n=20)
        first = score_all(hyps, refs)
        second = score_all(hyps, refs)
        assert first == second
        assert 0.0 <= first.bleu <= 100.0
        assert 0.0 <= first.chrf3 <= 100.0
        assert 0.0 <= first.meteor <= 100.0
        assert first.segment_count == 20
