"""IBM Model 1 EM, Viterbi alignment, and phrase extraction."""

import math
import random
from collections import defaultdict

import numpy as np
import pytest

from termforge.align import (
    NULL_TOKEN,
    PROB_FLOOR,
    PhraseOption,
    PhraseTable,
    TranslationTable,
    _consistent_phrases,
    _directional_links,
    _grow_diag,
    extract_phrases,
    ibm1_em,
    load_phrase_table,
    save_phrase_table,
    viterbi_align,
)
from termforge.corpus import ParallelCorpus
from termforge.errors import EmptyCorpusError


def oracle_em(pairs, iterations):
    """Hand-rolled dict-based IBM Model 1 EM with a null source token."""
    src_vocab = sorted({w for s, _ in pairs for w in s}) + [NULL_TOKEN]
    tgt_vocab = sorted({w for _, t in pairs for w in t})
    t = {(tw, sw): 1.0 / len(tgt_vocab) for sw in src_vocab for tw in tgt_vocab}
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        for src, tgt in pairs:
            full_src = list(src) + [NULL_TOKEN]
            for tw in tgt:
                denom = sum(t[(tw, sw)] for sw in full_src)
                for sw in full_src:
                    frac = t[(tw, sw)] / denom
                    counts[(tw, sw)] += frac
                    totals[sw] += frac
        for (tw, sw) in t:
            if totals[sw] > 0:
                t[(tw, sw)] = counts[(tw, sw)] / totals[sw]
    return t


def oracle_loglik(table, pairs):
    """Model 1 log-likelihood with uniform alignment over source+null."""
    total = 0.0
    for src, tgt in pairs:
        full_src = list(src) + [NULL_TOKEN]
        for tw in tgt:
            inner = sum(table.prob(tw, sw) for sw in full_src) / len(full_src)
            total += math.log(inner)
    return total


def random_corpus(seed, n_pairs=50, vocab=8, max_len=6):
    rng = random.Random(seed)
    src_vocab = [f"s{i}" for i in range(vocab)]
    tgt_vocab = [f"t{i}" for i in range(vocab)]
    pairs = []
    for _ in range(n_pairs):
        k = rng.randint(1, max_len)
        src = tuple(rng.choices(src_vocab, k=k))
        # loosely parallel: target echoes source indices with noise
        tgt = tuple(
            tgt_vocab[int(w[1:])] if rng.random() < 0.8 else rng.choice(tgt_vocab)
            for w in src
        )
        pairs.append((src, tgt))
    return ParallelCorpus(pairs)


LA_MAISON = ParallelCorpus(
    [
        (("the", "house"), ("la", "maison")),
        (("the", "flower"), ("la", "fleur")),
    ]
)


class TestIbm1Em:
    def test_matches_hand_run_oracle(self):
        table = ibm1_em(LA_MAISON, 10)
        oracle = oracle_em(LA_MAISON.pairs, 10)
        for (tw, sw), p in oracle.items():
            assert table.prob(tw, sw) == pytest.approx(p, abs=1e-12)

    def test_la_given_the_is_argmax(self):
        table = ibm1_em(LA_MAISON, 10)
        p_la = table.prob("la", "the")
        # maximum of the distribution conditioned on "the"
        for tw in table.tgt_vocab:
            if tw != "la":
                assert table.prob(tw, "the") < p_la
        # and "the" is the best source explanation for "la"
        for sw in table.src_vocab:
            if sw != "the":
                assert table.prob("la", sw) <= p_la

    def test_single_pair_forced_mass(self):
        table = ibm1_em(ParallelCorpus([(("x",), ("a",))]), 5)
        assert table.prob("a", "x") >= table.prob("a", NULL_TOKEN) - 1e-12
        assert table.table.sum(axis=1) == pytest.approx(np.ones(len(table.src_vocab)))

    def test_normalization_after_every_iteration(self):
        for iters in (1, 3, 7):
            table = ibm1_em(random_corpus(2), iters)
            sums = table.table.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-6)

    def test_loglik_non_decreasing(self):
        table = ibm1_em(random_corpus(4), 20)
        hist = table.log_likelihood_history
        assert len(hist) == 20
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9

    def test_history_matches_independent_recomputation(self):
        corpus = random_corpus(6, n_pairs=20)
        full = ibm1_em(corpus, 6)
        for j in range(1, 6):
            partial = ibm1_em(corpus, j)
            # history[j] is the likelihood under the table after j M-steps
            assert full.log_likelihood_history[j] == pytest.approx(
                oracle_loglik(partial, corpus.pairs), abs=1e-9
            )

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            ibm1_em(ParallelCorpus([]), 3)

    def test_deterministic(self):
        t1 = ibm1_em(random_corpus(8), 5)
        t2 = ibm1_em(random_corpus(8), 5)
        assert np.array_equal(t1.table, t2.table)


class TestViterbiAlign:
    def identity_table(self):
        src = [NULL_TOKEN, "a", "b", "c"]
        tgt = ["x", "y", "z"]
        table = np.full((4, 3), 0.01)
        for i, j in [(1, 0), (2, 1), (3, 2)]:
            table[i, j] = 0.9
        return TranslationTable(src, tgt, table, table.copy())

    def test_diagonal_on_identity_table(self):
        table = self.identity_table()
        links = viterbi_align(table, (("a", "b", "c"), ("x", "y", "z")),
                              symmetrization="intersection")
        assert links == {(0, 0), (1, 1), (2, 2)}

    def test_converged_la_maison(self):
        table = ibm1_em(LA_MAISON, 15)
        links = viterbi_align(table, LA_MAISON.pairs[0], symmetrization="grow-diag")
        assert (0, 0) in links  # the -> la
        assert (1, 1) in links  # house -> maison

    def test_intersection_subset_of_union(self):
        table = ibm1_em(random_corpus(12, n_pairs=30), 8)
        for pair in random_corpus(13, n_pairs=10).pairs:
            inter = viterbi_align(table, pair, "intersection")
            union = viterbi_align(table, pair, "union")
            grow = viterbi_align(table, pair, "grow-diag")
            assert inter <= union
            assert inter <= grow <= union

    def test_unknown_symmetrization(self):
        with pytest.raises(ValueError):
            viterbi_align(self.identity_table(), (("a",), ("x",)), "bogus")


def oracle_phrases(src_len, tgt_len, links, max_len):
    """Exhaustive enumeration of consistent spans with a direct predicate."""
    out = set()
    for i1 in range(src_len):
        for i2 in range(i1 + 1, src_len + 1):
            if i2 - i1 > max_len:
                continue
            for j1 in range(tgt_len):
                for j2 in range(j1 + 1, tgt_len + 1):
                    if j2 - j1 > max_len:
                        continue
                    inside = [
                        (i, j) for (i, j) in links if i1 <= i < i2 and j1 <= j < j2
                    ]
                    if not inside:
                        continue
                    consistent = all(
                        (i1 <= i < i2) == (j1 <= j < j2) for (i, j) in links
                        if (i1 <= i < i2) or (j1 <= j < j2)
                    )
                    if consistent:
                        out.add(((i1, i2), (j1, j2)))
    return out


class TestExtractPhrases:
    def test_diagonal_two_token_pair(self):
        corpus = ParallelCorpus([(("a", "b"), ("x", "y"))])
        table = extract_phrases(corpus, [{(0, 0), (1, 1)}])
        pairs = {
            (src, opt.target)
            for src, opts in table.entries.items()
            for opt in opts
        }
        assert pairs == {
            (("a",), ("x",)),
            (("b",), ("y",)),
            (("a", "b"), ("x", "y")),
        }

    def test_matches_enumeration_oracle(self):
        rng = random.Random(77)
        for trial in range(25):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            links = {
                (rng.randrange(m), rng.randrange(n))
                for _ in range(rng.randint(0, m + n))
            }
            src = tuple(f"s{i}" for i in range(m))
            tgt = tuple(f"t{j}" for j in range(n))
            corpus = ParallelCorpus([(src, tgt)])
            max_len = rng.randint(1, 4)
            table = extract_phrases(corpus, [links], max_phrase_len=max_len)
            got = {
                ((src.index(s[0]), src.index(s[0]) + len(s)),
                 (tgt.index(o.target[0]), tgt.index(o.target[0]) + len(o.target)))
                for s, opts in table.entries.items()
                for o in opts
            }
            assert got == oracle_phrases(m, n, links, max_len), (links, max_len)

    def test_unaligned_target_attaches(self):
        corpus = ParallelCorpus([(("a", "b"), ("x", "y", "z"))])
        links = {(0, 0), (1, 2)}
        table = extract_phrases(corpus, [links], max_phrase_len=3)
        pairs = {
            (src, opt.target) for src, opts in table.entries.items() for opt in opts
        }
        assert (("a",), ("x", "y")) in pairs
        assert (("b",), ("y", "z")) in pairs
        assert (("a",), ("x",)) in pairs
        assert (("b",), ("y",)) not in pairs  # y alone belongs to no link

    def test_forward_probs_sum_to_one_per_source(self):
        corpus = random_corpus(21, n_pairs=30)
        word_table = ibm1_em(corpus, 5)
        aligns = [viterbi_align(word_table, p) for p in corpus.pairs]
        ptable = extract_phrases(corpus, aligns, table=word_table)
        for src, opts in ptable.entries.items():
            total = sum(o.features[0] for o in opts)
            assert total <= 1.0 + 1e-6
        # all features are valid probabilities-ish values in (0, 1]
        for opts in ptable.entries.values():
            for o in opts:
                assert all(0.0 < f <= 1.0 + 1e-9 for f in o.features)

    def test_alignment_count_mismatch(self):
        with pytest.raises(ValueError):
            extract_phrases(ParallelCorpus([(("a",), ("x",))]), [])


class TestPhraseTableIO:
    def test_moses_roundtrip(self, tmp_path):
        corpus = random_corpus(31, n_pairs=20)
        word_table = ibm1_em(corpus, 4)
        aligns = [viterbi_align(word_table, p) for p in corpus.pairs]
        ptable = extract_phrases(corpus, aligns, table=word_table)
        path = tmp_path / "phrase-table"
        save_phrase_table(ptable, path)
        again = load_phrase_table(path)
        assert set(again.entries) == set(ptable.entries)
        for src in ptable.entries:
            got = {(o.target, o.features) for o in again.entries[src]}
            want = {(o.target, o.features) for o in ptable.entries[src]}
            assert got == want

    def test_file_format(self, tmp_path):
        ptable = PhraseTable({("a",): [PhraseOption(("x",), (0.5, 1.0, 0.25, 1.0))]})
        path = tmp_path / "pt"
        save_phrase_table(ptable, path)
        line = path.read_text(encoding="utf-8").strip()
        assert line == "a ||| x ||| 0.5 1.0 0.25 1.0"


# Reference implementations: plain scans over the links and the table.
# The array-backed versions in termforge.align must match them exactly,
# down to the iteration order of the link sets, because lexical weights
# sum in link order and are written with repr.


def reference_directional_links(table, pair):
    src, tgt = pair
    src_ids = [table._src_index.get(w, 0) for w in src]
    tgt_ids = [table._tgt_index.get(w) for w in tgt]
    forward = set()
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
    reverse = set()
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


def reference_grow_diag(forward, reverse, src_len, tgt_len):
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
    for cand in sorted(union - links):
        src_free = all(link[0] != cand[0] for link in links)
        tgt_free = all(link[1] != cand[1] for link in links)
        if src_free or tgt_free:
            links.add(cand)
    return links


def reference_consistent_phrases(src_len, tgt_len, links, max_len):
    aligned_tgt = {j for _, j in links}
    out = []
    for i1 in range(src_len):
        for i2 in range(i1 + 1, min(i1 + max_len, src_len) + 1):
            span_links = [(i, j) for i, j in links if i1 <= i < i2]
            if not span_links:
                continue
            j_min = min(j for _, j in span_links)
            j_max = max(j for _, j in span_links) + 1
            if any(j_min <= j < j_max and not (i1 <= i < i2) for i, j in links):
                continue
            if j_max - j_min > max_len:
                continue
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


def reference_lexical_weight(src_phrase, tgt_phrase, span_links, table, inverse=False):
    """Koehn lexical weight of one phrase instance over its internal links."""
    weight = 1.0
    if inverse:
        for i, s in enumerate(src_phrase):
            aligned = [j for (ii, j) in span_links if ii == i]
            if aligned:
                total = sum(table.inv_prob(s, tgt_phrase[j]) for j in aligned)
                weight *= total / len(aligned)
        return weight
    for j, t in enumerate(tgt_phrase):
        aligned = [i for (i, jj) in span_links if jj == j]
        if aligned:
            total = sum(table.prob(t, src_phrase[i]) for i in aligned)
            weight *= total / len(aligned)
        else:
            weight *= table.prob(t, NULL_TOKEN)
    return weight


def reference_lexical_features(corpus, alignments, max_len, table):
    """(forward, reverse) lexical weight of each phrase pair: the maximum
    over its instances, each weighed on its own."""
    best = {}
    for (src, tgt), links in zip(corpus.pairs, alignments):
        for (i1, i2), (j1, j2) in reference_consistent_phrases(
            len(src), len(tgt), links, max_len
        ):
            s_phrase, t_phrase = tuple(src[i1:i2]), tuple(tgt[j1:j2])
            internal = [
                (i - i1, j - j1) for i, j in links if i1 <= i < i2 and j1 <= j < j2
            ]
            fwd = reference_lexical_weight(s_phrase, t_phrase, internal, table)
            rev = reference_lexical_weight(s_phrase, t_phrase, internal, table, True)
            old = best.get((s_phrase, t_phrase), (0.0, 0.0))
            best[(s_phrase, t_phrase)] = (max(old[0], fwd), max(old[1], rev))
    return best


def word_table(rng, draw):
    """A table over s0..s5 / t0..t5 (plus null) with entries from ``draw``."""
    src_vocab = [NULL_TOKEN] + [f"s{i}" for i in range(6)]
    tgt_vocab = [f"t{j}" for j in range(6)]

    def block():
        return np.array([[draw() for _ in tgt_vocab] for _ in src_vocab])

    return TranslationTable(src_vocab, tgt_vocab, block(), block())


def tied_table(rng):
    """Entries from a few values, so exact ties (with each other, with
    null, and at zero) are common."""
    return word_table(rng, lambda: rng.choice([0.0, 0.125, 0.25, 0.5]))


def random_links(rng, m, n):
    cells = [(i, j) for i in range(m) for j in range(n)]
    return set(rng.sample(cells, rng.randint(0, min(len(cells), m + n))))


class TestAgainstReference:
    def test_directional_links_with_ties_and_unknown_words(self):
        rng = random.Random(5)
        for _ in range(300):
            table = tied_table(rng)
            # s6 / t6 are unknown to the table
            src = tuple(f"s{rng.randrange(7)}" for _ in range(rng.randint(0, 7)))
            tgt = tuple(f"t{rng.randrange(7)}" for _ in range(rng.randint(0, 7)))
            got = _directional_links(table, (src, tgt))
            want = reference_directional_links(table, (src, tgt))
            assert [list(x) for x in got] == [list(x) for x in want], (src, tgt)

    def test_grow_diag(self):
        rng = random.Random(6)
        for _ in range(500):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            forward, reverse = random_links(rng, m, n), random_links(rng, m, n)
            got = _grow_diag(forward, reverse)
            want = reference_grow_diag(forward, reverse, m, n)
            assert list(got) == list(want), (forward, reverse)

    def test_consistent_phrases(self):
        rng = random.Random(7)
        for _ in range(500):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            links = random_links(rng, m, n)
            max_len = rng.randint(1, 5)
            got = _consistent_phrases(m, n, links, max_len)
            assert got == reference_consistent_phrases(m, n, links, max_len)

    def test_lexical_weights_bit_equal(self):
        rng = random.Random(8)
        for _ in range(40):
            # sums of arbitrary floats depend on their order
            table = word_table(rng, lambda: rng.uniform(0.05, 1.0))
            pairs, alignments = [], []
            for _ in range(6):
                # short pairs: whole-sentence boxes hold words with 3+ links
                m, n = rng.randint(1, 5), rng.randint(1, 5)
                pairs.append((
                    tuple(f"s{rng.randrange(7)}" for _ in range(m)),
                    tuple(f"t{rng.randrange(7)}" for _ in range(n)),
                ))
                alignments.append(random_links(rng, m, n))
            corpus = ParallelCorpus(pairs)
            max_len = rng.randint(1, 5)
            ptable = extract_phrases(corpus, alignments, max_len, table=table)
            want = reference_lexical_features(corpus, alignments, max_len, table)
            got = {
                (s, o.target): o.features[2:]
                for s, opts in ptable.entries.items()
                for o in opts
            }
            assert set(got) == set(want)
            for key, (fwd, rev) in want.items():
                assert got[key] == (max(fwd, PROB_FLOOR), max(rev, PROB_FLOOR))
